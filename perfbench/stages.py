"""Traced replay of the verdict pipeline, stage by stage.

The replay calls the same public functions `extremality_test` and
`extremality_test_discrete` call, in the same order, and wraps each call in
a span named after the layer it enters.  A typed refusal ends the replay as
it ends the untraced verdict; `covering.check` asks covering for its
refusal before faces are enumerated, as `generate_covered_components` does.
`scan` repeats the slack scan minimality also runs, to time the `_scan`
layer alone.  Spans are recorded from here, around the calls into the
library; the library itself is not instrumented.  Every stage's span is
opened on every verdict, so a stage the verdict never needs records an
empty span (its cost is the tracer's own, about a microsecond).

The finite model's system build has no public entry: its time is the
`extremality.test_discrete` span minus the minimality, kernel and epsilon
spans, which replay the parts of that call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import groupcut as gc
from groupcut import kernels
from groupcut.complex2d import scan_vertex_slacks
from groupcut.exactlinalg import kernel_basis
from groupcut.extremality import find_epsilon_discrete, perturbation_from_vector
from groupcut.rational import common_denominator

# span names, in pipeline order
STAGES = (
    "scan",
    "minimality",
    "minimality.discrete",
    "covering.check",
    "complex2d.faces",
    "covering.phase1",
    "covering",
    "extremality.symbolic",
    "extremality.system",
    "extremality.test_discrete",
    "exactlinalg.kernel",
    "extremality.epsilon",
    "extremality.epsilon_discrete",
)

COUNTS = (
    "scan.vertex_cones",
    "minimality.violations",
    "complex2d.maximal_faces",
    "covering.components",
    "covering.edge_moves",
    "covering.uncovered",
    "extremality.system.rows",
    "extremality.system.cols",
    "exactlinalg.rank",
    "exactlinalg.kernel_dim",
    "extremality.epsilon.calls",
)


class Tracer:
    """In-memory spans: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self.spans[idx][2] = perf_counter()
            self._open.pop()

    def busy(self, root: int) -> dict[str, float]:
        """Total duration per span name among the direct children of root."""
        out: dict[str, float] = {}
        for name, start, end, parent in self.spans[root + 1:]:
            if parent == root:
                out[name] = out.get(name, 0.0) + (end - start)
        return out


class _Replay:
    """State of one traced verdict; each method is one stage."""

    def __init__(self, fn):
        self.fn = fn
        self.discrete = isinstance(fn, gc.DiscreteFunction)
        self.done = False
        self.out: dict = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _finish(self, **fields):
        self.out.update(fields)
        self.done = True

    def scan(self):
        fn = self.fn
        if self.discrete:
            V = common_denominator(fn.values)
            kernels.scan.scan_discrete([int(v * V) for v in fn.values], fn.q)
            self.counts["scan.vertex_cones"] = (fn.q + 1) * (fn.q + 2) // 2
        else:
            points = scan_vertex_slacks(fn, upper_triangle=True)[0]
            cones = 1 if fn.is_continuous else len(kernels.SIDE_TRIPLES)
            self.counts["scan.vertex_cones"] = len(points) * cones

    def _minimal(self, rep):
        self.rep = rep
        self.counts["minimality.violations"] = len(rep.violations)
        if not rep.is_minimal:
            self._finish(verdict="not_minimal", violations=len(rep.violations))

    def minimality(self):
        if not self.discrete:
            self._minimal(gc.minimality_test(self.fn))

    def minimality_discrete(self):
        if self.discrete:
            self._minimal(gc.minimality_test_discrete(self.fn))

    def covering_check(self):
        # covering refuses some inputs before any face is enumerated; an
        # empty face set asks it to do just that check
        if not self.discrete:
            gc.generate_covered_components(self.fn, gc.AdditiveFaceSet((), ()))

    def complex2d_faces(self):
        if not self.discrete:
            self.additive = gc.generate_maximal_additive_faces(self.fn)
            n = len(self.additive.faces)
            self.counts["complex2d.maximal_faces"] = n
            self.out["maximal_faces"] = n

    def covering_phase1(self):
        if not self.discrete:
            gc.directly_covered_components(self.fn, self.additive)

    def covering(self):
        if self.discrete:
            return
        cov = self.covered = gc.generate_covered_components(self.fn,
                                                            self.additive)
        self.counts["covering.components"] = len(cov.components)
        self.counts["covering.edge_moves"] = len(cov.edges_used)
        self.counts["covering.uncovered"] = len(cov.uncovered)
        self.out["components"] = len(cov.components)
        if cov.uncovered:
            self._finish(verdict="uncovered",
                         uncovered=[[str(a), str(b)] for a, b in cov.uncovered])

    def extremality_symbolic(self):
        if not self.discrete:
            self.sym = gc.generate_symbolic(self.fn, self.covered)

    def _system(self, system):
        self.system = system
        self.counts["extremality.system.rows"] = len(system.rows)
        self.counts["extremality.system.cols"] = system.ncols

    def extremality_system(self):
        if not self.discrete:
            self._system(gc.build_equation_system(self.fn, self.sym,
                                                  self.rep.f_used))

    def extremality_test_discrete(self):
        if self.discrete:
            self.report = gc.extremality_test_discrete(self.fn)
            self._system(self.report.system)

    def exactlinalg_kernel(self):
        self.basis = kernel_basis(self.system.rows, self.system.ncols)
        dim = len(self.basis)
        self.counts["exactlinalg.rank"] = self.system.ncols - dim
        self.counts["exactlinalg.kernel_dim"] = dim
        if dim == 0:
            self._finish(verdict="extreme", kernel_dim=0)

    def extremality_epsilon(self):
        if not self.discrete:
            pert = perturbation_from_vector(self.sym, self.basis[0],
                                            f=self.rep.f_used)
            self._epsilon(gc.find_epsilon(self.fn, pert))

    def extremality_epsilon_discrete(self):
        if self.discrete:
            self._epsilon(find_epsilon_discrete(self.fn,
                                                self.report.perturbation))

    def _epsilon(self, eps):
        self.counts["extremality.epsilon.calls"] = 1
        self._finish(verdict="not_extreme", kernel_dim=len(self.basis),
                     epsilon=str(eps))


def replay(fn, tracer: Tracer, label: str):
    """Traced verdict on fn.  Returns (outcome, counts, root span index);
    the outcome has the keys of `instances.outcome` plus maximal_faces."""
    state = _Replay(fn)
    with tracer.span(label) as root:
        for name in STAGES:
            with tracer.span(name):
                if state.done:
                    continue
                try:
                    getattr(state, name.replace(".", "_"))()
                except gc.GroupCutError as exc:
                    state._finish(verdict="refused", error=type(exc).__name__)
    return state.out, state.counts, root
