"""Workload inputs, verdict outcomes and the pinned reference.

Every input is an exact function built through groupcut's public API.  The
three ladders are fixed instance lists in ascending size, so the largest
instance runs last in each pass.  `screen-random` draws its candidates from
a fixed pool of seeded `random_piecewise_function` calls: the workload seed
chooses which pool members run, and every pool member's outcome is pinned
in reference.json, so any seed is checked.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Optional

import groupcut as gc

WORKLOADS = ("ladder-discontinuous", "ladder-continuous", "screen-random",
             "finite-restriction")

# (xgrid, ygrid, continuous_proba) of the screen candidates, cycled in order
SCREEN_CONFIGS = ((4, 4, F(1, 2)), (6, 6, F(1, 2)), (8, 8, F(1, 2)),
                  (6, 6, F(1)))
SCREEN_POOL = 400       # candidate seeds 0..399 per configuration, all pinned
SCREEN_PER_CONFIG = 300  # 1200 candidates per workload seed

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Instance:
    name: str
    fn: object              # PiecewiseFunction or DiscreteFunction
    largest: bool = False   # counted in largest_verdict_s
    base: Optional[gc.PiecewiseFunction] = None  # infinite-model source of a restriction


def screen_name(config, seed: int) -> str:
    x, y, p = config
    return f"x{x}y{y}c{p}:s{seed}"


def screen_seeds(workload_seed: int) -> list[list[int]]:
    """Per-configuration candidate seeds drawn from the workload seed."""
    rng = random.Random(workload_seed)
    return [rng.sample(range(SCREEN_POOL), SCREEN_PER_CONFIG)
            for _ in SCREEN_CONFIGS]


def _random_specs(workload: str, seed: int) -> list[tuple]:
    """(name, xgrid, ygrid, continuous_proba, seed) of the random inputs."""
    if workload == "ladder-discontinuous":
        return [(f"random{s}", 4, 4, F(1, 2), s) for s in (227, 344)]
    if workload == "screen-random":
        per_config = [[(screen_name(c, s), *c, s) for s in seeds]
                      for c, seeds in zip(SCREEN_CONFIGS, screen_seeds(seed))]
        return [spec for group in zip(*per_config) for spec in group]
    return []


def _derive(workload: str, fns: dict) -> list[Instance]:
    """The workload's instances from its compendium and random functions."""
    hom, restrict = gc.multiplicative_homomorphism, gc.restrict_to_finite_group
    if workload == "ladder-discontinuous":
        hb = fns["hildebrand"]
        return [
            Instance("gomory_fractional", fns["gomory_fractional"]),
            Instance("equiv5_random_discont_1", fns["equiv5_random_discont_1"]),
            Instance("random227:lam=1", hom(fns["random227"], 1)),
            Instance("random344:lam=1", hom(fns["random344"], 1)),
            Instance("hildebrand:lam=1", hom(hb, 1)),
            Instance("random227:lam=2", hom(fns["random227"], 2)),
            Instance("random344:lam=2", hom(fns["random344"], 2)),
            Instance("hildebrand:lam=2", hom(hb, 2), largest=True),
        ]
    if workload == "ladder-continuous":
        gj, drlm = fns["gj_2_slope"], fns["drlm"]
        return [
            Instance("gmic", fns["gmic"]),
            Instance("gj_2_slope:lam=1", hom(gj, 1)),
            Instance("drlm:lam=1", hom(drlm, 1)),
            Instance("drlm:lam=2", hom(drlm, 2)),
            Instance("gj_2_slope:lam=2", hom(gj, 2)),
            Instance("drlm:lam=3", hom(drlm, 3)),
            Instance("gj_2_slope:lam=4", hom(gj, 4)),
            Instance("gj_2_slope:lam=6", hom(gj, 6), largest=True),
        ]
    if workload == "finite-restriction":
        gj, drlm, gmic = fns["gj_2_slope"], fns["drlm"], fns["gmic"]
        return [
            Instance("gmic:os=3", restrict(gmic, oversampling=3), base=gmic),
            Instance("gj_2_slope:os=1", restrict(gj, oversampling=1)),
            Instance("drlm:os=3", restrict(drlm, oversampling=3), base=drlm),
            Instance("gj_2_slope:os=2", restrict(gj, oversampling=2)),
            Instance("gj_2_slope:os=3", restrict(gj, oversampling=3), base=gj,
                     largest=True),
        ]
    return [Instance(name, fn, largest=name.startswith("x8"))
            for name, fn in fns.items()]


COMPENDIUM = {
    "ladder-discontinuous": {
        "hildebrand": gc.hildebrand_discont_3_slope_1,
        "gomory_fractional": gc.gomory_fractional,
        "equiv5_random_discont_1": gc.equiv5_random_discont_1},
    "ladder-continuous": {
        "gmic": lambda: gc.gmic(F(4, 5)), "gj_2_slope": gc.gj_2_slope,
        "drlm": gc.drlm_backward_3_slope},
}
COMPENDIUM["finite-restriction"] = COMPENDIUM["ladder-continuous"]


def build(workload: str, seed: int, tracer=None) -> list[Instance]:
    """Construct the workload's inputs: compendium constructors, then the
    random functions inside one `pwl.random` span, then the transforms
    inside one `transforms` span.  Both spans are recorded on every build
    when a tracer is given, empty for a workload that makes no such call."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    fns = {name: make() for name, make in COMPENDIUM.get(workload, {}).items()}
    with span("pwl.random"):
        for name, x, y, p, s in _random_specs(workload, seed):
            fns[name] = gc.random_piecewise_function(x, y, p, True, seed=s)
    with span("transforms"):
        return _derive(workload, fns)


def fresh(fn):
    """An equal function object with empty per-object caches, so every timed
    verdict starts from a prepared function as a user's first call does."""
    if isinstance(fn, gc.DiscreteFunction):
        return gc.DiscreteFunction(fn.q, fn.points, fn.values, fn.f)
    return gc.PiecewiseFunction(fn.breakpoints, fn.limits, fn.f)


def verdict(fn):
    """One verdict: the report, or the typed refusal it raised."""
    test = (gc.extremality_test_discrete if isinstance(fn, gc.DiscreteFunction)
            else gc.extremality_test)
    try:
        return test(fn)
    except gc.GroupCutError as exc:
        return exc


def outcome(result) -> dict:
    """The comparable summary of a verdict: what reference.json pins."""
    if isinstance(result, gc.GroupCutError):
        return {"verdict": "refused", "error": type(result).__name__}
    if not result.is_minimal:
        return {"verdict": "not_minimal",
                "violations": len(result.minimality.violations)}
    out: dict = {}
    if result.covered is not None:
        out["components"] = len(result.covered.components)
        if result.covered.uncovered:
            out["verdict"] = "uncovered"
            out["uncovered"] = [[str(a), str(b)]
                                for a, b in result.covered.uncovered]
            return out
    out["verdict"] = "extreme" if result.is_extreme else "not_extreme"
    out["kernel_dim"] = result.kernel_dimension
    if result.epsilon is not None:
        out["epsilon"] = str(result.epsilon)
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["outcomes"]


def matches(reference: dict, got: dict) -> bool:
    """Compare an outcome with its pinned entry.  maximal_faces is pinned
    for every minimal instance but known only to the traced path, so it is
    compared only when the outcome carries it."""
    want = dict(reference)
    if "maximal_faces" not in got:
        want.pop("maximal_faces", None)
    return want == got
