"""Loops, checks and metrics of the verdict benchmark; see run.py.

Each workload is a closed loop with one caller in one process: the next
verdict starts when the previous one returns.  A verdict is one
`extremality_test` (or `extremality_test_discrete`) call on a prepared
function.  Inputs are built before timing starts; import plus input
construction is the set-up time.  The loop runs whole passes over the
workload's instances, at least two, and starts another only while all of
it is expected to fit in the run's seconds.  The gated times are scaled
to one fixed machine speed by the calibration in speed.py; the
raw wall times are printed beside them.  Every outcome is compared with the
pinned reference.json, and independent checks run after the timed loop.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import groupcut as gc
from groupcut import kernels
from groupcut.complex2d import faces_of_complex

import instances
import speed
import stages

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import groupcut; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """`import groupcut` in a fresh interpreter, timed inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def environment(seed: int, loadavg) -> dict:
    return {"python": platform.python_version(),
            "interpreter": platform.python_implementation(),
            "kernel": kernels.implementation(),
            "nproc": os.cpu_count(),
            "loadavg_start": [round(x, 2) for x in loadavg],
            "seed": seed}


def baseline_warnings(env: dict) -> list[str]:
    """Differences from the interpreter and kernel the predictions were
    measured with; results across them are not comparable."""
    with open(HERE / "predictions.json") as fh:
        base = json.load(fh)["baseline"]
    return [f"{key} is {env[key]}, baseline was {base[key]}: "
            "do not compare with the recorded baseline"
            for key in ("interpreter", "python", "kernel")
            if env[key] != base[key]]


def setup(workload: str, seed: int, tracer=None):
    """Build the inputs SETUP_REPEATS times, with a calibration (speed.py)
    before each.  Returns (instances, median set-up seconds scaled by the
    median calibration to the baseline machine's speed, median raw set-up
    seconds, per-repeat tracer busy times)."""
    for _ in range(speed.WARMUP):
        speed.calibration_seconds()
    raw, calibrations, busy = [], [], []
    for _ in range(SETUP_REPEATS):
        calibrations.append(speed.calibration_seconds())
        imp = import_seconds()
        mark = len(tracer.spans) if tracer is not None else 0
        t = perf_counter()
        insts = instances.build(workload, seed, tracer)
        raw.append(imp + perf_counter() - t)
        if tracer is not None:
            totals: dict[str, float] = {}
            for name, start, end, _ in tracer.spans[mark:]:
                totals[name] = totals.get(name, 0.0) + (end - start)
            busy.append(totals)
    scale = speed.REFERENCE_S / statistics.median(calibrations)
    return insts, statistics.median(raw) * scale, statistics.median(raw), busy


class Checker:
    """Collects outcome mismatches and failed checks."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.problems: list[str] = []

    def outcome(self, name: str, got: dict) -> bool:
        want = self.reference.get(name)
        if want is None:
            self.problems.append(f"{name}: no pinned reference")
            return False
        if not instances.matches(want, got):
            self.problems.append(f"{name}: got {got}, reference {want}")
            return False
        return True

    def require(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def independent_checks(insts, reports: dict, check: Checker):
    """Checks that do not rest on reference.json: the finite restriction at
    oversampling 3 agrees with the infinite model, and every covered
    non-extreme verdict's perturbation is certified by the minimality test."""
    for inst in insts:
        rep = reports.get(inst.name)
        if rep is None or isinstance(rep, gc.GroupCutError):
            continue
        if inst.base is not None:
            infinite = gc.extremality_test(inst.base).is_extreme
            check.require(infinite == rep.is_extreme,
                          f"{inst.name}: finite verdict {rep.is_extreme}, "
                          f"infinite verdict {infinite}")
        if rep.perturbation is None:
            continue
        fn, pert, eps = inst.fn, rep.perturbation, rep.epsilon
        if isinstance(fn, gc.DiscreteFunction):
            check.require(any(pert.values), f"{inst.name}: zero perturbation")
            for sign in (1, -1):
                moved = gc.DiscreteFunction(
                    fn.q, fn.points,
                    tuple(v + sign * eps * w
                          for v, w in zip(fn.values, pert.values)), fn.f)
                check.require(
                    gc.minimality_test_discrete(moved, f=fn.f).is_minimal,
                    f"{inst.name}: pi {sign:+d}*eps*pert is not minimal")
        else:
            check.require(any(any(t) for t in pert.limits),
                          f"{inst.name}: zero perturbation")
            f = rep.minimality.f_used
            for sign in (1, -1):
                moved = gc.linear_combination(1, fn, sign * eps, pert, f=f)
                check.require(gc.minimality_test(moved, f=f).is_minimal,
                              f"{inst.name}: pi {sign:+d}*eps*pert is not minimal")


def more_passes(pass_times: list[float], start: float, seconds: float) -> bool:
    """Whole passes, at least two, while the next one is expected to end
    within the run's seconds."""
    if len(pass_times) < 2:
        return True
    mean = sum(pass_times) / len(pass_times)
    return perf_counter() - start + mean <= seconds


def timed_loop(insts, seconds: float, check: Checker):
    """Untraced verdicts in whole passes.  Returns (raw samples per
    instance, the same scaled to the baseline machine's speed, the
    speedometer, first-pass reports, attempted, failed, refused)."""
    samples = {inst.name: [] for inst in insts}
    scaled = {inst.name: [] for inst in insts}
    meter = speed.Speedometer()
    reports: dict = {}
    attempted = failed = refused = 0
    pass_times: list[float] = []
    start = perf_counter()
    while more_passes(pass_times, start, seconds):
        pass_start = perf_counter()
        for inst in insts:
            fn = instances.fresh(inst.fn)
            attempted += 1
            try:
                t = perf_counter()
                result = instances.verdict(fn)
                samples[inst.name].append(perf_counter() - t)
            except Exception:  # an untyped error is a failed attempt, not a crash
                traceback.print_exc()
                failed += 1
                check.require(False, f"{inst.name}: unexpected exception")
                continue
            meter.record(scaled[inst.name], samples[inst.name][-1])
            got = instances.outcome(result)
            refused += got["verdict"] == "refused"
            if not check.outcome(inst.name, got):
                failed += 1
            reports.setdefault(inst.name, result)
        pass_times.append(perf_counter() - pass_start)
    meter.flush()
    return samples, scaled, meter, reports, attempted, failed, refused


def pass_metrics(insts, samples) -> tuple[float, float]:
    """(verdicts_per_s, largest_verdict_s) of per-instance samples: each
    instance's median over the run's passes gives the throughput of one
    pass, and the median of the largest instances' medians (on the ladders
    one instance, on screen-random the largest-grid candidates) the largest
    verdict time."""
    medians = {name: statistics.median(v) for name, v in samples.items() if v}
    largest = [medians[i.name] for i in insts
               if i.largest and i.name in medians]
    return (len(medians) / sum(medians.values()),
            statistics.median(largest))


def end_to_end(insts, samples, scaled, setup_s: float,
               raw_setup_s: float) -> tuple[dict, list[str]]:
    """The gated metrics from the speed-scaled samples; the same metrics
    from the raw wall times, the pooled verdict-time percentiles and the
    sample counts on the notes."""
    verdicts_per_s, largest_verdict_s = pass_metrics(insts, scaled)
    raw_per_s, raw_largest_s = pass_metrics(insts, samples)
    metrics = {
        "verdicts_per_s": (verdicts_per_s, "1/s"),
        "largest_verdict_s": (largest_verdict_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    pooled = sorted(t for v in samples.values() for t in v)
    n_largest = sum(len(samples[i.name]) for i in insts if i.largest)
    notes = [f"samples: {len(pooled)} verdicts ({len(pooled) // len(insts)} "
             f"passes over {len(insts)} instances); largest_verdict_s over "
             f"{n_largest} samples",
             f"raw wall time: verdicts_per_s {raw_per_s:.6g} 1/s, "
             f"largest_verdict_s {raw_largest_s:.6g} s, "
             f"setup_s {raw_setup_s:.6g} s",
             f"verdict_p50_ms {statistics.median(pooled) * 1e3:.4f} ms over "
             f"{len(pooled)} samples (raw)"]
    if len(pooled) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(pooled, n=10)[-1]
        notes.append(f"verdict_p90_ms {p90 * 1e3:.4f} ms over "
                     f"{len(pooled)} samples (raw)")
    else:
        notes.append("verdict_p90_ms not reported: fewer than ten samples "
                     "beyond the 90th percentile")
    return metrics, notes


def traced_loop(insts, seconds: float, tracer, check: Checker):
    """Untraced verdict then traced replay per instance, whole passes, at
    least two so the counts can be compared.  Returns (per-instance busy
    samples, untraced and traced totals, counts per pass, first-pass
    reports, attempted, failed, complex-face counts)."""
    busy = {inst.name: {} for inst in insts}
    untraced = {inst.name: [] for inst in insts}
    traced = {inst.name: [] for inst in insts}
    counts_by_pass: list[dict] = []
    complex_faces: dict[str, int] = {}
    reports: dict = {}
    attempted = failed = 0
    pass_times: list[float] = []
    start = perf_counter()
    while more_passes(pass_times, start, seconds):
        pass_start = perf_counter()
        pass_counts = dict.fromkeys(stages.COUNTS, 0)
        for inst in insts:
            attempted += 1
            fn = instances.fresh(inst.fn)
            t = perf_counter()
            result = instances.verdict(fn)
            untraced[inst.name].append(perf_counter() - t)
            want = instances.outcome(result)
            reports.setdefault(inst.name, result)
            got, counts, root = stages.replay(instances.fresh(inst.fn), tracer,
                                              inst.name)
            _, t0, t1, _ = tracer.spans[root]
            traced[inst.name].append(t1 - t0)
            ok = check.outcome(inst.name, got)
            plain = {k: v for k, v in got.items() if k != "maximal_faces"}
            check.require(plain == want, f"{inst.name}: traced {plain}, "
                                         f"untraced {want}")
            failed += not (ok and plain == want)
            for k, v in counts.items():
                pass_counts[k] += v
            spans = tracer.busy(root)
            # phase two and the finite system build are differences of
            # spans; a verdict that never reached them keeps the empty span
            spans["covering.phase2"] = spans["covering"]
            if "maximal_faces" in got:
                spans["covering.phase2"] -= spans["covering.phase1"]
            spans["extremality.discrete_system"] = (
                spans["extremality.test_discrete"])
            if (isinstance(inst.fn, gc.DiscreteFunction)
                    and counts["extremality.system.rows"]):
                spans["extremality.discrete_system"] -= (
                    spans["minimality.discrete"] + spans["exactlinalg.kernel"]
                    + spans["extremality.epsilon_discrete"])
            for k, v in spans.items():
                busy[inst.name].setdefault(k, []).append(v)
            if "maximal_faces" in got and inst.name not in complex_faces:
                complex_faces[inst.name] = len(faces_of_complex(inst.fn))
        counts_by_pass.append(pass_counts)
        pass_times.append(perf_counter() - pass_start)
    return (busy, untraced, traced, counts_by_pass, complex_faces, reports,
            attempted, failed)


LAYER_TIMES = (
    ("complex2d.faces.busy_s", "complex2d.faces"),
    ("covering.phase1.busy_s", "covering.phase1"),
    ("covering.phase2.busy_s", "covering.phase2"),
    ("minimality.busy_s", "minimality"),
    ("minimality.discrete.busy_s", "minimality.discrete"),
    ("scan.busy_s", "scan"),
    ("extremality.symbolic.busy_s", "extremality.symbolic"),
    ("extremality.system.busy_s", "extremality.system"),
    ("extremality.discrete_system.busy_s", "extremality.discrete_system"),
    ("exactlinalg.kernel.busy_s", "exactlinalg.kernel"),
    ("extremality.epsilon.busy_s", "extremality.epsilon"),
    ("extremality.epsilon_discrete.busy_s", "extremality.epsilon_discrete"),
)


def per_layer(busy, untraced, traced, counts, complex_faces, setup_busy):
    """Layer busy time: the sum over instances of each instance's median
    span time, so a layer's times add up to one pass."""
    def total(per_instance):
        return sum(statistics.median(v) for v in per_instance.values())

    metrics: dict = {}
    for metric, span in LAYER_TIMES:
        metrics[metric] = (total({n: b[span] for n, b in busy.items()}), "s")
    for key in ("transforms", "pwl.random"):
        metrics[f"{key}.busy_s"] = (
            statistics.median(b.get(key, 0.0) for b in setup_busy), "s")
    for key, value in counts.items():
        metrics[key] = (value, "count")
    n_complex = sum(complex_faces.values())
    metrics["complex2d.complex_faces"] = (n_complex, "count")
    metrics["complex2d.additive_ratio"] = (
        counts["complex2d.maximal_faces"] / n_complex if n_complex else 0.0,
        "ratio")
    rows = counts["extremality.system.rows"]
    metrics["exactlinalg.rank_per_row"] = (
        counts["exactlinalg.rank"] / rows if rows else 0.0, "ratio")
    plain, with_spans = total(untraced), total(traced)
    metrics["trace.untraced_s"] = (plain, "s")
    metrics["trace.traced_s"] = (with_spans, "s")
    metrics["trace.overhead_ratio"] = (with_spans / plain - 1, "ratio")
    shares = ", ".join(f"{span} {metrics[m][0] / plain:.1%}"
                       for m, span in LAYER_TIMES)
    return metrics, [f"layer shares of untraced verdict time: {shares}"]


def write_spans(workload: str, seed: int, env: dict, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"env": env, "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return path


def main(argv, loadavg) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed, loadavg)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    for warning in baseline_warnings(env):
        print(f"# WARNING {warning}")
        print(f"perfbench: WARNING {warning}", file=sys.stderr)

    check = Checker(instances.load_reference())
    tracer = stages.Tracer() if args.trace else None
    insts, setup_s, raw_setup_s, setup_busy = setup(args.workload,
                                                    args.seed, tracer)
    if args.trace:
        (busy, untraced, traced, counts_by_pass, complex_faces, reports,
         attempted, failed) = traced_loop(insts, args.seconds, tracer, check)
        repeat = all(c == counts_by_pass[0] for c in counts_by_pass)
        check.require(repeat, "counts differ between traced passes")
        metrics, notes = per_layer(busy, untraced, traced, counts_by_pass[0],
                                   complex_faces, setup_busy)
        notes.append(f"{len(counts_by_pass)} traced passes, counts identical: "
                     f"{repeat}")
        path = write_spans(args.workload, args.seed, env, tracer)
        notes.append(f"spans written to {path}")
    else:
        (samples, scaled, meter, reports, attempted, failed,
         refused) = timed_loop(insts, args.seconds, check)
        metrics, notes = end_to_end(insts, samples, scaled, setup_s,
                                    raw_setup_s)
        notes.append(meter.note())
        notes.append(f"refused (pinned typed refusals, not failures): "
                     f"{refused} of {attempted}")
    independent_checks(insts, reports, check)

    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    for problem in check.problems[:50]:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    correct = not check.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1
