"""Self-test of the verdict benchmark: fast, no timing asserted.

Runs the smallest instance of each workload, and its smallest minimal
instance, through the untraced path and twice through the traced replay.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import instances  # noqa: E402
import speed  # noqa: E402
import stages  # noqa: E402

REFERENCE = instances.load_reference()


def _smallest(workload):
    insts = instances.build(workload, 0)
    minimal = next(i for i in insts
                   if REFERENCE[i.name]["verdict"] != "not_minimal")
    return [insts[0], minimal]


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_smallest_instances_untraced_and_traced(workload):
    for inst in _smallest(workload):
        want = REFERENCE[inst.name]
        untraced = instances.outcome(instances.verdict(instances.fresh(inst.fn)))
        assert instances.matches(want, untraced), inst.name
        tracer = stages.Tracer()
        first = stages.replay(instances.fresh(inst.fn), tracer, inst.name)
        second = stages.replay(instances.fresh(inst.fn), tracer, inst.name)
        traced, counts, root = first
        assert instances.matches(want, traced), inst.name
        assert {k: v for k, v in traced.items() if k != "maximal_faces"} == untraced
        assert second[:2] == (traced, counts), "counts must repeat exactly"
        assert set(tracer.busy(root)) == set(stages.STAGES)


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_every_input_is_pinned(workload):
    for seed in (0, 1, 12345):
        names = [i.name for i in instances.build(workload, seed)]
        assert len(set(names)) == len(names)
        assert all(name in REFERENCE for name in names)


def test_screen_candidates_follow_the_seed():
    def names(seed):
        return [i.name for i in instances.build("screen-random", seed)]

    assert names(7) == names(7)
    assert names(7) != names(8)
    assert len(names(7)) == len(instances.SCREEN_CONFIGS) * instances.SCREEN_PER_CONFIG


def test_speedometer_scales_every_recorded_time():
    meter = speed.Speedometer()
    raw = (0.5, 1.0, 2.0)
    scaled: list[float] = []
    for t in raw:
        meter.record(scaled, t)
    meter.flush()
    assert len(scaled) == len(raw) and not meter.pending
    # recorded within one calibration interval, so all share one scale
    scale = scaled[0] / raw[0]
    assert scale > 0
    assert all(s == pytest.approx(t * scale) for s, t in zip(scaled, raw))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder-continuous",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_manifest_matches_the_reported_metrics():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(instances.WORKLOADS)

    one = instances.Instance("x", None, largest=True)
    e2e, _ = harness.end_to_end([one], {"x": [1.0, 2.0]},
                                {"x": [1.0, 2.0]}, 0.1, 0.1)
    busy = {"x": {span: [1.0] for _, span in harness.LAYER_TIMES}}
    layers, _ = harness.per_layer(busy, {"x": [1.0]}, {"x": [1.1]},
                                  dict.fromkeys(stages.COUNTS, 1), {"x": 2},
                                  [{}])
    for section, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        declared = {m["name"]: m["unit"] for m in manifest[section]}
        assert {name: unit for name, (_, unit) in metrics.items()} == declared
