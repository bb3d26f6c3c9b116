"""Regenerate reference.json, the pinned outcome of every benchmark input.

    python3 perfbench/pin_reference.py

Pins the three ladders and the whole screen-random pool (every candidate
seed of every configuration), so any workload seed is checked.  Run it only
when a verdict is meant to change, and say why in the change that does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import groupcut as gc  # noqa: E402
from groupcut import kernels  # noqa: E402

import instances  # noqa: E402


def pinned_outcome(fn) -> dict:
    """The untraced verdict's outcome plus, for a minimal infinite-model
    function, its number of maximal additive faces."""
    out = instances.outcome(instances.verdict(fn))
    if (out["verdict"] != "not_minimal"
            and not isinstance(fn, gc.DiscreteFunction)):
        out["maximal_faces"] = len(gc.generate_maximal_additive_faces(fn).faces)
    return out


def main():
    outcomes = {}
    for workload in ("ladder-discontinuous", "ladder-continuous",
                     "finite-restriction"):
        for inst in instances.build(workload, 0):
            outcomes[inst.name] = pinned_outcome(inst.fn)
    for config in instances.SCREEN_CONFIGS:
        for seed in range(instances.SCREEN_POOL):
            fn = gc.random_piecewise_function(*config, True, seed=seed)
            outcomes[instances.screen_name(config, seed)] = pinned_outcome(fn)
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True, cwd=HERE).stdout
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in outcomes.items()]
    with open(instances.REFERENCE_PATH, "w") as fh:
        # one outcome per line, so a changed verdict shows as a one-line diff
        fh.write(f'{{\n "pinned_at": {json.dumps(commit.strip())},\n'
                 f' "kernel": {json.dumps(kernels.implementation())},\n'
                 ' "outcomes": {\n' + ",\n".join(lines) + "\n }\n}\n")
    print(f"pinned {len(outcomes)} outcomes to {instances.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
