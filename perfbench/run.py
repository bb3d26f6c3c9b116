"""groupcut verdict benchmark: time to an exact extremality verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ladder-discontinuous, ladder-continuous, screen-random,
finite-restriction (see instances.py).  The library is imported from the
src/ directory next to this one and nowhere else.

With --trace 0 the end-to-end metrics are reported; with --trace 1 each
instance is also replayed stage by stage (see stages.py), the per-layer
metrics are reported and the spans are written to perfbench/out/.  Lines
starting with "#" give the environment stamp, sample counts, the raw wall
times before speed scaling (see speed.py) and the medians that are not
gated.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  Any outcome that
differs from reference.json, or any failed check, makes "correct" false and
the exit code 1.  Without the library sources the exit code is 2.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    loadavg = os.getloadavg()
    if not (SRC / "groupcut" / "__init__.py").is_file():
        print(f"perfbench: no groupcut sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main(sys.argv[1:], loadavg))
