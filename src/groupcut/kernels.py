"""The slack-scan kernel under the name `groupcut.kernels`.

The kernel is the pure-Python module groupcut._scan; the benchmark harness
in perfbench/ imports it from here and stamps implementation() on its runs.
"""

from . import _scan as scan

SIDE_TRIPLES = scan.SIDE_TRIPLES


def implementation() -> str:
    return "pure-python"
