"""The integer slack-scan kernel on hand-checked tables."""

import random
from fractions import Fraction as F

from groupcut import _scan, kernels


def test_limit_table_periodic_tables():
    b, rows, V = [0, 20, 60], [(0, 1, 7), (5, 6, 4), (0, 1, 7)], 12
    t, W = _scan.limit_table(b, rows, V, [0, 10, 60, 80])
    assert W == 12 * 40  # V * lcm(20, 40)
    # left limit at 0 reads the table entry stored for 1
    assert F(t[0][-1], W) == F(7, 12)
    assert F(t[60][-1], W) == F(7, 12)
    assert F(t[60][1], W) == F(1, 12)
    assert F(t[80][0], W) == F(5, 12)
    # interior interpolation between right(0)=1 and left(20)=4
    assert F(t[10][0], W) == F(5, 24)


def test_complex_vertices_square():
    # the vertices with x <= y: the slack is symmetric
    assert _scan.complex_vertices([0, 10]) == [(0, 0), (0, 10), (10, 10)]


def test_complex_vertices_match_grid_line_intersections():
    rng = random.Random(8)
    for _ in range(300):
        D = rng.randint(1, 40)
        b = sorted({0, D, *(rng.randint(0, D) for _ in range(rng.randint(0, 9)))})
        diag = b + [c + D for c in b[1:]]
        pts = {(x, y) for x in b for y in b}
        pts.update((x, c - x) for x in b for c in diag if 0 <= c - x <= D)
        pts.update((c - y, y) for y in b for c in diag if 0 <= c - y <= D)
        assert _scan.complex_vertices(b) == sorted(
            (x, y) for x, y in pts if x <= y)


def test_scan_discrete_matches_all_pairs():
    # small values make negative, zero and positive slacks all common
    rng = random.Random(27)
    seen = set()
    for q in range(1, 41):
        for _ in range(3):
            v = [rng.randint(-4, 4) for _ in range(q)]
            v.append(v[0])
            pairs = [(i, j, v[i] + v[j] - v[(i + j) % q])
                     for i in range(q + 1) for j in range(i, q + 1)]
            neg, zero, min_pos = _scan.scan_discrete(v, q)
            assert neg == [p for p in pairs if p[2] < 0]
            assert zero == sorted((p for p in pairs if p[2] == 0),
                                  key=lambda p: (p[1] - p[0], p[0]))
            assert min_pos == min((s for *_, s in pairs if s > 0), default=0)
            seen.update((s > 0) - (s < 0) for *_, s in pairs)
    assert seen == {-1, 0, 1}


def test_default_selection_reports_implementation():
    assert kernels.implementation() == "pure-python"
