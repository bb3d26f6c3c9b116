"""The integer slack-scan kernel on hand-checked tables."""

import random
from bisect import bisect_left
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


def test_fold_reads_the_limit_table_on_the_interval():
    # fold moves a one-sided point of [0, 2D] onto [0, D]; the side's
    # limit read there from the piece beside it, with no wrapping, is the
    # periodic table's limit at the point
    rng = random.Random(32)
    for D in range(1, 13):
        for _ in range(4):
            b = sorted({0, D, *rng.sample(range(D + 1), rng.randint(0, D))})
            rows = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in b]
            rows[-1] = rows[0]
            coords = range(2 * D + 1)
            table, W = _scan.limit_table(b, rows, 1, coords)
            for t in coords:
                for side in (0, 1, -1):
                    u = _scan.fold(t, side, D)
                    assert 0 <= u <= D
                    assert (u, side) not in ((D, 1), (0, -1))
                    i = bisect_left(b, u)
                    if b[i] == u:  # rows[i] is (value, right, left) at u
                        lim = F(rows[i][side])
                    else:  # inside the piece [b[i - 1], b[i]]
                        lo, right = b[i - 1], rows[i - 1][1]
                        lim = right + F(rows[i][2] - right,
                                        b[i] - lo) * (u - lo)
                    assert F(table[t][side], W) == lim, (D, b, t, side)


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
