"""Integer-scaled slack-scan kernels.

These are the hot loops of the subadditivity machinery: evaluating the slack
pi(x) + pi(y) - pi(x+y), with one-sided limits, at every vertex of the
two-dimensional additivity complex (up to 12 limit cones per vertex), and the
all-pairs scan for functions on a finite cyclic group.

Everything here works on plain Python ints so results stay exact at any
precision.  A piecewise function is passed as the table of
PiecewiseFunction.scaled_tables():

    b       breakpoints scaled by a common denominator D, b[0] = 0, b[-1] = D
    rows    rows[i] = (value, right limit, left limit) at b[i], each scaled
            by a common denominator V

The table is periodic: rows 0 and n describe the same point of the
circle, so rows[0][2] is the left limit at 1 and rows[-1][1] the right
limit at 0.  Query points are ints on the D-grid; sums up to 2*D are
reduced here.  fold is the same seam seen on the interval [0, D]: it
moves a one-sided point there, so that D approached from the right is 0
and 0 approached from the left is D, for readers that take each limit
from the piece beside the point, with no wrapping.

A scan evaluates the function once per distinct coordinate, not once per
cone: limit_table fills, for each coordinate p that the scan meets (x, y
and x + y), the triple (value, right limit, left limit) at p mod D, all on
one common denominator W = V * lcm(piece lengths).  An interior point's
value, interpolated over a piece of length span, is an integer over
V * span and so over W.  The triple is indexed by side 0, 1 and -1, and a
cone's slack is tx[sx] + ty[sy] - ts[ss], a sum of plain integers over W.
The coordinates take O(n^2) distinct values mod D for n breakpoints, while
the vertices number O(n^2) with up to 13 cones each.  The symmetry check
of minimality reads the same kind of table at the breakpoints and their
mirror images.

The finite scan walks the pairs of the group by diagonal, (i, i + d) in
order of d = j - i and then i; its negative pairs are returned in (i, j)
order, its tight pairs in diagonal order.

This module has no package dependencies.
"""

from bisect import bisect_left, bisect_right
from math import lcm

# Approach directions (side of x, side of y, side of x+y) for the value and
# the up-to-12 limit cones at a vertex: 6 rays along grid lines, 6 open
# sectors between them.  0 = value, 1 = limit from the right, -1 = from the
# left.  Scanning all of them at every vertex is safe: a triple whose
# direction lies inside a larger face evaluates to that face's limit.
SIDE_TRIPLES = (
    (0, 0, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (0, 1, 1),
    (0, -1, -1),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 1, 1),
    (-1, -1, -1),
    (1, -1, -1),
    (1, -1, 1),
    (-1, 1, 1),
    (-1, 1, -1),
)


def fold(t, side, D):
    """The point t of [0, 2D] on the circle [0, D], approached from side
    (0, 1 or -1): past D, t is t - D; D from the right is 0 and 0 from the
    left is D, so the side's limit lies on a piece inside [0, D]."""
    if t > D:
        t -= D
    if side and t == (D if side > 0 else 0):
        return D - t
    return t


def limit_table(b, rows, V, coords):
    """The limits of the function at the grid points coords, once each.

    Returns (table, W): table[p] is the triple (value, right limit, left
    limit) at (p mod D) / D for each p of coords, each an integer over
    W = V * lcm(piece lengths), so it is indexed by side 0, 1 and -1.
    Keys are the points as given, so p and p + D are both keys when both
    are met.  Reducing p mod D is what makes the periodic table at 0/1
    behave: the left limit at 0 reads rows[0][2], stored as the left limit
    at 1.
    """
    D = b[-1]
    L = lcm(*(hi - lo for lo, hi in zip(b, b[1:])))
    at = {p: (v * L, r * L, l * L) for p, (v, r, l) in zip(b[:-1], rows)}
    table = {}
    for p in coords:
        r = p % D
        t = at.get(r)
        if t is None:
            # interior: interpolate from right(b[i]) to left(b[i + 1])
            i = bisect_right(b, r) - 1
            lo, span, right = b[i], b[i + 1] - b[i], rows[i][1]
            v = ((right * span + (rows[i + 1][2] - right) * (r - lo))
                 * (L // span))
            t = (v, v, v)
        table[p] = t
    return table, V * L


def scan_slacks(b, rows, V, points, cones):
    """Classify slack signs at the query points (x, y), approached per each
    side triple of cones (SIDE_TRIPLES, or its first entry for the value).

    Returns (neg, zero, min_pos) where neg collects (x, y, sides, num, den)
    with negative slack, zero collects (x, y, sides) with zero slack and
    min_pos is the smallest positive slack as (num, den) (den == 0 when
    none was seen).  Every den is the W of limit_table.
    """
    table, W = limit_table(b, rows, V,
                           {c for x, y in points for c in (x, y, x + y)})
    neg = []
    zero = []
    mp = 0
    for px, py in points:
        tx, ty, ts = table[px], table[py], table[px + py]
        for sides in cones:
            sx, sy, ss = sides
            d = tx[sx] + ty[sy] - ts[ss]
            if d < 0:
                neg.append((px, py, sides, d, W))
            elif d == 0:
                zero.append((px, py, sides))
            elif mp == 0 or d < mp:
                mp = d
    return neg, zero, (mp, W if mp else 0)


def complex_vertices(b):
    """The vertices (x, y) with x <= y of the additivity complex inside
    [0, D]^2, sorted; the slack is symmetric, so they are all a scan needs.

    Vertices are pairwise intersections of the grid lines x = b[i],
    y = b[j], x + y = c for c = b[k] or b[k] + D.  Each lies on a line
    x = b[i] or y = b[j], so every column x collects its y values: those
    of the grid and of the diagonals on x = b[i], and b[j] itself on
    y = b[j] where the diagonal c meets it at x = c - b[j] <= b[j].
    """
    D = b[-1]
    diag = b + [c + D for c in b[1:]]
    cols = {}
    for i, x in enumerate(b):
        ys = cols.setdefault(x, set())
        ys.update(b[i:])
        ys.update(c - x for c in
                  diag[bisect_left(diag, 2 * x):bisect_right(diag, x + D)])
    for y in b:
        for c in diag[bisect_left(diag, y):bisect_right(diag, 2 * y)]:
            cols.setdefault(c - y, set()).add(y)
    return [(x, y) for x in sorted(cols) for y in sorted(cols[x])]


def scan_discrete(v, q):
    """All-pairs subadditivity scan for a function on (1/q)Z.

    v has q+1 entries (v[q] == v[0]), one common scale.  Returns
    (neg, zero, min_pos) with neg/zero lists of (i, j, slack) over i <= j
    and min_pos the smallest positive slack (0 when none).  The pairs are
    walked by diagonal, (i, i + d) in order of d and then i, so zero comes
    out in that order: the sums 2i + d of one diagonal sweep the group,
    and a system read in this order reaches full rank early.  neg is
    sorted back to (i, j) order.
    """
    neg = []
    zero = []
    min_pos = 0
    ext = v + v[1:]  # ext[s] = v[s mod q] for 0 <= s <= 2q
    for d in range(q + 1):
        for i in range(q + 1 - d):
            j = i + d
            s = ext[i] + ext[j] - ext[i + j]
            if s < 0:
                neg.append((i, j, s))
            elif s == 0:
                zero.append((i, j, s))
            elif min_pos == 0 or s < min_pos:
                min_pos = s
    neg.sort()
    return neg, zero, min_pos
