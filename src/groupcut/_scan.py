"""Integer-scaled slack-scan kernels.

These are the hot loops of the subadditivity machinery: evaluating the slack
pi(x) + pi(y) - pi(x+y), with one-sided limits, at every vertex of the
two-dimensional additivity complex (up to 12 limit cones per vertex), and the
all-pairs scan for functions on a finite cyclic group.

Everything here works on plain Python ints so results stay exact at any
precision.  A piecewise function is passed as parallel tables:

    b       breakpoints scaled by a common denominator D, b[0] = 0, b[-1] = D
    vals    value at each breakpoint, scaled by a common denominator V
    rights  right limit at each breakpoint, scaled by V
    lefts   left limit at each breakpoint, scaled by V

The tables are periodic: entry 0 and entry n describe the same point of the
circle, so lefts[0] is the left limit at 1 and rights[-1] the right limit
at 0.  Query points are ints on the D-grid; sums up to 2*D are reduced here.

This module has no package dependencies.
"""

from bisect import bisect_right

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


def one_sided(b, vals, rights, lefts, V, p, side):
    """Value or one-sided limit at the grid point p/D, as (num, den).

    side: 0 value, 1 right limit, -1 left limit.  p is reduced mod D, which
    is what makes the periodic tables at 0/1 behave: the left limit at 0
    reads lefts[0], stored as the left limit at 1.
    """
    D = b[-1]
    p = p % D
    i = bisect_right(b, p) - 1
    if b[i] == p:
        if side == 0:
            return vals[i], V
        if side > 0:
            return rights[i], V
        return lefts[i], V
    span = b[i + 1] - b[i]
    num = rights[i] * span + (lefts[i + 1] - rights[i]) * (p - b[i])
    return num, V * span


def delta_num_den(b, vals, rights, lefts, V, px, sx, py, sy, ss):
    """Slack pi(x)+pi(y)-pi(x+y) at (px/D, py/D) approached per the sides."""
    nx, dx = one_sided(b, vals, rights, lefts, V, px, sx)
    ny, dy = one_sided(b, vals, rights, lefts, V, py, sy)
    ns, ds = one_sided(b, vals, rights, lefts, V, px + py, ss)
    return nx * dy * ds + ny * dx * ds - ns * dx * dy, dx * dy * ds


def scan_slacks(b, vals, rights, lefts, V, points, cones):
    """Classify slack signs at the query points (x, y), approached per each
    side triple of cones (SIDE_TRIPLES, or its first entry for the value).

    Returns (neg, zero, min_pos, max_abs) where neg collects
    (x, y, sides, num, den) with negative slack, zero collects
    (x, y, sides) with zero slack, min_pos is the smallest positive slack
    as (num, den) (den == 0 when none was seen) and max_abs the largest
    absolute slack as (num, den).
    """
    neg = []
    zero = []
    mp_num = mp_den = ma_num = 0
    ma_den = 1
    for px, py in points:
        for sides in cones:
            num, den = delta_num_den(b, vals, rights, lefts, V,
                                     px, sides[0], py, sides[1], sides[2])
            if num < 0:
                neg.append((px, py, sides, num, den))
            elif num == 0:
                zero.append((px, py, sides))
            elif mp_den == 0 or num * mp_den < mp_num * den:
                mp_num, mp_den = num, den
            if abs(num) * ma_den > ma_num * den:
                ma_num, ma_den = abs(num), den
    return neg, zero, (mp_num, mp_den), (ma_num, ma_den)


def complex_vertices(b):
    """All vertices of the additivity complex inside [0, D]^2.

    Vertices are pairwise intersections of the grid lines x = b[i],
    y = b[j], x + y = b[k] or b[k] + D.  Sorted and deduplicated.
    """
    D = b[-1]
    n = len(b)
    pts = set()
    for i in range(n):
        bi = b[i]
        for j in range(n):
            pts.add((bi, b[j]))
        for k in range(n):
            for c in (b[k], b[k] + D):
                t = c - bi
                if 0 <= t <= D:
                    pts.add((bi, t))
                    pts.add((t, bi))
    return sorted(pts)


def scan_discrete(v, q):
    """All-pairs subadditivity scan for a function on (1/q)Z.

    v has q+1 entries (v[q] == v[0]), one common scale.  Returns
    (neg, zero, min_pos) with neg/zero lists of (i, j, slack) over i <= j
    and min_pos the smallest positive slack (0 when none).
    """
    neg = []
    zero = []
    min_pos = 0
    for i in range(q + 1):
        vi = v[i]
        for j in range(i, q + 1):
            s = i + j
            if s > q:
                s -= q
            d = vi + v[j] - v[s]
            if d < 0:
                neg.append((i, j, d))
            elif d == 0:
                zero.append((i, j, d))
            elif min_pos == 0 or d < min_pos:
                min_pos = d
    return neg, zero, min_pos
