"""The two-dimensional additivity complex of a periodic piecewise function.

The subadditivity slack delta(x, y) = pi(x) + pi(y) - pi(x+y) is piecewise
linear; its domains of linearity are the faces F(I, J, K) cut out by
x in I, y in J, x+y in K, where I, J, K run over the breakpoints and
breakpoint intervals of pi (K shifted into [0, 2]).  This module builds
faces, enumerates the complex, computes directional limits of the slack,
enumerates additive faces, and the merit index.

The slack at the vertices of the complex, every limit cone included when
the function is discontinuous, is scanned once per function:
vertex_slacks(fn) is an integer record on the grid of fn.scaled_tables(),
over the vertices with x <= y (the slack is symmetric), cached on fn next
to those tables.  It holds the vertices, the negative cones with their
slacks, the tight cones and the smallest positive slack.  Minimality, the
subadditivity refusal of face enumeration, the limit test of the
enumerator, the rows of the extremality system and the epsilon bounds all
read it; scan_vertex_slacks is its Fraction view.

Additive faces come from one enumerator, generate_additive_faces, for
continuous and discontinuous functions alike.  It applies the limit
criterion (the slack vanishes in the limit from the face's interior) as a
lookup in the tight cones of the record.  The slack is affine on a face's
interior, so a face is additive exactly when pi has one slope on its
moving pieces and its limit slack (for an edge, its own or that of a
2-face that contains it) vanishes at one vertex, a tight vertex: one with
a cone of zero slack that stays in the square.  The enumerator
walks only the tight vertices and decides each face there.  The complex
is symmetric under (x, y) -> (y, x), so the walk visits the tight
vertices with x <= y, as the record holds them, and returns the faces of
that half.

Below the API a face is its key: its projections onto x, y and x + y,
integers over the D of fn.scaled_tables().  A face is exactly the set
that its key cuts out, so the key gives its dimension, its edge kind,
the faces it contains and its mirror F(J, I, K) (the first two
projections swapped).  The walk (_additive_walk) is a generator that
yields each additive 2-face and edge of the half, with its maximal flag,
as it finds it: covering takes the maximal keys one at a time and stops
the walk once it is saturated.  It decides each tight vertex once, at
its first tight cone that stays in the square, and reads each cone's
cell from one table per coordinate that holds, for each side, the piece
and its slope id (None for a point piece), so a cone compares small
integers.  _grid_additive_faces runs the whole walk into {key: maximal}
and adds the tight vertices, and the public generate_*_additive_faces
add the mirror of each face with I != J.
A face's shape comes from its key: one closed form (_corners) lists its
corners counterclockwise, which give its sorted vertices and its boundary,
and face_area is its projection box less two corner triangles.  A
Fraction Face holds only its key and derives its vertices on first read;
below the API only _grid_additive_faces derives them, on the integers, to
tell whether a vertex lies in a larger face.  faces_of_complex lists every
face of the complex, the brute-force reference that checks need.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from . import _scan
from .errors import ConstructionError, NotSubadditiveError
from .pwl import PiecewiseFunction
from .rational import on_grid, to_rational

Interval = tuple[Fraction, Fraction]
Point = tuple[Fraction, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)


@dataclass(frozen=True)
class Face:
    """A face of the complex: the polytope {x in I, y in J, x+y in K},
    stored as its key alone, the tight projections proj1/proj2/proj3.

    They are the exact min/max of x, y, x+y over the vertices, and the face
    equals the set they cut out.  vertices are derived from them on first
    read; dimension is 0, 1 or 2 (-1 for the empty face, whose projections
    are None); a one-dimensional face has edge_kind 'vertical',
    'horizontal' or 'diagonal' according to which projection is a point.
    """

    proj1: Optional[Interval]
    proj2: Optional[Interval]
    proj3: Optional[Interval]

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        if self.is_empty:
            return ()
        # found on the integers of the key's common grid
        D, ends = on_grid(t for iv in self.key() for t in iv)
        return tuple((Fraction(x, D), Fraction(y, D)) for x, y in
                     _face_vertices(tuple(zip(ends[::2], ends[1::2]))))

    @property
    def dimension(self) -> int:
        return -1 if self.is_empty else {0: 2, 1: 1, 3: 0}[
            sum(lo == hi for lo, hi in self.key())]

    @property
    def edge_kind(self) -> Optional[str]:
        if self.dimension != 1:
            return None
        return ("vertical", "horizontal", "diagonal")[
            [lo == hi for lo, hi in self.key()].index(True)]

    @property
    def is_empty(self) -> bool:
        return self.proj1 is None

    def contains_point(self, p: Point) -> bool:
        if self.is_empty:
            return False
        x, y = p
        return (self.proj1[0] <= x <= self.proj1[1]
                and self.proj2[0] <= y <= self.proj2[1]
                and self.proj3[0] <= x + y <= self.proj3[1])

    def contains_face(self, other: "Face") -> bool:
        """A face lies in another exactly when each of its projections
        lies in the other's, as each face is the set its key cuts out."""
        return (not self.is_empty and not other.is_empty
                and all(a[0] <= c[0] and c[1] <= a[1]
                        for a, c in zip(self.key(), other.key())))

    def key(self):
        return (self.proj1, self.proj2, self.proj3)

    def mirror_key(self):
        return (self.proj2, self.proj1, self.proj3)

    def __repr__(self):
        if self.is_empty:
            return "<Face empty>"
        return (f"<Face dim {self.dimension} I'={_fmt_iv(self.proj1)} "
                f"J'={_fmt_iv(self.proj2)} K'={_fmt_iv(self.proj3)}>")


def _fmt_iv(iv: Interval) -> str:
    return f"[{iv[0]}, {iv[1]}]" if iv[0] != iv[1] else f"{{{iv[0]}}}"


_EMPTY_FACE = Face(None, None, None)


def _coerce_interval(iv, lo_bound: Fraction, hi_bound: Fraction) -> Interval:
    if isinstance(iv, (tuple, list)):
        if len(iv) == 1:
            a = b = to_rational(iv[0])
        elif len(iv) == 2:
            a, b = to_rational(iv[0]), to_rational(iv[1])
        else:
            raise ConstructionError(f"interval needs 1 or 2 endpoints, got {iv!r}")
    else:
        a = b = to_rational(iv)
    if a > b:
        raise ConstructionError(f"malformed interval [{a}, {b}]")
    if a < lo_bound or b > hi_bound:
        raise ConstructionError(
            f"interval [{a}, {b}] outside [{lo_bound}, {hi_bound}]")
    return (a, b)


def face_from_triple(I, J, K) -> Face:
    """Face F(I, J, K) from intervals (or single points) I, J in [0, 1] and
    K in [0, 2]; an empty face is allowed.  The face is found on the grid
    of the intervals' common denominator."""
    ivs = (_coerce_interval(I, ZERO, ONE), _coerce_interval(J, ZERO, ONE),
           _coerce_interval(K, ZERO, TWO))
    D, ends = on_grid(t for iv in ivs for t in iv)
    return grid_face(_projections(*zip(ends[::2], ends[1::2])), D)


def grid_face(key, D: int) -> Face:
    """The face with the integer projections key over D (as _projections
    gives them), the empty face when a projection is empty."""
    if any(lo > hi for lo, hi in key):
        return _EMPTY_FACE
    return Face(*((Fraction(lo, D), Fraction(hi, D)) for lo, hi in key))


def _projections(I, J, K) -> tuple:
    """The projections of F(I, J, K) onto x, y and x + y, the face's key,
    for closed intervals of exact numbers; each is lo > hi when the face
    is empty.  The face is exactly the set that its key cuts out."""
    (i0, i1), (j0, j1), (k0, k1) = I, J, K
    return ((max(i0, k0 - j1), min(i1, k1 - j0)),
            (max(j0, k0 - i1), min(j1, k1 - i0)),
            (max(k0, i0 + j0), min(k1, i1 + j1)))


def _corners(key) -> tuple:
    """The ends of the slices of the nonempty face with the projections
    key on its lines x = x0, y = y0, x = x1 and y = y1, counterclockwise
    from the least point, repeats included.  Each line supports the face,
    so each end is a vertex, and every vertex lies on one of the lines."""
    (x0, x1), (y0, y1), (s0, s1) = key
    return ((x0, max(y0, s0 - x0)),
            (max(x0, s0 - y0), y0), (min(x1, s1 - y0), y0),
            (x1, max(y0, s0 - x1)), (x1, min(y1, s1 - x1)),
            (min(x1, s1 - y1), y1), (max(x0, s0 - y1), y1),
            (x0, min(y1, s1 - x0)))


def _face_vertices(key) -> tuple:
    """Sorted vertices of the face with the projections key, () when the
    face is empty."""
    (x0, x1), (y0, y1), (s0, s1) = key
    if x0 > x1 or y0 > y1 or s0 > s1:
        return ()
    return tuple(sorted(set(_corners(key))))


def _boundary(key) -> tuple:
    """The vertices of the nonempty face with the projections key,
    counterclockwise from the least one: each run of equal corners (the
    last and the first are neighbours) keeps its last."""
    c = _corners(key)
    return tuple(p for p, q in zip(c, c[1:] + c[:1]) if p != q) or c[:1]


def mirror_face(face: Face) -> Face:
    """The face F(J, I, K) of face.mirror_key()."""
    return Face(*face.mirror_key())


# -- slack and its directional limits ----------------------------------------

def delta_pi(fn: PiecewiseFunction, x, y) -> Fraction:
    """Subadditivity slack pi(x) + pi(y) - pi(x+y)."""
    x = to_rational(x)
    y = to_rational(y)
    return fn(x) + fn(y) - fn(x + y)


def delta_pi_limit(fn: PiecewiseFunction, face: Face, v) -> Fraction:
    """Limit of the slack at v approached from the relative interior of
    face.  v must belong to the face.  Each coordinate is approached from
    inside its projection: the lower end from the right, the upper end
    from the left, and a point projection or an interior point by its
    value (the function is continuous inside a piece)."""
    v = (to_rational(v[0]), to_rational(v[1]))
    if not face.contains_point(v):
        raise ConstructionError(f"point {v} does not belong to {face}")
    x, y = v
    sx, sy, ss = ((t == lo < hi) - (lo < hi == t)
                  for t, (lo, hi) in zip((x, y, x + y), face.key()))
    return fn.limit(x, sx) + fn.limit(y, sy) - fn.limit(x + y, ss)


# -- complex enumeration ------------------------------------------------------

def enumerate_complex_vertices(fn: PiecewiseFunction,
                               upper_triangle_only: bool = False) -> list[Point]:
    """All vertices of the complex in [0,1]^2: pairwise intersections of the
    grid lines x = x_i, y = x_j, x + y = x_k (+1), sorted and deduplicated,
    as fn's vertex slack record lists them.  With upper_triangle_only,
    restrict to x <= y."""
    rec = vertex_slacks(fn)
    points = rec.points
    if not upper_triangle_only:
        points = sorted(points + [(y, x) for x, y in points if x < y])
    return [(Fraction(x, rec.D), Fraction(y, rec.D)) for x, y in points]


@dataclass(frozen=True)
class VertexSlacks:
    """The slack of a function at its complex vertices (x, y) with x <= y,
    on the integer grid of fn.scaled_tables(): x and y are integers over D
    and each slack is an integer pair (num, den).  Every limit cone is
    scanned when the function is discontinuous, the value alone otherwise.

    points   the scanned vertices, sorted
    neg      (x, y, sides, num, den) for each cone with negative slack
    tight    the cones (x, y, sides) with zero slack, in scan order (a dict
             used as an ordered set)
    min_pos  the smallest positive slack, None when there is none
    """

    D: int
    points: list
    neg: list
    tight: dict
    min_pos: Optional[Fraction]


def vertex_slacks(fn: PiecewiseFunction) -> VertexSlacks:
    """The one slack scan of fn, cached on fn next to its scaled tables:
    minimality, face enumeration (its subadditivity refusal and its limit
    test), the system rows and the epsilon bounds all read it."""
    rec = fn._cache.get("vertex_slacks")
    if rec is None:
        b, rows, D, V = fn.scaled_tables()
        points = _scan.complex_vertices(b)
        # a continuous function has every limit equal to the value
        cones = _scan.SIDE_TRIPLES[:1 if fn.is_continuous else None]
        neg, zero, mp = _scan.scan_slacks(b, rows, V, points, cones)
        rec = fn._cache["vertex_slacks"] = VertexSlacks(
            D, points, neg, dict.fromkeys(zero),
            Fraction(*mp) if mp[1] else None)
    return rec


def scan_vertex_slacks(fn: PiecewiseFunction, upper_triangle: bool = True):
    """Fraction view of vertex_slacks(fn): the slack at every complex
    vertex (value plus, for discontinuous functions, every limit cone),
    over x <= y or, without upper_triangle, the whole square with the
    mirror cones read off the same record.

    Returns (points, neg, zero, min_pos): points is the vertex list; neg
    has entries (point, sides, slack) with negative slack, zero has
    (point, sides), both in the order of points and then of
    _scan.SIDE_TRIPLES; min_pos is the smallest positive slack (None when
    none).
    """
    rec = vertex_slacks(fn)
    neg, zero = rec.neg, list(rec.tight)
    if not upper_triangle:
        def full(entries):
            entries = entries + [(y, x, (s[1], s[0], s[2]), *rest)
                                 for x, y, s, *rest in entries if x < y]
            return sorted(entries, key=lambda e: (
                e[0], e[1], _scan.SIDE_TRIPLES.index(e[2])))
        neg, zero = full(neg), full(zero)

    def pt(x, y):
        return Fraction(x, rec.D), Fraction(y, rec.D)

    return (enumerate_complex_vertices(fn, upper_triangle),
            [(pt(x, y), s, Fraction(num, den)) for x, y, s, num, den in neg],
            [(pt(x, y), s) for x, y, s in zero], rec.min_pos)


def faces_of_complex(fn: PiecewiseFunction, dims: Iterable[int] = (0, 1, 2)) -> list[Face]:
    """All distinct faces of the complex (deduplicated across the many
    (I, J, K) representations), lexicographically ordered by projections.
    The faces are found as a set of integer keys on the grid of
    fn.scaled_tables(), and each becomes a Fraction face once."""
    dims = set(dims)
    b, _, D, _ = fn.scaled_tables()
    ext = b + [t + D for t in b[1:]]
    pieces = list(zip(b, b[1:])) + [(x, x) for x in b]
    kpieces = list(zip(ext, ext[1:])) + [(x, x) for x in ext]
    # K meets I + J exactly when F(I, J, K) is not empty
    keys = {_projections(I, J, K) for I in pieces for J in pieces
            for K in kpieces if K[0] <= I[1] + J[1] and I[0] + J[0] <= K[1]}
    faces = (grid_face(key, D) for key in sorted(keys))
    return [face for face in faces if face.dimension in dims]


@dataclass(frozen=True)
class AdditiveFaceSet:
    """Additive faces of the complex with per-face maximality flags."""

    faces: tuple[Face, ...]
    maximal: tuple[bool, ...]

    def maximal_faces(self) -> list[Face]:
        return [f for f, m in zip(self.faces, self.maximal) if m]

    def faces_of_dim(self, dim: int) -> list[Face]:
        return [f for f in self.faces if f.dimension == dim]

    def __len__(self):
        return len(self.faces)


def _require_subadditive(fn: PiecewiseFunction) -> VertexSlacks:
    """vertex_slacks(fn), refused with NotSubadditiveError when a slack is
    negative."""
    rec = vertex_slacks(fn)
    if rec.neg:
        x, y, sides, num, den = rec.neg[0]
        raise NotSubadditiveError(
            f"slack {Fraction(num, den)} < 0 at ({Fraction(x, rec.D)}, "
            f"{Fraction(y, rec.D)}) (sides {sides}); "
            "additive-face enumeration requires subadditivity")
    return rec


def _slope_table(grid: Sequence[int], ids: Sequence[int], t: int) -> tuple:
    """The pieces of the integer grid approached at t, each with the slope
    id ids[m] of its cell m, or None for the point piece (t, t), indexed by
    side 0 (t itself), 1 (from the right) and -1 (from the left): the cell
    around t from every side when t is no grid point; None for a side that
    leaves the grid."""
    i, j = bisect_left(grid, t), bisect_right(grid, t)
    if i == j:
        return (((grid[i - 1], grid[i]), ids[i - 1]),) * 3
    return (((t, t), None),
            ((t, grid[j]), ids[i]) if j < len(grid) else None,
            ((grid[i - 1], t), ids[i - 1]) if i else None)


def _pieces_at(grid: Sequence[int], t: int) -> list:
    """The pieces of _slope_table(grid, ., t) without their ids."""
    return [e and e[0] for e in _slope_table(grid, range(len(grid)), t)]


# The cones that the walk of _additive_walk follows from a tight
# vertex (x, y) with x <= y: the six sectors, which reach every 2-face at
# the vertex, then the three rays toward larger x, or larger y at equal x,
# each of which starts the edge that has the vertex as its lower end.
# Off the diagonal every cone enters a cell (I, J, K) with I <= J; on it,
# a cone into a cell with I > J is skipped, as the mirror of a cell that
# another cone there enters.
_WALK_CONES = sorted(
    (s for s in _scan.SIDE_TRIPLES if all(s) or s > (0, 0, 0)),
    key=lambda s: not all(s))
# each ray (a cone with a zero side) -> the two sectors beside it, whose
# sides agree with its nonzero sides: the 2-cells that contain the ray's
# edge are the ones these sectors enter
_BESIDE = {r: [s for s in _scan.SIDE_TRIPLES if all(s) and all(
    a == c for a, c in zip(r, s) if a)] for r in _scan.SIDE_TRIPLES
    if any(r) and not all(r)}


def _additive_walk(fn: PiecewiseFunction):
    """The tight-vertex walk over the additive faces of
    generate_additive_faces in the half x <= y on the integer grid of
    fn.scaled_tables(): (D, tight, walk), with tight the tight vertices
    (x, y), x <= y, and walk a generator that yields (key, maximal) for
    each additive 2-face and edge as it is found, faces with key <= mirror
    key.  The vertices are left to the caller: they are the tight ones.
    The subadditivity refusal is raised here, before anything is walked.

    On a face's relative interior pi is affine on each moving piece (I, J
    or K of positive length), so the slack is affine there and its limits
    at the vertices are that affine function's values.  It vanishes at all
    of them exactly when the moving pieces share one slope and it vanishes
    at one vertex.  Such a vertex is tight: it has a cone of zero slack
    that stays in the square, decided once per vertex, at its first such
    cone in the record.  The slack is symmetric, so the walk visits only
    the tight vertices with x <= y.  At each, a cone of _WALK_CONES that
    stays in the square names a cell (I, J, K), read with the slope ids of
    its pieces from one table per coordinate (_slope_table), and its test
    (the value, or the cone's limit when fn is discontinuous) is the
    cell's limit slack there.  A 2-cell, one whose three pieces all move,
    is additive when its test passes and its three slope ids agree.  A
    ray's edge is additive when the ids of its two moving pieces agree and
    its own test passes or that of a 2-cell that contains it, the cell of
    a sector beside the ray, and maximal when none of those 2-cells is
    additive (the sectors come first, so the flag is final when the edge
    is yielded).  Each 2-cell is yielded once, and each edge once, from
    its lower end.
    """
    rec = _require_subadditive(fn)
    b, D, zero = fn.scaled_tables()[0], rec.D, rec.tight
    # the vertices (x <= y) with a cone of zero slack that stays in the
    # square: no side points below 0 or above D (2D for x + y), which only
    # a cone on x = 0 or y = D can do; a vertex is added at its first such
    # cone, so the set is built in the record's order
    tight: set = set()
    for x, y, sides in zero:
        if (x, y) not in tight and (0 < x and y < D or not any(
                s and t == (e if s > 0 else 0) for s, t, e in
                zip(sides, (x, y, x + y), (D, D, 2 * D)))):
            tight.add((x, y))

    def walk():
        ext = b + [t + D for t in b[1:]]
        ids = fn._slope_ids()
        ext_ids = ids * 2
        continuous = fn.is_continuous
        on_b: dict = {}  # coordinate -> _slope_table(b, ids, .), once each
        on_ext: dict = {}  # the same for x + y on ext
        built = set()  # the additive 2-cells
        for x, y in tight:
            px = on_b.get(x) or on_b.setdefault(x, _slope_table(b, ids, x))
            py = on_b.get(y) or on_b.setdefault(y, _slope_table(b, ids, y))
            ps = on_ext.get(x + y) or on_ext.setdefault(
                x + y, _slope_table(ext, ext_ids, x + y))
            passed: dict = {}  # sector of zero limit slack -> additive
            for sides in _WALK_CONES:
                sx, sy, ss = sides
                cx, cy, cs = px[sx], py[sy], ps[ss]
                if cx is None or cy is None or cs is None:
                    continue  # the cone leaves the square
                (I, i), (J, j), (K, k) = cx, cy, cs
                if x == y and I > J:
                    continue  # the mirror of a cell walked here
                if i is not None and j is not None and k is not None:
                    if continuous or (x, y, sides) in zero:
                        passed[sides] = same = i == j == k
                        if same and (I, J, K) not in built:
                            built.add((I, J, K))
                            yield _projections(I, J, K), True
                    continue
                # a ray along a grid line, after the sectors beside it;
                # one of its pieces is a point, with id None
                if (j != k if i is None else i != k if j is None
                        else i != j):
                    continue  # the two moving pieces have two slopes
                around = [passed[s] for s in _BESIDE[sides] if s in passed]
                if around or continuous or (x, y, sides) in zero:
                    yield _projections(I, J, K), not any(around)

    return D, tight, walk()


def _grid_additive_faces(fn: PiecewiseFunction) -> tuple[int, dict]:
    """The additive faces of generate_additive_faces in the half x <= y on
    the integer grid of fn.scaled_tables(): (D, {key: maximal}), the
    faces with key <= mirror key.

    The 2-faces and edges are the whole of _additive_walk(fn); the
    additive vertices are its tight ones, and a vertex is maximal when it
    is no vertex of a larger additive face, so the vertices of each
    2-face are built once, in closed form, and the two ends of each edge.
    A face with I != J lies in one closed half of the square, and its
    mirror F(J, I, K) is additive, with the same flag, exactly when it
    is; _fraction_face_set adds it.
    """
    D, tight, walk = _additive_walk(fn)
    additive = dict(walk)
    in_larger = set()  # the vertices of the additive 2-faces and edges
    for key in additive:
        (x0, x1), (y0, y1), (s0, s1) = key
        if x0 < x1 and y0 < y1 and s0 < s1:
            in_larger.update(_face_vertices(key))
        else:  # an edge's ends, at its least and largest x and x + y
            in_larger.update(((x0, s0 - x0), (x1, s1 - x1)))
    # (x, y) is a vertex of a face exactly when (y, x) is a vertex of its
    # mirror, so the half tells whether a vertex lies in a larger face
    for x, y in tight:
        additive[(x, x), (y, y), (x + y, x + y)] = (
            (x, y) not in in_larger and (y, x) not in in_larger)
    return D, additive


def _fraction_face_set(D: int, additive: dict) -> AdditiveFaceSet:
    """Fraction faces on the grid 1/D of the walk's half {key: maximal}
    and of the mirror key (proj2, proj1, proj3), with the same flag, of
    each face with I != J, in key order (integer keys sort as the Fraction
    keys do)."""
    whole = dict(additive)
    for (p1, p2, p3), maximal in additive.items():
        if p1 != p2:
            whole[p2, p1, p3] = maximal
    keys = sorted(whole)
    return AdditiveFaceSet(tuple(grid_face(k, D) for k in keys),
                           tuple(whole[k] for k in keys))


def generate_additive_faces(fn: PiecewiseFunction) -> AdditiveFaceSet:
    """Every additive face of the complex, by the limit criterion, with
    maximality flags.

    A two-dimensional face is additive when the limit slack, approached
    from its interior, vanishes at all of its vertices.  An edge is
    additive when some containing face (itself or one of its at most two
    incident two-dimensional faces) has vanishing limit slack at both edge
    endpoints.  A vertex is additive when any containing face gives a
    vanishing limit.  For a continuous function all limits equal the value.
    Requires a subadditive function (NotSubadditiveError otherwise).
    """
    return _fraction_face_set(*_grid_additive_faces(fn))


# second name of generate_additive_faces, kept for existing callers
generate_additive_faces_discontinuous = generate_additive_faces


def generate_maximal_additive_faces(fn: PiecewiseFunction) -> AdditiveFaceSet:
    """Inclusion-maximal additive faces: the maximal entries of
    generate_additive_faces."""
    D, additive = _grid_additive_faces(fn)
    return _fraction_face_set(D, {k: m for k, m in additive.items() if m})


# -- areas and the merit index ------------------------------------------------

def face_area(face: Face) -> Fraction:
    """The area of the face: its projection box less the corners that
    x + y = s0 and x + y = s1 cut off, each a right isosceles triangle."""
    if face.dimension < 2:
        return ZERO
    (x0, x1), (y0, y1), (s0, s1) = face.key()
    return ((x1 - x0) * (y1 - y0)
            - ((s0 - x0 - y0) ** 2 + (x1 + y1 - s1) ** 2) / 2)


def merit_index(fn: PiecewiseFunction) -> Fraction:
    """Twice the area of the additivity domain in the unit square.

    Requires a minimal valid function; the slack then vanishes exactly on
    the additive faces, so the area is the summed area of the additive
    two-dimensional faces.
    """
    from .minimality import minimality_test  # deferred to avoid an import cycle

    report = minimality_test(fn)
    if not report.is_minimal:
        raise ConstructionError("merit index is defined for minimal valid functions")
    faces = generate_additive_faces(fn)
    return 2 * sum((face_area(f) for f in faces.faces_of_dim(2)), ZERO)
