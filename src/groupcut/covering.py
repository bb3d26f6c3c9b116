"""Connected components of covered intervals.

A two-dimensional additive face forces every effective perturbation to be
affine, with one common slope, on the interiors of its three projections
(closed projections when the function is continuous); those intervals are
directly covered and belong to one connected component.  A one-dimensional
additive face connects its two proper projections through a translation
(vertical or horizontal edge) or a reflection (diagonal edge): whenever a
subinterval of one projection is covered, its image becomes covered in the
same component.

Both phases work on one sorted integer grid P on the grid 1/D of the
function.  A face is its integer key, its projections onto x, y and
x + y over D.  The maximal additive faces come from the tight-vertex
walk of complex2d as such keys over fn's D, in its half x <= y: the
mirror F(J, I, K) of a face has the same projections, so it adds no
covered interval and no edge map.  The single points of a key give the
face's dimension and edge kind.  P holds the projection and window
endpoints of the faces, closed under the edge maps (the images of the
points of P inside a window are added until none is new, which ends
because P stays in {0, ..., D}).  The points and open cells of P are the
elements of one union-find (Tarjan 1975); a component is a class of
covered elements, and an uncovered element is a class of its own.  Phase
one joins the elements inside the projections of each 2-face.  Phase two
passes over the distinct edge maps, each for the first edge in key order
that has it, and joins each maximal covered run of a source window with
its image, logged as an EdgeMove naming that edge, until a pass changes
nothing; every change joins two classes, so there are at most as many
passes as elements.  Components are read off as runs of one class: open
intervals end at a point outside the class, closed ones (continuous
functions) join when they touch.  Fractions appear only for the returned
intervals, the logged moves (an EdgeMove's face is built from the edge's
key) and the additive= argument, an AdditiveFaceSet whose keys are scaled
once to integers on the grid of their endpoints; with or without the
mirrors of its faces it covers alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .complex2d import AdditiveFaceSet, Face, _grid_additive_faces, grid_face
from .errors import UnsupportedCaseError
from .pwl import PiecewiseFunction

Interval = tuple[Fraction, Fraction]


def format_intervals(intervals) -> str:
    """Intervals as "(5/12, 2/3), (3/4, 1)"."""
    return ", ".join(f"({a}, {b})" for a, b in intervals)


@dataclass(frozen=True)
class EdgeMove:
    """Log record of one phase-two propagation step."""

    face: Face
    kind: str  # translation | reflection
    source: Interval
    moved: Interval


@dataclass(frozen=True)
class CoveredComponentSet:
    """Connected covered components, each a union of disjoint intervals.

    Interval tuples are interpreted as open intervals for discontinuous
    functions and closed ones for continuous functions (closed flag).
    """

    components: tuple[tuple[Interval, ...], ...]
    uncovered: tuple[Interval, ...]
    edges_used: tuple[EdgeMove, ...]
    closed: bool

    @property
    def is_fully_covered(self) -> bool:
        return not self.uncovered

    def all_intervals(self) -> list[Interval]:
        return [iv for comp in self.components for iv in comp]

    def component_of(self, x: Fraction) -> Optional[int]:
        """Index of the component whose interior contains x."""
        for i, comp in enumerate(self.components):
            for lo, hi in comp:
                if lo < x < hi:
                    return i
        return None


def _mod_one(iv: tuple[int, int], D: int) -> tuple[int, int]:
    """Projection 3 of a face on the grid 1/D reduced into [0, D] (faces
    never straddle D)."""
    return (iv[0] - D, iv[1] - D) if iv[0] >= D else iv


def _edge_maps(key, D: int):
    """Both propagation maps of an additive edge with the integer key
    (proj1, proj2, proj3) on the grid 1/D: (kind, source window, image
    window); a reflection reverses the order."""
    p1, p2, p3 = key
    if p3[0] == p3[1]:  # diagonal
        return [("reflection", p1, p2), ("reflection", p2, p1)]
    src = p2 if p1[0] == p1[1] else p1  # vertical, else horizontal
    dst = _mod_one(p3, D)
    return [("translation", src, dst), ("translation", dst, src)]


def _closed_grid(points: set, maps) -> list[int]:
    """Sorted points, with the image of every point inside a map's source
    window added until nothing is new."""
    grid = sorted(points)
    while True:
        new = {u - src[0] + dst[0] if kind == "translation"
               else src[1] + dst[0] - u
               for _, kind, src, dst in maps
               for u in grid[bisect_left(grid, src[0]):
                             bisect_right(grid, src[1])]}.difference(grid)
        if not new:
            return grid
        grid = sorted(new.union(grid))


class _Classes:
    """Union-find over the elements of the grid P: element 2i is the point
    P[i], element 2i + 1 the open cell (P[i], P[i + 1]).  For closed
    intervals only the cells are used."""

    def __init__(self, grid: list[int], D: int, closed: bool):
        self.grid, self.D, self.closed = grid, D, closed
        self.step = 2 if closed else 1
        self.index = {u: i for i, u in enumerate(grid)}
        self.parent = list(range(2 * len(grid) - 1))
        self.covered = [False] * len(self.parent)

    def elements(self, lo: int, hi: int) -> range:
        """Elements inside the interval (lo, hi) of grid points."""
        return range(2 * self.index[lo] + 1, 2 * self.index[hi], self.step)

    def find(self, e: int) -> int:
        parent = self.parent
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def join(self, elements, root: int) -> bool:
        """Cover the elements in root's class; True when classes joined."""
        roots = {self.find(e) for e in elements} - {root}
        for r in roots:
            self.parent[r] = root
        for e in elements:
            self.covered[e] = True
        return bool(roots)

    def runs(self, elements, key=None) -> list[list]:
        """Maximal runs [key, first, last] of consecutive elements with one
        key, by default the class of a covered element and None otherwise."""
        key = key or (lambda e: self.find(e) if self.covered[e] else None)
        out: list[list] = []
        for e in elements:
            k = key(e)
            if out and out[-1][0] == k:
                out[-1][2] = e
            else:
                out.append([k, e, e])
        return out

    def interval(self, first: int, last: int) -> Interval:
        """Interval spanned by the cells first..last."""
        return (Fraction(self.grid[first // 2], self.D),
                Fraction(self.grid[last // 2 + 1], self.D))

    def result(self, moves: tuple) -> CoveredComponentSet:
        n = len(self.parent)
        components: dict = {}
        for root, a, b in self.runs(range(1, n, self.step)):
            if root is not None:
                components.setdefault(root, []).append(self.interval(a, b))
        gaps = self.runs(range(1, n, 2), self.covered.__getitem__)
        return CoveredComponentSet(
            tuple(tuple(c) for c in components.values()),
            tuple(self.interval(a, b) for covered, a, b in gaps if not covered),
            moves, self.closed)


def _scaled_faces(additive: AdditiveFaceSet) -> tuple[int, list]:
    """The keys of an AdditiveFaceSet's faces as (D, [integer key]) on the
    grid 1/D of the keys' endpoints (the grid of the faces' vertices)."""
    keys = [f.key() for f in additive.faces]
    D = lcm(*{t.denominator for key in keys for iv in key for t in iv})
    return D, [tuple((lo.numerator * (D // lo.denominator),
                      hi.numerator * (D // hi.denominator)) for lo, hi in key)
               for key in keys]


def _cover_directly(fn: PiecewiseFunction, D: int, faces):
    """Phase one on the grid P closed under the edge maps, for the face
    keys faces on the grid 1/D: the classes and the distinct maps (edge
    key, kind, source window, image window) in edge key order.  A key's
    single points give the face's dimension: none for a 2-face, one for
    an edge."""
    singles = {key: sum(lo == hi for lo, hi in key) for key in faces}
    # a 2-face and its mirror F(J, I, K) have one window: each once, keyed
    # by its unordered first two projections and its third, first seen
    windows: dict = {}
    for (p1, p2, p3), n in singles.items():
        if not n:
            p3 = _mod_one(p3, D)
            windows.setdefault((min(p1, p2), max(p1, p2), p3), (p1, p2, p3))
    # an edge and its mirror have the same maps: each map once, for the
    # first edge in key order with it
    first: dict = {}
    for key in sorted(key for key, n in singles.items() if n == 1):
        for m in _edge_maps(key, D):
            first.setdefault(m, key)
    maps = [(key, *m) for m, key in first.items()]
    points = {0, D}.union(*(iv for w in windows for iv in w),
                          *(m[2] for m in maps))
    classes = _Classes(_closed_grid(points, maps), D, fn.is_continuous)
    for window in windows.values():
        elements = [e for iv in window for e in classes.elements(*iv)]
        classes.join(elements, classes.find(elements[0]))
    return classes, maps


def directly_covered_components(fn: PiecewiseFunction,
                                additive: AdditiveFaceSet) -> CoveredComponentSet:
    """Phase one: the three projections of each two-dimensional additive
    face (the third reduced mod 1), components merged where they overlap."""
    return _cover_directly(fn, *_scaled_faces(additive))[0].result(())


def generate_covered_components(fn: PiecewiseFunction,
                                additive: Optional[AdditiveFaceSet] = None) -> CoveredComponentSet:
    """Phase one plus phase two: propagate covering through one-dimensional
    additive faces until no further change.

    The function must be at least one-sided continuous at the origin; a
    two-sided discontinuity there is rejected as unsupported.
    """
    value0, right0, left0 = fn.limits[0]
    if right0 != value0 and left0 != value0:
        raise UnsupportedCaseError(
            "two-sided discontinuity at the origin is not supported by the "
            "covered-interval propagation")
    if additive is None:
        # maximal faces suffice: a subface of an additive face has all its
        # projections nested in the container's, so it can neither extend
        # nor merge components
        D, faces = _grid_additive_faces(fn)
        faces = [key for key, maximal in faces.items() if maximal]
    else:
        D, faces = _scaled_faces(additive)
    classes, maps = _cover_directly(fn, D, faces)
    index, step = classes.index, classes.step
    moves: list[EdgeMove] = []
    changed = True
    while changed:  # a change joins two classes: passes <= elements
        changed = False
        for edge, kind, src, dst in maps:
            # element e of the source window maps to base + sign * e
            if kind == "translation":
                base, sign = 2 * (index[dst[0]] - index[src[0]]), 1
            else:
                base, sign = 2 * (index[src[0]] + index[dst[1]]), -1
            for root, first, last in classes.runs(classes.elements(*src)):
                lo, hi = sorted((base + sign * first, base + sign * last))
                if root is not None and classes.join(
                        range(lo, hi + 1, step), classes.find(first)):
                    moves.append(EdgeMove(grid_face(edge, D),
                                          kind, classes.interval(first, last),
                                          classes.interval(lo, hi)))
                    changed = True
    return classes.result(tuple(moves))


def uncovered_intervals(fn: PiecewiseFunction) -> list[Interval]:
    """Open intervals in the complement of the closure of the covered set."""
    return list(generate_covered_components(fn).uncovered)
