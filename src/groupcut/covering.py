"""Connected components of covered intervals.

A two-dimensional additive face forces every effective perturbation to be
affine, with one common slope, on the interiors of its three projections
(closed projections when the function is continuous); those intervals are
directly covered and belong to one connected component.  A one-dimensional
additive face connects its two proper projections through a translation
(vertical or horizontal edge) or a reflection (diagonal edge): whenever a
subinterval of one projection is covered, its image becomes covered in the
same component.

Both phases work on the grid 1/D of the function.  A face is its integer
key, its projections onto x, y and x + y over D.  The maximal additive
faces come from the tight-vertex walk of complex2d (_additive_walk) as
such keys over fn's D, in its half x <= y, one at a time as the walk
finds them: the mirror F(J, I, K) of a face has the same projections, so
it adds no covered interval and no edge map.  The single points of a key
give the face's dimension and edge kind.

The points and open cells of the grid are the elements of one union-find
(Tarjan 1975); a component is a class of covered elements, and an
uncovered element is a class of its own.  It is kept as runs: only the
grid points where a window or an image has ended are cut, and the cell
element of a cut stands for the grid up to the next cut, so its size
follows the faces, not D.  Every key endpoint and every edge-map image
lies on the grid, and a maximal run of one class spans the same interval
however finely the grid is cut, so the union-find needs no grid worked
out in advance and takes each face as it comes.

Phase one joins the elements inside the three windows of each 2-face
the moment it arrives and holds the edges back.  It stops taking faces,
and so stops the walk, once the covering is saturated:
  - no open cell is uncovered;
  - for a discontinuous function, every grid point inside (0, 1) is
    covered unless it is a breakpoint of the function;
  - the covered classes are as many as the function's distinct slopes.
The stop is exact.  Every join stays inside one slope class: a 2-face's
three windows lie in pieces of one slope (an additive face has one slope
on its moving pieces), and so do an edge's source and image windows.  So
once every slope is covered, by one class each, a later 2-face covers
nothing new (no window holds a breakpoint, as windows lie inside pieces)
and joins nothing, and phase two records no move.  Without the point
condition a component could come out split at a grid point that a later
face covers.

Phase two, when phase one ends unsaturated (the walk has then finished),
passes over the distinct edge maps, each for the first edge in key order
that has it, and joins each maximal covered run of a source window with
its image, logged as an EdgeMove naming that edge, until a pass changes
nothing; a map that moved nothing is skipped until another map moves
something, and a translation by 0 (on x = 0 or y = 1) is dropped.  An
image whose elements are all in the source's class already would join
nothing, so it is tested first (_Classes.holds: a bisect over the cuts
and one find per element inside it, nothing cut) and only the others
are covered: each cover call of phase two logs a move.
Components are read off as runs of one class: open intervals end at a
point outside the class, closed ones (continuous functions) join when
they touch.  Fractions appear only for the returned intervals, the logged
moves and the additive= argument, an AdditiveFaceSet whose keys are
scaled once to integers on the grid of their endpoints and taken in the
set's order; with or without the mirrors of its faces it covers alike.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .complex2d import AdditiveFaceSet, Face, _additive_walk, grid_face
from .errors import UnsupportedCaseError
from .pwl import PiecewiseFunction
from .rational import on_grid

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
    if src == dst:  # a translation by 0 (x = 0 or y = 1)
        return []
    return [("translation", src, dst), ("translation", dst, src)]


class _Classes:
    """Union-find over the points and open cells of the grid 1/D, kept as
    runs.  Element 2u is the point u/D and element 2u + 1 the cell
    (u/D, (u + 1)/D).  Only the grid points in cuts, where a window or an
    image has ended, hold elements: a cut's cell element stands for every
    point and cell of the grid up to the next cut, all in its class, and a
    new cut inside it gives the new point and cell that class.  Covered
    elements are the keys of parent; an uncovered one is a class of its
    own.  For closed intervals only the cells are used.

    It counts what saturation needs: the covered classes, and the
    uncovered elements other than the points at breakpoints of fn (no
    additive face covers a breakpoint)."""

    def __init__(self, fn: PiecewiseFunction, D: int):
        self.D, self.closed = D, fn.is_continuous
        self.cuts, self.cutset, self.parent = [0, D], {0, D}, {}
        self.classes, self.slopes = 0, fn.number_of_slopes()
        self.uncovered = 1  # the cell (0, D)
        self.exempt = {2 * b.numerator * (D // b.denominator)
                       for b in fn.breakpoints if D % b.denominator == 0}

    def cut(self, u: int) -> None:
        """Make the grid point u a cut."""
        if u in self.cutset:
            return
        self.cutset.add(u)
        cuts = self.cuts
        i = bisect_left(cuts, u)
        cuts.insert(i, u)
        new = [2 * u + 1] if self.closed else [2 * u, 2 * u + 1]
        run = 2 * cuts[i - 1] + 1
        if run in self.parent:
            root = self.find(run)
            self.parent.update(dict.fromkeys(new, root))
        else:
            self.uncovered += sum(e not in self.exempt for e in new)

    def elements(self, lo: int, hi: int) -> list[int]:
        """The elements inside the interval (lo, hi), lo < hi or lo a cut:
        its cells, then its points.  When lo is no cut, the cell of the cut
        before it stands for the run that reaches past lo."""
        cuts = self.cuts
        i = bisect_right(cuts, lo) - 1
        j = bisect_left(cuts, hi, i)
        cells = [2 * u + 1 for u in cuts[i:j]]
        return cells if self.closed else cells + [2 * u for u in cuts[i + 1:j]]

    def find(self, e: int) -> int:
        parent = self.parent
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def cover(self, windows, root: Optional[int] = None) -> bool:
        """Cover the grid intervals windows in one class, root's when
        given; True when an element was covered or classes joined."""
        for lo, hi in windows:
            self.cut(lo)
            self.cut(hi)
        parent = self.parent
        elements = [e for lo, hi in windows for e in self.elements(lo, hi)]
        got = list(map(parent.get, elements))
        roots = {self.find(p) for p in set(got) if p is not None}
        new = {e for e, p in zip(elements, got) if p is None}
        if root is None:
            root = min(roots) if roots else elements[0]
        else:
            roots.add(root)
        self.classes += 1 - len(roots)
        self.uncovered -= len(new - self.exempt)
        roots.discard(root)
        parent.update(dict.fromkeys(new, root))
        parent.update(dict.fromkeys(roots, root))
        return bool(new or roots)

    def holds(self, lo: int, hi: int, root: int) -> bool:
        """True when every element inside the interval (lo, hi), lo < hi,
        is covered in the class of root, a root: cover([(lo, hi)], root)
        would then change nothing.  Nothing is cut."""
        parent, find = self.parent, self.find
        for e in self.elements(lo, hi):
            if e not in parent or find(e) != root:
                return False
        return True

    def saturated(self) -> bool:
        """Nothing is left that an additive face of fn could cover or
        join: every element that one can cover is covered, and the classes
        are as many as fn's slopes (each class lies inside one slope).

        It can stay False after the whole fixpoint: a grid point that is
        no breakpoint and that no window holds inside stays uncovered.  On
        hildebrand_discont_3_slope_1 under lam = 1, 2 and 6 the classes
        number the slopes, but 2, 4 and 12 such points (1/4 and 3/4 at
        lam = 1) stay uncovered, so the stop never fires there."""
        return not self.uncovered and self.classes == self.slopes

    def runs(self, lo: int, hi: int) -> list[list]:
        """Maximal runs [class, start, end] of the consecutive elements
        inside (lo, hi) in one class, None for uncovered ones; a point
        starts and ends at itself."""
        self.cut(lo)
        self.cut(hi)
        cuts, parent = self.cuts, self.parent
        i, j = bisect_left(cuts, lo), bisect_left(cuts, hi)
        out: list[list] = []
        for k in range(i, j):
            u = cuts[k]
            parts = [(2 * u + 1, cuts[k + 1])]
            if k > i and not self.closed:
                parts.insert(0, (2 * u, u))
            for e, end in parts:
                c = self.find(e) if e in parent else None
                if out and out[-1][0] == c:
                    out[-1][2] = end
                else:
                    out.append([c, u, end])
        return out

    def interval(self, a: int, b: int) -> Interval:
        return (Fraction(a, self.D), Fraction(b, self.D))

    def result(self, moves: tuple) -> CoveredComponentSet:
        components: dict = {}
        gaps = []
        for root, a, b in self.runs(0, self.D):
            if root is not None:
                components.setdefault(root, []).append(self.interval(a, b))
            elif a < b:  # a lone uncovered point is no gap
                gaps.append(self.interval(a, b))
        return CoveredComponentSet(
            tuple(tuple(c) for c in components.values()), tuple(gaps),
            moves, self.closed)


def _scaled_faces(additive: AdditiveFaceSet) -> tuple[int, list]:
    """The keys of an AdditiveFaceSet's faces as (D, [integer key]) on the
    grid 1/D of the keys' endpoints (the grid of the faces' vertices), in
    the set's order.  A face whose mirror F(J, I, K) is in the set and
    comes first in key order is left out: it has the mirror's windows and
    edge maps, so it covers and joins nothing more."""
    D, ends = on_grid(t for f in additive.faces for iv in f.key() for t in iv)
    keys = [((x0, x1), (y0, y1), (s0, s1)) for x0, x1, y0, y1, s0, s1
            in zip(*[iter(ends)] * 6)]  # six ends to a key
    present = set(keys)
    return D, [k for k in keys if k <= (k[1], k[0], k[2])
               or (k[1], k[0], k[2]) not in present]


def _cover_directly(fn: PiecewiseFunction, D: int, faces):
    """Phase one for the face keys faces on the grid 1/D, taken in the
    order given: (classes, edges), with edges the keys of the
    one-dimensional faces among those taken.  Each 2-face's three windows
    are joined as it comes, and faces stop being taken once the covering
    is saturated.  A key's single points give the face's dimension: none
    for a 2-face, one for an edge."""
    classes = _Classes(fn, D)
    edges = []
    for key in faces:
        p1, p2, p3 = key
        n = (p1[0] == p1[1]) + (p2[0] == p2[1]) + (p3[0] == p3[1])
        if n == 1:
            edges.append(key)
        elif not n:
            classes.cover((p1, p2, _mod_one(p3, D)))
            if classes.saturated():
                break
    return classes, edges


def directly_covered_components(fn: PiecewiseFunction,
                                additive: AdditiveFaceSet) -> CoveredComponentSet:
    """Phase one: the three projections of each two-dimensional additive
    face (the third reduced mod 1), components merged where they overlap."""
    return _cover_directly(fn, *_scaled_faces(additive))[0].result(())


def generate_covered_components(fn: PiecewiseFunction,
                                additive: Optional[AdditiveFaceSet] = None) -> CoveredComponentSet:
    """Phase one plus phase two: propagate covering through one-dimensional
    additive faces until no further change.  Phase one stops the face walk
    as soon as the covering is saturated, which leaves the result as the
    whole walk gives it (see the module notes).

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
        D, _, walk = _additive_walk(fn)
        faces = (key for key, maximal in walk if maximal)
    else:
        D, faces = _scaled_faces(additive)
    classes, edges = _cover_directly(fn, D, faces)
    if classes.saturated():
        return classes.result(())
    # an edge and its mirror have the same maps: each map once, for the
    # first edge in key order with it
    maps: dict = {}
    for key in sorted(edges):
        for m in _edge_maps(key, D):
            maps.setdefault(m, key)
    moves: list[EdgeMove] = []
    # a map that changed nothing changes nothing again until another does:
    # each map's count of moves when it last changed nothing
    idle: dict = {}
    # a move covers some of the 2D + 1 points and cells of the grid or
    # joins two classes: at most 4D + 2 moves, and a pass without one ends
    while True:
        before = len(moves)
        for m, edge in maps.items():
            if idle.get(m) == len(moves):
                continue
            kind, src, dst = m
            # the grid point u of the source window maps to base + sign * u
            if kind == "translation":
                base, sign = dst[0] - src[0], 1
            else:
                base, sign = src[0] + dst[1], -1
            start = len(moves)
            for root, a, b in classes.runs(*src):
                if root is None:
                    continue
                root = classes.find(root)
                lo, hi = ((base + a, base + b) if sign > 0
                          else (base - b, base - a))
                # an image already in the class moves nothing
                if not classes.holds(lo, hi, root) and classes.cover(
                        [(lo, hi)], root):
                    moves.append(EdgeMove(grid_face(edge, D), kind,
                                          classes.interval(a, b),
                                          classes.interval(lo, hi)))
            if len(moves) == start:
                idle[m] = start
        if len(moves) == before:
            break
    return classes.result(tuple(moves))


def uncovered_intervals(fn: PiecewiseFunction) -> list[Interval]:
    """Open intervals in the complement of the closure of the covered set."""
    return list(generate_covered_components(fn).uncovered)
