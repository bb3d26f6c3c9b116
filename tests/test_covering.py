from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.complex2d import (Face, generate_additive_faces,
                                generate_maximal_additive_faces, mirror_face)
from groupcut.covering import directly_covered_components
from groupcut.errors import UnsupportedCaseError

from conftest import random_minimal_functions, random_subadditive_functions


class TestDirectlyCovered:
    def test_gj_phase_one_merges(self, gj):
        additive = generate_additive_faces(gj)
        cc = directly_covered_components(gj, additive)
        # two components after merging the overlapping corner component
        assert len(cc.components) == 2
        assert cc.components[0] == ((0, F(7, 30)), (F(11, 30), F(3, 5)))
        assert cc.components[1] == ((F(7, 30), F(11, 30)), (F(3, 5), 1))

    def test_zero_function_single_component(self, zero_fn):
        cc = gc.generate_covered_components(zero_fn)
        assert cc.components == (((0, 1),),)
        assert cc.uncovered == ()

    def test_no_two_dimensional_faces(self):
        # constant 1/2 with pinned value 0 at the origin: subadditive, but
        # every limit slack on a 2-face interior is 1/2, so nothing is
        # directly covered
        fn = gc.from_breakpoints_and_limits(
            [0, 1], [(0, F(1, 2), F(1, 2)), (0, F(1, 2), F(1, 2))])
        additive = generate_additive_faces(fn)
        assert not [f for f in additive.faces if f.dimension == 2]
        cc = directly_covered_components(fn, additive)
        assert cc.components == ()
        assert cc.uncovered == ((0, 1),)


class TestGenerateCoveredComponents:
    def test_hildebrand_published_components(self, hildebrand):
        cc = gc.generate_covered_components(hildebrand)
        assert not cc.closed
        assert cc.components == (
            ((0, F(1, 8)), (F(3, 8), F(1, 2))),
            ((F(1, 8), F(1, 4)), (F(1, 4), F(3, 8)),
             (F(1, 2), F(5, 8)), (F(7, 8), 1)),
            ((F(5, 8), F(3, 4)), (F(3, 4), F(7, 8))),
        )
        assert cc.uncovered == ()

    def test_hildebrand_translation_step(self, hildebrand):
        cc = gc.generate_covered_components(hildebrand)
        moves = [(mv.kind, mv.source, mv.moved) for mv in cc.edges_used]
        assert ("translation", (F(1, 8), F(1, 4)), (F(1, 2), F(5, 8))) in moves
        assert any(kind == "reflection" and moved == (F(7, 8), 1)
                   for kind, _, moved in moves)

    def test_gmic_two_components(self, gmic45):
        cc = gc.generate_covered_components(gmic45)
        assert cc.closed
        assert cc.components == (((0, F(4, 5)),), ((F(4, 5), 1),))
        assert cc.uncovered == ()

    def test_drlm_uncovered(self, drlm):
        assert gc.uncovered_intervals(drlm) == [(F(5, 12), F(2, 3))]

    def test_component_of(self, drlm):
        cc = gc.generate_covered_components(drlm)
        assert cc.component_of(F(1, 24)) == 0
        assert cc.component_of(F(3, 4)) == 1
        # inside the uncovered (5/12, 2/3), and at an end of a component
        assert cc.component_of(F(1, 2)) is None
        assert cc.component_of(F(1, 12)) is None

    def test_gmic_fully_covered(self, gmic45):
        assert gc.uncovered_intervals(gmic45) == []

    def test_zero_uncovered_empty(self, zero_fn):
        assert gc.uncovered_intervals(zero_fn) == []

    def test_grid_closed_under_edge_maps(self, gmic45, hildebrand):
        # the covered endpoints 1/8 and 1/4 lie inside the window (0, 1/2)
        # of a translation by 1/2, so their images 5/8 and 3/4 must become
        # grid points before the covered run (0, 1/4) can move
        two_face = gc.face_from_triple((0, F(1, 8)), (0, F(1, 8)), (0, F(1, 4)))
        edge = gc.face_from_triple((0, F(1, 2)), F(1, 2), (F(1, 2), 1))
        additive = gc.AdditiveFaceSet((two_face, edge), (True, True))
        for fn in (gmic45, hildebrand):
            cc = gc.generate_covered_components(fn, additive)
            assert cc.components == (((0, F(1, 4)), (F(1, 2), F(3, 4))),)
            assert cc.uncovered == ((F(1, 4), F(1, 2)), (F(3, 4), 1))
            assert [(mv.kind, mv.source, mv.moved) for mv in cc.edges_used] \
                == [("translation", (0, F(1, 4)), (F(1, 2), F(3, 4)))]

    def test_later_edge_feeds_earlier_edge(self, gmic45, hildebrand):
        # the edge at x = 1/4 covers (1/2, 5/8) only after the edge at
        # x = 1/8, earlier in key order, was passed over: a second pass
        # must move it on to (5/8, 3/4); the mirror of that edge, later in
        # key order, has the same maps, so adding it changes no move
        two_face = gc.face_from_triple((F(1, 8), F(3, 16)), (F(1, 8), F(3, 16)),
                                       (F(1, 4), F(3, 8)))
        first = gc.face_from_triple(F(1, 8), (F(1, 2), F(5, 8)), (F(5, 8), F(3, 4)))
        second = gc.face_from_triple(F(1, 4), (F(1, 4), F(3, 8)), (F(1, 2), F(5, 8)))
        cases = [(hildebrand, ((F(1, 2), F(5, 8)), (F(5, 8), F(3, 4)))),
                 (gmic45, ((F(1, 2), F(3, 4)),))]
        for faces in ((two_face, first, second),
                      (two_face, first, second, mirror_face(first))):
            additive = gc.AdditiveFaceSet(faces, (True,) * len(faces))
            for fn, tail in cases:
                cc = gc.generate_covered_components(fn, additive)
                assert cc.components == (
                    ((F(1, 8), F(3, 16)), (F(1, 4), F(3, 8))) + tail,)
                assert cc.uncovered == ((0, F(1, 8)), (F(3, 16), F(1, 4)),
                                        (F(3, 8), F(1, 2)), (F(3, 4), 1))
                assert [(mv.face, mv.source, mv.moved)
                        for mv in cc.edges_used] \
                    == [(second, (F(1, 4), F(3, 8)), (F(1, 2), F(5, 8))),
                        (first, (F(1, 2), F(5, 8)), (F(5, 8), F(3, 4)))]

    def test_two_sided_discontinuity_at_origin_rejected(self):
        fn = gc.from_breakpoints_and_limits(
            [0, F(1, 2), 1],
            [(0, F(1, 4), F(1, 4)), (1, 1, 1), (0, F(1, 4), F(1, 4))],
            f=F(1, 2))
        with pytest.raises(UnsupportedCaseError):
            gc.generate_covered_components(fn)


class TestCoveringInvariants:
    def test_slope_coherence(self, gj, hildebrand, gmic45):
        # the function has one single slope on every covered component
        for fn in (gj, hildebrand, gmic45):
            cc = gc.generate_covered_components(fn)
            for comp in cc.components:
                slopes = set()
                for lo, hi in comp:
                    mid = (lo + hi) / 2
                    slopes.add(fn.which_function(mid).slope)
                assert len(slopes) == 1

    def test_phase_two_extends_phase_one(self, hildebrand):
        additive = generate_additive_faces(hildebrand)
        phase1 = directly_covered_components(hildebrand, additive)
        final = gc.generate_covered_components(hildebrand, additive)

        def covers(comp, iv):
            return any(a <= iv[0] and iv[1] <= b for a, b in comp)

        for comp in phase1.components:
            target = [c for c in final.components
                      if all(covers(c, iv) for iv in comp)]
            assert target, "phase-one component lost during propagation"

    def test_disjoint_interiors(self, hildebrand, gj):
        for fn in (hildebrand, gj):
            cc = gc.generate_covered_components(fn)
            ivs = cc.all_intervals()
            for i, (a, b) in enumerate(ivs):
                for (c, d) in ivs[i + 1:]:
                    assert not (a < d and c < b), "interval interiors overlap"

    def test_closure_partition(self, gj, drlm, hildebrand):
        for fn in (gj, drlm, hildebrand):
            cc = gc.generate_covered_components(fn)
            pieces = sorted(cc.all_intervals() + list(cc.uncovered))
            cursor = F(0)
            for a, b in pieces:
                assert a <= cursor  # closures meet or overlap
                cursor = max(cursor, b)
            assert cursor == 1

    def test_random_functions_cover_partition(self):
        for fn in random_minimal_functions(5, xgrid=5, ygrid=5, start_seed=50):
            cc = gc.generate_covered_components(fn)
            pieces = sorted(cc.all_intervals() + list(cc.uncovered))
            cursor = F(0)
            for a, b in pieces:
                assert a <= cursor
                cursor = max(cursor, b)
            assert cursor == 1


# components, uncovered intervals and closed flags computed by the earlier
# interval-list implementation of covering
PINNED = {
    "gj_2_slope:lam=2": (
        lambda: gc.multiplicative_homomorphism(gc.gj_2_slope(), 2), True,
        (((0, F(7, 60)), (F(11, 60), F(3, 10)), (F(1, 2), F(37, 60)),
          (F(41, 60), F(4, 5))),
         ((F(7, 60), F(11, 60)), (F(3, 10), F(1, 2)), (F(37, 60), F(41, 60)),
          (F(4, 5), 1))),
        ()),
    "drlm:lam=2": (
        lambda: gc.multiplicative_homomorphism(gc.drlm_backward_3_slope(), 2),
        True,
        (((0, F(1, 24)), (F(1, 2), F(13, 24))),
         ((F(1, 24), F(5, 24)), (F(1, 3), F(1, 2)), (F(13, 24), F(17, 24)),
          (F(5, 6), 1))),
        ((F(5, 24), F(1, 3)), (F(17, 24), F(5, 6)))),
    "hildebrand:lam=2": (
        lambda: gc.multiplicative_homomorphism(
            gc.hildebrand_discont_3_slope_1(), 2), False,
        (((0, F(1, 16)), (F(3, 16), F(1, 4)), (F(1, 2), F(9, 16)),
          (F(11, 16), F(3, 4))),
         ((F(1, 16), F(1, 8)), (F(1, 8), F(3, 16)), (F(1, 4), F(5, 16)),
          (F(7, 16), F(1, 2)), (F(9, 16), F(5, 8)), (F(5, 8), F(11, 16)),
          (F(3, 4), F(13, 16)), (F(15, 16), 1)),
         ((F(5, 16), F(3, 8)), (F(3, 8), F(7, 16)), (F(13, 16), F(7, 8)),
          (F(7, 8), F(15, 16)))),
        ()),
    "gmic:f=123457/1000000": (
        lambda: gc.gmic(F(123457, 1000000)), True,
        (((0, F(123457, 1000000)),), ((F(123457, 1000000), 1),)),
        ()),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_components(name):
    make, closed, components, uncovered = PINNED[name]
    cc = gc.generate_covered_components(make())
    assert cc.closed is closed
    assert cc.components == components
    assert cc.uncovered == uncovered


def _probes(iv, ends, closed):
    """Exact probe points of the interval iv on the grid of ends: the
    midpoint of every cell and, for open intervals, every grid point
    inside, where a union of open intervals can have a hole."""
    pts = sorted({e for e in ends if iv[0] < e < iv[1]} | set(iv))
    mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    return mids if closed else mids + pts[1:-1]


def _inside(x, intervals):
    return any(lo < x < hi for lo, hi in intervals)


@pytest.mark.parametrize("lam", [1, 2, 3])
def test_hildebrand_moves_replay(hildebrand, lam):
    # each logged move starts from intervals already covered, by phase one
    # or an earlier move, in its own final component, and phase one plus
    # the moved images is the final covered set
    fn = gc.multiplicative_homomorphism(hildebrand, lam)
    additive = generate_maximal_additive_faces(fn)
    covered = directly_covered_components(fn, additive).all_intervals()
    final = gc.generate_covered_components(fn, additive)
    assert len(final.edges_used) == 2 * lam
    ends = {e for iv in covered + final.all_intervals() for e in iv}
    ends |= {e for mv in final.edges_used for e in mv.source + mv.moved}
    for mv in final.edges_used:
        comp = final.component_of(sum(mv.source) / 2)
        assert comp is not None
        for x in _probes(mv.source, ends, final.closed):
            assert _inside(x, covered)
            assert final.component_of(x) == comp
        for x in _probes(mv.moved, ends, final.closed):
            assert final.component_of(x) == comp
        covered.append(mv.moved)
    for x in _probes((F(0), F(1)), ends, final.closed):
        assert _inside(x, covered) == _inside(x, final.all_intervals())


def _built_faces(monkeypatch) -> list:
    """A list that grows by one entry per Face constructed from now on."""
    built = []
    init = Face.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Face, "__init__", counting_init)
    return built


def test_verdict_builds_no_fraction_face(monkeypatch):
    # covering reads the walk's integer faces; a Fraction face is built
    # only for a logged edge move
    fn = gc.multiplicative_homomorphism(gc.gj_2_slope(), 6)
    built = _built_faces(monkeypatch)
    assert gc.extremality_test(fn).is_extreme
    assert built == []


def test_verdict_builds_one_face_per_edge_move(monkeypatch):
    fn = gc.multiplicative_homomorphism(gc.hildebrand_discont_3_slope_1(), 2)
    built = _built_faces(monkeypatch)
    moves = gc.extremality_test(fn).covered.edges_used
    assert moves and len(built) <= len(moves)


def _covering(cover, fn, *args):
    """The covering result, or the type of the error it raised."""
    try:
        return cover(fn, *args)
    except gc.GroupCutError as exc:
        return type(exc)


def _agreement_inputs():
    hom = gc.multiplicative_homomorphism
    fns = [gc.gmic(F(4, 5))]
    fns += [hom(make(), lam) for make in (gc.hildebrand_discont_3_slope_1,
                                          gc.gj_2_slope,
                                          gc.drlm_backward_3_slope)
            for lam in (1, 2, 3)]
    fns += random_minimal_functions(8, start_seed=7)
    fns += random_minimal_functions(8, proba=F(1, 2), start_seed=7)
    return fns


def test_integer_faces_and_additive_argument_agree():
    # the integer faces of the walk (the half x <= y), both public face
    # sets and the maximal faces with key <= mirror key, scaled to their
    # own grid, give the same components, uncovered intervals and moves
    # (faces included)
    for fn in _agreement_inputs():
        walk = _covering(gc.generate_covered_components, fn)
        every, maximal = (generate_additive_faces(fn),
                          generate_maximal_additive_faces(fn))
        half = [f for f in maximal.faces if f.key() <= f.mirror_key()]
        assert len(half) < len(maximal)
        for additive in (every, maximal,
                         gc.AdditiveFaceSet(tuple(half), (True,) * len(half))):
            assert _covering(gc.generate_covered_components, fn,
                             additive) == walk
        assert _covering(directly_covered_components, fn, every) == \
            _covering(directly_covered_components, fn, maximal)


def test_covering_is_independent_of_the_face_order():
    # phase one may stop at saturation, so the order of the faces decides
    # where: the maximal faces in key order and reversed give the walk's
    # result, components, uncovered intervals and moves with their faces
    for fn in _agreement_inputs():
        walk = _covering(gc.generate_covered_components, fn)
        maximal = _covering(generate_maximal_additive_faces, fn)
        if not isinstance(maximal, gc.AdditiveFaceSet):
            assert walk == maximal
            continue
        for faces in (maximal.faces, maximal.faces[::-1]):
            additive = gc.AdditiveFaceSet(faces, (True,) * len(faces))
            assert _covering(gc.generate_covered_components, fn,
                             additive) == walk


def test_covering_stops_the_walk_once_saturated(monkeypatch):
    # gj_2_slope under lam = 6 is covered, with one class per slope, after
    # a short prefix of the walk: covering takes fewer 2-faces and edges
    # from it than the whole walk yields
    from groupcut import complex2d, covering

    fn = gc.multiplicative_homomorphism(gc.gj_2_slope(), 6)
    taken = []
    walk = complex2d._additive_walk

    def counted(fn):
        D, tight, faces = walk(fn)
        return D, tight, (taken.append(face) or face for face in faces)

    monkeypatch.setattr(covering, "_additive_walk", counted)
    cc = gc.generate_covered_components(fn)
    assert len(cc.components) == 2 and not cc.uncovered and not cc.edges_used
    D, faces = complex2d._grid_additive_faces(fn)
    walked = [key for key in faces if sum(lo == hi for lo, hi in key) < 3]
    assert 0 < len(taken) < len(walked) / 2


def test_the_stop_waits_for_the_points_inside_a_component():
    # every cell of this discontinuous function is covered, in as many
    # classes as slopes, while the grid point 1/4, no breakpoint, is not
    # yet: stopping there would split the component at 1/4
    fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
    assert not fn.is_continuous and F(1, 4) not in fn.breakpoints
    cc = gc.generate_covered_components(fn)
    assert cc.components == (((0, F(1, 2)), (F(1, 2), F(3, 4)),
                              (F(3, 4), 1)),)
    assert cc.uncovered == () and cc.edges_used == ()


def test_a_face_and_its_mirror_are_joined_once(monkeypatch):
    # a public face set holds each face with its mirror F(J, I, K), whose
    # windows and edge maps are the same: phase one covers each 2-face
    # once, as the half x <= y does; drlm is uncovered, so phase one never
    # stops early and covers every 2-face of the half
    from groupcut import covering

    covers = []
    cover = covering._Classes.cover
    monkeypatch.setattr(covering._Classes, "cover",
                        lambda self, *args: covers.append(1) or cover(self, *args))
    hom = gc.multiplicative_homomorphism
    for fn in (hom(gc.gj_2_slope(), 6), hom(gc.drlm_backward_3_slope(), 2)):
        every = generate_additive_faces(fn)
        half = tuple(f for f in every.faces if f.key() <= f.mirror_key())
        counts = []
        for faces in (every, gc.AdditiveFaceSet(half, (True,) * len(half))):
            covers.clear()
            directly_covered_components(fn, faces)
            counts.append(len(covers))
        twofaces = sum(f.dimension == 2 for f in half)
        assert counts[0] == counts[1] <= twofaces < len(every.faces_of_dim(2))
    assert counts[0] == twofaces


def test_phase_two_covers_only_what_moves(monkeypatch):
    # phase two asks the classes to cover an image only when it is not yet
    # in its source's class, so each call it makes (the calls with a root)
    # logs a move; on hildebrand under lam = 1..4 and on a stream of
    # seeded random subadditive functions, two of which have moves while
    # the edges of the rest move nothing
    from groupcut import covering

    calls = []
    cover = covering._Classes.cover

    def counted(self, windows, root=None):
        if root is not None:
            calls.append(root)
        return cover(self, windows, root)

    monkeypatch.setattr(covering._Classes, "cover", counted)
    fns = [gc.multiplicative_homomorphism(gc.hildebrand_discont_3_slope_1(),
                                          lam) for lam in (1, 2, 3, 4)]
    fns += random_subadditive_functions(700, 2, False)
    moved = 0
    for fn in fns:
        calls.clear()
        try:
            cc = gc.generate_covered_components(fn)
        except UnsupportedCaseError:
            continue  # a jump at the origin from both sides
        assert len(calls) == len(cc.edges_used)
        moved += bool(cc.edges_used)
    assert moved == 6


def test_covered_runs_and_moves_span_a_cell(monkeypatch):
    # a grid point is covered only inside a window or an image, with the
    # cells on both sides, and classes only merge: so every covered run,
    # and every image of one that phase two asks _Classes.holds about,
    # spans a cell; every component interval and every EdgeMove source
    # and image has lo < hi, with and without the additive= argument
    from groupcut import covering

    asked = []
    holds = covering._Classes.holds

    def checked(self, lo, hi, root):
        asked.append(hi - lo)
        return holds(self, lo, hi, root)

    monkeypatch.setattr(covering._Classes, "holds", checked)
    hom = gc.multiplicative_homomorphism
    fns = [hom(make(), lam) for make in (gc.hildebrand_discont_3_slope_1,
                                         gc.gj_2_slope,
                                         gc.drlm_backward_3_slope)
           for lam in (1, 2, 3)]
    for grid in (4, 5):
        fns += random_minimal_functions(20, xgrid=grid, ygrid=grid,
                                        proba=F(1, 2))
    fns += [fn for continuous in (True, False)
            for fn in random_subadditive_functions(40, 12, continuous)]
    results = []
    for fn in fns:
        every = generate_additive_faces(fn)
        half = [f for f in every.faces if f.key() <= f.mirror_key()]
        for args in ((), (every,), (gc.AdditiveFaceSet(
                tuple(half), (True,) * len(half)),)):
            results.append(_covering(gc.generate_covered_components, fn,
                                     *args))
    ccs = [cc for cc in results if not isinstance(cc, type)]
    assert len(ccs) > 200 and sum(bool(cc.edges_used) for cc in ccs) >= 9
    for cc in ccs:
        for lo, hi in cc.all_intervals():
            assert lo < hi
        for mv in cc.edges_used:
            assert mv.source[0] < mv.source[1] and mv.moved[0] < mv.moved[1]
    assert len(asked) > 100 and min(asked) > 0
