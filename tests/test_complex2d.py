import copy
import dataclasses
import pickle
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut import complex2d
from groupcut.complex2d import (face_area, face_from_triple, faces_of_complex,
                                generate_additive_faces_discontinuous,
                                mirror_face)
from groupcut.errors import ConstructionError, NotSubadditiveError

from conftest import (oracle_additivity_area, oracle_delta_pi_limit,
                      oracle_face_area, oracle_face_vertices,
                      oracle_maximal_additive_faces, random_minimal_functions,
                      random_subadditive_functions)


class TestDeltaPi:
    def test_example_values(self, gmic45):
        # pi(1/5) + pi(3/5) - pi(4/5) for a function with those values
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 5), F(3, 5), F(4, 5), 1], [0, F(1, 5), F(4, 5), 1, 0])
        assert gc.delta_pi(fn, F(1, 5), F(3, 5)) == 0
        assert gc.delta_pi(gmic45, F(2, 5), F(2, 5)) == 0

    def test_delta_at_zero(self, equiv5, gmic45):
        for fn in (equiv5, gmic45):
            for y in (F(1, 7), F(2, 5)):
                assert gc.delta_pi(fn, 0, y) == fn(0)

    def test_symmetry_random_pairs(self, gj):
        import random

        rng = random.Random(4)
        for _ in range(200):
            x = F(rng.randrange(-50, 50), rng.randrange(1, 40))
            y = F(rng.randrange(-50, 50), rng.randrange(1, 40))
            assert gc.delta_pi(gj, x, y) == gc.delta_pi(gj, y, x)


class TestFaceFromTriple:
    def test_one_element_intervals_are_points(self):
        # [t] is the point t, like a bare t
        face = gc.face_from_triple([F(1, 4)], (0, F(1, 2)), (0, 1))
        assert face == gc.face_from_triple(F(1, 4), (0, F(1, 2)), (0, 1))
        assert face.key() == ((F(1, 4), F(1, 4)), (0, F(1, 2)),
                              (F(1, 4), F(3, 4)))
        assert face.edge_kind == "vertical"
        assert gc.face_from_triple([F(1, 4)], [F(1, 2)], [F(3, 4)]).vertices \
            == ((F(1, 4), F(1, 2)),)

    def test_empty_face(self):
        # x, y <= 1/4 never reach x + y >= 1
        face = gc.face_from_triple((0, F(1, 4)), (0, F(1, 4)), (1, 2))
        assert face.is_empty and face.dimension == -1
        assert face.vertices == () and face.edge_kind is None
        assert not face.contains_point((0, 0))
        assert not face.contains_point((F(1, 2), F(1, 2)))
        assert repr(face) == "<Face empty>"

    def test_published_face(self):
        face = gc.face_from_triple(
            (F(1, 5), F(3, 10)), (F(3, 4), F(17, 20)), (1, F(6, 5)))
        assert set(face.vertices) == {
            (F(1, 5), F(17, 20)), (F(3, 10), F(3, 4)), (F(3, 10), F(17, 20)),
            (F(1, 5), F(4, 5)), (F(1, 4), F(3, 4))}
        assert face.proj1 == (F(1, 5), F(3, 10))
        assert face.proj2 == (F(3, 4), F(17, 20))
        assert face.proj3 == (1, F(23, 20))
        assert face.dimension == 2

    def test_point_face(self):
        face = gc.face_from_triple(0, 0, 0)
        assert face.vertices == ((0, 0),)
        assert face.dimension == 0

    def test_empty_face(self):
        face = gc.face_from_triple((0, F(1, 5)), (0, F(1, 5)), (F(3, 5), F(4, 5)))
        assert face.is_empty and face.vertices == ()

    def test_malformed(self):
        with pytest.raises(ConstructionError):
            gc.face_from_triple((F(1, 2), F(1, 4)), (0, 1), (0, 1))
        with pytest.raises(ConstructionError):
            gc.face_from_triple((0, 1), (0, 1), (0, F(5, 2)))

    @pytest.mark.parametrize("exact", [int, F])
    def test_closed_form_vertices_match_basic_solutions(self, exact):
        # the slice ends of the projections against the feasible basic
        # solutions, on random triples with point intervals, cells whose
        # face is a point or an edge, and empty faces
        rng = random.Random(31)

        def interval(n, d):
            lo, hi = sorted(rng.randint(0, n * d) for _ in "lh")
            if rng.random() < 0.3:
                hi = lo
            return (lo, hi) if exact is int else (F(lo, d), F(hi, d))

        seen = Counter()
        for _ in range(3000):
            d = 1 if exact is int else rng.randint(1, 6)
            I, J, K = interval(4, d), interval(4, d), interval(8, d)
            verts = complex2d._face_vertices(complex2d._projections(I, J, K))
            assert verts == oracle_face_vertices(I, J, K)
            cells = all(lo < hi for lo, hi in (I, J, K))
            seen["point intervals" if not cells else
                 "empty" if not verts else
                 "degenerate cell" if len(verts) < 3 else "2-face"] += 1
        assert min(seen.values()) >= 20 and len(seen) == 4, seen

    def test_edge_kinds(self):
        v = gc.face_from_triple(F(1, 2), (0, F(1, 4)), (F(1, 2), F(3, 4)))
        assert v.dimension == 1 and v.edge_kind == "vertical"
        h = gc.face_from_triple((0, F(1, 4)), F(1, 2), (F(1, 2), F(3, 4)))
        assert h.edge_kind == "horizontal"
        d = gc.face_from_triple((0, F(1, 2)), (0, F(1, 2)), F(1, 2))
        assert d.edge_kind == "diagonal"

    def test_projection_consistency_and_mirror(self, gj):
        for face in faces_of_complex(gj):
            for (x, y) in face.vertices:
                assert face.proj1[0] <= x <= face.proj1[1]
                assert face.proj2[0] <= y <= face.proj2[1]
                assert face.proj3[0] <= x + y <= face.proj3[1]
            m = mirror_face(face)
            assert m.proj1 == face.proj2 and m.proj2 == face.proj1
            assert m.proj3 == face.proj3

    def test_a_face_is_the_set_its_key_cuts_out(self):
        # below the API a face is its key: each projection is the (min,
        # max) of the vertices' x, y and x + y, so the integer key gives
        # the Fraction face, the mirror key gives the mirror, and one face
        # lies in another exactly when its projections lie in the other's
        from conftest import random_subadditive_functions

        fns = [fn for continuous in (True, False)
               for fn in random_subadditive_functions(20, 5, continuous)]
        fns += [gc.multiplicative_homomorphism(make(), lam)
                for make in (gc.gj_2_slope, gc.hildebrand_discont_3_slope_1)
                for lam in (1, 2, 3)]
        for fn in fns:
            D = complex2d.vertex_slacks(fn).D
            for face in faces_of_complex(fn):
                coords = [[x for x, _ in face.vertices],
                          [y for _, y in face.vertices],
                          [x + y for x, y in face.vertices]]
                assert face.key() == tuple((min(c), max(c)) for c in coords)
                key = tuple((lo.numerator * (D // lo.denominator),
                             hi.numerator * (D // hi.denominator))
                            for lo, hi in face.key())
                assert complex2d.grid_face(key, D) == face_from_triple(
                    *face.key()) == face
                assert mirror_face(mirror_face(face)) == face
        faces = faces_of_complex(gc.gj_2_slope())
        for f in faces:
            for g in faces:
                assert g.contains_face(f) == all(
                    g.contains_point(v) for v in f.vertices)


    def test_a_face_stores_its_key_alone(self):
        # a Face holds its three projections; its vertices (read once),
        # its dimension and its edge kind are read from them, and a copy
        # of a face whose vertices were read is still the same face
        assert [f.name for f in dataclasses.fields(gc.Face)] == [
            "proj1", "proj2", "proj3"]
        fns = [gc.gmic(), gc.gj_2_slope(), gc.hildebrand_discont_3_slope_1()]
        fns += [gc.random_piecewise_function(4, 3, F(seed % 3, 2), seed=seed)
                for seed in range(20)]
        kinds = Counter()
        for fn in fns:
            for face in faces_of_complex(fn):
                (x0, y0), *rest = face.vertices
                moves = [(x - x0, y - y0) for x, y in rest]
                bent = any(a * d != b * c for a, b in moves for c, d in moves)
                assert face.dimension == (2 if bent else 1 if moves else 0)
                constant = [len({x for x, _ in face.vertices}) == 1,
                            len({y for _, y in face.vertices}) == 1,
                            len({x + y for x, y in face.vertices}) == 1]
                assert face.edge_kind == (
                    ("vertical", "horizontal", "diagonal")[constant.index(True)]
                    if face.dimension == 1 else None)
                kinds[face.edge_kind] += 1
                for twin in (copy.copy(face), copy.deepcopy(face),
                             pickle.loads(pickle.dumps(face))):
                    assert twin == face and hash(twin) == hash(face)
                    assert twin.vertices == face.vertices
        assert min(kinds.values()) > 100 and len(kinds) == 4, kinds


class TestFaceGeometry:
    def test_edges_and_vertices_have_no_area(self):
        edge = gc.face_from_triple(F(1, 4), (0, F(1, 2)), (0, 1))
        vertex = gc.face_from_triple(F(1, 4), F(1, 2), (0, 1))
        assert (edge.dimension, vertex.dimension) == (1, 0)
        assert face_area(edge) == face_area(vertex) == 0

    @pytest.fixture(scope="class")
    def two_faces(self, gj, hildebrand):
        """Every 2-face of the complex of gj_2_slope and hildebrand under
        lambda = 1, 2, 3 and of 20 random subadditive functions of each
        continuity."""
        fns = [gc.multiplicative_homomorphism(fn, lam)
               for fn in (gj, hildebrand) for lam in (1, 2, 3)]
        for continuous in (True, False):
            fns += random_subadditive_functions(20, 11, continuous)
        return [face for fn in fns for face in faces_of_complex(fn, dims=(2,))]

    def test_area_integrates_the_slice_length(self, two_faces):
        for face in two_faces:
            assert face_area(face) == oracle_face_area(face) > 0

    def test_boundary_turns_left_at_every_vertex(self, two_faces):
        for face in two_faces:
            b = complex2d._boundary(face.key())
            assert len(b) == len(face.vertices) >= 3
            assert set(b) == set(face.vertices)
            assert b[0] == face.vertices[0]
            for p, q, r in zip(b, b[1:] + b[:1], b[2:] + b[:2]):
                assert (q[0] - p[0]) * (r[1] - q[1]) \
                    > (q[1] - p[1]) * (r[0] - q[0])


class TestDeltaPiLimit:
    def test_published_limits(self, equiv5):
        two_face = gc.face_from_triple(
            (F(1, 5), F(2, 5)), (F(4, 5), 1), (1, F(6, 5)))
        v = (F(2, 5), F(4, 5))
        assert gc.delta_pi_limit(equiv5, two_face, v) == 0
        edge = gc.face_from_triple(
            (F(1, 5), F(2, 5)), F(4, 5), (1, F(6, 5)))
        assert gc.delta_pi_limit(equiv5, edge, v) == F(-2, 5)

    def test_continuous_matches_value(self, gmic45):
        face = gc.face_from_triple((0, F(4, 5)), (0, F(4, 5)), (0, F(4, 5)))
        for v in face.vertices:
            assert gc.delta_pi_limit(gmic45, face, v) == gc.delta_pi(gmic45, *v)

    def test_outside_point_rejected(self, gmic45):
        face = gc.face_from_triple((0, F(4, 5)), (0, F(4, 5)), (0, F(4, 5)))
        with pytest.raises(ConstructionError):
            gc.delta_pi_limit(gmic45, face, (F(9, 10), F(9, 10)))

    def test_against_extrapolation_oracle(self, equiv5, hildebrand):
        for fn in (equiv5, hildebrand):
            for face in faces_of_complex(fn):
                for v in face.vertices:
                    assert gc.delta_pi_limit(fn, face, v) == \
                        oracle_delta_pi_limit(fn, face, v)


class TestComplexVertices:
    def test_two_breakpoints(self, zero_fn):
        assert gc.enumerate_complex_vertices(zero_fn) == [
            (0, 0), (0, 1), (1, 0), (1, 1)]

    def test_gmic_contains_grid_corners(self, gmic45):
        pts = gc.enumerate_complex_vertices(gmic45)
        assert (F(4, 5), F(4, 5)) in pts
        assert (F(4, 5), F(1, 5)) in pts  # x = 4/5 meets x + y = 1

    def test_against_bruteforce_intersections(self):
        fn = gc.from_breakpoints_and_values(
            [0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1],
            [0, F(1, 4), F(1, 2), F(3, 4), 1, 0])
        grid = fn.breakpoints
        diag = sorted({b for b in grid} | {b + 1 for b in grid[1:]})
        pts = set()
        for a in grid:
            for b in grid:
                pts.add((a, b))
            for c in diag:
                if 0 <= c - a <= 1:
                    pts.add((a, c - a))
                    pts.add((c - a, a))
        assert gc.enumerate_complex_vertices(fn) == sorted(pts)

    def test_upper_triangle_restriction(self, gmic45):
        upper = gc.enumerate_complex_vertices(gmic45, upper_triangle_only=True)
        assert all(x <= y for x, y in upper)


class TestAdditiveFaces:
    def test_gmic_matches_oracle(self, gmic45):
        got = sorted(f.key() for f in
                     gc.generate_maximal_additive_faces(gmic45).faces)
        assert got == oracle_maximal_additive_faces(gmic45)
        keys = set(got)
        big = gc.face_from_triple((0, F(4, 5)), (0, F(4, 5)), (0, F(4, 5)))
        assert big.key() in keys

    def test_zero_function_covers_square(self, zero_fn):
        faces = gc.generate_maximal_additive_faces(zero_fn)
        assert sum(face_area(f) for f in faces.faces) == 1

    def test_union_is_zero_set(self, gj):
        # every rational sample with zero slack lies in a recorded face
        faces = gc.generate_maximal_additive_faces(gj)
        import random

        rng = random.Random(9)
        for _ in range(300):
            x = F(rng.randrange(0, 61), 60)
            y = F(rng.randrange(0, 61), 60)
            inside = any(f.contains_point((x, y)) for f in faces.faces)
            assert (gc.delta_pi(gj, x, y) == 0) == inside

    def test_oracle_on_compendium_and_randoms(self, gmic45, gj, drlm):
        fns = [gmic45, gj, drlm] + random_minimal_functions(6)
        for fn in fns:
            got = sorted(f.key() for f in
                         gc.generate_maximal_additive_faces(fn).faces)
            assert got == oracle_maximal_additive_faces(fn)

    def test_subface_closure(self, gj):
        full = gc.generate_additive_faces(gj)
        maximal = [f for f, m in zip(full.faces, full.maximal) if m]
        for face in full.faces:
            assert any(g.contains_face(face) for g in maximal)

    def test_discontinuous_enumeration(self, hildebrand, equiv5):
        faces = generate_additive_faces_discontinuous(hildebrand)
        edge = gc.face_from_triple(F(3, 8), (F(1, 8), F(1, 4)), (F(1, 2), F(5, 8)))
        assert edge.key() in {f.key() for f in faces.faces}
        # additive vertex (2/5, 4/5) of the non-subadditive function is
        # reachable only through the subadditivity gate, which rejects
        with pytest.raises(NotSubadditiveError):
            generate_additive_faces_discontinuous(equiv5)

    def test_additive_vertex_via_two_face(self, hildebrand):
        faces = generate_additive_faces_discontinuous(hildebrand)
        vertex_keys = {f.vertices[0] for f in faces.faces if f.dimension == 0}
        assert (F(3, 8), F(1, 8)) in vertex_keys

    @pytest.mark.parametrize("make, lam, most", [
        (gc.gj_2_slope, 6, 135), (gc.hildebrand_discont_3_slope_1, 2, 13)],
        ids=["gj_2_slope-6", "hildebrand_discont_3_slope_1-2"])
    def test_faces_are_built_from_tight_vertices_only(self, monkeypatch,
                                                      make, lam, most):
        # the walk builds the vertices of a 2-face only when it is
        # additive (zero limit slack at a tight vertex, one slope on I, J
        # and K), once per face with key <= mirror key: on gj_2_slope under
        # lam = 6 that is 135 of the 252 additive 2-faces, and far fewer
        # than the 1,116 2-faces that a walk building every 2-face at a
        # tight vertex builds; the public list builds one per face
        fn = gc.multiplicative_homomorphism(make(), lam)
        calls = []
        build = complex2d._face_vertices
        monkeypatch.setattr(complex2d, "_face_vertices",
                            lambda key: calls.append(key) or build(key))
        D, _ = complex2d._grid_additive_faces(fn)
        monkeypatch.undo()
        faces = gc.generate_additive_faces(fn)
        assert len(faces) and calls
        assert len(calls) == len(set(calls)) <= most
        built = set()
        for key in calls:
            face = complex2d.grid_face(key, D)
            assert face.dimension == 2
            assert sum(gc.delta_pi_limit(fn, face, v) == 0
                       for v in face.vertices) >= 3
            built.add(face.key())
        assert built == {f.key() for f in faces.faces_of_dim(2)
                         if f.key() <= f.mirror_key()}

    def test_faces_are_closed_under_the_mirror(self):
        # the walk visits the vertices with x <= y only and returns the
        # faces with key <= mirror key; the public list adds the mirror
        # F(J, I, K) of each face, with the mirrored vertices and the same
        # flag; a face with I = J is its own mirror and straddles the
        # diagonal, as does the edge along x + y = k from (a, b) to (b, a)
        face_vertices = complex2d._face_vertices
        from conftest import random_subadditive_functions

        gj6 = gc.multiplicative_homomorphism(gc.gj_2_slope(), 6)
        fns = [gj6, gc.multiplicative_homomorphism(
            gc.hildebrand_discont_3_slope_1(), 6)]
        fns += [fn for continuous in (True, False)
                for fn in random_subadditive_functions(150, 12, continuous)]
        straddling = Counter()
        for fn in fns:
            D, half = complex2d._grid_additive_faces(fn)
            assert all(p1 <= p2 for p1, p2, _ in half)
            faces = gc.generate_additive_faces(fn)
            flags = {f.key(): (f.vertices, m)
                     for f, m in zip(faces.faces, faces.maximal)}
            for face, maximal in zip(faces.faces, faces.maximal):
                assert flags[face.mirror_key()] == (
                    mirror_face(face).vertices, maximal)
            assert {tuple((lo * D, hi * D) for lo, hi in key)
                    for key in flags if key <= (key[1], key[0], key[2])} \
                == set(half)
            for key in half:
                verts = face_vertices(key)
                if key[0] == key[1] and len(verts) > 1:
                    straddling[len(verts) > 2] += 1
        assert straddling[True] and straddling[False]
        # on the grid 1/180: the 2-face [0, 7/180]^2 below x + y = 7/180,
        # whose limit slack vanishes at (0, 0) and at the mirrored pair
        # (0, 7/180), (7/180, 0), and its diagonal edge
        additive = complex2d._grid_additive_faces(gj6)[1]
        assert additive[(0, 7), (0, 7), (0, 7)] is True
        assert face_vertices(((0, 7), (0, 7), (0, 7))) == (
            (0, 0), (0, 7), (7, 0))
        assert additive[(0, 7), (0, 7), (7, 7)] is False
        assert face_vertices(((0, 7), (0, 7), (7, 7))) == ((0, 7), (7, 0))

    def test_the_walk_yields_each_face_once(self):
        # covering reads every yield of the walk, while _grid_additive_faces
        # folds it into a dict that would hide a face yielded twice, with
        # the same flag or another; on the oracle corpora of the
        # cross-validation tests and on three sourced functions under
        # lam = 1..3
        from conftest import random_minimal_functions

        hom = gc.multiplicative_homomorphism
        fns = [hom(make(), lam) for make in (
            gc.hildebrand_discont_3_slope_1, gc.gj_2_slope,
            gc.drlm_backward_3_slope) for lam in (1, 2, 3)]
        fns += [fn for continuous in (True, False)
                for fn in random_subadditive_functions(150, 12, continuous)
                + random_subadditive_functions(15, 18, continuous)]
        for grid in (4, 5):
            fns += random_minimal_functions(20, xgrid=grid, ygrid=grid,
                                            proba=F(1, 2))
        fns += random_minimal_functions(4, xgrid=5, ygrid=5, proba=1)
        walked = 0
        for fn in fns:
            keys = [key for key, _ in complex2d._additive_walk(fn)[2]]
            assert len(keys) == len(set(keys))
            walked += len(keys)
        assert walked > 1000


class TestMeritIndex:
    def test_gmic_formula(self, gmic45):
        assert gc.merit_index(gmic45) == F(17, 25)
        assert gc.merit_index(gc.gmic(F(1, 2))) == F(1, 2)

    def test_formula_random_f(self):
        import random

        rng = random.Random(12)
        for _ in range(8):
            f = F(rng.randrange(1, 30), 30)
            assert gc.merit_index(gc.gmic(f)) == 2 * f * f - 2 * f + 1

    def test_against_area_oracle(self, gmic45, gj, hildebrand):
        for fn in (gmic45, gj, hildebrand):
            assert gc.merit_index(fn) == 2 * oracle_additivity_area(fn)

    def test_non_minimal_rejected(self, equiv5):
        with pytest.raises(ConstructionError):
            gc.merit_index(equiv5)


def test_slack_linear_on_face_interior(gj):
    # three collinear points in the relative interior of a 2-face have
    # affinely related slacks
    face = next(f for f in faces_of_complex(gj, dims=(2,)))
    n = len(face.vertices)
    cx = sum((p[0] for p in face.vertices), F(0)) / n
    cy = sum((p[1] for p in face.vertices), F(0)) / n
    v = face.vertices[0]
    p1 = ((cx + v[0]) / 2, (cy + v[1]) / 2)
    p3 = ((3 * cx + v[0]) / 4, (3 * cy + v[1]) / 4)  # midpoint of p1 and c
    d1 = gc.delta_pi(gj, *p1)
    d2 = gc.delta_pi(gj, cx, cy)
    d3 = gc.delta_pi(gj, *p3)
    assert 2 * d3 == d1 + d2
