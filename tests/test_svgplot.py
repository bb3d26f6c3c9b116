import hashlib
from fractions import Fraction as F

import pytest

import groupcut as gc
from groupcut.svgplot import (DiagramSpec, covered_steps_frames,
                              plot_2d_diagram, plot_2d_diagram_with_cones,
                              plot_function, plot_perturbation, ROLE_COLORS)

RED = ROLE_COLORS["violated"]
GREEN = ROLE_COLORS["additive"]


class TestPlotFunction:
    def test_deterministic_bytes(self, gmic45, equiv5):
        for fn in (gmic45, equiv5):
            assert plot_function(fn) == plot_function(fn)

    def test_gmic_two_colored_segments(self, gmic45):
        doc = plot_function(gmic45)
        assert doc.count("<line") >= 4  # two axes + two pieces
        assert doc.startswith('<?xml version="1.0"')
        assert doc.rstrip().endswith("</svg>")

    def test_discontinuity_markers(self, equiv5):
        doc = plot_function(equiv5)
        # open circles (white fill) at one-sided limits, filled at values
        assert doc.count('fill="white"') >= 4
        assert 'fill="#222222"' in doc

    def test_zero_function_single_segment(self, zero_fn):
        doc = plot_function(zero_fn)
        assert doc.count('stroke-width="2.0000"') == 1


class TestConesDiagram:
    def test_gmic_has_no_red(self, gmic45):
        assert RED not in plot_2d_diagram_with_cones(gmic45)

    def test_equiv5_shows_violations(self, equiv5):
        doc = plot_2d_diagram_with_cones(equiv5)
        assert RED in doc and GREEN in doc

    def test_red_elements_match_report(self, equiv5):
        from groupcut.complex2d import scan_vertex_slacks

        doc = plot_2d_diagram_with_cones(equiv5)
        _, neg, _, _ = scan_vertex_slacks(equiv5, upper_triangle=False)
        # one red primitive per negative (vertex, cone) entry
        assert doc.count(RED) == len(neg)
        rep = gc.minimality_test(equiv5)
        mirrored = set()
        for v in rep.violations:
            if v.kind != "subadditivity":
                continue
            x, y, (sx, sy, ss) = v.x, v.y, v.sides
            mirrored.add((x, y, sx, sy, ss))
            mirrored.add((y, x, sy, sx, ss))
        assert mirrored == {(p[0], p[1], s[0], s[1], s[2]) for p, s, _ in neg}

    def test_deterministic(self, equiv5):
        assert plot_2d_diagram_with_cones(equiv5) == \
            plot_2d_diagram_with_cones(equiv5)


class TestAdditiveDiagram:
    def test_gmic_faces_and_shadows(self, gmic45):
        doc = plot_2d_diagram(gmic45)
        assert doc.count("<polygon") >= 2  # the two triangles
        assert ROLE_COLORS["shadow"] in doc

    def test_zero_function_fully_shaded(self, zero_fn):
        doc = plot_2d_diagram(zero_fn)
        assert doc.count("<polygon") >= 2

    def test_hildebrand_edges_drawn_green(self, hildebrand):
        doc = plot_2d_diagram(hildebrand)
        assert f'stroke="{GREEN}"' in doc or GREEN in doc

    def test_nonsubadditive_rejected(self, equiv5):
        import pytest

        from groupcut.errors import NotSubadditiveError

        with pytest.raises(NotSubadditiveError):
            plot_2d_diagram(equiv5)


class TestCoveredFrames:
    def test_hildebrand_step_count(self, hildebrand):
        frames = covered_steps_frames(hildebrand)
        # phase-one frame plus one per recorded edge move
        cc = gc.generate_covered_components(hildebrand)
        assert len(frames) == 1 + len(cc.edges_used)
        assert all(f.rstrip().endswith("</svg>") for f in frames)

    def test_deterministic(self, hildebrand):
        assert covered_steps_frames(hildebrand) == covered_steps_frames(hildebrand)


class TestPerturbationPlot:
    def test_curves_present(self):
        fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
        rep = gc.extremality_test(fn)
        doc = plot_perturbation(fn, rep.perturbation, rep.epsilon)
        assert '#000000' in doc and '#cc00cc' in doc
        assert doc == plot_perturbation(fn, rep.perturbation, rep.epsilon)


def _perturbation_227():
    fn = gc.random_piecewise_function(4, 4, F(1, 2), True, seed=227)
    rep = gc.extremality_test(fn)
    return plot_perturbation(fn, rep.perturbation, rep.epsilon)


class TestPinnedDiagrams:
    # sha256 of six diagrams at the default size; the first four were
    # first drawn from the convex hull of each 2-face's vertices and a
    # written-out table of the twelve cones' rays: an independent
    # reference for the boundary and the rays that the key and the sides
    # now give
    PINNED = {
        "cones_hildebrand": "4cd416bb6e17e7ef67944c5ca64413052fc806c856b6a7fa092c70380bd2a5bf",
        "additive_gj_2_slope": "994b2c74ba2058a9a4e0008af92a43b5fa9ba3afe18226e10d2d7f1007adc6c9",
        "additive_hildebrand": "e4e81ff7eacdacfb01dbc9e4b962330902797e196bb6dc05875ed4d970af5bfa",
        "last_covered_frame_hildebrand": "f94beca0b2e5234750bea6c9b5f8b1a1b0f3f7a0204fb78626f954e467ef7cd1",
        # the two line plots, which share one graph frame: Fraction value
        # bounds in the first, float ones in the second
        "function_hildebrand": "ab01d815967a7aea6722e0643841a1e3b6c971d21c94ac6bad7322dfe9b9b30b",
        "perturbation_random_227": "fe3102b411ca98c6d0141dedb80c0938736848fb6a677429f5a8c94ecade2dae",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_bytes(self, name, gj, hildebrand):
        draw = {
            "cones_hildebrand": lambda: plot_2d_diagram_with_cones(hildebrand),
            "additive_gj_2_slope": lambda: plot_2d_diagram(gj),
            "additive_hildebrand": lambda: plot_2d_diagram(hildebrand),
            "last_covered_frame_hildebrand":
                lambda: covered_steps_frames(hildebrand)[-1],
            "function_hildebrand": lambda: plot_function(hildebrand),
            "perturbation_random_227": _perturbation_227,
        }[name]
        assert hashlib.sha256(draw().encode()).hexdigest() == self.PINNED[name]


class TestDiagramSpec:
    def test_size_below_one_refused(self):
        for size in (0, -5):
            with pytest.raises(gc.ParameterError):
                DiagramSpec(size=size)
        assert DiagramSpec(size=1).size == 1
