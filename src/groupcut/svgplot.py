"""Deterministic SVG diagrams.

Function graphs with one color per slope value and open/closed markers at
discontinuities; the two-dimensional diagram of the additivity complex with
colored slack cones at the vertices (green = zero, red = negative); the
additive-faces diagram with gray projection shadows; step frames of the
covered-component computation; and perturbation plots.  The two line
plots share one graph frame (_graph).

Conventions: the x-axis runs along the top border, the y-axis down the left
border, and the (x+y)-axis is a ruler along the bottom border (values in
[0, 1]) continuing down the right border (values in [1, 2]).  Output is
plain SVG 1.1 text, byte-for-byte reproducible for equal input.

A 2-face is drawn along its boundary, which complex2d derives from its
key, and an edge or a vertex from its sorted vertices.  A limit cone's rays
come from its sides and from the face walk's table of the sectors beside
each ray (complex2d._BESIDE).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ._scan import SIDE_TRIPLES
from .complex2d import (_BESIDE, _boundary, generate_maximal_additive_faces,
                        vertex_slacks)
from .covering import directly_covered_components, generate_covered_components
from .errors import ParameterError
from .pwl import PiecewiseFunction

ROLE_COLORS = {
    "function": "#1f5fbf",
    "additive": "#2ca02c",
    "violated": "#d62728",
    "shadow": "#b0b0b0",
    "grid": "#888888",
    "highlight": "#ff9900",
}

SLOPE_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

COMPONENT_PALETTE = (
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e",
    "#17becf", "#8c564b", "#e377c2",
)


@dataclass(frozen=True)
class DiagramSpec:
    """Rendering parameters shared by the diagram builders; size >= 1."""

    size: int = 600

    def __post_init__(self):
        if self.size < 1:
            raise ParameterError(f"diagram size must be at least 1, got {self.size}")


def _fmt(x) -> str:
    return f"{float(x):.4f}"


class _Doc:
    def __init__(self, width, height):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(width)}" height="{_fmt(height)}" '
            f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
        ]

    def add(self, element: str):
        self.parts.append(element + "\n")

    def line(self, x1, y1, x2, y2, color, width=1.0):
        self.add(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                 f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{_fmt(width)}"/>')

    def circle(self, cx, cy, r, color, fill=True):
        style = (f'fill="{color}"' if fill
                 else f'fill="white" stroke="{color}" stroke-width="1.2"')
        self.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" {style}/>')

    def polygon(self, pts, color, opacity=1.0, stroke=None):
        d = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        s = f' stroke="{stroke}" stroke-width="0.8"' if stroke else ""
        self.add(f'<polygon points="{d}" fill="{color}" '
                 f'fill-opacity="{_fmt(opacity)}"{s}/>')

    def rect(self, x, y, w, h, color, opacity=1.0):
        self.add(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                 f'height="{_fmt(h)}" fill="{color}" fill-opacity="{_fmt(opacity)}"/>')

    def finish(self) -> str:
        return "".join(self.parts) + "</svg>\n"


def _graph_segments(fn: PiecewiseFunction):
    """Per-piece segments ((x1, v1), (x2, v2), slope)."""
    bk, lm = fn.breakpoints, fn.limits
    return [((bk[i], lm[i][1]), (bk[i + 1], lm[i + 1][2]), slope)
            for i, slope in enumerate(fn.interval_slopes())]


def _graph(S, vmin, vmax):
    """The S x S frame of a graph over [0, 1] with values in [vmin, vmax]:
    (doc, X, Y), the background and the x-axis drawn, X and Y the canvas
    coordinates of an abscissa and of a value.  Y reads float(v - vmin),
    exact for Fraction bounds and float(v) - vmin for float ones."""
    pad = S * 0.08

    def X(x):
        return pad + float(x) * (S - 2 * pad)

    def Y(v):
        return S - pad - float(v - vmin) / float(vmax - vmin) * (S - 2 * pad)

    doc = _Doc(S, S)
    doc.rect(0, 0, S, S, "#ffffff")
    doc.line(X(0), Y(0), X(1), Y(0), "#cccccc")
    return doc, X, Y


def plot_function(fn: PiecewiseFunction,
                  spec: Optional[DiagramSpec] = None) -> str:
    """Graph over [0, 1] with a color per slope value and open/closed
    endpoint markers at discontinuities."""
    spec = spec or DiagramSpec()
    vs = [v for t in fn.limits for v in t]
    vmin, vmax = min(min(vs), 0), max(max(vs), 1)
    doc, X, Y = _graph(spec.size, vmin, vmax)
    doc.line(X(0), Y(vmax), X(0), Y(vmin), "#cccccc")
    colors = {s: SLOPE_PALETTE[i % len(SLOPE_PALETTE)]
              for i, s in enumerate(sorted(set(fn.interval_slopes())))}
    for (x1, v1), (x2, v2), slope in _graph_segments(fn):
        doc.line(X(x1), Y(v1), X(x2), Y(v2), colors[slope], width=2.0)
    r = max(2.5, spec.size * 0.006)
    for x, (v, right, left) in zip(fn.breakpoints, fn.limits):
        if left != v:
            doc.circle(X(x), Y(left), r, "#555555", fill=False)
        if right != v:
            doc.circle(X(x), Y(right), r, "#555555", fill=False)
        if left != v or right != v:
            doc.circle(X(x), Y(v), r, "#222222", fill=True)
    return doc.finish()


def _cone_rays(sides) -> tuple:
    """The directions (dx, dy) of a limit cone's rays, each with its length:
    a ray (a cone with a zero side) points along (sx, sy); a sector spans
    the two rays beside it, the second a left turn from the first."""
    if sides in _BESIDE:
        rays = (sides[:2],)
    else:
        a, b = (r[:2] for r, beside in _BESIDE.items() if sides in beside)
        rays = (a, b) if a[0] * b[1] > a[1] * b[0] else (b, a)
    return tuple((dx, dy, (dx * dx + dy * dy) ** 0.5) for dx, dy in rays)


_CONE_RAYS = {s: _cone_rays(s) for s in SIDE_TRIPLES if any(s)}


class _Square:
    """Unit square with border strips for the three axes and the function,
    drawn with the grid lines of fn's breakpoints."""

    def __init__(self, fn, spec):
        self.fn = fn
        self.M = spec.size * 0.16
        self.S = spec.size
        self.doc = doc = _Doc(spec.size + self.M, spec.size + self.M)
        doc.rect(0, 0, spec.size + self.M, spec.size + self.M, "#ffffff")
        for b in fn.breakpoints:
            doc.line(self.at(b), self.at(0), self.at(b), self.at(1),
                     ROLE_COLORS["grid"], 0.6)
            doc.line(self.at(0), self.at(b), self.at(1), self.at(b),
                     ROLE_COLORS["grid"], 0.6)
        diagonals = sorted({b for b in fn.breakpoints}
                           | {b + 1 for b in fn.breakpoints[1:]})
        for c in diagonals:
            lo = max(0, float(c) - 1)
            hi = min(1, float(c))
            doc.line(self.at(lo), self.at(float(c) - lo),
                     self.at(hi), self.at(float(c) - hi),
                     ROLE_COLORS["grid"], 0.6)

    def at(self, t):
        """The canvas coordinate of t in [0, 1] on either axis."""
        return self.M + float(t) * (self.S - self.M)

    def shade(self, face, opacity, stroke=None):
        """A 2-face filled green, drawn along its boundary."""
        self.doc.polygon([(self.at(x), self.at(y))
                          for x, y in _boundary(face.key())],
                         ROLE_COLORS["additive"], opacity, stroke)

    def draw_border_functions(self):
        fn, doc = self.fn, self.doc
        vs = [v for t in fn.limits for v in t]
        vmax = float(max(max(vs), 1))
        band = self.M * 0.75

        def strip(v):  # the value v's distance from the canvas edge
            return self.M * 0.9 - (float(v) / vmax) * band * 0.9

        for (x1, v1), (x2, v2), _ in _graph_segments(fn):
            doc.line(self.at(x1), strip(v1), self.at(x2), strip(v2),
                     ROLE_COLORS["function"], 1.2)
            doc.line(strip(v1), self.at(x1), strip(v2), self.at(x2),
                     ROLE_COLORS["function"], 1.2)

    def sum_ruler_rect(self, lo, hi, color, opacity):
        """Shadow on the (x+y)-ruler: bottom border for [0,1], right for [1,2]."""
        doc = self.doc
        thick = self.M * 0.25
        a, b = float(lo), float(hi)
        if b <= 1:
            doc.rect(self.at(a), self.at(1) + thick * 0.2,
                     self.at(b) - self.at(a), thick, color, opacity)
        else:
            doc.rect(self.at(1) + thick * 0.2, self.at(a - 1),
                     thick, self.at(b - 1) - self.at(a - 1), color, opacity)


def plot_2d_diagram_with_cones(fn: PiecewiseFunction,
                               spec: Optional[DiagramSpec] = None) -> str:
    """Complex diagram with the slack sign at every vertex: green dots or
    cones where the (limit) slack is zero, red where it is negative."""
    spec = spec or DiagramSpec()
    sq = _Square(fn, spec)
    sq.draw_border_functions()
    rec = vertex_slacks(fn)
    radius = (sq.S - sq.M) * 0.035
    dot = max(2.2, spec.size * 0.005)

    for entries, color in ((rec.tight, ROLE_COLORS["additive"]),
                           (rec.neg, ROLE_COLORS["violated"])):
        # both halves of the square, sorted as integers: in point order
        cones = [e[:3] for e in entries] + [
            (y, x, (s[1], s[0], s[2])) for x, y, s, *_ in entries if x < y]
        for x, y, sides in sorted(cones):
            px, py = sq.at(x / rec.D), sq.at(y / rec.D)
            rays = _CONE_RAYS.get(sides)
            if rays is None:  # the value, a dot
                sq.doc.circle(px, py, dot, color)
            elif len(rays) == 1:
                dx, dy, n = rays[0]
                sq.doc.line(px, py, px + radius * dx / n, py + radius * dy / n,
                            color, 2.0)
            else:
                sq.doc.polygon([(px, py)] + [
                    (px + radius * dx / n, py + radius * dy / n)
                    for dx, dy, n in rays], color, opacity=0.65)
    return sq.doc.finish()


def plot_2d_diagram(fn: PiecewiseFunction,
                    spec: Optional[DiagramSpec] = None) -> str:
    """Maximal additive faces shaded green; the projections of the
    two-dimensional ones drawn as gray shadows on the three axes."""
    spec = spec or DiagramSpec()
    sq = _Square(fn, spec)
    sq.draw_border_functions()
    additive = generate_maximal_additive_faces(fn)
    shadow = ROLE_COLORS["shadow"]
    for face in additive.maximal_faces():
        if face.dimension == 2:
            sq.doc.rect(sq.at(face.proj1[0]), sq.M * 0.2,
                        sq.at(face.proj1[1]) - sq.at(face.proj1[0]),
                        sq.M * 0.2, shadow, 0.8)
            sq.doc.rect(sq.M * 0.2, sq.at(face.proj2[0]),
                        sq.M * 0.2,
                        sq.at(face.proj2[1]) - sq.at(face.proj2[0]), shadow, 0.8)
            sq.sum_ruler_rect(face.proj3[0], face.proj3[1], shadow, 0.8)
    green = ROLE_COLORS["additive"]
    for face in additive.maximal_faces():
        if face.dimension == 2:
            sq.shade(face, 0.45, stroke=green)
        elif face.dimension == 1:
            (x1, y1), (x2, y2) = face.vertices
            sq.doc.line(sq.at(x1), sq.at(y1), sq.at(x2), sq.at(y2), green, 2.4)
        else:
            (x, y), = face.vertices
            sq.doc.circle(sq.at(x), sq.at(y), max(2.2, spec.size * 0.005), green)
    return sq.doc.finish()


def covered_steps_frames(fn: PiecewiseFunction,
                         spec: Optional[DiagramSpec] = None) -> list[str]:
    """One frame per propagation step: the additive-face diagram, the
    phase-one intervals and the images moved so far as bars on the x-axis
    strip, colored by final component, and the edge used in the step
    highlighted."""
    spec = spec or DiagramSpec()
    additive = generate_maximal_additive_faces(fn)
    final = generate_covered_components(fn)
    covered = directly_covered_components(fn, additive).all_intervals()

    def frame(active_edge, moved):
        sq = _Square(fn, spec)
        for face in additive.faces:
            if face.dimension == 2:
                sq.shade(face, 0.25)
        for lo, hi in covered:  # a bar colored by its final component
            ci = final.component_of((lo + hi) / 2)
            sq.doc.rect(sq.at(lo), sq.M * 0.55, sq.at(hi) - sq.at(lo),
                        sq.M * 0.25,
                        COMPONENT_PALETTE[ci % len(COMPONENT_PALETTE)], 0.9)
        if active_edge is not None:
            (x1, y1), (x2, y2) = active_edge.vertices
            sq.doc.line(sq.at(x1), sq.at(y1), sq.at(x2), sq.at(y2),
                        ROLE_COLORS["highlight"], 3.0)
        if moved is not None:
            sq.doc.rect(sq.at(moved[0]), sq.M * 0.2,
                        sq.at(moved[1]) - sq.at(moved[0]), sq.M * 0.25,
                        ROLE_COLORS["highlight"], 0.9)
        return sq.doc.finish()

    frames = [frame(None, None)]
    for mv in final.edges_used:
        covered.append(mv.moved)
        frames.append(frame(mv.face, mv.moved))
    return frames


def plot_perturbation(fn: PiecewiseFunction, pert: PiecewiseFunction,
                      eps: Fraction, spec: Optional[DiagramSpec] = None) -> str:
    """The function (black), the two perturbed functions (blue and red) and
    the scaled perturbation itself (magenta)."""
    from .pwl import linear_combination

    spec = spec or DiagramSpec()
    plus = linear_combination(1, fn, eps, pert, f=fn.f)
    minus = linear_combination(1, fn, -eps, pert, f=fn.f)
    scaled = linear_combination(eps, pert, 0, pert, f=None)
    curves = [(fn, "#000000", 2.2), (plus, ROLE_COLORS["function"], 1.4),
              (minus, ROLE_COLORS["violated"], 1.4), (scaled, "#cc00cc", 1.4)]
    vs = [float(v) for g, _, _ in curves for t in g.limits for v in t]
    doc, X, Y = _graph(spec.size, min(vs + [0.0]), max(vs + [1.0]))
    for g, color, w in curves:
        for (x1, v1), (x2, v2), _ in _graph_segments(g):
            doc.line(X(x1), Y(v1), X(x2), Y(v2), color, w)
    return doc.finish()
