"""JSON interchange for functions, faces, components and reports.

Rationals travel as "p/q" strings (integers as plain "n").  Piecewise
functions carry breakpoints and [value, right, left] limit triples;
discrete functions carry points and values.  Loading reproduces the stored
representation exactly (no merging), so a dump/load round trip is the
identity.
"""

from __future__ import annotations

import json
from typing import Union

from .complex2d import Face
from .covering import CoveredComponentSet
from .errors import ConstructionError
from .minimality import MinimalityReport
from .pwl import (DiscreteFunction, PiecewiseFunction,
                  discrete_from_points_and_values, from_breakpoints_and_limits)
from .rational import format_rational, parse_rational

FunctionLike = Union[PiecewiseFunction, DiscreteFunction]


def _r(x) -> str:
    return format_rational(x)


def function_to_dict(fn: FunctionLike) -> dict:
    if isinstance(fn, DiscreteFunction):
        return {
            "kind": "discrete",
            "f": _r(fn.f) if fn.f is not None else None,
            "points": [_r(p) for p in fn.points],
            "values": [_r(v) for v in fn.values],
        }
    return {
        "kind": "piecewise",
        "f": _r(fn.f) if fn.f is not None else None,
        "breakpoints": [_r(b) for b in fn.breakpoints],
        "limits": [[_r(v), _r(r), _r(l)] for v, r, l in fn.limits],
    }


# the list fields of each function kind, of equal lengths
_FIELDS = {"piecewise": ("breakpoints", "limits"),
           "discrete": ("points", "values")}


def function_from_dict(data: dict) -> FunctionLike:
    """The function of a document as function_to_dict writes it.  A
    document of the wrong shape (no object, an unknown kind, a missing or
    non-list field, lists of unequal lengths, a limit that is no triple)
    raises ConstructionError, and a bad rational ValueError."""
    if not isinstance(data, dict):
        raise ConstructionError(
            f"a function document is a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    fields = _FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        raise ConstructionError(f"unknown function kind {kind!r}")
    for name in fields:
        if not isinstance(data.get(name), list):
            raise ConstructionError(f"a {kind} function needs a list {name!r}")
    first, second = (data[name] for name in fields)
    f = None if data.get("f") is None else parse_rational(data["f"])
    first = [parse_rational(t) for t in first]
    if kind == "discrete":
        return discrete_from_points_and_values(
            first, [parse_rational(v) for v in second], f=f)
    if not all(isinstance(t, list) and len(t) == 3 for t in second):
        raise ConstructionError(
            "each limit is a [value, right, left] list of three rationals")
    limits = [tuple(parse_rational(v) for v in t) for t in second]
    return from_breakpoints_and_limits(first, limits, f=f, merge=False)


def dumps_function(fn: FunctionLike) -> str:
    return json.dumps(function_to_dict(fn), indent=2) + "\n"


def loads_function(text: str) -> FunctionLike:
    return function_from_dict(json.loads(text))


def load_function(path) -> FunctionLike:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_function(fh.read())


def save_function(fn: FunctionLike, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_function(fn))


def face_to_dict(face: Face) -> dict:
    if face.is_empty:
        return {"empty": True}
    return {
        "p1": [_r(face.proj1[0]), _r(face.proj1[1])],
        "p2": [_r(face.proj2[0]), _r(face.proj2[1])],
        "p3": [_r(face.proj3[0]), _r(face.proj3[1])],
        "vertices": [[_r(x), _r(y)] for x, y in face.vertices],
        "dimension": face.dimension,
        "edge_kind": face.edge_kind,
    }


def components_to_dict(cc: CoveredComponentSet) -> dict:
    return {
        "closed": cc.closed,
        "components": [[[_r(a), _r(b)] for a, b in comp]
                       for comp in cc.components],
        "uncovered": [[_r(a), _r(b)] for a, b in cc.uncovered],
        "moves": [
            {
                "kind": mv.kind,
                "edge": face_to_dict(mv.face),
                "source": [_r(mv.source[0]), _r(mv.source[1])],
                "moved": [_r(mv.moved[0]), _r(mv.moved[1])],
            }
            for mv in cc.edges_used
        ],
    }


def minimality_report_to_dict(rep: MinimalityReport) -> dict:
    return {
        "is_minimal": rep.is_minimal,
        "f": _r(rep.f_used) if rep.f_used is not None else None,
        "violations": [
            {
                "kind": v.kind,
                "x": _r(v.x) if v.x is not None else None,
                "y": _r(v.y) if v.y is not None else None,
                "sides": (list(v.sides) if isinstance(v.sides, tuple)
                          else v.sides),
                "slack": _r(v.slack) if v.slack is not None else None,
                "face": face_to_dict(v.face) if v.face is not None else None,
            }
            for v in rep.violations
        ],
    }


def extremality_report_to_dict(rep) -> dict:
    out = {
        "is_extreme": rep.is_extreme,
        "is_minimal": rep.is_minimal,
        "kernel_dimension": rep.kernel_dimension,
        "notes": list(rep.notes),
        "covered": components_to_dict(rep.covered) if rep.covered is not None else None,
        "system": None,
        "perturbation": None,
        "epsilon": _r(rep.epsilon) if rep.epsilon is not None else None,
        "kernel": [[_r(e) for e in vec] for vec in rep.kernel],
    }
    if rep.system is not None:
        out["system"] = {
            "rows": [[_r(e) for e in row] for row in rep.system.rows],
            "provenance": list(rep.system.provenance),
            "rank_rows": list(rep.rank_rows),
        }
    if rep.perturbation is not None:
        out["perturbation"] = function_to_dict(rep.perturbation)
    return out
