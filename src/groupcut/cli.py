"""Command-line interface.

Inputs are compendium names (with --param name=p/q constructor arguments)
or paths to JSON function files.  Rationals on the command line are p/q
strings; decimals are rejected.  Verdict verbs exit 0 on the positive
verdict, 1 on the negative one and 2 on errors (bad input, an unreadable
or unwritable file); every verb exits 3 on a fault (a bug) and 141, with
no traceback, when its output pipe is closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import __version__
from .compendium import REGISTRY, construct
from .complex2d import (delta_pi, generate_additive_faces,
                        generate_maximal_additive_faces, merit_index)
from .covering import format_intervals, generate_covered_components
from .errors import GroupCutError, InternalConsistencyError
from .extremality import extremality_test
from .jsonio import (components_to_dict, dumps_function,
                     extremality_report_to_dict, face_to_dict, load_function,
                     minimality_report_to_dict)
from .minimality import minimality_test
from .pwl import (DiscreteFunction, PiecewiseFunction,
                  random_piecewise_function)
from .rational import parse_rational
from .svgplot import (DiagramSpec, covered_final_frame, covered_steps_frames,
                      plot_2d_diagram, plot_2d_diagram_with_cones,
                      plot_function, plot_perturbation)
from .transforms import (automorphism, interpolate_to_infinite_group,
                         multiplicative_homomorphism, restrict_to_finite_group)


def _load(args, kind=None):
    """Input resolution: an existing path or *.json is a function file,
    anything else a compendium name with --param arguments (p/q, an
    integer, true or false; each name once).  --param and --f are refused
    on a function file, and --f next to --param f=.  With kind
    (PiecewiseFunction or DiscreteFunction), a function of the other kind
    is refused, from either source."""
    name, f = args.input, getattr(args, "f", None)
    if name.endswith(".json") or os.path.exists(name):
        if args.param or f:
            raise GroupCutError("--param and --f are for compendium names")
        fn = load_function(name)
    else:
        params = {}
        for item in args.param or []:
            key, _, raw = item.partition("=")
            if not raw:
                raise GroupCutError(f"--param needs name=p/q, got {item!r}")
            if key in params:
                raise GroupCutError(f"--param {key}= is given twice")
            params[key] = (raw == "true" if raw in ("true", "false")
                           else parse_rational(raw))
        if f:
            if "f" in params:
                raise GroupCutError("f is given both as --f and as --param f=")
            params["f"] = parse_rational(f)
        fn = construct(name, **params)
    if kind is not None and not isinstance(fn, kind):
        what = "piecewise" if kind is PiecewiseFunction else "discrete"
        raise GroupCutError(f"{args.verb} expects a {what} function")
    return fn


# the line that each failed check prints, in print order
_FAILURES = (
    ("range", "pi is not minimal because it does not stay in the range of "
              "[0, 1]."),
    ("subadditivity", "pi is not subadditive."),
    ("symmetry", "pi is not symmetric."),
)


def _minimality_lines(rep) -> list[str]:
    kinds = {v.kind for v in rep.violations}
    lines = ["pi(0) != 0" if "value-at-0" in kinds else "pi(0) = 0"]
    if rep.is_minimal:
        return lines + ["pi is subadditive.", "pi is symmetric.",
                        "Thus pi is minimal."]
    return lines + [line for kind, line in _FAILURES if kind in kinds] + [
        "Thus pi is NOT minimal."]


def cmd_list(args) -> int:
    for name in sorted(REGISTRY):
        e = REGISTRY[name]
        status = "sourced" if e.sourced else "UNSOURCED"
        params = ", ".join(f"{k}={v}" for k, v in e.parameters)
        print(f"{name:30s} [{status}] ({params})")
        print(f"{'':30s}   {e.summary}")
        print(f"{'':30s}   {e.citation}")
    return 0


def cmd_show(args) -> int:
    fn = _load(args)
    if args.json:
        print(dumps_function(fn), end="")
        return 0
    if isinstance(fn, DiscreteFunction):
        print(f"discrete function on (1/{fn.q})Z, f = {fn.f}")
        print("points:", ", ".join(str(p) for p in fn.points))
        print("values:", ", ".join(str(v) for v in fn.values))
        return 0
    print(f"piecewise function, f = {fn.f}, "
          f"{'continuous' if fn.is_continuous else 'discontinuous'}")
    print("breakpoints:", ", ".join(str(b) for b in fn.breakpoints))
    print("limits:     ", ", ".join(f"({v}, {r}, {l})" for v, r, l in fn.limits))
    print("slopes:     ", ", ".join(str(s) for s in fn.interval_slopes()))
    return 0


def cmd_eval(args) -> int:
    fn = _load(args)
    x = parse_rational(args.x)
    print(fn(x))
    return 0


def cmd_delta(args) -> int:
    fn = _load(args)
    print(delta_pi(fn, parse_rational(args.x), parse_rational(args.y)))
    return 0


def cmd_minimality(args) -> int:
    fn = _load(args)
    rep = minimality_test(fn, collect_all=not args.fail_fast)
    if args.json:
        print(json.dumps(minimality_report_to_dict(rep), indent=2))
    else:
        for line in _minimality_lines(rep):
            print(line)
        for v in rep.violations:
            print("  violation:", v.describe())
    return 0 if rep.is_minimal else 1


def cmd_extremality(args) -> int:
    fn = _load(args)
    rep = extremality_test(fn)
    if args.json:
        print(json.dumps(extremality_report_to_dict(rep), indent=2))
        return 0 if rep.is_extreme else 1
    for line in _minimality_lines(rep.minimality):
        print(line)
    if rep.is_minimal and rep.covered is not None:
        if rep.covered.is_fully_covered:
            print(f"All intervals are covered (or connected-to-covered). "
                  f"{len(rep.covered.components)} components.")
        else:
            print(f"Uncovered intervals: "
                  f"[{format_intervals(rep.covered.uncovered)}]")
    if rep.kernel_dimension is not None:
        print(f"Finite dimensional test: Solution space has dimension "
              f"{rep.kernel_dimension}")
    if rep.is_extreme:
        print("Thus the function is extreme.")
    else:
        print("Thus the function is NOT extreme.")
    return 0 if rep.is_extreme else 1


def cmd_covered(args) -> int:
    fn = _load(args, PiecewiseFunction)
    cc = generate_covered_components(fn)
    if args.json:
        print(json.dumps(components_to_dict(cc), indent=2))
    else:
        for i, comp in enumerate(cc.components):
            ivs = " u ".join(f"[{a}, {b}]" if cc.closed else f"({a}, {b})"
                             for a, b in comp)
            print(f"component {i + 1}: {ivs}")
        if cc.uncovered:
            print(f"uncovered: {format_intervals(cc.uncovered)}")
        else:
            print("all intervals are covered")
    if args.frames:
        frames = covered_steps_frames(fn)
        outdir = Path(args.frames)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(frames):
            (outdir / f"step_{i:03d}.svg").write_text(doc, encoding="utf-8")
        print(f"wrote {len(frames)} frames to {outdir}")
    return 0


def cmd_faces(args) -> int:
    fn = _load(args, PiecewiseFunction)
    faces = (generate_maximal_additive_faces(fn) if args.maximal
             else generate_additive_faces(fn))
    if args.json:
        print(json.dumps([face_to_dict(f) for f in faces.faces], indent=2))
    else:
        for f, m in zip(faces.faces, faces.maximal):
            tag = " (maximal)" if m and not args.maximal else ""
            print(f"{f}{tag}")
    return 0


def cmd_merit(args) -> int:
    fn = _load(args, PiecewiseFunction)
    print(merit_index(fn))
    return 0


def cmd_restrict(args) -> int:
    fn = _load(args, PiecewiseFunction)
    dfn = restrict_to_finite_group(
        fn, oversampling=args.oversampling, order=args.order)
    print(dumps_function(dfn), end="")
    return 0


def cmd_interpolate(args) -> int:
    fn = _load(args, DiscreteFunction)
    print(dumps_function(interpolate_to_infinite_group(fn)), end="")
    return 0


def cmd_transform(args) -> int:
    fn = _load(args, PiecewiseFunction if args.homomorphism is not None else None)
    if args.homomorphism is not None:
        out = multiplicative_homomorphism(fn, args.homomorphism)
    else:
        out = automorphism(fn, args.automorphism)
    print(dumps_function(out), end="")
    return 0


def cmd_random(args) -> int:
    fn = random_piecewise_function(
        xgrid=args.xgrid, ygrid=args.ygrid,
        continuous_proba=parse_rational(args.continuous_proba),
        symmetry=args.symmetry, seed=args.seed)
    print(dumps_function(fn), end="")
    return 0


def _plot_perturbation(fn, spec) -> str:
    rep = extremality_test(fn)
    if rep.perturbation is None:
        raise GroupCutError("no perturbation available for this function")
    return plot_perturbation(fn, rep.perturbation, rep.epsilon, spec=spec)


# each --kind and its diagram, in the order that --help lists them
_PLOTS = {
    "function": plot_function,
    "cones": plot_2d_diagram_with_cones,
    "additive": plot_2d_diagram,
    "covered": covered_final_frame,
    "perturbation": _plot_perturbation,
}


def cmd_plot(args) -> int:
    fn = _load(args)
    if isinstance(fn, DiscreteFunction):
        fn = interpolate_to_infinite_group(fn)
    doc = _PLOTS[args.kind](fn, DiagramSpec(size=args.size))
    out = Path(args.out or Path(os.environ.get("GROUPCUT_OUT_DIR", "."))
               / f"{args.input.replace('/', '_')}_{args.kind}.svg")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(doc, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _verb(sub, name, run, help, input=True, json=False, with_f=True):
    """The subparser of one verb, which main runs as run(args): with input,
    the input arguments (input, --param and, with_f, --f), then --json
    when asked; the caller adds the verb's own arguments after these."""
    p = sub.add_parser(name, help=help)
    if input:
        p.add_argument("input", help="compendium name or JSON function file")
        p.add_argument("--param", action="append",
                       help="constructor parameter name=p/q (repeatable)")
        if with_f:
            p.add_argument("--f", help="f parameter as p/q")
    if json:
        p.add_argument("--json", action="store_true")
    p.set_defaults(run=run)
    return p


@cache  # the tree of every verb, built once per process
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="groupcut",
        description="Exact minimality/extremality tools for cut-generating "
                    "functions of the 1-row group relaxation")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="verb", required=True)

    _verb(sub, "list", cmd_list, "show the compendium registry", input=False)
    _verb(sub, "show", cmd_show, "print a function's data", json=True)

    p = _verb(sub, "eval", cmd_eval, "evaluate a function")
    p.add_argument("--x", required=True)

    p = _verb(sub, "delta", cmd_delta, "subadditivity slack at (x, y)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = _verb(sub, "minimality", cmd_minimality, "minimality test", json=True)
    p.add_argument("--fail-fast", action="store_true",
                   help="stop at the first violation")

    _verb(sub, "extremality", cmd_extremality, "extremality test", json=True)

    p = _verb(sub, "covered", cmd_covered, "connected covered components",
              json=True)
    p.add_argument("--frames", help="directory for per-step SVG frames")

    p = _verb(sub, "faces", cmd_faces, "additive faces", json=True)
    p.add_argument("--maximal", action="store_true")

    _verb(sub, "merit", cmd_merit, "merit index")

    p = _verb(sub, "restrict", cmd_restrict, "restrict to the finite group")
    p.add_argument("--order", type=int)
    p.add_argument("--oversampling", type=int)

    _verb(sub, "interpolate", cmd_interpolate,
          "interpolate a discrete function", with_f=False)

    p = _verb(sub, "transform", cmd_transform, "group transformations")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--homomorphism", type=int, metavar="LAM")
    g.add_argument("--automorphism", type=int, nargs="?", const=-1, metavar="LAM")

    p = _verb(sub, "random", cmd_random, "seeded random function", input=False)
    p.add_argument("--xgrid", type=int, default=5)
    p.add_argument("--ygrid", type=int, default=5)
    p.add_argument("--continuous-proba", default="1/3")
    p.add_argument("--symmetry", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--seed", type=int, default=0)

    p = _verb(sub, "plot", cmd_plot, "write SVG diagrams")
    p.add_argument("--kind", default="function", choices=list(_PLOTS))
    p.add_argument("--size", type=int, default=600)
    p.add_argument("--out")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
    except BrokenPipeError:  # an OSError, so it comes first
        # the reader stopped early (groupcut ... | head): exit as SIGPIPE
        # would, and keep the exit-time flush off the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        if (isinstance(exc, (GroupCutError, KeyError, ValueError, OSError))
                and not isinstance(exc, InternalConsistencyError)):
            # str() of a KeyError quotes its message
            msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {msg}", file=sys.stderr)
            return 2
        # a fault, never a verdict: 0 and 1 are those
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
