"""Named test and library functions with documented provenance.

Functions whose exact data is classical or reproduced in standard sources
are built by closed-form constructors; each registry entry carries its
literature citation.  Entries marked unsourced are known by name and
citation only: constructing them raises, since this package refuses to
invent their numbers.  The sourced non-classical entries additionally ship
canonical instance data files (see groupcut/data) with checksums; the test
suite verifies the constructors against those files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from inspect import signature
from typing import Callable, Optional

from .errors import ParameterError, UnsourcedEntryError
from .pwl import (PiecewiseFunction, from_breakpoints_and_limits,
                  from_breakpoints_and_values)
from .rational import to_rational


def gmic(f=Fraction(4, 5), conditioncheck: bool = True) -> PiecewiseFunction:
    """Gomory mixed-integer cut function: 2 slopes, breakpoints [0, f, 1],
    values [0, 1, 0].  Extreme for every f in (0, 1).

    >>> h = gmic(Fraction(4, 5))
    >>> h.end_points()
    [Fraction(0, 1), Fraction(4, 5), Fraction(1, 1)]
    >>> h(Fraction(4, 5))
    Fraction(1, 1)
    """
    f = to_rational(f)
    if conditioncheck and not (0 < f < 1):
        raise ParameterError("Bad parameters. Unable to construct the function.")
    return from_breakpoints_and_values([0, f, 1], [0, 1, 0], f=f)


def gomory_fractional(f=Fraction(4, 5)) -> PiecewiseFunction:
    """Gomory fractional cut: pi(x) = frac(x) / f.  Not minimal (its left
    limit at 1 is 1/f > 1)."""
    f = to_rational(f)
    if not (0 < f < 1):
        raise ParameterError("Bad parameters. Unable to construct the function.")
    inv = 1 / f
    return from_breakpoints_and_limits(
        [0, 1], [(0, 0, inv), (0, 0, inv)], f=f)


def equiv5_random_discont_1() -> PiecewiseFunction:
    """A discontinuous function on the 1/5 grid, produced by the seeded
    random generator with symmetry (f = 1/5).  Not subadditive in the
    limit: the slack approached along the horizontal edge into (2/5, 4/5)
    is -2/5, so the function is not minimal."""
    fifth = Fraction(1, 5)
    return from_breakpoints_and_limits(
        [0, fifth, 2 * fifth, 3 * fifth, 4 * fifth, 1],
        [(0, 0, 0),
         (1, 1, 1),
         (Fraction(2, 5), Fraction(2, 5), 0),
         (Fraction(1, 2), Fraction(3, 5), Fraction(2, 5)),
         (Fraction(3, 5), 1, Fraction(3, 5)),
         (0, 0, 0)],
        f=fifth)


def gj_2_slope(f=Fraction(3, 5), lam=Fraction(1, 3),
               conditioncheck: bool = True) -> PiecewiseFunction:
    """Classical 2-slope extreme function: the negative-slope middle
    segment around f/2 has width lam*(1-f) and the values at its endpoints
    are (1 +- lam)/2."""
    f = to_rational(f)
    lam = to_rational(lam)
    if conditioncheck and not (0 < f < 1 and 0 < lam <= 1 and lam * (1 - f) < f):
        raise ParameterError("Bad parameters. Unable to construct the function.")
    a = f / 2 - lam * (1 - f) / 2
    b = f / 2 + lam * (1 - f) / 2
    return from_breakpoints_and_values(
        [0, a, b, f, 1],
        [0, (1 + lam) / 2, (1 - lam) / 2, 1, 0], f=f)


def drlm_backward_3_slope(f=Fraction(1, 12), bkpt=Fraction(4, 12),
                          conditioncheck: bool = True) -> PiecewiseFunction:
    """Backward 3-slope function: rises to 1 at f with slope 1/f, then
    alternates slope -+1/(f+bkpt) with breakpoints at f+bkpt and 1-bkpt.
    Minimal valid on its parameter range; extreme only for small bkpt."""
    f = to_rational(f)
    bkpt = to_rational(bkpt)
    if conditioncheck and not (0 < f < f + bkpt < 1 - bkpt < 1):
        raise ParameterError("Bad parameters. Unable to construct the function.")
    v = f / (f + bkpt)
    return from_breakpoints_and_values(
        [0, f, f + bkpt, 1 - bkpt, 1],
        [0, 1, v, 1 - v, 0], f=f)


def hildebrand_discont_3_slope_1() -> PiecewiseFunction:
    """Discontinuous 3-slope extreme function with f = 1/2: slopes 6, 2, -2
    and four one-sided jumps of size -1/2 (at 1/8-, 3/8+, 1/2+ and 1-).
    The representation keeps the non-kink points 1/4 and 3/4 so that the
    published covered-component intervals are reproduced verbatim."""
    h = Fraction(1, 8)
    q = Fraction(1, 4)
    return from_breakpoints_and_limits(
        [0, h, 2 * h, 3 * h, 4 * h, 5 * h, 6 * h, 7 * h, 1],
        [(0, 0, Fraction(1, 2)),
         (q, q, 3 * q),
         (2 * q, 2 * q, 2 * q),
         (3 * q, q, 3 * q),
         (1, Fraction(1, 2), 1),
         (3 * q, 3 * q, 3 * q),
         (2 * q, 2 * q, 2 * q),
         (q, q, q),
         (0, 0, Fraction(1, 2))],
        f=Fraction(1, 2),
        merge=False)


@dataclass(frozen=True)
class CompendiumEntry:
    """Registry row for a named function."""

    name: str
    summary: str
    parameters: tuple[tuple[str, str], ...]
    citation: str
    sourced: bool
    builder: Optional[Callable] = None
    data_file: Optional[str] = None

    def construct(self, **kwargs):
        if not self.sourced or self.builder is None:
            raise UnsourcedEntryError(
                f"unsourced entry {self.name!r}: data not shipped; see {self.citation}")
        accepted = signature(self.builder).parameters
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            raise ParameterError(
                f"{self.name} takes no parameter {', '.join(unknown)}; "
                f"accepted: {', '.join(accepted) or 'none'}")
        return self.builder(**kwargs)


REGISTRY: dict[str, CompendiumEntry] = {
    "gmic": CompendiumEntry(
        "gmic", "Gomory mixed-integer cut (2 slopes, extreme)",
        (("f", "4/5"),),
        "R.E. Gomory, An algorithm for the mixed integer problem, "
        "RM-2597, RAND Corporation, 1960",
        True, gmic, None),
    "gomory_fractional": CompendiumEntry(
        "gomory_fractional", "Gomory fractional cut (not minimal)",
        (("f", "4/5"),),
        "R.E. Gomory, Outline of an algorithm for integer solutions to linear "
        "programs, Bull. AMS 64 (1958) 275-278",
        True, gomory_fractional, None),
    "equiv5_random_discont_1": CompendiumEntry(
        "equiv5_random_discont_1",
        "random discontinuous function on the 1/5 grid (not minimal)",
        (),
        "seeded random generation on the 1/5 grid, shipped for reproducibility",
        True, equiv5_random_discont_1, "equiv5_random_discont_1.json"),
    "gj_2_slope": CompendiumEntry(
        "gj_2_slope", "classical 2-slope extreme function",
        (("f", "3/5"), ("lam", "1/3")),
        "R.E. Gomory and E.L. Johnson, Some continuous functions related to "
        "corner polyhedra, Math. Programming 3 (1972) 359-389",
        True, gj_2_slope, "gj_2_slope__3_5__1_3.json"),
    "drlm_backward_3_slope": CompendiumEntry(
        "drlm_backward_3_slope", "backward 3-slope function",
        (("f", "1/12"), ("bkpt", "4/12")),
        "S.S. Dey, J.-P.P. Richard, Y. Li, L.A. Miller, On the extreme "
        "inequalities of infinite group problems, Math. Programming 121 (2010) "
        "145-170",
        True, drlm_backward_3_slope, "drlm_backward_3_slope__1_12__4_12.json"),
    "hildebrand_discont_3_slope_1": CompendiumEntry(
        "hildebrand_discont_3_slope_1",
        "discontinuous 3-slope extreme function, f = 1/2",
        (),
        "R. Hildebrand (2013), unpublished; listed in the electronic "
        "compendium of extreme functions",
        True, hildebrand_discont_3_slope_1, "hildebrand_discont_3_slope_1.json"),
    "not_minimal_2": CompendiumEntry(
        "not_minimal_2", "educational non-minimal example",
        (),
        "electronic compendium of extreme functions (data not reproduced here)",
        False),
    "example7slopecoarse2": CompendiumEntry(
        "example7slopecoarse2", "7-slope extreme function found by search",
        (),
        "electronic compendium of extreme functions (data not reproduced here)",
        False),
    "bcdsp_arbitrary_slope": CompendiumEntry(
        "bcdsp_arbitrary_slope", "extreme family with arbitrarily many slopes",
        (("k", "4"),),
        "A. Basu, M. Conforti, M. Di Summa, J. Paat, Extreme functions with "
        "many slopes (IPCO 2016)",
        False),
    "kzh_2q_example_1": CompendiumEntry(
        "kzh_2q_example_1", "oversampling-tightness witness",
        (),
        "M. Koeppe, Y. Zhou, computer-based search for extreme functions "
        "(2015); data not reproduced here",
        False),
}


def sourced_entries() -> list[CompendiumEntry]:
    """All registry rows (sourced and unsourced), stable order."""
    return [REGISTRY[k] for k in sorted(REGISTRY)]


def construct(name: str, **kwargs):
    """Build a compendium function by name; unsourced entries raise."""
    if name not in REGISTRY:
        raise KeyError(f"unknown compendium entry {name!r}")
    return REGISTRY[name].construct(**kwargs)


def data_file_text(filename: str) -> str:
    return (resources.files("groupcut") / "data" / filename).read_text()


def data_file_sha256(filename: str) -> str:
    return hashlib.sha256(data_file_text(filename).encode()).hexdigest()


def provenance(filename: str) -> dict:
    """Provenance sidecar (citation, checksum, note) of a data file."""
    return json.loads(data_file_text(filename + ".provenance"))
