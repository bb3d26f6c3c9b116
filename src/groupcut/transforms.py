"""Transformations between group problems.

multiplicative_homomorphism composes a function with x -> lam*x for a
nonzero integer lam; automorphism restricts lam to actual automorphisms of
the underlying group (+-1 for the circle, units mod q for the cyclic
group).  restrict_to_finite_group samples a function on (1/q)Z and
interpolate_to_infinite_group goes back by piecewise linear interpolation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import ConstructionError, ParameterError
from .minimality import find_f
from .pwl import (DiscreteFunction, PiecewiseFunction,
                  discrete_from_points_and_values, from_breakpoints_and_limits,
                  from_breakpoints_and_values)
from .rational import common_denominator, to_rational


def _integer(name: str, value) -> int:
    """value, refused unless it is an int: a bool, a float or a Fraction
    is refused even when it equals an integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return value


def multiplicative_homomorphism(fn: PiecewiseFunction, lam: int) -> PiecewiseFunction:
    """The function x -> fn(lam * x) for a nonzero integer lam.

    Breakpoints are the preimages c of the original breakpoints b under
    multiplication by lam (reduced to [0, 1]); lam * c = b (mod 1), so c
    takes b's limit triple, with the one-sided limits swapped when lam is
    negative.  f maps to the smallest representative r in (0, 1) with
    lam * r = f (mod 1) when fn(f) = 1; each such r has fn(lam * r) = fn(f).
    """
    if _integer("lam", lam) == 0:
        raise ParameterError("lam must be a nonzero integer")
    ts = range(min(0, lam), max(0, lam) + 1)
    at = {}
    for b, (v, r, l) in zip(fn.breakpoints, fn.limits):
        triple = (v, r, l) if lam > 0 else (v, l, r)
        for t in ts:
            c = (b + t) / lam
            if 0 <= c <= 1:
                at[c] = triple
    pts = sorted(at)
    new_f = None
    if fn.f is not None and fn(fn.f) == 1:
        new_f = min(r for r in ((fn.f + t) / lam for t in ts) if 0 < r < 1)
    return from_breakpoints_and_limits(pts, [at[c] for c in pts], f=new_f)


def automorphism(fn: Union[PiecewiseFunction, DiscreteFunction],
                 lam: int = -1):
    """Compose with an automorphism x -> lam*x of the underlying group.

    For the infinite model only lam = +-1 are automorphisms and anything
    else is an error; for the cyclic group of order q any lam coprime
    with q works.
    """
    _integer("lam", lam)
    if isinstance(fn, DiscreteFunction):
        if gcd(lam, fn.q) != 1:
            raise ParameterError(
                f"lam must be an integer coprime with the group order {fn.q}")
        q, lam = fn.q, lam % fn.q
        if fn.f is not None and (fn.f * q).denominator != 1:
            raise ConstructionError(f"f = {fn.f} is not a point of (1/{q})Z")
        values = tuple(fn.values[(lam * i) % q] for i in range(q)) + (fn.values[0],)
        new_f = None if fn.f is None else Fraction(
            pow(lam, -1, q) * int(fn.f * q) % q, q)
        return DiscreteFunction(q, fn.points, values, new_f)
    if lam not in (1, -1):
        raise ParameterError(
            "only lam = 1 or -1 are automorphisms of the infinite group")
    return multiplicative_homomorphism(fn, lam)


def restrict_to_finite_group(fn: PiecewiseFunction, f=None,
                             oversampling: Optional[int] = None,
                             order: Optional[int] = None) -> DiscreteFunction:
    """Restriction of fn to the cyclic group of the given order.

    The default order is generated by the breakpoints and f; an
    oversampling factor refines it.  Assuming breakpoints and f lie in the
    group and fn is continuous, minimality of the restriction is equivalent
    to minimality of fn; extremality transfers from fn always, and in both
    directions once oversampling >= 3.  An order or oversampling that is
    not an int is refused.
    """
    ff = to_rational(f) if f is not None else (
        fn.f if fn.f is not None else find_f(fn))
    if order is not None and oversampling is not None:
        raise ParameterError("give either order or oversampling, not both")
    if order is None:
        order = common_denominator((*fn.breakpoints, ff))
        if oversampling is not None:
            if _integer("oversampling", oversampling) < 1:
                raise ParameterError("oversampling must be a positive integer")
            order *= oversampling
    if _integer("order", order) < 1 or (ff * order).denominator != 1:
        raise ParameterError(f"order {order} is incompatible with f = {ff}")
    points = [Fraction(i, order) for i in range(order + 1)]
    values = [fn(p) for p in points]
    return discrete_from_points_and_values(points, values, f=ff)


def interpolate_to_infinite_group(fn: DiscreteFunction) -> PiecewiseFunction:
    """Continuous piecewise linear interpolation through the grid values."""
    return from_breakpoints_and_values(fn.points, fn.values, f=fn.f)
