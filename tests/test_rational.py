from fractions import Fraction as F

import pytest

from groupcut.rational import (common_denominator, format_rational, on_grid,
                               parse_rational, to_rational)


def test_parse_basic():
    assert parse_rational("4/5") == F(4, 5)
    assert parse_rational("0") == 0
    assert parse_rational("-7/3") == F(-7, 3)
    assert parse_rational(" 2 ") == 2


@pytest.mark.parametrize("bad", ["0.5", "1/0", "1/-2", "a/b", "", "1e3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("bad", [0, 1, 0.5, None, ["1/2"]])
def test_parse_rejects_non_strings(bad):
    # a JSON number where a "p/q" string belongs is malformed input
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(bad)


def test_to_rational_rejects_floats():
    with pytest.raises(TypeError):
        to_rational(0.5)
    with pytest.raises(TypeError):
        to_rational(True)


def test_roundtrip_format():
    for x in (F(4, 5), F(0), F(-3, 7), F(5)):
        assert parse_rational(format_rational(x)) == x


def test_common_denominator():
    assert common_denominator([F(1, 4), F(1, 6), F(2)]) == 12
    assert common_denominator([]) == 1


def test_on_grid():
    # the grid holds D and every denominator; a generator is read once
    assert on_grid([F(1, 4), F(-1, 6), F(2)]) == (12, [3, -2, 24])
    assert on_grid((F(1, 4) for _ in range(2)), 10) == (20, [5, 5])
    assert on_grid([], 7) == (7, [])
