"""The integer slack-scan kernel on hand-checked tables."""

from groupcut import _scan, kernels


def test_one_sided_periodic_tables():
    b, vals, rights, lefts, V = [0, 20, 60], [0, 5, 0], [1, 6, 1], [7, 4, 7], 12
    # left limit at 0 reads the table entry stored for 1
    assert _scan.one_sided(b, vals, rights, lefts, V, 0, -1) == (7, 12)
    assert _scan.one_sided(b, vals, rights, lefts, V, 60, -1) == (7, 12)
    assert _scan.one_sided(b, vals, rights, lefts, V, 60, 1) == (1, 12)
    assert _scan.one_sided(b, vals, rights, lefts, V, 80, 0) == (5, 12)
    # interior interpolation between right(0)=1 and left(20)=4
    num, den = _scan.one_sided(b, vals, rights, lefts, V, 10, 0)
    assert num * 24 == den * 5  # value 5/24


def test_complex_vertices_square():
    assert _scan.complex_vertices([0, 10]) == [(0, 0), (0, 10), (10, 0), (10, 10)]


def test_default_selection_reports_implementation():
    assert kernels.implementation() == "pure-python"
