import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lensknots.lenspaces import (INFINITY, LensSpace, Slope,
                                 from_continued_fraction, is_homeomorphic,
                                 normalize, slope_distance)


def test_normalize_examples():
    assert normalize(12, 7) == LensSpace(12, 5)
    assert normalize(6, 5) == LensSpace(6, 1)
    assert normalize(7, 2) == LensSpace(7, 2)
    assert normalize(0, 1) == LensSpace(0, 1)
    assert normalize(1, 1) == LensSpace(1, 1)
    assert normalize(-1, 1) == LensSpace(1, 1)
    assert normalize(5, 3) == LensSpace(5, 2)


def test_homeomorphism_examples():
    assert is_homeomorphic(LensSpace(6, 1), LensSpace(6, 5))
    assert not is_homeomorphic(LensSpace(7, 1), LensSpace(7, 2))
    # mirrors are identified
    assert is_homeomorphic(LensSpace(-12, 7), LensSpace(12, 7))
    assert is_homeomorphic(LensSpace(12, -7), LensSpace(12, 7))


def test_coprimality_enforced():
    with pytest.raises(ValueError):
        LensSpace(6, 3)
    with pytest.raises(ValueError):
        normalize(10, 4)


def test_str_and_parse():
    assert str(LensSpace(0, 1)) == "S1xS2"
    assert str(LensSpace(1, 1)) == "S3"
    assert str(LensSpace(7, 2)) == "L(7,2)"
    for space in (LensSpace(0, 1), LensSpace(1, 1), LensSpace(7, 2),
                  LensSpace(-12, 7)):
        parsed = LensSpace.parse(str(space))
        assert normalize(parsed.p, parsed.q) == normalize(space.p, space.q)
    assert LensSpace.parse("L(7,2)") == LensSpace(7, 2)
    with pytest.raises(ValueError):
        LensSpace.parse("T3")


coprime_pq = st.tuples(st.integers(-200, 200), st.integers(-200, 200)).filter(
    lambda t: math.gcd(t[0], t[1]) == 1)


@given(coprime_pq)
def test_normalize_idempotent(pq):
    p, q = pq
    n = normalize(p, q)
    assert normalize(n.p, n.q) == n
    assert 0 <= n.q <= max(n.p, 1)


@given(coprime_pq)
def test_normalize_orbit_stable(pq):
    """Every member of the defining orbit lands on the same representative."""
    p, q = pq
    n = normalize(p, q)
    assert normalize(-p, q) == n
    assert normalize(p, -q) == n
    assert normalize(p, q + p) == n
    if abs(p) >= 2:
        qinv = pow(q, -1, abs(p))
        assert normalize(p, qinv) == n
        assert normalize(p, -qinv) == n


def test_slope_canonical_forms():
    assert Slope.make(6, -4) == Slope(-3, 2)
    assert Slope.make(-6, 4) == Slope(-3, 2)
    assert Slope.make(5, 0) == INFINITY
    assert Slope.make(-7, -1) == Slope(7, 1)
    assert Slope.from_rational(Fraction(10, 15)) == Slope(2, 3)
    with pytest.raises(ValueError):
        Slope.make(0, 0)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(3, 0)


def test_slope_str_parse_round_trip():
    for s in (Slope(7, 2), Slope(-3, 1), Slope(0, 1), INFINITY):
        assert Slope.parse(str(s)) == s
    assert str(INFINITY) == "inf"
    assert str(Slope(-3, 1)) == "-3"


def test_slope_distance():
    assert slope_distance(Slope(3, 2), Slope(1, 1)) == 1
    assert slope_distance(Slope(3, 2), INFINITY) == 2
    assert slope_distance(INFINITY, INFINITY) == 0


@given(st.fractions(), st.fractions())
def test_slope_distance_symmetric(a, b):
    sa, sb = Slope.from_rational(a), Slope.from_rational(b)
    assert slope_distance(sa, sb) == slope_distance(sb, sa)
    assert slope_distance(sa, sa) == 0
    assert (slope_distance(sa, sb) == 0) == (sa == sb)


def test_continued_fraction_examples():
    assert from_continued_fraction([2, 2]) == Slope(3, 2)
    assert from_continued_fraction([-3, -3]) == Slope(-8, 3)
    assert from_continued_fraction([5]) == Slope(5, 1)
    # 1 - 1/1 = 0, then 2 - 1/0 = inf, then 3 - 1/inf = 3
    assert from_continued_fraction([1, 1]) == Slope(0, 1)
    assert from_continued_fraction([2, 1, 1]) == INFINITY
    assert from_continued_fraction([3, 2, 1, 1]) == Slope(3, 1)
    with pytest.raises(ValueError):
        from_continued_fraction([])


def test_continued_fraction_fraction_coefficients():
    assert from_continued_fraction([Fraction(1, 2), 2]) == Slope(0, 1)


@given(st.lists(st.integers(2, 9), min_size=1, max_size=8))
def test_continued_fraction_matches_fraction_arithmetic(coeffs):
    """With all entries >= 2 no infinities appear, so Fraction is an oracle."""
    want = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        want = a - 1 / want
    assert from_continued_fraction(coeffs) == Slope.make(
        want.numerator, want.denominator)
