import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lensknots.lenspaces import (INFINITY, LensSpace, Slope, is_homeomorphic,
                                 normalize, q_orbit)


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


lens_spaces = st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(
    lambda pq: math.gcd(*pq) == 1).map(lambda pq: LensSpace(*pq))


@given(st.one_of(st.tuples(lens_spaces, lens_spaces),
                 lens_spaces.map(lambda a: (a, a)),
                 lens_spaces.map(lambda a: (a, normalize(a.p, a.q)))))
def test_is_homeomorphic_compares_normal_forms(pair):
    """The a == b shortcut answers as normalizing both sides does."""
    a, b = pair
    assert is_homeomorphic(a, b) == (normalize(a.p, a.q) == normalize(b.p, b.q))
    assert is_homeomorphic(b, a) == is_homeomorphic(a, b)


def test_coprimality_enforced():
    with pytest.raises(ValueError):
        LensSpace(6, 3)
    with pytest.raises(ValueError):
        normalize(10, 4)


def test_str_and_parse():
    assert str(LensSpace(0, 1)) == "S1xS2"
    assert str(LensSpace(1, 1)) == "S3"
    assert str(LensSpace(7, 2)) == "L(7,2)"
    assert str(LensSpace(-12, 7)) == "L(-12,7)"
    # a field that is not exactly int is refused, not printed as L(2,True)
    for p, q in ((2, True), (False, 1), (7.0, 2)):
        with pytest.raises(ValueError, match="must be ints"):
            LensSpace(p, q)


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


@given(st.tuples(st.integers(2, 500), st.integers(-1000, 1000)).filter(
    lambda t: math.gcd(*t) == 1))
def test_q_orbit(pq):
    """q_orbit is (q, -q, q^-1, -q^-1) mod p, and normalize takes its min."""
    p, q = pq
    orbit = q_orbit(p, q)
    assert all(0 <= x < p for x in orbit)
    assert [x % p for x in (orbit[0] - q, orbit[1] + q, orbit[2] * q - 1,
                            orbit[3] * q + 1)] == [0, 0, 0, 0]
    assert all(normalize(p, x) == normalize(p, q) for x in orbit)
    assert min(orbit) == normalize(p, q).q


def test_slope_canonical_forms():
    assert Slope.make(6, -4) == Slope(-3, 2)
    assert Slope.make(-6, 4) == Slope(-3, 2)
    assert Slope.make(5, 0) == INFINITY
    assert Slope.make(-7, -1) == Slope(7, 1)
    assert Slope.from_rational(Fraction(10, 15)) == Slope(2, 3)
    assert Slope.from_rational(-4) == Slope(-4, 1)
    for bad in (0.5, "1/2", None, True, False):
        with pytest.raises(ValueError):
            Slope.from_rational(bad)
    with pytest.raises(ValueError):
        Slope.make(0, 0)
    with pytest.raises(ValueError):
        Slope(2, 4)
    with pytest.raises(ValueError):
        Slope(3, 0)
    for p, q in ((True, 1), (1, True), (1.5, 1), (2, 1.0)):
        with pytest.raises(ValueError, match="must be ints"):
            Slope(p, q)


def test_slope_str_parse_round_trip():
    for s in (Slope(7, 2), Slope(-3, 1), Slope(0, 1), INFINITY):
        assert Slope.parse(str(s)) == s
    assert str(INFINITY) == "inf"
    assert str(Slope(-3, 1)) == "-3"
    with pytest.raises(ValueError, match=r"^not a slope: '1/2/3'$"):
        Slope.parse("1/2/3")
