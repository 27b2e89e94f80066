import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lensknots.lenspaces import Slope
from lensknots.surgery import (INFINITE, UNFILLED, AbelianGroup, FramedLink,
                               blow_down, builtin, chain3, core_order, h1,
                               h1_presentation, link_from_json, link_to_json,
                               unknot, whitehead)


def test_builtins():
    assert unknot().num_components == 1
    assert whitehead().num_components == 2
    assert whitehead().lk(0, 1) == 0
    assert chain3().num_components == 3
    assert all(chain3().lk(i, j) == 1
               for i in range(3) for j in range(3) if i != j)
    for name in ("unknot", "whitehead", "chain3"):
        link = builtin(name)
        assert link.name == name
        assert all(c is UNFILLED for c in link.coefficients)
    with pytest.raises(ValueError):
        builtin("borromean")


def test_framed_link_validation():
    with pytest.raises(ValueError):
        FramedLink(((0, 1), (2, 0)), (None, None))  # not symmetric
    with pytest.raises(ValueError):
        FramedLink(((1,),), (None,))  # nonzero diagonal
    link = FramedLink.make(((0, 2), (2, 0)), ("-3", None))
    assert link.coefficients[0] == Slope(-3, 1)
    assert link.coefficients[1] is None
    assert link.fill(1, "1/2").coefficients[1] == Slope(1, 2)
    assert link.fill(1, "1/2").unfill(1) == link


def test_abelian_group_basics():
    g = AbelianGroup(0, (2, 6))
    assert g.order() == 12 and not g.is_cyclic and str(g) == "Z/2 + Z/6"
    assert AbelianGroup(1, ()).order() == INFINITE
    assert AbelianGroup(0, ()).is_trivial
    assert str(AbelianGroup(0, ())) == "0"
    assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"
    assert AbelianGroup(0, (5,)).is_cyclic
    assert AbelianGroup(1, ()).is_cyclic
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))  # not a divisibility chain


def test_h1_examples():
    assert h1(whitehead("-3", "-4")) == AbelianGroup(0, (12,))
    assert h1(whitehead("-2", "-5")) == AbelianGroup(0, (10,))
    assert h1(whitehead("-3", UNFILLED)) == AbelianGroup(1, (3,))
    assert h1(whitehead()) == AbelianGroup(2, ())
    assert h1(unknot("0")) == AbelianGroup(1, ())
    assert h1(unknot("-7/2")) == AbelianGroup(0, (7,))
    assert h1(unknot(UNFILLED)) == AbelianGroup(1, ())
    assert h1(chain3("-2", "-3", "1")) == AbelianGroup(0, (12,))


def test_h1_presentation_rows():
    rows = h1_presentation(chain3("-2", "5/2", UNFILLED))
    assert rows == [[-2, 1, 1], [2, 5, 2]]


def det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    return sum((-1) ** j * sq[0][j] * det(
        [row[:j] + row[j + 1:] for row in sq[1:]]) for j in range(n))


symmetric_linking = st.integers(2, 4).flatmap(
    lambda n: st.lists(st.integers(-4, 4),
                       min_size=n * (n - 1) // 2,
                       max_size=n * (n - 1) // 2))


def build_symmetric(entries):
    # invert the triangular packing to recover n
    n = 2
    while n * (n - 1) // 2 < len(entries):
        n += 1
    rows = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(it)
    return rows


@settings(max_examples=200)
@given(symmetric_linking,
       st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 5)),
                min_size=2, max_size=4))
def test_h1_order_is_presentation_determinant(entries, raw_coeffs):
    """For a closed manifold, |H1| equals |det| of the presentation matrix."""
    linking = build_symmetric(entries)
    n = len(linking)
    coeffs = [Slope.make(p, q) for p, q in raw_coeffs][:n]
    if len(coeffs) < n:
        coeffs.extend([Slope(1, 1)] * (n - len(coeffs)))
    link = FramedLink.make(linking, coeffs)
    group = h1(link)
    d = det(h1_presentation(link))
    if d == 0:
        assert group.order() == INFINITE
    else:
        assert group.order() == abs(d)


def test_core_order_examples():
    assert core_order(whitehead("-3", "-5/2"), 0) == 3
    assert core_order(whitehead("-2", "-9/2"), 0) == 2
    # surgery dual of -p/q on the unknot generates Z/p
    assert core_order(unknot("-12/5"), 0) == 12
    assert core_order(unknot("0"), 0) == INFINITE
    with pytest.raises(ValueError):
        core_order(whitehead("-3", UNFILLED), 1)
    with pytest.raises(ValueError):
        core_order(whitehead("-3", UNFILLED), 0)


# --- reference oracle: the core order from a Bezout solution -----------------
#
# The computation core_order used before it read the order off the meridian
# and the longitude: the core is the class c*e_i + d*sum_j lk(i,j)*e_j for a
# given (c, d) with p*d - q*c = 1, and its order is the quotient of the
# torsion orders of H1 with and without that row added.


def solve_bezout(p, q):
    """Some (d, c) with p*d - q*c = 1; requires gcd(p,q) = 1."""
    assert math.gcd(p, q) == 1
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    # p*old_s + q*old_t = old_r = +-1; rescale by old_r to hit exactly 1
    d = old_s * old_r
    c = -old_t * old_r
    assert p * d - q * c == 1
    return d, c


def reference_core_order(link, i, bezout):
    """Order of the core of component i, from the Bezout pair (c, d)."""
    p, q = link.coefficients[i].p, link.coefficients[i].q
    c, d = bezout
    assert p * d - q * c == 1
    n = link.num_components
    v = [d * link.lk(i, j) for j in range(n)]
    v[i] = c
    rows = h1_presentation(link)
    g = AbelianGroup.from_presentation(rows, n)
    g2 = AbelianGroup.from_presentation(rows + [v], n)
    if g2.rank < g.rank:
        return INFINITE
    order = math.prod(g.torsion) // math.prod(g2.torsion)
    assert order * math.prod(g2.torsion) == math.prod(g.torsion)
    return order


@st.composite
def closed_links(draw):
    """Links of 1-4 components, linking numbers in -3..3, every one filled
    (q = 0 gives the infinite slope)."""
    n = draw(st.integers(1, 4))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = draw(st.integers(-3, 3))
    slopes = st.tuples(st.integers(-8, 8), st.integers(0, 5)).filter(
        lambda pq: pq != (0, 0))
    coeffs = [Slope.make(*draw(slopes)) for _ in range(n)]
    return FramedLink.make(linking, coeffs)


@settings(max_examples=300)
@given(closed_links(), st.integers(-3, 3).filter(bool))
def test_core_order_bezout_independent(link, t):
    """The reference gives core_order at two Bezout solutions t apart."""
    for i in range(link.num_components):
        p, q = link.coefficients[i].p, link.coefficients[i].q
        d, c = solve_bezout(p, q)
        base = core_order(link, i)
        assert reference_core_order(link, i, (c, d)) == base
        # shift the canonical solution along the solution line by t
        assert reference_core_order(link, i, (c + t * p, d + t * q)) == base


def test_blow_down_chain_to_whitehead():
    for alpha, beta in [(Fraction(-2), Fraction(-3)), (Fraction(5, 2), Fraction(7, 3))]:
        sa, sb = Slope.from_rational(alpha), Slope.from_rational(beta)
        before = chain3(sa, sb, "1")
        after = blow_down(before, 2)
        assert after.linking == ((0, 0), (0, 0))
        assert after.coefficients == (Slope.from_rational(alpha - 1),
                                      Slope.from_rational(beta - 1))
        assert h1(before) == h1(after)


def test_blow_down_preserves_unfilled_and_infinity():
    link = chain3(UNFILLED, "inf", "-1")
    after = blow_down(link, 2)
    assert after.coefficients[0] is UNFILLED
    assert after.coefficients[1] == Slope(1, 0)
    assert after.linking == ((0, 2), (2, 0))


def test_blow_down_requires_unit_framing():
    with pytest.raises(ValueError):
        blow_down(chain3("-2", "-3", "2"), 2)
    with pytest.raises(ValueError):
        blow_down(chain3("-2", "-3", UNFILLED), 2)


rational_slopes = st.tuples(st.integers(-20, 20), st.integers(1, 7)).map(
    lambda t: Slope.make(*t))


@settings(max_examples=200)
@given(rational_slopes, rational_slopes, st.sampled_from([1, -1]))
def test_blow_down_h1_invariant(a, b, eps):
    """Blowing down a +-1 component never changes the filled homology."""
    link = chain3(a, b, Slope(eps, 1))
    assert h1(blow_down(link, 2)) == h1(link)


def test_json_round_trip():
    for link in (whitehead("-3", "-5/2"),
                 chain3(UNFILLED, "inf", "7"),
                 unknot("0"),
                 FramedLink.make(((0, 3), (3, 0)), ("1/2", "-4"))):
        assert link_from_json(link_to_json(link)) == link


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        link_from_json('{"schema_version": 99, "linking": [[0]], "coefficients": ["-"]}')
