import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lensknots import lenspaces, surgery
from lensknots.families import instantiate
from lensknots.gridknots import grid1_order
from lensknots.lenspaces import LensSpace, Slope
from lensknots.surgery import (INFINITE, UNFILLED, AbelianGroup, FramedLink,
                               blow_down, chain3, core_order, h1, h1_presentation,
                               link_from_json, link_to_obj, unknot, whitehead)


def test_builtins():
    assert unknot().num_components == 1
    assert whitehead().num_components == 2
    assert whitehead().lk(0, 1) == 0
    assert chain3().num_components == 3
    assert all(chain3().lk(i, j) == 1
               for i in range(3) for j in range(3) if i != j)
    for make in (unknot, whitehead, chain3):
        link = make()
        assert link.name == make.__name__
        assert all(c is UNFILLED for c in link.coefficients)


def test_framed_link_validation():
    with pytest.raises(ValueError):
        FramedLink(((0, 1), (2, 0)), (None, None))  # not symmetric
    with pytest.raises(ValueError):
        FramedLink(((1,),), (None,))  # nonzero diagonal
    with pytest.raises(ValueError):
        FramedLink([[0]], (None,))  # list rows: make converts them
    with pytest.raises(ValueError):
        FramedLink(((0,),), [None])
    with pytest.raises(ValueError):
        FramedLink(((0,),), (None,), name=["unknot"])
    with pytest.raises(ValueError, match="one filling coefficient per component"):
        FramedLink(((0,),), (None, None))
    with pytest.raises(ValueError, match="is not a slope"):
        FramedLink(((0,),), ("1",))  # a string: make parses it
    link = FramedLink.make(((0, 2), (2, 0)), ("-3", None))
    assert {link: 1}[FramedLink.make([[0, 2], [2, 0]], ["-3", None])] == 1
    assert link.coefficients[0] == Slope(-3, 1)
    assert link.coefficients[1] is None


def test_floats_are_refused():
    """A float is neither a slope nor a linking number: no silent rounding."""
    with pytest.raises(ValueError):
        whitehead(0.1, "-3")
    with pytest.raises(ValueError):
        FramedLink.make([[0, 2.7], [2.7, 0]], [None, None])
    with pytest.raises(ValueError):
        FramedLink.make([[0, 2.0], [2.0, 0]], ["1", "1"])
    assert whitehead(Fraction(-5, 2), -3) == whitehead("-5/2", "-3")


def test_abelian_group_basics():
    g = AbelianGroup(0, (2, 6))
    assert g.order() == 12 and not g.is_cyclic and str(g) == "Z/2 + Z/6"
    assert AbelianGroup(1, ()).order() == INFINITE
    # one encoding of infinite order, defined in lenspaces, for every module
    assert surgery.INFINITE is lenspaces.INFINITE
    assert LensSpace(0, 1).order == INFINITE
    assert grid1_order(1, 0) == INFINITE
    assert instantiate("VI", rq=(0, 1)).order_s == INFINITE
    assert AbelianGroup(0, ()).order() == 1
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
    """Cofactor expansion along the first row."""
    n = len(sq)
    if n <= 1:
        return sq[0][0] if n else 1
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
    # an unfilled component, the core's own or another, leaves no closed
    # manifold, and one check says so
    for i in (0, 1):
        with pytest.raises(ValueError, match="fill every component"):
            core_order(whitehead("-3", UNFILLED), i)


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
    """Links of 1-6 components, linking numbers in -3..3, every one filled
    (q = 0 gives the infinite slope)."""
    n = draw(st.integers(1, 6))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = draw(st.integers(-3, 3))
    slopes = st.tuples(st.integers(-8, 8), st.integers(0, 5)).filter(
        lambda pq: pq != (0, 0))
    coeffs = [Slope.make(*draw(slopes)) for _ in range(n)]
    return FramedLink.make(linking, coeffs)


@st.composite
def singular_links(draw):
    """Integer surgeries of 1-6 components whose presentation drops rank.

    With integer slopes the presentation is the linking matrix with the
    slopes on its diagonal, so a symmetric matrix sum_r s_r v_r v_r^T of
    fewer than n rank-one terms gives a link with det = 0.
    """
    n = draw(st.integers(1, 6))
    a = [[0] * n for _ in range(n)]
    for _ in range(draw(st.integers(0, n - 1))):
        s = draw(st.sampled_from([-1, 1]))
        v = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        for i in range(n):
            for j in range(n):
                a[i][j] += s * v[i] * v[j]
    link = FramedLink.make([[a[i][j] if i != j else 0 for j in range(n)]
                            for i in range(n)],
                           [Slope(a[i][i], 1) for i in range(n)])
    assert det(h1_presentation(link)) == 0
    return link


@settings(max_examples=300)
@given(st.one_of(closed_links(), singular_links()), st.integers(-3, 3).filter(bool))
@example(whitehead("-3", "-5/2"), 1)  # det = 15
@example(whitehead("0", "-3"), 1)  # det = 0, H1 = Z + Z/3
@example(FramedLink.make(((0, 2), (2, 0)), ("4", "1")), -2)  # det = 4 - 4
def test_core_order_bezout_independent(link, t):
    """The reference gives core_order at two Bezout solutions t apart."""
    for i in range(link.num_components):
        p, q = link.coefficients[i].p, link.coefficients[i].q
        d, c = solve_bezout(p, q)
        base = core_order(link, i)
        assert reference_core_order(link, i, (c, d)) == base
        # shift the canonical solution along the solution line by t
        assert reference_core_order(link, i, (c + t * p, d + t * q)) == base


# --- the one-link memo of _reduced_h1 ----------------------------------------
#
# `h1` and `core_order` share the rows and Smith diagonal of the last link
# they reduced.  The expected values below come from
# `from_presentation` and the Bezout reference, which never read the memo.


def fresh(link):
    """H1 and the core orders of a closed link, computed without the memo."""
    n = link.num_components
    orders = []
    for i, s in enumerate(link.coefficients):
        d, c = solve_bezout(s.p, s.q)
        orders.append(reference_core_order(link, i, (c, d)))
    return AbelianGroup.from_presentation(h1_presentation(link), n), orders


def orders_of(link):
    """core_order of every component, in order, as `homology` prints them."""
    return [core_order(link, i) for i in range(link.num_components)]


@settings(max_examples=100)
@given(closed_links(), st.one_of(closed_links(), singular_links()))
def test_memo_alternating_links_match_fresh(a, b):
    """Every call agrees with a fresh computation, whichever link the memo
    held before it, and an equal but distinct link gets its own entry."""
    twin = FramedLink.make(a.linking, a.coefficients)
    assert twin == a and twin is not a
    want = {id(a): fresh(a), id(b): fresh(b)}
    want[id(twin)] = want[id(a)]
    for link in (a, b, twin, a, twin, b, b, a):
        group, orders = want[id(link)]
        for _ in range(2):
            assert orders_of(link) == orders
            assert h1(link) == group
        assert surgery._last_h1[0] is link  # held, by identity
    for link in (a, b, twin):  # h1 first, then core_order, as verify asks
        group, orders = want[id(link)]
        assert h1(link) == group
        assert core_order(link, len(orders) - 1) == orders[-1]


@settings(max_examples=100)
@given(closed_links(), st.data())
def test_memo_core_order_refuses_unfilled_link_closed_link_reads_fresh(link, data):
    """A link with an unfilled component gets h1 off its own rows, and
    core_order refuses it with the same ValueError as ever; after it, the
    closed link still reads its own h1 and core orders."""
    n = link.num_components
    gone = data.draw(st.integers(0, n - 1))
    half = FramedLink.make(link.linking, [None if j == gone else c
                                          for j, c in enumerate(link.coefficients)])
    group, orders = fresh(link)
    assert h1(link) == group
    assert h1(half) == AbelianGroup.from_presentation(h1_presentation(half), n)
    for i in range(n):
        with pytest.raises(ValueError, match="^core_order needs a closed "
                           "manifold: fill every component$"):
            core_order(half, i)
    assert orders_of(link) == orders and h1(link) == group


def test_memo_rows_cannot_be_changed_by_a_caller():
    """The shared rows and diagonal are tuples, and the rows
    `h1_presentation` returns are built anew, so no caller can change the
    memo."""
    link = chain3("2", "3", "-5/2")
    group, orders = fresh(link)
    rows, diag = surgery._reduced_h1(link)
    assert type(rows) is tuple and all(type(r) is tuple for r in rows)
    assert type(diag) is tuple
    with pytest.raises(TypeError):
        rows[0][0] = 7
    with pytest.raises(TypeError):
        rows[0] += (1,)
    h1_presentation(link)[0][0] = 7
    assert surgery._reduced_h1(link) == (rows, diag)
    assert orders_of(link) == orders and h1(link) == group


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


def test_component_index_in_range():
    """A negative index would wrap around to the last component."""
    link = chain3("-2", "-3", "1")
    for c in (-1, 3):
        with pytest.raises(ValueError):
            blow_down(link, c)
        with pytest.raises(ValueError):
            core_order(link, c)


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
        assert link_from_json(json.dumps(link_to_obj(link), indent=2,
                                         sort_keys=True)) == link


entries = st.one_of(st.integers(-3, 3), st.booleans())


@given(entries, st.lists(st.one_of(st.none(), entries, rational_slopes),
                         min_size=2, max_size=2))
def test_every_made_link_round_trips(lk, coefficients):
    """Whatever FramedLink.make accepts, JSON writes and reads back; a bool,
    which JSON would write as true, is no linking number and no slope."""
    try:
        link = FramedLink.make([[0, lk], [lk, 0]], coefficients)
    except ValueError:
        return
    assert link_from_json(json.dumps(link_to_obj(link))) == link


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        link_from_json('{"schema_version": 99, "linking": [[0]], "coefficients": ["-"]}')
