import itertools
import random
import re
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from lensknots.mcg import (IDENTITY, MappingWord, NTClass, _least_start, bundle_h1,
                           classify, conjugacy_invariant, evaluate,
                           lens_filling_word, mat_mul, trace)
from lensknots.surgery import UNFILLED, AbelianGroup, h1, whitehead
from test_surgery import solve_bezout

# the Dehn twists x and y acting on first homology of the torus
TWIST_X = ((1, 1), (0, 1))
TWIST_Y = ((1, 0), (-1, 1))


def test_twist_matrices():
    assert evaluate("x") == TWIST_X
    assert evaluate("y") == TWIST_Y
    assert evaluate("x y") == ((0, 1), (-1, 1))
    assert trace(evaluate("x y")) == 1
    assert evaluate("") == IDENTITY


def test_word_parse_and_normalize():
    w = MappingWord.parse("x^2  y^-1 x^0")
    assert str(w) == "x^2 y^-1"
    assert MappingWord.parse("x x x") == MappingWord.parse("x^3")
    assert MappingWord.parse("x^2 x^-2 y") == MappingWord.parse("y")
    assert str(MappingWord.parse("")) == ""
    with pytest.raises(ValueError):
        MappingWord.parse("x z")


def test_words_are_hashable():
    assert {MappingWord.parse("x^2 y"): 1}[MappingWord((("x", 2), ("y", 1)))] == 1
    for bad in ([("x", 1)], (["x", 1],), (("z", 1),), (("x", True),), (("x",),)):
        with pytest.raises(ValueError):
            MappingWord(bad)


def test_word_power_formula():
    for p in range(1, 8):
        assert evaluate(f"x^{p} y") == ((1 - p, p), (-1, 1))


@settings(max_examples=200)
@given(st.integers(-10 ** 40, 10 ** 40))
@example(10 ** 40)
@example(-10 ** 40)
def test_twist_powers_are_closed_forms(e):
    assert evaluate(f"x^{e}") == ((1, e), (0, 1))
    assert evaluate(f"y^{e}") == ((1, 0), (-e, 1))


def test_twist_powers_are_products_of_twists():
    x_power, y_power = IDENTITY, IDENTITY
    for e in range(13):
        assert evaluate(f"x^{e}") == x_power
        assert evaluate(f"y^{e}") == y_power
        assert mat_mul(evaluate(f"x^-{e}"), x_power) == IDENTITY
        assert mat_mul(evaluate(f"y^-{e}"), y_power) == IDENTITY
        x_power, y_power = mat_mul(x_power, TWIST_X), mat_mul(y_power, TWIST_Y)


def test_classify_small_powers():
    """The five small x^p y classes; periodic orders computed by iteration."""
    kinds = [classify(evaluate(f"x^{p} y")) for p in range(1, 6)]
    assert [k.kind for k in kinds] == [
        NTClass.PERIODIC, NTClass.PERIODIC, NTClass.PERIODIC,
        NTClass.REDUCIBLE, NTClass.PSEUDO_ANOSOV]
    assert [k.order for k in kinds[:3]] == [6, 4, 3]
    assert kinds[4].trace == -3


def test_classify_central_and_inverse():
    assert classify("").order == 1
    minus_identity = evaluate("x y x y x y")
    assert minus_identity == ((-1, 0), (0, -1))
    assert classify(minus_identity).order == 2
    assert classify("x").kind is NTClass.REDUCIBLE
    assert classify("x^-3 y^-1").kind is NTClass.PERIODIC


def test_determinant_guard():
    with pytest.raises(ValueError):
        evaluate(((1, 0), (0, -1)))
    with pytest.raises(ValueError):
        classify(((2, 0), (0, 1)))
    with pytest.raises(ValueError):
        evaluate(((1, 0, 0), (0, 1, 0)))


def test_non_integer_matrix_refused():
    """Float entries raise at once: the conjugacy reduction never ends on
    them, and classify would report a float trace."""
    m = ((2.0, 1), (1, 1))
    with pytest.raises(ValueError):
        classify(m)
    with pytest.raises(ValueError):
        bundle_h1(m)
    with pytest.raises(ValueError):
        conjugacy_invariant(((1.5, 0.5), (1, 1)))
    with pytest.raises(ValueError):
        evaluate(((True, 1), (0, True)))  # a bool is no matrix entry


def test_matrix_rows_may_be_lists():
    assert evaluate([[2, 1], [1, 1]]) == ((2, 1), (1, 1))
    assert classify([[1, 0], [0, 1]]).kind is NTClass.PERIODIC


def test_bundle_h1_examples():
    assert bundle_h1("") == AbelianGroup(3, ())
    assert bundle_h1("x y") == AbelianGroup(1, ())
    assert bundle_h1("x^2 y") == AbelianGroup(1, (2,))


def test_bundle_h1_matches_whitehead_exterior():
    for p in range(1, 31):
        assert bundle_h1(f"x^{p} y") == h1(whitehead(f"-{p}", UNFILLED))


def test_lens_filling_word():
    assert str(lens_filling_word(0, 0)) == "y"
    for k in range(-30, 31):
        assert evaluate(lens_filling_word(k, 0)) == evaluate(f"x^{k} y" if k else "y")
    # the two-parameter words multiply out the same as their definition
    for k in (-2, 1, 3):
        for l in (-1, 0, 2):
            direct = mat_mul(mat_mul(evaluate(f"x^{k}"), evaluate("y^2")),
                             mat_mul(evaluate(f"x^{l}"), evaluate("y^-1")))
            assert evaluate(lens_filling_word(k, l)) == direct


def test_conjugacy_tokens():
    assert conjugacy_invariant("") == "identity"
    assert conjugacy_invariant("x y x y x y") == "identity"  # -I is central
    assert conjugacy_invariant("x y") == "r2"
    assert conjugacy_invariant("x^2 y") == "s"
    assert conjugacy_invariant("x^3 y") == "r"
    assert conjugacy_invariant("x") == "parabolic:1"
    assert conjugacy_invariant("y") == "parabolic:1"  # y = S x S^-1
    assert conjugacy_invariant("x^4 y") == "parabolic:-1"
    assert conjugacy_invariant("x^5 y") == "LR"
    assert conjugacy_invariant("y x^5") == "LR"
    assert conjugacy_invariant("x^2 y^2") != conjugacy_invariant("x y")


def test_conjugacy_separates_trace_one_classes():
    # both have trace 1 and order 6 in PSL, but lie in different classes
    m = evaluate("x y")
    m2 = mat_mul(m, m)
    minus_m2 = tuple(tuple(-v for v in row) for row in m2)
    assert trace(minus_m2) == 1
    assert conjugacy_invariant(m) != conjugacy_invariant(minus_m2)


words = st.lists(st.tuples(st.sampled_from("xy"), st.integers(-4, 4)),
                 min_size=0, max_size=6).map(tuple)


def word_matrix(syllables):
    m = IDENTITY
    for gen, e in syllables:
        m = mat_mul(m, evaluate(f"{gen}^{e}"))
    return m


@settings(max_examples=300)
@given(words, words)
def test_conjugacy_invariant_is_conjugation_invariant(w, g):
    m = word_matrix(w)
    gm = word_matrix(g)
    gm_inv = word_matrix(tuple((gen, -e) for gen, e in reversed(g)))
    assert mat_mul(gm, gm_inv) == IDENTITY
    conj = mat_mul(mat_mul(gm, m), gm_inv)
    assert conjugacy_invariant(conj) == conjugacy_invariant(m)


@settings(max_examples=200)
@given(words)
def test_conjugacy_invariant_ignores_sign(w):
    m = word_matrix(w)
    minus = tuple(tuple(-v for v in row) for row in m)
    assert conjugacy_invariant(minus) == conjugacy_invariant(m)


@settings(max_examples=200)
@given(words)
def test_classify_matches_trace(w):
    m = word_matrix(w)
    c = classify(m)
    t = trace(m)
    if abs(t) > 2:
        assert c.kind is NTClass.PSEUDO_ANOSOV
    elif abs(t) == 2 and m not in (IDENTITY, ((-1, 0), (0, -1))):
        assert c.kind is NTClass.REDUCIBLE
    else:
        assert c.kind is NTClass.PERIODIC
        # m^order is the identity and no smaller positive power is
        power = IDENTITY
        for k in range(1, c.order + 1):
            power = mat_mul(power, m)
            assert (power == IDENTITY) == (k == c.order), k


# --- reference oracle: the unary normal form in PSL(2,Z) = Z/2 * Z/3 --------
#
# The free-product reduction that conjugacy_invariant used before it read
# the label off a positive conjugate.  Letters are ("s",) of order two and
# ("r", e), e in {1, 2}, of order three, with S = [[0,-1],[1,0]],
# T = [[1,1],[0,1]], rho = S*T, T = s*rho and T^-1 = rho^2*s modulo the
# center.  It writes one letter per unit of exponent, so keep words short.

_S = ("s",)


def _push(stack, letter):
    if stack and stack[-1][0] == letter[0]:
        if letter[0] == "s":
            stack.pop()
        else:
            e = (stack[-1][1] + letter[1]) % 3
            stack.pop()
            if e:
                stack.append(("r", e))
    else:
        stack.append(letter)


def _cyclic_reduce(word):
    word = list(word)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        last = word.pop()
        first = word.pop(0)
        if last[0] != "s":
            e = (last[1] + first[1]) % 3
            if e:
                word.insert(0, ("r", e))
    return word


def _append_t_power(letters, n):
    if n >= 0:
        letters.extend([_S, ("r", 1)] * n)
    else:
        letters.extend([("r", 2), _S] * (-n))


def _psl_letters(m):
    a, b = m[0]
    c, d = m[1]
    letters = []
    while c != 0:
        q = a // c
        _append_t_power(letters, q)
        letters.append(_S)
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    assert abs(a) == 1
    _append_t_power(letters, b * a)
    return letters


def _parabolic_invariant(m):
    if trace(m) == -2:
        m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    n00, n01 = m[0][0] - 1, m[0][1]
    n10, n11 = m[1][0], m[1][1] - 1
    row = (n00, n01) if (n00, n01) != (0, 0) else (n10, n11)
    g = gcd(row[0], row[1])
    v = (-row[1] // g, row[0] // g)
    w1, w0 = solve_bezout(*v)
    nw = (n00 * w0 + n01 * w1, n10 * w0 + n11 * w1)
    n = nw[0] // v[0] if v[0] != 0 else nw[1] // v[1]
    assert (n * v[0], n * v[1]) == nw and n != 0
    return n


def reference_invariant(m):
    """The unary label: "LRRR" where conjugacy_invariant gives "LR^3"."""
    if abs(trace(m)) == 2 and m not in (IDENTITY, ((-1, 0), (0, -1))):
        return f"parabolic:{_parabolic_invariant(m)}"
    stack = []
    for letter in _psl_letters(m):
        _push(stack, letter)
    word = _cyclic_reduce(stack)
    if not word:
        return "identity"
    if len(word) == 1:
        return "s" if word[0][0] == "s" else "r" if word[0][1] == 1 else "r2"
    if word[0][0] != "s":
        word = word[-1:] + word[:-1]
    pairs = "".join("R" if word[i + 1][1] == 1 else "L"
                    for i in range(0, len(word), 2))
    return min(pairs[i:] + pairs[:i] for i in range(len(pairs)))


def unary(label):
    return re.sub(r"([LR])\^(\d+)", lambda g: g[1] * int(g[2]), label)


syllables = st.lists(st.tuples(st.sampled_from("xy"), st.integers(-12, 12)),
                     min_size=0, max_size=8).map(tuple)


@settings(max_examples=500)
@given(syllables)
def test_run_length_label_matches_reference(w):
    m = word_matrix(w)
    assert unary(conjugacy_invariant(m)) == reference_invariant(m)


def test_four_syllable_sweep_matches_reference():
    parabolic = 0
    for e in itertools.product(range(-4, 5), repeat=4):
        m = word_matrix(tuple(zip("xyxy", e)))
        label = conjugacy_invariant(m)
        assert unary(label) == reference_invariant(m), e
        parabolic += label.startswith("parabolic:")
    assert parabolic == 734


@settings(max_examples=200)
@given(syllables)
def test_label_of_cube_repeats_label(w):
    m = word_matrix(w)
    if abs(trace(m)) <= 2:
        return
    label = conjugacy_invariant(m)
    assert unary(label)[0] == "L" and unary(label)[-1] == "R"  # runs close up
    assert conjugacy_invariant(mat_mul(mat_mul(m, m), m)) == label * 3


def test_huge_exponents_stay_run_length():
    n = 10 ** 40
    assert conjugacy_invariant(f"x^{n} y^-{n}") == f"L^{n}R^{n}"
    assert conjugacy_invariant(f"x^{n} y^-3 x^-{n}") == "parabolic:-3"


# --- reference oracle: Booth's least rotation ----------------------------------
#
# The least-rotation search that conjugacy_invariant used before the two
# pointers: a Knuth-Morris-Pratt failure table over the doubled list.


def booth_start(keys):
    """Start of the lexicographically least rotation (Booth's algorithm)."""
    s = keys + keys
    fail = [-1] * len(s)
    k = 0
    for j in range(1, len(s)):
        i = fail[j - k - 1]
        while i != -1 and s[j] != s[k + i + 1]:
            if s[j] < s[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if s[j] != s[k + i + 1]:  # here i == -1
            if s[j] < s[k]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return k


def rotated(keys, i):
    return keys[i:] + keys[:i]


def assert_least_rotation(keys):
    """_least_start and Booth's algorithm give the least rotation.  A
    periodic list has several least starts, so the rotations are compared,
    not the starts."""
    least = rotated(keys, _least_start(keys))
    assert least == rotated(keys, booth_start(keys)), keys
    assert least == min(rotated(keys, i) for i in range(len(keys))), keys


RUN_KEYS = [(1, 1), (1, 2), (1, 3), (0, -1), (0, -2), (0, -3)]


@given(st.lists(st.sampled_from(RUN_KEYS), min_size=1, max_size=24),
       st.integers(1, 6))
def test_least_start_matches_booth(keys, copies):
    """On a random run list and on the periodic list of its copies."""
    assert_least_rotation(keys)
    assert_least_rotation(keys * copies)


def test_least_start_matches_booth_on_seeded_lists():
    """Random run lists of two or three keys, where ties run deep, each
    also repeated, so periods of every length up to 30 occur."""
    rng = random.Random(29)
    for _ in range(3000):
        keys = [rng.choice(RUN_KEYS[:rng.randint(2, 3)]) for _ in range(rng.randint(1, 30))]
        assert_least_rotation(keys)
        assert_least_rotation(keys * rng.randint(2, 5))
