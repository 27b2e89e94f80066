"""Smith normal form, checked against determinantal divisors.

The k-th determinantal divisor d_k of an integer matrix is the gcd of all
k x k minors; the k-th diagonal entry of the Smith form is d_k / d_{k-1}.
That formula is an independent oracle because it never performs row or
column operations.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from lensknots.snf import smith_normal_form


def minor_gcds(rows):
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                g = math.gcd(g, det([[rows[i][j] for j in ci] for i in ri]))
        if g == 0:
            break
        out.append(g)
    return out


def det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    return sum((-1) ** j * sq[0][j] * det(
        [row[:j] + row[j + 1:] for row in sq[1:]]) for j in range(n))


def oracle_diagonal(rows):
    divisors = minor_gcds(rows)
    diag = []
    prev = 1
    for d in divisors:
        diag.append(d // prev)
        prev = d
    return diag


def test_fixed_cases():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4, 4]]) == [2]
    assert smith_normal_form([[-2, 2], [-1, 0]]) == [1, 2]
    assert smith_normal_form([[3, 0], [0, 5], [0, 0]]) == [1, 15]
    # classic: presentation of Z/2 + Z/6
    assert smith_normal_form([[2, 0], [0, 6]]) == [2, 6]
    assert smith_normal_form([[6, 4], [4, 6]]) == [2, 10]
    # clean pivots that are not a chain: the gcd/lcm pass reorders them
    assert smith_normal_form([[4, 0, 0], [0, 6, 0], [0, 0, 10]]) == [2, 2, 60]
    assert smith_normal_form([[0, 12], [18, 0]]) == [6, 36]


def test_divisibility_chain_and_sign():
    diag = smith_normal_form([[4, -6, 2], [-2, 8, 10], [6, 2, -4]])
    assert all(d > 0 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=300)
@given(matrices)
def test_matches_determinantal_divisors(rows):
    assert smith_normal_form(rows) == oracle_diagonal(rows)


@given(matrices)
def test_transpose_invariant(rows):
    cols = [list(c) for c in zip(*rows)]
    assert smith_normal_form(rows) == smith_normal_form(cols)


@given(matrices, st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
def test_row_operation_invariant(rows, i, j, c):
    i, j = i % len(rows), j % len(rows)
    if i == j:
        return
    changed = [list(r) for r in rows]
    changed[i] = [a + c * b for a, b in zip(changed[i], changed[j])]
    assert smith_normal_form(changed) == smith_normal_form(rows)


# Diagonal entries built from a few shared primes: elimination finds them
# as clean pivots with no divisibility between them, so the chain comes
# from the closing gcd/lcm pass alone.
smooth = st.builds(lambda a, b, c, sign: sign * 2 ** a * 3 ** b * 5 ** c,
                   st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                   st.sampled_from([1, -1]))


@settings(max_examples=200)
@given(st.lists(smooth, min_size=1, max_size=4), st.integers(0, 2),
       st.randoms(use_true_random=False))
def test_shared_prime_diagonals(entries, zero_rows, rnd):
    """Elimination with a least-absolute-value pivot only diagonalizes;
    the closing pass puts gcd(d_i, d_j) at i and lcm(d_i, d_j) at j."""
    n = len(entries)
    rows = [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
    rows += [[0] * n for _ in range(zero_rows)]
    rnd.shuffle(rows)
    cols = list(range(n))
    rnd.shuffle(cols)
    rows = [[r[j] for j in cols] for r in rows]
    assert smith_normal_form(rows) == oracle_diagonal(rows)


# Thin matrices (1-8 rows, 1-2 columns) take the closed form.  Full rank
# draws entries up to 1e30; rank 1 is multiples of one row and rank 0 is all
# zeros.  Zero rows are shuffled in and one of two columns may be zeroed.
big = st.integers(-10 ** 30, 10 ** 30)
half = st.integers(-10 ** 15, 10 ** 15)


@st.composite
def thin_matrices(draw):
    ncols = draw(st.integers(1, 2))
    rank = draw(st.integers(0, ncols))
    nrows = draw(st.integers(1, 8))
    if rank == ncols:
        rows = draw(st.lists(st.lists(big, min_size=ncols, max_size=ncols),
                             min_size=nrows, max_size=nrows))
    else:
        base = draw(st.lists(half, min_size=ncols, max_size=ncols))
        rows = [[rank * c * b for b in base]
                for c in draw(st.lists(half, min_size=nrows, max_size=nrows))]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 8 - nrows)))]
    draw(st.randoms(use_true_random=False)).shuffle(rows)
    if ncols == 2 and draw(st.booleans()):
        zero = draw(st.integers(0, 1))
        for r in rows:
            r[zero] = 0
    return rank, rows


@settings(deadline=None, max_examples=300)
@given(thin_matrices())
def test_thin_matrices_match_determinantal_divisors(case):
    """The closed form folds each row by Euclid steps into a Hermite basis
    [[a, b], [0, c]] of the row lattice, in one pass; d1 is gcd(a, b, c)
    and d1*d2 is |a*c|, the gcd of the 2x2 minors."""
    rank, rows = case
    diag = smith_normal_form(rows)
    assert diag == oracle_diagonal(rows)
    assert len(diag) <= rank
