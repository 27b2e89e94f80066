"""Smith normal form over the integers, exact and allocation-light.

Used to extract homology groups from integer presentation matrices.  Only
the diagonal is returned; callers that need transform matrices don't exist
in this package, which keeps the elimination free to pick pivots greedily.

A matrix with at most two columns takes a closed form from Smith's
determinantal divisors: d1 is the gcd of the entries and d1*d2 the gcd of
the 2x2 minors.  Every presentation of a Whitehead link surgery has two
columns, so this covers each Smith form that `verify` computes.

Wider matrices go through elimination, which only diagonalizes; since
diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)), a closing pass over
pairs of pivots turns the diagonal into the divisibility chain without
touching the matrix again.

The order of a finite H1 is |det| of its square presentation, which
`determinant` computes by fraction-free (Bareiss) elimination: every
division is exact, so the entries stay minors of the input and never
become fractions.
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    `rows` is a list of equal-length lists of ints (possibly empty).  Returns
    the list of nonnegative diagonal entries d1 | d2 | ... | dk (divisibility
    chain, zeros excluded), of length rank(M).
    """
    ncols = len(rows[0]) if rows else 0
    if ncols == 1:
        (column,) = zip(*rows)
        d = gcd(*column)
        return [d] if d else []
    if ncols == 2:
        return _two_column_form(rows)
    m = [list(r) for r in rows]
    nrows = len(m)
    diag = []
    top = 0  # first active row/col; everything above-left is finished
    while True:
        # find the nonzero entry of least absolute value in the active block
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        m[top], m[bi] = m[bi], m[top]
        for r in m:
            r[top], r[bj] = r[bj], r[top]
        pivot = m[top][top]
        # clear the pivot row and column by Euclidean steps
        dirty = False
        for i in range(top + 1, nrows):
            if m[i][top] != 0:
                f = m[i][top] // pivot
                for j in range(top, ncols):
                    m[i][j] -= f * m[top][j]
                if m[i][top] != 0:
                    dirty = True
        for j in range(top + 1, ncols):
            if m[top][j] != 0:
                f = m[top][j] // pivot
                for i in range(top, nrows):
                    m[i][j] -= f * m[i][top]
                if m[top][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a smaller pivot and repeat
        diag.append(abs(pivot))
        top += 1
    # diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)), so one pass
    # over the pairs turns the pivots into the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


def _two_column_form(rows):
    """The Smith diagonal of a two-column matrix from its determinantal
    divisors, in one pass over the rows."""
    # Euclid steps on the first column fold each row into a basis
    # [[a, b], [0, c]] of the row lattice; row operations keep both the
    # gcd of the entries and the gcd of the 2x2 minors, which is |a*c|;
    # taking b mod c keeps b from growing with the number of rows
    a = b = c = 0
    for x, y in rows:
        while x:
            f = a // x
            a, b, x, y = x, y, a - f * x, b - f * y
        c = gcd(c, y)
        if c:
            b %= c
    d1 = gcd(a, b, c)
    minors = abs(a * c)
    if minors:
        return [d1, minors // d1]
    return [d1] if d1 else []


def determinant(rows):
    """Determinant of a square integer matrix, by Bareiss elimination.

    After step k every entry of the active block is a (k+1)x(k+1) minor of
    the input, and the division by the previous pivot is exact (Sylvester's
    identity), so the arithmetic stays in the integers throughout.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError(f"determinant of a non-square {n}-row matrix")
    if n == 2:  # the closed form; every presentation `verify` builds is 2x2
        (a, b), (c, d) = rows
        return a * d - b * c
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k]
        for r in m[k + 1:]:
            f = r[k]
            for j in range(k + 1, n):
                r[j] = (r[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]
