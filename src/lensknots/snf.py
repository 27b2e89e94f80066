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
"""

from __future__ import annotations

from math import gcd


def smith_normal_form(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    `rows` is a list of equal-length lists of ints (possibly empty); an
    entry that is not an int, a bool included, or a row whose length is
    not the first row's raises ValueError.  Returns the list of
    nonnegative diagonal entries d1 | d2 | ... | dk (divisibility chain,
    zeros excluded), of length rank(M).
    """
    ncols = len(rows[0]) if rows else 0
    # plain loops: this check runs on every Smith form that verify takes
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"every row needs {ncols} entries, as the first, got {row!r}")
        for v in row:
            if type(v) is not int:
                raise ValueError(f"matrix entries must be ints, got {v!r}")
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
