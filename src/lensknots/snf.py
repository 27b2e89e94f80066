"""Smith normal form over the integers, exact and allocation-light.

Used to extract homology groups from integer presentation matrices.  Only
the diagonal is returned; callers that need transform matrices don't exist
in this package, which keeps the elimination free to pick pivots greedily.
"""

from __future__ import annotations


def smith_normal_form(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    `rows` is a list of equal-length lists of ints (possibly empty).  Returns
    the list of nonnegative diagonal entries d1 | d2 | ... | dk (divisibility
    chain, zeros excluded), of length rank(M).
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
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
        # pivot must divide the remaining block for a valid chain
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % pivot != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            for j in range(top, ncols):
                m[top][j] += m[offender][j]
            continue
        # every later pivot lies in the block this pivot divides, so the
        # diagonal is a divisibility chain as it stands
        diag.append(abs(pivot))
        top += 1
    return diag
