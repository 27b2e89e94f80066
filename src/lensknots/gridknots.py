"""Grid number one knots in lens spaces.

A grid number one diagram in L(r,q) is a single marked row and column on
the standard genus-one Heegaard diagram whose curves meet in r points.
The knot it presents is determined by the separation n of its two markings
along one of the curves; its intersection levels with a Heegaard disk form
a cyclic sequence of residues mod r.  The combinatorics below decide when
such a knot is a torus knot lying on the Heegaard torus and compute the
order of its homology class.

Convention: the n-th grid number one knot represents n times the core
generator of H1(L(r,q)) = Z/r.  Read along the other curve the same knot
is the (n*q mod r)-th, and the order is the same either way.
"""

from __future__ import annotations

from math import gcd

from .lenspaces import INFINITE, _q_orbit


def grid1_order(n, r):
    """Order of n times the core generator in H1(L(r,q)) = Z/r: r // gcd(n, r).

    r = 0 stands for S1xS2, where any n != 0 has INFINITE order."""
    if not (type(n) is type(r) is int):
        raise ValueError(f"grid1_order needs ints n and r, got n={n!r}, r={r!r}")
    r = abs(r)
    if r == 0:
        return 1 if n == 0 else INFINITE
    return r // gcd(n, r)


def _check_grid(r, q, da, db):
    if (not (type(r) is type(q) is type(da) is type(db) is int)
            or r < 2 or gcd(r, q) != 1 or da < 1 or db < 1):
        raise ValueError(f"grid needs ints r >= 2, q with gcd(r,q) = 1 and da, db >= 1, "
                         f"got r={r!r}, q={q!r}, da={da!r}, db={db!r}")


def torus_knot_sequence(r, qdot, da, db):
    """Level sequence of a (da,db) torus knot candidate on the r-grid.

    The knot runs da steps of +1 followed by db steps of +qdot, giving
    residues [0, 1, ..., da, da + qdot, ..., da + db*qdot] mod r.  Returns
    the sequence when it closes up (last entry back to 0) with all interior
    entries distinct and nonzero, so the strands embed disjointly in the
    grid; returns None otherwise.
    """
    _check_grid(r, qdot, da, db)
    return _sequence(r, qdot, da, db) if _closes(r, qdot, da, db) else None


def _closes(r, qdot, da, db):
    """Whether the candidate of torus_knot_sequence closes up and embeds,
    once its arguments are checked; no list is built."""
    # the da + db - 1 interior residues must be distinct and nonzero mod r,
    # and the last one must be 0.  Once da + db <= r, the first da of them
    # are 1..da, and the other db - 1, x = da + i*qdot for 0 < i < db, are
    # distinct since qdot is a unit; so the strands embed unless one of
    # those lands in 0..da.  As da < r, [x mod r <= da] is
    # floor(x/r) - floor((x-da-1)/r), and its sum over i is two floor sums
    if da + db > r or (da + db * qdot) % r:
        return False
    q = qdot % r
    return _floor_sum(db - 1, r, q, q + da) == _floor_sum(db - 1, r, q, q - 1)


def _floor_sum(n, m, a, b):
    """The sum of floor((a*i + b)/m) over 0 <= i < n, for n, b >= 0 and
    0 <= a < m, in O(log m) steps (the floor_sum of the AtCoder Library)."""
    total = n * (b // m)
    y = a * n + b % m
    while y >= m:
        # the lattice points under the line, counted with the axes swapped
        n, b = y // m, y % m
        total += n * (n - 1) // 2 * (m // a) + n * (b // a)
        m, a, b = a, m % a, b % a
        y = a * n + b
    return total


def _sequence(r, qdot, da, db):
    """The residues of a candidate, built only once it is a witness."""
    seq = list(range(da + 1))
    seq.extend((da + i * qdot) % r for i in range(1, db + 1))
    return seq


def torus_grid_slope(r, q, da, db):
    """The slope qdot of find_torus_grid_witness(r, q, da, db), or None,
    without its sequence."""
    _check_grid(r, q, da, db)
    # each member of the orbit is a unit mod r, so it is not checked again
    for qdot in _q_orbit(r, q):
        if _closes(r, qdot, da, db):
            return qdot
    return None


def find_torus_grid_witness(r, q, da, db):
    """Search for a slope qdot putting a (da,db) torus knot on the r/q grid.

    Candidates are tried in the fixed order q, -q, q^{-1}, -q^{-1} mod r,
    the four grid parameters equivalent to q under the symmetries of the
    diagram.  Returns (qdot, sequence) for the first success, else None.
    """
    qdot = torus_grid_slope(r, q, da, db)
    return None if qdot is None else (qdot, _sequence(r, qdot, da, db))
