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

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Grid1Knot:
    """The n-th grid number one knot in L(r,q)."""

    r: int
    q: int
    n: int

    def __post_init__(self):
        assert self.r >= 2
        assert gcd(self.r, self.q) == 1
        assert 1 <= self.n <= self.r - 1

    @property
    def n_along_other_curve(self):
        return self.n * self.q % self.r

    @property
    def homology_order(self):
        return grid1_order(self.n, self.r)


def grid1_order(n, r):
    """Order of n times the core generator in H1(L(r,q)) = Z/r.

    Returns r // gcd(n, r); r = 0 stands for S1xS2, where any n != 0 has
    infinite order, encoded as 0.
    """
    r = abs(r)
    if r == 0:
        return 1 if n == 0 else 0
    return r // gcd(n, r)


def torus_knot_sequence(r, qdot, da, db):
    """Level sequence of a (da,db) torus knot candidate on the r-grid.

    The knot runs da steps of +1 followed by db steps of +qdot, giving
    residues [0, 1, ..., da, da + qdot, ..., da + db*qdot] mod r.  Returns
    the sequence when it closes up (last entry back to 0) with all interior
    entries distinct and nonzero, so the strands embed disjointly in the
    grid; returns None otherwise.
    """
    assert r >= 2 and gcd(qdot, r) == 1 and da >= 1 and db >= 1
    seq = list(range(da + 1))
    seq.extend((da + i * qdot) % r for i in range(1, db + 1))
    if seq[-1] != 0:
        return None
    interior = seq[1:-1]
    if 0 in interior or len(set(interior)) != len(interior):
        return None
    return seq


def find_torus_grid_witness(r, q, da, db):
    """Search for a slope qdot putting a (da,db) torus knot on the r/q grid.

    Candidates are tried in the fixed order q, -q, q^{-1}, -q^{-1} mod r,
    the four grid parameters equivalent to q under the symmetries of the
    diagram.  Returns (qdot, sequence) for the first success, else None.
    """
    assert r >= 2 and gcd(r, q) == 1
    qinv = pow(q, -1, r)
    for qdot in (q % r, (r - q) % r, qinv, (r - qinv) % r):
        seq = torus_knot_sequence(r, qdot, da, db)
        if seq is not None:
            return qdot, seq
    return None
