import math

import pytest
from hypothesis import given, strategies as st

from lensknots.gridknots import (Grid1Knot, find_torus_grid_witness,
                                 grid1_order, torus_knot_sequence)

# The six closed-form sequence families of grid witnesses for the knotted
# torus knot types.  Each entry: parameter -> (r, q, da, db, qdot, sequence);
# the final residue is always 0 (the sequence closes up).
SEQUENCE_FAMILIES = {
    "{2,3} k>0": lambda k: (6 * k - 1, 2 * k - 1, 2, 3, 2 * k - 1,
                            [0, 1, 2, 2 * k + 1, 4 * k, 0]),
    "{2,3} k<0": lambda k: (6 * k + 1, 2 * k + 1, 2, 3, 4 * k,
                            [0, 1, 2, 4 * k + 2, 2 * k + 1, 0]),
    "{2,4} k>0": lambda k: (8 * k - 2, 4 * k + 1, 2, 4, 2 * k - 1,
                            [0, 1, 2, 2 * k + 1, 4 * k, 6 * k - 1, 0]),
    "{2,4} k<0": lambda k: (8 * k + 2, 4 * k - 1, 2, 4, 6 * k + 1,
                            [0, 1, 2, 6 * k + 3, 4 * k + 2, 2 * k + 1, 0]),
    "{3,3} k>0": lambda k: (9 * k - 3, 3 * k - 2, 3, 3, 3 * k - 2,
                            [0, 1, 2, 3, 3 * k + 1, 6 * k - 1, 0]),
    "{3,3} k<0": lambda k: (9 * k + 3, 3 * k + 2, 3, 3, 6 * k + 1,
                            [0, 1, 2, 3, 6 * k + 4, 3 * k + 2, 0]),
}


def test_sequence_families_match_closed_forms():
    for name, fam in SEQUENCE_FAMILIES.items():
        for k in range(1, 51):
            r, q, da, db, qdot, want = fam(k)
            assert torus_knot_sequence(r, qdot, da, db) == want, (name, k)
            # the witness search over {q, -q, q^-1, -q^-1} must also land
            found = find_torus_grid_witness(r, q, da, db)
            assert found is not None, (name, k)
            # and qdot is one of the four candidates
            qinv = pow(q, -1, r)
            assert qdot % r in {q % r, (r - q) % r, qinv, (r - qinv) % r}


def test_sequence_rejections():
    # a {2,4} torus knot needs 8k-2 or 8k+2 crossings; 7 gives no witness
    assert find_torus_grid_witness(7, 1, 2, 4) is None
    # closing too early: repeated interior residue
    assert torus_knot_sequence(5, 2, 2, 4) is None
    # wrong endpoint
    assert torus_knot_sequence(11, 4, 2, 3) is None


def test_grid1_order():
    assert grid1_order(2, 5) == 5
    assert grid1_order(2, 6) == 3
    assert grid1_order(3, 6) == 2
    assert grid1_order(0, 6) == 1
    assert grid1_order(1, 0) == 0  # infinite order in S1xS2
    assert grid1_order(0, 0) == 1
    for k in range(1, 51):
        assert grid1_order(abs(3 * k - 1), 9 * k - 3) == 3
        assert grid1_order(abs(4 * k - 1), 8 * k - 2) == 2
        assert grid1_order(abs(-3 * k - 1), -9 * k - 3) == 3
        assert grid1_order(abs(-4 * k - 1), -8 * k - 2) == 2


def test_grid1_knot_object():
    knot = Grid1Knot(12, 5, 8)
    assert knot.homology_order == 3
    assert knot.n_along_other_curve == 4
    # counting along the other curve preserves the homology order
    assert grid1_order(knot.n_along_other_curve, 12) == 3
    with pytest.raises(AssertionError):
        Grid1Knot(12, 4, 1)  # q not a unit
    with pytest.raises(AssertionError):
        Grid1Knot(12, 5, 0)  # marking separation out of range
    with pytest.raises(AssertionError):
        Grid1Knot(12, 5, 12)


@given(st.integers(2, 60), st.integers(-60, 60), st.integers(1, 59))
def test_other_curve_order_invariance(r, q, n):
    if math.gcd(r, q) != 1 or not 1 <= n <= r - 1:
        return
    knot = Grid1Knot(r, q, n)
    m = knot.n_along_other_curve
    assert grid1_order(m, r) == knot.homology_order


@given(st.integers(2, 40), st.integers(1, 39), st.integers(1, 5),
       st.integers(1, 5))
def test_sequence_shape(r, qdot, da, db):
    """Any accepted sequence has the stated arithmetic structure."""
    if math.gcd(qdot, r) != 1:
        return
    seq = torus_knot_sequence(r, qdot, da, db)
    if seq is None:
        return
    assert len(seq) == da + db + 1
    assert seq[:da + 1] == list(range(da + 1))
    for i in range(1, db + 1):
        assert seq[da + i] == (da + i * qdot) % r
    assert seq[-1] == 0
    interior = seq[1:-1]
    assert len(set(interior)) == len(interior)
    assert 0 not in interior
