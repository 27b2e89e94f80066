import math
import time

import pytest
from hypothesis import assume, given, strategies as st

from lensknots import gridknots
from lensknots.cli import run
from lensknots.gridknots import (find_torus_grid_witness, grid1_order,
                                 torus_grid_slope, torus_knot_sequence)
from lensknots.lenspaces import INFINITE

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
    # the first run wraps past r: residue 3 is 0 mod 3
    assert torus_knot_sequence(3, 1, 5, 1) is None


def test_grid1_order():
    assert grid1_order(2, 5) == 5
    assert grid1_order(2, 6) == 3
    assert grid1_order(3, 6) == 2
    assert grid1_order(0, 6) == 1
    assert grid1_order(1, 0) == INFINITE  # S1xS2
    assert grid1_order(0, 0) == 1
    for k in range(1, 51):
        assert grid1_order(abs(3 * k - 1), 9 * k - 3) == 3
        assert grid1_order(abs(4 * k - 1), 8 * k - 2) == 2
        assert grid1_order(abs(-3 * k - 1), -9 * k - 3) == 3
        assert grid1_order(abs(-4 * k - 1), -8 * k - 2) == 2


def test_grid1_knot_object():
    """The 8th grid number one knot in L(12,5): read along the other curve it
    is the (8*5 mod 12) = 4th, and both readings have order 3."""
    r, q, n = 12, 5, 8
    assert grid1_order(n, r) == 3
    assert n * q % r == 4
    assert grid1_order(n * q % r, r) == 3


@given(st.integers(2, 60), st.integers(-60, 60), st.integers(1, 59))
def test_other_curve_order_invariance(r, q, n):
    """q is a unit mod r, so n*q mod r generates the same subgroup as n."""
    if math.gcd(r, q) != 1 or not 1 <= n <= r - 1:
        return
    assert grid1_order(n * q % r, r) == grid1_order(n, r)


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


def full_build_sequence(r, qdot, da, db):
    """Reference: build every residue mod r, then test the path."""
    seq = [i % r for i in range(da + 1)]
    seq.extend((da + i * qdot) % r for i in range(1, db + 1))
    interior = seq[1:-1]
    if seq[-1] != 0 or 0 in interior or len(set(interior)) != len(interior):
        return None
    return seq


@given(st.integers(2, 40), st.integers(-45, 45), st.integers(1, 45),
       st.integers(1, 45))
def test_sequence_matches_full_build(r, qdot, da, db):
    """The pigeonhole and closing checks made before the build change
    no answer."""
    assume(math.gcd(qdot, r) == 1)
    assert torus_knot_sequence(r, qdot, da, db) == full_build_sequence(
        r, qdot, da, db)


def test_sequence_matches_full_build_exhaustively():
    """Every unit qdot in -r..r with 2 <= r <= 24 and 1 <= da, db <= r + 1:
    the residues da + i*qdot, 0 < i < db, need no distinctness test."""
    cases = 0
    for r in range(2, 25):
        for qdot in [q for q in range(-r, r + 1) if math.gcd(q, r) == 1]:
            for da in range(1, r + 2):
                for db in range(1, r + 2):
                    assert torus_knot_sequence(r, qdot, da, db) == full_build_sequence(
                        r, qdot, da, db), (r, qdot, da, db)
                    cases += 1
    assert cases == 118302


def scan_closes(r, qdot, da, db):
    """Reference: the decision of _closes with its collision test made
    residue by residue, in O(db) time."""
    return not (da + db > r or (da + db * qdot) % r
                or any((da + i * qdot) % r <= da for i in range(1, db)))


def test_closes_matches_residue_scan_exhaustively():
    """Every unit qdot in -r..r with 2 <= r <= 30 and 1 <= da, db <= r + 1:
    the colliding residues counted by two floor sums are none exactly when
    the scan finds none."""
    cases = 0
    for r in range(2, 31):
        for qdot in [q for q in range(-r, r + 1) if math.gcd(q, r) == 1]:
            for da in range(1, r + 2):
                for db in range(1, r + 2):
                    assert gridknots._closes(r, qdot, da, db) == scan_closes(
                        r, qdot, da, db), (r, qdot, da, db)
                    cases += 1
    assert cases == 277022


@given(st.integers(61, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
       st.one_of(st.integers(1, 100), st.integers(1, 10 ** 30)), st.integers(1, 60))
def test_closes_matches_residue_scan_on_big_moduli(r, n, da, db):
    """Closing candidates on moduli up to 10^30: qdot = -da/db mod r puts
    the last residue at 0, so the collision count decides."""
    da = (da - 1) % (r - db) + 1  # so da + db <= r
    assume(math.gcd(db, r) == math.gcd(da, r) == 1)
    qdot = -da * pow(db, -1, r) % r + n * r  # any lift of the unit
    assert gridknots._closes(r, qdot, da, db) == scan_closes(r, qdot, da, db)


def test_floor_sum_matches_brute_force():
    for n in range(12):
        for m in range(1, 16):
            for a in range(m):
                for b in range(40):
                    assert gridknots._floor_sum(n, m, a, b) == sum(
                        (a * i + b) // m for i in range(n)), (n, m, a, b)


@given(st.integers(0, 80), st.integers(1, 10 ** 30), st.integers(0, 10 ** 30),
       st.integers(0, 10 ** 31))
def test_floor_sum_matches_brute_force_on_big_ints(n, m, a, b):
    a %= m
    assert gridknots._floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_colliding_candidate_is_refused_without_a_scan(capsys):
    """A closing candidate whose 50 million residues a scan took seconds to
    refuse: the floor sums take O(log r) steps."""
    start = time.perf_counter()
    assert run(["grid", "--r", "50000017", "--q", "21428579", "--da", "2",
                "--db", "50000010"]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "FAILURE\n"


def full_build_slope(r, q, da, db):
    """Reference: the first of q, -q, q^-1, -q^-1 mod r whose fully built
    sequence is a witness, or None."""
    qinv = pow(q, -1, r)
    return next((qdot for qdot in (q % r, -q % r, qinv, -qinv % r)
                 if full_build_sequence(r, qdot, da, db) is not None), None)


def test_slope_matches_witness_exhaustively():
    """The cases of test_sequence_matches_full_build_exhaustively, with the
    unit as q: the slope alone is the witness's, found by the same decision
    that torus_knot_sequence makes, and the full builds'."""
    cases = 0
    for r in range(2, 25):
        for q in [q for q in range(-r, r + 1) if math.gcd(q, r) == 1]:
            for da in range(1, r + 2):
                for db in range(1, r + 2):
                    slope = torus_grid_slope(r, q, da, db)
                    witness = find_torus_grid_witness(r, q, da, db)
                    assert slope == (None if witness is None else witness[0]), (r, q, da, db)
                    assert slope == full_build_slope(r, q, da, db), (r, q, da, db)
                    cases += 1
    assert cases == 118302


def test_verify_builds_no_grid_sequence(monkeypatch, capsys):
    """The grid check reads only the witness's slope: with the sequence
    builder refusing to run, a warm verify still passes every member."""
    argv = ["verify", "--families", "all", "--k-range", "-20..20"]
    assert run(argv) == 0
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("a grid sequence was built")

    monkeypatch.setattr(gridknots, "_sequence", refuse)
    assert run(argv) == 0
    *lines, last = capsys.readouterr().out.splitlines()
    assert last == "checked 200 instances: all ok"
    assert len(lines) == 200 and all(line.startswith("ok ") for line in lines)
    with pytest.raises(AssertionError):  # the patch is live where it applies
        find_torus_grid_witness(5, 1, 2, 3)


@pytest.mark.parametrize("args", [
    (1, 1, 2, 3),   # r < 2
    (0, 1, 1, 1),
    (6, 3, 2, 3),   # gcd(r, q) != 1
    (5, 1, 0, 3),   # da < 1
    (5, 1, 2, 0),   # db < 1
])
def test_bad_grid_arguments_raise_value_error(args):
    with pytest.raises(ValueError):
        torus_knot_sequence(*args)
    with pytest.raises(ValueError):
        find_torus_grid_witness(*args)
    with pytest.raises(ValueError):
        torus_grid_slope(*args)
