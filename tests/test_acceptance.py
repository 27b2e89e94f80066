"""Acceptance battery.

Eleven criteria, one test each, run in order: lens space arithmetic,
surgery homology and core orders across the atlas, blow-down
equivalences, monodromy classes and bundle homology, the grid sequence
ladders, torus types, the arc system censuses, the five fillings of the
genus-one fibered knots, and the CLI round trip with a check that a
corrupted closed form makes `verify` exit 1.  Every test prints one
"ACCEPTANCE n: PASS/FAIL" line (visible with pytest -s or -rP); the test
outcome carries the same information for plain runs.
"""

import dataclasses
import functools
import random
from fractions import Fraction

import lensknots.families as families
from lensknots.cli import run
from lensknots.families import (FamilyId, coincidence_scan, gof_filling,
                                instantiate, torus_knot_types)
from lensknots.fatgraph import ArcSystemConfig, enumerate_configs, faces
from lensknots.gridknots import (find_torus_grid_witness, grid1_order,
                                 torus_knot_sequence)
from lensknots.lenspaces import LensSpace, Slope, is_homeomorphic, normalize
from lensknots.mcg import (NTClass, bundle_h1, classify, evaluate,
                           lens_filling_word, mat_mul)
from lensknots.surgery import blow_down, chain3, core_order, h1, whitehead
from test_surgery import reference_core_order

KS = [k for k in range(-50, 51) if k != 0]


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL")
                raise
            print(f"ACCEPTANCE {n}: PASS")
        return wrapper
    return deco


@criterion(1)
def test_criterion_01_lens_space_arithmetic():
    assert is_homeomorphic(LensSpace(6, 1), normalize(6, 5))
    # q = 3k-2 is self-inverse mod 9k-3, which is why families III and IV
    # land in the same space with either core
    for k in KS:
        assert (3 * k - 2) ** 2 % abs(9 * k - 3) == 1 % abs(9 * k - 3)
    found = coincidence_scan(50)
    assert found == [((FamilyId.II, 1), (FamilyId.III, 1))]
    assert not any(FamilyId.I in (a[0], b[0]) for a, b in found)


@criterion(2)
def test_criterion_02_surgery_homology():
    orders = {"I": (6, -1), "II": (8, -2), "III": (9, -3), "IV": (9, -3),
              "V": (8, -2)}
    for fam, (a, b) in orders.items():
        for k in [k for k in range(-20, 21) if k != 0]:
            g = h1(instantiate(fam, k).surgery)
            assert g.rank == 0 and g.torsion == (abs(a * k + b),)


@criterion(3)
def test_criterion_03_core_orders():
    def xgcd(a, b):
        old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
        while r:
            qt = old_r // r
            old_r, r = r, old_r - qt * r
            old_s, s = s, old_s - qt * s
            old_t, t = t, old_t - qt * t
        return old_r, old_s, old_t

    orders = {"I": lambda k: abs(6 * k - 1), "II": lambda k: abs(4 * k - 1),
              "III": lambda k: abs(3 * k - 1), "IV": lambda k: 3,
              "V": lambda k: 2}
    for fam, want in orders.items():
        for k in [k for k in range(-20, 21) if k != 0]:
            inst = instantiate(fam, k)
            assert core_order(inst.surgery, inst.core_index) == want(k)
            if abs(k) > 8:
                continue
            # the answer must not depend on which Bezout solution is used
            slope = inst.surgery.coefficients[inst.core_index]
            g, u, v = xgcd(slope.p, slope.q)
            assert g == 1
            c, d = -v, u
            assert slope.p * d - slope.q * c == 1
            one = reference_core_order(inst.surgery, inst.core_index, (c, d))
            two = reference_core_order(inst.surgery, inst.core_index,
                                       (c + 3 * slope.p, d + 3 * slope.q))
            assert one == two == want(k)


@criterion(4)
def test_criterion_04_blow_down():
    rng = random.Random(20260816)
    for _ in range(100):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        b = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        chain = chain3(a, b, 1)
        blown = blow_down(chain, 2)
        assert blown.num_components == 2
        assert blown.lk(0, 1) == 0
        assert blown.coefficients == (Slope.from_rational(a - 1),
                                      Slope.from_rational(b - 1))
        assert h1(chain) == h1(blown) == h1(whitehead(a - 1, b - 1))


@criterion(5)
def test_criterion_05_monodromy_classes():
    eye = ((1, 0), (0, 1))
    want = {1: (NTClass.PERIODIC, 6), 2: (NTClass.PERIODIC, 4),
            3: (NTClass.PERIODIC, 3), 4: (NTClass.REDUCIBLE, None),
            5: (NTClass.PSEUDO_ANOSOV, None)}
    for p, (kind, order) in want.items():
        got = classify(f"x^{p} y")
        assert got.kind is kind
        assert got.order == order
        if order is not None:
            # recompute the order by raw matrix powers
            m = evaluate(f"x^{p} y")
            acc, n = m, 1
            while acc != eye:
                acc, n = mat_mul(acc, m), n + 1
            assert n == order


@criterion(6)
def test_criterion_06_bundle_homology():
    for p in range(1, 31):
        assert bundle_h1(f"x^{p} y") == h1(whitehead(-p, None))
    for k in range(-30, 31):
        assert evaluate(lens_filling_word(k, 0)) == evaluate(f"x^{k} y")


@criterion(7)
def test_criterion_07_grid_sequences():
    ladders = [
        lambda k: (6 * k - 1, 2 * k - 1, 2, 3, 2 * k - 1,
                   [0, 1, 2, 2 * k + 1, 4 * k, 0]),
        lambda k: (6 * k + 1, 2 * k + 1, 2, 3, 4 * k,
                   [0, 1, 2, 4 * k + 2, 2 * k + 1, 0]),
        lambda k: (8 * k - 2, 4 * k + 1, 2, 4, 2 * k - 1,
                   [0, 1, 2, 2 * k + 1, 4 * k, 6 * k - 1, 0]),
        lambda k: (8 * k + 2, 4 * k - 1, 2, 4, 6 * k + 1,
                   [0, 1, 2, 6 * k + 3, 4 * k + 2, 2 * k + 1, 0]),
        lambda k: (9 * k - 3, 3 * k - 2, 3, 3, 3 * k - 2,
                   [0, 1, 2, 3, 3 * k + 1, 6 * k - 1, 0]),
        lambda k: (9 * k + 3, 3 * k + 2, 3, 3, 6 * k + 1,
                   [0, 1, 2, 3, 6 * k + 4, 3 * k + 2, 0]),
    ]
    for ladder in ladders:
        for k in range(1, 51):
            r, q, da, db, qdot, seq = ladder(k)
            assert torus_knot_sequence(r, qdot, da, db) == seq
            assert find_torus_grid_witness(r, q, da, db) is not None
    for k in KS:
        assert grid1_order(abs(3 * k - 1), 9 * k - 3) == 3
        assert grid1_order(abs(4 * k - 1), 8 * k - 2) == 2


@criterion(8)
def test_criterion_08_torus_types():
    assert torus_knot_types() == {(2, 3), (2, 4), (3, 3)}


@criterion(9)
def test_criterion_09_arc_enumeration():
    full = enumerate_configs(2, 3, require_max=True)
    assert [(c.s, c.counts) for c in full] == [
        (3, (3, 0, 0)), (5, (3, 1, 1)), (7, (3, 3, 1)), (9, (3, 3, 3))]
    assert len(enumerate_configs(2, 2)) == 5

    report = faces(ArcSystemConfig(3, 2, 1, 1, 1))
    assert report.polygon_census() == [3, 3]
    assert {d.color for d in report.disks} == {"amber", "blue"}
    assert report.annuli == ()

    report = faces(ArcSystemConfig(2, 2, 2, 0, 0))
    assert report.polygon_census() == [2]
    assert len(report.annuli) == 1


@criterion(10)
def test_criterion_10_five_fillings():
    got = [gof_filling(f) for f in ("I", "II", "III", "IV", "V")]
    assert got == [normalize(n, 1) for n in range(1, 6)]


@criterion(11)
def test_criterion_11_cli_verify_and_mutation():
    argv = ["verify", "--families", "all", "--k-range", "-20..20"]
    assert run(argv) == 0

    original = dict(families._FORMS)
    try:
        # spoil one closed form: the q column of family II
        families._FORMS[FamilyId.II] = dataclasses.replace(
            original[FamilyId.II], q=(4, -1))
        assert run(argv) == 1
        families._FORMS.update(original)

        # and one of a different shape: the core order column of family I
        families._FORMS[FamilyId.I] = dataclasses.replace(
            original[FamilyId.I], s=(6, 1))
        assert run(argv) == 1
    finally:
        families._FORMS.update(original)
    assert run(["verify", "--families", "I,II", "--k-range", "-2..2"]) == 0
