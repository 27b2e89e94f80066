import collections
import dataclasses
import json
import math
import subprocess
import sys

import pytest

from lensknots import families, surgery
from lensknots.families import (FamilyId, FamilyInstance, coincidence_scan,
                                family_space, filling_table, gof_filling,
                                instantiate, torus_knot_types, verify)
from lensknots.lenspaces import LensSpace, Slope, is_homeomorphic, normalize
from lensknots.mcg import MappingWord, bundle_h1, trace

from conftest import child_env


def test_instantiate_examples():
    inst = instantiate("I", 1)
    assert inst.space == LensSpace(5, 1)
    assert inst.order_s == 5
    assert inst.core_index == 1
    assert str(inst.monodromy) == "x y"
    assert inst.torus_type == (2, 3)
    assert inst.grid_index == 2
    assert inst.surgery.coefficients == (Slope(-1, 1), Slope(-5, 1))

    assert instantiate("IV", -1).space == LensSpace(12, 5)
    assert instantiate("V", -1).space == LensSpace(10, 3)
    assert instantiate("II", 1).space == LensSpace(6, 1)
    assert instantiate(FamilyId.III, 2).space == normalize(15, 4)

    # beta is alpha's partner coefficient m + 1/k
    assert instantiate("III", 2).surgery.coefficients[1] == Slope(-5, 2)


def test_fibered_only_at_unit_k_for_iv_v():
    # fibered is derived from the monodromy, not stored
    assert "fibered" not in {f.name for f in dataclasses.fields(FamilyInstance)}
    for fam, word_minus, word_plus in (("IV", "x^4 y", "x^2 y"),
                                       ("V", "x^5 y", "x^3 y")):
        assert str(instantiate(fam, -1).monodromy) == word_minus
        assert str(instantiate(fam, 1).monodromy) == word_plus
        for k in (-3, -2, 2, 3):
            inst = instantiate(fam, k)
            assert not inst.fibered and inst.monodromy is None
            assert inst.torus_type is None or k == 1


def test_torus_types_constant_families():
    for k in (-5, -1, 1, 4):
        assert instantiate("I", k).torus_type == (2, 3)
        assert instantiate("II", k).torus_type == (2, 4)
        assert instantiate("III", k).torus_type == (3, 3)
    assert instantiate("IV", 1).torus_type == (2, 4)
    assert instantiate("V", 1).torus_type == (3, 3)


def test_family_vi():
    inst = instantiate("VI", rq=(7, 2))
    assert inst.space == LensSpace(7, 2)
    assert inst.order_s == 7
    assert inst.grid_index == 1
    assert not inst.fibered
    assert inst.surgery.name == "unknot"
    assert inst.surgery.coefficients == (Slope(-7, 2),)
    assert instantiate("VI", rq=(0, 1)).order_s == 0
    assert instantiate("VI", rq=(-6, 5)).space == LensSpace(6, 1)


def test_instantiate_validation():
    with pytest.raises(ValueError):
        instantiate("I", 0)
    with pytest.raises(ValueError):
        instantiate("I", True)
    with pytest.raises(ValueError):
        instantiate("VI", rq=(7, True))
    with pytest.raises(ValueError):
        instantiate("I", None)
    with pytest.raises(ValueError):
        instantiate("I", 1, rq=(5, 1))
    with pytest.raises(ValueError):
        instantiate("VI", 2)
    with pytest.raises(ValueError):
        instantiate("VI", rq=(1, 1))  # |r| = 1 is null-homologous
    with pytest.raises(ValueError):
        instantiate("VI", rq=(6, 3))
    with pytest.raises(ValueError):
        instantiate("VII", 1)


def test_verify_passes_across_the_atlas():
    for fam in ("I", "II", "III", "IV", "V"):
        for k in [k for k in range(-10, 11) if k]:
            report = verify(instantiate(fam, k))
            assert report.ok, (fam, k, [c for c in report.checks if not c.passed])
    for rq in ((7, 2), (6, 5), (0, 1), (-9, 2), (12, 5)):
        assert verify(instantiate("VI", rq=rq)).ok, rq


KNOTTED = ("I", "II", "III", "IV", "V")


def test_verify_runs_two_smith_forms():
    """One for the homology check and one for the core order: `h1` and
    `core_order` share the 2x2 Smith form of H1 through the one-link memo
    of `surgery._reduced_h1`, and `core_order` adds the core quotient's; the
    fibration check runs none.  The memo keeps only the last link, so a
    fresh process makes the same calls on its first pass over 200
    instances as on its second."""
    code = """if True:
        from lensknots import surgery
        from lensknots.families import instantiate, verify
        calls, snf = [], surgery.smith_normal_form
        surgery.smith_normal_form = lambda rows: calls.append(rows) or snf(rows)
        insts = [instantiate(fam, k) for fam in ("I", "II", "III", "IV", "V")
                 for k in range(-20, 21) if k]
        for _ in range(2):
            per_instance = []
            for inst in insts:
                calls.clear()
                assert verify(inst).ok
                per_instance.append(len(calls))
            print(len(insts), sum(per_instance), set(per_instance))
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "200 400 {2}\n" * 2


# --- the Alexander polynomial of the fibration check ---------------------------
#
# The Whitehead link as the 2-bridge link b(8,3): <a, b | a w = w a> with
# w = b a b^-1 a^-1 b^-1 a b and the longitude l = w a^-1 of a; filling a
# with slope p/q adds the relator a^-p l^q.  Words are tuples of
# (generator, exponent) syllables, and a Fox derivative is taken under
# a -> 1, b -> t, as {power of t: coefficient}.

W = (("b", 1), ("a", 1), ("b", -1), ("a", -1), ("b", -1), ("a", 1), ("b", 1))
LONGITUDE = W + (("a", -1),)
DEGREE = {"a": 0, "b": 1}


def inverse(word):
    return tuple((g, -e) for g, e in reversed(word))


def fox(word, x):
    """phi(d word / dx): a syllable x^e at a prefix of degree d adds
    t^d + ... + t^(d + (e-1) deg x) for e > 0, and minus
    t^(d - deg x) + ... + t^(d + e deg x) for e < 0."""
    poly, d = collections.Counter(), 0
    for g, e in word:
        if g == x:
            for i in (range(e) if e > 0 else range(e, 0)):
                poly[d + i * DEGREE[g]] += 1 if e > 0 else -1
        d += e * DEGREE[g]
    return {power: c for power, c in poly.items() if c}


def as_delta(poly):
    """Coefficients from the highest power down, with a positive lead."""
    top, low = max(poly), min(poly)
    coeffs = tuple(poly.get(power, 0) for power in range(top, low - 1, -1))
    return coeffs if coeffs[0] > 0 else tuple(-c for c in coeffs)


def exterior_delta(p, q):
    """Delta of W(p/q, .) by Fox calculus; the commutator relator and every
    derivative in b vanish, so the a-derivative of the filling relator is
    the one entry of the Alexander matrix."""
    commutator = (("a", 1),) + W + (("a", -1),) + inverse(W)
    filling = (("a", -p),) + LONGITUDE * q
    assert fox(commutator, "a") == fox(commutator, "b") == fox(filling, "b") == {}
    return as_delta(fox(filling, "a"))


def test_alexander_closed_form_is_the_fox_derivative():
    slopes = [(p, q) for p in range(-40, 41) for q in range(41) if math.gcd(p, q) == 1]
    assert len(slopes) == 1961
    for p, q in slopes:
        assert families._alexander(Slope.make(p, q)) == exterior_delta(p, q), (p, q)
    # the fibered exterior of W(-n, .) has monodromy x^n y
    for n in range(1, 31):
        tr = trace(MappingWord.parse(f"x^{n} y").matrix())
        assert exterior_delta(-n, 1) == (1, -tr, 1), n


def test_passing_fibration_check_has_equal_h1s():
    """Over hand-made fibered Whitehead instances, every pass of the
    fibration check has H1 of the exterior equal to H1 of the bundle: the
    H1 comparison it replaces would fail none of them.  Exactly W(-n, .)
    with x^n y and W(n, .) with x^n y^-1 pass."""
    base = instantiate("I", 1)
    slopes = {Slope.make(a, b) for a in range(-12, 13) for b in range(1, 7)}
    fibers = {}  # each word, and the slope of the filling it should pass with
    for n in range(-6, 7):
        fibers[MappingWord.parse(f"x^{n} y")] = Slope.make(-n, 1)
        fibers[MappingWord.parse(f"x^{n} y^-1")] = Slope.make(n, 1)
    words = [*fibers, MappingWord.parse("x y x y x y"), MappingWord(())]  # -I, identity
    passed = set()
    for slope in slopes:
        for core in (0, 1):
            coeffs = [slope, slope]
            coeffs[core] = "1"
            link = surgery.whitehead(*coeffs)
            coeffs[core] = None
            exterior = surgery.h1(surgery.FramedLink.make(link.linking, coeffs))
            for word in words:
                inst = dataclasses.replace(base, surgery=link, core_index=core,
                                           monodromy=word)
                if families._check_fibration(inst)[0]:
                    assert exterior == bundle_h1(word), (slope, core, str(word))
                    passed.add((slope, core, word))
    assert passed == {(slope, core, word) for word, slope in fibers.items() for core in (0, 1)}
    # IV at k = -1 is W(-4, .) with x^4 y; -I has the same Delta, and only
    # its M - I, whose entries have gcd 2, tells them apart
    iv = instantiate("IV", -1)
    for word, g in (("x^4 y", 1), ("x y x y x y", 2)):
        inst = dataclasses.replace(iv, monodromy=MappingWord.parse(word))
        (check,) = [c for c in verify(inst).checks if c.name == "fibration"]
        assert check.passed is (g == 1), word
        assert check.detail == ("exterior Delta = (1, 2, 1), monodromy Delta = (1, 2, 1), "
                                f"gcd of M - I = {g}")


def test_verify_catches_corruption():
    good = instantiate("I", 1)

    wrong_order = dataclasses.replace(good, order_s=4)
    report = verify(wrong_order)
    failed = {c.name for c in report.checks if not c.passed}
    assert "core_order" in failed and "grid" in failed

    wrong_space = dataclasses.replace(good, space=LensSpace(7, 1))
    failed = {c.name for c in verify(wrong_space).checks if not c.passed}
    assert "homology" in failed and "linking_form" in failed

    wrong_word = dataclasses.replace(good, monodromy=MappingWord.parse("x^2 y"))
    failed = {c.name for c in verify(wrong_word).checks if not c.passed}
    assert "fibration" in failed

    wrong_type = dataclasses.replace(good, torus_type=(2, 4))
    failed = {c.name for c in verify(wrong_type).checks if not c.passed}
    assert "grid" in failed

    wrong_grid = dataclasses.replace(good, grid_index=3)
    failed = {c.name for c in verify(wrong_grid).checks if not c.passed}
    assert "grid" in failed


def test_member_past_digit_limit_raises_one_named_error(monkeypatch):
    """verify renders only the label, so a parameter past the digit limit
    raises Python's own ValueError, which names sys.set_int_max_str_digits,
    before any check runs; so does to_dict.  At k = 9 * 10**4299 the
    parameter fits in 4,300 digits and p = 6k-1 does not: verify returns
    the verdicts as computed, the details that print a number as long as p
    read as the exception, and to_dict raises."""
    named = r"^Exceeds the limit \(4300 digits\).*sys\.set_int_max_str_digits"
    huge, big = instantiate("II", -10**5000), instantiate("I", 9 * 10**4299)
    checked = []
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)  # no limit
        want = verify(big)
        rendered = [c.detail for c in want.checks]
        sys.set_int_max_str_digits(4300)
        report = verify(big)
        details = [c.detail for c in report.checks]
        for inst in (huge, big):
            with pytest.raises(ValueError, match=named):
                inst.to_dict()
        monkeypatch.setattr(families, "_run_checks", checked.append)
        with pytest.raises(ValueError, match=named):
            verify(huge)
    finally:
        sys.set_int_max_str_digits(limit)
    assert checked == []
    assert report.label == want.label and report.ok
    assert [c.passed for c in report.checks] == [c.passed for c in want.checks]
    long = {"homology", "core_order", "grid", "linking_form"}
    for check, detail, full in zip(report.checks, details, rendered):
        if check.name in long:
            assert len(full) > 4300, check.name
            assert detail.startswith("exception: ValueError('Exceeds the limit"), detail
        else:
            assert detail == full, check.name


def test_unrenderable_detail_reads_as_its_error():
    """A number past the digit limit in a hand-made instance leaves the
    verdicts as computed, and its detail reads as the ValueError: neither
    verify nor to_dict raises."""
    inst = dataclasses.replace(instantiate("I", 3), grid_index=10**5000)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        report = verify(inst)
        (grid,) = [c for c in report.checks if c.name == "grid"]
        assert not grid.passed and not report.ok
        assert grid.detail.startswith("exception: ValueError('Exceeds the limit"), grid.detail
        (entry,) = [c for c in report.to_dict()["checks"] if c["name"] == "grid"]
        assert entry == {"name": "grid", "passed": False, "detail": grid.detail}
    finally:
        sys.set_int_max_str_digits(limit)


def test_report_shape():
    report = verify(instantiate("II", -2))
    assert report.ok and report.label == "II k=-2"
    d = report.to_dict()
    assert d["schema_version"] == 1 and d["ok"] is True
    assert {c["name"] for c in d["checks"]} == {
        "homology", "core_order", "fibration", "grid", "linking_form",
        "torus_type"}


def test_round_trip():
    """The dict to_dict writes holds only JSON values, so it reads back from
    JSON unchanged, and its family and parameter rebuild the member."""
    members = [*(instantiate(f, k) for f in ("I", "II", "III", "IV", "V")
                 for k in (-1, 1, 7, 10**15, 1 - 10**15)),
               *(instantiate("VI", rq=rq) for rq in ((7, 2), (-9, 2), (9, 2), (0, 1)))]
    for inst in members:
        d = inst.to_dict()
        assert json.loads(json.dumps(d)) == d
        assert instantiate(d["family"], k=d["k"], rq=d["rq"]) == inst


def test_filling_table_contents():
    rows = filling_table()
    assert len(rows) == 4
    assert {r.link for r in rows} == {"whitehead", "unknot"}
    # the whitehead row whose surgery (alpha, beta + 1/k) an instance uses
    # predicts its space from the row's linear p = a*k + b and q = c*k + d
    for fam in ("I", "II", "III"):
        for k in (-4, 1, 5):
            inst = instantiate(fam, k)
            (row,) = [row for row in rows if row.link == "whitehead"
                      and inst.surgery.coefficients == (
                          Slope(row.alpha, 1), Slope.make(row.beta * k + 1, k))]
            (a, b), (c, d) = row.p, row.q
            assert inst.space == normalize(a * k + b, c * k + d), (fam, k)


def linking_form(inst):
    (check,) = [c for c in verify(inst).checks if c.name == "linking_form"]
    return check


def test_linking_form_matches_the_grid_index_and_q():
    """p*lk(K,K) = -n^2 q^-1 for every member of I-V but I at k = -1, L(7,2),
    where it is n^2 q."""
    for fam in KNOTTED:
        for k in [k for k in range(-30, 31) if k] + [10**15, -10**40]:
            inst = instantiate(fam, k)
            p, q, n = inst.space.order, inst.space.q, inst.grid_index
            want = n * n * q if (fam, k) == ("I", -1) else -n * n * pow(q, -1, p)
            check = linking_form(inst)
            assert check.passed, (fam, k, check)
            assert check.detail.startswith(f"p*lk(K,K) = {want % p} mod {p},"), (fam, k)


def test_linking_form_edge_inputs():
    s1xs2 = linking_form(instantiate("VI", rq=(0, 1)))
    assert s1xs2.passed and "no torsion linking form" in s1xs2.detail

    good = instantiate("I", 1)  # L(5,1), W(-1, -5) with core 2
    for link, named in ((surgery.chain3("-1", "-5", "1"), "components link"),
                        (surgery.whitehead("-1", "0"), "core slope 0 does not divide"),
                        (surgery.whitehead("-1", "-7"), "core slope -7 does not divide")):
        check = linking_form(dataclasses.replace(good, surgery=link))
        assert not check.passed and check.detail.startswith(named), check


# the check that must catch a mutation of each FamilyForm field
GUARDS = {"alpha": "homology", "beta": "homology", "p": "homology", "q": "linking_form",
          "core": "core_order", "s": "core_order", "grid": "grid", "torus": "grid",
          "twists": "fibration", "sporadic": "fibration"}
FILLING = ("alpha", "beta", "p", "q")


def _mutants():
    """Every single-field mutation of _FORMS: +-1 on an int or on one entry
    of a pair, and a flip of core or sporadic.  A filling field (alpha,
    beta, p, q) is mutated in every family sharing the filling, any other
    field in one family."""
    shared = {}
    for fam, form in families._FORMS.items():
        shared.setdefault(tuple(getattr(form, f) for f in FILLING), []).append(fam)
    cases = []
    for field in (f.name for f in dataclasses.fields(families.FamilyForm)):
        groups = shared.values() if field in FILLING else [[f] for f in families._FORMS]
        for fams in groups:
            name = "+".join(f.value for f in fams) + "." + field
            value = getattr(families._FORMS[fams[0]], field)
            if field in ("core", "sporadic"):
                flipped = (not value) if field == "sporadic" else 1 - value
                cases.append((fams, field, flipped, f"{name}={flipped}"))
            elif isinstance(value, int):
                cases += [(fams, field, value + d, f"{name}{d:+d}") for d in (1, -1)]
            else:
                cases += [(fams, field, value[:i] + (value[i] + d,) + value[i + 1:],
                           f"{name}[{i}]{d:+d}") for i in (0, 1) for d in (1, -1)]
    return [pytest.param(fams, field, value, id=name) for fams, field, value, name in cases]


@pytest.mark.parametrize("fams, field, value", _mutants())
def test_verify_catches_every_closed_form_mutant(monkeypatch, fams, field, value):
    """verify over k in -20..20 fails on each of the 126 mutants, in the
    check GUARDS names for its field; a wrong q where p and q share a
    factor at every k fails in instantiate instead.  A sporadic flip on
    I-III fails fibration: their Delta is monic at every k, so a member
    marked not fibered does not pass."""
    for fam in fams:
        monkeypatch.setitem(families._FORMS, fam,
                            dataclasses.replace(families._FORMS[fam], **{field: value}))
    caught, built = set(), False
    for fam in fams:
        for k in [k for k in range(-20, 21) if k]:
            try:
                inst = instantiate(fam, k)
            except ValueError:  # families._verify_line prints FAIL for it
                caught.add("instantiate")
                continue
            built = True
            caught |= {c.name for c in verify(inst).checks if not c.passed}
    assert (GUARDS[field] in caught) if built else (caught == {"instantiate"}), caught


def test_every_closed_form_field_is_mutated():
    counts = collections.Counter(case.values[1] for case in _mutants())
    assert counts == {"alpha": 6, "beta": 6, "p": 12, "q": 12, "core": 5, "s": 20,
                      "grid": 20, "torus": 20, "twists": 20, "sporadic": 5}


def verify_fails_somewhere(fams):
    """Whether verify fails a check, or instantiate raises, for some member
    of the families with 0 < |k| <= 40."""
    for fam in fams:
        for k in [k for k in range(-40, 41) if k]:
            try:
                inst = instantiate(fam, k)
            except ValueError:
                return True
            if not verify(inst).ok:
                return True
    return False


def _mirror_mutants():
    """Both entries of p, or of q, negated: the filling of the mirror space.
    A filling is mutated in every family sharing it, and V's also alone."""
    signed = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 11: linking_form checks the linking form only up to sign"))
    order_two = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "V's core has order 2, so its self-linking is the same for both signs"))
    groups = [(("I",), signed), (("II", "V"), signed), (("III", "IV"), signed),
              (("V",), order_two)]
    return [pytest.param(fams, field, id="+".join(fams) + f".{field}=-{field}", marks=mark)
            for fams, mark in groups for field in ("p", "q")]


@pytest.mark.parametrize("fams, field", _mirror_mutants())
def test_verify_catches_mirror_mutant(monkeypatch, fams, field):
    for fam in fams:
        form = families._FORMS[FamilyId(fam)]
        mirrored = tuple(-x for x in getattr(form, field))
        monkeypatch.setitem(families._FORMS, FamilyId(fam),
                            dataclasses.replace(form, **{field: mirrored}))
    assert verify_fails_somewhere(fams)


def test_verify_catches_inverted_monodromy_twist(monkeypatch):
    """Every monodromy x^n y built as x^n y^-1, whose bundle has the same H1
    but trace 2 + n in place of 2 - n."""
    word = families._word
    monkeypatch.setattr(families, "_word", lambda syllables: word(
        tuple((g, -e if g == "y" else e) for g, e in syllables)))
    if str(instantiate("I", 1).monodromy) != "x y^-1":
        pytest.fail("the twist was not inverted")  # not an expected failure
    assert verify_fails_somewhere(KNOTTED)


def test_family_vi_linking_form_reads_q_inverse():
    """The orientation convention of VI: -r/q surgery on the unknot has
    p*lk(K,K) = q^-1 mod r, for every coprime (r, q) with 2 <= r <= 50 and
    |q| <= 3r."""
    cases = [(r, q) for r in range(2, 51) for q in range(-3 * r, 3 * r + 1)
             if math.gcd(r, q) == 1]
    assert len(cases) == 4638
    for r, q in cases:
        detail = linking_form(instantiate("VI", rq=(r, q))).detail
        assert detail.startswith(f"p*lk(K,K) = {pow(q, -1, r)} mod {r},"), (r, q, detail)


def test_gof_fillings():
    want = [normalize(n, 1) for n in range(1, 6)]
    got = [gof_filling(f) for f in ("I", "II", "III", "IV", "V")]
    assert got == want


def test_coincidences():
    found = coincidence_scan(12)
    assert found == [((FamilyId.II, 1), (FamilyId.III, 1))]
    assert not any(FamilyId.I in (a[0], b[0]) for a, b in found)
    # the II/III coincidence is L(6,5) = L(6,1)
    assert family_space("II", 1) == family_space("III", 1) == LensSpace(6, 1)


def test_coincidence_scan_matches_nested_loop():
    fams = (FamilyId.I, FamilyId.II, FamilyId.III)
    top = 60
    brute = [((f, k), (g, l))
             for i, f in enumerate(fams) for g in fams[i + 1:]
             for k in range(1, top + 1) for l in range(1, top + 1)
             if is_homeomorphic(family_space(f, k), family_space(g, l))]
    for maxk in range(1, top + 1):
        # the nested loop up to maxk is the one up to top, cut to k, l <= maxk
        want = [p for p in brute if p[0][1] <= maxk and p[1][1] <= maxk]
        assert coincidence_scan(maxk) == want, maxk
    with pytest.raises(ValueError):
        coincidence_scan(0)


def test_torus_knot_types():
    assert torus_knot_types() == {(2, 3), (2, 4), (3, 3)}
