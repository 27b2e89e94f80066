import dataclasses

import pytest

from lensknots.families import (FamilyId, FamilyInstance, coincidence_scan,
                                family_space, filling_table, gof_filling,
                                instantiate, torus_knot_types, verify)
from lensknots.lenspaces import LensSpace, Slope, normalize
from lensknots.mcg import MappingWord


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


def test_verify_catches_corruption():
    good = instantiate("I", 1)

    wrong_order = dataclasses.replace(good, order_s=4)
    report = verify(wrong_order)
    failed = {c.name for c in report.checks if not c.passed}
    assert "core_order" in failed and "grid" in failed

    wrong_space = dataclasses.replace(good, space=LensSpace(7, 1))
    failed = {c.name for c in verify(wrong_space).checks if not c.passed}
    assert "homology" in failed and "filling_table" in failed

    wrong_word = dataclasses.replace(good, monodromy=MappingWord.parse("x^2 y"))
    failed = {c.name for c in verify(wrong_word).checks if not c.passed}
    assert "fibration" in failed

    wrong_type = dataclasses.replace(good, torus_type=(2, 4))
    failed = {c.name for c in verify(wrong_type).checks if not c.passed}
    assert "grid" in failed

    wrong_grid = dataclasses.replace(good, grid_index=3)
    failed = {c.name for c in verify(wrong_grid).checks if not c.passed}
    assert "grid" in failed


def test_report_shape():
    report = verify(instantiate("II", -2))
    assert report.ok and report.label == "II k=-2"
    d = report.to_dict()
    assert d["schema_version"] == 1 and d["ok"] is True
    assert {c["name"] for c in d["checks"]} == {
        "homology", "core_order", "fibration", "grid", "filling_table",
        "torus_type"}


def test_round_trip():
    for inst in (instantiate("I", 3), instantiate("IV", -1),
                 instantiate("V", 7), instantiate("VI", rq=(9, 2)),
                 instantiate("VI", rq=(0, 1))):
        assert FamilyInstance.from_dict(inst.to_dict()) == inst


def test_filling_table_contents():
    rows = filling_table()
    assert len(rows) == 4
    assert {r.link for r in rows} == {"whitehead", "unknot"}
    # the whitehead rows reproduce the family spaces
    for fam in ("I", "II", "III"):
        for k in (-4, 1, 5):
            inst = instantiate(fam, k)
            predicted = [row.space_for(inst) for row in rows]
            assert inst.space in [normalize(p.p, p.q) for p in predicted if p]


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


def test_torus_knot_types():
    assert torus_knot_types() == {(2, 3), (2, 4), (3, 3)}
