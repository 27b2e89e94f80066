import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from lensknots.fatgraph import (ArcSystemConfig, enumerate_configs, faces,
                                parity_check, parity_check_closed_form,
                                scharlemann_cycles)

DATA = pathlib.Path(__file__).parent / "data" / "figure_faces.json"


def load_cases():
    obj = json.loads(DATA.read_text())
    assert obj["schema_version"] == 1
    return obj["cases"]


def test_figure_transcriptions_replay():
    """The hand-worked face censuses of the small configurations."""
    for case in load_cases():
        cfg = ArcSystemConfig(case["s"], case["t"], *case["counts"],
                              offset=case["offset"])
        assert parity_check(cfg) == case["parity"], case["counts"]
        rep = faces(cfg)
        disks = sorted(
            ((r.circles[0].length, r.color, sorted(r.circles[0].corners))
             for r in rep.regions if r.kind == "disk"),
            key=lambda d: d[2])
        want = sorted(
            ((d["length"], d["color"], d["corners"]) for d in case["disks"]),
            key=lambda d: d[2])
        assert disks == want, case["counts"]
        annuli = [r for r in rep.regions if r.kind == "annulus"]
        if case["annulus"] is None:
            assert not annuli
        else:
            assert len(annuli) == 1
            circles = annuli[0].circles
            assert sorted(c.length for c in circles) == case["annulus"]["circle_lengths"]
            assert sorted(str(c.color) for c in circles) == sorted(
                str(c) for c in case["annulus"]["circle_colors"])
        got_sch = sorted((s.length, s.color) for s in scharlemann_cycles(rep))
        assert got_sch == sorted(tuple(s) for s in case["scharlemann"]), case["counts"]


def all_configs(max_edges=10, ts=(2, 4)):
    for t in ts:
        for s in range(1, 2 * max_edges // t + 1):
            if s * t % 2:
                continue
            e = s * t // 2
            if e > max_edges:
                continue
            for a in range(e + 1):
                for b in range(e - a + 1):
                    yield ArcSystemConfig(s, t, a, b, e - a - b, 0)


def test_parity_closed_form_agrees():
    for cfg in all_configs():
        assert parity_check(cfg) == parity_check_closed_form(cfg), cfg


def test_face_structure_invariants():
    """Slot coverage, Euler count, and the essential-circle dichotomy.

    Cutting a once-punctured torus along e disjoint arcs leaves regions of
    total Euler characteristic e - 1; disks contribute one each and the
    annulus none, so disks = e - 1 exactly.
    """
    for cfg in all_configs():
        rep = faces(cfg)
        slots = [p for circle in rep.circles for p in circle.out_slots]
        assert sorted(slots) == list(range(cfg.num_slots))
        disks = [r for r in rep.regions if r.kind == "disk"]
        annuli = [r for r in rep.regions if r.kind == "annulus"]
        assert len(disks) == cfg.num_edges - 1
        essential = [c for c in rep.circles if c.is_essential]
        assert len(essential) in (0, 2)
        assert len(annuli) == (1 if essential else 0)
        assert len(disks) + len(annuli) == len(rep.regions)


def test_census_invariant_under_rotation_and_offset():
    """Bundle rotation (a torus homeomorphism) and knot-point renumbering
    both preserve the multiset of face lengths."""

    def census(cfg):
        rep = faces(cfg)
        return (sorted(c.length for r in rep.regions if r.kind == "disk"
                       for c in r.circles),
                sum(1 for r in rep.regions if r.kind == "annulus"))

    for cfg in all_configs(max_edges=8):
        rotated = ArcSystemConfig(cfg.s, cfg.t, cfg.n_c, cfg.n_a, cfg.n_b, 0)
        assert census(rotated) == census(cfg)
        for off in range(1, cfg.t):
            shifted = ArcSystemConfig(cfg.s, cfg.t, *cfg.counts, offset=off)
            assert census(shifted) == census(cfg)


def test_offset_swaps_colors_at_t2():
    base = faces(ArcSystemConfig(3, 2, 1, 1, 1, 0))
    moved = faces(ArcSystemConfig(3, 2, 1, 1, 1, 1))
    swap = {"amber": "blue", "blue": "amber", None: None}
    assert sorted(str(swap[r.color]) for r in base.regions) == sorted(
        str(r.color) for r in moved.regions)


def test_build_and_validation():
    cfg = ArcSystemConfig(3, 2, 1, 1, 1)
    assert cfg.num_edges == 3 and cfg.num_slots == 6
    assert cfg.endpoint_word() == "A B C A B C"
    assert cfg.canonical() == cfg
    assert (ArcSystemConfig(4, 2, 1, 3, 0, offset=1).canonical()
            == ArcSystemConfig(4, 2, 3, 1, 0))
    with pytest.raises(ValueError):
        ArcSystemConfig(3, 2, 1, 1, 0)  # 2 arcs but s*t/2 = 3
    with pytest.raises(AssertionError):
        ArcSystemConfig(2, 3, 3, 0, 0)  # odd t
    with pytest.raises(AssertionError):
        ArcSystemConfig(0, 2, 0, 0, 0)


def test_scharlemann_cycle_definition():
    """Every reported cycle is a disk with equal corner sides and one
    label pair on consecutive knot points."""
    for cfg in all_configs(max_edges=9, ts=(2,)):
        rep = faces(cfg)
        for cycle in scharlemann_cycles(rep):
            assert cycle.length >= 1
            assert cycle.label_pair == frozenset({1, 2})
            assert cycle.color in ("amber", "blue")


def test_enumeration():
    four = enumerate_configs(2, 3, require_max=True)
    assert [(c.s, c.counts) for c in four] == [
        (3, (3, 0, 0)), (5, (3, 1, 1)), (7, (3, 3, 1)), (9, (3, 3, 3))]
    five = enumerate_configs(2, 2)
    assert [(c.s, c.counts) for c in five] == [
        (1, (1, 0, 0)), (2, (2, 0, 0)), (3, (1, 1, 1)),
        (4, (2, 2, 0)), (6, (2, 2, 2))]
    assert len(enumerate_configs(2, 1, require_max=True)) == 2
    # every enumerated configuration passes parity and respects the bound
    for cfg in enumerate_configs(2, 3) + enumerate_configs(4, 3):
        assert parity_check(cfg)
        assert max(cfg.counts) <= 3
        assert cfg == cfg.canonical()
    # restricting the s range is honored
    assert all(c.s <= 5 for c in enumerate_configs(2, 3, s_range=range(1, 6)))


@given(st.integers(1, 9), st.integers(0, 9), st.integers(0, 9),
       st.integers(0, 9))
def test_slot_partner_involution(s, a, b, c):
    if a + b + c != s:  # t = 2 keeps the sum small
        return
    cfg = ArcSystemConfig(s, 2, a, b, c, 0)
    for m in range(cfg.num_slots):
        partner = cfg.partner(m)
        assert partner != m
        assert cfg.partner(partner) == m
        assert cfg.edge_of_slot(partner) == cfg.edge_of_slot(m)
