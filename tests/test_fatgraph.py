import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from lensknots import fatgraph
from lensknots.cli import run
from lensknots.fatgraph import (BUNDLE_ORDER, CLASSES, ArcSystemConfig, Circle,
                                FaceReport, Region, ScharlemannCycle,
                                enumerate_configs, faces, scharlemann_cycles)

from conftest import child_env

DATA = pathlib.Path(__file__).parent / "data" / "figure_faces.json"


def label(cfg, m):
    """Knot-point label of slot m, in 1..t."""
    return (m + cfg.offset) % cfg.t + 1


def parity_check(cfg):
    """The parity rule arc by arc: every arc joins knot-point labels of
    opposite parity.  The oracle for _parity_holds."""
    return all(label(cfg, m) % 2 != label(cfg, cfg.partner(m)) % 2
               for m in range(cfg.num_slots))


def _parity_holds(e, counts):
    """The parity rule from E = s*t/2 and the multiplicities, as the
    enumeration's loop steps state it.

    This is the parity rule for intersection graphs of a knot meeting the
    torus coherently; configurations failing it cannot be realized and
    their corner colours are inconsistent.  In closed form it says E + n_X
    is even for every nonempty bundle X: nested pairing puts the ends of
    bundle-X arc j at slots whose sum is E + n_X - 1, a constant, and for
    even t opposite label parity is exactly opposite slot parity.
    """
    return all(n == 0 or (e + n) % 2 == 0 for n in counts)


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
        got_sch = sorted((s.length, s.color) for s in scharlemann_cycles(cfg))
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
        assert parity_check(cfg) == _parity_holds(cfg.num_edges, cfg.counts), cfg


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
    with pytest.raises(ValueError):
        ArcSystemConfig(3, 2, 1, 1, 0)  # 2 arcs but s*t/2 = 3
    # the rule of t and its text are iter_configs', so enum-graphs says the same
    with pytest.raises(ValueError, match=r"^t must be an even int of at least 2, got 3$"):
        ArcSystemConfig(2, 3, 3, 0, 0)  # odd t
    with pytest.raises(ValueError, match=r"^t must be an even int of at least 2, got 3$"):
        enumerate_configs(3, 2)
    with pytest.raises(ValueError):
        ArcSystemConfig(0, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        scharlemann_cycles(faces(cfg))  # a configuration, not its faces


@pytest.mark.parametrize("args", [
    (1, 2, 2, -1, 0),       # negative multiplicity
    (1, 2, 1, 0, 0, 2),     # offset beyond t - 1
    (1, 2, 1, 0, 0, -1),    # negative offset
    (-1, 2, -1, 0, 0),      # s < 1 with a matching sum
    (1, 0, 0, 0, 0),        # t < 2
])
def test_invalid_configs_raise_value_error(args):
    with pytest.raises(ValueError):
        ArcSystemConfig(*args)


def test_slots_out_of_range_raise_index_error():
    cfg = ArcSystemConfig(3, 2, 1, 1, 1)
    for m in (-2, -1, 6, 7):
        for lookup in (cfg.partner, cfg.slot_info):
            with pytest.raises(IndexError):
                lookup(m)


def test_scharlemann_cycle_definition():
    """Every reported cycle is a disk with equal corner sides and one
    label pair on consecutive knot points."""
    for cfg in all_configs(max_edges=9, ts=(2,)):
        for cycle in scharlemann_cycles(cfg):
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
        # canonical: multiplicities descending and offset 0
        assert list(cfg.counts) == sorted(cfg.counts, reverse=True)
        assert cfg.offset == 0
    # the loops emit configurations already in (s, counts) order
    for t in (2, 4, 6):
        for require_max in (False, True):
            configs = enumerate_configs(t, 8, require_max=require_max)
            assert configs == sorted(configs, key=lambda c: (c.s, c.counts))
    # complete: a canonical configuration with bundles of at most M arcs
    # (exactly M for the largest, with require_max) is enumerated exactly
    # when the arc-by-arc oracle passes it; such a configuration has at
    # most 3M arcs, and all_configs lists them in (s, counts) order too
    for t in (2, 4, 6):
        admissible = [cfg for cfg in all_configs(max_edges=3 * 8, ts=(t,))
                      if cfg.n_a >= cfg.n_b >= cfg.n_c and parity_check(cfg)]
        for m in range(1, 9):
            assert enumerate_configs(t, m) == [c for c in admissible if c.n_a <= m]
            assert enumerate_configs(t, m, require_max=True) == [
                c for c in admissible if c.n_a == m]


def unbounded_triples(t, m, require_max):
    """(s, a, b, c) as the enumeration found them before its loop bounds:
    every a up to m (or a = m) and every b up to a, c checked in the loop."""
    for s in range(1, 6 * m // t + 1):
        target = s * t // 2
        for a in [m] if require_max else range(m + 1):
            for b in range(a + 1):
                c = target - a - b
                if 0 <= c <= b and _parity_holds(target, (a, b, c)):
                    yield s, a, b, c


# at t = 4, E = 2s is even, so an odd M is never reached under require_max
@pytest.mark.parametrize("t, m", [(2, 40), (2, 80), (4, 80), (6, 60), (4, 41), (4, 81)])
def test_loop_bounds_keep_the_triples_and_their_order(t, m):
    for require_max in (False, True):
        got = [(c.s, *c.counts) for c in fatgraph.iter_configs(t, m, require_max)]
        assert got == list(unbounded_triples(t, m, require_max)), require_max
    # with require_max no s below 2M/t has E = s*t/2 >= M, and the loop
    # starts there, so the first configuration of a bound in the millions,
    # (M, 0, 0) at s = 2M/t, comes at once; at (2, 40) this is
    # `enum-graphs --t 2 --max-parallel 3000000 --require-max`
    big = 75_000 * m
    first = next(fatgraph.iter_configs(t, big, require_max=True))
    assert (first.s, *first.counts) == (2 * big // t, big, 0, 0)


def test_require_max_skips_every_s_the_parity_rule_refuses(capsys):
    """With t divisible by 4 every E is even, so an odd M admits nothing:
    the loop visits no s, where it once took time linear in M to print
    the count, and a 4,000-digit M would have run for ever."""
    big = str(10 ** 3999 + 1)
    for t in (4, 8):
        assert run(["enum-graphs", "--t", str(t), "--max-parallel", big, "--require-max"]) == 0
        assert capsys.readouterr().out == "count: 0\n"


def test_region_length_is_for_disks():
    """An annulus has no polygon length; refused without assert."""
    report = faces(ArcSystemConfig(2, 2, 2, 0, 0))
    assert [r.kind for r in report.regions] == ["disk", "annulus"]
    assert report.disks[0].length == 2
    with pytest.raises(ValueError):
        report.annuli[0].length


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
        assert ref_edge_of_slot(cfg, partner) == ref_edge_of_slot(cfg, m)


# --- a scan-based reference for the closed-form fat graph --------------------
#
# The pairing re-derived for every slot by walking the bundles, and every
# circle traced from it, as first written; faces() must agree with it
# field for field.

def ref_slot_info(cfg, m):
    e = cfg.num_edges
    is_start = m < e
    m = m % e
    for letter, n in zip(BUNDLE_ORDER, cfg.counts):
        if m < n:
            return letter, m, is_start
        m -= n
    raise AssertionError


def ref_edge_of_slot(cfg, m):
    letter, j, is_start = ref_slot_info(cfg, m)
    n = dict(zip(BUNDLE_ORDER, cfg.counts))[letter]
    return (letter, j if is_start else n - 1 - j)


def ref_partner(cfg, m):
    letter, j, is_start = ref_slot_info(cfg, m)
    base = 0
    for lt, n in zip(BUNDLE_ORDER, cfg.counts):
        if lt == letter:
            other = base + (n - 1 - j)
            return other + cfg.num_edges if is_start else other
        base += n
    raise AssertionError


def ref_trace_circle(cfg, start, seen):
    out_slots, corners, edges = [], [], []
    h1 = (0, 0)
    p = start
    while True:
        out_slots.append(p)
        seen.add(p)
        letter, _, is_start = ref_slot_info(cfg, p)
        edges.append(ref_edge_of_slot(cfg, p))
        cls = CLASSES[letter]
        sign = 1 if is_start else -1
        h1 = (h1[0] + sign * cls[0], h1[1] + sign * cls[1])
        arrive = ref_partner(cfg, p)
        corners.append(arrive)
        p = (arrive + 1) % cfg.num_slots
        if p == start:
            break
    colors = {cfg.corner_color(g) for g in corners}
    color = colors.pop() if len(colors) == 1 else None
    return Circle(tuple(out_slots), tuple(corners), frozenset(edges), h1, color)


def ref_faces(cfg):
    seen = set()
    circles = [ref_trace_circle(cfg, start, seen)
               for start in range(cfg.num_slots) if start not in seen]
    regions = [Region("disk", (c,), c.color) for c in circles if not c.is_essential]
    essential = [c for c in circles if c.is_essential]
    if essential:
        a, b = essential
        colors = {a.color, b.color}
        regions.append(Region("annulus", (a, b),
                              colors.pop() if len(colors) == 1 else None))
    return FaceReport(cfg, tuple(circles), tuple(regions))


def ref_scharlemann_cycles(report):
    cfg = report.config
    out = []
    for region in report.disks:
        circle = region.circles[0]
        sides = {cfg.corner_side(g) for g in circle.corners}
        if len(sides) != 1:
            continue
        v = sides.pop()
        pair = frozenset({v + 1, (v + 1) % cfg.t + 1})
        if all(frozenset({label(cfg, m), label(cfg, ref_partner(cfg, m))}) == pair
               for m in circle.out_slots):
            out.append(ScharlemannCycle(circle.edges, circle.length, pair,
                                        region.color))
    return tuple(out)


@st.composite
def configs(draw, max_edges=40):
    t = draw(st.sampled_from((2, 4, 6)))
    s = draw(st.integers(1, 2 * max_edges // t))
    e = s * t // 2
    a = draw(st.integers(0, e))
    b = draw(st.integers(0, e - a))
    return ArcSystemConfig(s, t, a, b, e - a - b, draw(st.integers(0, t - 1)))


@given(configs())
def test_tables_agree_with_scan_reference(cfg):
    for m in range(cfg.num_slots):
        assert cfg.slot_info(m) == ref_slot_info(cfg, m)
        assert cfg.partner(m) == ref_partner(cfg, m)
    report = faces(cfg)
    ref = ref_faces(cfg)
    assert report == ref
    assert scharlemann_cycles(cfg) == ref_scharlemann_cycles(ref)
    assert ref_scharlemann_cycles(report) == scharlemann_cycles(cfg)
    assert parity_check(cfg) == _parity_holds(cfg.num_edges, cfg.counts)


def test_closed_form_agrees_with_scan_reference_exhaustively():
    """Every configuration with at most 12 arcs at t = 2, 4, 6, at every
    offset: parity failures and empty or single-arc bundles included."""
    seen = {"parity fails": 0, "empty bundle": 0, "single arc": 0}
    for base in all_configs(max_edges=12, ts=(2, 4, 6)):
        seen["parity fails"] += not _parity_holds(base.num_edges, base.counts)
        seen["empty bundle"] += 0 in base.counts
        seen["single arc"] += 1 in base.counts
        for offset in range(base.t):
            cfg = dataclasses.replace(base, offset=offset)
            for m in range(cfg.num_slots):
                assert cfg.slot_info(m) == ref_slot_info(cfg, m)
                assert cfg.partner(m) == ref_partner(cfg, m)
            ref = ref_faces(cfg)
            assert faces(cfg) == ref, cfg
            assert (scharlemann_cycles(cfg) == ref_scharlemann_cycles(ref)
                    == ref_scharlemann_cycles(faces(cfg))), cfg
    assert min(seen.values()) > 0


def test_only_the_outer_circles_are_traced(monkeypatch):
    """Bigons and the outer circles come in closed form: faces and
    scharlemann_cycles ask for no partner at all, however many arcs, and
    scharlemann_cycles does not build the faces."""

    def no_partner(cfg, m):
        raise AssertionError(f"partner({m}) was asked for")

    monkeypatch.setattr(ArcSystemConfig, "partner", no_partner)
    cfg = ArcSystemConfig(1000, 2, 400, 350, 250)
    report = faces(cfg)
    assert len(report.disks) == cfg.num_edges - 1

    def no_faces(cfg):
        raise AssertionError("scharlemann_cycles built the faces")

    monkeypatch.setattr(fatgraph, "faces", no_faces)
    cycles = scharlemann_cycles(cfg)
    # at t = 2 with the parity rule every bigon is a Scharlemann cycle
    assert len(cycles) >= 399 + 349 + 249


def check_outer_circles(cfg):
    """The identities of the nested-pairing rule.  With m nonempty bundles,
    the circles through their first start and first end slots use those
    2m slots and no others, since bigons fill the rest; essential circles
    appear exactly when m = 1, as a pair whose classes cancel, and they
    bound the one annulus."""
    report = faces(cfg)
    firsts, b = set(), 0
    for n in cfg.counts:
        if n:
            firsts |= {b, cfg.num_edges + b}
        b += n
    m = len(firsts) // 2
    outer = [c for c in report.circles if firsts & set(c.out_slots)]
    assert sorted(p for c in outer for p in c.out_slots) == sorted(firsts), cfg
    essential = [c for c in report.circles if c.is_essential]
    if m == 1:
        (one, other), = [r.circles for r in report.annuli]
        assert essential == outer == [one, other], cfg
        (x1, y1), (x2, y2) = one.h1_class, other.h1_class
        assert (x1 + x2, y1 + y2) == (0, 0), cfg
    else:
        assert not essential and not report.annuli, cfg


def test_outer_circles_obey_the_rule_exhaustively():
    """Every configuration with at most 12 arcs at t = 2, 4, 6, at every
    offset, empty bundles in any position included."""
    for base in all_configs(max_edges=12, ts=(2, 4, 6)):
        for offset in range(base.t):
            check_outer_circles(dataclasses.replace(base, offset=offset))


@given(configs())
def test_outer_circles_obey_the_rule(cfg):
    check_outer_circles(cfg)


CONFIG_LINE = re.compile(r"s=(\d+) t=(\d+) arcs=\((\d+),(\d+),(\d+)\)")


@pytest.mark.parametrize("t", [2, 4, 6])
def test_enum_graphs_slices_have_sound_faces(capsys, t):
    """An enum-graphs slice as the benchmark's arc census runs it: every
    printed configuration's faces obey the Euler count, cover the slots
    once, have at most one annulus, and its Scharlemann cycles are disks."""
    assert run(["enum-graphs", "--t", str(t), "--max-parallel", "6",
                "--require-max"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"count: {len(lines) - 1}" and len(lines) > 1
    for line in lines[:-1]:
        cfg = ArcSystemConfig(*map(int, CONFIG_LINE.fullmatch(line).groups()))
        report = faces(cfg)
        assert len(report.disks) == cfg.num_edges - 1
        slots = sorted(p for circle in report.circles for p in circle.out_slots)
        assert slots == list(range(cfg.num_slots))
        assert len(report.annuli) <= 1
        disks = {(r.circles[0].edges, r.length) for r in report.disks}
        cycles = scharlemann_cycles(cfg)
        assert all((c.edges, c.length) in disks for c in cycles)
        assert cycles == ref_scharlemann_cycles(report)


# --- the shared table of bigon edge sets --------------------------------------

def one_bundle(letter, n):
    """The t = 2 configuration whose n arcs all lie in the bundle `letter`."""
    return ArcSystemConfig(n, 2, *(n if x == letter else 0 for x in BUNDLE_ORDER))


def bigon_edges(report):
    """{edge set: the object a bigon circle of the report holds}."""
    return {c.edges: c.edges for c in report.circles if c.length == 2 and
            not c.is_essential}


def test_edge_table_grows_out_of_order(monkeypatch):
    """Grown by bundles of 5, 400, 3 and 60 arcs on each letter, every table
    is as long as the largest bundle, entry j is {(L, j-1), (L, j)}, and a
    growth keeps the sets already built."""
    monkeypatch.setattr(fatgraph, "_BIGON_EDGES", {x: [] for x in BUNDLE_ORDER})
    for letter in BUNDLE_ORDER:
        built, longest = [], 0
        for n in (5, 400, 3, 60):
            faces(one_bundle(letter, n))
            table = fatgraph._BIGON_EDGES[letter]
            longest = max(longest, n)
            assert len(table) == longest
            assert all(new is old for new, old in zip(table, built))
            built = table
        assert table == [frozenset({(letter, j - 1), (letter, j)}) for j in range(400)]


def test_reports_share_each_bigon_edge_set(monkeypatch):
    """Two configurations with a bigon at the same (letter, j) hold one edge
    object for it, in their faces and their Scharlemann cycles, even when
    the table grows between them."""
    monkeypatch.setattr(fatgraph, "_BIGON_EDGES", {x: [] for x in BUNDLE_ORDER})
    first, second = ArcSystemConfig(4, 2, 4, 0, 0), ArcSystemConfig(6, 2, 4, 2, 0)
    before = bigon_edges(faces(first))
    faces(one_bundle("A", 60))
    after = bigon_edges(faces(second))
    key = frozenset({("A", 1), ("A", 2)})
    assert before[key] is after[key]
    for cfg in (first, second):
        cycle, = (c for c in scharlemann_cycles(cfg) if c.edges == key)
        assert cycle.edges is before[key]


def test_import_builds_no_edge_set():
    """The table is filled by faces and scharlemann_cycles, not at import."""
    code = "import lensknots.cli, lensknots.fatgraph as f; print(f._BIGON_EDGES)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{'A': [], 'B': [], 'C': []}\n"
