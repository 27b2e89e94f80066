"""Fat graphs of arc systems on a once-punctured torus.

A knot of homology order s meeting a once-punctured torus fiber piece in t
points cuts out, on the surface, a system of disjoint essential arcs based
at the boundary, s*t/2 arcs in all.  Up to homeomorphism the arcs fall
into at most three parallel bundles A, B, C whose classes (1,0), (1,1),
(0,1) pairwise intersect once.  The fat graph records the cyclic order of
arc ends around the boundary together with the t-periodic labelling of the
ends by the intersection points of the knot.

Slots 0..s*t-1 run around the boundary through the six bundles in the
order A+, B+, C+, A-, B-, C- (starts then ends); parallel arcs are nested,
so start j of a bundle joins end n-1-j.  Slot m carries the label
((m + offset) mod t) + 1, and the corner gap between slots g and g+1 lies
on the knot between consecutive labels.

Complementary regions are recovered by tracing boundary circles of the
ribbon structure: leave by slot p, run along the arc to its partner, then
turn through the corner gap at the arrival slot and leave by the next
slot.  Circles that are null-homologous in the torus bound complementary
disks; homologically essential circles come in pairs bounding a single
annulus region.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSES = {"A": (1, 0), "B": (1, 1), "C": (0, 1)}
BUNDLE_ORDER = ("A", "B", "C")


@dataclass(frozen=True)
class ArcSystemConfig:
    """Arc bundle multiplicities for a knot of order s and t torus punctures."""

    s: int
    t: int
    n_a: int
    n_b: int
    n_c: int
    offset: int = 0

    def __post_init__(self):
        assert self.s >= 1
        assert self.t >= 2 and self.t % 2 == 0
        assert min(self.n_a, self.n_b, self.n_c) >= 0
        if self.n_a + self.n_b + self.n_c != self.s * self.t // 2:
            raise ValueError(
                f"multiplicities sum to {self.n_a + self.n_b + self.n_c}, "
                f"need s*t/2 = {self.s * self.t // 2}")
        assert 0 <= self.offset < self.t

    @property
    def counts(self):
        return (self.n_a, self.n_b, self.n_c)

    @property
    def num_edges(self):
        return self.s * self.t // 2

    @property
    def num_slots(self):
        return self.s * self.t

    def endpoint_word(self):
        """Bundle letters in slot order, e.g. "A B C A B C" for (1,1,1)."""
        half = [letter
                for letter, n in zip(BUNDLE_ORDER, self.counts)
                for _ in range(n)]
        return " ".join(half + half)

    def slot_info(self, m):
        """(bundle letter, index within bundle, is_start) of a global slot."""
        e = self.num_edges
        is_start = m < e
        m = m % e
        for letter, n in zip(BUNDLE_ORDER, self.counts):
            if m < n:
                return letter, m, is_start
            m -= n
        raise IndexError("slot out of range")

    def edge_of_slot(self, m):
        """Edge id (letter, j) of the arc with an end at slot m."""
        letter, j, is_start = self.slot_info(m)
        n = dict(zip(BUNDLE_ORDER, self.counts))[letter]
        return (letter, j if is_start else n - 1 - j)

    def partner(self, m):
        """The other end of the arc ending at slot m (nested pairing)."""
        letter, j, is_start = self.slot_info(m)
        base = 0
        for lt, n in zip(BUNDLE_ORDER, self.counts):
            if lt == letter:
                other = base + (n - 1 - j)
                return other + self.num_edges if is_start else other
            base += n
        raise AssertionError

    def label(self, m):
        """Knot-point label of slot m, in 1..t."""
        return ((m + self.offset) % self.t) + 1

    def corner_side(self, g):
        """Which of the t knot segments the corner gap after slot g lies on."""
        return (g + self.offset) % self.t

    def corner_color(self, g):
        """Two-colouring of corners for t = 2; None for other t."""
        if self.t != 2:
            return None
        return "amber" if self.corner_side(g) == 0 else "blue"

    def edges(self):
        return [(letter, j)
                for letter, n in zip(BUNDLE_ORDER, self.counts)
                for j in range(n)]

    def canonical(self) -> "ArcSystemConfig":
        """Representative with multiplicities descending and offset 0.

        Permuting the bundles realizes a torus homeomorphism and changing
        the offset renumbers the knot points, so these moves preserve the
        region structure.
        """
        a, b, c = sorted(self.counts, reverse=True)
        return ArcSystemConfig(self.s, self.t, a, b, c, 0)


def parity_check(cfg: ArcSystemConfig) -> bool:
    """Whether every arc joins knot-point labels of opposite parity.

    This is the parity rule for intersection graphs of a knot meeting the
    torus coherently; configurations failing it cannot be realized and
    their corner colours are inconsistent.
    """
    return all(cfg.label(m) % 2 != cfg.label(cfg.partner(m)) % 2
               for m in range(cfg.num_slots))


def parity_check_closed_form(cfg: ArcSystemConfig) -> bool:
    """Closed form of the parity rule: E + n_X even for every nonempty X.

    E = s*t/2 is the edge count; equivalently all nonempty multiplicities
    have the same parity as E.  Agrees with the per-edge check because
    nested pairing puts the ends of bundle-X arc j at slots whose sum is
    E + n_X - 1, a constant, and for even t opposite label parity is
    exactly opposite slot parity.
    """
    e = cfg.num_edges
    return all(n == 0 or (e + n) % 2 == 0 for n in cfg.counts)


@dataclass(frozen=True)
class Circle:
    """One boundary circle of the ribbon graph neighbourhood."""

    out_slots: tuple  # slots where the circle leaves the vertex, in order
    corners: tuple    # corner gaps crossed, aligned after each arrival
    edges: frozenset  # edge ids traversed
    h1_class: tuple   # total homology class in the torus
    color: object     # common corner colour, or None if mixed or t != 2

    @property
    def length(self):
        return len(self.out_slots)

    @property
    def is_essential(self):
        return self.h1_class != (0, 0)


@dataclass(frozen=True)
class Region:
    """A complementary region: a disk (one circle) or annulus (two)."""

    kind: str       # "disk" or "annulus"
    circles: tuple
    color: object

    @property
    def length(self):
        """Number of corners, i.e. sides of the polygon, for a disk."""
        assert self.kind == "disk"
        return self.circles[0].length

    @property
    def edges(self):
        out = frozenset()
        for c in self.circles:
            out |= c.edges
        return out


@dataclass(frozen=True)
class FaceReport:
    config: ArcSystemConfig
    circles: tuple
    regions: tuple

    @property
    def disks(self):
        return tuple(r for r in self.regions if r.kind == "disk")

    @property
    def annuli(self):
        return tuple(r for r in self.regions if r.kind == "annulus")

    def polygon_census(self):
        """Sorted list of disk side counts, e.g. [2, 2, 4]."""
        return sorted(r.length for r in self.disks)


def _trace_circle(cfg, start, seen):
    out_slots = []
    corners = []
    edges = []
    h1 = (0, 0)
    p = start
    while True:
        out_slots.append(p)
        seen.add(p)
        letter, _, is_start = cfg.slot_info(p)
        edges.append(cfg.edge_of_slot(p))
        cls = CLASSES[letter]
        sign = 1 if is_start else -1
        h1 = (h1[0] + sign * cls[0], h1[1] + sign * cls[1])
        arrive = cfg.partner(p)
        corners.append(arrive)
        p = (arrive + 1) % cfg.num_slots
        if p == start:
            break
    colors = {cfg.corner_color(g) for g in corners}
    color = colors.pop() if len(colors) == 1 else None
    return Circle(tuple(out_slots), tuple(corners), frozenset(edges), h1, color)


def faces(cfg: ArcSystemConfig) -> FaceReport:
    """Trace all complementary regions of the arc system in the torus."""
    seen = set()
    circles = []
    for start in range(cfg.num_slots):
        if start not in seen:
            circles.append(_trace_circle(cfg, start, seen))
    assert sum(c.length for c in circles) == cfg.num_slots
    essential = [c for c in circles if c.is_essential]
    null = [c for c in circles if not c.is_essential]
    # a disjoint union of circles on the torus has zero total class, and
    # at most one complementary region is not a disk, so essential circles
    # cancel in a single pair bounding one annulus
    assert len(essential) in (0, 2)
    regions = [Region("disk", (c,), c.color) for c in null]
    if essential:
        a, b = essential
        assert (a.h1_class[0] + b.h1_class[0],
                a.h1_class[1] + b.h1_class[1]) == (0, 0)
        colors = {a.color, b.color}
        color = colors.pop() if len(colors) == 1 else None
        regions.append(Region("annulus", (a, b), color))
    return FaceReport(cfg, tuple(circles), tuple(regions))


@dataclass(frozen=True)
class ScharlemannCycle:
    edges: frozenset
    length: int
    label_pair: frozenset  # the two knot-point labels the cycle runs between
    color: object


def scharlemann_cycles(cfg) -> tuple:
    """Disk regions whose corners all lie on one segment of the knot.

    Such a disk has every corner at the same gap value mod t and every edge
    joining the two labels adjacent to that gap; it is the basic tool for
    bounding the intersection number t.  Accepts a configuration or a
    FaceReport.
    """
    report = faces(cfg) if isinstance(cfg, ArcSystemConfig) else cfg
    cfg = report.config
    out = []
    for region in report.disks:
        circle = region.circles[0]
        sides = {cfg.corner_side(g) for g in circle.corners}
        if len(sides) != 1:
            continue
        v = sides.pop()
        pair = frozenset({v + 1, (v + 1) % cfg.t + 1})
        if all(frozenset({cfg.label(m), cfg.label(cfg.partner(m))}) == pair
               for m in circle.out_slots):
            out.append(ScharlemannCycle(circle.edges, circle.length, pair,
                                        region.color))
    return tuple(out)


def enumerate_configs(t, max_parallel, require_max=False, s_range=None):
    """Admissible canonical configurations with bundles of bounded size.

    Returns one representative per equivalence class (multiplicities sorted
    descending, offset 0) with every bundle of size at most max_parallel,
    at least one arc, and the parity rule satisfied.  With require_max,
    only configurations where some bundle reaches max_parallel.  s_range
    restricts the knot order s; by default all s compatible with the
    multiplicity bound are scanned.
    """
    if t < 2 or t % 2:
        raise ValueError(f"t must be even and at least 2, got {t}")
    if max_parallel < 1:
        raise ValueError(f"max_parallel must be at least 1, got {max_parallel}")
    if s_range is None:
        s_range = range(1, 3 * max_parallel * 2 // t + 1)
    out = []
    for s in s_range:
        if s * t % 2 or s < 1:
            continue
        target = s * t // 2
        for a in range(max_parallel, -1, -1):
            for b in range(a, -1, -1):
                c = target - a - b
                if not 0 <= c <= b:
                    continue
                if require_max and a != max_parallel:
                    continue
                cfg = ArcSystemConfig(s, t, a, b, c, 0)
                if parity_check(cfg):
                    out.append(cfg)
    out.sort(key=lambda cfg: (cfg.s, cfg.counts))
    return out
