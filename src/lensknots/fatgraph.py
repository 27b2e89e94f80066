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

The fat graph is the slot permutation m -> partner(m), a mirror pairing in
closed form: with E = s*t/2 arcs, a bundle of n arcs whose first slot is b
pairs slot m with E + 2b + n-1 - m.  Complementary regions are bounded by
the circles of the ribbon structure: leave by slot p, run along the arc to
its partner, then turn through the corner gap at the arrival slot and
leave by the next slot; the circles are the cycles of
m -> (partner(m) + 1) mod s*t.

Between neighbouring arcs j-1 and j of a bundle of n arcs from slot b lies
a bigon, 1 <= j < n, whose circle is a closed form of j.  Leaving by the
start b+j, it arrives at the end E+b+n-1-j, leaves by the next slot
E+b+n-j, which is the end of arc j-1, arrives at b+j-1 and is back at
b+j: its out slots are b+j and E+b+n-j, its corners E+b+n-1-j and b+j-1,
its edges (letter, j-1) and (letter, j), and its class is zero.  That
edge set is entry j of the shared table _BIGON_EDGES, so every report
holds one object for it.  The two corners lie E+n-2j apart.  So at t = 2
they share a colour exactly when E+n is even, and then the colour
alternates with j; and they lie on one knot segment exactly when t
divides E+n-2j, which makes the bigon a Scharlemann cycle.  That needs an
even E+n, and then holds exactly for j = (E+n)/2 mod t/2, so the cycles
of a bundle alternate between two segments, t/2 apart.

The other circles run through the first start b and first end E+b of
each nonempty bundle, and nested pairing fixes them too (see
_outer_walk): leaving by b a circle next leaves by the next bundle's
first end, and leaving by E+b by the next bundle's first start, so no
circle is walked slot by slot.  Circles that are null-homologous in the
torus bound complementary disks; homologically essential circles come in
a pair bounding a single annulus region, exactly when one bundle is
nonempty.

Construction rule: see the `lenspaces` docstring, which lists the
producers here that skip the dataclass check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lenspaces import _trusted_builder

_CLASSES = {"A": (1, 0), "B": (1, 1), "C": (0, 1)}
_BUNDLE_ORDER = ("A", "B", "C")


def _check_t(t):
    """The rule of t, for ArcSystemConfig and iter_configs."""
    if type(t) is not int or t < 2 or t % 2:
        raise ValueError(f"t must be an even int of at least 2, got {t!r}")


def _check_slot(m):
    """The rule of a slot or corner gap argument: an int, not a bool."""
    if type(m) is not int:
        raise ValueError(f"a slot must be an int, got {m!r}")


@dataclass(frozen=True, slots=True)
class ArcSystemConfig:
    """Arc bundle multiplicities for a knot of order s and t torus punctures."""

    s: int
    t: int
    n_a: int
    n_b: int
    n_c: int
    offset: int = 0

    def __post_init__(self):
        fields = (self.s, self.t, self.n_a, self.n_b, self.n_c, self.offset)
        if not all(type(v) is int for v in fields):
            raise ValueError(f"s, t, multiplicities and offset must be ints, got {fields}")
        if self.s < 1:
            raise ValueError(f"s must be at least 1, got {self.s}")
        _check_t(self.t)
        if min(self.counts) < 0:
            raise ValueError(f"multiplicities must be nonnegative, got {self.counts}")
        if sum(self.counts) != self.num_edges:
            raise ValueError(
                f"multiplicities sum to {sum(self.counts)}, "
                f"need s*t/2 = {self.num_edges}")
        if not 0 <= self.offset < self.t:
            raise ValueError(f"offset must lie in 0..{self.t - 1}, got {self.offset}")

    @property
    def counts(self):
        return (self.n_a, self.n_b, self.n_c)

    @property
    def num_edges(self):
        return self.s * self.t // 2

    @property
    def num_slots(self):
        return self.s * self.t

    def _bundle(self, m):
        """(letter, n, b) of the bundle with an end at slot m: its n arcs
        start at slots b..b+n-1 and end at E+b..E+b+n-1."""
        _check_slot(m)
        e = self.num_edges
        if not 0 <= m < 2 * e:
            raise IndexError(f"slot {m} out of range 0..{2 * e - 1}")
        r = m - e if m >= e else m
        # the counts sum to e > r, so some bundle holds r
        b = 0
        for letter, n in zip(_BUNDLE_ORDER, self.counts):
            if r < b + n:
                return letter, n, b
            b += n

    def slot_info(self, m):
        """(bundle letter, index within bundle, is_start) of a global slot."""
        letter, _, b = self._bundle(m)
        e = self.num_edges
        return (letter, m - b, True) if m < e else (letter, m - e - b, False)

    def partner(self, m):
        """The other end of the arc ending at slot m (nested pairing)."""
        _, n, b = self._bundle(m)
        return self.num_edges + 2 * b + n - 1 - m

    def corner_side(self, g):
        """Which of the t knot segments the corner gap after slot g lies on."""
        _check_slot(g)
        return (g + self.offset) % self.t

    def corner_color(self, g):
        """Two-colouring of corners for t = 2; None for other t."""
        side = self.corner_side(g)
        if self.t != 2:
            return None
        return "amber" if side == 0 else "blue"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Region:
    """A complementary region: a disk (one circle) or annulus (two)."""

    kind: str       # "disk" or "annulus"
    circles: tuple
    color: object

    @property
    def length(self):
        """Number of corners, i.e. sides of the polygon, for a disk."""
        if self.kind != "disk":
            raise ValueError(f"an {self.kind} has no polygon length")
        return self.circles[0].length


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ScharlemannCycle:
    edges: frozenset
    length: int
    label_pair: frozenset  # the two knot-point labels the cycle runs between
    color: object


_config = _trusted_builder(ArcSystemConfig)
_circle = _trusted_builder(Circle)
_region = _trusted_builder(Region)
_cycle = _trusted_builder(ScharlemannCycle)
_NULL = (0, 0)  # the homology class of a bigon
# per letter, entry j is bigon j's edge set {(letter, j-1), (letter, j)};
# empty until a bundle needs it (see _bigon_edges)
_BIGON_EDGES = {letter: [] for letter in _BUNDLE_ORDER}


def _bigon_edges(letter, n):
    """The letter's edge-set table, grown to at least n entries.  Growing
    keeps every built set and rebinds a longer list, so a list once read
    never changes; threads that grow it at once can only build equal sets
    twice."""
    table = _BIGON_EDGES[letter]
    if len(table) < n:
        ids = [(letter, j) for j in range(len(table) - 1, n)]
        table = _BIGON_EDGES[letter] = table + list(map(frozenset, zip(ids, ids[1:])))
    return table


def _outer_circle(cfg, legs):
    """The Circle of an outer circle's legs (see _outer_walk)."""
    outs, corners, edges, xs, ys = zip(*legs)
    color = None
    # at t = 2 the colour of corner g depends only on the parity of g
    if cfg.t == 2 and len({g % 2 for g in corners}) == 1:
        color = cfg.corner_color(corners[0])
    return _circle(outs, corners, frozenset(edges), (sum(xs), sum(ys)), color)


def _outer_walk(cfg):
    """The circles of cfg that are not bigons, as legs, in bundle order.

    Returns (steps, tail).  Each step (head, letter, n, b) is a nonempty
    bundle of n arcs from slot b, with head the legs of the circle whose
    least slot is b, or None.  tail holds the legs of the circle whose
    least slot is an end slot, or None: there is one only when one bundle
    is nonempty, and then it and that bundle's head are the essential
    pair.  Taking each step's head and then the bundle's bigons, and the
    tail last, lists every circle in order of its least slot.

    A circle's legs list one plain tuple (out slot, corner, edge id, x, y)
    per slot it leaves by, in turn from its least: it leaves by the out
    slot along the edge, arrives at the corner slot, so crosses the corner
    gap after it, and steps by (x, y) in class.  The legs carry every
    field of the circle's Circle, so a caller builds one only if it needs
    it.

    The slots off the bigons are the first start b and first end E+b of
    each nonempty bundle, and nested pairing fixes their successors.
    Leaving by b, a circle arrives at E+b+n-1 and leaves next by the next
    nonempty bundle's first end, or by slot 0 after the last bundle;
    leaving by E+b, it arrives at b+n-1 and leaves next by the next
    bundle's first start, or by slot E after the last.  So with starts
    s0, s1, s2 and ends e0, e1, e2 of the nonempty bundles, the circles
    are (s0, e1, s2) and (s1, e2, e0) for three bundles, (s0, e1, e0, s1)
    for two, and (s0), (e0) for one: the only essential circles, a pair
    whose classes cancel.
    """
    if not isinstance(cfg, ArcSystemConfig):
        raise ValueError(f"expected an ArcSystemConfig, got {cfg!r}")
    e = cfg.num_edges
    bundles, starts, ends = [], [], []
    b = 0
    for letter, n in zip(_BUNDLE_ORDER, cfg.counts):
        if n:
            bundles.append((letter, n, b))
            # an arc is traversed along its class from its start to its end
            x, y = _CLASSES[letter]
            starts.append((b, e + b + n - 1, (letter, 0), x, y))
            ends.append((e + b, b + n - 1, (letter, n - 1), -x, -y))
        b += n
    m = len(bundles)
    # from s0 (or e0) a circle alternates between starts and ends bundle by
    # bundle; after the last bundle it is back where it began when m is odd
    # and goes on from e0 (or s0) when m is even.  The circle from e0 is
    # listed from its least slot, s1 when there is one
    first = [(starts, ends)[i % 2][i] for i in range(m)]   # s0, e1, s2
    second = [(ends, starts)[i % 2][i] for i in range(m)]  # e0, s1, e2
    walks = [first + second] if m == 2 else [first, second[1:] + second[:1]]
    by_least = {walk[0][0]: walk for walk in walks}
    steps = [(by_least.get(b), letter, n, b) for letter, n, b in bundles]
    return steps, by_least.get(e + bundles[0][2])


def faces(cfg: ArcSystemConfig) -> FaceReport:
    """All complementary regions of the arc system in the torus: a disk
    per inessential circle, in order of its least slot, then the annulus
    of the essential pair, if there is one."""
    steps, tail = _outer_walk(cfg)
    e = cfg.num_edges
    circles, regions = [], []
    for head, letter, n, b in steps:
        if head:
            circle = _outer_circle(cfg, head)
            circles.append(circle)
            if not circle.is_essential:
                regions.append(_region("disk", (circle,), circle.color))
        top = e + b + n  # bigon j's corners are top-1-j and b+j-1
        colors = None, None
        if (e + n) % 2 == 0:
            # bigon j's colour is its first corner's, by the parity of j
            colors = cfg.corner_color(top - 1), cfg.corner_color(top - 2)
        edges = _bigon_edges(letter, n)
        for j in range(1, n):
            color = colors[j % 2]
            circle = _circle((b + j, top - j), (top - 1 - j, b + j - 1), edges[j],
                             _NULL, color)
            circles.append(circle)
            regions.append(_region("disk", (circle,), color))
    if tail:
        # one bundle: its head, circles[0], and the tail bound the annulus
        a, b = circles[0], _outer_circle(cfg, tail)
        circles.append(b)
        colors = {a.color, b.color}
        color = colors.pop() if len(colors) == 1 else None
        regions.append(_region("annulus", (a, b), color))
    return FaceReport(cfg, tuple(circles), tuple(regions))


def _label_pair(t, v):
    """The labels v+1 and v+2 (mod t) on either side of knot segment v."""
    return frozenset({v + 1, (v + 1) % t + 1})


def _disk_cycles(cfg, legs):
    """The Scharlemann cycle of the outer circle with these legs, in a
    tuple of one, when it is inessential (so bounds a disk) with every
    corner on one knot segment v; otherwise ().

    Each leg's corner is the partner of its out slot, and the next leg's
    out slot is that corner + 1 (mod s*t), so every edge then joins labels
    v+1 and v+2; and at t = 2 every corner has the first one's colour.
    """
    _, corners, edges, xs, ys = zip(*legs)
    sides = {cfg.corner_side(g) for g in corners}
    if sum(xs) or sum(ys) or len(sides) != 1:
        return ()
    return (_cycle(frozenset(edges), len(legs), _label_pair(cfg.t, sides.pop()),
                   cfg.corner_color(corners[0])),)


def scharlemann_cycles(cfg: ArcSystemConfig) -> tuple:
    """Disk regions whose corners all lie on one segment of the knot.

    Such a disk has every corner at the same gap value mod t and every edge
    joining the two labels adjacent to that gap; it is the basic tool for
    bounding the intersection number t.  The cycles are read off the
    configuration's bigons and its outer circles, both in closed form,
    without building its faces or any Circle.
    """
    steps, _ = _outer_walk(cfg)  # the tail circle is essential
    t, e = cfg.t, cfg.num_edges
    half = t // 2
    out = []
    for head, letter, n, b in steps:
        if head:
            out += _disk_cycles(cfg, head)
        # t divides E+n-2j only for an even E+n, and then exactly when
        # j = (E+n)/2 mod t/2
        if (e + n) % 2:
            continue
        first = ((e + n) // 2 - 1) % half + 1
        g = e + b + n - 1 - first  # the first corner of bigon `first`
        # the first corner moves down t/2 slots from one cycle to the next,
        # so the cycles alternate between two knot segments and, at t = 2,
        # two colours
        v = cfg.corner_side(g)
        pairs = _label_pair(t, v), _label_pair(t, (v + half) % t)
        colors = cfg.corner_color(g), cfg.corner_color(g - half)
        edges = _bigon_edges(letter, n)
        k = 0
        for j in range(first, n, half):
            out.append(_cycle(edges[j], 2, pairs[k], colors[k]))
            k ^= 1
    return tuple(out)


def iter_configs(t, max_parallel, require_max=False):
    """The configurations of enumerate_configs, one at a time, in the same
    order; an invalid argument raises ValueError at the first one."""
    _check_t(t)
    if type(max_parallel) is not int or max_parallel < 1:
        raise ValueError(f"max_parallel must be an int of at least 1, got {max_parallel!r}")
    if type(require_max) is not bool:
        raise ValueError(f"require_max must be a bool, got {require_max!r}")
    first, step = 1, 1
    if require_max:
        # a bundle reaches M only once E = s*t/2 >= M, that is from
        # s = ceil(2M/t), and by the parity rule below only when E has M's
        # parity: for t/2 odd that is s = M (mod 2), and for 4 | t every E
        # is even, so an odd M admits nothing
        first = -(-2 * max_parallel // t)
        if t % 4:
            first, step = first + (first + max_parallel) % 2, 2
        elif max_parallel % 2:
            return
    for s in range(first, 6 * max_parallel // t + 1, step):
        target = s * t // 2
        # a >= b >= c >= 0 with a + b + c = E bounds a to ceil(E/3)..E and,
        # given a, b to ceil((E-a)/2)..min(a, E-a); c follows from a and b,
        # so this loop order is (s, counts).  The parity rule (every arc
        # joins knot-point labels of opposite parity) says E + n is even
        # for every nonempty bundle of n arcs: nested pairing puts the ends
        # of a bundle's arc j at slots whose sum is E + n - 1, and for even
        # t opposite label parity is opposite slot parity.  So a and b step
        # by 2 in E's parity class, and c = E - a - b falls in it too; the
        # one exception is b = c = 0, which needs a = E and is yielded
        # apart.  With require_max, a is M alone: the s above give E >= M
        # of M's parity, and s <= 6M/t gives M >= E/3
        if require_max:
            a_range = (max_parallel,)
        else:
            low = -(-target // 3)
            a_range = range(low + (low + target) % 2, min(max_parallel, target) + 1, 2)
        for a in a_range:
            if a == target:
                yield _config(s, t, a, 0, 0, 0)
                continue
            low = -(-(target - a) // 2)
            for b in range(low + (low + target) % 2, min(a, target - a) + 1, 2):
                yield _config(s, t, a, b, target - a - b, 0)


def enumerate_configs(t, max_parallel, require_max=False):
    """Admissible canonical configurations with bundles of bounded size.

    Returns one representative per equivalence class (multiplicities sorted
    descending, offset 0) with every bundle of size at most max_parallel,
    at least one arc, and the parity rule satisfied, ordered by s and then
    by multiplicities.  With require_max, only configurations where some
    bundle reaches max_parallel.  Every s compatible with the multiplicity
    bound is scanned.
    """
    return list(iter_configs(t, max_parallel, require_max))
