"""Correctness oracles for the benchmark, independent of the library's checks.

Each check takes a job and what the program produced for it and returns
None when the output is right, or a one-line reason when it is not.  The
arithmetic here (closed forms, lens space normal form, 2x2 matrices, slot
pairing of arc systems) is written out again on purpose: an oracle that
called back into lensknots would agree with any bug it shares.
"""

from __future__ import annotations

import re
from math import gcd

# closed forms p = a*k + b, q = c*k + d of the knotted families' lens spaces
FAMILY_SPACE = {
    "I": ((6, -1), (2, -1)),
    "II": ((8, -2), (4, 1)),
    "III": ((9, -3), (3, -2)),
    "IV": ((9, -3), (3, -2)),
    "V": ((8, -2), (4, 1)),
}
FAMILIES = ("I", "II", "III", "IV", "V")


def _inverse_mod(q, p):
    old_r, r, old_s, s = q, p, 1, 0
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
    if old_r != 1:
        raise ValueError(f"{q} is not invertible mod {p}")
    return old_s % p


def lens_space_str(p, q):
    """Canonical name of L(p,q) up to homeomorphism and orientation."""
    if gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}) needs coprime p, q")
    p = abs(p)
    if p == 0:
        return "S1xS2"
    if p == 1:
        return "S3"
    q %= p
    qi = _inverse_mod(q, p)
    return f"L({p},{min(q, p - q, qi, p - qi)})"


def family_space_str(fam, k):
    (a, b), (c, d) = FAMILY_SPACE[fam]
    return lens_space_str(a * k + b, c * k + d)


# --- verify ------------------------------------------------------------------

def check_verify(ks, rc, out):
    """`verify --families all` over the nonzero ks, in the CLI's task order."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    want_n = len(ks) * len(FAMILIES)
    if len(lines) != want_n + 1:
        return f"{len(lines)} lines, expected {want_n + 1}"
    i = 0
    for fam in FAMILIES:
        for k in ks:
            want = f"ok {fam} k={k}: {family_space_str(fam, k)}"
            if lines[i] != want:
                return f"line {i + 1}: {lines[i]!r}, expected {want!r}"
            i += 1
    tally = f"checked {want_n} instances: all ok"
    if lines[-1] != tally:
        return f"tally {lines[-1]!r}, expected {tally!r}"
    return None


# --- enum-graphs and faces ---------------------------------------------------

_CONFIG_LINE = re.compile(r"^s=(\d+) t=(\d+) arcs=\((\d+),(\d+),(\d+)\)$")


def expected_configs(t, m):
    """(s, a, b, c) of `enum-graphs --t t --max-parallel m --require-max`.

    Canonical multiplicities a >= b >= c with a = m, summing to s*t/2, and
    the parity rule: arc ends of bundle X sit at slots summing to E + n_X - 1
    with E = s*t/2, so every arc joins labels of opposite parity exactly
    when E + n_X is even for each nonempty bundle X.
    """
    out = []
    for s in range(1, 6 * m // t + 1):
        if s * t % 2:
            continue
        e = s * t // 2
        for b in range(m, -1, -1):
            c = e - m - b
            if 0 <= c <= b and all(n == 0 or (e + n) % 2 == 0 for n in (m, b, c)):
                out.append((s, m, b, c))
    return sorted(out, key=lambda r: (r[0], r[1:]))


def parse_enum_graphs(out):
    """Config tuples (s, t, a, b, c) and the printed count, or a reason."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("count: "):
        return None, "no count line"
    rows = []
    for line in lines[:-1]:
        m = _CONFIG_LINE.match(line)
        if not m:
            return None, f"bad config line {line!r}"
        rows.append(tuple(int(g) for g in m.groups()))
    try:
        count = int(lines[-1][len("count: "):])
    except ValueError:
        return None, f"bad count line {lines[-1]!r}"
    if count != len(rows):
        return None, f"count {count} but {len(rows)} config lines"
    return rows, None


def check_enum_graphs(t, m, rc, rows):
    if rc != 0:
        return f"exit code {rc}"
    got = [(s, a, b, c) for s, tt, a, b, c in rows]
    if any(tt != t for _, tt, _, _, _ in rows):
        return "config with the wrong t"
    want = expected_configs(t, m)
    if got != want:
        return f"{len(got)} configs differ from the {len(want)} expected"
    return None


def _edge_labels(s, t, counts, edge):
    """Labels at the two ends of arc (letter, j) under nested pairing."""
    letter, j = edge
    e = s * t // 2
    idx = "ABC".index(letter)
    base = sum(counts[:idx])
    start = base + j
    end = e + base + (counts[idx] - 1 - j)
    return frozenset({start % t + 1, end % t + 1})


def check_faces(cfg_row, report, cycles):
    """Euler count, slot coverage, annulus count and Scharlemann cycles."""
    s, t, a, b, c = cfg_row
    e = s * t // 2
    disks = [r for r in report.regions if r.kind == "disk"]
    annuli = [r for r in report.regions if r.kind != "disk"]
    if len(disks) != e - 1:
        return f"{len(disks)} disks, Euler characteristic needs {e - 1}"
    if sum(len(ci.out_slots) for ci in report.circles) != s * t:
        return "circle lengths do not cover the slots"
    if len(annuli) > 1:
        return f"{len(annuli)} annuli"
    disk_sides = {(r.circles[0].edges, len(r.circles[0].out_slots)) for r in disks}
    for cyc in cycles:
        if (cyc.edges, cyc.length) not in disk_sides:
            return "Scharlemann cycle is not a disk region"
        for edge in cyc.edges:
            if _edge_labels(s, t, (a, b, c), edge) != cyc.label_pair:
                return f"Scharlemann edge {edge} leaves its label pair"
    return None


# --- mapping classes ---------------------------------------------------------

_MCG_KEYS = ("word", "matrix", "trace", "class", "bundle H1",
             "conjugacy invariant")


def word_matrix(syllables):
    """Product of x^e = [[1,e],[0,1]] and y^e = [[1,0],[-e,1]], left to right."""
    a, b, c, d = 1, 0, 0, 1
    for gen, e in syllables:
        if gen == "x":
            b, d = a * e + b, c * e + d
        else:
            a, c = a - b * e, c - d * e
    return a, b, c, d


def _expected_class(m):
    a, b, c, d = m
    t = a + d
    if abs(t) > 2:
        return f"pseudo-Anosov (trace {t})"
    if (b, c) == (0, 0) and a == d:
        return f"periodic (order {1 if t == 2 else 2})"
    if abs(t) == 2:
        return "reducible"
    return f"periodic (order {({1: 6, 0: 4, -1: 3})[t]})"


def bundle_h1_str(m):
    """H1 of the punctured-torus bundle: Z plus the cokernel of M - I.

    The invariant factors of a 2x2 integer matrix are the gcd g of its
    entries and |det| / g; here det(M - I) = 2 - trace.
    """
    a, b, c, d = m
    g = gcd(gcd(a - 1, b), gcd(c, d - 1))
    det = (a - 1) * (d - 1) - b * c
    if g == 0:
        return "Z^3"
    factors = [g] if det == 0 else [g, abs(det) // g]
    rank = 1 if det else 2
    parts = ["Z" if rank == 1 else f"Z^{rank}"]
    parts += [f"Z/{f}" for f in factors if f > 1]
    return " + ".join(parts)


def check_mcg(syllables, rc, out):
    """Returns (reason or None, conjugacy label)."""
    if rc != 0:
        return f"exit code {rc}", None
    fields = {}
    for line in out.splitlines():
        key, sep, val = line.partition(": ")
        if sep:
            fields[key] = val
    if tuple(fields) != _MCG_KEYS:
        return f"fields {tuple(fields)}", None
    m = word_matrix(syllables)
    a, b, c, d = m
    t = a + d
    if fields["matrix"] != f"[[{a}, {b}], [{c}, {d}]]":
        return f"matrix {fields['matrix']}, expected {[[a, b], [c, d]]}", None
    if fields["trace"] != str(t):
        return f"trace {fields['trace']}, expected {t}", None
    if fields["class"] != _expected_class(m):
        return f"class {fields['class']!r}, expected {_expected_class(m)!r}", None
    if fields["bundle H1"] != bundle_h1_str(m):
        return f"bundle H1 {fields['bundle H1']}, expected {bundle_h1_str(m)}", None
    return None, fields["conjugacy invariant"]


def check_coincidences(pairs):
    got = [((f.value, k), (g.value, l)) for (f, k), (g, l) in pairs]
    if got != [(("II", 1), ("III", 1))]:
        return f"coincidences {got[:3]}, expected only II/III at k = l = 1"
    return None
