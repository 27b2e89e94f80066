"""Framed links, Dehn filling coefficients, and first homology.

A framed link is a symmetric integer linking matrix with zero diagonal plus
one rational (or infinite, or absent) filling coefficient per component.
First homology of the filled manifold is presented on meridian generators
e_1..e_n with one relation per filled component i:

    p_i e_i + q_i * sum_j lk(i,j) e_j = 0      (coefficient p_i/q_i)

Unfilled components contribute a free generator and no relation, so the
same machinery computes the homology of the complement of any sublink.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .lenspaces import INFINITY, Slope
from .snf import smith_normal_form

# order of an infinite-order element or infinite group; with this encoding
# |H1| = |det| of the presentation holds for every closed manifold
INFINITE = 0

UNFILLED = None


def _coerce_slope(x):
    if x is None or isinstance(x, Slope):
        return x
    if isinstance(x, str):
        return Slope.parse(x)
    if isinstance(x, tuple):
        return Slope.make(*x)
    return Slope.from_rational(Fraction(x))


@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank + Z/d1 + ... (d1 | d2 | ...)."""

    rank: int
    torsion: tuple

    def __post_init__(self):
        assert self.rank >= 0
        assert all(d >= 2 for d in self.torsion)
        assert all(b % a == 0 for a, b in zip(self.torsion, self.torsion[1:]))

    def order(self):
        if self.rank > 0:
            return INFINITE
        return math.prod(self.torsion)

    @property
    def is_trivial(self):
        return self.rank == 0 and not self.torsion

    @property
    def is_cyclic(self):
        if self.rank == 0:
            return len(self.torsion) <= 1
        return self.rank == 1 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @classmethod
    def from_presentation(cls, rows, ngens) -> "AbelianGroup":
        """Cokernel of the relation rows inside Z^ngens."""
        for r in rows:
            assert len(r) == ngens
        diag = smith_normal_form(rows) if rows else []
        return cls(ngens - len(diag), tuple(d for d in diag if d > 1))


@dataclass(frozen=True)
class FramedLink:
    """Linking matrix plus per-component filling coefficients.

    linking: tuple of tuples, symmetric with zero diagonal.
    coefficients: tuple of Slope or None (None = boundary left unfilled).
    """

    linking: tuple
    coefficients: tuple
    name: str = None

    def __post_init__(self):
        n = len(self.linking)
        if len(self.coefficients) != n:
            raise ValueError("need one filling coefficient per component")
        for i, row in enumerate(self.linking):
            if len(row) != n or row[i] != 0:
                raise ValueError("linking matrix must be square with zero diagonal")
            for j in range(n):
                if not isinstance(row[j], int) or row[j] != self.linking[j][i]:
                    raise ValueError("linking matrix must be symmetric and integral")
        for c in self.coefficients:
            if c is not None and not isinstance(c, Slope):
                raise ValueError(f"coefficient {c!r} is not a slope")

    @classmethod
    def make(cls, linking, coefficients, name=None) -> "FramedLink":
        linking = tuple(tuple(int(v) for v in row) for row in linking)
        coefficients = tuple(_coerce_slope(c) for c in coefficients)
        return cls(linking, coefficients, name)

    @property
    def num_components(self):
        return len(self.linking)

    def lk(self, i, j):
        return self.linking[i][j]

    def fill(self, i, coeff) -> "FramedLink":
        """Replace component i's coefficient (None removes the filling)."""
        coeffs = list(self.coefficients)
        coeffs[i] = _coerce_slope(coeff)
        return FramedLink(self.linking, tuple(coeffs), self.name)

    def unfill(self, i) -> "FramedLink":
        return self.fill(i, None)


def unknot(coeff=UNFILLED) -> FramedLink:
    return FramedLink.make(((0,),), (coeff,), name="unknot")


def whitehead(a=UNFILLED, b=UNFILLED) -> FramedLink:
    """The Whitehead link: two components with linking number zero."""
    return FramedLink.make(((0, 0), (0, 0)), (a, b), name="whitehead")


def chain3(a=UNFILLED, b=UNFILLED, c=UNFILLED) -> FramedLink:
    """Three components, each pair linking once positively."""
    return FramedLink.make(((0, 1, 1), (1, 0, 1), (1, 1, 0)), (a, b, c),
                           name="chain3")


_BUILTINS = {"unknot": unknot, "whitehead": whitehead, "chain3": chain3}


def builtin(name: str) -> FramedLink:
    """The named builtin link (unknot, whitehead, chain3), all unfilled."""
    try:
        return _BUILTINS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown builtin link {name!r}") from None


def h1_presentation(link: FramedLink):
    """Relation rows of H1 on the meridian generators, one per filled comp."""
    n = link.num_components
    rows = []
    for i, c in enumerate(link.coefficients):
        if c is None:
            continue
        row = [c.q * link.lk(i, j) for j in range(n)]
        row[i] = c.p  # diagonal linking entry is zero, so nothing is lost
        rows.append(row)
    return rows


def h1(link: FramedLink) -> AbelianGroup:
    return AbelianGroup.from_presentation(h1_presentation(link),
                                          link.num_components)


def _torsion_product(g: AbelianGroup):
    return math.prod(g.torsion)


def core_order(link: FramedLink, i: int, bezout=None):
    """Order in H1 of the core of the solid torus filling component i.

    With filling coefficient p/q, the core is homologous to
    c*e_i + d*sum_j lk(i,j)*e_j for any (c,d) with p*d - q*c = 1; different
    Bezout solutions differ by a multiple of the relation row of component
    i, so the class in H1 is independent of the choice.  Returns INFINITE
    (0) for infinite order.
    """
    coeff = link.coefficients[i]
    if coeff is None:
        raise ValueError(f"component {i} is not filled")
    if any(c is None for c in link.coefficients):
        raise ValueError("core_order needs a closed manifold: fill every component")
    p, q = coeff.p, coeff.q
    if bezout is None:
        # extended gcd for p*d - q*c = 1
        d, c = _solve_bezout(p, q)
    else:
        c, d = bezout
    assert p * d - q * c == 1
    n = link.num_components
    v = [d * link.lk(i, j) for j in range(n)]
    v[i] = c
    rows = h1_presentation(link)
    g = AbelianGroup.from_presentation(rows, n)
    g2 = AbelianGroup.from_presentation(rows + [v], n)
    if g2.rank < g.rank:
        return INFINITE
    order = _torsion_product(g) // _torsion_product(g2)
    assert order * _torsion_product(g2) == _torsion_product(g)
    return order


def _solve_bezout(p, q):
    """Some (d, c) with p*d - q*c = 1; requires gcd(p,q) = 1."""
    assert gcd(p, q) == 1
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    # p*old_s + q*old_t = old_r = +-1; rescale by old_r to hit exactly 1
    d = old_s * old_r
    c = -old_t * old_r
    assert p * d - q * c == 1
    return d, c


def blow_down(link: FramedLink, c: int) -> FramedLink:
    """Remove a (+1)- or (-1)-framed unknotted component by twisting.

    Component c must carry coefficient +1 or -1.  Every other coefficient
    p/q becomes (p - eps*lk(c,i)^2*q)/q and the linking matrix loses
    eps*lk(c,i)*lk(c,j) off-diagonal.  Infinite and absent coefficients are
    untouched in value (infinity stays infinity, unfilled stays unfilled).
    """
    coeff = link.coefficients[c]
    if coeff is None or coeff.q != 1 or abs(coeff.p) != 1:
        raise ValueError(f"component {c} is not (+1)- or (-1)-framed")
    eps = coeff.p
    n = link.num_components
    keep = [i for i in range(n) if i != c]
    linking = tuple(
        tuple(link.lk(i, j) - eps * link.lk(c, i) * link.lk(c, j) if i != j else 0
              for j in keep)
        for i in keep)
    coeffs = []
    for i in keep:
        s = link.coefficients[i]
        if s is None:
            coeffs.append(None)
        else:
            coeffs.append(Slope.make(s.p - eps * link.lk(c, i) ** 2 * s.q, s.q))
    return FramedLink(linking, tuple(coeffs))


# --- JSON link files ---------------------------------------------------------

def _coeff_to_str(c):
    if c is None:
        return "-"
    return str(c)


def _coeff_from_str(s):
    if s == "-":
        return None
    return Slope.parse(s)


def link_to_obj(link: FramedLink) -> dict:
    obj = {
        "schema_version": 1,
        "linking": [list(row) for row in link.linking],
        "coefficients": [_coeff_to_str(c) for c in link.coefficients],
    }
    if link.name is not None:
        obj["name"] = link.name
    return obj


def link_from_obj(obj) -> FramedLink:
    if not isinstance(obj, dict):
        raise ValueError("a link file holds one JSON object")
    if obj.get("schema_version") != 1:
        raise ValueError("unsupported link file schema")
    missing = [key for key in ("linking", "coefficients") if key not in obj]
    if missing:
        raise ValueError(f"link file lacks {', '.join(missing)}")
    return FramedLink.make(obj["linking"],
                           [_coeff_from_str(s) for s in obj["coefficients"]],
                           obj.get("name"))


def link_to_json(link: FramedLink) -> str:
    return json.dumps(link_to_obj(link), indent=2, sort_keys=True) + "\n"


def link_from_json(text: str) -> FramedLink:
    return link_from_obj(json.loads(text))
