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
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        if any(d < 2 for d in self.torsion):
            raise ValueError(f"torsion coefficients must be at least 2, got {self.torsion}")
        if any(b % a for a, b in zip(self.torsion, self.torsion[1:])):
            raise ValueError(f"torsion {self.torsion} is not a divisibility chain")

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


def core_order(link: FramedLink, i: int):
    """Order in H1 of the core of the solid torus filling component i.

    With filling coefficient p/q the core is c*e_i + d*sum_j lk(i,j)*e_j for
    any (c, d) with p*d - q*c = 1.  That row and the relation row of
    component i span the meridian e_i and the longitude sum_j lk(i,j)*e_j,
    so killing the core leaves the cokernel of the other relation rows, e_i
    and the longitude.  The order is the quotient of the torsion orders,
    or INFINITE (0) when the rank drops.
    """
    coeff = link.coefficients[i]
    if coeff is None:
        raise ValueError(f"component {i} is not filled")
    if any(c is None for c in link.coefficients):
        raise ValueError("core_order needs a closed manifold: fill every component")
    n = link.num_components
    rows = h1_presentation(link)
    meridian = [0] * n
    meridian[i] = 1
    g = AbelianGroup.from_presentation(rows, n)
    g2 = AbelianGroup.from_presentation(
        rows[:i] + rows[i + 1:] + [meridian, link.linking[i]], n)
    if g2.rank < g.rank:
        return INFINITE
    order, rest = divmod(math.prod(g.torsion), math.prod(g2.torsion))
    assert rest == 0
    return order


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
    linking, coefficients = obj["linking"], obj["coefficients"]
    if not (isinstance(linking, list)
            and all(isinstance(row, list) and all(type(v) is int for v in row)
                    for row in linking)):
        raise ValueError("linking must be a list of lists of integers")
    if not (isinstance(coefficients, list)
            and all(isinstance(c, str) for c in coefficients)):
        raise ValueError('coefficients must be a list of strings like "-5/2"')
    return FramedLink.make(linking, [_coeff_from_str(c) for c in coefficients],
                           obj.get("name"))


def link_to_json(link: FramedLink) -> str:
    return json.dumps(link_to_obj(link), indent=2, sort_keys=True) + "\n"


def link_from_json(text: str) -> FramedLink:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("link file nests too deeply") from None
    return link_from_obj(obj)
