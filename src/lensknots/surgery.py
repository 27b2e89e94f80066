"""Framed links, Dehn filling coefficients, and first homology.

A framed link is a symmetric integer linking matrix with zero diagonal plus
one rational (or infinite, or absent) filling coefficient per component.
First homology of the filled manifold is presented on meridian generators
e_1..e_n with one relation per filled component i:

    p_i e_i + q_i * sum_j lk(i,j) e_j = 0      (coefficient p_i/q_i)

Unfilled components contribute a free generator and no relation, so the
same machinery computes the homology of the complement of any sublink.

Construction rule: see the `lenspaces` docstring, which lists the
producers here that skip the dataclass check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .lenspaces import INFINITE, Slope, _trusted_builder
from .snf import smith_normal_form

UNFILLED = None


def _coerce_slope(x):
    if x is None or isinstance(x, Slope):
        return x
    if isinstance(x, str):
        return Slope.parse(x)
    return Slope.from_rational(x)


@dataclass(frozen=True, slots=True)
class AbelianGroup:
    """Finitely generated abelian group: Z^rank + Z/d1 + ... (d1 | d2 | ...)."""

    rank: int
    torsion: tuple

    def __post_init__(self):
        if type(self.rank) is not int or self.rank < 0:
            raise ValueError(f"rank must be a nonnegative int, got {self.rank!r}")
        torsion = self.torsion
        if type(torsion) is not tuple or any(type(d) is not int or d < 2 for d in torsion):
            raise ValueError(f"torsion must be a tuple of ints at least 2, got {torsion!r}")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise ValueError(f"torsion {torsion} is not a divisibility chain")

    def order(self):
        if self.rank > 0:
            return INFINITE
        return math.prod(self.torsion)

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
        if type(ngens) is not int or ngens < 0 or any(len(r) != ngens for r in rows):
            raise ValueError(f"need int ngens >= 0 and {ngens!r} entries in every relation row")
        return _cokernel(smith_normal_form(rows), ngens)


_group = _trusted_builder(AbelianGroup)


def _cokernel(diag, ngens):
    """The group of a Smith diagonal of relations on ngens generators.  A
    diagonal is a divisibility chain, so its 1s, which add nothing, lead."""
    return _group(ngens - len(diag), tuple(diag[diag.count(1):]))


@dataclass(frozen=True, slots=True)
class FramedLink:
    """Linking matrix plus per-component filling coefficients.

    linking: tuple of tuples, symmetric with zero diagonal.
    coefficients: tuple of Slope or None (None = boundary left unfilled).
    Every field is immutable, so a link is hashable (a dictionary key).
    """

    linking: tuple
    coefficients: tuple
    name: str = None

    def __post_init__(self):
        if not (type(self.linking) is tuple and type(self.coefficients) is tuple
                and all(type(row) is tuple for row in self.linking)):
            raise ValueError("linking rows and coefficients must be tuples; "
                             "FramedLink.make converts lists")
        if self.name is not None and type(self.name) is not str:
            raise ValueError(f"link name {self.name!r} is not a string")
        n = len(self.linking)
        if len(self.coefficients) != n:
            raise ValueError("need one filling coefficient per component")
        for i, row in enumerate(self.linking):
            if len(row) != n or row[i] != 0:
                raise ValueError("linking matrix must be square with zero diagonal")
            for j in range(n):
                if type(row[j]) is not int or row[j] != self.linking[j][i]:
                    raise ValueError("linking matrix must be symmetric and integral")
        for c in self.coefficients:
            if c is not None and not isinstance(c, Slope):
                raise ValueError(f"coefficient {c!r} is not a slope")

    @classmethod
    def make(cls, linking, coefficients, name=None) -> "FramedLink":
        linking = tuple(tuple(row) for row in linking)
        coefficients = tuple(_coerce_slope(c) for c in coefficients)
        return cls(linking, coefficients, name)

    @property
    def num_components(self):
        return len(self.linking)

    def lk(self, i, j):
        return self.linking[i][j]


_link = _trusted_builder(FramedLink)


def _check_component(link, i):
    """The number of components of link, once i is the index of one."""
    n = len(link.linking)
    if type(i) is not int or not 0 <= i < n:
        raise ValueError(f"no component {i!r} in a {n}-component link")
    return n


def unknot(coeff=UNFILLED) -> FramedLink:
    return _link(((0,),), (_coerce_slope(coeff),), "unknot")


def whitehead(a=UNFILLED, b=UNFILLED) -> FramedLink:
    """The Whitehead link: two components with linking number zero."""
    return _link(((0, 0), (0, 0)), (_coerce_slope(a), _coerce_slope(b)), "whitehead")


def chain3(a=UNFILLED, b=UNFILLED, c=UNFILLED) -> FramedLink:
    """Three components, each pair linking once positively."""
    return FramedLink.make(((0, 1, 1), (1, 0, 1), (1, 1, 0)), (a, b, c),
                           name="chain3")


def h1_presentation(link: FramedLink):
    """Relation rows of H1 on the meridian generators, one per filled comp."""
    rows = []
    for i, c in enumerate(link.coefficients):
        if c is None:
            continue
        row = [c.q * x for x in link.linking[i]]
        row[i] = c.p  # diagonal linking entry is zero, so nothing is lost
        rows.append(row)
    return rows


def h1(link: FramedLink) -> AbelianGroup:
    """First homology of the filled manifold, unfilled components free.

    The rows are built here, one per filled component and one entry per
    component each, so the Smith diagonal is read with no row check.  It
    comes from the one-link memo of `_reduced_h1`, which `core_order`
    shares, so `h1` and the core order of every component of one link
    take that diagonal once.
    """
    return _cokernel(_reduced_h1(link)[1], len(link.linking))


def core_order(link: FramedLink, i: int):
    """Order in H1 of the core of the solid torus filling component i.

    With filling coefficient p/q the core is c*e_i + d*sum_j lk(i,j)*e_j for
    any (c, d) with p*d - q*c = 1.  That row and the relation row of
    component i span the meridian e_i and the longitude sum_j lk(i,j)*e_j,
    so killing the core leaves the other relation rows and the longitude,
    with column i dropped to quotient out e_i.  The order is the order of
    H1 over that of the quotient, or INFINITE (0) when the rank drops.
    Both are read straight off Smith diagonals, with no group built: a
    presentation of ncols columns has rank ncols - len(diag), and the
    product of the diagonal is the torsion's order, since its 1s change
    nothing (for a finite H1 it is |det| of the square presentation).
    H1's diagonal comes from the `_reduced_h1` memo, so `h1` and the core
    order of each of n components take n + 1 Smith forms in all.
    """
    _check_component(link, i)
    return _core_order(link, i, *_reduced_h1(link))


# the last link _reduced_h1 reduced, with its rows and diagonal
_last_h1 = (None, (), ())


def _reduced_h1(link):
    """The relation rows of H1 and their Smith diagonal, as tuples, so no
    caller can change them.

    The last link reduced is kept, so `h1` then `core_order` of one link,
    as `verify` and `homology` ask, reduce it once.  It is found by
    identity and held by a strong reference, so its id is never reused
    while it is kept.  The memo is read and replaced whole, so threads
    sharing it can at worst reduce a link again.
    """
    global _last_h1
    last, rows, diag = _last_h1
    if link is last:
        return rows, diag
    rows = tuple(map(tuple, h1_presentation(link)))
    diag = tuple(smith_normal_form(rows))
    _last_h1 = link, rows, diag
    return rows, diag


def _core_order(link, i, rows, diag):
    """The core order of component i, from H1's rows and Smith diagonal."""
    if None in link.coefficients:
        raise ValueError("core_order needs a closed manifold: fill every component")
    others = rows[:i] + rows[i + 1:] + (link.linking[i],)
    diag2 = smith_normal_form([r[:i] + r[i + 1:] for r in others])
    # on n generators H1 has rank n - len(diag) and the quotient, on n - 1,
    # has rank n - 1 - len(diag2)
    if len(diag2) >= len(diag):  # the quotient's rank is lower
        return INFINITE
    # the core spans a finite subgroup, so |torsion of H1| = order * |torsion
    # of the quotient| and the division is exact
    return math.prod(diag) // math.prod(diag2)


def blow_down(link: FramedLink, c: int) -> FramedLink:
    """Remove a (+1)- or (-1)-framed unknotted component by twisting.

    Component c must carry coefficient +1 or -1.  Every other coefficient
    p/q becomes (p - eps*lk(c,i)^2*q)/q and the linking matrix loses
    eps*lk(c,i)*lk(c,j) off-diagonal.  Infinite and absent coefficients are
    untouched in value (infinity stays infinity, unfilled stays unfilled).
    """
    n = _check_component(link, c)
    coeff = link.coefficients[c]
    if coeff is None or coeff.q != 1 or abs(coeff.p) != 1:
        raise ValueError(f"component {c} is not (+1)- or (-1)-framed")
    eps = coeff.p
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

def link_to_obj(link: FramedLink) -> dict:
    obj = {
        "schema_version": 1,
        "linking": [list(row) for row in link.linking],
        "coefficients": ["-" if c is None else str(c) for c in link.coefficients],
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
    return FramedLink.make(linking, [None if c == "-" else c for c in coefficients],
                           obj.get("name"))


def link_from_json(text: str) -> FramedLink:
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("link file nests too deeply") from None
    return link_from_obj(obj)
