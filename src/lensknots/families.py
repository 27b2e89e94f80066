"""The atlas of non-null-homologous once-punctured-torus knots in lens spaces.

Six families cover the classification.  Families I-V are cores of surgeries
on the Whitehead link W: with filling coefficients (alpha, beta(k)) drawn
from the closed forms below, the filled manifold is the stated lens space
and the knot is the core of one of the two surgery solid tori.  Family VI
is the unknotted case: cores of -r/q surgery on the unknot, one for every
L(r,q) with |r| != 1.

    I    W(-1, -6+1/k)  core 2  ->  L(6k-1, 2k-1)   s = |6k-1|
    II   W(-2, -4+1/k)  core 2  ->  L(8k-2, 4k+1)   s = |4k-1|
    III  W(-3, -3+1/k)  core 2  ->  L(9k-3, 3k-2)   s = |3k-1|
    IV   W(-3, -3+1/k)  core 1  ->  L(9k-3, 3k-2)   s = 3
    V    W(-2, -4+1/k)  core 1  ->  L(8k-2, 4k+1)   s = 2

(cores numbered as printed, first component = 1; the API is 0-indexed).
Families I-III are torus knots of types {2,3}, {2,4}, {3,3}; IV and V are
fibered exactly when k = +-1 and are torus knots only at k = +1.

instantiate() populates every attribute from the closed forms; verify()
recomputes each one by an independent route (surgery homology, core
orders, bundle homology of the monodromy, grid witnesses, the shipped
filling table) and reports per-check results.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from math import gcd, lcm

from .gridknots import find_torus_grid_witness, grid1_order
from .lenspaces import LensSpace, Slope, is_homeomorphic, normalize
from .mcg import MappingWord, bundle_h1
from .surgery import (FramedLink, core_order, h1, link_from_obj, link_to_obj,
                      unknot, whitehead)


class FamilyId(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


@dataclass(frozen=True)
class FamilyForm:
    """Closed forms of one knotted family, all linear in the parameter k.

    alpha is the constant surgery coefficient, beta the coefficient m of
    the slope m + 1/k on the other component; pairs (a, b) stand for the
    value a*k + b.  A sporadic family is fibered only at k = +-1 and a
    torus knot only at k = +1; the others are fibered torus knots for
    every k, with the same monodromy throughout.
    """

    alpha: int
    beta: int
    p: tuple
    q: tuple
    core: int      # 0-indexed core component
    s: tuple       # homology order of the core, |a*k + b|
    grid: tuple    # grid number one index, |a*k + b|
    torus: tuple   # torus knot type {da, db}
    twists: tuple  # n of the monodromy x^n y at k = -1 and at k = +1
    sporadic: bool = False


_FORMS = {
    FamilyId.I: FamilyForm(-1, -6, (6, -1), (2, -1), core=1, s=(6, -1), grid=(0, 2),
                           torus=(2, 3), twists=(1, 1)),
    FamilyId.II: FamilyForm(-2, -4, (8, -2), (4, 1), core=1, s=(4, -1), grid=(0, 2),
                            torus=(2, 4), twists=(2, 2)),
    FamilyId.III: FamilyForm(-3, -3, (9, -3), (3, -2), core=1, s=(3, -1), grid=(0, 3),
                             torus=(3, 3), twists=(3, 3)),
    FamilyId.IV: FamilyForm(-3, -3, (9, -3), (3, -2), core=0, s=(0, 3), grid=(3, -1),
                            torus=(2, 4), twists=(4, 2), sporadic=True),
    FamilyId.V: FamilyForm(-2, -4, (8, -2), (4, 1), core=0, s=(0, 2), grid=(4, -1),
                           torus=(3, 3), twists=(5, 3), sporadic=True),
}


def _linear(ab, k):
    return ab[0] * k + ab[1]


def _as_family(f) -> FamilyId:
    return f if isinstance(f, FamilyId) else FamilyId(str(f))


@dataclass(frozen=True)
class FamilyInstance:
    family: FamilyId
    k: object          # nonzero int for I-V, None for VI
    rq: object         # (r, q) for VI, None otherwise
    space: LensSpace   # normalized
    surgery: FramedLink
    core_index: int
    order_s: int       # 0 encodes infinite order (S1xS2 only)
    fibered: bool
    monodromy: object  # MappingWord or None
    grid_index: int
    torus_type: object  # (da, db) or None

    def to_dict(self):
        return {
            "schema_version": 1,
            "family": self.family.value,
            "k": self.k,
            "rq": list(self.rq) if self.rq is not None else None,
            "space": str(self.space),
            "surgery": link_to_obj(self.surgery),
            "core_index": self.core_index,
            "order_s": self.order_s,
            "fibered": self.fibered,
            "monodromy": str(self.monodromy) if self.monodromy else None,
            "torus_type": list(self.torus_type) if self.torus_type else None,
            "grid_index": self.grid_index,
        }

    @classmethod
    def from_dict(cls, d) -> "FamilyInstance":
        if d.get("schema_version") != 1:
            raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
        return cls(
            family=FamilyId(d["family"]),
            k=d["k"],
            rq=tuple(d["rq"]) if d["rq"] is not None else None,
            space=LensSpace.parse(d["space"]),
            surgery=link_from_obj(d["surgery"]),
            core_index=d["core_index"],
            order_s=d["order_s"],
            fibered=d["fibered"],
            monodromy=MappingWord.parse(d["monodromy"]) if d["monodromy"] else None,
            grid_index=d["grid_index"],
            torus_type=tuple(d["torus_type"]) if d["torus_type"] else None,
        )


def instantiate(family, k=None, rq=None) -> FamilyInstance:
    """Build the family member at a parameter from the closed forms.

    Families I-V take a nonzero integer k; family VI takes rq = (r, q)
    with gcd(r,q) = 1 and |r| != 1 (r = 0 allowed, giving S1xS2).
    """
    family = _as_family(family)
    if family is FamilyId.VI:
        if rq is None or k is not None:
            raise ValueError("family VI takes rq=(r,q), not k")
        r, q = rq
        if gcd(r, q) != 1 or abs(r) == 1:
            raise ValueError(f"family VI needs coprime (r,q) with |r| != 1, got {rq}")
        return FamilyInstance(
            family=family, k=None, rq=(r, q),
            space=normalize(r, q),
            surgery=unknot(Slope.make(-r, q)),
            core_index=0,
            order_s=abs(r),
            fibered=False, monodromy=None,
            grid_index=1, torus_type=None)
    if rq is not None or not isinstance(k, int) or k == 0:
        raise ValueError(f"family {family.value} takes a nonzero integer k")
    form = _FORMS[family]
    fibered = not form.sporadic or abs(k) == 1
    return FamilyInstance(
        family=family, k=k, rq=None,
        space=family_space(family, k),
        surgery=whitehead(Slope.make(form.alpha, 1),
                          Slope.make(form.beta * k + 1, k)),
        core_index=form.core,
        order_s=abs(_linear(form.s, k)),
        fibered=fibered,
        monodromy=(MappingWord((("x", form.twists[k > 0]), ("y", 1)))
                   if fibered else None),
        grid_index=abs(_linear(form.grid, k)),
        torus_type=form.torus if not form.sporadic or k == 1 else None)


# --- the verification battery ------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    label: str
    checks: tuple

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "schema_version": 1,
            "label": self.label,
            "ok": self.ok,
            "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                       for c in self.checks],
        }


def _exception_detail(exc):
    """The exception, and the function, file and line that raised it."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno}"
    return f"exception: {exc!r} in {code.co_name} ({where})"


def _check(name, fn):
    try:
        passed, detail = fn()
    except Exception as exc:
        return CheckResult(name, False, _exception_detail(exc))
    return CheckResult(name, bool(passed), detail)


def verify(inst: FamilyInstance) -> VerificationReport:
    """Recompute every attribute of an instance by an independent route."""
    checks = (
        _check("homology", lambda: _check_homology(inst)),
        _check("core_order", lambda: _check_core_order(inst)),
        _check("fibration", lambda: _check_fibration(inst)),
        _check("grid", lambda: _check_grid(inst)),
        _check("filling_table", lambda: _check_filling_table(inst)),
        _check("torus_type", lambda: _check_torus_type(inst)),
    )
    return VerificationReport(_label(inst), checks)


def _label(inst):
    param = f"k={inst.k}" if inst.k is not None else f"rq={inst.rq}"
    return f"{inst.family.value} {param}"


def _check_homology(inst):
    group = h1(inst.surgery)
    want = inst.space.order  # 0 for S1xS2, as for group.order()
    ok = group.is_cyclic and group.order() == want
    return ok, f"h1 = {group}, space order {want}"


def _check_core_order(inst):
    got = core_order(inst.surgery, inst.core_index)
    ok = got == inst.order_s
    return ok, f"core order {got}, expected s = {inst.order_s}"


def _check_fibration(inst):
    if not inst.fibered:
        return True, "not fibered; nothing to compare"
    exterior = h1(inst.surgery.unfill(inst.core_index))
    bundle = bundle_h1(inst.monodromy)
    ok = exterior == bundle
    return ok, f"exterior h1 = {exterior}, bundle h1 = {bundle}"


def _check_grid(inst):
    r = inst.space.order
    got = grid1_order(inst.grid_index, r)  # 0 encodes infinite, same as order_s
    ok = got == inst.order_s
    detail = f"grid index {inst.grid_index} has order {got} in H1 of {inst.space}"
    if inst.torus_type is not None:
        da, db = inst.torus_type
        witness = find_torus_grid_witness(r, inst.space.q, da, db)
        # a (da,db) knot on the grid starts with da unit steps, so its
        # grid index is da; holds for every torus-knot member of the atlas
        ok = ok and witness is not None and inst.grid_index == da
        detail += f"; torus witness {witness[0] if witness else 'missing'}"
    return ok, detail


def _check_filling_table(inst):
    for row in filling_table():
        expected = row.space_for(inst)
        if expected is not None:
            ok = is_homeomorphic(inst.space, expected)
            return ok, f"table row gives {expected}, instance has {inst.space}"
    return False, "no filling table row matches the surgery description"


def _check_torus_type(inst):
    if inst.torus_type is None:
        return True, "not a torus knot; nothing to check"
    da, db = inst.torus_type
    total = Fraction(1, da) + Fraction(1, db) + Fraction(1, lcm(da, db))
    return total == 1, f"1/{da} + 1/{db} + 1/lcm = {total}"


# --- the shipped filling table -----------------------------------------------

@dataclass(frozen=True)
class FillingTableRow:
    """One row of the lens-space filling table shipped as package data."""

    link: str
    alpha: object
    beta: object
    p: object
    q: object

    def space_for(self, inst: FamilyInstance):
        """The lens space this row predicts for an instance, or None."""
        if self.link == "unknot":
            if inst.family is not FamilyId.VI:
                return None
            return normalize(*inst.rq)
        if inst.family is FamilyId.VI:
            return None
        form = _FORMS[inst.family]
        if (form.alpha, form.beta) != (self.alpha, self.beta):
            return None
        return normalize(_linear(self.p, inst.k), _linear(self.q, inst.k))


@lru_cache(maxsize=1)
def filling_table():
    text = resources.files("lensknots.data").joinpath("lens_fillings.json").read_text()
    obj = json.loads(text)
    if obj.get("schema_version") != 1:
        raise ValueError(f"unsupported filling table schema_version "
                         f"{obj.get('schema_version')!r}")
    rows = []
    for r in obj["rows"]:
        p = tuple(r["p"]) if isinstance(r["p"], list) else r["p"]
        q = tuple(r["q"]) if isinstance(r["q"], list) else r["q"]
        rows.append(FillingTableRow(r["link"], r["alpha"], r["beta"], p, q))
    return tuple(rows)


# --- global facts ------------------------------------------------------------

def torus_knot_types():
    """All {da, db} with 1/da + 1/db + 1/lcm(da,db) = 1, by brute force.

    These are the torus knot types realizable on a once-punctured-torus
    fiber; the search bound is safe because the left side is at most 3/da.
    """
    out = set()
    for da in range(2, 13):
        for db in range(da, 13):
            if Fraction(1, da) + Fraction(1, db) + Fraction(1, lcm(da, db)) == 1:
                out.add((da, db))
    return out


def family_space(family, k) -> LensSpace:
    """The (normalized) lens space of a knotted family at parameter k."""
    form = _FORMS[_as_family(family)]
    return normalize(_linear(form.p, k), _linear(form.q, k))


def coincidence_scan(maxk):
    """All coincidences among the I/II/III lens spaces for 1 <= k, l <= maxk.

    Returns a list of ((family, k), (family, l)) pairs with coinciding
    spaces.  The expected output is the single II/III coincidence at
    k = l = 1, where L(6,5) and L(6,1) are homeomorphic.  Family spaces are
    normalized, so each pair of families is a hash join on the space, in
    O(maxk) and in (f, g, k, l) order.
    """
    if maxk < 1:
        raise ValueError(f"maxk must be at least 1, got {maxk}")
    fams = (FamilyId.I, FamilyId.II, FamilyId.III)
    spaces = {f: [family_space(f, k) for k in range(1, maxk + 1)] for f in fams}
    out = []
    for i, f in enumerate(fams):
        for g in fams[i + 1:]:
            ls_of = {}
            for l, space in enumerate(spaces[g], 1):
                ls_of.setdefault(space, []).append(l)
            out += [((f, k), (g, l)) for k, space in enumerate(spaces[f], 1)
                    for l in ls_of.get(space, ())]
    return out


def gof_filling(family) -> LensSpace:
    """Lens space containing the genus-one fibered knot of a family.

    The k = -1 member of the n-th family (I..V) is fibered with monodromy
    x^n y, and its punctured-torus bundle is the Whitehead exterior
    W(-n, .).  Filling the second component trivially (slope infinity)
    erases it - both components of W are unknots - leaving -n surgery on
    the unknot, the lens space L(n,1).  The homology of the filled link is
    checked here before returning.
    """
    n = _FORMS[_as_family(family)].twists[0]
    group = h1(whitehead(Slope.make(-n, 1), Slope.make(1, 0)))
    assert group.is_cyclic and group.order() == n
    return normalize(n, 1)
