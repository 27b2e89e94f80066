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

instantiate() populates every attribute from the closed forms in _FORMS,
read at each call; an instance is fibered exactly when it carries a
monodromy.  verify() recomputes each attribute by an independent route
(surgery homology, core orders, the Alexander polynomial of the knot
exterior against the monodromy, grid witnesses, the core's self-linking in
the lens space) and reports per-check results.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace
from math import gcd, lcm
from operator import itemgetter

from .gridknots import grid1_order, torus_grid_slope
from .lenspaces import LensSpace, Slope, _q_orbit, _slope, _trusted_builder, normalize
from .mcg import MappingWord
from .surgery import FramedLink, core_order, h1, link_to_obj, unknot, whitehead


class FamilyId(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"


@dataclass(frozen=True, slots=True)
class _FamilyForm:
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
    FamilyId.I: _FamilyForm(-1, -6, (6, -1), (2, -1), core=1, s=(6, -1), grid=(0, 2),
                            torus=(2, 3), twists=(1, 1)),
    FamilyId.II: _FamilyForm(-2, -4, (8, -2), (4, 1), core=1, s=(4, -1), grid=(0, 2),
                             torus=(2, 4), twists=(2, 2)),
    FamilyId.III: _FamilyForm(-3, -3, (9, -3), (3, -2), core=1, s=(3, -1), grid=(0, 3),
                              torus=(3, 3), twists=(3, 3)),
}
# IV and V are the other cores of III's and II's fillings
_FORMS[FamilyId.IV] = replace(_FORMS[FamilyId.III], core=0, s=(0, 3), grid=(3, -1),
                              torus=(2, 4), twists=(4, 2), sporadic=True)
_FORMS[FamilyId.V] = replace(_FORMS[FamilyId.II], core=0, s=(0, 2), grid=(4, -1),
                             torus=(3, 3), twists=(5, 3), sporadic=True)


def _linear(ab, k):
    return ab[0] * k + ab[1]


def _as_family(f) -> FamilyId:
    # a non-string fails by its type's name, so no repr of it is built
    return f if isinstance(f, FamilyId) else FamilyId(
        f if isinstance(f, str) else type(f).__name__)


def _form(family, k) -> _FamilyForm:
    """The closed forms of a knotted family, once k is a nonzero integer."""
    family = _as_family(family)
    form = _FORMS.get(family)
    if form is None or type(k) is not int or k == 0:
        raise ValueError(f"family {family.value} has no member at this k: "
                         "families I-V take a nonzero integer k")
    return form


@dataclass(frozen=True, slots=True)
class FamilyInstance:
    family: FamilyId
    k: object          # nonzero int for I-V, None for VI
    rq: object         # (r, q) for VI, None otherwise
    space: LensSpace   # normalized
    surgery: FramedLink
    core_index: int
    order_s: int       # INFINITE for S1xS2 only
    monodromy: object  # MappingWord, or None when not fibered
    grid_index: int
    torus_type: object  # (da, db) or None

    @property
    def fibered(self):
        return self.monodromy is not None

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


_word = _trusted_builder(MappingWord)
# takes the fields in order: family, k, rq, space, surgery, core_index,
# order_s, monodromy, grid_index, torus_type
_instance = _trusted_builder(FamilyInstance)


def instantiate(family, k=None, rq=None) -> FamilyInstance:
    """Build the family member at a parameter from the closed forms.

    Families I-V take a nonzero integer k; family VI takes rq = (r, q), a
    tuple or list, with gcd(r,q) = 1 and |r| != 1 (r = 0 allowed, giving
    S1xS2).
    """
    family = _as_family(family)
    if family is FamilyId.VI:
        if k is not None or type(rq) not in (tuple, list) or [*map(type, rq)] != [int, int]:
            raise ValueError("family VI takes a pair of integers r and q, and no k")
        r, q = rq
        if gcd(r, q) != 1 or abs(r) == 1:
            raise ValueError(f"family VI needs coprime (r,q) with |r| != 1, got {rq}")
        return _instance(family, None, (r, q), normalize(r, q),
                         unknot(Slope.make(-r, q)), 0, abs(r), None, 1, None)
    if rq is not None:
        raise ValueError(f"family {family.value} takes k, not r and q")
    form = _form(family, k)
    fibered = not form.sporadic or abs(k) == 1
    # beta + 1/k = (beta*k + 1)/k is in lowest terms, as gcd(beta*k + 1, k)
    # divides 1; only its sign is fixed for k < 0
    m = form.beta * k + 1
    return _instance(
        family, k, None, _space(form, k),
        whitehead(_slope(form.alpha, 1), _slope(m, k) if k > 0 else _slope(-m, -k)),
        form.core, abs(_linear(form.s, k)),
        _word((("x", form.twists[k > 0]), ("y", 1))) if fibered else None,
        abs(_linear(form.grid, k)),
        form.torus if not form.sporadic or k == 1 else None)


# --- the verification battery ------------------------------------------------

@dataclass(frozen=True, slots=True)
class CheckResult:
    """A check's name, its verdict, and the detail text of what it compared."""

    name: str
    passed: bool
    detail: str


@dataclass(frozen=True, slots=True)
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
    # imported here: only a failure needs it
    import traceback

    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    return f"exception: {exc!r} in {frame.name} ({where})"


# the checks in report order; each runs as the function _check_<name>
_CHECK_NAMES = ("homology", "core_order", "fibration", "grid", "linking_form",
               "torus_type")
_CHECK_FUNCS = tuple("_check_" + name for name in _CHECK_NAMES)


def _run_checks(inst):
    """Each check's (verdict, detail template, *values), in _CHECK_NAMES
    order.  A check is looked up by its function's name at call time, so a
    replaced one takes effect; a check that raises fails, with the
    exception as its detail."""
    checks = globals()
    outcomes = []
    for func in _CHECK_FUNCS:
        try:
            outcomes.append(checks[func](inst))
        except Exception as exc:
            outcomes.append((False, "{}", _exception_detail(exc)))
    return outcomes


def _detail(outcome):
    """The detail text of a check's (verdict, template, *values).  A value
    that cannot be rendered, say a number past the digit limit, or an
    outcome with no template reads as that exception."""
    try:
        return outcome[1].format(*outcome[2:])
    except Exception as exc:
        return _exception_detail(exc)


def _report_of(label, outcomes):
    """The report of what _run_checks returned."""
    return VerificationReport(label, tuple(
        CheckResult(name, bool(outcome[0]), _detail(outcome))
        for name, outcome in zip(_CHECK_NAMES, outcomes)))


def verify(inst: FamilyInstance) -> VerificationReport:
    """Recompute every attribute of an instance by an independent route.

    The label is rendered before any check runs, so a parameter past
    Python's int-to-str digit limit raises Python's ValueError; a detail
    that cannot be rendered reads as its exception.  `verify` of the CLI
    runs the same checks through `_verify_line`, which builds this report
    only for an instance that fails.
    """
    label = _label(inst)
    return _report_of(label, _run_checks(inst))


_verdict = itemgetter(0)


def _verify_line(family, k):
    """Whether the member of a family at k passes, and its rendered line:
    the ok line, or a FAIL line with the detail of each failing check.  A
    passing member formats no detail; the report is built inside the try,
    so a malformed outcome is one FAIL line."""
    try:
        inst = instantiate(family, k)
        label = _label(inst)
        outcomes = _run_checks(inst)
        if all(map(_verdict, outcomes)):
            return True, f"ok {label}: {inst.space}"
        report = _report_of(label, outcomes)
        bad = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.passed)
    except Exception as exc:
        return False, f"FAIL {family.value} k={k}: {_exception_detail(exc)}"
    return False, f"FAIL {label}: {bad}"


def _label(inst):
    param = f"k={inst.k}" if inst.k is not None else f"rq={inst.rq}"
    return f"{inst.family.value} {param}"


def _check_homology(inst):
    group = h1(inst.surgery)
    want = inst.space.order  # 0 for S1xS2, as for group.order()
    ok = group.is_cyclic and group.order() == want
    return ok, "h1 = {}, space order {}", group, want


def _check_core_order(inst):
    got = core_order(inst.surgery, inst.core_index)
    ok = got == inst.order_s
    return ok, "core order {}, expected s = {}", got, inst.order_s


def _check_fibration(inst):
    """The Alexander polynomial of the knot exterior against the monodromy M.

    A knot whose exterior fibers with punctured-torus fiber and monodromy M
    has Delta = t^2 - tr(M) t + 1 and H1 of the exterior = Z + coker(M - I).
    The exterior of a core of W(p/q, .) has H1 = Z + Z/|p|, and Delta(1) =
    -p = det(M - I) when the two Deltas agree; so with the entries of M - I
    coprime, which makes coker(M - I) cyclic, the two H1s agree as well.  A
    member of I-V that is not fibered has a Delta that is not monic.
    Family VI has no Whitehead exterior, and nothing to compare.
    """
    if inst.family is FamilyId.VI and not inst.fibered:
        return True, "not fibered; nothing to compare"
    link = inst.surgery
    if link.name != "whitehead":
        return False, "surgery on {}, not the Whitehead link; no closed form for Delta", link.name
    delta = _alexander(link.coefficients[1 - inst.core_index])
    if not inst.fibered:
        ok = delta[0] != 1
        return ok, "not fibered; exterior Delta = {}, leading coefficient {}", delta, delta[0]
    (a, b), (c, d) = inst.monodromy.matrix()
    want, g = (1, -a - d, 1), gcd(a - 1, b, c, d - 1)
    ok = delta == want and g == 1
    return ok, "exterior Delta = {}, monodromy Delta = {}, gcd of M - I = {}", delta, want, g


def _alexander(slope):
    """Delta of the exterior of the unfilled component of W(p/q, .), as its
    coefficients from the highest power of t down: (q, -p - 2q, q), or (1,)
    when q = 0 and the exterior is the unknot's.

    The Whitehead link is the 2-bridge link b(8,3), with group
    <a, b | a w = w a> for w = b a b^-1 a^-1 b^-1 a b; the longitude of a is
    l = w a^-1, and filling a with slope p/q adds the relator a^-p l^q.
    The linking number is 0, so the exterior's H1 modulo torsion sends a to
    1 and b to t.  Take Fox derivatives (R. H. Fox, Free differential
    calculus I, Ann. of Math. 57, 1953) under that map.  Each relator r
    maps to 1, so Fox's fundamental formula gives dr/da (1 - 1) +
    dr/db (t - 1) = 0, and every b-column entry vanishes;
    d(a w a^-1 w^-1)/da = 1 - w = 0 as well, since w maps to 1.  Delta is
    the one entry left.  With dw/da = t - 1 + t^-1 it is
    d(a^-p l^q)/da = -p + q (dw/da - 1) = t^-1 (q t^2 - (p + 2q) t + q),
    and -1 at q = 0, where the slope is 1/0.
    """
    p, q = slope.p, slope.q
    return (q, -p - 2 * q, q) if q else (1,)


def _check_grid(inst):
    r = inst.space.order
    got = grid1_order(inst.grid_index, r)  # INFINITE encoded as in order_s
    ok = got == inst.order_s
    if inst.torus_type is None:
        return ok, "grid index {} has order {} in H1 of {}", inst.grid_index, got, inst.space
    da, db = inst.torus_type
    # the detail names only the witness's slope, so its sequence is not built
    qdot = torus_grid_slope(r, inst.space.q, da, db)
    # a (da,db) knot on the grid starts with da unit steps, so its
    # grid index is da; holds for every torus-knot member of the atlas
    ok = ok and qdot is not None and inst.grid_index == da
    return (ok, "grid index {} has order {} in H1 of {}; torus witness {}",
            inst.grid_index, got, inst.space, "missing" if qdot is None else qdot)


def _check_linking_form(inst):
    """p*lk(K,K) of the core against +-n^2 q^+-1 mod p, the self-linking of
    the n-th grid-number-one knot in L(p,q).

    With every lk zero, the core of a component filled with slope a/b is
    c*e_i for c = b^-1 mod a, and lk(e_i, e_i) = -b/a mod 1, so
    p*lk(K,K) = -b*c^2*(p/a) mod p.  The sign and the choice of q or q^-1
    are the orientation and the core that normalization forgets.
    """
    p = inst.space.order
    if p <= 1:
        return True, "{} has no torsion linking form; nothing to compare", inst.space
    if any(map(any, inst.surgery.linking)):
        return False, "components link; no closed form for the self-linking"
    slope = inst.surgery.coefficients[inst.core_index]
    a, b = slope.p, slope.q
    if a == 0 or p % a:
        return False, "core slope {} does not divide |H1| = {}", slope, p
    c = pow(b, -1, abs(a))
    got = -b * c * c * (p // a) % p
    n2 = inst.grid_index ** 2
    want = [n2 * x % p for x in _q_orbit(p, inst.space.q)]
    ok = got in want
    return ok, "p*lk(K,K) = {} mod {}, expected +-{} or +-{}", got, p, want[0], want[2]


def _check_torus_type(inst):
    if inst.torus_type is None:
        return True, "not a torus knot; nothing to check"
    da, db = inst.torus_type
    ok = _is_torus_type(da, db)
    return ok, "1/{} + 1/{} + 1/lcm {} 1", da, db, "=" if ok else "!="


def _is_torus_type(da, db):
    """1/da + 1/db + 1/m = 1 with m = lcm(da, db), multiplied through by m."""
    m = lcm(da, db)
    return m // da + m // db + 1 == m


# --- the filling table -------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FillingTableRow:
    """One lens-space filling: of the Whitehead link, or the unknot's -r/q."""

    link: str
    alpha: object
    beta: object
    p: object
    q: object


def filling_table():
    """The distinct Whitehead fillings of the families, then the unknot's."""
    fillings = dict.fromkeys((f.alpha, f.beta, f.p, f.q) for f in _FORMS.values())
    return tuple(FillingTableRow("whitehead", *f) for f in fillings) + (
        FillingTableRow("unknot", None, None, "r", "q"),)


# --- global facts ------------------------------------------------------------

def torus_knot_types():
    """All {da, db} with 1/da + 1/db + 1/lcm(da,db) = 1, by brute force.

    These are the torus knot types realizable on a once-punctured-torus
    fiber; the search bound is safe because the left side is at most 3/da.
    """
    return {(da, db) for da in range(2, 13) for db in range(da, 13)
            if _is_torus_type(da, db)}


def family_space(family, k) -> LensSpace:
    """The (normalized) lens space of a knotted family at parameter k."""
    return _space(_form(family, k), k)


def _space(form, k):
    return normalize(_linear(form.p, k), _linear(form.q, k))


def coincidence_scan(maxk):
    """All coincidences among the I/II/III lens spaces for 1 <= k, l <= maxk.

    Returns a list of ((family, k), (family, l)) pairs with coinciding
    spaces.  The expected output is the single II/III coincidence at
    k = l = 1, where L(6,5) and L(6,1) are homeomorphic.  Family spaces are
    normalized, so each pair of families is a hash join on the space, in
    O(maxk) and in (f, g, k, l) order.
    """
    if type(maxk) is not int or maxk < 1:
        raise ValueError(f"maxk must be an int of at least 1, got {maxk!r}")
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
    the unknot, the lens space L(n,1).  The space is read off the homology
    of the filled link, presented by [[-n, 0], [0, 1]]: Z/|n| for every n.
    """
    n = _form(family, -1).twists[0]
    group = h1(whitehead(Slope.make(-n, 1), Slope.make(1, 0)))
    return normalize(group.order(), 1)

