"""Lens spaces and surgery slopes, with exact integer arithmetic.

L(p,q) is the result of -p/q Dehn surgery on the unknot.  Two lens spaces
L(p,q) and L(p',q') are homeomorphic (orientation quotiented out) iff
|p| = |p'| and q' is congruent to one of q, -q, q^{-1}, -q^{-1} mod |p|.
The canonical form stores |p| together with the minimum of that orbit;
p = 0 encodes S1xS2 and |p| = 1 encodes S3 (with q := 1 in both cases).

Slopes on a torus boundary are reduced fractions p/q with (p,q) ~ (-p,-q),
plus the infinite slope 1/0.

Construction rule, for every value class of the package: direct
construction (`LensSpace(p, q)`, `Slope(p, q)`, `AbelianGroup(...)`,
`FramedLink(...)`, `MappingWord(...)`, `ArcSystemConfig(...)`),
`FramedLink.make` and every parser validate their input and raise
`ValueError`.  The producers whose own code makes their result valid, and
that run once per atlas member or per enumerated element, build it with a
builder of `_trusted_builder`, made once per class at import, which skips
the generated `__init__` and the `__post_init__` check.  They are exactly
these, each bullet naming its producers before its colon:

- `lenspaces.normalize` and `lenspaces.Slope.make`: after the input rule
  each shares with direct construction (`_check_lens` for `LensSpace`,
  `_check_slope` for `Slope`), the gcd reduction and the orbit minimum
  make the fields valid, and `Slope.make(p, 0)` returns `INFINITY`;
- `surgery.AbelianGroup.from_presentation` and `surgery.h1`: after the
  former's row-length check, and over the rows `h1_presentation` builds
  from a checked link, a Smith diagonal is a divisibility chain;
- `surgery.unknot` and `surgery.whitehead`: a constant matrix, and
  coefficients that go through `_coerce_slope`;
- `families.instantiate`: the slopes `alpha/1` and `(beta*k + 1)/k`,
  in lowest terms for every nonzero int k once the sign is fixed for
  k < 0; the monodromy `x^n y`; and the `FamilyInstance`, whose fields
  are closed forms or values built above.  It has no `__post_init__`, so
  its builder skips only the frozen `__init__`'s `object.__setattr__`
  per field;
- `fatgraph.iter_configs`: the enumeration's loop bounds, which step the
  counts in the parity rule's class, make every configuration valid
  (`enumerate_configs` lists what it yields);
- `fatgraph.faces` and `fatgraph.scharlemann_cycles`: circles, regions
  and cycles are closed forms of a valid configuration.

The rest are built by their constructors: `faces`' one `FaceReport` per
call, and the `CheckResult`s and `VerificationReport` of `families.verify`.
`tests/test_trusted.py` finds the producers that call a builder, directly
or through a private helper of their module, and checks them against
this list.

Every value class is a frozen dataclass with slots, so
`dataclasses.replace(v)` rebuilds a value through the full check;
`tests/test_trusted.py` does so over the atlas and the arc census.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

# order of an infinite-order element or infinite group, for every module;
# with this encoding |H1| = |det| of the presentation holds for every
# closed manifold
INFINITE = 0


def _trusted_builder(cls):
    """A function of cls's field values, in field order, that builds a cls
    value without the generated __init__, for values valid by construction.

    The frozen __init__ makes one object.__setattr__ call per field (and
    __post_init__ checks them).  The builder sets each slot through the
    class's member descriptor instead, which the frozen __setattr__ does
    not guard.  Its body is unrolled, as the dataclass's own __init__ is:
    a loop over the fields costs as much as the __init__.
    """
    n = len(fields(cls))
    env = {"new": object.__new__, "cls": cls}
    env.update((f"set{i}", getattr(cls, f.name).__set__)
               for i, f in enumerate(fields(cls)))
    args = ", ".join(f"f{i}" for i in range(n))
    body = "".join(f"    set{i}(obj, f{i})\n" for i in range(n))
    exec(f"def build({args}):\n    obj = new(cls)\n{body}    return obj\n", env)
    return env["build"]


def _check_lens(p, q):
    """The rule of L(p,q), for LensSpace and normalize: coprime ints."""
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"L({p!r},{q!r}): p and q must be ints")
    if gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}): p and q must be coprime")


@dataclass(frozen=True, slots=True)
class LensSpace:
    """L(p,q), not necessarily in canonical form; p, q are ints with gcd 1."""

    p: int
    q: int

    def __post_init__(self):
        _check_lens(self.p, self.q)

    @property
    def order(self):
        """Order of the first homology group; INFINITE for S1xS2."""
        return abs(self.p)

    def __str__(self):
        if self.p == 0:
            return "S1xS2"
        if abs(self.p) == 1:
            return "S3"
        return f"L({self.p},{self.q})"


_lens_space = _trusted_builder(LensSpace)


def normalize(p: int, q: int) -> LensSpace:
    """Canonical representative of the homeomorphism class of L(p,q).

    Orientation (mirror) is quotiented: L(-p,q) = L(p,-q) is identified with
    L(p,q).  For |p| >= 2 the canonical q is the minimum of the orbit
    {q, -q, q^{-1}, -q^{-1}} mod |p|; for |p| <= 1 the space is S3 or S1xS2
    and q is set to 1.
    """
    _check_lens(p, q)
    p = abs(p)
    return _lens_space(p, 1 if p <= 1 else min(q_orbit(p, q)))


def q_orbit(p: int, q: int) -> tuple:
    """(q, -q, q^{-1}, -q^{-1}) mod p, for p >= 2 and gcd(p,q) = 1: the q
    of every lens space homeomorphic to L(p,q), in that order."""
    qinv = pow(q, -1, p)
    return q % p, -q % p, qinv, -qinv % p


def is_homeomorphic(a: LensSpace, b: LensSpace) -> bool:
    return a == b or normalize(a.p, a.q) == normalize(b.p, b.q)


def _check_slope(p, q):
    """The rule of a slope p/q, for Slope and Slope.make: ints, not 0/0."""
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"slope {p!r}/{q!r}: p and q must be ints")
    if p == q == 0:
        raise ValueError("slope 0/0 is indeterminate")


@dataclass(frozen=True, slots=True)
class Slope:
    """A surgery slope p/q in lowest terms with q >= 0; q = 0 is infinity."""

    p: int
    q: int

    def __post_init__(self):
        _check_slope(self.p, self.q)
        if self.q < 0 or gcd(self.p, self.q) != 1 or (self.q == 0 and self.p != 1):
            raise ValueError(f"slope {self.p}/{self.q} not in canonical form")

    @classmethod
    def make(cls, p, q) -> "Slope":
        """Reduce p/q to canonical form; (p,q) and (-p,-q) give the same slope."""
        _check_slope(p, q)
        if q == 0:
            return INFINITY
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return _slope(p, q)

    @classmethod
    def from_rational(cls, r) -> "Slope":
        """The slope of an int, or of an exact rational (a Fraction) whose
        numerator and denominator are ints; anything else, a bool too,
        raises ValueError."""
        p, q = getattr(r, "numerator", None), getattr(r, "denominator", None)
        if isinstance(r, bool) or not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError(f"slope {r!r} is not an int or an exact rational")
        return cls.make(p, q)

    @property
    def is_infinite(self):
        return self.q == 0

    def __str__(self):
        if self.is_infinite:
            return "inf"
        if self.q == 1:
            return str(self.p)
        return f"{self.p}/{self.q}"

    @classmethod
    def parse(cls, text: str) -> "Slope":
        s = text.strip()
        if s in ("inf", "infinity"):
            return INFINITY
        num, sep, den = s.partition("/")
        if "/" in den:
            raise ValueError(f"not a slope: {text!r}")
        return cls.make(int(num), int(den) if sep else 1)


_slope = _trusted_builder(Slope)
INFINITY = Slope(1, 0)
