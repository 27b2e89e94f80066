"""Lens spaces and surgery slopes, with exact integer arithmetic.

L(p,q) is the result of -p/q Dehn surgery on the unknot.  Two lens spaces
L(p,q) and L(p',q') are homeomorphic (orientation quotiented out) iff
|p| = |p'| and q' is congruent to one of q, -q, q^{-1}, -q^{-1} mod |p|.
The canonical form stores |p| together with the minimum of that orbit;
p = 0 encodes S1xS2 and |p| = 1 encodes S3 (with q := 1 in both cases).

Slopes on a torus boundary are reduced fractions p/q with (p,q) ~ (-p,-q),
plus the infinite slope 1/0.

Construction rule: direct construction (`LensSpace(p, q)`, `Slope(p, q)`)
validates its fields, and so do `Slope.make`, `Slope.parse` and
`normalize` on their arguments.  Once those are checked, `Slope.make` and
`normalize` build their result with `_trusted`, which skips the
`__post_init__` check: the gcd reduction and the orbit minimum make the
fields valid by construction.  The other producers of the package that do
the same are listed in the `surgery` docstring.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def _trusted(cls, **fields):
    """A frozen-dataclass value of cls from fields its caller has already
    made valid, built without running __post_init__ a second time."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@dataclass(frozen=True)
class LensSpace:
    """L(p,q), not necessarily in canonical form; p, q are ints with gcd 1."""

    p: int
    q: int

    def __post_init__(self):
        if type(self.p) is not int or type(self.q) is not int:
            raise ValueError(f"L({self.p!r},{self.q!r}): p and q must be ints")
        if gcd(self.p, self.q) != 1:
            raise ValueError(f"L({self.p},{self.q}): p and q must be coprime")

    @property
    def order(self):
        """Order of the first homology group; 0 means infinite (S1xS2)."""
        return abs(self.p)

    def __str__(self):
        if self.p == 0:
            return "S1xS2"
        if abs(self.p) == 1:
            return "S3"
        return f"L({self.p},{self.q})"


def normalize(p: int, q: int) -> LensSpace:
    """Canonical representative of the homeomorphism class of L(p,q).

    Orientation (mirror) is quotiented: L(-p,q) = L(p,-q) is identified with
    L(p,q).  For |p| >= 2 the canonical q is the minimum of the orbit
    {q, -q, q^{-1}, -q^{-1}} mod |p|; for |p| <= 1 the space is S3 or S1xS2
    and q is set to 1.
    """
    if type(p) is not int or type(q) is not int:
        raise ValueError(f"L({p!r},{q!r}): p and q must be ints")
    if gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}): p and q must be coprime")
    p = abs(p)
    return _trusted(LensSpace, p=p, q=1 if p <= 1 else min(q_orbit(p, q)))


def q_orbit(p: int, q: int) -> tuple:
    """(q, -q, q^{-1}, -q^{-1}) mod p, for p >= 2 and gcd(p,q) = 1: the q
    of every lens space homeomorphic to L(p,q), in that order."""
    qinv = pow(q, -1, p)
    return q % p, -q % p, qinv, -qinv % p


def is_homeomorphic(a: LensSpace, b: LensSpace) -> bool:
    return a == b or normalize(a.p, a.q) == normalize(b.p, b.q)


@dataclass(frozen=True)
class Slope:
    """A surgery slope p/q in lowest terms with q >= 0; q = 0 is infinity."""

    p: int
    q: int

    def __post_init__(self):
        if type(self.p) is not int or type(self.q) is not int:
            raise ValueError(f"slope {self.p!r}/{self.q!r}: p and q must be ints")
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope 0/0 is indeterminate")
        if self.q < 0 or gcd(self.p, self.q) != 1 or (self.q == 0 and self.p != 1):
            raise ValueError(f"slope {self.p}/{self.q} not in canonical form")

    @classmethod
    def make(cls, p, q) -> "Slope":
        """Reduce p/q to canonical form; (p,q) and (-p,-q) give the same slope."""
        if type(p) is not int or type(q) is not int:
            raise ValueError(f"slope {p!r}/{q!r}: p and q must be ints")
        if q == 0:
            if p == 0:
                raise ValueError("slope 0/0 is indeterminate")
            return _trusted(cls, p=1, q=0)
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return _trusted(cls, p=p, q=q)

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


INFINITY = Slope(1, 0)
