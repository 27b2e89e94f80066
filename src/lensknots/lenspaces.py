"""Lens spaces and surgery slopes, with exact integer arithmetic.

L(p,q) is the result of -p/q Dehn surgery on the unknot.  Two lens spaces
L(p,q) and L(p',q') are homeomorphic (orientation quotiented out) iff
|p| = |p'| and q' is congruent to one of q, -q, q^{-1}, -q^{-1} mod |p|.
The canonical form stores |p| together with the minimum of that orbit;
p = 0 encodes S1xS2 and |p| = 1 encodes S3 (with q := 1 in both cases).

Slopes on a torus boundary are reduced fractions p/q with (p,q) ~ (-p,-q),
plus the infinite slope 1/0.  Continued fractions here are subtractive:
[a1, a2, ..., an] stands for a1 - 1/(a2 - 1/(... - 1/an)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class LensSpace:
    """L(p,q), not necessarily in canonical form; gcd(p,q) must be 1."""

    p: int
    q: int

    def __post_init__(self):
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

    @classmethod
    def parse(cls, text: str) -> "LensSpace":
        """Parse "L(p,q)", "S3" or "S1xS2"."""
        s = text.strip().replace(" ", "")
        if s == "S3":
            return cls(1, 1)
        if s == "S1xS2":
            return cls(0, 1)
        if s.startswith("L(") and s.endswith(")"):
            body = s[2:-1].split(",")
            if len(body) == 2:
                return cls(int(body[0]), int(body[1]))
        raise ValueError(f"not a lens space: {text!r}")


def normalize(p: int, q: int) -> LensSpace:
    """Canonical representative of the homeomorphism class of L(p,q).

    Orientation (mirror) is quotiented: L(-p,q) = L(p,-q) is identified with
    L(p,q).  For |p| >= 2 the canonical q is the minimum of the orbit
    {q, -q, q^{-1}, -q^{-1}} mod |p|; for |p| <= 1 the space is S3 or S1xS2
    and q is set to 1.
    """
    if gcd(p, q) != 1:
        raise ValueError(f"L({p},{q}): p and q must be coprime")
    p = abs(p)
    if p <= 1:
        return LensSpace(p, 1)
    q = q % p
    qinv = pow(q, -1, p)
    return LensSpace(p, min(q, p - q, qinv, p - qinv))


def is_homeomorphic(a: LensSpace, b: LensSpace) -> bool:
    return normalize(a.p, a.q) == normalize(b.p, b.q)


@dataclass(frozen=True)
class Slope:
    """A surgery slope p/q in lowest terms with q >= 0; q = 0 is infinity."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope 0/0 is indeterminate")
        if self.q < 0 or gcd(self.p, self.q) != 1 or (self.q == 0 and self.p != 1):
            raise ValueError(f"slope {self.p}/{self.q} not in canonical form")

    @classmethod
    def make(cls, p, q) -> "Slope":
        """Reduce p/q to canonical form; (p,q) and (-p,-q) give the same slope."""
        if q == 0:
            if p == 0:
                raise ValueError("slope 0/0 is indeterminate")
            return cls(1, 0)
        g = gcd(p, q)
        p, q = p // g, q // g
        if q < 0:
            p, q = -p, -q
        return cls(p, q)

    @classmethod
    def from_rational(cls, r) -> "Slope":
        r = Fraction(r)
        return cls.make(r.numerator, r.denominator)

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
        if "/" in s:
            num, den = s.split("/")
            return cls.make(int(num), int(den))
        return cls.make(int(s), 1)


INFINITY = Slope(1, 0)


def slope_distance(a: Slope, b: Slope) -> int:
    """Minimal geometric intersection number |p_a q_b - p_b q_a| of two slopes."""
    return abs(a.p * b.q - b.p * a.q)


def from_continued_fraction(coeffs) -> Slope:
    """Evaluate the subtractive continued fraction a1 - 1/(a2 - 1/(...)).

    Coefficients may be ints or Fractions.  A zero intermediate value makes
    the next stage infinite; the infinite slope propagates exactly (a - 1/inf
    is a, and a - 1/0 is inf), so no division error can occur.
    """
    coeffs = list(coeffs)
    if not coeffs:
        raise ValueError("empty continued fraction")
    last = Fraction(coeffs[-1])
    value = Slope.make(last.numerator, last.denominator)
    for a in reversed(coeffs[:-1]):
        a = Fraction(a)
        # a - 1/(vp/vq) = (a.num*vp - a.den*vq) / (a.den*vp)
        value = Slope.make(a.numerator * value.p - a.denominator * value.q,
                           a.denominator * value.p)
    return value
