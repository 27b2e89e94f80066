"""Mapping classes of the once-punctured torus.

A mapping class is a word in the two Dehn twists x and y along the standard
curves; on first homology of the torus these act by

    x -> [[1,1],[0,1]]        y -> [[1,0],[-1,1]]

and the induced map word -> SL(2,Z) (left-to-right product) is faithful up
to the usual Nielsen-Thurston trichotomy on the trace.  Conjugacy classes
are separated, up to sign of the matrix, by a normal form in
PSL(2,Z) = Z/2 * Z/3: torsion symbols for periodic classes, an invariant
integer for reducible ones, and a cyclic word in R and L for pseudo-Anosov
ones.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from math import gcd

from .surgery import AbelianGroup, _solve_bezout

TWIST_X = ((1, 1), (0, 1))
TWIST_Y = ((1, 0), (-1, 1))

IDENTITY = ((1, 0), (0, 1))


def mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0],
         a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0],
         a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def mat_inv(a):
    """Inverse of a determinant-one matrix (adjugate)."""
    assert a[0][0] * a[1][1] - a[0][1] * a[1][0] == 1
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def mat_pow(a, n):
    if n < 0:
        return mat_pow(mat_inv(a), -n)
    result = IDENTITY
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def trace(a):
    return a[0][0] + a[1][1]


_SYLLABLE = re.compile(r"^([xy])(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class MappingWord:
    """A word in the twists x, y as a tuple of (generator, exponent) syllables."""

    syllables: tuple

    @classmethod
    def parse(cls, text: str) -> "MappingWord":
        syllables = []
        for token in text.split():
            m = _SYLLABLE.match(token)
            if not m:
                raise ValueError(f"bad twist syllable {token!r}")
            exp = int(m.group(2)) if m.group(2) is not None else 1
            syllables.append((m.group(1), exp))
        return cls(tuple(syllables)).normalize()

    def normalize(self) -> "MappingWord":
        """Merge adjacent syllables in the same generator, dropping zeros."""
        stack = []
        for gen, exp in self.syllables:
            if exp == 0:
                continue
            if stack and stack[-1][0] == gen:
                merged = stack[-1][1] + exp
                stack.pop()
                if merged != 0:
                    stack.append((gen, merged))
            else:
                stack.append((gen, exp))
        return MappingWord(tuple(stack))

    def matrix(self):
        m = IDENTITY
        for gen, exp in self.syllables:
            m = mat_mul(m, mat_pow(TWIST_X if gen == "x" else TWIST_Y, exp))
        return m

    def __str__(self):
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)


def evaluate(w):
    """Matrix of a word (string, MappingWord, or already a matrix)."""
    if isinstance(w, str):
        w = MappingWord.parse(w)
    if isinstance(w, MappingWord):
        return w.matrix()
    if w[0][0] * w[1][1] - w[0][1] * w[1][0] != 1:
        raise ValueError("matrix must have determinant one")
    return w


class NTClass(enum.Enum):
    PERIODIC = "periodic"
    REDUCIBLE = "reducible"
    PSEUDO_ANOSOV = "pseudo-Anosov"


@dataclass(frozen=True)
class TorusMapClass:
    kind: NTClass
    trace: int
    order: int = None  # finite order, for periodic classes only

    def __str__(self):
        if self.kind is NTClass.PERIODIC:
            return f"periodic (order {self.order})"
        if self.kind is NTClass.REDUCIBLE:
            return "reducible"
        return f"pseudo-Anosov (trace {self.trace})"


def classify(w) -> TorusMapClass:
    """Nielsen-Thurston type from the homology action."""
    m = evaluate(w)
    t = trace(m)
    if abs(t) > 2:
        return TorusMapClass(NTClass.PSEUDO_ANOSOV, t)
    if m == IDENTITY or m == ((-1, 0), (0, -1)):
        return TorusMapClass(NTClass.PERIODIC, t, order=1 if t == 2 else 2)
    if abs(t) == 2:
        return TorusMapClass(NTClass.REDUCIBLE, t)
    # |trace| < 2: finite order (3, 4, or 6); find it by iteration
    power = m
    for k in range(2, 13):
        power = mat_mul(power, m)
        if power == IDENTITY:
            return TorusMapClass(NTClass.PERIODIC, t, order=k)
    raise AssertionError("elliptic matrix with no order <= 12")


def bundle_h1(w) -> AbelianGroup:
    """First homology of the punctured-torus bundle with monodromy w.

    The bundle fibers over the circle, giving Z from the base direction
    plus the coinvariants of the monodromy action on the fiber's homology.
    """
    m = evaluate(w)
    rows = [[m[0][0] - 1, m[0][1]], [m[1][0], m[1][1] - 1]]
    fiber = AbelianGroup.from_presentation(rows, 2)
    return AbelianGroup(fiber.rank + 1, fiber.torsion)


def lens_filling_word(k, l) -> MappingWord:
    """Monodromy word x^k y^2 x^l y^-1 (normalized)."""
    return MappingWord((("x", k), ("y", 2), ("x", l), ("y", -1))).normalize()


# --- conjugacy normal form in PSL(2,Z) = Z/2 * Z/3 ---------------------------
#
# Letters of the free product: ("s",) of order two and ("r", e) with e in
# {1, 2} of order three.  The translation uses S = [[0,-1],[1,0]] and
# T = [[1,1],[0,1]], for which rho = S*T has order three, T = s*rho and
# T^-1 = rho^2*s as elements of the quotient by the center.

_S = ("s",)


def _push(stack, letter):
    if stack and stack[-1][0] == letter[0]:
        if letter[0] == "s":
            stack.pop()
        else:
            e = (stack[-1][1] + letter[1]) % 3
            stack.pop()
            if e:
                stack.append(("r", e))
    else:
        stack.append(letter)


def _free_reduce(letters):
    stack = []
    for letter in letters:
        _push(stack, letter)
    return stack


def _cyclic_reduce(word):
    word = list(word)
    while len(word) >= 2 and word[0][0] == word[-1][0]:
        last = word.pop()
        first = word.pop(0)
        if last[0] == "s":
            pass  # s*s = identity, both ends vanish
        else:
            e = (last[1] + first[1]) % 3
            if e:
                word.insert(0, ("r", e))
    return word


def _append_t_power(letters, n):
    """Append the letters of T^n: T = s r, T^-1 = r^2 s."""
    if n >= 0:
        letters.extend([_S, ("r", 1)] * n)
    else:
        letters.extend([("r", 2), _S] * (-n))


def _psl_letters(m):
    """Peel m into S/T factors by the Euclidean algorithm, as letters."""
    a, b = m[0]
    c, d = m[1]
    letters = []
    while c != 0:
        q = a // c
        _append_t_power(letters, q)
        letters.append(_S)
        # m <- S^-1 T^-q m = [[c, d], [-(a - q c), -(b - q d)]]
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    # tail is +-T^(b/a) with a = +-1
    assert abs(a) == 1
    _append_t_power(letters, b * a)
    return letters


def conjugacy_invariant(w) -> str:
    """Conjugacy class label, equal for w1 and w2 iff their matrices are
    conjugate in SL(2,Z) up to sign.

    Periodic classes give "identity", "s", "r" or "r2"; reducible classes
    give "parabolic:n" with n the invariant twisting integer; pseudo-Anosov
    classes give the cyclic R/L word in its lexicographically least rotation.
    """
    m = evaluate(w)
    t = trace(m)
    if abs(t) == 2 and m not in (IDENTITY, ((-1, 0), (0, -1))):
        return f"parabolic:{_parabolic_invariant(m)}"
    word = _cyclic_reduce(_free_reduce(_psl_letters(m)))
    if not word:
        return "identity"
    if len(word) == 1:
        if word[0][0] == "s":
            return "s"
        return "r" if word[0][1] == 1 else "r2"
    # alternating word of even length: read off (s r^e) pairs
    assert len(word) % 2 == 0
    if word[0][0] != "s":
        word = word[-1:] + word[:-1]
    pairs = []
    for i in range(0, len(word), 2):
        assert word[i][0] == "s" and word[i + 1][0] == "r"
        pairs.append("R" if word[i + 1][1] == 1 else "L")
    assert "R" in pairs and "L" in pairs  # pure powers of T are not hyperbolic
    return _least_rotation("".join(pairs))


def _least_rotation(s):
    return min(s[i:] + s[:i] for i in range(len(s)))


def _parabolic_invariant(m):
    """The integer n with m conjugate to [[1,n],[0,1]] up to sign."""
    if trace(m) == -2:
        m = ((-m[0][0], -m[0][1]), (-m[1][0], -m[1][1]))
    n00, n01 = m[0][0] - 1, m[0][1]
    n10, n11 = m[1][0], m[1][1] - 1
    row = (n00, n01) if (n00, n01) != (0, 0) else (n10, n11)
    g = gcd(row[0], row[1])
    v = (-row[1] // g, row[0] // g)  # primitive eigenvector
    w1, w0 = _solve_bezout(*v)  # v0*w1 - v1*w0 = 1 completes v to a basis
    nw = (n00 * w0 + n01 * w1, n10 * w0 + n11 * w1)
    # N w = n v for the twisting integer n
    n = nw[0] // v[0] if v[0] != 0 else nw[1] // v[1]
    assert (n * v[0], n * v[1]) == nw
    assert n != 0
    return n
