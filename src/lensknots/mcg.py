"""Mapping classes of the once-punctured torus.

A mapping class is a word in the two Dehn twists x and y along the standard
curves; on first homology of the torus these act by

    x -> [[1,1],[0,1]]        y -> [[1,0],[-1,1]]

and the induced map word -> SL(2,Z) (left-to-right product) is faithful up
to the usual Nielsen-Thurston trichotomy on the trace.  Conjugacy classes
are separated, up to sign of the matrix, by a label read off a reduced
conjugate: torsion symbols for periodic classes, an invariant integer for
reducible ones, and a cyclic word in R = x and L = y^-1 for pseudo-Anosov
ones.  The label is computed on integers alone: conjugating by powers of
x and y shrinks the off-diagonal entries until they share a sign (a Gauss
reduction), a pseudo-Anosov matrix is then made positive and peeled into
runs R^n, L^n by the Euclidean algorithm, and a two-pointer scan picks the
least rotation over the runs.  The label is run-length encoded (LRRR is
"LR^3", LR stays "LR"), so its cost grows with the number of runs, not
with the size of the exponents.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from .surgery import AbelianGroup

_IDENTITY = ((1, 0), (0, 1))


def mat_mul(m, n):
    """The product of two matrices in SL(2,Z), each read as `evaluate`
    reads it, so a word works too and anything else raises ValueError."""
    (a, b), (c, d) = evaluate(m)
    (e, f), (g, h) = evaluate(n)
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


_SYLLABLE = re.compile(r"^([xy])(?:\^(-?\d+))?$")


@dataclass(frozen=True, slots=True)
class MappingWord:
    """A word in the twists x, y as a tuple of (generator, exponent) syllables.

    The syllables are tuples, so a word is hashable (a dictionary key)."""

    syllables: tuple

    def __post_init__(self):
        if type(self.syllables) is not tuple or not all(
                type(s) is tuple and len(s) == 2 and s[0] in ("x", "y")
                and type(s[1]) is int for s in self.syllables):
            raise ValueError(f"syllables {self.syllables!r} must be a tuple of "
                             f"(generator, int exponent) tuples, generator x or y")

    @classmethod
    def parse(cls, text: str) -> "MappingWord":
        if type(text) is not str:
            raise ValueError(f"a word to parse is a string, got {text!r}")
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
        a, b, c, d = 1, 0, 0, 1
        for gen, e in self.syllables:
            # times x^e = [[1,e],[0,1]] adds e times the first column to the
            # second; times y^e = [[1,0],[-e,1]] takes e times the second
            # from the first
            if gen == "x":
                b, d = b + e * a, d + e * c
            else:
                a, c = a - e * b, c - e * d
        return (a, b), (c, d)

    def __str__(self):
        return " ".join(g if e == 1 else f"{g}^{e}" for g, e in self.syllables)


def evaluate(w):
    """Matrix of a word (string, MappingWord, or already a 2x2 int matrix
    of determinant one); any other input raises ValueError."""
    if isinstance(w, str):
        w = MappingWord.parse(w)
    if isinstance(w, MappingWord):
        return w.matrix()
    if not (type(w) in (tuple, list) and len(w) == 2
            and all(type(row) in (tuple, list) and len(row) == 2 for row in w)):
        raise ValueError(f"expected a word or a 2x2 matrix, got {type(w).__name__}")
    (a, b), (c, d) = w
    if not all(type(v) is int for v in (a, b, c, d)) or a * d - b * c != 1:
        raise ValueError(f"matrix {w!r} must have integer entries and determinant one")
    return (a, b), (c, d)


class NTClass(enum.Enum):
    PERIODIC = "periodic"
    REDUCIBLE = "reducible"
    PSEUDO_ANOSOV = "pseudo-Anosov"


@dataclass(frozen=True, slots=True)
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
    t = m[0][0] + m[1][1]
    if abs(t) > 2:
        return TorusMapClass(NTClass.PSEUDO_ANOSOV, t)
    if m == _IDENTITY or m == ((-1, 0), (0, -1)):
        return TorusMapClass(NTClass.PERIODIC, t, order=1 if t == 2 else 2)
    if abs(t) == 2:
        return TorusMapClass(NTClass.REDUCIBLE, t)
    # |trace| < 2: the roots of x^2 - t*x + 1 are primitive 3rd, 4th or 6th
    # roots of unity, so the trace fixes the order
    return TorusMapClass(NTClass.PERIODIC, t, order={-1: 3, 0: 4, 1: 6}[t])


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


# --- conjugacy label from a positive conjugate --------------------------------
#
# R = x = [[1,1],[0,1]] and L = y^-1 = [[1,0],[1,1]].  A run of n equal
# letters is keyed (1, n) for R and (0, -n) for L: on maximal alternating
# runs, comparing keys orders the words as comparing their letters does
# (L < R, and a longer L run or a shorter R run comes first).


def conjugacy_invariant(w) -> str:
    """Conjugacy class label, equal for w1 and w2 iff their matrices are
    conjugate in SL(2,Z) up to sign.

    Periodic classes give "identity", "s", "r" or "r2"; reducible classes
    give "parabolic:n" with n the invariant twisting integer; pseudo-Anosov
    classes give the cyclic R/L word of a positive conjugate in its least
    rotation, run-length encoded with unit runs as bare letters ("LR^3"
    for LRRR).
    """
    (a, b), (c, d) = evaluate(w)
    if a + d < 0:
        a, b, c, d = -a, -b, -c, -d
    t = a + d
    if t < 2:
        # elliptic: b*c < 0, and the sign of c is that of the definite
        # quadratic form c x^2 + (d-a) x y - b y^2 fixed by the matrix
        return "s" if t == 0 else "r" if c > 0 else "r2"
    while b * c < 0:
        # conjugate by x^k or y^-j to bring a - d within the smaller of
        # |b|, |c|; |b*c| drops to at most a quarter of its value each step
        if abs(c) <= abs(b):
            k = (a - d + c) // (2 * c)
            a, b, d = a - k * c, b + k * (a - d) - k * k * c, d + k * c
        else:
            j = (d - a + b) // (2 * b)
            a, c, d = a + j * b, c + j * (d - a) - j * j * b, d - j * b
    if t == 2:
        # b*c >= 0 at trace 2 leaves [[1,n],[0,1]] or [[1,0],[-n,1]]
        return "identity" if b == c == 0 else f"parabolic:{b - c}"
    if b < 0:  # conjugate by S = [[0,-1],[1,0]] to make every entry positive
        a, b, c, d = d, -c, -b, a
    runs = []
    while b or c:  # peel the runs of R and L off the left by Euclid
        if a > c:
            n = b // d if c == 0 else min(a // c, b // d)
            a, b = a - n * c, b - n * d
            runs.append((1, n))
        else:
            n = c // a if b == 0 else min(c // a, d // b)
            c, d = c - n * a, d - n * b
            runs.append((0, -n))
    if runs[0][0] == runs[-1][0]:  # merge the runs meeting at the cyclic seam
        letter, n = runs.pop()
        runs[0] = (letter, runs[0][1] + n)
    i = _least_start(runs)
    return "".join("LR"[letter] + (f"^{abs(n)}" if abs(n) > 1 else "")
                   for letter, n in runs[i:] + runs[:i])


def _least_start(keys):
    """Start of the lexicographically least rotation of keys, by two
    pointers: starts i and j are compared k keys deep, and a mismatch at
    depth k rules out the losing start and the k starts after it, none of
    which can begin a rotation less than the winner's."""
    n = len(keys)
    s = keys + keys
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a < b:
            j += k + 1
        else:
            i, j = j, max(j, i + k) + 1
        k = 0
    return i
