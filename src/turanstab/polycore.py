"""Exact dense univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` values kept in ascending degree order
with no trailing zeros; the zero polynomial is the empty coefficient tuple
and has no degree.  Everything here is exact: no floats, ever.

The gcd runs over the integers with primitive (content-stripped) remainder
sequences, because the naive rational Euclidean algorithm blows up the
coefficients at the degrees the stability campaigns need.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, str]


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    ``Poly([0, -8, -2, 0, 1])`` is x^4 - 2x^2 - 8x.  Trailing zeros are
    stripped on construction; ``Poly()`` is the zero polynomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @classmethod
    def constant(cls, c: Scalar) -> "Poly":
        return cls([Fraction(c)])

    @classmethod
    def from_text(cls, text: str) -> "Poly":
        """Parse the comma-separated ascending coefficient format.

        Example: ``"0,-8,-2,0,1"`` denotes x^4 - 2x^2 - 8x.  Entries are
        ``n`` or ``n/d`` in base 10.
        """
        text = text.strip()
        if not text:
            return cls()
        return cls(Fraction(part.strip()) for part in text.split(","))

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return Poly()
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        out[i + j] += ca * cb
            return Poly(out)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.scale(other)

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        return Poly(coeff * c for coeff in self.coeffs)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift_x(self, n: int) -> "Poly":
        """Multiply by x^n."""
        if self.is_zero:
            return self
        return Poly([Fraction(0)] * n + list(self.coeffs))

    # -- calculus and substitution ------------------------------------

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i)

    def compose_linear(self, a: Scalar, b: Scalar) -> "Poly":
        """Return p(a*x + b) expanded exactly (Horner in the linear map)."""
        a, b = Fraction(a), Fraction(b)
        inner = Poly([b, a])
        result = Poly()
        for c in reversed(self.coeffs):
            result = result * inner + Poly.constant(c)
        return result

    def __call__(self, x: Scalar) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- division -----------------------------------------------------

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        lead = div[-1]
        if len(rem) < len(div):
            return Poly(), self
        quot = [Fraction(0)] * (len(rem) - len(div) + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + len(div) - 1] / lead
            if c:
                quot[i] = c
                for j, d in enumerate(div):
                    rem[i + j] -= c * d
        return Poly(quot), Poly(rem[: len(div) - 1])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        return self.scale(1 / self.leading)

    # -- formatting ---------------------------------------------------

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def pretty(self, var: str = "x") -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                xs = var if i == 1 else f"{var}^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not terms:
                terms.append(body if c > 0 else f"-{body}")
            else:
                terms.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(terms)

    def __repr__(self) -> str:
        return f"Poly('{self.to_text()}')"


# -- integer kernel ---------------------------------------------------
#
# The Euclidean/Sturm machinery works on dense integer coefficient lists.
# Converting a rational polynomial to integers multiplies it by a positive
# rational, which preserves signs and zeros.

IntPoly = list


def clear_denominators(p: Poly) -> IntPoly:
    """Integer coefficient list of d*p for the positive lcm d of denominators."""
    if p.is_zero:
        return []
    d = 1
    for c in p.coeffs:
        d = d * c.denominator // math.gcd(d, c.denominator)
    return [int(c * d) for c in p.coeffs]


def int_content(f: Sequence[int]) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def int_primitive(f: Sequence[int]) -> IntPoly:
    """Divide out the (positive) content; keeps the sign pattern."""
    if not f:
        return []
    g = int_content(f)
    return [c // g for c in f]


def int_pseudo_rem(f: Sequence[int], g: Sequence[int]) -> tuple[IntPoly, bool]:
    """Pseudo-remainder of f by g over the integers.

    Returns ``(r, positive)`` where r = lc(g)^t * rem(f, g) for the number t
    of elimination steps actually taken, and ``positive`` tells whether the
    multiplier lc(g)^t is positive.  Only the sign coherence matters to the
    Sturm chains built on top of this.
    """
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    r = list(f)
    lg = g[-1]
    steps = 0
    while len(r) >= len(g):
        lf = r[-1]
        d = len(r) - len(g)
        r = [lg * c for c in r]
        for i, gc in enumerate(g):
            r[i + d] -= lf * gc
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    positive = lg > 0 or steps % 2 == 0
    return r, positive


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor, via integer primitive remainder sequences."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    f = int_primitive(clear_denominators(p))
    g = int_primitive(clear_denominators(q))
    if len(f) < len(g):
        f, g = g, f
    while True:
        if len(g) == 1:
            return Poly.one()
        r, _ = int_pseudo_rem(f, g)
        if not r:
            return Poly(g).monic()
        f, g = g, int_primitive(r)


def squarefree_part(p: Poly) -> Poly:
    """Monic p / gcd(p, p'): same distinct roots, all simple."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    if p.degree() == 0:
        return Poly.one()
    return p.exact_div(gcd(p, p.derivative())).monic()


def is_squarefree(p: Poly) -> bool:
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree() == 0:
        return True
    return gcd(p, p.derivative()).degree() == 0
