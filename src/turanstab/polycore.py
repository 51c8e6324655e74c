"""Exact dense univariate polynomial arithmetic over the rationals.

A polynomial is integer numerators (ascending, no trailing zeros) over one
positive denominator that shares no factor with all of them, so equal
polynomials have equal fields; ``coeffs`` is the view as Fractions.  The
zero polynomial has no numerators and no degree.  No floats, ever.

The gcd runs over the integers with primitive (content-stripped) remainder
sequences, because the naive rational Euclidean algorithm blows up the
coefficients at the degrees the stability campaigns need.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction, str]


class Poly:
    """Immutable dense univariate polynomial with rational coefficients.

    ``Poly([0, -8, -2, 0, 1])`` is x^4 - 2x^2 - 8x.  Trailing zeros are
    stripped on construction; ``Poly()`` is the zero polynomial.  The
    fields ``num`` (a list of ints) and ``den`` (an int) are read-only.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [Fraction(c) for c in coeffs]
        # the lcm of the denominators shares no factor with all numerators
        den = math.lcm(*(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        while num and not num[-1]:
            num.pop()
        self.num, self.den = num, den

    @classmethod
    def from_ints(cls, num: list[int], den: int) -> "Poly":
        """The polynomial num/den for integer numerators and a non-zero
        integer denominator, normalised; takes ownership of ``num``."""
        while num and not num[-1]:
            num.pop()
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        p = cls.__new__(cls)
        p.num = num if g == 1 else [c // g for c in num]
        p.den = den // g
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    # -- basic queries ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, in ascending degree order."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def degree(self) -> int:
        """Degree of a nonzero polynomial; the zero polynomial has none."""
        if not self.num:
            raise ValueError("the zero polynomial has no degree")
        return len(self.num) - 1

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("the zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.den == other.den and self.num == other.num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.den, *self.num))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.num]
        b = [c * (den // other.den) for c in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return Poly.from_ints(a, den)

    def __neg__(self) -> "Poly":
        return Poly.from_ints([-c for c in self.num], self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if isinstance(other, Poly):
            return Poly.from_ints(int_mul(self.num, other.num), self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "Poly":
        return self.scale(other)

    def scale(self, c: Scalar) -> "Poly":
        c = Fraction(c)
        num = [x * c.numerator for x in self.num]
        return Poly.from_ints(num, self.den * c.denominator)

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
        return Poly.from_ints([0] * n + self.num, self.den)

    # -- calculus and substitution ------------------------------------

    def derivative(self) -> "Poly":
        return Poly.from_ints([i * c for i, c in enumerate(self.num) if i], self.den)

    def compose_linear(self, a: Scalar, b: Scalar) -> "Poly":
        """Return p(a*x + b) expanded exactly.

        With b = s/t and d = deg p, the integer Taylor shift by s of
        t^d p(x/t), taken at t*x, is t^d p(x + b); x -> a*x then scales
        the coefficient of x^i by a^i.
        """
        if not self.num:
            return self
        a, b = Fraction(a), Fraction(b)
        d = len(self.num) - 1
        s, t = b.numerator, b.denominator
        desc = [c * t**i for i, c in enumerate(reversed(self.num))]
        if s:  # Horner: each pass divides by x - s, leaving one coefficient
            for top in range(d + 1, 1, -1):
                desc[:top] = accumulate(desc[:top], lambda acc, c: acc * s + c)
        tu, v = t * a.numerator, a.denominator
        out = [c * tu**i * v ** (d - i) for i, c in enumerate(reversed(desc))]
        return Poly.from_ints(out, self.den * (t * v) ** d)

    def __call__(self, x: Scalar) -> Fraction:
        if not self.num:
            return Fraction(0)
        x = Fraction(x)
        value = int_horner(self.num, x.numerator, x.denominator)
        return Fraction(value, self.den * x.denominator ** (len(self.num) - 1))

    # -- division -----------------------------------------------------

    def exact_div(self, other: "Poly") -> "Poly":
        """self / other, which must be a polynomial; ValueError if it is not.

        Divides the numerators by the primitive part of other's.  By Gauss's
        lemma that quotient has integer coefficients whenever the division
        is exact, so a step whose leading coefficient does not divide is
        already inexact.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        content = math.gcd(*other.num)
        div = [c // content for c in other.num]
        rem, lead = list(self.num), div[-1]
        quot = [0] * max(len(rem) - len(div) + 1, 0)
        for i in range(len(quot) - 1, -1, -1):
            c, r = divmod(rem[i + len(div) - 1], lead)
            if r:
                raise ValueError("inexact polynomial division")
            quot[i] = c
            for j, e in enumerate(div):
                rem[i + j] -= c * e
        if any(rem):
            raise ValueError("inexact polynomial division")
        return Poly.from_ints([c * other.den for c in quot], self.den * content)

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ValueError("the zero polynomial cannot be made monic")
        return self.scale(1 / self.leading)

    # -- formatting ---------------------------------------------------

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        cs = self.coeffs
        for i in range(len(cs) - 1, -1, -1):
            c = cs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                mag = abs(c)
                xs = "x" if i == 1 else f"x^{i}"
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
# The numerators of a polynomial are the polynomial times its positive
# denominator, which preserves signs and zeros.

IntPoly = list


def clear_denominators(p: Poly) -> IntPoly:
    """The numerators of p as a new list: d*p for the lcm d of denominators."""
    return list(p.num)


def int_primitive(f: Sequence[int]) -> IntPoly:
    """Divide out the (positive) content; keeps the sign pattern."""
    g = math.gcd(*f)
    return [c // g for c in f]


def int_mul(a: Sequence[int], b: Sequence[int]) -> IntPoly:
    """The product of two integer lists; empty if either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


# Kronecker substitution: an integer list f packs into the one integer
# f(2^w), slot i holding f_i in w = 8 * nbytes bits.  Sums, integer
# multiples and products of packed lists are the packed results, so one
# big-integer product stands in for a whole schoolbook loop; a result
# unpacks exactly while each of its coefficients is below 2^(w-1) in size.

def _pack(f: Sequence[int], nbytes: int) -> int:
    """f(2^w), w = 8 * nbytes, for |f_i| < 2^(w-1)."""
    raw = int.from_bytes(
        b"".join([c.to_bytes(nbytes, "little", signed=True) for c in f]), "little")
    # a negative f_i reads as 2^w + f_i, one unit too much in slot i + 1;
    # the top bit of slot i, its sign bit, marks it
    signs = raw & int.from_bytes((bytes(nbytes - 1) + b"\x80") * len(f), "little")
    return raw - (signs << 1)


def _unpack(v: int, nbytes: int) -> IntPoly:
    """The list f with f(2^w) = v, w = 8 * nbytes, given |f_i| < 2^(w-1)
    for every i; its top entry is not zero unless v is 0, which gives [0]."""
    # f_i, i the top slot, puts |v| in [2^(wi-1), 2^(wi+w-1))
    length = abs(v).bit_length() // (8 * nbytes) + 1
    raw = v.to_bytes(nbytes * length, "little", signed=True)
    slots = [int.from_bytes(raw[i : i + nbytes], "little", signed=True)
             for i in range(0, len(raw), nbytes)]
    # read as signed, slot i holds f_i - 1 where the slots below it make
    # a negative value, that is where slot i - 1 reads negative
    return slots[:1] + [c + (below < 0) for below, c in zip(slots, slots[1:])]


def int_horner(f: Sequence[int], p: int, q: int) -> int:
    """q^d * f(p/q) for an integer list f of degree d, by Horner's rule."""
    acc, q_pow = 0, 1
    for c in reversed(f):
        acc = acc * p + c * q_pow
        q_pow *= q
    return acc


def int_pseudo_rem(f: Sequence[int], g: Sequence[int]) -> tuple[IntPoly, bool]:
    """Pseudo-remainder of f by g over the integers.

    Returns ``(r, positive)`` where r = lc(g)^t * rem(f, g) for the number t
    of elimination steps actually taken, and ``positive`` tells whether the
    multiplier lc(g)^t is positive.  Only the sign coherence matters to the
    Sturm chains built on top of this.  A step builds lc(g) r - lc(r) x^d g
    as one list over zip(r, x^d g), r stopping short of the cancelled top;
    x^0 g and x^1 g, a normal chain's steps, are built once per call.
    """
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    r = list(f)
    lg = g[-1]
    shifted = (g, [0, *g])
    steps = 0
    while len(r) >= len(g):
        d = len(r) - len(g)
        lf = r.pop()  # lg r - lf x^d g, whose top term cancels
        xg = shifted[d] if d < 2 else [0] * d + list(g)
        r = [lg * c - lf * e for c, e in zip(r, xg)]
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
            return Poly.from_ints([1], 1)
        r, _ = int_pseudo_rem(f, g)
        if not r:
            return Poly.from_ints(g, g[-1])  # g / lc(g)
        f, g = g, int_primitive(r)
