"""Turan-type expressions built exactly from polynomial sequences.

The k-th Turan expression of a sequence P is (P_{k+1})^2 - P_{k+2} P_k,
the negated 2x2 Hankel determinant.  The order-n extended form is the
alternating binomial convolution

    T(k, n) = sum_{j=0}^{2n} (-1)^(n+j) / (2n)!  C(2n, j)  P_{j+k}  P_{2n+k-j},

which collapses to the plain Turan expression at n = 1.  Every term is a
product P_a P_b with a + b = 2(k + n), so the expressions of one
anti-diagonal t = k + n share their products: ``turan_diagonal`` forms
the products P_{t-i} P_{t+i} once, as integer lists over one
denominator, and combines them for every n asked.  ``extended_turan``
is the one-cell case.  The extended Laguerre expression of one
polynomial f is the extended Turan expression of its derivatives (f, f',
..., f^(2n)) at k = 0; its n = 1 case is the classical f'^2 - f f''.

``reflect_shift`` is the one path from an expression to the object a
campaign cell, a verification suite or the ``turan`` command decides:
reflected (x -> -x, used for Laguerre) and shifted (x -> x + shift, used
for type A with shift -b) as asked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polycore import Poly, Scalar, int_mul


def turan(seq: list[Poly], k: int) -> Poly:
    """(P_{k+1})^2 - P_{k+2} * P_k, exactly: the order-1 extended form."""
    return extended_turan(seq, k, 1)


def extended_turan(seq: list[Poly], k: int, n: int) -> Poly:
    """Order-n extended Turan expression at index k."""
    return turan_diagonal(seq, k + n, (n,))[0]


def turan_diagonal(seq: list[Poly], t: int, ns) -> list[Poly]:
    """The extended Turan expressions T(t - n, n) for each n in ``ns``.

    With Q_i = P_{t-i} P_{t+i},

        T(t - n, n) = sum_{i=-n}^{n} (-1)^i C(2n, n+i) Q_|i| / (2n)!,

    so the window P_{t-top} .. P_{t+top}, top = max(ns), is put over one
    denominator D, its top + 1 integer products Q_0 .. Q_top are formed
    once, and each expression is one integer combination of them over
    D^2 (2n)!.  The unfolded sum is kept in the tests as an oracle.
    """
    if not ns or min(ns) < 1:
        raise ValueError("n must be >= 1")
    top = max(ns)
    if top > t:
        raise ValueError("k must be >= 0")
    if len(seq) < t + top + 1:
        raise ValueError(f"sequence must reach index {t + top}")
    window = seq[t - top : t + top + 1]
    den = math.lcm(*(p.den for p in window))
    nums = [[c * (den // p.den) for c in p.num] for p in window]
    products = [int_mul(nums[top - i], nums[top + i]) for i in range(top + 1)]
    out = []
    for n in ns:
        total = [0] * max(len(q) for q in products[: n + 1])
        for i, q in enumerate(products[: n + 1]):
            # Q_i stands for the terms at -i and +i alike
            weight = (-1) ** i * math.comb(2 * n, n + i) * (2 if i else 1)
            for j, c in enumerate(q):
                total[j] += weight * c
        out.append(Poly.from_ints(total, den * den * math.factorial(2 * n)))
    return out


def extended_laguerre(f: Poly, n: int) -> Poly:
    """Order-n extended Laguerre expression of a single polynomial: the
    extended Turan expression of (f, f', ..., f^(2n)) at k = 0.

    n = 0 gives f^2; n = 1 gives f'^2 - f f''; once n exceeds deg(f) every
    derivative product vanishes and the result is the zero polynomial.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return f * f
    derivs = [f]
    for _ in range(2 * n):
        derivs.append(derivs[-1].derivative())
    return extended_turan(derivs, 0, n)


def wronskian(f: Poly) -> Poly:
    """f'^2 - f'' f, the classical Laguerre expression of f: order 1."""
    return extended_laguerre(f, 1)


def fisk_expression(f: Poly, a: Scalar, b: Scalar, c: Scalar) -> Poly:
    """a*f^2 + b*f*f' + c*x*(f*f'' - f'^2), expanded exactly: the last
    term is -c*x*wronskian(f)."""
    w = wronskian(f)  # rejects the zero polynomial
    return (
        (f * f).scale(a)
        + (f * f.derivative()).scale(b)
        - w.shift_x(1).scale(c)
    )


def reflect_shift(expr: Poly, reflect: bool, shift: Scalar) -> Poly:
    """``reflect`` applies x -> -x to expr; a non-zero ``shift`` then
    applies x -> x + shift.  Both together are one substitution,
    x -> -x - shift."""
    shift = Fraction(shift)
    if reflect:
        return expr.compose_linear(-1, -shift)
    if shift:
        return expr.compose_linear(1, shift)
    return expr
