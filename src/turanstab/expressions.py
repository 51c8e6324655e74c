"""Turan-type expressions built exactly from polynomial sequences.

The k-th Turan expression of a sequence P is (P_{k+1})^2 - P_{k+2} P_k,
the negated 2x2 Hankel determinant.  The order-n extended form is the
alternating binomial convolution

    sum_{j=0}^{2n} (-1)^(n+j) / (2n)!  C(2n, j)  P_{j+k}  P_{2n+k-j},

which collapses to the plain Turan expression at n = 1.  The extended
Laguerre expression of one polynomial f is the extended Turan expression
of its derivatives (f, f', ..., f^(2n)) at k = 0; its n = 1 case is the
classical f'^2 - f f''.

``build_expression`` is the one path from a sequence to the object a
campaign cell or the ``turan`` command decides: the extended Turan
expression, reflected (x -> -x, used for Laguerre) and shifted (x -> x +
shift, used for type A with shift -b) as asked.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polycore import Poly, Scalar


def turan(seq: list[Poly], k: int) -> Poly:
    """(P_{k+1})^2 - P_{k+2} * P_k, exactly: the order-1 extended form."""
    return extended_turan(seq, k, 1)


def extended_turan(seq: list[Poly], k: int, n: int) -> Poly:
    """Order-n extended Turan expression at index k.

    The j and 2n-j terms of the sum are equal, so the sum is folded; the
    unfolded form is kept around in the tests as a consistency oracle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if len(seq) < 2 * n + k + 1:
        raise ValueError(f"sequence must reach index {2 * n + k}")
    total = Poly()
    for j in range(n):
        term = (seq[j + k] * seq[2 * n + k - j]).scale(2 * math.comb(2 * n, j))
        total = total + term if (n + j) % 2 == 0 else total - term
    middle = (seq[n + k] * seq[n + k]).scale(math.comb(2 * n, n))
    total = total + middle
    return total.scale(Fraction(1, math.factorial(2 * n)))


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


def build_expression(
    seq: list[Poly], k: int, n: int, reflect: bool, shift: Fraction
) -> Poly:
    """Order-n extended Turan expression at index k, reflected and shifted.

    ``reflect`` applies x -> -x to the expression; a non-zero ``shift``
    then applies x -> x + shift.
    """
    expr = extended_turan(seq, k, n)
    if reflect:
        expr = expr.compose_linear(-1, 0)
    if shift:
        expr = expr.compose_linear(1, shift)
    return expr
