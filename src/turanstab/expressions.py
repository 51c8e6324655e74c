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

The products are Kronecker substitutions (Schoenhage 1982): each member
of the window is packed once into the integer f(2^w) (``polycore._pack``),
a product is one big-integer product, the binomial combination for each
n is taken on the packed products, and each expression is unpacked once.
The slot width w is chosen so that no coefficient of any combination
reaches 2^(w-1) in size: with the sum of the weights' sizes 4^top, the
bound is 4^top * length * max|coefficient|^2.  A window whose members
are all even or odd, with every product even (Legendre, Hermite,
Chebyshev), is packed at stride 2, on the coefficients of one parity
only.  Members shorter than a crossover length multiply faster
coefficient by coefficient, so such windows keep schoolbook ``int_mul``
products, combined coefficient by coefficient.

``reflect_shift`` is the one x -> +-x + c substitution: reflected
(x -> -x, used for Laguerre) and shifted (x -> x + shift, used for type
A with shift -b) as asked.  The substitution is a ring homomorphism and
every expression a fixed rational combination of products of members,
so building from substituted members gives the substituted expressions:
the campaigns and the suites that run a grid substitute each member
once, and the ``turan`` command and the half-plane checks the one
expression they decide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import mul

from .polycore import Poly, Scalar, _pack, _unpack, int_mul

# windows whose members are all shorter than this are multiplied by
# schoolbook int_mul; longer ones packed (``polycore._pack``)
_PACK_FROM = 14


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
    once, packed or by schoolbook as the module docstring says, and each
    expression is one integer combination of them over D^2 (2n)!.  The
    schoolbook diagonal and the unfolded sum are kept in the tests as
    oracles.
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
    nums = [p.num if p.den == den else [c * (den // p.den) for c in p.num]
            for p in window]
    if max(map(len, nums)) < _PACK_FROM:
        products = list(map(int_mul, nums[top::-1], nums[top:]))
        totals = []
        for n in ns:
            total = [0] * max(map(len, products[: n + 1]))
            for w, q in zip(_weights(n), products):
                for j, c in enumerate(q):
                    total[j] += w * c
            totals.append(total)
    else:
        totals = _packed_totals(nums, top, ns)
    return [Poly.from_ints(total, den * den * math.factorial(2 * n))
            for n, total in zip(ns, totals)]


def _weights(n: int) -> list[int]:
    """(2n)! times the weight of Q_i in T(t - n, n), i = 0..n; Q_i stands
    for the terms at -i and +i alike."""
    return [(-1) ** i * math.comb(2 * n, n + i) * (2 if i else 1) for i in range(n + 1)]


def _packed_totals(nums: list[list[int]], top: int, ns) -> list[list[int]]:
    """The numerators sum_i w_i Q_i of ``turan_diagonal`` for each n in
    ``ns``, from the window's integer lists, on packed members."""
    stride, members, lifts = _window_shape(nums, top)
    # no total coefficient reaches 4^top * length * max|c|^2 in size
    length = max(map(len, members))
    big = max(map(abs, chain.from_iterable(members)), default=0)
    nbytes = (2 * top + length.bit_length() + 2 * big.bit_length()) // 8 + 1
    packed = [_pack(g, nbytes) for g in members]
    products = [q << 8 * nbytes * lift for q, lift in
                zip(map(mul, packed[top::-1], packed[top:]), lifts)]
    totals = []
    for n in ns:
        total = _unpack(sum(w * q for w, q in zip(_weights(n), products)), nbytes)
        if stride == 2:
            total, compact = [0] * (2 * len(total) - 1), total
            total[::2] = compact
        totals.append(total)
    return totals


def _window_shape(nums: list[list[int]], top: int):
    """``(stride, members, lifts)`` with window member j equal to
    x^p_j g_j(x^stride), g_j = ``members[j]``, and every product
    Q_i = (x^stride)^lifts[i] (g_{top-i} g_{top+i})(x^stride).

    The stride is 2 when every member is even or odd and the members top - i
    and top + i are of one parity for every i, as in the Legendre, Hermite
    and Chebyshev windows: every product is then even, and the members are
    their coefficients of that parity, about half as many.  Otherwise it
    is 1, and the members are the window itself.
    """
    parities = [0 if not any(f[1::2]) else 1 if not any(f[::2]) else None
                for f in nums]
    if None in parities or parities != parities[::-1]:
        return 1, nums, [0] * (top + 1)
    return 2, [f[p::2] for f, p in zip(nums, parities)], parities[top:]


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
