"""Exact weak Hurwitz stability via Sturm-type sign-variation counting.

A real polynomial is weakly Hurwitz stable when it has no zero with
positive real part; imaginary-axis zeros are allowed.  The decision
procedure rotates f to g(x) = (-i)^n f(ix), whose zeros with negative
imaginary part correspond to the right-half-plane zeros of f, splits g
into exact real/imaginary parts and runs one generalized Sturm chain on
them.  The chain ends at their gcd, which carries every real zero of g,
and counts the open-upper-half-plane zeros of the quotient g / gcd:

    p = (deg(g) - deg(gcd) + V(+inf) - V(-inf)) / 2,

where V is the number of sign changes along the chain at the given end.
Each chain element is the gcd times the matching element of the chain of
the quotients re/gcd, im/gcd, up to positive scale.  At either end every
sign is thus multiplied by the same sign of the monic gcd, so V(+-inf)
and the chain length equal those of the quotient chain.  The same
counter alone, with no real-rootedness pre-check, decides strict
interlacing (``interlace_check``), by the Hermite-Biehler theorem.

Fast path.  Write f = x^m h with h(0) != 0 and the leading coefficient of
h positive.  By the Routh-Hurwitz theorem (Gantmacher, The Theory of
Matrices II, ch. XV), h is strictly Hurwitz stable iff all deg h + 1
entries of the first column of its Routh array are positive.  For h with
positive coefficients that passes the gate below, ``_routh_data`` runs
the fraction-free Routh recurrence in integer intervals: rows stay exact
until one exceeds P = 8 (deg h + 1) bits, then each row is shifted right
to P bits, lower bounds floored and upper bounds ceiled.  A positive
scale of a row changes no sign, so positive lower bounds certify h.
The certificate then has a closed form: the rotated parts of h are
coprime and their chain is normal, of length deg h + 1, so p = deg h;
since V(+-inf) <= deg h, 2p = deg h + V(+inf) - V(-inf) forces
V(+inf) = deg h and V(-inf) = 0, and the factor x^m multiplies every
chain element, so the gcd is x^m.  Any doubt (a lower bound <= 0, a
coefficient <= 0, an h outside the gate) falls through to the exact
chain.

The gate.  The test is tried for deg h >= 32, and for 2 <= deg h < 32
when the primitive part of h has a coefficient at least P bits wide, so
a large constant factor does not let an input in.  At degree 32-48 a
failed attempt adds about 12% to the exact chain and at degree 96 about
4%, because the chain's coefficients grow with the degree and the
interval rows do not; below degree 32 a narrow input would pay 30-50%,
and where the chain stays small (an axis pair times small linear
factors) as much again as the chain.  A wide input is the other way
round: the chain carries its full width from the first step, the rows
only P bits.  The shifted Hermite windows of ``verify --suite thm12``
(degree <= 24, up to 938 bits) cost about 14 times less than on the
chain, and a failed attempt on a wide input of degree 8-20 costs 0.2-0.7
of the chain.

Everything on the verdict path is exact rational/integer arithmetic; the
only floating point in this module lives in the independent companion-
matrix oracle used for randomized cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional

from . import polycore
from .polycore import (
    IntPoly,
    Poly,
    Scalar,
    clear_denominators,
    int_horner,
    int_primitive,
    int_pseudo_rem,
)

RIGHT_OF = "right_of"
LEFT_OF = "left_of"

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

ORACLE_MAX_DEGREE = 12
ORACLE_AXIS_TOL = 1e-6


class ChainInvariantError(RuntimeError):
    """Internal inconsistency in a Sturm chain; never a stability verdict."""


@dataclass(frozen=True)
class StabilityCertificate:
    """Verdict plus the evidence behind it."""

    verdict: bool
    degree: int
    gcd_degree: int
    gcd_all_real: bool
    p_upper: int
    chain_length: int
    v_plus: int
    v_minus: int

    def summary(self) -> dict:
        """The fields as a dict, in declaration order (the report format)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


# -- rotation ----------------------------------------------------------

def _rotated_parts(coeffs: IntPoly) -> tuple[IntPoly, IntPoly]:
    """Real and imaginary integer lists of (-i)^n f(ix), n = deg f.

    The imaginary list carries no trailing zeros, so it is empty when the
    part is zero.
    """
    n = len(coeffs) - 1
    # x^j gets the factor i^(j-n); i^m = cos(m pi/2) + i cos((m-1) pi/2)
    cos = (1, 0, -1, 0)
    re = [c * cos[(j - n) % 4] for j, c in enumerate(coeffs)]
    im = [c * cos[(j - n - 1) % 4] for j, c in enumerate(coeffs)]
    while im and not im[-1]:
        im.pop()
    return re, im


def rotate(f: Poly) -> tuple[Poly, Poly]:
    """g(x) = (-i)^n f(ix) as the pair (re, im) of its exact real and
    imaginary parts, g = re + i*im.

    The leading coefficient of g is real and equals that of f, so
    deg(im) < deg(re); zeros of f with Re > 0 map exactly to zeros of g
    with Im < 0.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    num = clear_denominators(f)
    re, im = _rotated_parts(num)
    unit = f.leading / num[-1]  # 1/d for the d that cleared the denominators
    return Poly(re).scale(unit), Poly(im).scale(unit)


# -- generalized Sturm chains -----------------------------------------

def _int_chain(f0: IntPoly, f1: IntPoly) -> list[IntPoly]:
    """Euclidean chain f_{k+1} = -rem(f_{k-1}, f_k), over the integers.

    Each element may be replaced by a positive integer multiple (that is
    what stripping the content and the pseudo-division multipliers amount
    to), which leaves every sign-variation count unchanged.  The chain ends
    at the last non-zero element, the gcd of f0 and f1 up to positive scale.
    """
    if not f0:
        raise ValueError("f0 must be non-zero")
    chain = [list(f0), list(f1)] if f1 else [list(f0)]
    while len(chain) >= 2:
        r, positive = int_pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        nxt = [-c for c in r] if positive else r
        chain.append(int_primitive(nxt))
    return chain


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: list[int]) -> int:
    """Sign changes with zeros omitted."""
    run = [s for s in signs if s]
    return sum(1 for a, b in zip(run, run[1:]) if a != b)


def _variations_at_infinity_ints(chain: list[IntPoly], direction: int) -> int:
    # sign at +-inf is sign(lc) * direction^deg; no evaluation needed
    signs = []
    for f in chain:
        s = _sign(f[-1])
        if direction < 0 and (len(f) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


# -- the half-plane counter -------------------------------------------

def _halfplane_data(re: IntPoly, im: IntPoly):
    """gcd, chain length and counts for the closed-upper-half-plane test.

    ``re`` and ``im`` are integer coefficient lists, each a positive
    multiple of its part, with deg(im) < deg(re).  The one chain of
    (re, im) ends at their gcd g, returned as an integer list, and has the
    length and V(+-inf) of the chain of (re/g, im/g); see the module
    docstring.
    """
    chain = _int_chain(re, im)
    g = chain[-1]
    v_plus = _variations_at_infinity_ints(chain, +1)
    v_minus = _variations_at_infinity_ints(chain, -1)
    dq = len(re) - len(g)
    twice_p = dq + v_plus - v_minus
    if twice_p % 2 != 0 or not (0 <= twice_p // 2 <= dq):
        raise ChainInvariantError(
            f"non-integral or out-of-range zero count: deg={dq}, "
            f"v+={v_plus}, v-={v_minus}"
        )
    return twice_p // 2, g, len(chain), v_plus, v_minus


# from this degree any h is tried, since a failed attempt costs little
# beside the exact chain; below it only a wide h is ("The gate" above)
_ROUTH_MIN_DEGREE = 32


def _routh_data(num: IntPoly):
    """``_halfplane_data`` of the rotated parts of num, in closed form,
    when the interval Routh test certifies num / x^m strictly Hurwitz
    stable; None when it does not try or does not certify.
    """
    m = 0 if num[0] else next(i for i, c in enumerate(num) if c)
    d = len(num) - 1 - m
    if d < 2:
        return None
    bits = 8 * (d + 1)
    if d < _ROUTH_MIN_DEGREE:
        # the width of h's primitive part, where every coefficient of h is
        # positive (else the sign test below refuses); the gcd only for a
        # wide h, since the primitive part is never wider than h
        top = max(num) if num[-1] > 0 else -min(num)
        if top.bit_length() < bits or (top // math.gcd(*num)).bit_length() < bits:
            return None
    h = num[m:] if num[-1] > 0 else [-c for c in num[m:]]
    if min(h) <= 0:
        return None
    # rows as (lower, upper) bound lists; a row is exact while they agree
    prev, row = (h[d::-2],) * 2, (h[d - 1 :: -2],) * 2
    for _ in range(d - 1):
        c1, c2, a1, a2 = prev[0][0], prev[1][0], row[0][0], row[1][0]
        lo, hi = [], []
        # r_{k+1}[j] = r_k[0] r_{k-1}[j+1] - r_{k-1}[0] r_k[j+1], where
        # a = r_k[0] and c = r_{k-1}[0] are positive intervals
        for j in range(1, len(prev[0])):
            b1, b2 = prev[0][j], prev[1][j]
            e1, e2 = (row[0][j], row[1][j]) if j < len(row[0]) else (0, 0)
            lo.append((a1 if b1 >= 0 else a2) * b1 - (c2 if e2 >= 0 else c1) * e2)
            hi.append((a2 if b2 >= 0 else a1) * b2 - (c1 if e1 >= 0 else c2) * e1)
        shift = max(max(hi), -min(lo)).bit_length() - bits  # lo <= hi
        if shift > 0:
            lo = [v >> shift for v in lo]
            hi = [-(-v >> shift) for v in hi]
        if lo[0] <= 0:
            return None
        prev, row = row, (lo, hi)
    return d, [0] * m + [1], d + 1, d, 0


# -- real-root machinery ----------------------------------------------

class SturmChain:
    """Cached integer Sturm chain of the squarefree part of a polynomial."""

    def __init__(self, f: Poly):
        if f.is_zero:
            raise ValueError("zero polynomial")
        self.squarefree = polycore.squarefree_part(f)
        self._chain = _int_chain(
            clear_denominators(self.squarefree),
            clear_denominators(self.squarefree.derivative()),
        )

    def signs_at(self, x: Scalar) -> list[int]:
        """Signs of the chain elements at x, the squarefree part's first."""
        # at x = p/q with q > 0, an element of degree d has the sign of the
        # integer q^d * f(p/q)
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        return [_sign(int_horner(f, p, q)) for f in self._chain]

    def variations_at(self, x: Scalar) -> int:
        return _variations(self.signs_at(x))

    def count(self, lo: Optional[Scalar], hi: Optional[Scalar]) -> int:
        """Distinct real roots in the half-open interval (lo, hi]."""
        v_lo = (
            _variations_at_infinity_ints(self._chain, -1)
            if lo is None
            else self.variations_at(lo)
        )
        v_hi = (
            _variations_at_infinity_ints(self._chain, +1)
            if hi is None
            else self.variations_at(hi)
        )
        return v_lo - v_hi


def all_roots_real(f: Poly) -> bool:
    """True iff every zero of f is real (multiplicities collapse first)."""
    chain = SturmChain(f)
    return chain.count(None, None) == chain.squarefree.degree()


def cauchy_bound(f: Poly) -> Fraction:
    """1 + max|a_i| / |a_n|: every root has absolute value below this."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    # the common denominator cancels from the ratio
    num = clear_denominators(f)
    return 1 + Fraction(max((abs(c) for c in num[:-1]), default=0), abs(num[-1]))


def isolate_extreme_roots(
    f: Poly, tol: Scalar
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational brackets of width <= tol around the smallest and largest
    real roots m, M of f: returns (m_lo, m_hi, M_lo, M_hi) with
    m_lo < m <= m_hi and M_lo < M <= M_hi.

    Both are one search for the j-th distinct real root from the left, run
    for j = 1 and j = r, the number of distinct real roots.  It bisects
    (-B, B] for the Cauchy bound B and counts from -inf: the roots at or
    below x number V(-inf) - V(x), and V(-inf) is read off the leading
    signs, so a step evaluates the Sturm chain once, at the midpoint, and
    never at +-B (no root lies outside (-B, B), so V(-B) = V(-inf)).  The
    sign of the chain's first element there, the squarefree part, tells
    whether the midpoint is a root; the j-th root collapses the bracket.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    chain = SturmChain(f)
    r = chain.count(None, None)
    if r == 0:
        raise ValueError("polynomial has no real roots")
    bound = cauchy_bound(f)
    v_minus = _variations_at_infinity_ints(chain._chain, -1)

    def bisect(j: int) -> tuple[Fraction, Fraction]:
        # invariant: the j-th root lies in (lo, hi]
        lo, hi = -bound, bound
        while hi - lo > tol:
            mid = (lo + hi) / 2
            signs = chain.signs_at(mid)
            below = v_minus - _variations(signs)  # roots in (-inf, mid]
            if below < j:
                lo = mid
            elif not signs[0] and below == j:
                return max(lo, mid - tol), mid  # mid is the j-th root
            else:
                hi = mid
        return lo, hi

    return (*bisect(1), *bisect(r))


# -- stability verdicts -----------------------------------------------

def is_weakly_hurwitz(f: Poly) -> StabilityCertificate:
    """Exact weak Hurwitz stability certificate for a real polynomial.

    Verdict is true iff f has no zero with Re > 0: all zeros of the rotated
    polynomial must sit in the closed upper half-plane, i.e. the gcd of the
    rotated parts must be fully real-rooted and the quotient's open-upper
    count must exhaust its degree.  A strictly stable h = f / x^m with
    positive coefficients, of degree >= 32 or of degree 2-31 with a
    primitive part at least 8 (deg h + 1) bits wide, is certified by the
    interval Routh test instead of the chain, with the same certificate
    (module docstring).
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    degree = f.degree()
    if degree == 0:
        return StabilityCertificate(
            verdict=True,
            degree=0,
            gcd_degree=0,
            gcd_all_real=True,
            p_upper=0,
            chain_length=0,
            v_plus=0,
            v_minus=0,
        )
    num = clear_denominators(f)
    p, g, chain_length, v_plus, v_minus = _routh_data(num) or _halfplane_data(
        *_rotated_parts(num)
    )
    gcd_degree = len(g) - 1
    gcd_all_real = gcd_degree == 0 or all_roots_real(Poly(g))
    verdict = gcd_all_real and p == degree - gcd_degree
    return StabilityCertificate(
        verdict=verdict,
        degree=degree,
        gcd_degree=gcd_degree,
        gcd_all_real=gcd_all_real,
        p_upper=p,
        chain_length=chain_length,
        v_plus=v_plus,
        v_minus=v_minus,
    )


def nonvanishing_halfplane(f: Poly, tau: Scalar, side: str) -> bool:
    """True iff f is zero-free on Re x > tau (right_of) or Re x < tau (left_of)."""
    tau = Fraction(tau)
    if side == RIGHT_OF:
        return is_weakly_hurwitz(f.compose_linear(1, tau)).verdict
    if side == LEFT_OF:
        return is_weakly_hurwitz(f.compose_linear(-1, tau)).verdict
    raise ValueError(f"unknown side {side!r}")


def interlace_check(
    f: Poly, g: Poly, shared_root: Optional[Scalar] = None
) -> bool:
    """Exact strict-interlacing check for f, g with deg(f) = deg(g) + 1.

    By the Hermite-Biehler theorem, f and g have real, simple, strictly
    interlacing zeros (f, g, f, ..., f on the real line) iff f + i*g has
    every zero in one open half-plane.  ``_halfplane_data`` decides that
    on the numerators of f and g, positive multiples of them: the gcd must
    be constant (a common zero is a real zero of f + i*g) and the
    open-upper count 0 or deg(f).  A non-real, multiple or common zero
    thus gives False.  With ``shared_root=r`` the check applies to
    f/(x-r) and g/(x-r): the gcd read off the chain must be x - r, and
    the quotient counted is the same.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.degree() != g.degree() + 1:
        raise ValueError("need deg(f) = deg(g) + 1")
    p, common, _, _, _ = _halfplane_data(f.num, g.num)
    common = int_primitive(common if common[-1] > 0 else [-c for c in common])
    expected = [1]
    if shared_root is not None:  # x - p/q has the numerators [-p, q]
        expected = Poly([-Fraction(shared_root), 1]).num
    return common == expected and p in (0, len(f.num) - len(common))


def cross_check_oracle(f: Poly) -> str:
    """Independent numeric verdict via companion-matrix eigenvalues.

    Returns 'unstable' when some approximated root has real part above the
    axis tolerance, 'inconclusive' when a root sits within the tolerance of
    the imaginary axis, else 'stable'.  Testing aid only, never a verdict;
    it needs numpy, the package's ``oracle`` extra.
    """
    import numpy as np

    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree() > ORACLE_MAX_DEGREE:
        raise ValueError(f"oracle limited to degree <= {ORACLE_MAX_DEGREE}")
    if f.degree() == 0:
        return STABLE
    monic = f.monic()
    coeffs = [float(c) for c in reversed(monic.coeffs)]
    roots = np.roots(coeffs)
    reals = roots.real
    if (reals > ORACLE_AXIS_TOL).any():
        return UNSTABLE
    if (abs(reals) <= ORACLE_AXIS_TOL).any():
        return INCONCLUSIVE
    return STABLE
