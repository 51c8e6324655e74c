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

The real-line questions (is the gcd real-rooted, where do the extreme
zeros of a polynomial lie) use the classical Sturm chain of its
squarefree part instead (``_real_zero_count``), found from gcd(f, f'): a
squarefree f is its own, so its chain is that of (f, f'), undivided.
``all_roots_real`` first runs Newton's inequalities, which refute most
non-real inputs and decide degree <= 2 with no chain.  A Routh-certified
verdict (below) asks none: its gcd is x^m.

Fast path.  Write f = x^m h with h(0) != 0 and the leading coefficient
of h positive.  By the Routh-Hurwitz theorem (Gantmacher, The Theory of
Matrices II, ch. XV), h is strictly Hurwitz stable iff all deg h + 1
entries of the first column of its Routh array are positive.  Then all
entries are: two consecutive rows hold the even and odd coefficients of
a Routh-reduced polynomial, again strictly stable.  For h with positive
coefficients that passes the gate below, ``_routh_rows`` runs the
classical Routh recurrence r_{k+1}[j] = r_{k-1}[j+1] - mu r_k[j+1],
mu = r_{k-1}[0] / r_k[0], on intervals [lo, hi] 2^e, each entry with its
own exponent e, lo floored and hi ceiled.  The two rows of h's
coefficients carry P = 5 (deg h + 1) mantissa bits; the row formed with
``left`` rows to come (deg h down to 2) carries ceil(P left / (deg h + 1)),
and mu is enclosed once per row, to that row's precision.  A row passes
its rounding on to the rows after it, and each of them loses about as
many bits again (Rump, Verification methods, Acta Numerica 19, 2010), so
a row needs bits in proportion to the rows left.  With positive entries
mu f lies between mu_lo f_lo and mu_hi f_hi, so a new entry is bounded
below by b_lo - mu_hi f_hi and above by b_hi - mu_lo f_lo.  Positive
lower bounds certify h.  An upper bound <= 0 proves h not strictly
stable; a straddle of 0, or a first entry whose lower bound rounds to 0
(mu is then unbounded), runs the test once more from P' = 6 (deg h + 1)
bits.  The certificate then has a closed form: the rotated parts of h
are coprime and their chain is normal, of length deg h + 1, so
p = deg h; since V(+-inf) <= deg h, 2p = deg h + V(+inf) - V(-inf)
forces V(+inf) = deg h and V(-inf) = 0, and the factor x^m multiplies
every chain element, so the gcd is x^m.  Any doubt (an entry <= 0, a
straddle at P', a coefficient <= 0, an h outside the gate) falls through
to the exact chain.

The gate.  The test is tried for deg h >= 32, and for 2 <= deg h < 32
when the primitive part of h has a coefficient at least 4 (deg h + 1)
bits wide (a threshold of its own, not P), so a large constant factor
does not let an input in.  Below degree 32 a failed attempt on a narrow
input costs more, against the chain, than it does above; on a wide input
the chain carries that width from its first step, so the attempt pays.
README ("How the verdict works") gives the measurements behind both
rules.

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
from .expressions import reflect_shift
from .polycore import (
    IntPoly,
    Poly,
    Scalar,
    clear_denominators,
    int_horner,
    int_primitive,
    int_pseudo_rem,
)

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
    re, im = _rotated_parts(clear_denominators(f))
    return Poly.from_ints(re, f.den), Poly.from_ints(im, f.den)


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


def _end_variations(chain: list[IntPoly]) -> tuple[int, int]:
    """V(+inf), V(-inf) of a chain with no zero element, off the leading
    signs (at -inf an element of degree d has the sign of lc (-1)^d)."""
    v_plus = v_minus = 0
    for f, g in zip(chain, chain[1:]):
        change = (f[-1] > 0) != (g[-1] > 0)
        v_plus += change
        v_minus += change != ((len(f) - len(g)) % 2 == 1)
    return v_plus, v_minus


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
    v_plus, v_minus = _end_variations(chain)
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


def _routh_rows(h: IntPoly, bits: int) -> Optional[bool]:
    """The interval Routh test of h (every coefficient positive): True
    when every entry is certainly positive, False when one is certainly
    <= 0, None when one straddles 0 or a first entry's lower bound rounds
    to 0.

    The rows are those of the classical table (module docstring), one
    enclosure of mu per row and one full-width product per entry.  The two
    rows of h's coefficients carry ``bits`` mantissa bits per entry; the
    row formed with ``left`` rows to come (len(h) - 1 down to 2), and its
    mu, carry ceil(bits left / len(h)).
    """

    def rounded(lo, hi, e, p):  # [lo, hi] 2^e to p bits: floor lo, ceil hi
        s = hi.bit_length() - p
        return (lo >> s, -(-hi >> s), e + s) if s > 0 else (lo, hi, e)

    prev = [rounded(c, c, 0, bits) for c in h[::-2]]
    row = [rounded(c, c, 0, bits) for c in h[-2::-2]]
    n = len(h)
    for left in range(n - 1, 1, -1):
        # r_{k+1}[j] = r_{k-1}[j+1] - mu r_k[j+1] with mu = r_{k-1}[0] / r_k[0],
        # to the p bits that the rows after it need (module docstring)
        p = -(-bits * left // n)
        (a_lo, a_hi, a_e), (c_lo, c_hi, c_e) = row[0], prev[0]
        if not a_lo:  # floored to 0: mu is unbounded
            return None
        # mu in [mu_lo, mu_lo + dmu] 2^mu_e, mu_lo about p bits wide; c_hi
        # has up to one bit more than the precision of its row, which is at
        # least p, so t may come out < 0, where t = 0 still floors mu_lo and
        # ceils mu_lo + dmu
        t = max(p - c_hi.bit_length() + a_lo.bit_length(), 0)
        mu_lo = (c_lo << t) // a_hi
        dmu = -(-(c_hi << t) // a_lo) - mu_lo
        mu_e = c_e - a_e - t
        new = []
        for (b_lo, b_hi, b_e), (f_lo, f_hi, f_e) in zip(prev[1:], row[1:]):
            # every entry is positive, so mu f lies in [mu_lo f_lo, mu_hi f_hi];
            # mu_hi f_hi = mu_lo f_lo + mu_lo (f_hi - f_lo) + dmu f_hi exactly,
            # with one full-width product and two by narrow widths
            g_lo = mu_lo * f_lo
            g_hi = g_lo + mu_lo * (f_hi - f_lo) + dmu * f_hi
            e = mu_e + f_e
            if b_e > e:  # align on the smaller exponent, exactly
                b_lo, b_hi = b_lo << b_e - e, b_hi << b_e - e
            else:
                g_lo, g_hi, e = g_lo << e - b_e, g_hi << e - b_e, b_e
            lo, hi = b_lo - g_hi, b_hi - g_lo
            if lo <= 0:
                return None if hi > 0 else False
            s = hi.bit_length() - p  # rounded(lo, hi, e, p), inlined
            new.append((lo >> s, -(-hi >> s), e + s) if s > 0 else (lo, hi, e))
        # past the end of row the entry is r_{k-1}[j+1] itself, to p bits too
        new += [rounded(*entry, p) for entry in prev[len(row):]]
        prev, row = row, new
    return True


def _routh_data(num: IntPoly):
    """``_halfplane_data`` of the rotated parts of num, in closed form,
    when the interval Routh test certifies h = num / x^m strictly Hurwitz
    stable; None when it does not, or when the gate keeps h out (module
    docstring).
    """
    m = 0 if num[0] else next(i for i, c in enumerate(num) if c)
    d = len(num) - 1 - m
    if d < 2:
        return None
    if d < _ROUTH_MIN_DEGREE:
        # the width of h's primitive part, where every coefficient of h is
        # positive (else the sign test below refuses); the gcd only for a
        # wide h, since the primitive part is never wider than h
        width = 4 * (d + 1)
        top = max(num) if num[-1] > 0 else -min(num)
        if top.bit_length() < width or (top // math.gcd(*num)).bit_length() < width:
            return None
    h = num[m:] if num[-1] > 0 else [-c for c in num[m:]]
    if min(h) <= 0:
        return None
    certified = _routh_rows(h, 5 * (d + 1))
    if certified is None:  # a straddle: once more at a few more bits
        certified = _routh_rows(h, 6 * (d + 1))
    return (d, [0] * m + [1], d + 1, d, 0) if certified else None


# -- real-root machinery ----------------------------------------------

def _real_zero_count(f: Poly) -> tuple[list[IntPoly], int, int]:
    """(chain, V(-inf), V(-inf) - V(+inf)) for the integer Sturm chain of
    the squarefree part s = f / gcd(f, f') of f: s, s', ... (s is not made
    monic: a scale of s scales the whole chain).

    V(-inf) - V(+inf) along it is the number of distinct real zeros of f,
    and V(-inf) - V(x) the number at or below x.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no Sturm chain")
    df = f.derivative()
    g = polycore.gcd(f, df)
    if len(g.num) == 1:  # f is squarefree: s = f
        chain = _int_chain(f.num, df.num)
    else:
        s = f.exact_div(g)
        chain = _int_chain(s.num, s.derivative().num)
    v_plus, v_minus = _end_variations(chain)
    return chain, v_minus, v_minus - v_plus


def _newton_refutes(a: IntPoly) -> bool:
    """Some 0 < k < n has a_k^2 k (n-k) < a_(k-1) a_(k+1) (k+1) (n-k+1)."""
    n = len(a) - 1
    return any(a[k] * a[k] * k * (n - k) < a[k - 1] * a[k + 1] * (k + 1) * (n - k + 1)
               for k in range(1, n))


def all_roots_real(f: Poly) -> bool:
    """True iff every zero of the non-zero f is real.  Newton's inequalities
    (``_newton_refutes``; Hardy, Littlewood and Polya, Inequalities, 2.22)
    hold for every real-rooted f, multiple zeros included, and suffice at
    degree <= 2 (b^2 >= 4ac); only an f of degree >= 3 that meets them goes
    to the Sturm chain of its squarefree part."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no Sturm chain")
    if _newton_refutes(f.num):
        return False
    if len(f.num) <= 3:
        return True
    chain, _, r = _real_zero_count(f)
    return r == len(chain[0]) - 1


def _root_bound(f: IntPoly) -> int:
    """The least power of two B >= 1 with |a_(n-j)| <= |a_n| (B/2)^j for
    every j: Fujiwara's bound rounded up, so every zero has |z| < B."""
    # a zero with |z| >= B would have |a_n z^n| > sum_j |a_(n-j) z^(n-j)|,
    # since (B/2)^j |z|^(n-j) <= |z|^n / 2^j and the 2^-j sum below 1
    lead, e = abs(f[-1]), 0
    for j, a in enumerate(reversed(f[:-1]), 1):
        while abs(a) << j > lead << e * j:  # |a| > lead 2^((e-1) j)
            e += 1
    return 1 << e


def isolate_extreme_roots(
    f: Poly, tol: Scalar
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational brackets of width <= tol around the smallest and largest
    real roots m, M of f: returns (m_lo, m_hi, M_lo, M_hi) with
    m_lo < m <= m_hi and M_lo < M <= M_hi.

    Both are one search for the j-th distinct real root from the left, run
    for j = 1 and j = r, the number of distinct real roots (once if
    r = 1).  It bisects (-B, B] for the power-of-two root bound B of the
    squarefree part s, on integers: a point is a / 2^e, and a bracket is
    wider than tol when (hi - lo) tol.den > tol.num 2^e.  It counts from
    -inf: the roots at or below x number V(-inf) - V(x), and V(-inf) is
    read off the leading signs, so no step evaluates at +-B (no root lies
    outside (-B, B), so V(-B) = V(-inf) and V(B) = V(+inf)).  The search
    keeps the counts at both bracket ends and isolates, then refines:

    - while the j-th root is not alone in (lo, hi], a step evaluates the
      whole Sturm chain at the midpoint, and the sign of s there tells
      whether the midpoint is a root; the j-th root collapses the bracket;
    - once hi counts j roots and lo counts j - 1, the j-th root is the
      only root of s in (lo, hi], and s(hi) != 0 (hi is B or a midpoint
      where s did not vanish), so a step evaluates s alone and compares
      its sign at the midpoint with its sign at hi.

    Every decision is the one the full chain would take.  Fractions are
    formed only for the returned brackets.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    chain, v_minus, r = _real_zero_count(f)
    if r == 0:
        raise ValueError("polynomial has no real roots")
    s, bound = chain[0], _root_bound(chain[0])

    def bisect(j: int) -> tuple[Fraction, Fraction]:
        # invariant: the j-th root lies in (lo, hi] / 2^e, with n_lo and
        # n_hi roots at or below the ends and s of the sign s_hi at hi
        lo, hi, e = -bound, bound, 0
        n_lo, n_hi, s_hi = 0, r, _sign(s[-1])
        while (hi - lo) * tol.denominator > tol.numerator << e:
            lo, hi, e = lo << 1, hi << 1, e + 1
            mid = (lo + hi) >> 1
            # an element g of degree d has at mid / 2^e the sign of the
            # integer 2^(e d) g(mid / 2^e)
            if n_lo == j - 1 and n_hi == j:  # the j-th root is alone
                s_mid = _sign(int_horner(s, mid, 1 << e))
                below = j if s_mid in (0, s_hi) else j - 1
            else:
                signs = [_sign(int_horner(g, mid, 1 << e)) for g in chain]
                s_mid, below = signs[0], v_minus - _variations(signs)
            if below < j:
                lo, n_lo = mid, below
            elif not s_mid and below == j:  # mid is the j-th root
                root = Fraction(mid, 1 << e)
                return max(Fraction(lo, 1 << e), root - tol), root
            else:
                hi, n_hi, s_hi = mid, below, s_mid
        return Fraction(lo, 1 << e), Fraction(hi, 1 << e)

    smallest = bisect(1)
    return (*smallest, *(smallest if r == 1 else bisect(r)))


# -- stability verdicts -----------------------------------------------

def is_weakly_hurwitz(f: Poly) -> StabilityCertificate:
    """Exact weak Hurwitz stability certificate for a non-zero real
    polynomial: the verdict is true iff f has no zero with Re > 0.

    All zeros of the rotated polynomial must sit in the closed upper
    half-plane: the gcd of the rotated parts must be real-rooted and the
    quotient's open-upper count must exhaust its degree.  An input that
    the interval Routh test certifies (module docstring) gets the same
    certificate in closed form, without the chain.
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
    routh = _routh_data(num)  # certified, with the real-rooted gcd x^m
    p, g, chain_length, v_plus, v_minus = routh or _halfplane_data(*_rotated_parts(num))
    gcd_degree = len(g) - 1
    gcd_all_real = bool(routh) or len(g) == 1 or all_roots_real(Poly.from_ints(g, 1))
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


def nonvanishing_halfplane(f: Poly, tau: Scalar, *, left: bool) -> bool:
    """True iff f is zero-free on Re x > tau, or on Re x < tau if ``left``:
    iff f(x + tau), or f(tau - x) = reflect_shift(f, True, -tau), is weakly
    Hurwitz stable."""
    tau = Fraction(tau)
    return is_weakly_hurwitz(reflect_shift(f, left, -tau if left else tau)).verdict


def interlace_check(f: Poly, g: Poly) -> bool:
    """Exact strict-interlacing check for f, g with deg(f) = deg(g) + 1.

    By the Hermite-Biehler theorem, f and g have real, simple, strictly
    interlacing zeros (f, g, f, ..., f on the real line) iff f + i*g has
    every zero in one open half-plane.  ``_halfplane_data`` decides that
    on the numerators of f and g, positive multiples of them: the gcd must
    be constant (a common zero is a real zero of f + i*g) and the
    open-upper count 0 or deg(f).  A non-real, multiple or common zero
    thus gives False, so a pair with a known common factor, such as the
    zero 0 of consecutive Bell polynomials, is checked with that factor
    divided out (``Poly.exact_div``).
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.degree() != g.degree() + 1:
        raise ValueError("need deg(f) = deg(g) + 1")
    p, common, _, _, _ = _halfplane_data(f.num, g.num)
    return len(common) == 1 and p in (0, f.degree())


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
