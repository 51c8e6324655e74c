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
counter decides strict interlacing (``interlace_check``), by the
Hermite-Biehler theorem.
Everything on the verdict path is exact rational/integer arithmetic; the
only floating point in this module lives in the independent companion-
matrix oracle used for randomized cross-checking.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from . import polycore
from .polycore import (
    IntPoly,
    Poly,
    Scalar,
    clear_denominators,
    int_primitive,
    int_pseudo_rem,
)

RIGHT_OF = "right_of"
LEFT_OF = "left_of"

POSSIBLY_STABLE = "possibly_stable"
CERTAINLY_UNSTABLE = "certainly_unstable"

STABLE = "stable"
UNSTABLE = "unstable"
INCONCLUSIVE = "inconclusive"

ORACLE_MAX_DEGREE = 12
ORACLE_AXIS_TOL = 1e-6


class ChainInvariantError(RuntimeError):
    """Internal inconsistency in a Sturm chain; never a stability verdict."""


@dataclass(frozen=True)
class SplitPoly:
    """Exact real and imaginary parts of a complex polynomial re + i*im."""

    re: Poly
    im: Poly


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
        return asdict(self)


# -- rotation ----------------------------------------------------------

def _rotated_parts(coeffs):
    """Real and imaginary coefficient lists of (-i)^n f(ix), n = deg f.

    Works on any exact coefficients (integers or Fractions); the imaginary
    list carries no trailing zeros, so it is empty when the part is zero.
    """
    n = len(coeffs) - 1
    re = [0] * (n + 1)
    im = [0] * (n + 1)
    for j, c in enumerate(coeffs):
        d = (j - n) % 4  # i^(j-n) cycles 1, i, -1, -i
        if d == 0:
            re[j] = c
        elif d == 1:
            im[j] = c
        elif d == 2:
            re[j] = -c
        else:
            im[j] = -c
    while im and not im[-1]:
        im.pop()
    return re, im


def rotate(f: Poly) -> SplitPoly:
    """g(x) = (-i)^n f(ix) as exact real/imaginary parts.

    The leading coefficient of g is real and equals that of f; zeros of f
    with Re > 0 map exactly to zeros of g with Im < 0.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    re, im = _rotated_parts(f.coeffs)
    return SplitPoly(Poly(re), Poly(im))


# -- generalized Sturm chains -----------------------------------------

def _int_chain(f0: IntPoly, f1: IntPoly, strip_content: bool = True) -> list[IntPoly]:
    """Euclidean chain f_{k+1} = -rem(f_{k-1}, f_k), over the integers.

    Each element may be replaced by a positive integer multiple (that is
    what ``strip_content`` and the pseudo-division multipliers amount to),
    which leaves every sign-variation count unchanged.  The chain ends at
    the last non-zero element, the gcd of f0 and f1 up to positive scale.
    """
    if not f0:
        raise ValueError("f0 must be non-zero")
    chain = [list(f0), list(f1)] if f1 else [list(f0)]
    while len(chain) >= 2:
        r, positive = int_pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        nxt = [-c for c in r] if positive else r
        chain.append(int_primitive(nxt) if strip_content else nxt)
    return chain


def euclid_chain(f0: Poly, f1: Poly, strip_content: bool = True) -> list[Poly]:
    """Generalized Sturm chain of f0, f1 as polynomials.

    Elements are positive rational multiples of the exact chain, which is
    all the sign-variation machinery ever needs.
    """
    if f0.is_zero:
        raise ValueError("f0 must be non-zero")
    if not f1.is_zero and f1.degree() >= f0.degree():
        raise ValueError("need deg(f1) < deg(f0)")
    ints = _int_chain(
        clear_denominators(f0), clear_denominators(f1), strip_content=strip_content
    )
    return [Poly(c) for c in ints]


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
        if not f:
            continue
        s = _sign(f[-1])
        if direction < 0 and (len(f) - 1) % 2 == 1:
            s = -s
        signs.append(s)
    return _variations(signs)


def sign_variations_at_infinity(chain: list[Poly], direction: str) -> int:
    """Variation count V at +inf or -inf, from leading coefficients only."""
    if direction not in ("+inf", "-inf"):
        raise ValueError("direction must be '+inf' or '-inf'")
    if not chain:
        raise ValueError("empty chain")
    ints = [clear_denominators(p) for p in chain]
    return _variations_at_infinity_ints(ints, +1 if direction == "+inf" else -1)


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


def upper_halfplane_count(h: SplitPoly) -> tuple[int, Poly]:
    """Zeros of h in the open upper half-plane, plus gcd(re, im).

    Requires the leading coefficient of h to be real (deg(im) < deg(re)),
    which ``rotate`` guarantees.  The overall real scale of h is irrelevant
    to the variation counts, so no monic normalization is needed.
    """
    if h.re.is_zero or (not h.im.is_zero and h.im.degree() >= h.re.degree()):
        raise ValueError("leading coefficient must be real")
    p, g, _, _, _ = _halfplane_data(
        clear_denominators(h.re), clear_denominators(h.im)
    )
    return p, Poly(g).monic()


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

    def variations_at(self, x: Scalar) -> int:
        # at x = p/q with q > 0, an element of degree d has the sign of the
        # integer q^d * f(p/q)
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        signs = []
        for f in self._chain:
            acc, q_pow = 0, 1
            for c in reversed(f):
                acc = acc * p + c * q_pow
                q_pow *= q
            signs.append(_sign(acc))
        return _variations(signs)

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


def sturm_real_count(
    f: Poly, lo: Optional[Scalar] = None, hi: Optional[Scalar] = None
) -> int:
    """Distinct real roots of f in (lo, hi]; None endpoints mean -inf/+inf."""
    return SturmChain(f).count(lo, hi)


def all_roots_real(f: Poly) -> bool:
    """True iff every zero of f is real (multiplicities collapse first)."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    chain = SturmChain(f)
    return chain.count(None, None) == chain.squarefree.degree()


def cauchy_bound(f: Poly) -> Fraction:
    """1 + max|a_i| / |a_n|: every root has absolute value below this."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    lead = abs(f.leading)
    m = max((abs(c) for c in f.coeffs[:-1]), default=Fraction(0))
    return 1 + m / lead


def isolate_extreme_roots(
    f: Poly, tol: Scalar
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Rational brackets of width <= tol around the smallest and largest
    real roots m, M of f: returns (m_lo, m_hi, M_lo, M_hi) with
    m_lo < m <= m_hi and M_lo < M <= M_hi.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tol must be positive")
    chain = SturmChain(f)
    bound = cauchy_bound(f)
    if chain.count(-bound, bound) == 0:
        raise ValueError("polynomial has no real roots")
    s = chain.squarefree

    def bisect(lo: Fraction, hi: Fraction, leftmost: bool) -> tuple[Fraction, Fraction]:
        # invariant: the target root lies in (lo, hi]
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if s(mid) == 0:
                # mid is a root; collapse if it is the target of this search
                inner = chain.count(lo, mid) if leftmost else chain.count(mid, hi)
                if (leftmost and inner == 1) or (not leftmost and inner == 0):
                    return max(lo, mid - tol), mid
            took = chain.count(lo, mid) >= 1 if leftmost else chain.count(mid, hi) >= 1
            if leftmost:
                lo, hi = (lo, mid) if took else (mid, hi)
            else:
                lo, hi = (mid, hi) if took else (lo, mid)
        return lo, hi

    m_lo, m_hi = bisect(-bound, bound, leftmost=True)
    M_lo, M_hi = bisect(-bound, bound, leftmost=False)
    return m_lo, m_hi, M_lo, M_hi


# -- stability verdicts -----------------------------------------------

def is_weakly_hurwitz(f: Poly) -> StabilityCertificate:
    """Exact weak Hurwitz stability certificate for a real polynomial.

    Verdict is true iff f has no zero with Re > 0: all zeros of the rotated
    polynomial must sit in the closed upper half-plane, i.e. the gcd of the
    rotated parts must be fully real-rooted and the quotient's open-upper
    count must exhaust its degree.
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
    p, g, chain_length, v_plus, v_minus = _halfplane_data(
        *_rotated_parts(clear_denominators(f))
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


def coeff_sign_precheck(f: Poly) -> str:
    """Necessary-condition filter: a weakly stable polynomial has, after
    normalizing the leading coefficient positive, no negative coefficient.
    Never a final verdict on its own.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    coeffs = f.coeffs if f.leading > 0 else tuple(-c for c in f.coeffs)
    if any(c < 0 for c in coeffs):
        return CERTAINLY_UNSTABLE
    return POSSIBLY_STABLE


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
    """Exact strict-interlacing check for real-rooted f, g with
    deg(f) = deg(g) + 1.

    With ``shared_root=r`` both polynomials must vanish at r; the check then
    applies to f/(x-r) and g/(x-r).  By the Hermite-Biehler theorem, f and g
    have simple, strictly interlacing zeros (f, g, f, ..., f on the real
    line) iff f + i*g has every zero in one open half-plane.  The half-plane
    counter decides that: gcd(f, g) must be constant, since a common zero
    is a real zero of f + i*g, and the open-upper count must be 0 or
    deg(f).  Multiple roots or common roots fail the strict check.
    """
    if shared_root is not None:
        r = Fraction(shared_root)
        if f(r) != 0 or g(r) != 0:
            return False
        linear = Poly([-r, 1])
        f = f.exact_div(linear)
        g = g.exact_div(linear)
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.degree() != g.degree() + 1:
        raise ValueError("need deg(f) = deg(g) + 1")
    if not all_roots_real(f) or not all_roots_real(g):
        raise ValueError("inputs must be real-rooted")
    p, common = upper_halfplane_count(SplitPoly(f, g))
    return common.degree() == 0 and p in (0, f.degree())


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
