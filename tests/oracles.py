"""Reference implementations the tests compare the library against.

They stay out of ``turanstab`` because no code of the package, its demos
or its benchmark calls them.
"""

import random
from fractions import Fraction

from turanstab import polycore, stability
from turanstab.harness import DEFAULT_SEED
from turanstab.polycore import Poly, int_primitive, int_pseudo_rem
from turanstab.stability import INCONCLUSIVE, STABLE, is_weakly_hurwitz


def is_squarefree(p: Poly) -> bool:
    return polycore.gcd(p, p.derivative()).degree() == 0


def squarefree_part(p: Poly) -> Poly:
    """Monic p / gcd(p, p'): same distinct roots, all simple."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no squarefree part")
    return p.exact_div(polycore.gcd(p, p.derivative())).monic()


# -- the type A and type H recurrences, each written out ----------------

def type_a_recurrence(a, b, c, k_max: int) -> list[Poly]:
    """P_0 = 1, P_{k+1} = a*(x+b)*(P_k' + c_k*P_k), step by step."""
    x_plus_b = Poly([b, 1])
    seq = [Poly([1])]
    for k in range(k_max):
        p = seq[-1]
        seq.append((x_plus_b * (p.derivative() + p.scale(c[k]))).scale(a))
    return seq


def type_h_recurrence(a, b, c, k_max: int) -> list[Poly]:
    """P_0 = 1, P_{k+1} = c*((b - a*x)*P_k + P_k'), step by step."""
    b_minus_ax = Poly([b, -a])
    seq = [Poly([1])]
    for _ in range(k_max):
        p = seq[-1]
        seq.append((b_minus_ax * p + p.derivative()).scale(c))
    return seq


# -- Sturm chains as polynomials ---------------------------------------

def euclid_chain(f0: Poly, f1: Poly, strip_content: bool = True) -> list[Poly]:
    """Generalized Sturm chain f_{k+1} = -rem(f_{k-1}, f_k) of f0, f1 with
    deg(f1) < deg(f0).  Each element is a positive multiple of the exact
    one; without ``strip_content`` it is the raw pseudo-remainder."""
    chain = [f0.num, f1.num] if f1 else [f0.num]
    while len(chain) >= 2:
        r, positive = int_pseudo_rem(chain[-2], chain[-1])
        if not r:
            break
        nxt = [-c for c in r] if positive else r
        chain.append(int_primitive(nxt) if strip_content else nxt)
    return [Poly(c) for c in chain]


def sign_variations_at_infinity(chain: list[Poly], direction: str) -> int:
    """Sign changes along the chain at "+inf" or "-inf", read off the
    leading coefficients."""
    signs = []
    for p in chain:
        if p:
            odd_at_minus = direction == "-inf" and p.degree() % 2 == 1
            signs.append((p.leading > 0) != odd_at_minus)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def routh_table(h: list[int]) -> list[list[Fraction]]:
    """The classical Routh table of h (ascending integers, deg h >= 1,
    h[-1] > 0) in Fractions: rows h[d], h[d-2], ... and h[d-1], h[d-3], ...,
    then r_{k+1}[j] = r_{k-1}[j+1] - (r_{k-1}[0] / r_k[0]) r_k[j+1] with an
    absent entry read as 0.  It is built while the first-column entries
    stay positive: it ends after deg h + 1 rows, or at the first row whose
    first entry is <= 0."""
    rows = [[Fraction(c) for c in h[::-2]], [Fraction(c) for c in h[-2::-2]]]
    while len(rows) < len(h) and rows[-1][0] > 0:
        prev, row = rows[-2], rows[-1]
        mu = prev[0] / row[0]
        padded = row[1:] + [Fraction(0)] * (len(prev) - len(row))
        rows.append([b - mu * f for b, f in zip(prev[1:], padded)])
    return rows


# -- the PRS kernels without their fast paths --------------------------

def int_pseudo_rem_reference(f, g) -> tuple[list[int], bool]:
    """``polycore.int_pseudo_rem`` with each step built from two slices:
    the low d entries times lg, then lg r - lf g over the rest."""
    if not g:
        raise ZeroDivisionError("pseudo-division by zero")
    r = list(f)
    lg = g[-1]
    steps = 0
    while len(r) >= len(g):
        d = len(r) - len(g)
        lf = r.pop()
        r = [lg * c for c in r[:d]] + [lg * c - lf * e for c, e in zip(r[d:], g)]
        while r and r[-1] == 0:
            r.pop()
        steps += 1
    return r, lg > 0 or steps % 2 == 0


def sturm_chain_reference(f: Poly) -> list[list[int]]:
    """The chain of ``stability._real_zero_count`` dividing f by
    gcd(f, f') whatever the gcd, chained with ``int_pseudo_rem_reference``."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no Sturm chain")
    s = f.exact_div(polycore.gcd(f, f.derivative()))
    ds = s.derivative()
    chain = [list(s.num), list(ds.num)] if ds else [list(s.num)]
    while len(chain) >= 2:
        r, positive = int_pseudo_rem_reference(chain[-2], chain[-1])
        if not r:
            break
        chain.append(int_primitive([-c for c in r] if positive else r))
    return chain


# -- real roots on an interval ------------------------------------------

class RealRootCounter:
    """Sturm's theorem on the chain of the squarefree part of f: distinct
    real roots in a half-open interval, from each element evaluated in
    Fraction arithmetic."""

    def __init__(self, f: Poly):
        self.squarefree = squarefree_part(f)
        self.chain = euclid_chain(self.squarefree, self.squarefree.derivative())

    def variations_at(self, x) -> int:
        run = [v > 0 for v in (p(x) for p in self.chain) if v]
        return sum(1 for a, b in zip(run, run[1:]) if a != b)

    def count(self, lo, hi) -> int:
        """Distinct real roots in (lo, hi]; None stands for -inf or +inf."""
        v_lo = (sign_variations_at_infinity(self.chain, "-inf") if lo is None
                else self.variations_at(lo))
        v_hi = (sign_variations_at_infinity(self.chain, "+inf") if hi is None
                else self.variations_at(hi))
        return v_lo - v_hi


def root_bound(f: Poly) -> Fraction:
    """Fujiwara's bound rounded up to a power of two: the least B = 2^e,
    e >= 0, with |a_(n-j) / a_n| <= (B/2)^j for j = 1..n.  Every root has
    absolute value below it."""
    n = f.degree()
    ratios = [abs(f.coeffs[n - j] / f.leading) for j in range(1, n + 1)]
    bound = Fraction(1)
    while any(r > (bound / 2) ** j for j, r in enumerate(ratios, 1)):
        bound *= 2
    return bound


# -- root isolation -----------------------------------------------------

def isolate_extreme_roots(f: Poly, tol) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """``stability.isolate_extreme_roots`` the way it bisected before it
    kept the variation counts of its bracket ends: each step counts the
    roots on one side of the midpoint from two chain evaluations and asks
    f itself whether the midpoint is a root.  Both start from the root
    bound of the squarefree part."""
    tol = Fraction(tol)
    chain = RealRootCounter(f)
    bound = root_bound(chain.squarefree)
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


# -- the exact verdict against the numeric oracle ----------------------

def random_squarefree_poly(
    rng: random.Random, max_degree: int = 8, coeff_bound: int = 9
) -> Poly:
    """Random squarefree integer polynomial of degree 1..max_degree."""
    while True:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-coeff_bound, coeff_bound)
        poly = Poly(coeffs + [lead])
        if is_squarefree(poly):
            return poly


def oracle_agreement(
    samples: int = 1000, seed: int = DEFAULT_SEED, max_degree: int = 8
) -> tuple[int, int, list[Poly]]:
    """Compare the exact verdict with the numeric oracle on random
    squarefree polynomials whose roots stay clear of the imaginary axis.

    Returns (agreements, total, mismatches); a correct implementation has
    agreements == total and no mismatches.
    """
    rng = random.Random(seed)
    agreements = 0
    total = 0
    mismatches: list[Poly] = []
    while total < samples:
        poly = random_squarefree_poly(rng, max_degree=max_degree)
        verdict = stability.cross_check_oracle(poly)
        if verdict == INCONCLUSIVE:
            continue
        total += 1
        exact = is_weakly_hurwitz(poly).verdict
        if exact == (verdict == STABLE):
            agreements += 1
        else:
            mismatches.append(poly)
    return agreements, total, mismatches
