"""Generators for the polynomial families.

Each named family is an instance of one of three shapes:

* first order:  P_0 = 1, P_{k+1} = m*(P_k' + l_k*P_k), in two forms:
  - type A:  m = a*(x+b), l_k = c_k, with a != 0, b >= 0 and a positive
    non-decreasing list c.  Bell is a = 1, b = 0 and every c_k = 1.
  - type H:  m = c, l_k = b - a*x, with a > 0, c != 0.  Hermite is
    (a, b, c) = (2, 0, -1).
* Jensen:  g_n = sum_k C(n,k) gamma_k x^k for a gamma list.  Laguerre is
  gamma_j = (-1)^j / j!.
* three-term:  P_0 = 1, P_1 = p1, P_{k+1} = alpha(k)*x*P_k - beta(k)*P_{k-1}.
  Chebyshev T is (p1, alpha, beta) = (x, 2, 1), Chebyshev U (2x, 2, 1),
  Legendre (x, (2k+1)/(k+1), k/(k+1)) and Bessel (1 + x, 2k+1, -1).

The downward "polar" maps (x*D - k) P_k = P_{k-1} and its scaled variant
(k - x*D) P_k = k * P_{k-1} are verification targets, not generators,
since they annihilate the top-degree term; ``verify_relation`` checks them.

The first-order and three-term generators build each member as one
integer list over one denominator and normalise it once
(``Poly.from_ints``), so a step takes one gcd instead of one per
intermediate polynomial.

One table maps each family name to its generator and its parameters;
``spec`` checks a family's parameter count against it and builds P_0,
so the generator checks the hypotheses above, and ``generate`` runs the
generator.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .polycore import Poly, int_mul

POLAR_UNIT = "polar_unit"      # (x*D - k) P_k = P_{k-1}
POLAR_SCALED = "polar_scaled"  # (k - x*D) P_k = k * P_{k-1}


# -- named family generators ------------------------------------------

def _three_term(p1: Poly, alpha, beta, k_max: int) -> list[Poly]:
    """P_0 = 1, P_1 = p1, P_{k+1} = alpha(k)*x*P_k - beta(k)*P_{k-1}; alpha
    and beta give ints or Fractions."""
    seq = [Poly.one(), p1][: k_max + 1]
    for k in range(1, k_max):
        p, q, a, b = seq[-1], seq[-2], alpha(k), beta(k)
        # a x P_k - b P_{k-1} over the lcm of their denominators
        dp, dq = p.den * a.denominator, q.den * b.denominator
        den = math.lcm(dp, dq)
        ap, bq = a.numerator * (den // dp), b.numerator * (den // dq)
        num = [0, *(ap * c for c in p.num)]
        num.extend([0] * (len(q.num) - len(num)))
        for i, c in enumerate(q.num):
            num[i] -= bq * c
        seq.append(Poly.from_ints(num, den))
    return seq


def bell(k_max: int) -> list[Poly]:
    """Univariate Bell (Touchard) polynomials: B_{k+1} = x*(B_k + B_k')."""
    return type_a(1, 0, [1] * k_max, k_max)


def hermite(k_max: int) -> list[Poly]:
    """Physicists' Hermite polynomials via H_k = (2x - D) H_{k-1}."""
    return type_h(2, 0, -1, k_max)


def chebyshev_t(k_max: int) -> list[Poly]:
    """Chebyshev polynomials of the first kind, T_{k+1} = 2x*T_k - T_{k-1}."""
    return _three_term(Poly.x(), lambda k: 2, lambda k: 1, k_max)


def chebyshev_u(k_max: int) -> list[Poly]:
    """Chebyshev polynomials of the second kind, U_{k+1} = 2x*U_k - U_{k-1}."""
    return _three_term(Poly([0, 2]), lambda k: 2, lambda k: 1, k_max)


def laguerre(k_max: int) -> list[Poly]:
    """Laguerre polynomials L_k = sum C(k,j)(-x)^j / j!: Jensen polynomials
    of gamma_j = (-1)^j / j!."""
    return jensen(
        [Fraction((-1) ** j, math.factorial(j)) for j in range(k_max + 1)], k_max
    )


def legendre(k_max: int) -> list[Poly]:
    """Legendre polynomials, (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    return _three_term(Poly.x(), lambda k: Fraction(2 * k + 1, k + 1),
                       lambda k: Fraction(k, k + 1), k_max)


def bessel(k_max: int) -> list[Poly]:
    """Bessel polynomials, Y_{k+1} = (2k+1) x Y_k + Y_{k-1} from Y_1 = 1 + x."""
    return _three_term(Poly([1, 1]), lambda k: 2 * k + 1, lambda k: -1, k_max)


def jensen(gamma, k_max: int) -> list[Poly]:
    """Jensen polynomials g_n = sum_k C(n,k) gamma_k x^k for a gamma list.

    Member n is built from the integer numerators C(n,k) * gamma_k * den_n
    over den_n, the lcm of the denominators of gamma_0..gamma_n only (n!
    for Laguerre, not k_max!).
    """
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) < k_max + 1:
        raise ValueError(
            f"jensen needs {k_max + 1} gamma values (gamma0..gamma{k_max}); "
            f"got {len(gamma)}"
        )
    seq, den, nums = [], 1, []  # nums: gamma_0..gamma_n times den
    for n, g in enumerate(gamma[: k_max + 1]):
        step = math.lcm(den, g.denominator) // den
        if step != 1:
            den *= step
            nums = [c * step for c in nums]
        nums.append(g.numerator * (den // g.denominator))
        seq.append(Poly.from_ints([math.comb(n, k) * c for k, c in enumerate(nums)], den))
    return seq


def _first_order(m: Poly, ells: list[Poly], k_max: int) -> list[Poly]:
    """P_0 = 1, P_{k+1} = m*(P_k' + ells[k]*P_k) for non-zero ells."""
    seq = [Poly.one()]
    for ell in ells[:k_max]:
        p = seq[-1]
        # P_k' + ell P_k over p.den * ell.den
        inner = int_mul(ell.num, p.num)
        for i, c in enumerate(p.num[1:]):
            inner[i] += (i + 1) * ell.den * c
        seq.append(Poly.from_ints(int_mul(m.num, inner), p.den * ell.den * m.den))
    return seq


def type_a(a, b, c, k_max: int) -> list[Poly]:
    """Type-A sequence P_{k+1} = a*(x+b)*(P_k' + c_k*P_k) from the seed
    P_0 = 1; needs c_0..c_{k_max-1}."""
    a, b = Fraction(a), Fraction(b)
    c = [Fraction(v) for v in c]
    if a == 0:
        raise ValueError("type_a requires a != 0")
    if b < 0:
        raise ValueError("type_a requires b >= 0")
    if c and c[0] <= 0:
        raise ValueError("type_a requires c0 > 0")
    if any(x > y for x, y in zip(c, c[1:])):
        raise ValueError("type_a requires a non-decreasing c list")
    if len(c) < k_max:
        raise ValueError(
            f"type_a needs {k_max} c values (c0..c{k_max - 1}), one per step; "
            f"got {len(c)}"
        )
    return _first_order(Poly([a * b, a]), [Poly([v]) for v in c[:k_max]], k_max)


def type_h(a, b, c, k_max: int) -> list[Poly]:
    """Type-H sequence P_{k+1} = c*(P_k' + (b - a*x)*P_k) from the seed
    P_0 = 1."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ValueError("type_h requires a > 0")
    if c == 0:
        raise ValueError("type_h requires c != 0")
    return _first_order(Poly([c]), [Poly([b, -a])] * k_max, k_max)


# -- the family table -------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """How one family reads its parameters.

    ``params`` names them in order; a trailing ``...`` makes the last named
    value the first of a list of one or more, which ``make`` receives as
    one tuple.  ``make`` checks the family's hypotheses.
    """

    params: str
    make: Callable[..., list[Poly]]


_TABLE = {
    **{
        f.__name__: _Family("", f)
        for f in (bell, hermite, chebyshev_t, chebyshev_u, laguerre, legendre, bessel)
    },
    "jensen": _Family("gamma0,...", jensen),
    "type_a": _Family("a,b,c0,...", type_a),
    "type_h": _Family("a,b,c", type_h),
}

# each family name and the parameters ``--params`` takes for it
FAMILIES = {name: fam.params for name, fam in _TABLE.items()}


def _build(family: str, params: tuple, k_max: int) -> list[Poly]:
    """P_0 .. P_{k_max} of ``family`` at ``params``, once the family is
    known and the number of parameters fits."""
    if family not in _TABLE:
        raise ValueError(f"unknown family {family!r}")
    fam = _TABLE[family]
    names = fam.params.split(",") if fam.params else []
    if names[-1:] == ["..."]:
        fixed = len(names) - 2
        count_ok = len(params) > fixed
        args = (*params[:fixed], tuple(params[fixed:]))
    else:
        count_ok = len(params) == len(names)
        args = tuple(params)
    if not count_ok:
        wanted = f"parameters {fam.params}" if fam.params else "no parameters"
        raise ValueError(f"{family} takes {wanted}; got {len(params)}")
    return fam.make(*args, k_max)


@dataclass(frozen=True)
class SequenceSpec:
    """A family name and its parameters, checked against the family table.

    ``params`` come in the order ``turanstab gen --params`` takes them:
    type_a ``a,b,c0,...``, type_h ``a,b,c``, jensen ``gamma0,...``; the
    named classical families take none.  Construction raises ValueError
    for an unknown family, a wrong number of parameters or a broken
    hypothesis, so no invalid spec reaches a generator.
    """

    family: str
    params: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        # building P_0 alone runs the generator's hypothesis checks
        _build(self.family, self.params, 0)


def spec(family: str, params=()) -> SequenceSpec:
    """A checked SequenceSpec, each parameter coerced with ``Fraction``
    (so the text ``"1/2"`` is accepted too)."""
    return SequenceSpec(family, tuple(Fraction(v) for v in params))


def generate(s: SequenceSpec, k_max: int) -> list[Poly]:
    """P_0 .. P_{k_max} for the described family; exact throughout."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _build(s.family, s.params, k_max)


def verify_relation(seq: list[Poly], relation: str) -> bool:
    """Exact check of a downward polar relation over a whole sequence.

    ``polar_unit`` checks (x*D - k) P_k = P_{k-1}; ``polar_scaled`` checks
    (k - x*D) P_k = k * P_{k-1}.  Member degrees are not checked, so a
    Jensen sequence whose degree drops where a gamma vanishes is checked
    like any other.

    Both are (x*D - k) P_k = m * P_{k-1}, m = 1 or -k, compared on the
    numerators over den(P_k) * den(P_{k-1}): coefficient j of the left
    side is (j - k) * P_k[j] * den(P_{k-1}), of the right side
    m * P_{k-1}[j] * den(P_k).
    """
    if relation not in (POLAR_UNIT, POLAR_SCALED):
        raise ValueError(f"unknown relation {relation!r}")
    for k, (prev, p) in enumerate(zip(seq, seq[1:]), 1):
        m = 1 if relation == POLAR_UNIT else -k
        lhs = [(j - k) * c * prev.den for j, c in enumerate(p.num)]
        while lhs and not lhs[-1]:  # x^k drops out
            lhs.pop()
        if lhs != [m * p.den * c for c in prev.num]:
            return False
    return True
