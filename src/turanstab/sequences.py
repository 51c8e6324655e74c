"""Generators for the polynomial families.

There are four generators, one per recurrence shape, and each named
family is an instance of one of them:

* type A:  P_{k+1} = a*(x+b)*(D + c_k) P_k   with a != 0, b >= 0 and a
  positive non-decreasing coefficient list c.  Bell is a = 1, b = 0 and
  every c_k = 1.
* type H:  P_{k+1} = c*(-a*x + b + D) P_k    with a > 0, c != 0.
  Hermite is (a, b, c) = (2, 0, -1).
* Jensen:  g_n = sum_k C(n,k) gamma_k x^k for a gamma list.  Laguerre is
  gamma_j = (-1)^j / j!.
* three-term:  P_0 = 1, P_1 = p1, P_{k+1} = alpha(k)*x*P_k - beta(k)*P_{k-1}.
  Chebyshev T is (p1, alpha, beta) = (x, 2, 1), Chebyshev U (2x, 2, 1),
  Legendre (x, (2k+1)/(k+1), k/(k+1)) and Bessel (1 + x, 2k+1, -1).

The downward "polar" maps (x*D - k) P_k = P_{k-1} and its scaled variant
(k - x*D) P_k = k * P_{k-1} are verification targets, not generators,
since they annihilate the top-degree term; ``verify_relation`` checks them.

One table maps each family name to its generator, its parameters and
the hypotheses above; ``spec`` checks a family's parameters against it
and ``generate`` runs the generator.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .polycore import Poly

POLAR_UNIT = "polar_unit"      # (x*D - k) P_k = P_{k-1}
POLAR_SCALED = "polar_scaled"  # (k - x*D) P_k = k * P_{k-1}


# -- named family generators ------------------------------------------

def _three_term(p1: Poly, alpha, beta, k_max: int) -> list[Poly]:
    """P_0 = 1, P_1 = p1, P_{k+1} = alpha(k)*x*P_k - beta(k)*P_{k-1}."""
    seq = [Poly.one(), p1][: k_max + 1]
    for k in range(1, k_max):
        seq.append(seq[-1].shift_x(1).scale(alpha(k)) - seq[-2].scale(beta(k)))
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
    """Jensen polynomials g_n = sum_k C(n,k) gamma_k x^k for a gamma list."""
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) < k_max + 1:
        raise ValueError(
            f"jensen needs {k_max + 1} gamma values (gamma0..gamma{k_max}); "
            f"got {len(gamma)}"
        )
    return [Poly(math.comb(n, k) * gamma[k] for k in range(n + 1))
            for n in range(k_max + 1)]


def type_a(a, b, c, k_max: int) -> list[Poly]:
    """Type-A sequence P_{k+1} = a*(x+b)*(P_k' + c_k*P_k) from the seed
    P_0 = 1; needs c_0..c_{k_max-1}."""
    a, b = Fraction(a), Fraction(b)
    c = [Fraction(v) for v in c]
    if a == 0:
        raise ValueError("type A requires a != 0")
    if len(c) < k_max:
        raise ValueError(
            f"type_a needs {k_max} c values (c0..c{k_max - 1}), one per step; "
            f"got {len(c)}"
        )
    x_plus_b = Poly([b, 1])
    seq = [Poly.one()]
    for k in range(k_max):
        p = seq[-1]
        seq.append((x_plus_b * (p.derivative() + p.scale(c[k]))).scale(a))
    return seq


def type_h(a, b, c, k_max: int) -> list[Poly]:
    """Type-H sequence P_{k+1} = c*(-a*x*P_k + b*P_k + P_k') from the seed
    P_0 = 1."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ValueError("type H requires a > 0")
    if c == 0:
        raise ValueError("type H requires c != 0")
    b_minus_ax = Poly([b, -a])
    seq = [Poly.one()]
    for _ in range(k_max):
        p = seq[-1]
        seq.append((b_minus_ax * p + p.derivative()).scale(c))
    return seq


# -- the family table -------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """How one family reads its parameters.

    ``params`` names them in order; a trailing ``...`` makes the last named
    value the first of a list of one or more, which ``make`` receives as
    one tuple.  ``rules`` are the theorem hypotheses as (text, test) pairs;
    a test takes the arguments of ``make`` without ``k_max``.
    """

    params: str
    make: Callable[..., list[Poly]]
    rules: tuple = ()


_TABLE = {
    **{
        f.__name__: _Family("", f)
        for f in (bell, hermite, chebyshev_t, chebyshev_u, laguerre, legendre, bessel)
    },
    "jensen": _Family("gamma0,...", jensen),
    "type_a": _Family("a,b,c0,...", type_a, (
        ("a != 0", lambda a, b, c: a != 0),
        ("b >= 0", lambda a, b, c: b >= 0),
        ("c0 > 0", lambda a, b, c: c[0] > 0),
        ("a non-decreasing c list",
         lambda a, b, c: all(x <= y for x, y in zip(c, c[1:]))),
    )),
    "type_h": _Family("a,b,c", type_h, (
        ("a > 0", lambda a, b, c: a > 0),
        ("c != 0", lambda a, b, c: c != 0),
    )),
}

FAMILIES = tuple(_TABLE)


def _arguments(family: str, params: tuple) -> tuple:
    """The generator arguments for ``params``, once the table's checks pass."""
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
    for text, test in fam.rules:
        if not test(*args):
            raise ValueError(f"{family} requires {text}")
    return args


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
        _arguments(self.family, self.params)


def spec(family: str, params=()) -> SequenceSpec:
    """A checked SequenceSpec, each parameter coerced with ``Fraction``
    (so the text ``"1/2"`` is accepted too)."""
    return SequenceSpec(family, tuple(Fraction(v) for v in params))


def generate(s: SequenceSpec, k_max: int) -> list[Poly]:
    """P_0 .. P_{k_max} for the described family; exact throughout."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return _TABLE[s.family].make(*_arguments(s.family, s.params), k_max)


def verify_relation(seq: list[Poly], relation: str) -> bool:
    """Exact check of a downward polar relation over a whole sequence.

    ``polar_unit`` checks (x*D - k) P_k = P_{k-1}; ``polar_scaled`` checks
    (k - x*D) P_k = k * P_{k-1}.  Member degrees are not checked, so a
    Jensen sequence whose degree drops where a gamma vanishes is checked
    like any other.
    """
    if relation not in (POLAR_UNIT, POLAR_SCALED):
        raise ValueError(f"unknown relation {relation!r}")
    # (k - x*D) P_k = k * P_{k-1} is (x*D - k) P_k = -k * P_{k-1}
    return all(
        p.derivative().shift_x(1) - p.scale(k)
        == (prev if relation == POLAR_UNIT else prev.scale(-k))
        for k, (prev, p) in enumerate(zip(seq, seq[1:]), 1)
    )
