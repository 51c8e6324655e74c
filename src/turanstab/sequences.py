"""Generators for the polynomial families and their recurrence operators.

Families come in two flavours: named classical families (Bell, Hermite,
Chebyshev, Laguerre, Legendre, Bessel, Jensen) and abstract first-order
differential recurrences:

* type A:  P_{k+1} = a*(x+b)*(D + c_k) P_k   with a != 0, b >= 0 and a
  positive non-decreasing coefficient list c;
* type H:  P_{k+1} = c*(-a*x + b + D) P_k    with a > 0, c != 0
  (Hermite is the instance (a, b, c) = (2, 0, -1));
* the downward "polar" maps (x*D - k) P_k = P_{k-1} and its scaled
  variant (k - x*D) P_k = k * P_{k-1}, which are verification targets,
  not generators, since they annihilate the top-degree term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .polycore import Poly, Scalar

FAMILIES = (
    "bell",
    "hermite",
    "chebyshev_t",
    "chebyshev_u",
    "laguerre",
    "legendre",
    "bessel",
    "jensen",
    "type_a",
    "type_h",
)

POLAR_UNIT = "polar_unit"      # (x*D - k) P_k = P_{k-1}
POLAR_SCALED = "polar_scaled"  # (k - x*D) P_k = k * P_{k-1}


@dataclass(frozen=True)
class SequenceSpec:
    """Declarative description of a polynomial family.

    Only the parameters relevant to ``family`` are consulted: ``gamma``
    for jensen, ``(a, b, c)`` for type_a, ``(a, b, cscale)`` for type_h.
    The named classical families take no parameters.
    """

    family: str
    gamma: tuple[Fraction, ...] | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    c: tuple[Fraction, ...] | None = None
    cscale: Fraction | None = None

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "jensen":
            if self.gamma is None:
                raise ValueError("jensen requires a gamma list")
        elif self.family == "type_a":
            if self.a is None or self.b is None or self.c is None:
                raise ValueError("type_a requires a, b and the c list")
            if self.a == 0:
                raise ValueError("type_a requires a != 0")
            if self.b < 0:
                raise ValueError("type_a requires b >= 0")
            if not self.c or self.c[0] <= 0:
                raise ValueError("type_a requires c_0 > 0")
            for prev, nxt in zip(self.c, self.c[1:]):
                if nxt < prev:
                    raise ValueError("type_a requires a non-decreasing c list")
        elif self.family == "type_h":
            if self.a is None or self.cscale is None:
                raise ValueError("type_h requires a and cscale")
            if self.a <= 0:
                raise ValueError("type_h requires a > 0")
            if self.cscale == 0:
                raise ValueError("type_h requires cscale != 0")


def spec(family: str, **kwargs) -> SequenceSpec:
    """Build and validate a SequenceSpec; rational-valued fields are coerced."""
    conv = dict(kwargs)
    for key in ("a", "b", "cscale"):
        if key in conv and conv[key] is not None:
            conv[key] = Fraction(conv[key])
    for key in ("gamma", "c"):
        if key in conv and conv[key] is not None:
            conv[key] = tuple(Fraction(v) for v in conv[key])
    s = SequenceSpec(family, **conv)
    s.validate()
    return s


# -- recurrence operators ---------------------------------------------

def apply_type_a(p: Poly, a: Scalar, b: Scalar, c: Scalar) -> Poly:
    """One step of the type-A recurrence: a*(x+b)*(p' + c*p)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a == 0:
        raise ValueError("type A requires a != 0")
    return (Poly([b, 1]) * (p.derivative() + p.scale(c))).scale(a)


def apply_type_h(p: Poly, a: Scalar, b: Scalar, c: Scalar) -> Poly:
    """One step of the type-H recurrence: c*(-a*x*p + b*p + p')."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a <= 0:
        raise ValueError("type H requires a > 0")
    if c == 0:
        raise ValueError("type H requires c != 0")
    return (Poly([b, -a]) * p + p.derivative()).scale(c)


def apply_polar_down(p: Poly, k: int) -> Poly:
    """The downward polar map x*p' - k*p; kills the x^k term of a degree-k p."""
    if k < 1:
        raise ValueError("polar map needs k >= 1")
    if p.is_zero or p.degree() != k:
        raise ValueError(f"polar map at k={k} needs a polynomial of degree {k}")
    return p.derivative().shift_x(1) - p.scale(k)


# -- named family generators ------------------------------------------

def bell(k_max: int) -> list[Poly]:
    """Univariate Bell (Touchard) polynomials: B_{k+1} = x*(B_k + B_k')."""
    seq = [Poly.one()]
    for _ in range(k_max):
        b = seq[-1]
        seq.append((b + b.derivative()).shift_x(1))
    return seq


def hermite(k_max: int) -> list[Poly]:
    """Physicists' Hermite polynomials via H_k = (2x - D) H_{k-1}."""
    seq = [Poly.one()]
    for _ in range(k_max):
        h = seq[-1]
        seq.append(Poly([0, 2]) * h - h.derivative())
    return seq


def chebyshev_t(k_max: int) -> list[Poly]:
    """Chebyshev polynomials of the first kind, T_{k+1} = 2x*T_k - T_{k-1}."""
    seq = [Poly.one()]
    if k_max >= 1:
        seq.append(Poly.x())
    for _ in range(k_max - 1):
        seq.append(Poly([0, 2]) * seq[-1] - seq[-2])
    return seq


def chebyshev_u(k_max: int) -> list[Poly]:
    """Chebyshev polynomials of the second kind, U_{k+1} = 2x*U_k - U_{k-1}."""
    seq = [Poly.one()]
    if k_max >= 1:
        seq.append(Poly([0, 2]))
    for _ in range(k_max - 1):
        seq.append(Poly([0, 2]) * seq[-1] - seq[-2])
    return seq


def laguerre(k_max: int) -> list[Poly]:
    """Laguerre polynomials from the closed form L_k = sum C(k,j)(-x)^j / j!."""
    seq = []
    for k in range(k_max + 1):
        coeffs = [
            Fraction((-1) ** j * math.comb(k, j), math.factorial(j))
            for j in range(k + 1)
        ]
        seq.append(Poly(coeffs))
    return seq


def legendre(k_max: int) -> list[Poly]:
    """Legendre polynomials, (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}."""
    seq = [Poly.one()]
    if k_max >= 1:
        seq.append(Poly.x())
    for k in range(1, k_max):
        nxt = (Poly([0, 2 * k + 1]) * seq[-1] - seq[-2].scale(k)).scale(
            Fraction(1, k + 1)
        )
        seq.append(nxt)
    return seq


def bessel(k_max: int) -> list[Poly]:
    """Bessel polynomials Y_k = sum_j (k+j)! / (2^j j! (k-j)!) x^j."""
    seq = []
    for k in range(k_max + 1):
        coeffs = [
            Fraction(
                math.factorial(k + j),
                (1 << j) * math.factorial(j) * math.factorial(k - j),
            )
            for j in range(k + 1)
        ]
        seq.append(Poly(coeffs))
    return seq


def jensen(gamma, k_max: int) -> list[Poly]:
    """Jensen polynomials g_n = sum_k C(n,k) gamma_k x^k for a gamma list."""
    gamma = [Fraction(g) for g in gamma]
    if len(gamma) < k_max + 1:
        raise ValueError(
            f"jensen needs {k_max + 1} gamma values (gamma0..gamma{k_max}); "
            f"got {len(gamma)}"
        )
    seq = []
    for n in range(k_max + 1):
        seq.append(Poly(math.comb(n, k) * gamma[k] for k in range(n + 1)))
    return seq


def type_a(a, b, c, k_max: int) -> list[Poly]:
    """Type-A sequence from the seed P_0 = 1; needs c_0..c_{k_max-1}."""
    c = [Fraction(v) for v in c]
    if len(c) < k_max:
        raise ValueError(
            f"type_a needs {k_max} c values (c0..c{k_max - 1}), one per step; "
            f"got {len(c)}"
        )
    seq = [Poly.one()]
    for k in range(k_max):
        seq.append(apply_type_a(seq[-1], a, b, c[k]))
    return seq


def type_h(a, b, cscale, k_max: int) -> list[Poly]:
    """Type-H sequence from the seed P_0 = 1."""
    seq = [Poly.one()]
    for _ in range(k_max):
        seq.append(apply_type_h(seq[-1], a, b, cscale))
    return seq


def generate(s: SequenceSpec, k_max: int) -> list[Poly]:
    """P_0 .. P_{k_max} for the described family; exact throughout."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    s.validate()
    if s.family == "bell":
        return bell(k_max)
    if s.family == "hermite":
        return hermite(k_max)
    if s.family == "chebyshev_t":
        return chebyshev_t(k_max)
    if s.family == "chebyshev_u":
        return chebyshev_u(k_max)
    if s.family == "laguerre":
        return laguerre(k_max)
    if s.family == "legendre":
        return legendre(k_max)
    if s.family == "bessel":
        return bessel(k_max)
    if s.family == "jensen":
        return jensen(s.gamma, k_max)
    if s.family == "type_a":
        return type_a(s.a, s.b, s.c, k_max)
    if s.family == "type_h":
        return type_h(s.a, s.b, s.cscale, k_max)
    raise ValueError(f"unknown family {s.family!r}")


def verify_relation(seq: list[Poly], relation: str) -> bool:
    """Exact check of a downward polar relation over a whole sequence.

    ``polar_unit`` checks (x*D - k) P_k = P_{k-1}; ``polar_scaled`` checks
    (k - x*D) P_k = k * P_{k-1}.  Members must have degree exactly k, except
    that degree drops are tolerated for Jensen-style sequences only when a
    leading gamma vanishes, in which case the relation is still well defined.
    """
    if relation not in (POLAR_UNIT, POLAR_SCALED):
        raise ValueError(f"unknown relation {relation!r}")
    for k in range(1, len(seq)):
        p, prev = seq[k], seq[k - 1]
        lhs = p.derivative().shift_x(1) - p.scale(k)
        if relation == POLAR_UNIT:
            if lhs != prev:
                return False
        else:
            # (k - x*D) P_k = -(x*D - k) P_k
            if -lhs != prev.scale(k):
                return False
    return True
