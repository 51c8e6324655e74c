"""Seeded polynomials whose weak Hurwitz verdict is known by construction.

Each polynomial is c * (product of factors) with every factor's zeros
chosen up front, so the verdict (no zero with Re > 0) needs no solver:

* ``linear``     x + r: zero at -r; r < 0 puts it in the right half-plane
* ``quadratic``  x^2 - 2a x + a^2 + b^2: zeros a +- ib; unstable iff a > 0
* ``axis``       x^2 + b^2: zeros +-ib on the imaginary axis (allowed)
* ``repeated``   the square of a linear, quadratic or axis factor
* ``mirrored``   a pair mirrored across the imaginary axis, (x^2 - r^2) or
  the two quadratics with real parts +-a; after rotation the real and
  imaginary parts share non-real zeros, so the gcd is not real-rooted

Half of the polynomials are stable and half unstable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from turanstab.polycore import Poly

KINDS = ("linear", "quadratic", "axis", "repeated", "mirrored")
MIN_DEGREE, MAX_DEGREE = 2, 16


@dataclass(frozen=True)
class KnownPoly:
    poly: Poly
    stable: bool
    kinds: tuple[str, ...]
    # some zero on the imaginary axis has multiplicity > 1
    multiple_axis_zero: bool


def _positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 12), rng.randint(1, 4))


def _linear(rng: random.Random, stable: bool) -> Poly:
    if stable and rng.random() < 0.1:
        return Poly([0, 1])  # zero on the axis, at the origin
    r = _positive(rng)
    return Poly([r if stable else -r, 1])


def _quadratic(rng: random.Random, stable: bool) -> Poly:
    a = _positive(rng) * (-1 if stable else 1)
    b = _positive(rng)
    return Poly([a * a + b * b, -2 * a, 1])


def _axis(rng: random.Random) -> Poly:
    b = _positive(rng)
    return Poly([b * b, 0, 1])


def _mirrored(rng: random.Random, room: int) -> Poly:
    if room >= 4 and rng.random() < 0.5:
        a, b = _positive(rng), _positive(rng)
        return Poly([a * a + b * b, -2 * a, 1]) * Poly([a * a + b * b, 2 * a, 1])
    r = _positive(rng)
    return Poly([-r * r, 0, 1])


def _factor(rng: random.Random, kind: str, stable: bool, room: int) -> list[Poly]:
    """One factor of the given kind and stability, of degree at most room,
    as the list of its irreducible-by-construction parts."""
    if kind == "linear":
        return [_linear(rng, stable)]
    if kind == "quadratic":
        return [_quadratic(rng, stable)]
    if kind == "axis":
        return [_axis(rng)]
    if kind == "mirrored":
        return [_mirrored(rng, room)]
    base = "linear" if room < 4 else rng.choice(("linear", "quadratic", "axis"))
    return _factor(rng, base, stable, room // 2) * 2


def _axis_zero(part: Poly):
    """b^2 for a part x^2 + b^2, 0 for the part x, else None."""
    cs = part.coeffs
    if cs == (0, 1) or (len(cs) == 3 and cs[1] == 0 and cs[0] > 0):
        return cs[0]
    return None


def _kinds_fitting(room: int, stable: bool) -> tuple[str, ...]:
    if room == 1:
        return ("linear",)
    if stable:
        return ("linear", "quadratic", "axis", "repeated")
    return KINDS


def known_verdict_polys(seed: int, count: int) -> list[KnownPoly]:
    """``count`` polynomials of degree MIN_DEGREE to MAX_DEGREE, alternately
    stable and unstable."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        stable = i % 2 == 0
        target = rng.randint(MIN_DEGREE, MAX_DEGREE)
        parts: list[Poly] = []
        kinds: list[str] = []
        if not stable:
            # one factor with a zero in Re > 0 decides the verdict; the rest
            # are drawn freely
            kind = rng.choice(("linear", "quadratic", "mirrored"))
            parts += _factor(rng, kind, False, target)
            kinds.append(kind)
        degree = sum(p.degree() for p in parts)
        while degree < target:
            room = target - degree
            kind = rng.choice(_kinds_fitting(room, stable))
            # unstable polynomials also mix in further unstable factors
            factor = _factor(rng, kind, stable or rng.random() < 0.5, room)
            factor_degree = sum(p.degree() for p in factor)
            if factor_degree > room:
                continue
            parts += factor
            kinds.append(kind)
            degree += factor_degree
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
        poly = Poly([c])
        for p in parts:
            poly = poly * p
        axis = [z for z in map(_axis_zero, parts) if z is not None]
        out.append(KnownPoly(poly, stable, tuple(kinds), len(set(axis)) < len(axis)))
    return out
