"""Unit and property tests for the exact polynomial core."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanstab import cli, stability
from turanstab.polycore import (
    Poly,
    clear_denominators,
    gcd,
    int_mul,
    int_primitive,
    int_pseudo_rem,
)

from oracles import int_pseudo_rem_reference, is_squarefree, squarefree_part

X = Poly.x()


def P(*coeffs):
    return Poly(coeffs)


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
polys = st.lists(rationals, max_size=12).map(Poly)
small_polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestBasics:
    def test_canonical_zero(self):
        assert Poly([0, 0]).is_zero
        assert Poly().coeffs == ()
        with pytest.raises(ValueError):
            Poly().degree()

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))

    def test_add(self):
        assert P(0, 1) + P(1) == P(1, 1)

    def test_mul(self):
        assert P(0, 1) * P(2, 1) == P(0, 2, 1)

    def test_scale(self):
        assert P(0, 2, 1).scale(-1) == P(0, -2, -1)

    def test_text_roundtrip(self):
        # to_text writes the format the CLI's --poly flag reads
        for p in (P(0, -8, -2, 0, 1), P(F(1, 2), F(-3, 4))):
            assert Poly(cli._rationals("--poly", p.to_text())) == p
        assert P(F(1, 2), F(-3, 4)).to_text() == "1/2,-3/4"
        assert Poly().to_text() == ""


class TestDerivative:
    def test_quadratic(self):
        assert P(0, 1, 1).derivative() == P(1, 2)

    def test_constant(self):
        assert P(7).derivative().is_zero

    def test_cubic(self):
        assert P(0, 1, 3, 1).derivative() == P(1, 6, 3)


class TestComposeLinear:
    def test_shift(self):
        # (x+1)^2 - 1 = x^2 + 2x
        assert P(-1, 0, 1).compose_linear(1, 1) == P(0, 2, 1)

    def test_reflect(self):
        assert P(0, 1).compose_linear(-1, 0) == P(0, -1)

    def test_shift_down(self):
        # 1 - (x-1)^2 = 2x - x^2, checked by hand expansion
        assert P(1, 0, -1).compose_linear(1, -1) == P(0, 2, -1)


class TestEval:
    @pytest.mark.parametrize(
        "poly,point,value",
        [
            (P(1, 0, -1), 1, F(0)),
            (P(1, 0, -1), F(1, 2), F(3, 4)),
            (P(0, 1, 1), -1, F(0)),
        ],
    )
    def test_values(self, poly, point, value):
        assert poly(point) == value


class TestGcd:
    def test_example_2_4_pipeline(self):
        assert gcd(P(0, 0, 2, 0, 1), P(0, -8)) == X

    def test_shared_linear(self):
        assert gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert gcd(P(1, 0, 1), X) == Poly.one()

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(Poly(), Poly())

    def test_one_zero(self):
        assert gcd(P(0, 2), Poly()) == X


class TestSquarefree:
    def test_monomial(self):
        assert squarefree_part(P(0, 0, 1)) == X

    def test_repeated_factor(self):
        p = P(1, 1) * P(1, 1) * P(-2, 1)
        assert squarefree_part(p) == (P(1, 1) * P(-2, 1)).monic()

    def test_already_squarefree(self):
        assert squarefree_part(P(1, 0, 1)) == P(1, 0, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            squarefree_part(Poly())


class TestDivision:
    def test_exact(self):
        q = (P(1, 1) * P(2, 3)).exact_div(P(1, 1))
        assert q == P(2, 3)

    def test_inexact_rejected(self):
        for p, q in (
            (P(1, 1, 1), P(0, 1)),
            (P(1, 0, 1), P(1, 2)),  # the leading coefficient does not divide
            (P(1, 0, 1), P(1, 1)),  # every step divides, the remainder 2 stays
            (P(1), P(1, 1)),  # the divisor has the higher degree
        ):
            with pytest.raises(ValueError):
                p.exact_div(q)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            P(1).exact_div(Poly())


class TestIntegerKernel:
    def test_clear_denominators_positive_scale(self):
        ints = clear_denominators(P(F(1, 2), F(-3, 4)))
        assert ints == [2, -3]

    def test_primitive(self):
        assert int_primitive([6, -9, 12]) == [2, -3, 4]


def _pseudo_rem_pairs(rng: random.Random, count: int):
    """(f, g) pairs with deg f - deg g = 0..5 of four kinds: random; f a
    multiple of g plus a short tail, so elimination leaves zero tops; the
    parity-pure rotated parts (re, im) and every later pair of their
    chain; and f shorter than g."""
    def ints(n, bits=20):
        return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]

    def lead():
        big = rng.randint(1, 1 << 40)
        return rng.choice([1, -1, 2, -3, big, -big])

    pairs, step = [], 0
    while len(pairs) < count:
        kind, d, step = step % 4, rng.randint(0, 5), step + 1
        g = ints(rng.randint(0, 8)) + [lead()]
        if kind == 0:
            pairs.append((ints(len(g) + d - 1) + [lead()], g))
        elif kind == 1:
            f = int_mul(ints(d) + [lead()], g)
            for i, c in enumerate(ints(rng.randint(0, len(g) - 1), 8)):
                f[i] += c
            pairs.append((f, g))
        elif kind == 2:
            re, im = stability._rotated_parts(ints(rng.randint(2, 12)) + [lead()])
            chain = [re, im]
            while len(chain[-1]) > 1:
                r, positive = int_pseudo_rem_reference(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(int_primitive([-c for c in r] if positive else r))
            pairs += [(f, g) for f, g in zip(chain, chain[1:]) if g]
        else:
            pairs.append((ints(rng.randint(0, len(g) - 1)), g))
    return pairs


def test_int_pseudo_rem_matches_the_two_slice_reference():
    pairs = _pseudo_rem_pairs(random.Random(2024), 2400)
    seen = {"d": set(), "zero_top": 0, "negative": 0, "unit": 0, "parity_pure": 0}
    for f, g in pairs:
        before, want = (list(f), list(g)), int_pseudo_rem_reference(f, g)
        assert int_pseudo_rem(f, g) == want, (f, g)
        assert (f, g) == before
        d = len(f) - len(g)
        seen["d"].add(d)
        seen["zero_top"] += d >= 0 and len(want[0]) < len(g) - 1
        seen["negative"] += g[-1] < 0
        seen["unit"] += abs(g[-1]) == 1
        seen["parity_pure"] += len(f) > 2 and not any(f[-2::-2])
    assert len(pairs) >= 2000
    assert set(range(6)) <= seen["d"] and min(seen["d"]) < 0
    assert min(seen[kind] for kind in seen if kind != "d") >= 100


@given(p=polys, q=polys, r=polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(p=polys, q=polys)
def test_product_rule(p, q):
    lhs = (p * q).derivative()
    assert lhs == p.derivative() * q + p * q.derivative()


@given(p=polys, b=rationals)
def test_compose_linear_inverse(p, b):
    assert p.compose_linear(1, b).compose_linear(1, -b) == p


@settings(max_examples=40, deadline=None)
@given(p=small_polys, q=small_polys, g=small_polys)
def test_gcd_common_factor(p, q, g):
    if p.is_zero or q.is_zero or g.is_zero:
        return
    if gcd(p, q).degree() != 0:
        return  # want coprime p, q
    assert gcd(p * g, q * g) == (g.monic() if g.degree() else Poly.one())


def _assert_normalised(p):
    # integer numerators over one positive denominator sharing no factor
    # with all of them, and no trailing zero
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int for c in p.num)
    assert math.gcd(p.den, *p.num) == 1
    assert not p.num or p.num[-1] != 0
    assert Poly(p.coeffs) == p


@settings(max_examples=60, deadline=None)
@given(p=polys, q=nonzero_polys, c=rationals)
def test_representation_invariants(p, q, c):
    for r in (p, -p, p + q, p - p, p * q, p.scale(c), p.scale(-3), p.derivative(),
              p.shift_x(2), (p * q).exact_div(q), p.compose_linear(c or 1, c),
              q.monic()):
        _assert_normalised(r)
    # so equal polynomials have equal fields and hashes
    pairs = ((p * q, q * p), ((p + q) - q, p), (p.scale(c).scale(2), p.scale(2 * c)))
    for a, b in pairs:
        assert a.coeffs == b.coeffs
        assert (a.num, a.den) == (b.num, b.den) and hash(a) == hash(b)


nonzero_rationals = rationals.filter(lambda c: c != 0)


@settings(max_examples=60, deadline=None)
@given(p=polys, q=nonzero_polys, c=nonzero_rationals)
# a divisor with content 2 and a negative leading coefficient
@example(p=P(F(1, 3), -2, 5), q=P(6, 0, -4), c=1)
# rational denominators, content and a negative leading coefficient
@example(p=P(-1, 0, F(1, 2)), q=P(F(3, 4), F(-9, 2)), c=F(-10, 3))
def test_exact_div_undoes_a_product(p, q, c):
    q = q.scale(c)
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(p=polys, a=nonzero_rationals, b=rationals,
       xs=st.lists(rationals, min_size=1, max_size=3))
def test_compose_linear_evaluates_at_the_image(p, a, b, xs):
    q = p.compose_linear(a, b)
    assert q.is_zero == p.is_zero
    for x in xs:
        assert q(x) == p(a * x + b)


@settings(max_examples=60, deadline=None)
@given(p=small_polys)
def test_squarefree_part_properties(p):
    if p.is_zero:
        return
    s = squarefree_part(p)
    assert p.exact_div(s) * s == p
    assert is_squarefree(s)
