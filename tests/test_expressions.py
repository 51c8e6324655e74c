"""Turan, extended Turan/Laguerre, Wronskian and related expressions."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanstab.expressions import (
    extended_laguerre,
    extended_turan,
    fisk_expression,
    reflect_shift,
    turan,
    turan_diagonal,
    wronskian,
)
from turanstab.harness import TIER_LIMITS
from turanstab.polycore import Poly
from turanstab.sequences import (
    bell,
    bessel,
    chebyshev_t,
    hermite,
    jensen,
    laguerre,
    legendre,
)


def P(*coeffs):
    return Poly(coeffs)


def extended_turan_unfolded(seq, k, n):
    """Literal term-by-term form of the extended Turan sum."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(seq) < 2 * n + k + 1:
        raise ValueError(f"sequence must reach index {2 * n + k}")
    total = Poly()
    for j in range(2 * n + 1):
        term = (seq[j + k] * seq[2 * n + k - j]).scale(
            F((-1) ** (n + j) * math.comb(2 * n, j), math.factorial(2 * n))
        )
        total = total + term
    return total


def derivative_sequence(f):
    """[D^d f, ..., D f, f] for deg(f) = d; element i has degree i.

    Feeding this into ``turan`` at index d - 2 reproduces the classical
    Laguerre expression f'^2 - f f'' (the index pin tested below).
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    seq = [f]
    for _ in range(f.degree()):
        seq.append(seq[-1].derivative())
    seq.reverse()
    return seq


class TestTuran:
    def test_bell_k0(self):
        assert turan(bell(2), 0) == P(0, -1)

    def test_bell_k2(self):
        assert turan(bell(4), 2) == P(0, 0, 0, -2, -2, -1)

    def test_chebyshev_k1(self):
        assert turan(chebyshev_t(3), 1) == P(1, 0, -1)

    def test_hermite_k1(self):
        assert turan(hermite(3), 1) == P(4, 0, 8)

    def test_too_short(self):
        with pytest.raises(ValueError):
            turan(bell(2), 1)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            turan(bell(3), -1)


class TestExtendedTuran:
    def test_collapses_to_turan_at_n1(self):
        for seq in (bell(12), hermite(12), chebyshev_t(12), laguerre(12)):
            for k in range(10):
                assert extended_turan(seq, k, 1) == turan(seq, k)

    def test_folded_matches_unfolded(self):
        seq = bell(14)
        for n in range(1, 5):
            for k in range(14 - 2 * n):
                assert extended_turan(seq, k, n) == extended_turan_unfolded(seq, k, n)
        # the extended Laguerre expression on derivative lists (f, ..., f^(2n));
        # the quadratic has degree below n for n >= 3, where the sum is 0
        for f in (bell(7)[7], hermite(7)[7], laguerre(6)[6], P(1, 2, 1)):
            for n in range(1, 5):
                derivs = [f]
                for _ in range(2 * n):
                    derivs.append(derivs[-1].derivative())
                expected = extended_turan_unfolded(derivs, 0, n)
                assert extended_laguerre(f, n) == expected
                assert expected.is_zero == (n > f.degree())

    def test_length_checks(self):
        with pytest.raises(ValueError):
            extended_turan(bell(4), 1, 2)
        with pytest.raises(ValueError):
            extended_turan(bell(4), 0, 0)


# gamma_0..gamma_2 = 0 makes g_0..g_2 the zero polynomial, and with them
# the expressions at (0, 1), (1, 1) and (0, 2)
ZERO_LED_GAMMA = [0, 0, 0, 1, F(-1, 2), 0, 3, F(1, 7), 2, F(-5, 3), 1]


class TestTuranDiagonal:
    @pytest.mark.parametrize("make", [bell, laguerre, bessel, legendre, hermite])
    def test_every_desk_cell_matches_unfolded(self, make):
        k_max, n_max = TIER_LIMITS["desk"]
        seq = make(k_max + 2 * n_max)
        for t in range(1, k_max + n_max + 1):
            ns = range(max(1, t - k_max), min(n_max, t) + 1)
            got = turan_diagonal(seq, t, ns)
            assert got == [extended_turan_unfolded(seq, t - n, n) for n in ns]

    def test_zero_members_and_zero_expressions(self):
        seq = jensen(ZERO_LED_GAMMA, 10)
        assert [p.is_zero for p in seq[:4]] == [True, True, True, False]
        zero = []
        for t in range(1, 8):
            ns = range(1, min(3, t, 10 - t) + 1)
            for n, got in zip(ns, turan_diagonal(seq, t, ns)):
                assert got == extended_turan_unfolded(seq, t - n, n)
                if got.is_zero:
                    zero.append((t - n, n))
        assert zero == [(0, 1), (1, 1), (0, 2)]

    def test_one_cell_is_extended_turan(self):
        seq = laguerre(12)
        assert turan_diagonal(seq, 5, [3]) == [extended_turan(seq, 2, 3)]

    def test_validation(self):
        seq = bell(8)
        for ns in ((), (0, 1)):
            with pytest.raises(ValueError, match="n must be >= 1"):
                turan_diagonal(seq, 3, ns)
        with pytest.raises(ValueError, match="k must be >= 0"):
            turan_diagonal(seq, 2, (1, 3))
        with pytest.raises(ValueError, match="sequence must reach index 9"):
            turan_diagonal(seq, 6, (1, 3))


class TestExtendedLaguerre:
    def test_n0_is_square(self):
        f = P(1, 2, 1)
        assert extended_laguerre(f, 0) == f * f

    def test_n1_is_wronskian(self):
        f = P(-1, 0, 1)
        assert extended_laguerre(f, 1) == P(2, 0, 2)
        d1 = f.derivative()
        assert extended_laguerre(f, 1) == d1 * d1 - f * d1.derivative()

    def test_vanishes_past_degree(self):
        assert extended_laguerre(P(1, 2, 1), 3).is_zero

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            extended_laguerre(Poly(), 1)


class TestWronskian:
    def test_cubic(self):
        # W(x^3 - x) = (3x^2-1)^2 - 6x(x^3-x) = 3x^4 + 1
        assert wronskian(P(0, -1, 0, 1)) == P(1, 0, 0, 0, 3)

    def test_linear(self):
        assert wronskian(P(1, 2)) == P(4)


class TestFisk:
    def test_counterexample_quartic(self):
        f = P(0, 2, 1)
        assert fisk_expression(f, 1, 1, 3) == P(0, -8, -2, 0, 1)

    def test_negated_c_variant(self):
        f = P(0, 2, 1)
        assert fisk_expression(f, 1, 1, -3) == P(0, 16, 22, 12, 1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            fisk_expression(Poly(), 1, 1, 3)


class TestDerivativeSequence:
    def test_degrees(self):
        seq = derivative_sequence(P(1, 1, 1, 1))
        assert [p.degree() for p in seq] == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=6),
            min_size=4,
            max_size=4,
        )
    )
    def test_index_pin_reproduces_wronskian(self, c):
        # the Laguerre expression of a degree-d source sits at index d - 2
        if c[-1] == 0:
            c[-1] = F(1)
        f = Poly(c)
        seq = derivative_sequence(f)
        assert turan(seq, f.degree() - 2) == wronskian(f)

    def test_index_pin_higher_degree(self):
        for f in (P(1, 2, 3, 4, 5), P(0, -1, 0, 1, 0, 2)):
            seq = derivative_sequence(f)
            assert turan(seq, f.degree() - 2) == wronskian(f)


class TestBuildExpression:
    """The expression the turan command builds: reflect_shift of an
    extended Turan expression, one substitution x -> -x - shift against
    the reflection and the shift applied in turn."""

    def test_turan_with_reflect_and_shift(self):
        seq = laguerre(6)
        want = turan(seq, 2).compose_linear(-1, 0).compose_linear(1, F(1, 2))
        assert reflect_shift(turan(seq, 2), True, F(1, 2)) == want

    def test_extended_turan_with_reflect_and_shift(self):
        seq = laguerre(8)
        want = (
            extended_turan(seq, 2, 2)
            .compose_linear(-1, 0)
            .compose_linear(1, F(1, 2))
        )
        assert reflect_shift(extended_turan(seq, 2, 2), True, F(1, 2)) == want

    @pytest.mark.parametrize("reflect", [False, True])
    def test_string_shift(self, reflect):
        # a shift given as a string, as Poly coefficients may be, works on
        # both branches: the reflection negates it
        expr = turan(laguerre(6), 2)
        assert reflect_shift(expr, reflect, "1/2") == reflect_shift(expr, reflect, F(1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            extended_turan(bell(3), -1, 1)
        with pytest.raises(ValueError):
            extended_turan(bell(3), 0, 0)
        with pytest.raises(ValueError):
            extended_turan(bell(3), 0, 2)
