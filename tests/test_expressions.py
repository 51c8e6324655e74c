"""Turan, extended Turan/Laguerre, Wronskian and related expressions."""

import itertools
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turanstab import expressions
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
from turanstab.polycore import Poly, _pack, _unpack, int_mul
from turanstab.sequences import (
    bell,
    bessel,
    chebyshev_t,
    hermite,
    jensen,
    laguerre,
    legendre,
)

from oracles import turan_diagonal_schoolbook


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

    @pytest.mark.parametrize("make", [legendre, hermite, chebyshev_t])
    def test_every_full_cell_matches_unfolded(self, make):
        # every member of these families is even or odd by its index, so
        # every full-tier window is packed at stride 2 once long enough
        k_max, n_max = TIER_LIMITS["full"]
        seq = make(k_max + 2 * n_max)
        for t in range(1, k_max + n_max + 1):
            ns = range(max(1, t - k_max), min(n_max, t) + 1)
            window = [p.num for p in seq[t - max(ns) : t + max(ns) + 1]]
            assert expressions._window_shape(window, max(ns))[0] == 2
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


def slot_lists(nbytes, length=st.integers(0, 12), bound=None):
    """Integer lists that fit slots of ``nbytes`` bytes, |c| <= bound, with
    the extreme values +-bound drawn often."""
    bound = bound if bound is not None else 2 ** (8 * nbytes - 1) - 1
    entry = st.one_of(st.sampled_from([bound, -bound, 0, 1, -1]),
                      st.integers(-bound, bound))
    return length.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))


def stripped(f):
    """f without its trailing zeros, or [0]: what ``_unpack`` returns."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f or [0]


class TestPacking:
    """The Kronecker substitution the diagonal products run on: a list packs
    into f(2^w), and a packed product unpacks to the schoolbook one while
    each coefficient stays below 2^(w-1) in size."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), nbytes=st.integers(1, 9))
    def test_round_trip(self, data, nbytes):
        f = data.draw(slot_lists(nbytes))
        assert _unpack(_pack(f, nbytes), nbytes) == stripped(f)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), nbytes=st.integers(1, 9),
           la=st.integers(0, 10), lb=st.integers(0, 10))
    def test_products_unpack_to_int_mul(self, data, nbytes, la, lb):
        # each product coefficient is at most min(la, lb) * bound^2, which
        # the bound keeps below 2^(w-1): the slots fill to their edge
        top = 2 ** (8 * nbytes - 1) - 1
        bound = math.isqrt(top // max(1, min(la, lb)))
        a = data.draw(slot_lists(nbytes, st.just(la), bound))
        b = data.draw(slot_lists(nbytes, st.just(lb), bound))
        got = _unpack(_pack(a, nbytes) * _pack(b, nbytes), nbytes)
        assert got == stripped(int_mul(a, b))

    def test_edges(self):
        top = 2**7 - 1
        # every slot at +-max, and a negative total
        for f in ([top] * 5, [-top] * 5, [top, -top] * 3, [-top, top] * 3, [0, 0, -1]):
            assert _pack(f, 1) == sum(c << 8 * i for i, c in enumerate(f))
            assert _unpack(_pack(f, 1), 1) == f
        assert _pack([], 3) == 0 and _unpack(0, 3) == [0]
        assert _unpack(-1, 2) == [-1] and _unpack(-(1 << 16), 2) == [0, -1]
        # a zero slot above a negative one reads -1 before the carry
        assert _unpack(_pack([-1, 0, 0, 1], 1), 1) == [-1, 0, 0, 1]


@st.composite
def windows(draw):
    """(members, top): 2 top + 1 Polys whose coefficients are signed, some
    of them zero or a constant, in one of five shapes.  "parity" windows
    have even and odd members in turn and "even" and "odd" ones members of
    one parity, so every product is even; "split" ones have even members
    below a zero middle and odd ones above it, so every product is odd;
    "mixed" ones have members of both parities."""
    top = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["mixed", "parity", "even", "odd", "split"]))
    members = []
    for j in range(2 * top + 1):
        size = draw(st.sampled_from([0, 1, 2, 6, 13, 20, 30]))
        if shape == "split" and j == top:
            size = 0
        cs = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
        den = draw(st.integers(1, 7))
        parity = {"parity": j % 2, "even": 0, "odd": 1, "split": int(j > top)}.get(shape)
        if parity is not None:
            cs = [0 if (i + parity) % 2 else c for i, c in enumerate(cs)]
        members.append(Poly(F(c, den) for c in cs))
    return members, top


class TestPackedDiagonal:
    """The packed and schoolbook diagonals against the schoolbook oracle,
    each path forced on the same windows."""

    @settings(max_examples=100, deadline=None)
    @given(window=windows(), pack_from=st.sampled_from([0, 12, 10**9]))
    def test_matches_the_schoolbook_oracle(self, window, pack_from):
        members, top = window
        with mock.patch.object(expressions, "_PACK_FROM", pack_from):
            for ns in ([top], range(1, top + 1)):
                got = turan_diagonal(members, top, ns)
                assert got == turan_diagonal_schoolbook(members, top, ns)

    def test_parity_pure_windows_pack_at_stride_2(self):
        seq = legendre(30)
        assert expressions._window_shape([p.num for p in seq[20:27]], 3)[0] == 2
        assert expressions._window_shape([p.num for p in bell(30)[20:27]], 3)[0] == 1
        # an even member paired with an odd one: an odd product beside the
        # even square of the middle
        mixed = [[1], [0, 1], [0, 1]]
        assert expressions._window_shape(mixed, 1)[0] == 1
        # a zero middle between an even and an odd member: the products
        # are odd, and the window stays at stride 1
        split = [P(1, 0, 3), Poly(), P(0, 2, 0, 5)]
        assert expressions._window_shape([p.num for p in split], 1)[0] == 1
        for pack_from in (0, 10**9):
            with mock.patch.object(expressions, "_PACK_FROM", pack_from):
                assert turan_diagonal(split, 1, [1]) == [P(0, -2, 0, -11, 0, -15)]

    @pytest.mark.parametrize("alternating", [False, True])
    def test_totals_at_the_slot_bound(self, alternating):
        # P_{top-i} = B and P_{top+i} = (-1)^i B for B = M (1 + x + ...
        # + x^(L-1)), or for B = M (1 - x + ... + (-x)^(L-1)): B^2 has the
        # middle coefficient c = L M^2, or (-1)^(L-1) L M^2, so Q_i has
        # (-1)^i c there, and with the weights (-1)^i C(2n, n+i) the
        # order-n total there is 4^n c: the bound the slots are sized
        # for, and negative for an alternating B of even length
        for top, bits, length in itertools.product(
                (1, 2, 3, 5), range(20, 29), (12, 14, 15, 30, 31)):
            m = 2**bits - 1
            base = Poly([m * (-1) ** (k * alternating) for k in range(length)])
            members = [base] * (2 * top + 1)
            for i in range(1, top + 1):
                members[top + i] = base.scale((-1) ** i)
            ns = range(1, top + 1)
            with mock.patch.object(expressions, "_PACK_FROM", 0):
                got = turan_diagonal(members, top, ns)
            assert got == turan_diagonal_schoolbook(members, top, ns)
            c = (-1) ** ((length - 1) * alternating) * length * m * m
            assert [e.coeffs[length - 1] for e in got] == [
                F(4**n * c, math.factorial(2 * n)) for n in ns]


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

    @settings(max_examples=100, deadline=None)
    @given(window=windows(), reflect=st.booleans(),
           shift=st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=12)))
    def test_substituting_the_members_substitutes_the_diagonal(
            self, window, reflect, shift):
        # x -> +-x + c is a ring homomorphism and each expression a fixed
        # rational combination of products, so a campaign may substitute
        # the members once instead of every expression; the windows run
        # the schoolbook, packed and stride-2 paths, and a shifted parity
        # window the stride-1 one
        members, top = window
        ns = range(1, top + 1)
        moved = [reflect_shift(p, reflect, shift) for p in members]
        assert turan_diagonal(moved, top, ns) == [
            reflect_shift(e, reflect, shift) for e in turan_diagonal(members, top, ns)]

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
