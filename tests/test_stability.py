"""Rotation, Sturm chains, root isolation and the stability verdict."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanstab import polycore, stability
from turanstab.polycore import Poly
from turanstab.sequences import hermite
from turanstab.stability import (
    CERTAINLY_UNSTABLE,
    INCONCLUSIVE,
    LEFT_OF,
    POSSIBLY_STABLE,
    RIGHT_OF,
    STABLE,
    UNSTABLE,
    SplitPoly,
    SturmChain,
    all_roots_real,
    cauchy_bound,
    coeff_sign_precheck,
    cross_check_oracle,
    euclid_chain,
    interlace_check,
    is_weakly_hurwitz,
    isolate_extreme_roots,
    nonvanishing_halfplane,
    rotate,
    sign_variations_at_infinity,
    sturm_real_count,
    upper_halfplane_count,
)


def P(*coeffs):
    return Poly(coeffs)


class TestRotate:
    def test_linear(self):
        # (-i)(ix - 1) = x + i
        h = rotate(P(-1, 1))
        assert h.re == P(0, 1)
        assert h.im == P(1)

    def test_quartic(self):
        # rotation of the unstable Fisk quartic x^4 - 2x^2 - 8x
        h = rotate(P(0, -8, -2, 0, 1))
        assert h.re == P(0, 0, 2, 0, 1)
        assert h.im == P(0, -8)

    def test_leading_coefficient_stays_real(self):
        for p in (P(1, 2, 3), P(0, -8, -2, 0, 1), P(5, 0, 0, 1)):
            h = rotate(p)
            assert h.re.degree() == p.degree()
            assert h.re.leading == p.leading
            assert h.im.is_zero or h.im.degree() < p.degree()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rotate(Poly.zero())


class TestUpperHalfplaneCount:
    def test_x_minus_i(self):
        # x - i has its single zero at i, in the open upper half-plane
        p, g = upper_halfplane_count(SplitPoly(P(0, 1), P(-1)))
        assert p == 1
        assert g.degree() == 0

    def test_x_plus_i(self):
        p, _ = upper_halfplane_count(SplitPoly(P(0, 1), P(1)))
        assert p == 0

    def test_cubic_example(self):
        # x^3 + 2x - 8i: two zeros above the real axis, one below
        p, g = upper_halfplane_count(SplitPoly(P(0, 2, 0, 1), P(-8)))
        assert p == 2
        assert g.degree() == 0

    def test_real_polynomial(self):
        # real input: no zeros strictly above the axis, gcd carries them all
        p, g = upper_halfplane_count(SplitPoly(P(-1, 0, 1), Poly.zero()))
        assert p == 0
        assert g == P(-1, 0, 1)

    def test_complex_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            upper_halfplane_count(SplitPoly(P(0, 1), P(0, 0, 1)))


class TestEuclidChain:
    def test_endpoints(self):
        chain = euclid_chain(P(-2, 0, 1), P(0, 2))
        assert chain[0] == P(-2, 0, 1)
        # last element is the gcd up to positive scale
        assert chain[-1].degree() == 0

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            euclid_chain(P(0, 1), P(0, 0, 1))

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=8),
            min_size=2,
            max_size=8,
        )
    )
    def test_content_stripping_preserves_variations(self, c):
        f = Poly(c)
        if f.is_zero or f.degree() < 1:
            return
        stripped = euclid_chain(f, f.derivative(), strip_content=True)
        raw = euclid_chain(f, f.derivative(), strip_content=False)
        for d in ("+inf", "-inf"):
            assert sign_variations_at_infinity(stripped, d) == (
                sign_variations_at_infinity(raw, d)
            )

    def test_direction_validation(self):
        with pytest.raises(ValueError):
            sign_variations_at_infinity([P(1)], "up")


class TestSturm:
    def test_half_open_semantics(self):
        f = P(-1, 1) * P(-2, 1) * P(-3, 1)
        assert sturm_real_count(f, 1, 2) == 1  # (1, 2] holds only 2
        assert sturm_real_count(f, 0, 1) == 1
        assert sturm_real_count(f, 3, 100) == 0
        assert sturm_real_count(f) == 3

    def test_multiplicities_collapse(self):
        f = P(-1, 1) * P(-1, 1)
        assert sturm_real_count(f) == 1
        assert all_roots_real(f)

    def test_all_roots_real(self):
        assert all_roots_real(P(-2, 0, 1))
        assert not all_roots_real(P(1, 0, 1))
        assert not all_roots_real(P(1, 1, 1, 1, 1))  # cyclotomic, no real zeros

    def test_hermite_real_rooted(self):
        for h in hermite(12)[1:]:
            assert all_roots_real(h)
            assert sturm_real_count(h) == h.degree()

    def test_chain_on_constant(self):
        assert sturm_real_count(P(5)) == 0

    def test_cauchy_bound(self):
        assert cauchy_bound(P(-2, 0, 1)) == 3
        f = P(-2, 0, 1)
        assert sturm_real_count(f, -cauchy_bound(f), cauchy_bound(f)) == 2


class TestIsolateExtremeRoots:
    TOL = F(1, 1 << 20)

    def check_brackets(self, f, m, M):
        m_lo, m_hi, M_lo, M_hi = isolate_extreme_roots(f, self.TOL)
        assert m_lo < m <= m_hi and m_hi - m_lo <= self.TOL
        assert M_lo < M <= M_hi and M_hi - M_lo <= self.TOL

    def test_rational_roots(self):
        self.check_brackets(P(1, 1) * P(-3, 1) * P(0, 1) * 7, -1, 3)

    def test_irrational_roots(self):
        m_lo, m_hi, M_lo, M_hi = isolate_extreme_roots(P(-2, 0, 1), self.TOL)
        f = P(-2, 0, 1)
        assert f(m_lo) * f(m_hi) <= 0 and m_hi < 0
        assert f(M_lo) * f(M_hi) <= 0 and M_lo > 0
        assert m_hi - m_lo <= self.TOL and M_hi - M_lo <= self.TOL

    def test_single_root(self):
        self.check_brackets(P(-5, 1), 5, 5)

    def test_midpoint_hit_collapses(self):
        # bisection midpoints land exactly on the roots of x^2 - 1
        self.check_brackets(P(-1, 0, 1), -1, 1)

    def test_no_real_roots(self):
        with pytest.raises(ValueError):
            isolate_extreme_roots(P(1, 0, 1), self.TOL)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            isolate_extreme_roots(P(-1, 1), 0)


class TestVerdicts:
    @pytest.mark.parametrize(
        "coeffs",
        [
            (1,),
            (0, 1),
            (1, 1),
            (1, 0, 1),  # zeros on the axis are allowed
            (1, 1, 1),
            (0, 16, 22, 12, 1),  # sign-flipped Fisk quartic
            (2, 3, 1),
        ],
    )
    def test_stable(self, coeffs):
        assert is_weakly_hurwitz(Poly(coeffs)).verdict

    @pytest.mark.parametrize(
        "coeffs",
        [
            (-1, 1),
            (0, -8, -2, 0, 1),  # Fisk quartic
            (-1, 1, -1, 1),  # (x-1)(x^2+1)
            (1, -1, 1),
        ],
    )
    def test_unstable(self, coeffs):
        assert not is_weakly_hurwitz(Poly(coeffs)).verdict

    def test_axis_zeros_live_in_gcd(self):
        f = P(2, 1) * P(2, 1) * P(1, 0, 1)  # (x+2)^2 (x^2+1)
        cert = is_weakly_hurwitz(f)
        assert cert.verdict
        assert cert.gcd_degree == 2
        assert cert.gcd_all_real

    def test_certificate_summary(self):
        s = is_weakly_hurwitz(P(0, -8, -2, 0, 1)).summary()
        assert s["verdict"] is False
        assert s["degree"] == 4
        assert s["p_upper"] + s["gcd_degree"] < 4
        assert set(s) == {
            "verdict",
            "degree",
            "gcd_degree",
            "gcd_all_real",
            "p_upper",
            "chain_length",
            "v_plus",
            "v_minus",
        }

    def test_scale_invariance(self):
        f = P(0, 16, 22, 12, 1)
        assert is_weakly_hurwitz(f * F(-3, 7)).verdict == is_weakly_hurwitz(f).verdict

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_weakly_hurwitz(Poly.zero())


class TestPrecheck:
    def test_negative_coefficient(self):
        assert coeff_sign_precheck(P(0, -8, -2, 0, 1)) == CERTAINLY_UNSTABLE

    def test_normalizes_leading_sign(self):
        assert coeff_sign_precheck(P(-1, -1)) == POSSIBLY_STABLE
        assert coeff_sign_precheck(P(-1, 1)) == CERTAINLY_UNSTABLE

    def test_soundness_against_verdict(self):
        # possibly-stable is necessary for a true verdict
        for coeffs in [(1, 1), (1, 0, 1), (2, 3, 1), (0, 16, 22, 12, 1)]:
            f = Poly(coeffs)
            if is_weakly_hurwitz(f).verdict:
                assert coeff_sign_precheck(f) == POSSIBLY_STABLE


class TestNonvanishingHalfplane:
    def test_wronskian_strip(self):
        w = P(1, 0, 0, 0, 3)  # W(x^3 - x); all zeros have |Re| < 1
        assert nonvanishing_halfplane(w, 1, RIGHT_OF)
        assert nonvanishing_halfplane(w, -1, LEFT_OF)
        assert not nonvanishing_halfplane(w, 0, RIGHT_OF)
        assert not nonvanishing_halfplane(w, 0, LEFT_OF)

    def test_real_roots(self):
        f = P(-1, 1) * P(-3, 1)
        assert nonvanishing_halfplane(f, 3, RIGHT_OF)
        assert not nonvanishing_halfplane(f, 2, RIGHT_OF)
        assert nonvanishing_halfplane(f, 1, LEFT_OF)

    def test_bad_side(self):
        with pytest.raises(ValueError):
            nonvanishing_halfplane(P(1, 1), 0, "above")


class TestInterlace:
    def test_hermite_pairs(self):
        seq = hermite(8)
        for k in range(1, 8):
            assert interlace_check(seq[k], seq[k - 1])

    def test_simple_pair(self):
        assert interlace_check(P(-1, 0, 1), P(0, 1))

    def test_not_interlacing(self):
        f = P(-1, 1) * P(-2, 1)
        assert not interlace_check(f, P(-5, 1))

    def test_common_root_fails(self):
        assert not interlace_check(P(0, 1) * P(-1, 1), P(0, 1))

    def test_shared_root_divided_out(self):
        f = P(0, 1) * P(1, 1) * P(-1, 1)
        g = P(0, 1) * P(F(1, 2), 1)
        assert interlace_check(f, g, shared_root=0)
        assert not interlace_check(f, g, shared_root=1)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            interlace_check(P(-1, 0, 1), P(1))
        with pytest.raises(ValueError):
            interlace_check(P(1, 0, 1), P(0, 1))  # not real-rooted

    def test_multiple_root_fails(self):
        assert not interlace_check(P(0, 1) * P(0, 1) * P(1, 1), P(0, 1) * P(2, 1))


class TestOracle:
    def test_simple_verdicts(self):
        assert cross_check_oracle(P(2, 3, 1)) == STABLE
        assert cross_check_oracle(P(-1, 1)) == UNSTABLE
        assert cross_check_oracle(P(1, 0, 1)) == INCONCLUSIVE

    def test_degree_limit(self):
        with pytest.raises(ValueError):
            cross_check_oracle(Poly([1] + [0] * 12 + [1]))

    def test_constant(self):
        assert cross_check_oracle(P(7)) == STABLE


@settings(max_examples=50, deadline=None)
@given(
    roots=st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=1,
        max_size=6,
    )
)
def test_product_of_linear_factors(roots):
    # a real-rooted polynomial is weakly stable iff no root is positive
    f = Poly.one()
    for r in roots:
        f = f * Poly([-r, 1])
    assert is_weakly_hurwitz(f).verdict == all(r <= 0 for r in roots)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=7),
    lead=st.integers(min_value=1, max_value=9),
)
def test_sturm_count_splits_at_midpoint(data, lead):
    chain = SturmChain(Poly(data + [lead]))
    b = cauchy_bound(chain.squarefree)
    mid = F(1, 3)
    assert chain.count(-b, b) == chain.count(-b, mid) + chain.count(mid, b)


# -- the single chain against the two-chain reference -----------------

def _factor(kind, a, b):
    """x - a, the axis pair x^2 + b^2, or the pair with zeros a +- ib."""
    if kind == "linear":
        return Poly([-a, 1])
    if kind == "axis":
        return Poly([b * b, 0, 1])
    return Poly([a * a + b * b, -2 * a, 1])


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_nonzero = _rationals.filter(bool)


@st.composite
def _factored(draw):
    """(f, stable) for f = c * prod(factor^multiplicity) of degree <= 40."""
    factors = draw(st.lists(
        st.tuples(st.sampled_from(("linear", "axis", "pair")), _rationals,
                  _nonzero, st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=12,
    ))
    f, stable = Poly.constant(draw(_nonzero)), True
    for kind, a, b, mult in factors:
        piece = _factor(kind, a, b) ** mult
        if f.degree() + piece.degree() > 40:
            break
        f = f * piece
        stable = stable and (kind == "axis" or a <= 0)
    return f, stable


def _two_chain_reference(h):
    """Counts the way they were computed before the single chain: gcd
    first, then a second chain on the exact quotients."""
    g = polycore.gcd(h.re, h.im)
    chain = euclid_chain(h.re.exact_div(g), h.im.exact_div(g))
    v_plus = sign_variations_at_infinity(chain, "+inf")
    v_minus = sign_variations_at_infinity(chain, "-inf")
    p = (h.degree() - g.degree() + v_plus - v_minus) // 2
    return p, g, v_plus, v_minus, len(chain)


@settings(max_examples=60, deadline=None)
@given(case=_factored())
# (x^2 + 1)^2 (x + 1)(x - 2): gcd of degree 4 from the axis pair
@example(case=(P(1, 0, 1) ** 2 * P(1, 1) * P(-2, 1), False))
# (x - 1)(x + 1)(x + 3)^3: gcd x^2 + 1 from the pair mirrored in the axis
@example(case=(P(-1, 1) * P(1, 1) * P(3, 1) ** 3, False))
# x^3 (x^2 + 2x + 5)^2: a zero on the axis and a repeated stable pair
@example(case=(P(0, 0, 0, 1) * P(5, 2, 1) ** 2, True))
def test_single_chain_matches_two_chain_reference(case):
    f, stable = case
    h = rotate(f)
    p, g, v_plus, v_minus, length = _two_chain_reference(h)
    assert upper_halfplane_count(h) == (p, g)
    cert = is_weakly_hurwitz(f)
    assert (cert.p_upper, cert.gcd_degree, cert.v_plus, cert.v_minus,
            cert.chain_length) == (p, g.degree(), v_plus, v_minus, length)
    assert cert.verdict == stable
