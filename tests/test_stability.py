"""Rotation, Sturm chains, root isolation and the stability verdict."""

import math
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turanstab import expressions, harness, polycore, sequences, stability
from turanstab.polycore import Poly
from turanstab.sequences import hermite
from turanstab.stability import (
    INCONCLUSIVE,
    STABLE,
    UNSTABLE,
    all_roots_real,
    cross_check_oracle,
    interlace_check,
    is_weakly_hurwitz,
    isolate_extreme_roots,
    nonvanishing_halfplane,
    rotate,
)

import oracles
from oracles import (
    RealRootCounter,
    euclid_chain,
    is_squarefree,
    root_bound,
    sign_variations_at_infinity,
)


def P(*coeffs):
    return Poly(coeffs)


class TestRotate:
    def test_linear(self):
        # (-i)(ix - 1) = x + i
        assert rotate(P(-1, 1)) == (P(0, 1), P(1))

    def test_quartic(self):
        # rotation of the unstable Fisk quartic x^4 - 2x^2 - 8x
        assert rotate(P(0, -8, -2, 0, 1)) == (P(0, 0, 2, 0, 1), P(0, -8))

    def test_leading_coefficient_stays_real(self):
        for p in (P(1, 2, 3), P(0, -8, -2, 0, 1), P(5, 0, 0, 1)):
            re, im = rotate(p)
            assert re.degree() == p.degree()
            assert re.leading == p.leading
            assert im.is_zero or im.degree() < p.degree()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            rotate(Poly())


def _upper_halfplane_count(re, im):
    """p and the monic gcd of re + i*im, from the integer half-plane counter."""
    p, g, _, _, _ = stability._halfplane_data(re.num, im.num)
    return p, Poly(g).monic()


class TestUpperHalfplaneCount:
    def test_x_minus_i(self):
        # x - i has its single zero at i, in the open upper half-plane
        assert _upper_halfplane_count(P(0, 1), P(-1)) == (1, P(1))

    def test_x_plus_i(self):
        assert _upper_halfplane_count(P(0, 1), P(1)) == (0, P(1))

    def test_cubic_example(self):
        # x^3 + 2x - 8i: two zeros above the real axis, one below
        assert _upper_halfplane_count(P(0, 2, 0, 1), P(-8)) == (2, P(1))

    def test_real_polynomial(self):
        # real input: no zeros strictly above the axis, gcd carries them all
        assert _upper_halfplane_count(P(-1, 0, 1), Poly()) == (0, P(-1, 0, 1))


class TestEuclidChain:
    def test_endpoints(self):
        chain = stability._int_chain([-2, 0, 1], [0, 2])
        assert chain[0] == [-2, 0, 1]
        # last element is the gcd up to positive scale
        assert len(chain[-1]) == 1
        assert stability._int_chain([-1, 0, 1], [])[-1] == [-1, 0, 1]

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=8),
            min_size=2,
            max_size=8,
        )
    )
    def test_content_stripping_preserves_variations(self, c):
        # the library's chain strips the content; the reference does not
        f = Poly(c)
        if f.is_zero or f.degree() < 1:
            return
        d = f.derivative()
        stripped = [Poly(e) for e in stability._int_chain(f.num, d.num)]
        raw = euclid_chain(f, d, strip_content=False)
        assert [p.degree() for p in stripped] == [p.degree() for p in raw]
        for end in ("+inf", "-inf"):
            assert sign_variations_at_infinity(stripped, end) == (
                sign_variations_at_infinity(raw, end)
            )


class TestSturm:
    def test_half_open_semantics(self):
        f = P(-1, 1) * P(-2, 1) * P(-3, 1)
        chain = RealRootCounter(f)
        assert chain.count(1, 2) == 1  # (1, 2] holds only 2
        assert chain.count(0, 1) == 1
        assert chain.count(3, 100) == 0
        assert chain.count(None, None) == 3

    def test_multiplicities_collapse(self):
        f = P(-1, 1) * P(-1, 1)
        assert RealRootCounter(f).count(None, None) == 1
        assert all_roots_real(f)

    def test_all_roots_real(self):
        assert all_roots_real(P(-2, 0, 1))
        assert not all_roots_real(P(1, 0, 1))
        assert not all_roots_real(P(1, 1, 1, 1, 1))  # cyclotomic, no real zeros

    def test_hermite_real_rooted(self):
        for h in hermite(12)[1:]:
            assert all_roots_real(h)
            assert RealRootCounter(h).count(None, None) == h.degree()

    def test_chain_on_constant(self):
        assert RealRootCounter(P(5)).count(None, None) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            all_roots_real(Poly())
        with pytest.raises(ValueError, match="zero polynomial"):
            isolate_extreme_roots(Poly(), F(1, 8))

    def test_scale_of_f_changes_nothing(self):
        # the squarefree part is not made monic: any non-zero scale of f,
        # negative included, scales its whole chain alike
        f = P(-1, 1) * P(-1, 1) * P(3, 2) * P(1, 0, 1)
        for c in (F(-3, 2), -1, F(7, 5)):
            g = f.scale(c)
            assert all_roots_real(g) == all_roots_real(f) is False
            assert isolate_extreme_roots(g, F(1, 64)) == isolate_extreme_roots(f, F(1, 64))

    def test_root_bound(self):
        # 2 <= (B/2)^2 first at B = 4
        assert root_bound(P(-2, 0, 1)) == 4
        f = P(-2, 0, 1)
        assert RealRootCounter(f).count(-root_bound(f), root_bound(f)) == 2


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

    @pytest.mark.parametrize("e", [0, 1, 5, 40])
    @pytest.mark.parametrize("c", [1, -1])
    def test_root_at_half_the_bound(self, c, e):
        # x + c 2^e has the bound 2^(e+1); at 2^e the root -2^e would sit
        # on the open end of (-B, B]
        self.check_brackets(P(c * 2**e, 1), -c * 2**e, -c * 2**e)

    def test_multiple_roots(self):
        self.check_brackets(P(0, 0, 0, 0, 1), 0, 0)  # x^4
        self.check_brackets(P(-1, 1) ** 5, 1, 1)

    def test_no_real_roots(self):
        with pytest.raises(ValueError):
            isolate_extreme_roots(P(1, 0, 1), self.TOL)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            isolate_extreme_roots(P(-1, 1), 0)


@pytest.mark.parametrize("f, bound", [
    (P(0, 0, 0, 1), 1),  # x^3: no coefficient asks for more than 2^0
    *[(P(c * 2**e, 1), 2 ** (e + 1)) for e in (0, 1, 5) for c in (1, -1)],
    (P(-1, 1) ** 5, 16),  # the coefficient 5 of x^4 needs B/2 >= 5
    (P(F(-1, 3), 0, 1), 2),  # x^2 - 1/3: 1/3 <= (B/2)^2 at B = 2
    (hermite(13)[13], 16),  # the Cauchy bound is about 8,447
], ids=["x^3", "x+1", "x-1", "x+2", "x-2", "x+32", "x-32", "(x-1)^5",
        "x^2-1/3", "H_13"])
def test_root_bound_is_the_least_power_of_two(f, bound):
    assert stability._root_bound(f.num) == root_bound(f) == bound
    counter = RealRootCounter(f)
    # every root in the open interval (-B, B)
    assert counter.count(None, -bound) == counter.count(bound, None) == 0
    assert f(bound) != 0


_BRACKET_TOLS = [F(1, 1 << 20), F(1, 3), F(1, 1 << 40)]
_BRACKET_SETS = {
    **{
        family: sequences.generate(sequences.spec(family), 14)[1:]
        for family in ("hermite", "legendre", "chebyshev_t", "laguerre")
    },
    # P_1..P_13 of the type-H windows beyond the paper's Hermite suite
    "type_h": [
        p
        for params in ((2, 0, -1), (1, F(1, 2), 3), (F(1, 3), -2, F(-1, 2)))
        for p in sequences.generate(sequences.spec("type_h", params), 13)[1:]
    ],
    # multiple roots, and midpoints of the bisection that land on a root:
    # the target of both searches (x^2 - 1 at -1 and 1, x^2 at 0) or of
    # neither (x^3 (x - 1)^3 (x + 2) at 0)
    "special": [
        P(0, 0, 1),
        P(-1, 0, 1),
        P(-1, 0, 1) ** 2,
        P(0, 0, 0, 1) * P(-1, 1) ** 3 * P(2, 1),
        P(F(-1, 2), 1) * P(F(1, 4), 1),
    ],
}


@pytest.mark.parametrize("tol", _BRACKET_TOLS, ids=["2^-20", "1/3", "2^-40"])
@pytest.mark.parametrize("name", list(_BRACKET_SETS))
def test_isolate_extreme_roots_matches_two_evaluation_reference(name, tol):
    for f in _BRACKET_SETS[name]:
        assert isolate_extreme_roots(f, tol) == oracles.isolate_extreme_roots(f, tol), f


def _real_line_inputs(rng: random.Random):
    """(f, every zero real) for squarefree products, repeated real zeros,
    repeated non-real pairs, x^m, constants and degree 1, each times a
    non-zero rational."""
    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 6))

    def scale():
        return rational() or F(-7, 3)

    for m in range(1, 7):
        yield Poly.x() ** m * scale(), True
    for _ in range(6):
        yield Poly([scale()]), True
        yield Poly([rational(), scale()]), True
    for _ in range(60):
        centres = {rational() for _ in range(rng.randint(1, 6))}
        pairs = [(rational(), rational() or 1) for _ in range(rng.randint(0, 2))]
        lines = [(Poly([-a, 1]), rng.choice([1, 1, 2, 3])) for a in centres]
        quads = [(_factor("pair", a, b), rng.choice([1, 2])) for a, b in pairs]
        for repeat in (False, True):
            f = Poly([scale()])
            for factor, mult in lines + quads:
                f = f * factor ** (mult if repeat else 1)
            yield f, not pairs


def test_real_line_answers_match_the_divide_then_chain_reference():
    tol, kinds = F(1, 1 << 16), set()
    for f, real in _real_line_inputs(random.Random(2024)):
        chain = oracles.sturm_chain_reference(f)
        polys = [Poly(c) for c in chain]
        v_minus = sign_variations_at_infinity(polys, "-inf")
        v_plus = sign_variations_at_infinity(polys, "+inf")
        assert stability._real_zero_count(f) == (chain, v_minus, v_minus - v_plus), f
        assert all_roots_real(f) == (v_minus - v_plus == len(chain[0]) - 1) == real, f
        if f.degree() > 1:  # repeated zeros: real only, or non-real too
            repeated = polycore.gcd(f, f.derivative())
            kinds.add((repeated.degree() > 0, real, all_roots_real(repeated)))
        if v_minus == v_plus:
            with pytest.raises(ValueError, match="no real roots"):
                isolate_extreme_roots(f, tol)
        else:
            want = oracles.isolate_extreme_roots(f, tol)
            assert isolate_extreme_roots(f, tol) == want, f
    assert kinds == {
        (False, True, True), (False, False, True),  # squarefree
        (True, True, True), (True, False, True), (True, False, False),
    }


@pytest.mark.parametrize(
    "f, tol, shared_steps",
    [
        (hermite(13)[13], F(1, 1 << 20), 1),
        (P(-1, 0, 1), F(1, 3), 1),  # a midpoint lands on a root
        (P(0, 0, 0, 1) * P(-1, 1) ** 3 * P(2, 1), F(1, 1 << 20), 1),
        # 3 and 6 share (-32, 32], (0, 32], (0, 16] and (0, 8]
        (P(-3, 1) * P(-5, 1) * P(-6, 1), F(1, 1 << 20), 4),
        (P(-1, 1) ** 2 * P(1, 0, 1), F(1, 1 << 20), 0),  # r = 1: one search
    ],
    ids=["H_13", "x^2-1", "x^3(x-1)^3(x+2)", "(x-3)(x-5)(x-6)", "(x-1)^2(x^2+1)"],
)
def test_isolate_extreme_roots_evaluates_only_midpoints(
        monkeypatch, f, tol, shared_steps):
    calls = []
    int_horner = stability.int_horner

    def recording(g, p, q):
        calls.append((g, F(p, q)))
        return int_horner(g, p, q)

    monkeypatch.setattr(stability, "int_horner", recording)
    brackets = isolate_extreme_roots(f, tol)
    monkeypatch.undo()
    chain = stability._real_zero_count(f)[0]
    counter = RealRootCounter(f)
    bound = root_bound(counter.squarefree)
    assert all(abs(x) != bound for _, x in calls)
    # no point gets two whole-chain evaluations
    whole = [x for g, x in calls if g == chain[-1]]
    assert len(whole) == len(set(whole))
    # replay both searches from their results: each step evaluates at the
    # midpoint of its bracket, the whole chain while the target root shares
    # the bracket (unless the first search did at the same midpoint) and the
    # squarefree part alone once the root is the only one in it, and a
    # search ends at width <= tol or on the midpoint that is its root; with
    # one real root the first search's bracket is returned twice
    rest, sign_only, shared, seen = iter(calls), 0, 0, set()
    r = counter.count(None, None)
    searches = zip((1, r), (brackets[:2], brackets[2:]))
    for j, (b_lo, b_hi) in list(searches)[: 1 if r == 1 else 2]:
        lo, hi = -bound, bound
        while hi - lo > tol:
            mid = (lo + hi) / 2
            want = chain[:1] if counter.count(lo, hi) == 1 else chain
            sign_only += len(want) == 1
            if len(want) > 1 and mid in seen:
                want, shared = [], shared + 1
            seen.add(mid)
            assert [next(rest) for _ in want] == [(g, mid) for g in want]
            if mid == b_hi and f(mid) == 0 and counter.count(None, mid) == j:
                lo, hi = max(lo, mid - tol), mid
                break
            lo, hi = (lo, mid) if mid >= b_hi else (mid, hi)
        assert (lo, hi) == (b_lo, b_hi)
    assert next(rest, None) is None
    assert sign_only > 0
    assert shared == shared_steps
    if r == 1:
        assert brackets[:2] == brackets[2:]


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
            is_weakly_hurwitz(Poly())


class TestNonvanishingHalfplane:
    def test_wronskian_strip(self):
        w = P(1, 0, 0, 0, 3)  # W(x^3 - x); all zeros have |Re| < 1
        assert nonvanishing_halfplane(w, 1, left=False)
        assert nonvanishing_halfplane(w, -1, left=True)
        assert not nonvanishing_halfplane(w, 0, left=False)
        assert not nonvanishing_halfplane(w, 0, left=True)

    def test_real_roots(self):
        # a flipped left shift, f(-x - tau), would move the zeros 1 and 3 to
        # -1 - tau and -3 - tau and read True left of 2
        f = P(-1, 1) * P(-3, 1)
        assert nonvanishing_halfplane(f, 3, left=False)
        assert not nonvanishing_halfplane(f, 2, left=False)
        assert nonvanishing_halfplane(f, 1, left=True)
        assert nonvanishing_halfplane(f, F(1, 2), left=True)
        assert not nonvanishing_halfplane(f, 2, left=True)

    def test_side_is_keyword_only(self):
        with pytest.raises(TypeError):
            nonvanishing_halfplane(P(1, 1), 0, True)


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

    def test_not_real_rooted_fails(self):
        # strictly interlacing zeros are real (Hermite-Biehler), so a
        # non-real zero in f or in g is a plain False
        assert not interlace_check(P(1, 0, 1), P(0, 1))
        assert not interlace_check(P(0, 1) * P(-1, 1) * P(-2, 1), P(1, 0, 1))
        assert not interlace_check(
            P(0, 1) * P(1, 0, 1), P(0, 1) * P(0, 1), shared_root=0
        )

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


def _variations_of_library_chain(f, x):
    """Sign changes at x along the chain of ``stability._real_zero_count``,
    each element evaluated the way ``isolate_extreme_roots`` does."""
    x = F(x)
    values = [polycore.int_horner(g, x.numerator, x.denominator)
              for g in stability._real_zero_count(f)[0]]
    run = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(run, run[1:]) if a != b)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=7),
    lead=st.integers(min_value=-9, max_value=9).filter(bool),
    root=st.fractions(min_value=-4, max_value=4, max_denominator=7),
    mid=st.one_of(
        st.none(), st.fractions(min_value=-12, max_value=12, max_denominator=9)
    ),
)
def test_sturm_count_splits_at_midpoint(data, lead, root, mid):
    # f has the rational root `root`; a None draw splits exactly there
    f = Poly(data + [lead]) * Poly([-root, 1])
    mid = root if mid is None else mid
    chain = RealRootCounter(f)
    b = root_bound(chain.squarefree)
    assert chain.count(-b, b) == chain.count(-b, mid) + chain.count(mid, b)
    assert chain.variations_at(mid) == _variations_of_library_chain(f, mid)
    assert chain.count(root - F(1, 10**6), root) >= 1


# -- the single chain against the two-chain reference -----------------

def _factor(kind, a, b):
    """x - a, the axis pair x^2 + b^2, or the pair with zeros a +- ib."""
    if kind == "linear":
        return Poly([-a, 1])
    if kind == "axis":
        return Poly([b * b, 0, 1])
    return Poly([a * a + b * b, -2 * a, 1])


def _product(kind, centres, b):
    f = Poly.one()
    for a in centres:
        f = f * _factor(kind, a, b)
    return f


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_nonzero = _rationals.filter(bool)


# -- real-root answers against the interval counter --------------------

@st.composite
def _lines_and_pairs(draw):
    """(f, real) for f = c * prod(factor^multiplicity) over rational
    linear factors x - a and non-real pairs with zeros a +- ib."""
    factors = draw(st.lists(
        st.tuples(st.booleans(), _rationals, _nonzero,
                  st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=8,
    ))
    f, real = Poly([draw(_nonzero)]), True
    for linear, a, b, mult in factors:
        f = f * _factor("linear" if linear else "pair", a, b) ** mult
        real = real and linear
    return f, real


@settings(max_examples=60, deadline=None)
@given(case=_lines_and_pairs())
# zeros 0, 1 (double) and -3: real, one zero positive
@example(case=(P(0, 1) * P(-1, 1) ** 2 * P(3, 1), True))
# -3 x^2 (x + 1/2): every zero <= 0, under a negative leading coefficient
@example(case=(P(0, 0, 1) * P(F(1, 2), 1) * -3, True))
# x (x^2 + 1)^2: a zero at 0 and a repeated non-real pair
@example(case=(P(0, 1) * P(1, 0, 1) ** 2, False))
def test_real_root_answers_match_the_interval_counter(case):
    f, real = case
    counter = RealRootCounter(f)
    distinct = counter.squarefree.degree()
    assert all_roots_real(f) == real == (counter.count(None, None) == distinct)
    # the non-positive-zeros check of the polar suite against the count
    # on (-inf, 0]
    assert (real and is_weakly_hurwitz(f).verdict) == (
        counter.count(None, 0) == distinct
    )


@st.composite
def _factored(draw):
    """(f, stable) for f = c * prod(factor^multiplicity) of degree <= 40."""
    factors = draw(st.lists(
        st.tuples(st.sampled_from(("linear", "axis", "pair")), _rationals,
                  _nonzero, st.integers(min_value=1, max_value=3)),
        min_size=1, max_size=12,
    ))
    f, stable = Poly([draw(_nonzero)]), True
    for kind, a, b, mult in factors:
        piece = _factor(kind, a, b) ** mult
        if f.degree() + piece.degree() > 40:
            break
        f = f * piece
        stable = stable and (kind == "axis" or a <= 0)
    return f, stable


def _two_chain_reference(re, im):
    """Counts the way they were computed before the single chain: gcd
    first, then a second chain on the exact quotients."""
    g = polycore.gcd(re, im)
    chain = euclid_chain(re.exact_div(g), im.exact_div(g))
    v_plus = sign_variations_at_infinity(chain, "+inf")
    v_minus = sign_variations_at_infinity(chain, "-inf")
    p = (re.degree() - g.degree() + v_plus - v_minus) // 2
    return p, g, v_plus, v_minus, len(chain)


@settings(max_examples=60, deadline=None)
@given(case=_factored())
# (x^2 + 1)^2 (x + 1)(x - 2): gcd of degree 4 from the axis pair
@example(case=(P(1, 0, 1) ** 2 * P(1, 1) * P(-2, 1), False))
# (x - 1)(x + 1)(x + 3)^3: gcd x^2 + 1 from the pair mirrored in the axis
@example(case=(P(-1, 1) * P(1, 1) * P(3, 1) ** 3, False))
# x^3 (x^2 + 2x + 5)^2: a zero on the axis and a repeated stable pair
@example(case=(P(0, 0, 0, 1) * P(5, 2, 1) ** 2, True))
# degree 60-120, where campaigns run (coefficients up to about 420 bits):
# 80 negative zeros and (x^2 + 1)^10, degree 100, gcd of degree 20
@example(case=(_product("linear", [F(-j, 2) for j in range(1, 81)], 1)
               * P(1, 0, 1) ** 10, True))
# zeros -1..-30, 24 stable pairs, the pair 1/3 +- i cubed, degree 84
@example(case=(_product("linear", range(-30, 0), 1)
               * _product("pair", [F(-j, 2) for j in range(1, 25)], 1)
               * _factor("pair", F(1, 3), 1) ** 3, False))
# zeros and pairs mirrored in the axis: the rotation is real, degree 110
@example(case=(_product("linear", [F(j, 3) for j in range(-15, 16) if j], 1)
               * P(F(1, 4), 0, 1) ** 10
               * _product("pair", [F(j, 5) for j in range(-15, 16) if j], F(1, 7)),
               False))
def test_single_chain_matches_two_chain_reference(case):
    _assert_matches_two_chain_reference(*case)


@st.composite
def _large_factored(draw):
    """(f, stable) for f = c * prod(factor) of degree 40..120, where the
    campaigns run; in about half the draws no zero has Re > 0."""
    degree = draw(st.integers(min_value=40, max_value=120))
    left = draw(st.booleans())
    factors = draw(st.lists(
        st.tuples(st.sampled_from(("linear", "axis", "pair")), _rationals, _nonzero),
        min_size=degree, max_size=degree, unique_by=lambda t: (t[0], abs(t[1])),
    ))
    f, stable = Poly([draw(_nonzero)]), True
    for kind, a, b in factors:
        if f.degree() == degree:
            break
        a = -abs(a) if left else a
        if f.degree() + 2 > degree:
            kind = "linear"
        f = f * _factor(kind, a, b)
        stable = stable and (kind == "axis" or a <= 0)
    return f, stable


@settings(max_examples=6, deadline=None)
@given(case=_large_factored())
def test_single_chain_matches_two_chain_reference_on_large_products(case):
    _assert_matches_two_chain_reference(*case)


def _assert_matches_two_chain_reference(f, stable):
    re, im = rotate(f)
    p, g, v_plus, v_minus, length = _two_chain_reference(re, im)
    assert _upper_halfplane_count(re, im) == (p, g)
    cert = is_weakly_hurwitz(f)
    assert (cert.p_upper, cert.gcd_degree, cert.v_plus, cert.v_minus,
            cert.chain_length) == (p, g.degree(), v_plus, v_minus, length)
    assert cert.verdict == stable


# -- interlacing against the isolate-and-refine reference --------------

def _isolate_real_roots(chain):
    """Disjoint half-open intervals (lo, hi], one distinct real root each."""
    bound = root_bound(chain.squarefree)
    out = []

    def recurse(lo, hi, n):
        if n == 0:
            return
        if n == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = chain.count(lo, mid)
        recurse(lo, mid, left)
        recurse(mid, hi, n - left)

    recurse(-bound, bound, chain.count(-bound, bound))
    return sorted(out)


def _shrink(interval, chain):
    lo, hi = interval
    mid = (lo + hi) / 2
    return (lo, mid) if chain.count(lo, mid) >= 1 else (mid, hi)


def _isolation_reference(f, g):
    """Strict interlacing the way it was decided before the half-plane
    counter: isolate the roots of f and g in rational intervals, refine
    until no f interval meets a g interval, then read off f, g, ..., f."""
    if not is_squarefree(f) or not is_squarefree(g):
        return False
    if g.degree() == 0:
        return True
    if polycore.gcd(f, g).degree() > 0:
        return False
    cf, cg = RealRootCounter(f), RealRootCounter(g)
    ivs_f, ivs_g = _isolate_real_roots(cf), _isolate_real_roots(cg)

    def disjoint(a, b):
        return a[1] <= b[0] or b[1] <= a[0]

    changed = True
    while changed:
        changed = False
        for i, a in enumerate(ivs_f):
            for j, b in enumerate(ivs_g):
                if not disjoint(a, b):
                    ivs_f[i] = _shrink(a, cf)
                    ivs_g[j] = _shrink(b, cg)
                    changed = True
                    a = ivs_f[i]
    labeled = sorted([(iv, "f") for iv in ivs_f] + [(iv, "g") for iv in ivs_g])
    pattern = [label for _, label in labeled]
    return pattern == ["f" if i % 2 == 0 else "g" for i in range(len(pattern))]


@st.composite
def _rooted_pair(draw):
    """(f, g, forced, f_roots, g_roots): real-rooted f of degree n and g of
    degree n - 1 with any-sign leading coefficients; interlacing by
    construction when forced, otherwise with free roots that may repeat or
    be shared."""
    n = draw(st.integers(min_value=1, max_value=6))
    forced = draw(st.booleans())
    if forced:
        points = sorted(draw(st.lists(
            _rationals, min_size=2 * n - 1, max_size=2 * n - 1, unique=True
        )))
        f_roots, g_roots = points[::2], points[1::2]
    else:
        f_roots = draw(st.lists(_rationals, min_size=n, max_size=n))
        g_roots = draw(st.lists(_rationals, min_size=n - 1, max_size=n - 1))
        if g_roots and draw(st.booleans()):
            g_roots[0] = draw(st.sampled_from(f_roots))
    f = _product("linear", f_roots, 0) * draw(_nonzero)
    g = _product("linear", g_roots, 0) * draw(_nonzero)
    return f, g, forced, f_roots, g_roots


def _real_rooted_pair():
    """(f, g, forced) of ``_rooted_pair``."""
    return _rooted_pair().map(lambda case: case[:3])


@settings(max_examples=100, deadline=None)
@given(case=_real_rooted_pair())
# f has the double root 1, and g its simple root 1 as well
@example(case=(P(-1, 1) ** 2 * P(1, 1), P(-1, 1) * P(-2, 1), False))
# g's root 1 lies outside f's roots -1, 0: not interlacing
@example(case=(P(1, 1) * P(0, 1), -P(-1, 1), False))
# negative leading coefficients on both sides of an interlacing pair
@example(case=(-P(-1, 0, 1) * P(-3, 1), P(0, -2) * P(-2, 1) * F(1, 3), True))
def test_interlace_matches_isolation_reference(case):
    f, g, forced = case
    got = interlace_check(f, g)
    assert got == _isolation_reference(f, g)
    if forced:
        assert got


@settings(max_examples=100, deadline=None)
@given(case=_rooted_pair(), data=st.data())
def test_shared_root_leaves_the_answer_unchanged(case, data):
    # gcd(f (x - r), g (x - r)) = (x - r) gcd(f, g), so the quotient that is
    # counted is the same; r is free or a root of f or of g
    f, g, _, f_roots, g_roots = case
    r = data.draw(st.one_of(_rationals, st.sampled_from(f_roots + g_roots)))
    linear = Poly([-r, 1])
    got = interlace_check(f * linear, g * linear, shared_root=r)
    assert got == interlace_check(f, g)


# -- the interval Routh fast path against the exact chain --------------

def _monic_gcd(data):
    p, g, *counts = data
    return (p, Poly(g).monic(), *counts)


def _both_paths(f):
    """(fast, exact) half-plane data of f, gcds made monic; fast is None
    when the interval Routh test does not certify f."""
    num = polycore.clear_denominators(f)
    exact = stability._halfplane_data(*stability._rotated_parts(num))
    fast = stability._routh_data(num)
    return fast and _monic_gcd(fast), _monic_gcd(exact)


def _gated_in(f):
    """f = x^m h with deg h >= 32: the cells the fast path must certify."""
    num = polycore.clear_denominators(f)
    return len(num) - next(i for i, c in enumerate(num) if c) > 32


def _campaign_cells(tier):
    k_max, n_max = harness.TIER_LIMITS[tier]
    for family, reflect in (("bell", False), ("laguerre", True), ("bessel", False)):
        seq = sequences.generate(sequences.spec(family), k_max + 2 * n_max)
        for k in range(k_max + 1):
            for n in range(1, n_max + 1):
                expr = expressions.extended_turan(seq, k, n)
                expr = expressions.reflect_shift(expr, reflect, 0)
                yield (family, k, n), expr


def test_routh_certifies_every_desk_cell_past_the_gate():
    certified = 0
    for cell, expr in _campaign_cells("desk"):
        fast, exact = _both_paths(expr)
        if _gated_in(expr):
            assert fast == exact, cell
            certified += 1
        else:
            assert fast is None, cell
    assert certified == 90


def test_routh_matches_exact_chain_on_full_tier_sample():
    cells = [(cell, expr) for cell, expr in _campaign_cells("full") if _gated_in(expr)]
    for cell, expr in random.Random(harness.DEFAULT_SEED).sample(cells, 9):
        fast, exact = _both_paths(expr)
        assert fast == exact, cell


_positive = st.fractions(min_value=F(1, 7), max_value=3, max_denominator=7)


@st.composite
def _stable_times_monomial(draw):
    """c x^m prod(linear) prod(quadratic), strictly stable apart from x^m,
    of degree 32..120 (the gate and the campaigns' top degree)."""
    degree = draw(st.integers(min_value=32, max_value=120))
    pairs = draw(st.lists(st.tuples(_positive, _positive), max_size=degree // 2))
    roots = draw(st.lists(_positive, min_size=degree - 2 * len(pairs),
                          max_size=degree - 2 * len(pairs)))
    f = _product("linear", [-a for a in roots], 1)
    for a, b in pairs:
        f = f * _factor("pair", -a, b)
    m = draw(st.integers(min_value=0, max_value=5))
    return f * P(*[0] * m, draw(_nonzero))


@settings(max_examples=10, deadline=None)
@given(f=_stable_times_monomial())
def test_routh_matches_exact_chain_on_stable_products(f):
    fast, exact = _both_paths(f)
    assert fast == exact
    assert is_weakly_hurwitz(f).verdict


# zeros -1..-20 and -j +- i for j = 1..6: strictly stable, degree 32
_BASE = _product("linear", range(-20, 0), 1) * _product("pair", range(-6, 0), 1)


@pytest.mark.parametrize("b", [1, 2, 3, 5, F(1, 3), F(7, 2)])
@pytest.mark.parametrize("base", [_BASE, _BASE * P(1, 1) ** 5], ids=["deg32", "deg37"])
def test_routh_refuses_an_imaginary_axis_pair(base, b):
    f = base * _factor("axis", 0, b)
    assert min(polycore.clear_denominators(f)) > 0  # the interval test runs
    fast, exact = _both_paths(f)
    assert fast is None
    assert is_weakly_hurwitz(f).gcd_degree == 2


@pytest.mark.parametrize("b", [1, 3, F(1, 2)])
def test_routh_refuses_a_hair_unstable_pair(b):
    f = _BASE * _factor("pair", F(1, 2**40), b)  # just right of the axis
    assert min(polycore.clear_denominators(f)) > 0  # the interval test runs
    fast, exact = _both_paths(f)
    assert fast is None
    assert not is_weakly_hurwitz(f).verdict


def _wide(f):
    """f = x^m h with deg h in 2..31 and h's primitive part at least
    4 (deg h + 1) bits wide: the inputs the width gate lets in."""
    num = polycore.clear_denominators(f)
    h = num[next(i for i, c in enumerate(num) if c):]
    top = max(abs(c) for c in h) // math.gcd(*h)
    return 2 <= len(h) - 1 < 32 and top.bit_length() >= 4 * len(h)


def _hermite_windows():
    """The thm12 type-H inputs: each Hermite Turan expression moved to the
    inner bracket ends of the extreme zeros of P_{k+1}, on both sides."""
    seq = sequences.hermite(14)
    for k in range(13):
        expr = expressions.turan(seq, k)
        _, m_hi, M_lo, _ = isolate_extreme_roots(seq[k + 1], harness.EXTREME_ROOT_TOL)
        yield (k, "right"), expr.compose_linear(1, M_lo)
        yield (k, "left"), expr.compose_linear(-1, m_hi)


def test_routh_certifies_every_hermite_window():
    certified = 0
    for case, f in _hermite_windows():
        if f.degree() == 0:  # k = 0: a positive constant, no chain at all
            assert case[0] == 0 and is_weakly_hurwitz(f).verdict
            continue
        assert _wide(f), case
        fast, exact = _both_paths(f)
        assert fast == exact, case
        certified += 1
    assert certified == 24


def _wronskian_windows():
    """The inputs of ``verify_wronskian_strip(100)`` at the default seed:
    each Wronskian moved right of 1 and, reflected, left of -1."""
    rng = random.Random(harness.DEFAULT_SEED)
    for sample in range(100):
        poly = Poly.one()
        for _ in range(rng.randint(1, 10)):
            poly = poly * Poly([-harness.random_rational(rng), 1])
        w = expressions.wronskian(poly)
        yield (sample, "right"), expressions.reflect_shift(w, False, 1)
        yield (sample, "left"), expressions.reflect_shift(w, True, 1)


def test_routh_certifies_every_wronskian_window():
    certified = 0
    for case, f in _wronskian_windows():
        if _wide(f):
            fast, exact = _both_paths(f)
            assert fast == exact, case
            certified += 1
    assert certified == 152


@st.composite
def _small_stable_shifted(draw):
    """A strictly stable c x^m prod(linear) prod(quadratic) of degree
    2..31, moved left by an odd multiple of 2^-20."""
    degree = draw(st.integers(min_value=2, max_value=31))
    pairs = draw(st.lists(st.tuples(_positive, _positive), max_size=degree // 2))
    roots = draw(st.lists(_positive, min_size=degree - 2 * len(pairs),
                          max_size=degree - 2 * len(pairs)))
    f = _product("linear", [-a for a in roots], 1)
    for a, b in pairs:
        f = f * _factor("pair", -a, b)
    s = F(2 * draw(st.integers(min_value=0, max_value=1 << 20)) + 1, 1 << 20)
    m = draw(st.integers(min_value=0, max_value=3))
    return f.compose_linear(1, s) * P(*[0] * m, draw(_nonzero))


@settings(max_examples=25, deadline=None)
@given(f=_small_stable_shifted())
def test_routh_matches_exact_chain_on_small_wide_products(f):
    assert _wide(f)  # the odd shift leaves the primitive part wide
    fast, exact = _both_paths(f)
    assert fast == exact


# zeros -1 - j/2^20 for j = 1..6: coefficients of about 120 bits at degree 6
_WIDE = _product("linear", [-1 - F(j, 1 << 20) for j in range(1, 7)], 1)


@pytest.mark.parametrize("b", [1, 3, F(1, 2)])
def test_routh_refuses_a_wide_axis_pair(b):
    f = _WIDE * _factor("axis", 0, b)
    assert _wide(f) and min(polycore.clear_denominators(f)) > 0  # it runs
    fast, exact = _both_paths(f)
    assert fast is None
    assert is_weakly_hurwitz(f).gcd_degree == 2


@pytest.mark.parametrize("b", [1, 3, F(1, 2)])
def test_routh_refuses_a_wide_hair_unstable_pair(b):
    f = _WIDE * _factor("pair", F(1, 2**40), b)  # just right of the axis
    assert _wide(f) and min(polycore.clear_denominators(f)) > 0  # it runs
    fast, exact = _both_paths(f)
    assert fast is None
    assert not is_weakly_hurwitz(f).verdict


# (x + 1)^7 (x + 2^e + 1): strictly stable, monic, of degree 8, with the
# top coefficient 35 (2^e + 2) of e + 6 bits; the width gate asks for 36
def _at_width(e):
    return P(1, 1) ** 7 * P(2**e + 1, 1)


@pytest.mark.parametrize("f", [
    _BASE.exact_div(P(1, 1)),  # degree 31, below the gate and narrow
    _product("linear", range(-5, 0), 1) * 2**400,  # narrow once primitive
    _at_width(29),  # 35 bits, one under the width gate at degree 8
    Poly([*_BASE.num[:5], 0, *_BASE.num[6:]]),  # a zero coefficient
    Poly([*_BASE.num[:5], -1, *_BASE.num[6:]]),  # a negative coefficient
], ids=["degree-31", "wide-content", "one-bit-narrow", "zero-coefficient",
        "negative-coefficient"])
def test_routh_does_not_try(f):
    assert stability._routh_data(polycore.clear_denominators(f)) is None


def test_routh_certifies_at_the_gate():
    fast, exact = _both_paths(_BASE * P(0, 0, -3))
    assert fast == exact == (32, P(0, 0, 1), 33, 32, 0)


def test_routh_certifies_at_the_width_gate():
    f = _at_width(30)
    assert max(f.num).bit_length() == 4 * 9 and _wide(f)
    assert not _wide(_at_width(29))
    fast, exact = _both_paths(f)
    assert fast == exact == (8, P(1), 9, 8, 0)


def _stripped(f):
    """(m, h) for the numerators of f = x^m h, h with a positive leading
    coefficient: the input of the interval Routh kernel."""
    num = polycore.clear_denominators(f)
    m = next(i for i, c in enumerate(num) if c)
    return m, num[m:] if num[-1] > 0 else [-c for c in num[m:]]


def _closed_form(f):
    """The certificate of f = x^m h with h strictly stable, gcd monic."""
    m, h = _stripped(f)
    d = len(h) - 1
    return d, P(*[0] * m, 1), d + 1, d, 0


def _deep_cell(family, reflect, k, n):
    seq = sequences.generate(sequences.spec(family), k + 2 * n)
    return expressions.reflect_shift(expressions.extended_turan(seq, k, n), reflect, 0)


def test_routh_certifies_a_deep_reflected_laguerre_cell():
    # its Routh rows span about 200 bits, which rows sharing one shift
    # could not resolve at 8 (deg h + 1) bits
    f = _deep_cell("laguerre", True, 54, 10)
    fast, exact = _both_paths(f)
    assert fast == exact == _closed_form(f)


def test_routh_retries_a_straddle_at_6_bits_per_coefficient(monkeypatch):
    f = _deep_cell("bessel", False, 100, 1)
    assert f.degree() == 202
    _, h = _stripped(f)
    assert stability._routh_rows(h, 5 * len(h)) is None
    assert stability._routh_rows(h, 6 * len(h)) is True
    kernel, calls = stability._routh_rows, []
    monkeypatch.setattr(stability, "_routh_rows",
                        lambda h, bits: calls.append(bits) or kernel(h, bits))
    cert = is_weakly_hurwitz(f)
    assert calls == [5 * len(h), 6 * len(h)]
    assert cert.verdict
    assert (cert.p_upper, P(*[0] * cert.gcd_degree, 1), cert.chain_length,
            cert.v_plus, cert.v_minus) == _closed_form(f)


def test_routh_refuses_a_certain_sign_without_a_retry(monkeypatch):
    # zeros 1/8 +- i and -1..-38: the interval rows prove a sign change
    f = _product("linear", range(-38, 0), 1) * _factor("pair", F(1, 8), 1)
    _, h = _stripped(f)
    assert len(h) == 41 and min(h) > 0  # the interval test runs
    kernel, calls = stability._routh_rows, []
    monkeypatch.setattr(stability, "_routh_rows",
                        lambda h, bits: calls.append(bits) or kernel(h, bits))
    assert stability._routh_data(h) is None
    assert calls == [5 * 41]
    assert not is_weakly_hurwitz(f).verdict


def test_routh_refuses_on_any_entry_of_a_row():
    # rows [24, 17, 30] and [11, 4, 20]: the next row's second entry,
    # 11*30 - 24*20, is certainly negative even at 2 bits, two rows before
    # the first column turns negative where 2 bits cannot tell its sign
    h = [20, 30, 4, 17, 11, 24]
    assert stability._routh_rows(h, 2) is False
    assert stability._routh_rows(h, 64) is False


def _spread(scale, a):
    return a * F(2) ** scale


@st.composite
def _spread_stable(draw):
    """c x^m prod(linear) prod(quadratic) of degree 32..120, strictly stable
    apart from x^m, whose zeros have moduli spread over 2^-20..2^20."""
    scales = st.integers(min_value=-20, max_value=20)
    degree = draw(st.integers(min_value=32, max_value=120))
    pairs = draw(st.lists(st.tuples(scales, _positive, _positive), max_size=degree // 2))
    roots = draw(st.lists(st.tuples(scales, _positive), min_size=degree - 2 * len(pairs),
                          max_size=degree - 2 * len(pairs)))
    f = _product("linear", [-_spread(*r) for r in roots], 1)
    for s, a, b in pairs:
        f = f * _factor("pair", -_spread(s, a), _spread(s, b))
    m = draw(st.integers(min_value=0, max_value=5))
    return f * P(*[0] * m, draw(_nonzero))


@settings(max_examples=15, deadline=None)
@given(f=_spread_stable(), bits=st.integers(min_value=1, max_value=400))
def test_routh_certifies_spread_stable_products(f, bits):
    # past degree 60 the exact chain takes seconds at these widths, so the
    # draw is held to the certificate the chain gives every strictly
    # stable input (test_routh_matches_exact_chain_on_stable_products)
    fast = stability._routh_data(polycore.clear_denominators(f))
    assert fast is not None and _monic_gcd(fast) == _closed_form(f)
    # and at no precision does the kernel call a stable h unstable
    assert stability._routh_rows(_stripped(f)[1], bits) is not False


@pytest.mark.parametrize("factor", [
    _factor("axis", 0, 3), _factor("axis", 0, F(1, 3)),
    _factor("pair", F(1, 2**40), 1), _factor("pair", F(1, 2**40), 3),
], ids=["axis-3", "axis-1/3", "hair-1", "hair-3"])
def test_routh_certifies_no_unstable_input_at_any_precision(factor):
    _, h = _stripped(_BASE * factor)
    assert min(h) > 0  # the interval test runs
    assert all(stability._routh_rows(h, bits) is not True for bits in range(1, 300))


def _routh_oracle_cases():
    """Seeded positive-coefficient h of degree 2..40, eight of each kind:
    strictly stable products, and stable products times a pair 2^-s right
    of the imaginary axis (s = 1..40) or times an axis pair."""
    rng = random.Random(harness.DEFAULT_SEED)

    def rational():
        return F(rng.randint(1, 21), rng.randint(1, 7))

    def stable(degree):
        pairs = rng.randint(0, degree // 2)
        f = _product("linear", [-rational() for _ in range(degree - 2 * pairs)], 1)
        for _ in range(pairs):
            f = f * _factor("pair", -rational(), rational())
        return f

    for kind in ("stable", "hair", "axis"):
        found = 0
        while found < 8:
            degree = rng.randint(2, 40)
            if kind == "stable":
                f = stable(degree)
            elif kind == "hair":
                f = stable(degree - 2) * _factor("pair", F(1, 2 ** rng.randint(1, 40)), rational())
            else:
                f = stable(degree - 2) * _factor("axis", 0, rational())
            h = _stripped(f)[1]
            if min(h) > 0:  # the kernel's input
                found += 1
                yield kind, h


def test_routh_rows_agree_with_the_exact_table_at_every_precision():
    # True must mean every exact entry is > 0, False that one is <= 0
    seen = set()
    for kind, h in _routh_oracle_cases():
        table = oracles.routh_table(h)
        positive = len(table) == len(h) and all(x > 0 for row in table for x in row)
        assert positive == (kind == "stable"), kind
        for bits in range(1, 201):
            got = stability._routh_rows(h, bits)
            if got is not None:
                assert got == positive, (kind, len(h) - 1, bits)
            seen.add((kind, got))
    # both rules are exercised
    assert {("stable", True), ("hair", False)} <= seen


def _traced_routh_rows(h, bits):
    """``stability._routh_rows(h, bits)`` and what it formed, read off its
    frame by a line tracer: (answer, rows, mus), rows[i] the entries
    (lo, hi, e) of table row i (the last one partial if the kernel left
    during it) and mus[i] = (mu_lo, dmu, mu_e), the enclosure of
    r_i[0] / r_{i+1}[0].  Nothing in the kernel is changed to expose them."""
    code = stability._routh_rows.__code__
    rows, mus = [], {}

    def local(frame, event, arg):
        loc = frame.f_locals
        if "row" not in loc:  # the two initial rows are not built yet
            return local
        if not rows:
            rows.append(loc["prev"])
        if loc["row"] is not rows[-1]:
            rows.append(loc["row"])
        # between new = [] and the shift of the rows: mu is this row's
        if "new" in loc and loc["new"] is not loc["row"]:
            mus[len(rows) - 2] = loc["mu_lo"], loc["dmu"], loc["mu_e"]
            if event == "return":
                rows.append(loc["new"])
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        answer = stability._routh_rows(h, bits)
    finally:
        sys.settrace(previous)
    return answer, rows, mus


@pytest.mark.parametrize("bits", [8, 16, 40])
def test_routh_rows_enclose_the_exact_table(bits):
    # every entry [lo, hi] 2^e the kernel forms holds the exact entry of
    # the classical table, and every mu enclosure the exact ratio, so a
    # rounding turned the wrong way shows even where the answer survives
    entries = ratios = 0
    for kind, h in _routh_oracle_cases():
        table = oracles.routh_table(h)
        answer, rows, mus = _traced_routh_rows(h, bits)
        assert answer == stability._routh_rows(h, bits)
        if answer:
            assert len(rows) == len(h) and len(mus) == len(h) - 2
        for i, (row, exact) in enumerate(zip(rows, table)):
            for (lo, hi, e), x in zip(row, exact):
                assert lo * F(2) ** e <= x <= hi * F(2) ** e, (kind, bits, i)
                entries += 1
        for i, (mu_lo, dmu, e) in mus.items():
            mu = table[i][0] / table[i + 1][0]
            assert mu_lo * F(2) ** e <= mu <= (mu_lo + dmu) * F(2) ** e, (kind, bits, i)
            ratios += 1
    assert entries > 1000 and ratios > 90
