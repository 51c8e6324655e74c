"""Family generators, the type A/H recurrences and the polar relations."""

import hashlib
import random
from fractions import Fraction as F

import pytest

from turanstab import sequences, stability
from turanstab.harness import DEFAULT_SEED, polar_unit_sequence
from turanstab.polycore import Poly
from turanstab.sequences import (
    POLAR_SCALED,
    POLAR_UNIT,
    SequenceSpec,
    bell,
    bessel,
    chebyshev_t,
    chebyshev_u,
    generate,
    hermite,
    jensen,
    laguerre,
    legendre,
    spec,
    type_a,
    type_h,
    verify_relation,
)

from oracles import (
    RealRootCounter,
    first_order_reference,
    three_term_reference,
    verify_relation_reference,
)


def P(*coeffs):
    return Poly(coeffs)


class TestNamedFamilies:
    def test_bell(self):
        # hand-applied recurrence B_{k+1} = x(B_k + B_k') from B_0 = 1
        assert bell(4) == [
            P(1),
            P(0, 1),
            P(0, 1, 1),
            P(0, 1, 3, 1),
            P(0, 1, 7, 6, 1),
        ]

    def test_hermite(self):
        assert hermite(3) == [P(1), P(0, 2), P(-2, 0, 4), P(0, -12, 0, 8)]

    def test_chebyshev_t(self):
        assert chebyshev_t(3) == [P(1), P(0, 1), P(-1, 0, 2), P(0, -3, 0, 4)]

    def test_chebyshev_u(self):
        assert chebyshev_u(3) == [P(1), P(0, 2), P(-1, 0, 4), P(0, -4, 0, 8)]

    def test_bessel(self):
        assert bessel(2) == [P(1), P(1, 1), P(1, 3, 3)]

    def test_laguerre(self):
        assert laguerre(2) == [P(1), P(1, -1), P(1, -2, F(1, 2))]

    def test_legendre(self):
        assert legendre(3) == [
            P(1),
            P(0, 1),
            P(F(-1, 2), 0, F(3, 2)),
            P(0, F(-3, 2), 0, F(5, 2)),
        ]

    def test_jensen_all_ones(self):
        # gamma == 1 gives the binomial expansions (1+x)^n
        assert jensen([1, 1, 1], 2) == [P(1), P(1, 1), P(1, 2, 1)]

    def test_degree_contract(self):
        for seq in (bell(12), hermite(12), chebyshev_t(12), chebyshev_u(12),
                    laguerre(12), legendre(12), bessel(12)):
            for k, p in enumerate(seq):
                assert p.degree() == k

    def test_jensen_degree_drops_with_vanishing_gamma(self):
        seq = jensen([1, 1, 0], 2)
        assert seq[2].degree() == 1

    # sha256 of the to_text() lines of P_0..P_60, each ending in a newline:
    # the literal tests above stop at degree 4
    DIGESTS_60 = {
        bell: "616b493a50b7ed28547f4df2ff5a7ad27ff980c691fc56c64cf7e560dc3a0332",
        hermite: "10e07647ff3d23df72ac8b14e2c1d1c2c0804b90eb54f6f8179e91473e0a85b3",
        chebyshev_t: "012fe7889a560535741a7791296222172cb2e0338944075738749dbf2fb87d01",
        chebyshev_u: "18d69ea2bdc629917d689440c63b21fd551ae0d625ace9c8e279edf8953b2068",
        laguerre: "04f0584b950541f08bfd12e281a1969d7f02291d51e86369ef93a80abf1e2a3a",
        legendre: "9bc7f804943a72ca79dad872e354f0917f4a0e7b18f0c93ed36bef3f331870b3",
        bessel: "dcdcae4083ca796c7e9c13dc2e67b147fe7b2600d3ba0b9123cdbf15f98c3c6a",
    }

    @pytest.mark.parametrize("family", DIGESTS_60, ids=lambda f: f.__name__)
    def test_members_to_degree_60_are_pinned(self, family):
        text = "".join(p.to_text() + "\n" for p in family(60))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS_60[family]


class TestIntegerGenerators:
    """The generators build each member as one integer list over one
    denominator and normalise it once; the same recurrences in Poly
    arithmetic give the same members."""

    @pytest.mark.parametrize(
        "family", [bell, hermite, chebyshev_t, chebyshev_u, laguerre, legendre, bessel],
        ids=lambda f: f.__name__)
    def test_named_families_to_k_120(self, family, monkeypatch):
        got = family(120)
        monkeypatch.setattr(sequences, "_first_order", first_order_reference)
        monkeypatch.setattr(sequences, "_three_term", three_term_reference)
        assert family(120) == got

    def test_signed_rational_parameters(self):
        # the type A shape m = a(x + b), ell_k = c_k and the type H shape
        # m = c, ell_k = b - a x, with a, b and c of either sign, beyond
        # what the families' hypotheses admit; and three-term recurrences
        rng = random.Random(DEFAULT_SEED)

        def rational():
            return F(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 12))

        k_max = 30
        for _ in range(10):
            a, b, c = rational(), rational(), rational()
            cs = [Poly([rational()]) for _ in range(k_max)]
            for m, ells in ((Poly([a * b, a]), cs), (Poly([c]), [Poly([b, -a])] * k_max)):
                got = sequences._first_order(m, ells, k_max)
                assert got == first_order_reference(m, ells, k_max)
            alphas = [rational() for _ in range(k_max)]
            betas = [rational() for _ in range(k_max)]
            p1 = Poly([rational(), rational()])
            got = sequences._three_term(p1, alphas.__getitem__, betas.__getitem__, k_max)
            assert got == three_term_reference(p1, alphas.__getitem__,
                                               betas.__getitem__, k_max)


# a parameter list that breaks each family hypothesis, and the message
HYPOTHESES = [
    ("type_a", [0, 0, 1], "type_a requires a != 0"),
    ("type_a", [1, -1, 1], "type_a requires b >= 0"),
    ("type_a", [1, 0, 0], "type_a requires c0 > 0"),
    ("type_a", [1, 0, 2, 1], "type_a requires a non-decreasing c list"),
    ("type_h", [0, 0, 1], "type_h requires a > 0"),
    ("type_h", [2, 0, 0], "type_h requires c != 0"),
]


class TestOperators:
    def test_type_a_bell_step(self):
        assert type_a(1, 0, [1, 1], 2) == [P(1), P(0, 1), P(0, 1, 1)]

    def test_type_a_general(self):
        assert type_a(2, 1, [3], 1)[1] == P(6, 6)

    def test_type_a_rejects_zero_a(self):
        for k_max in (1, 0):
            with pytest.raises(ValueError, match="type_a requires a != 0"):
                type_a(0, 0, [1] * k_max, k_max)

    def test_type_h_hermite_steps(self):
        assert type_h(2, 0, -1, 2) == [P(1), P(0, 2), P(-2, 0, 4)]

    def test_type_h_general(self):
        assert type_h(1, 1, 1, 1)[1] == P(1, -1)

    def test_type_h_rejects_bad_params(self):
        for k_max in (1, 0):
            with pytest.raises(ValueError, match="type_h requires a > 0"):
                type_h(-1, 0, 1, k_max)
            with pytest.raises(ValueError, match="type_h requires c != 0"):
                type_h(1, 0, 0, k_max)

    def test_general_parameters_match_the_recurrences(self):
        rng = random.Random(DEFAULT_SEED)

        def rational(lo, hi):
            return F(rng.randint(lo, hi), rng.randint(1, 5))

        for _ in range(6):
            a = rational(1, 9) * rng.choice((-1, 1))
            b = rational(0, 9)
            c = sorted(rational(1, 9) for _ in range(8))
            # type A: m = a (x + b), l_k = c_k
            want = first_order_reference(Poly([a * b, a]), [Poly([v]) for v in c], 8)
            assert type_a(a, b, c, 8) == want
            a, b = rational(1, 9), rational(-9, 9)
            c = rational(1, 9) * rng.choice((-1, 1))
            # type H: m = c, l_k = b - a x
            want = first_order_reference(Poly([c]), [Poly([b, -a])] * 8, 8)
            assert type_h(a, b, c, 8) == want

    @pytest.mark.parametrize("family, params, message", HYPOTHESES)
    def test_spec_and_generator_give_one_message(self, family, params, message):
        with pytest.raises(ValueError) as from_spec:
            spec(family, params)
        with pytest.raises(ValueError) as from_generator:
            if family == "type_a":
                type_a(params[0], params[1], params[2:], 1)
            else:
                type_h(*params, 1)
        assert str(from_spec.value) == str(from_generator.value) == message


def _relation_cases():
    """(id, sequence, the relation it satisfies): the canonical polar-unit
    family, Laguerre and seeded Jensen sequences, the last with a zero
    gamma_12, so P_12 has degree 11."""
    yield "polar_unit", polar_unit_sequence(20), POLAR_UNIT
    yield "laguerre", laguerre(30), POLAR_SCALED
    rng = random.Random(DEFAULT_SEED)
    for i in range(3):
        gamma = [F(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 20))
                 for _ in range(21)]
        if i == 2:
            gamma[12] = F(0)
        yield f"jensen{i}", jensen(gamma, 20), POLAR_SCALED


def _spoiled(seq, rng):
    """seq with one member other than the last changed in one coefficient,
    and seq with one member doubled.  The last member's top coefficient is
    the one entry no polar relation constrains, so it is never the one
    changed."""
    i = rng.randrange(len(seq) - 1)
    coeffs = list(seq[i].coeffs)
    coeffs[rng.randrange(len(coeffs))] += F(1, 7)
    yield [*seq[:i], Poly(coeffs), *seq[i + 1:]]
    i = rng.randrange(len(seq))
    yield [*seq[:i], seq[i].scale(2), *seq[i + 1:]]


RELATION_CASES = list(_relation_cases())
each_relation_case = pytest.mark.parametrize(
    "seq, holds", [case[1:] for case in RELATION_CASES],
    ids=[case[0] for case in RELATION_CASES])


class TestRelations:
    @each_relation_case
    def test_numerator_check_matches_the_poly_reference(self, seq, holds):
        assert verify_relation_reference(seq, holds)
        for relation in (POLAR_UNIT, POLAR_SCALED):
            want = verify_relation_reference(seq, relation)
            assert verify_relation(seq, relation) == want, relation

    @each_relation_case
    def test_spoiled_members_break_the_relation(self, seq, holds):
        rng = random.Random(len(seq))
        for spoiled in _spoiled(seq, rng):
            assert not verify_relation_reference(spoiled, holds)
            for relation in (POLAR_UNIT, POLAR_SCALED):
                want = verify_relation_reference(spoiled, relation)
                assert verify_relation(spoiled, relation) == want, relation

    def test_a_zero_gamma_drops_the_degree(self):
        seq = {case[0]: case[1] for case in RELATION_CASES}["jensen2"]
        assert [p.degree() for p in seq[11:14]] == [11, 11, 13]

    def test_laguerre_polar_scaled(self):
        assert verify_relation(laguerre(6), POLAR_SCALED)

    def test_jensen_binomial_polar_scaled(self):
        assert verify_relation(jensen([1] * 7, 6), POLAR_SCALED)

    def test_bell_fails_polar_unit(self):
        assert not verify_relation(bell(3), POLAR_UNIT)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            verify_relation(bell(3), "nope")


class TestSpec:
    def test_generate_dispatch(self):
        assert generate(spec("bell"), 2) == bell(2)
        assert generate(spec("jensen", [1, 1, 1]), 2) == jensen([1, 1, 1], 2)
        got = generate(spec("type_a", [1, 0, 1, 1, 1]), 3)
        assert got == bell(3)
        got_h = generate(spec("type_h", ["2", "0", "-1"]), 3)
        assert got_h == hermite(3)

    def test_params_are_fractions_in_table_order(self):
        s = spec("type_a", ["1", "1/2", 1, 2])
        assert s == SequenceSpec("type_a", (F(1), F(1, 2), F(1), F(2)))
        assert all(type(v) is F for v in s.params)
        assert spec("bell").params == ()

    def test_invariant_enforcement(self):
        cases = [
            *HYPOTHESES,
            ("type_a", [1, 0], "type_a takes parameters a,b,c0,...; got 2"),
            ("type_h", [2, 0, 1, 1], "type_h takes parameters a,b,c; got 4"),
            ("jensen", [], "jensen takes parameters gamma0,...; got 0"),
            ("bell", [1, 2], "bell takes no parameters; got 2"),
            ("nope", [], "unknown family 'nope'"),
        ]
        for family, params, message in cases:
            with pytest.raises(ValueError) as exc:
                spec(family, params)
            assert str(exc.value) == message
            # a spec built directly is checked the same way
            with pytest.raises(ValueError):
                SequenceSpec(family, tuple(params))

    def test_c_list_too_short(self):
        with pytest.raises(ValueError):
            generate(spec("type_a", [1, 0, 1]), 3)


class TestStructuralInvariants:
    def test_real_rootedness_type_a_type_h(self):
        # both recurrence shapes preserve real-rootedness
        seqs = [
            type_a(1, 0, [1] * 20, 20),
            type_a(2, 1, [F(j + 1, 2) for j in range(20)], 20),
            type_h(2, 0, -1, 20),
            type_h(1, F(1, 2), 3, 20),
        ]
        for seq in seqs:
            for p in seq:
                if p.degree() >= 1:
                    assert stability.all_roots_real(p)

    def test_hermite_parity(self):
        for k, h in enumerate(hermite(20)):
            assert h.compose_linear(-1, 0) == (h if k % 2 == 0 else -h)

    def test_bell_interlacing_chain(self):
        seq = bell(15)
        x = Poly.x()
        quotients = [p.exact_div(x) for p in seq[1:]]
        for q in quotients:
            if q.degree() >= 1:
                assert stability.all_roots_real(q)
                assert RealRootCounter(q).count(0, None) == 0
                assert q(0) != 0
        # consecutive members share the zero 0, and interlace once it is
        # divided out: quotients[k - 1] is seq[k] / x
        for k in range(2, 15):
            assert not stability.interlace_check(seq[k], seq[k - 1])
            assert stability.interlace_check(quotients[k - 1], quotients[k - 2])
