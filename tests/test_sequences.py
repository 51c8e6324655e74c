"""Family generators, the type A/H recurrences and the polar relations."""

import hashlib
from fractions import Fraction as F

import pytest

from turanstab import stability
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


class TestOperators:
    def test_type_a_bell_step(self):
        assert type_a(1, 0, [1, 1], 2) == [P(1), P(0, 1), P(0, 1, 1)]

    def test_type_a_general(self):
        assert type_a(2, 1, [3], 1)[1] == P(6, 6)

    def test_type_a_rejects_zero_a(self):
        for k_max in (1, 0):
            with pytest.raises(ValueError, match="type A requires a != 0"):
                type_a(0, 0, [1] * k_max, k_max)

    def test_type_h_hermite_steps(self):
        assert type_h(2, 0, -1, 2) == [P(1), P(0, 2), P(-2, 0, 4)]

    def test_type_h_general(self):
        assert type_h(1, 1, 1, 1)[1] == P(1, -1)

    def test_type_h_rejects_bad_params(self):
        for k_max in (1, 0):
            with pytest.raises(ValueError, match="type H requires a > 0"):
                type_h(-1, 0, 1, k_max)
            with pytest.raises(ValueError, match="type H requires c != 0"):
                type_h(1, 0, 0, k_max)


class TestRelations:
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
            ("type_a", [0, 0, 1], "type_a requires a != 0"),
            ("type_a", [1, -1, 1], "type_a requires b >= 0"),
            ("type_a", [1, 0, 0], "type_a requires c0 > 0"),
            ("type_a", [1, 0, 2, 1], "type_a requires a non-decreasing c list"),
            ("type_a", [1, 0], "type_a takes parameters a,b,c0,...; got 2"),
            ("type_h", [0, 0, 1], "type_h requires a > 0"),
            ("type_h", [2, 0, 0], "type_h requires c != 0"),
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
                assert stability.SturmChain(q).count(0, None) == 0
                assert q(0) != 0
        for k in range(2, 15):
            assert stability.interlace_check(seq[k], seq[k - 1], shared_root=0)
