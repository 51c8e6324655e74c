"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line of the form

    [criterion N] <name>: PASS (t.ts)

and enforces both the mathematical claim and its runtime budget.  All
arithmetic on verdict paths is exact; the only tolerances below are the
2^-20 bracket width for extreme-root isolation (criterion 6) and the
10^-6 imaginary-axis guard inside the numeric cross-check oracle
(criterion 7).
"""

import time
from fractions import Fraction as F

import pytest

from turanstab import expressions, harness, sequences, stability
from turanstab.harness import CampaignConfig, EXTREME_ROOT_TOL
from turanstab.polycore import Poly
from turanstab.sequences import POLAR_UNIT

from oracles import euclid_chain, oracle_agreement, sign_variations_at_infinity


def report(number: int, name: str, passed: bool, start: float, budget: float):
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'} "
          f"({elapsed:.2f}s)")
    assert passed, f"criterion {number} ({name}) failed"
    assert elapsed < budget, (
        f"criterion {number} ({name}) exceeded {budget}s budget: {elapsed:.2f}s"
    )


def test_criterion_1_fisk_counterexample():
    # quartic counterexample rebuilt exactly and judged unstable; < 1 s
    start = time.perf_counter()
    expr = expressions.fisk_expression(Poly([0, 2, 1]), 1, 1, 3)
    ok = (
        expr == Poly([0, -8, -2, 0, 1])
        and not stability.is_weakly_hurwitz(expr).verdict
        and harness.verify_fisk_counterexample()
    )
    report(1, "fisk counterexample", ok, start, 1.0)


def test_criterion_2_chebyshev_closed_forms():
    # exact coefficientwise equality, k <= 20, n <= 6; < 30 s
    start = time.perf_counter()
    ok = harness.verify_chebyshev_closed_forms(20, 6)
    report(2, "chebyshev closed forms", ok, start, 30.0)


def test_criterion_3_bell_turan_stability():
    # plain Turan expressions of the Bell polynomials, k <= 25; < 10 min
    start = time.perf_counter()
    seq = sequences.bell(27)
    ok = all(
        stability.is_weakly_hurwitz(expressions.turan(seq, k)).verdict
        for k in range(26)
    )
    report(3, "bell turan stability k<=25", ok, start, 600.0)


def test_criterion_4_extended_turan_campaigns():
    # desk-tier sweeps: bell as-is, laguerre reflected, bessel as-is,
    # 1 <= k <= 25, 1 <= n <= 3, every verdict true
    start = time.perf_counter()
    ok = True
    for family, reflect in (("bell", False), ("laguerre", True), ("bessel", False)):
        cfg = CampaignConfig(
            family=sequences.spec(family), k_max=25, n_max=3, reflect=reflect
        )
        records = harness.run_campaign(cfg)
        ok = ok and all(r.verdict for r in records if r.k >= 1)
        ok = ok and not any(r.flagged for r in records if r.k >= 1)
    report(4, "extended turan campaigns", ok, start, 600.0)


def test_criterion_5_legendre_grid():
    # T_k = (1 - x^2) q_k exactly, q_k without real zeros and q_k(0) > 0,
    # so T_k > 0 on (-1, 1) and zero exactly at +-1, k <= 20; < 1 min
    start = time.perf_counter()
    ok = harness.verify_legendre_turan(20)
    report(5, "legendre turan sign proof", ok, start, 60.0)


def test_criterion_6_hermite_windows():
    # extreme zeros of H_{k+1} bracketed to width 2^-20; the Turan
    # expression is zero-free beyond the inner endpoints, which lie at or
    # inside the zeros, so beyond the zeros themselves, k <= 12; < 2 min
    start = time.perf_counter()
    assert EXTREME_ROOT_TOL == F(1, 2 ** 20)
    ok = harness.verify_theorem_1_2(sequences.spec("hermite"), 12)
    report(6, "hermite nonvanishing windows", ok, start, 120.0)


def test_criterion_7_oracle_equivalence():
    # 1000 seeded squarefree samples, degree <= 8, axis guard 1e-6,
    # 100% agreement on non-inconclusive cases; < 2 min
    start = time.perf_counter()
    assert stability.ORACLE_AXIS_TOL == 1e-6
    agreements, total, mismatches = oracle_agreement(
        samples=1000, seed=harness.DEFAULT_SEED, max_degree=8
    )
    ok = total == 1000 and agreements == total and not mismatches
    report(7, "oracle equivalence 1000 samples", ok, start, 120.0)


def test_criterion_8_structural_invariants():
    # real-rootedness of type A / type H members and the Bell interlacing
    # chain with the common zero 0 divided out, k <= 15; < 1 min
    start = time.perf_counter()
    ok = True
    type_a_seq = sequences.type_a(1, 0, [F(1)] * 15, 15)  # Bell shape
    type_h_seq = sequences.type_h(2, 0, -1, 15)  # Hermite shape
    for seq in (type_a_seq, type_h_seq):
        for p in seq:
            if p.degree() >= 1:
                ok = ok and stability.all_roots_real(p)
    bell_seq = sequences.bell(15)
    x = Poly.x()
    for k in range(2, 16):
        ok = ok and stability.interlace_check(
            bell_seq[k].exact_div(x), bell_seq[k - 1].exact_div(x)
        )
    report(8, "structural invariants", ok, start, 60.0)


def test_criterion_9_internal_consistency():
    # p_upper is integral and in range (enforced by construction: any
    # violation raises ChainInvariantError), and the sign-variation counts
    # of the library's content-stripped chain match the raw chain's
    start = time.perf_counter()
    ok = True
    probes = [
        expressions.turan(sequences.bell(12), 8),
        expressions.extended_turan(sequences.laguerre(12), 2, 3).compose_linear(-1, 0),
        expressions.fisk_expression(Poly([0, 2, 1]), 1, 1, 3),
        Poly([0, 16, 22, 12, 1]),
    ]
    for f in probes:
        cert = stability.is_weakly_hurwitz(f)  # raises on invariant violation
        ok = ok and isinstance(cert.p_upper, int)
        ok = ok and 0 <= cert.p_upper <= f.degree()
        re, im = stability.rotate(f)
        stripped = [Poly(c) for c in stability._int_chain(re.num, im.num)]
        raw = euclid_chain(re, im, strip_content=False)
        for d in ("+inf", "-inf"):
            ok = ok and (
                sign_variations_at_infinity(stripped, d)
                == sign_variations_at_infinity(raw, d)
            )
    report(9, "internal consistency", ok, start, 60.0)
