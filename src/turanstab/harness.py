"""Verification suites, conjecture campaigns and JSONL reporting.

The campaigns sweep extended Turan expressions of a family over a
(k, n) grid and record the exact stability verdict of every cell.  A
cell builds its expression with ``expressions.build_expression`` from
the window P_k .. P_{k+2n} of the sequence, reflected and shifted as the
campaign asks, and decides it with ``stability.is_weakly_hurwitz``.  Any
false verdict for a family whose stability is proved or conjectured is
flagged prominently: it would be a counterexample to a published claim.

Two tiers bound the sweep ranges: desk (k <= 25, n <= 3) is the everyday
gate, full (k <= 50, n <= 5) reproduces the long verification runs.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import factorial

from . import expressions, polycore, sequences, stability
from .expressions import build_expression
from .polycore import Poly
from .sequences import POLAR_SCALED, POLAR_UNIT, SequenceSpec
from .stability import (
    CERTAINLY_UNSTABLE,
    INCONCLUSIVE,
    LEFT_OF,
    RIGHT_OF,
    STABLE,
    is_weakly_hurwitz,
    nonvanishing_halfplane,
)

DEFAULT_SEED = 20240823

TIER_LIMITS = {"desk": (25, 3), "full": (50, 5)}

EXTREME_ROOT_TOL = Fraction(1, 1 << 20)


@dataclass(frozen=True)
class CampaignConfig:
    family: SequenceSpec
    k_max: int
    n_max: int
    reflect: bool = False
    shift: Fraction = Fraction(0)
    jobs: int = 1
    tier: str = "desk"

    def validate(self) -> None:
        if self.tier not in TIER_LIMITS:
            raise ValueError(f"unknown tier {self.tier!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        k_lim, n_lim = TIER_LIMITS[self.tier]
        if not (0 <= self.k_max <= k_lim):
            raise ValueError(f"k_max out of range for tier {self.tier}")
        if not (1 <= self.n_max <= n_lim):
            raise ValueError(f"n_max out of range for tier {self.tier}")


@dataclass(frozen=True)
class ReportRecord:
    family: str
    k: int
    n: int
    degree: int
    verdict: bool
    flagged: bool
    certificate: dict
    elapsed_ms: float

    def sort_key(self):
        return (self.family, self.k, self.n)


def _run_cell(args) -> ReportRecord:
    family, k, n, window, reflect, shift = args
    start = time.perf_counter()
    # window holds P_k .. P_{k+2n}, so the extended expression sits at index 0
    expr = build_expression(window, 0, n, reflect, shift)
    if expr.is_zero:
        verdict, degree, cert = False, -1, {}
    else:
        certificate = is_weakly_hurwitz(expr)
        verdict, degree, cert = certificate.verdict, expr.degree(), certificate.summary()
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ReportRecord(
        family=family,
        k=k,
        n=n,
        degree=degree,
        verdict=verdict,
        flagged=not verdict,
        certificate=cert,
        elapsed_ms=elapsed_ms,
    )


def run_campaign(cfg: CampaignConfig) -> list[ReportRecord]:
    """Stability verdicts over the (k, n) grid, merged in deterministic order.

    The unit of work is one (family, k, n) cell; workers share only the
    immutable sequence prefix, and results are sorted afterwards so the
    report does not depend on ``jobs``.
    """
    cfg.validate()
    seq = sequences.generate(cfg.family, 2 * cfg.n_max + cfg.k_max)
    args = []
    for k in range(cfg.k_max + 1):
        for n in range(1, cfg.n_max + 1):
            window = seq[k : k + 2 * n + 1]
            args.append((cfg.family.family, k, n, window, cfg.reflect, cfg.shift))
    if cfg.jobs == 1:
        raw = [_run_cell(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            raw = list(pool.map(_run_cell, args, chunksize=1))
    records = sorted(raw, key=ReportRecord.sort_key)
    return records


def emit_reports(records: list[ReportRecord], path, with_timing: bool = False) -> None:
    """Write one JSON object per line, sorted by (family, k, n).

    Timing is off by default so reports are byte-identical across runs and
    across different ``jobs`` settings.
    """
    ordered = sorted(records, key=ReportRecord.sort_key)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in ordered:
                payload = {"schema": 1, **asdict(rec)}
                if not with_timing:
                    del payload["elapsed_ms"]
                fh.write(json.dumps(payload) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# -- canonical polar-relation family ----------------------------------

def polar_unit_sequence(k_max: int) -> list[Poly]:
    """P_k = (-1)^k (x+1)^k / k!: satisfies (x*D - k) P_k = P_{k-1} with
    all zeros at -1, the canonical witness for the downward polar case."""
    seq = []
    for k in range(k_max + 1):
        seq.append(Poly([1, 1]) ** k * Fraction((-1) ** k, factorial(k)))
    return seq


# -- verification suites ----------------------------------------------

def verify_fisk_counterexample() -> bool:
    """Rebuild the quartic counterexample to the drafted cone argument and
    confirm it is not weakly Hurwitz stable."""
    f = Poly([0, 2, 1])  # x(x+2)
    expr = expressions.fisk_expression(f, 1, 1, 3)
    if expr != Poly([0, -8, -2, 0, 1]):
        return False
    if stability.coeff_sign_precheck(expr) != CERTAINLY_UNSTABLE:
        return False
    return not is_weakly_hurwitz(expr).verdict


def verify_chebyshev_closed_forms(k_max: int, n_max: int) -> bool:
    """Extended Turan expressions of both Chebyshev kinds match their
    closed forms 2^(2n-1)/(2n)! * (1-x^2)^n and (1-x^2)^(n-1) exactly."""
    if k_max < 1 or n_max < 1:
        raise ValueError("k_max and n_max must be >= 1")
    top = 2 * n_max + k_max
    t_seq = sequences.chebyshev_t(top)
    u_seq = sequences.chebyshev_u(top)
    base = Poly([1, 0, -1])  # 1 - x^2
    for n in range(1, n_max + 1):
        scale = Fraction(1 << (2 * n - 1), factorial(2 * n))
        want_t = base ** n * scale
        want_u = base ** (n - 1) * scale
        for k in range(k_max + 1):
            if expressions.extended_turan(t_seq, k, n) != want_t:
                return False
            if expressions.extended_turan(u_seq, k, n) != want_u:
                return False
    return True


def _only_nonpositive_real_roots(p: Poly) -> bool:
    if p.degree() == 0:
        return True
    # every distinct zero is real and lies in (-inf, 0]
    chain = stability.SturmChain(p)
    return chain.count(None, 0) == chain.squarefree.degree()


def verify_theorem_1_2(spec_or_seq, k_max: int) -> bool:
    """Check the stability/window claims for the three recurrence shapes.

    Type A (incl. Bell): the Turan expression shifted by -b is weakly
    Hurwitz stable.  Type H (incl. Hermite): the Turan expression does not
    vanish beyond rational brackets of the extreme zeros of P_{k+1}, on
    both sides.  A plain polynomial list is treated as a downward-polar
    sequence with non-positive zeros, whose Turan expressions must be
    weakly Hurwitz stable outright.
    """
    if isinstance(spec_or_seq, SequenceSpec):
        spec = spec_or_seq
        seq = sequences.generate(spec, k_max + 2)
        if spec.family in ("bell", "type_a"):
            b = spec.params[1] if spec.family == "type_a" else 0
            for k in range(k_max + 1):
                expr = build_expression(seq, k, 1, False, -b)
                if not is_weakly_hurwitz(expr).verdict:
                    return False
            return True
        if spec.family in ("hermite", "type_h"):
            for k in range(k_max + 1):
                expr = expressions.turan(seq, k)
                m_lo, _, _, M_hi = stability.isolate_extreme_roots(
                    seq[k + 1], EXTREME_ROOT_TOL
                )
                if not nonvanishing_halfplane(expr, M_hi, RIGHT_OF):
                    return False
                if not nonvanishing_halfplane(expr, m_lo, LEFT_OF):
                    return False
            return True
        raise ValueError(
            "spec must be type A, type H, or an explicit downward-polar sequence"
        )
    seq = list(spec_or_seq)
    if len(seq) < k_max + 3:
        raise ValueError("sequence too short")
    if not sequences.verify_relation(seq, POLAR_UNIT):
        raise ValueError("sequence does not satisfy the downward polar relation")
    if not all(_only_nonpositive_real_roots(p) for p in seq):
        raise ValueError("sequence members must have only non-positive zeros")
    for k in range(k_max + 1):
        if not is_weakly_hurwitz(expressions.turan(seq, k)).verdict:
            return False
    return True


def verify_legendre_turan(k_max: int) -> bool:
    """Turan expressions of the Legendre polynomials are >= 0 on the exact
    grid {j/50 : j = -50..50}, vanishing exactly at +-1."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    seq = sequences.legendre(k_max + 2)
    grid = [Fraction(j, 50) for j in range(-50, 51)]
    for k in range(k_max + 1):
        expr = expressions.turan(seq, k)
        for x in grid:
            value = expr(x)
            if abs(x) == 1:
                if value != 0:
                    return False
            elif value <= 0:
                return False
    return True


def random_rational(rng: random.Random, lo: int = -1, hi: int = 1) -> Fraction:
    denom = rng.randint(1, 50)
    return Fraction(rng.randint(lo * denom, hi * denom), denom)


def verify_wronskian_strip(samples: int, seed: int = DEFAULT_SEED) -> bool:
    """For random real-rooted polynomials with rational roots in [-1, 1],
    the Wronskian f'^2 - f'' f has no zeros outside the strip |Re x| <= 1."""
    rng = random.Random(seed)
    for _ in range(samples):
        degree = rng.randint(1, 10)
        poly = Poly.one()
        for _ in range(degree):
            root = random_rational(rng)
            poly = poly * Poly([-root, 1])
        w = expressions.wronskian(poly)
        if w.is_zero:
            continue  # degree-0 inputs only; never hit for degree >= 1
        if not nonvanishing_halfplane(w, 1, RIGHT_OF):
            return False
        if not nonvanishing_halfplane(w, -1, LEFT_OF):
            return False
    return True


def verify_jensen_laguerre_relations(k_max: int, seed: int = DEFAULT_SEED) -> bool:
    """Scaled polar relation (k - x*D) P_k = k P_{k-1} for the Laguerre
    polynomials and for Jensen sequences with random positive gamma, plus
    stability of the reflected Laguerre Turan expressions."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    lag = sequences.laguerre(k_max + 2)
    if not sequences.verify_relation(lag, POLAR_SCALED):
        return False
    rng = random.Random(seed)
    for _ in range(3):
        gamma = [
            Fraction(rng.randint(1, 40), rng.randint(1, 20))
            for _ in range(k_max + 1)
        ]
        jens = sequences.jensen(gamma, k_max)
        if not sequences.verify_relation(jens, POLAR_SCALED):
            return False
    for k in range(min(k_max, 50) + 1):
        expr = build_expression(lag, k, 1, True, 0)
        if not is_weakly_hurwitz(expr).verdict:
            return False
    return True


def question_probe_jensen(k_max: int, source_degree: int = 16) -> list[tuple[int, bool]]:
    """Open-question probe: Turan stability verdicts for the Jensen
    sequence of (1+x)^m, a real-rooted source with non-positive zeros.
    Recorded, not asserted; the underlying question is open."""
    # Taylor coefficients gamma_k = k! * C(m, k) of (1+x)^m
    gamma = [
        Fraction(factorial(source_degree), factorial(source_degree - k))
        if k <= source_degree
        else Fraction(0)
        for k in range(k_max + 3)
    ]
    seq = sequences.jensen(gamma, k_max + 2)
    out = []
    for k in range(k_max + 1):
        expr = expressions.turan(seq, k)
        verdict = (not expr.is_zero) and is_weakly_hurwitz(expr).verdict
        out.append((k, verdict))
    return out


# -- randomized oracle agreement --------------------------------------

def random_squarefree_poly(
    rng: random.Random, max_degree: int = 8, coeff_bound: int = 9
) -> Poly:
    """Random squarefree integer polynomial of degree 1..max_degree."""
    while True:
        degree = rng.randint(1, max_degree)
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(degree)]
        lead = 0
        while lead == 0:
            lead = rng.randint(-coeff_bound, coeff_bound)
        poly = Poly(coeffs + [lead])
        if polycore.is_squarefree(poly):
            return poly


def oracle_agreement(
    samples: int = 1000, seed: int = DEFAULT_SEED, max_degree: int = 8
) -> tuple[int, int, list[Poly]]:
    """Compare the exact verdict with the numeric oracle on random
    squarefree polynomials whose roots stay clear of the imaginary axis.

    Returns (agreements, total, mismatches); a correct implementation has
    agreements == total and no mismatches.
    """
    rng = random.Random(seed)
    agreements = 0
    total = 0
    mismatches: list[Poly] = []
    while total < samples:
        poly = random_squarefree_poly(rng, max_degree=max_degree)
        verdict = stability.cross_check_oracle(poly)
        if verdict == INCONCLUSIVE:
            continue
        total += 1
        exact = is_weakly_hurwitz(poly).verdict
        if exact == (verdict == STABLE):
            agreements += 1
        else:
            mismatches.append(poly)
    return agreements, total, mismatches
