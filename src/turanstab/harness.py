"""Verification suites, conjecture campaigns and JSONL reporting.

The campaigns sweep extended Turan expressions of a family over a
(k, n) grid and record the exact stability verdict of every cell.  A
cell builds its expression with ``expressions.build_expression`` from
the window P_k .. P_{k+2n} of the sequence, reflected and shifted as the
campaign asks, and decides it with ``stability.is_weakly_hurwitz``.  Every
false verdict is flagged, whatever the family.  For a family whose
stability is proved or conjectured a flag would be a counterexample to a
published claim; for another it may be expected (the Chebyshev T
expressions are multiples of (1 - x^2)^n, which vanishes at x = 1).

Two tiers bound the sweep ranges: desk (k <= 25, n <= 3) is the everyday
gate, full (k <= 50, n <= 5) reproduces the long verification runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from fractions import Fraction
from math import factorial

from . import expressions, sequences, stability
from .expressions import build_expression
from .polycore import Poly, int_horner
from .sequences import POLAR_SCALED, POLAR_UNIT, SequenceSpec
from .stability import (
    LEFT_OF,
    RIGHT_OF,
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

    def __post_init__(self) -> None:
        # the messages name the campaign command's flags, which set the fields
        if self.tier not in TIER_LIMITS:
            raise ValueError(f"unknown tier {self.tier!r}")
        k_lim, n_lim = TIER_LIMITS[self.tier]
        for flag, value, lo, hi in (("--k-max", self.k_max, 0, k_lim),
                                    ("--n-max", self.n_max, 1, n_lim)):
            if not lo <= value <= hi:
                raise ValueError(
                    f"{flag} must be in {lo}..{hi} at --tier {self.tier}; got {value}"
                )
        if self.jobs < 1:
            raise ValueError(f"--jobs must be >= 1; got {self.jobs}")


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(cfg: CampaignConfig) -> list[ReportRecord]:
    """Stability verdicts over the (k, n) grid, in (k, n) order.

    The unit of work is one (family, k, n) cell; workers share only the
    immutable sequence prefix, and the records are put back in (k, n)
    order, so they do not depend on ``jobs``.  The pool has at most one
    worker per cell and per CPU this process may run on, however large
    ``jobs`` is; with one worker the cells run in this process.  A pool
    gets the cells heaviest first (largest k + n, so largest degree
    2(k + n)) in about four chunks per worker: one task per cell would
    cost a round trip each, and a long cell sent last would leave the
    other workers idle.
    """
    seq = sequences.generate(cfg.family, 2 * cfg.n_max + cfg.k_max)
    args = []
    for k in range(cfg.k_max + 1):
        for n in range(1, cfg.n_max + 1):
            window = seq[k : k + 2 * n + 1]
            args.append((cfg.family.family, k, n, window, cfg.reflect, cfg.shift))
    workers = min(cfg.jobs, len(args), _usable_cpus())
    if workers == 1:
        return [_run_cell(a) for a in args]
    heaviest_first = sorted(args, key=lambda a: a[1] + a[2], reverse=True)
    chunksize = -(-len(args) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        records = pool.map(_run_cell, heaviest_first, chunksize=chunksize)
        return sorted(records, key=ReportRecord.sort_key)


def emit_reports(records: list[ReportRecord], path, with_timing: bool = False) -> None:
    """Write one JSON object per line, sorted by (family, k, n).

    The lines go to ``<path>.partial``, which then replaces ``path``, so an
    interrupted write never leaves a truncated report.  Timing is off by
    default so reports are byte-identical across runs and ``jobs`` values.
    """
    ordered = sorted(records, key=ReportRecord.sort_key)
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            for rec in ordered:
                # a shallow copy: the certificate dict is shared, only read
                payload = {"schema": 1}
                payload.update((f.name, getattr(rec, f.name)) for f in fields(rec))
                if not with_timing:
                    del payload["elapsed_ms"]
                fh.write(json.dumps(payload) + "\n")
        os.replace(partial, path)
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
            # q^d * den * expr(p/q) with q, den > 0: the sign of expr(x)
            value = int_horner(expr.num, x.numerator, x.denominator)
            if abs(x) == 1:
                if value != 0:
                    return False
            elif value <= 0:
                return False
    return True


def random_rational(rng: random.Random) -> Fraction:
    """A rational in [-1, 1] with denominator at most 50."""
    denom = rng.randint(1, 50)
    return Fraction(rng.randint(-denom, denom), denom)


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
    for k in range(k_max + 1):
        expr = build_expression(lag, k, 1, True, 0)
        if not is_weakly_hurwitz(expr).verdict:
            return False
    return True


def question_probe_jensen(k_max: int) -> list[tuple[int, bool]]:
    """Open-question probe: Turan stability verdicts for the Jensen
    sequence of (1+x)^m, m = 16, a real-rooted source with non-positive
    zeros.  Recorded, not asserted; the underlying question is open."""
    # Taylor coefficients gamma_k = k! * C(m, k) of (1+x)^m
    m = 16
    gamma = [
        Fraction(factorial(m), factorial(m - k)) if k <= m else Fraction(0)
        for k in range(k_max + 3)
    ]
    seq = sequences.jensen(gamma, k_max + 2)
    out = []
    for k in range(k_max + 1):
        expr = expressions.turan(seq, k)
        verdict = (not expr.is_zero) and is_weakly_hurwitz(expr).verdict
        out.append((k, verdict))
    return out

