"""Verification suites, conjecture campaigns and JSONL reporting.

The campaigns sweep extended Turan expressions of a family over a
(k, n) grid and record the exact stability verdict of every cell.  The
unit of work is one anti-diagonal k + n = t of the grid: its cells share
the products P_{t-i} P_{t+i}, so ``expressions.turan_diagonal`` builds
all their expressions at once.  A campaign reflects and shifts each
member once, with ``expressions.reflect_shift``, before any diagonal is
built (the ``expressions`` module docstring says why that substitutes
every expression), and decides each expression as built with
``stability.is_weakly_hurwitz``.  With ``jobs`` > 1 the
diagonals are dealt into shares: the calling process decides the first
and one forked child each other share, joined before the campaign
returns, so no worker outlives the call.  Every false verdict is
flagged, whatever the family.  For a family whose stability is proved or
conjectured a flag would be a counterexample to a published claim; for
another it may be expected (the Chebyshev T expressions are multiples
of (1 - x^2)^n, which vanishes at x = 1).  The suites that decide a
column of Turan expressions (type A and the polar sequence of Theorem
1.2, reflected Laguerre) run the same grid at n = 1.

Two tiers bound the sweep ranges: desk (k <= 25, n <= 3) is the everyday
gate, full (k <= 50, n <= 5) reproduces the long verification runs.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from fractions import Fraction
from math import factorial

from . import expressions, sequences, stability
from .expressions import reflect_shift, turan_diagonal
from .polycore import Poly, int_mul
from .sequences import POLAR_SCALED, POLAR_UNIT, SequenceSpec
from .stability import all_roots_real, is_weakly_hurwitz, nonvanishing_halfplane

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


def _diagonals(k_max: int, n_max: int):
    """(t, ns) for each anti-diagonal k + n = t of the grid k <= k_max,
    1 <= n <= n_max, largest t first: ns lists its n in increasing order."""
    for t in range(k_max + n_max, 0, -1):
        yield t, tuple(range(max(1, t - k_max), min(n_max, t) + 1))


def _run_diagonal(family: str, seq: list[Poly], t: int, ns) -> list[ReportRecord]:
    """The records of the cells (t - n, n), n in ``ns``, of ``seq``: each
    cell decides the expression ``turan_diagonal`` built, as it stands.  A
    cell's ``elapsed_ms`` is its verdict time plus an equal share of the
    diagonal's build, so the cell times add up to the work done on the
    grid; generating and substituting the members is per-campaign work
    and belongs to no cell."""
    start = time.perf_counter()
    exprs = turan_diagonal(seq, t, ns)
    share_ms = (time.perf_counter() - start) * 1000.0 / len(ns)
    records = []
    for n, expr in zip(ns, exprs):
        start = time.perf_counter()
        if expr.is_zero:
            verdict, degree, cert = False, -1, {}
        else:
            certificate = is_weakly_hurwitz(expr)
            verdict, degree = certificate.verdict, expr.degree()
            cert = certificate.summary()
        records.append(ReportRecord(
            family=family,
            k=t - n,
            n=n,
            degree=degree,
            verdict=verdict,
            flagged=not verdict,
            certificate=cert,
            elapsed_ms=share_ms + (time.perf_counter() - start) * 1000.0,
        ))
    return records


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_campaign(cfg: CampaignConfig) -> list[ReportRecord]:
    """Stability verdicts over the (k, n) grid, in (k, n) order."""
    seq = sequences.generate(cfg.family, 2 * cfg.n_max + cfg.k_max)
    return _decide_grid(cfg.family.family, seq, cfg.k_max, cfg.n_max,
                        cfg.reflect, cfg.shift, cfg.jobs)


def _decide_grid(family: str, seq: list[Poly], k_max: int, n_max: int,
                 reflect: bool, shift: Fraction, jobs: int) -> list[ReportRecord]:
    """The records of every cell k <= k_max, 1 <= n <= n_max of ``seq``,
    which must reach index k_max + 2 n_max, in (k, n) order.

    The members are reflected and shifted once, before the grid is
    dealt.  The unit of work is one anti-diagonal (t, ns), k + n = t, so
    each product P_{t-i} P_{t+i} is formed once for all its cells.  The
    diagonals are dealt heaviest first (largest t, so largest degree 2t)
    into one share per worker: at most ``jobs``, one per diagonal and one
    per CPU this process may run on, and one where the platform cannot
    fork.  This process decides share 0 and a forked child each other
    share (``_decide_shares``); a child inherits the substituted members
    with its share.  The records are put back in (k, n) order, so they
    do not depend on ``jobs``.
    """
    seq = [reflect_shift(p, reflect, shift) for p in seq]
    units = list(_diagonals(k_max, n_max))
    workers = min(jobs, len(units), _usable_cpus()) if hasattr(os, "fork") else 1

    def run_share(share):
        return [rec for t, ns in share for rec in _run_diagonal(family, seq, t, ns)]

    records = _decide_shares(_deal(units, workers), run_share)
    return sorted(records, key=ReportRecord.sort_key)


def _deal(units: list, workers: int) -> list[list]:
    """``units`` dealt into ``workers`` shares in snake order (with two:
    0, 1, 1, 0, 0, 1, ...), so with the units heaviest first each share
    gets a heavy and a light one in turn."""
    shares = [[] for _ in range(workers)]
    for i, unit in enumerate(units):
        lap, seat = divmod(i, workers)
        shares[seat if lap % 2 == 0 else workers - 1 - seat].append(unit)
    return shares


def _decide_shares(shares: list[list], run_share) -> list[ReportRecord]:
    """The records ``run_share(share)`` of every share.  Share 0 runs in
    this process and each other share in a child forked for it, which
    inherits its diagonals, so no input is pickled.  A child pickles its
    records, or the exception it raised, to a pipe and always leaves
    through ``os._exit``, so it never returns into the caller.  A fork
    copies only the calling thread, and a child runs only the verdict code
    and pickle, which take no lock another thread could hold.  This
    process reads every pipe, then reaps every child; if its own share
    raised or it was interrupted it kills the children first.  A child's
    exception is raised again here.
    """
    # imported here: start-up, which runs no campaign, need not load them
    import pickle
    import signal

    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        try:
                            outcome = True, run_share(share)
                        except BaseException as exc:
                            outcome = False, exc
                        with os.fdopen(write_fd, "wb") as pipe:
                            pickle.dump(outcome, pipe)
                        status = 0
                    finally:
                        os._exit(status)
            finally:
                os.close(write_fd)
            pids.append(pid)
        records = run_share(shares[0])
        payloads = [pipe.read() for pipe in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for payload, code in zip(payloads, codes):
        if code != 0:  # killed, say, before it had sent a whole payload
            raise RuntimeError(f"a campaign worker ended with exit code {code}")
        ok, result = pickle.loads(payload)
        if not ok:
            raise result
        records += result
    return records


def emit_reports(records: list[ReportRecord], path, with_timing: bool = False) -> None:
    """Write one JSON object per line, sorted by (family, k, n).

    The lines go to ``<path>.partial``, which then replaces ``path``, so an
    interrupted write never leaves a truncated report; on any failure the
    partial file is removed and the old report kept.  Timing is off by
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
    finally:
        with suppress(OSError):  # gone after the replace, left by a failure
            os.remove(partial)


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
    closed forms exactly: c_n (1-x^2)^n for T and c_n (1-x^2)^(n-1) for U,
    with the same c_n = 2^(2n-1)/(2n)! (at n = 2, U's is (1-x^2)/3)."""
    if k_max < 1 or n_max < 1:
        raise ValueError("k_max and n_max must be >= 1")
    top = 2 * n_max + k_max
    t_seq = sequences.chebyshev_t(top)
    u_seq = sequences.chebyshev_u(top)
    base = Poly([1, 0, -1])  # 1 - x^2
    want = {}
    for n in range(1, n_max + 1):
        scale = Fraction(1 << (2 * n - 1), factorial(2 * n))
        want[n] = (base ** n * scale, base ** (n - 1) * scale)
    for t, ns in _diagonals(k_max, n_max):
        got = zip(turan_diagonal(t_seq, t, ns), turan_diagonal(u_seq, t, ns))
        if list(got) != [want[n] for n in ns]:
            return False
    return True


def verify_theorem_1_2(spec_or_seq, k_max: int) -> bool:
    """Check the stability/window claims for the three recurrence shapes.

    Type A (incl. Bell): the Turan expression shifted by -b is weakly
    Hurwitz stable.  Type H (incl. Hermite): the Turan expression does not
    vanish beyond rational brackets of the extreme zeros of P_{k+1}, on
    both sides: beyond the inner bracket ends, so beyond the zeros
    themselves.  A plain polynomial list is treated as a downward-polar
    sequence with non-positive zeros, whose Turan expressions must be
    weakly Hurwitz stable outright.
    """
    if isinstance(spec_or_seq, SequenceSpec):
        spec = spec_or_seq
        seq = sequences.generate(spec, k_max + 2)
        if spec.family in ("bell", "type_a"):
            b = spec.params[1] if spec.family == "type_a" else 0
            records = _decide_grid(spec.family, seq, k_max, 1, False, -b, 1)
            return all(r.verdict for r in records)
        if spec.family in ("hermite", "type_h"):
            for k in range(k_max + 1):
                expr = expressions.turan(seq, k)
                _, m_hi, M_lo, _ = stability.isolate_extreme_roots(
                    seq[k + 1], EXTREME_ROOT_TOL
                )
                if not nonvanishing_halfplane(expr, M_lo, left=False):
                    return False
                if not nonvanishing_halfplane(expr, m_hi, left=True):
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
    # every zero real and none with Re > 0: every zero real and <= 0
    if not all(all_roots_real(p) and is_weakly_hurwitz(p).verdict for p in seq):
        raise ValueError("sequence members must have only non-positive zeros")
    records = _decide_grid("polar_unit", seq, k_max, 1, False, Fraction(0), 1)
    return all(r.verdict for r in records)


def verify_legendre_turan(k_max: int) -> bool:
    """Turan's inequality for the Legendre polynomials, proved for k <= k_max:
    T_k = (1 - x^2) q_k exactly, q_k has no real zero and q_k(0) > 0, so
    T_k > 0 on (-1, 1), T_k = 0 at +-1 and T_k < 0 outside.

    The zeros are counted on the one chain of (q, q'): it ends at
    gcd(q, q') and V(-inf) - V(+inf) along it is the number of distinct
    real zeros of q, squarefree or not, so q has none iff V(+inf) = V(-inf).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    seq = sequences.legendre(k_max + 2)
    base = Poly([1, 0, -1])  # 1 - x^2
    for k in range(k_max + 1):
        try:
            q = expressions.turan(seq, k).exact_div(base)
        except ValueError:  # 1 - x^2 does not divide T_k
            return False
        # q(0) first: it also turns away q = 0, which has no chain
        if q(0) <= 0:
            return False
        _, _, _, v_plus, v_minus = stability._halfplane_data(q.num, q.derivative().num)
        if v_plus != v_minus:
            return False
    return True


def random_rational(rng: random.Random) -> Fraction:
    """A rational in [-1, 1] with denominator at most 50."""
    denom = rng.randint(1, 50)
    return Fraction(rng.randint(-denom, denom), denom)


def verify_wronskian_strip(samples: int, seed: int = DEFAULT_SEED) -> bool:
    """For random real-rooted polynomials with rational roots in [-1, 1],
    the Wronskian f'^2 - f'' f has no zeros outside the strip |Re x| <= 1.

    f = prod (x - r) is built on integer lists, as prod (den(r) x - num(r))
    over prod den(r), and normalised once."""
    rng = random.Random(seed)
    for _ in range(samples):
        degree = rng.randint(1, 10)
        num, den = [1], 1
        for _ in range(degree):
            root = random_rational(rng)
            num = int_mul(num, [-root.numerator, root.denominator])
            den *= root.denominator
        w = expressions.wronskian(Poly.from_ints(num, den))
        if not nonvanishing_halfplane(w, 1, left=False):
            return False
        if not nonvanishing_halfplane(w, -1, left=True):
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
    records = _decide_grid("laguerre", lag, k_max, 1, True, Fraction(0), 1)
    return all(r.verdict for r in records)

