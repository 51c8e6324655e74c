"""The benchmark's four workloads, each driven through turanstab's public API.

A workload builds its inputs once from the seed, then runs passes over
them.  ``run(jobs, pool)`` times one pass, with ``jobs=1`` in this process
and ``jobs=2`` on two worker processes, and checks every output after the
clock stops.  Why each workload exists is in README.md next to this file.

``pass_order`` is the order of jobs values a run cycles through.  jobs=2
times vary most, so they get two passes of every three where passes are
short; deep-cells and verify-suites passes take seconds, and their jobs=1
metrics would then get too few passes, so they alternate.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from turanstab import cli, expressions, harness, sequences, stability
from turanstab.polycore import Poly

from known_verdicts import known_verdict_polys

DESK_FAMILIES = (("bell", False), ("laguerre", True), ("bessel", False))
DESK_K_MAX, DESK_N_MAX = harness.TIER_LIMITS["desk"]

# (family, reflect, k, n) at the top of the full tier
DEEP_CELLS = (
    ("bell", False, 45, 3),
    ("bell", False, 50, 5),
    ("laguerre", True, 50, 3),
    ("laguerre", True, 50, 5),
    ("bessel", False, 50, 3),
    ("bessel", False, 50, 5),
)

SMALL_VERDICTS = 2000


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]
    # one entry per checked operation: None when it passed, else what failed
    outcomes: list[str | None]
    # digest of the outputs; equal on every pass of one run
    fingerprint: str
    # per-cell work counts, for the workloads that decide campaign cells
    cells: list[dict] = field(default_factory=list)


def _guarded(fn, arg):
    """(value, None) or (None, error text): a raising operation is a failure."""
    try:
        return fn(arg), None
    except Exception as exc:  # counted as a failed operation by the caller
        return None, f"{type(exc).__name__}: {exc}"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _pool_map(pool, fn, items):
    return list(pool.map(functools.partial(_guarded, fn), items, chunksize=1))


# -- desk-campaign ------------------------------------------------------

class DeskCampaign:
    """The three criterion-4 families at desk tier through run_campaign and
    emit_reports.  The grid is fixed, so the seed is not used."""

    name = "desk-campaign"
    pass_order = (1, 2, 2)

    def __init__(self, seed: int, outdir: Path):
        self.outdir = outdir

    def run(self, jobs: int, pool=None) -> PassResult:
        runs = []
        start = time.perf_counter()
        for family, reflect in DESK_FAMILIES:
            cfg = harness.CampaignConfig(
                family=sequences.spec(family),
                k_max=DESK_K_MAX,
                n_max=DESK_N_MAX,
                reflect=reflect,
                jobs=jobs,
                tier="desk",
            )
            path = self.outdir / f"desk-{family}-jobs{jobs}.jsonl"
            try:
                records = harness.run_campaign(cfg)
                harness.emit_reports(records, path)
            except Exception as exc:  # counted as failed operations below
                records, path = f"{type(exc).__name__}: {exc}", None
            runs.append((family, records, path))
        wall = time.perf_counter() - start

        latencies, outcomes, cells = [], [], []
        report = hashlib.sha256()
        for family, records, path in runs:
            if path is None:
                outcomes += [f"{family}: {records}"] * DESK_K_MAX * DESK_N_MAX
                report.update(records.encode())
                continue
            report.update(path.read_bytes())
            for rec in records:
                latencies.append(rec.elapsed_ms)
                cells.append(_cell_counts(family, rec.k, rec.n, rec.certificate))
                if rec.k >= 1:
                    bad = not rec.verdict or rec.flagged
                    outcomes.append(
                        f"{family} k={rec.k} n={rec.n}: verdict={rec.verdict} "
                        f"flagged={rec.flagged}" if bad else None
                    )
        return PassResult(wall, latencies, outcomes, report.hexdigest(), cells)


def _cell_counts(family: str, k: int, n: int, cert: dict) -> dict:
    return {
        "family": family,
        "k": k,
        "n": n,
        "degree": cert.get("degree"),
        "chain_length": cert.get("chain_length"),
        "gcd_degree": cert.get("gcd_degree"),
    }


# -- deep-cells ---------------------------------------------------------

def decide_deep_cell(cell) -> tuple[dict, float]:
    """Build one cell's expression, reflect it if asked, and decide it."""
    family, reflect, k, n = cell
    start = time.perf_counter()
    seq = sequences.generate(sequences.spec(family), k + 2 * n)
    expr = expressions.extended_turan(seq, k, n)
    if reflect:
        expr = expr.compose_linear(-1, 0)
    cert = stability.is_weakly_hurwitz(expr)
    return cert.summary(), (time.perf_counter() - start) * 1000.0


class DeepCells:
    """The top cells of the full tier, built and decided one by one.  The
    cells are fixed, so the seed is not used."""

    name = "deep-cells"
    pass_order = (1, 2)

    def __init__(self, seed: int, outdir: Path):
        self.cells = DEEP_CELLS

    def run(self, jobs: int, pool=None) -> PassResult:
        start = time.perf_counter()
        if jobs == 1:
            results = [_guarded(decide_deep_cell, c) for c in self.cells]
        else:
            results = _pool_map(pool, decide_deep_cell, self.cells)
        wall = time.perf_counter() - start

        latencies, outcomes, cells, summaries = [], [], [], []
        for (family, _, k, n), (value, error) in zip(self.cells, results):
            if error is not None:
                outcomes.append(f"{family} k={k} n={n}: {error}")
                summaries.append(error)
                continue
            cert, ms = value
            latencies.append(ms)
            summaries.append(cert)
            cells.append(_cell_counts(family, k, n, cert))
            ok = cert["verdict"] and cert["p_upper"] == cert["degree"] - cert["gcd_degree"]
            outcomes.append(None if ok else f"{family} k={k} n={n}: {cert}")
        return PassResult(wall, latencies, outcomes, digest(summaries), cells)


# -- small-verdicts -----------------------------------------------------

def decide_each(polys: list[Poly]) -> list[tuple[bool | None, float, str | None]]:
    """Closed loop with one caller: (verdict, ms, error) per polynomial."""
    out = []
    for p in polys:
        start = time.perf_counter()
        try:
            verdict, error = stability.is_weakly_hurwitz(p).verdict, None
        except Exception as exc:  # counted as a failed operation
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        out.append((verdict, (time.perf_counter() - start) * 1000.0, error))
    return out


class SmallVerdicts:
    """Seeded low-degree polynomials whose verdict is known by construction."""

    name = "small-verdicts"
    pass_order = (1, 2, 2)

    def __init__(self, seed: int, outdir: Path):
        self.known = known_verdict_polys(seed, SMALL_VERDICTS)
        self.polys = [kp.poly for kp in self.known]

    def run(self, jobs: int, pool=None) -> PassResult:
        start = time.perf_counter()
        if jobs == 1:
            results = decide_each(self.polys)
        else:
            # alternate polynomials between the two workers
            halves = list(pool.map(decide_each, [self.polys[0::2], self.polys[1::2]]))
            results = [None] * len(self.polys)
            results[0::2], results[1::2] = halves
        wall = time.perf_counter() - start

        outcomes = []
        for i, (kp, (verdict, _, error)) in enumerate(zip(self.known, results)):
            if error is not None:
                outcomes.append(f"poly {i}: {error}")
            elif verdict != kp.stable:
                outcomes.append(f"poly {i} {kp.kinds}: verdict {verdict}, known {kp.stable}")
            else:
                outcomes.append(None)
        verdicts = [r[0] for r in results]
        return PassResult(wall, [r[1] for r in results], outcomes, digest(verdicts))


# -- verify-suites ------------------------------------------------------

# The suites of ``turanstab verify --suite all``, each run on its own
# through the program's CLI so that the workload runs what that command
# runs.  The jensen suite also prints the jensen probe.
VERIFY_SUITES = ("fisk", "cheby", "thm12", "legendre", "wronskian", "jensen")

# Consecutive members of these families interlace strictly.  No verify
# suite calls interlace_check, so the workload checks this as well.
INTERLACE_FAMILIES = ("legendre", "hermite")
INTERLACE_K = 10


def _verify(name: str, seed: int) -> tuple[bool, str]:
    """(passed, printed output) of ``turanstab --seed SEED verify --suite NAME``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(["--seed", str(seed), "verify", "--suite", name])
    except SystemExit as exc:  # argparse rejected the suite name
        code = exc.code
    text = out.getvalue()
    return code == 0 and f"{name}: PASS" in text.splitlines(), text


def _interlacing(seed: int) -> tuple[bool, str]:
    for family in INTERLACE_FAMILIES:
        seq = sequences.generate(sequences.spec(family), INTERLACE_K)
        for k in range(1, INTERLACE_K):
            if not stability.interlace_check(seq[k + 1], seq[k]):
                return False, f"{family}: P_{k + 1} and P_{k} do not interlace"
    return True, ""


CHECKS = {**{name: functools.partial(_verify, name) for name in VERIFY_SUITES},
          "interlace": _interlacing}


def run_suite(job: tuple[str, int]):
    """((passed, output), ms) of one suite or check, by name."""
    name, seed = job
    start = time.perf_counter()
    result = CHECKS[name](seed)
    return result, (time.perf_counter() - start) * 1000.0


class VerifySuites:
    """Every verify suite, with the seed passed to wronskian and jensen."""

    name = "verify-suites"
    pass_order = (1, 2)

    def __init__(self, seed: int, outdir: Path):
        self.jobs = [(name, seed) for name in CHECKS]

    def run(self, jobs: int, pool=None) -> PassResult:
        start = time.perf_counter()
        if jobs == 1:
            results = [_guarded(run_suite, j) for j in self.jobs]
        else:
            results = _pool_map(pool, run_suite, self.jobs)
        wall = time.perf_counter() - start

        latencies, outcomes, fingerprint = [], [], {}
        for (name, _), (value, error) in zip(self.jobs, results):
            if error is not None:
                outcomes.append(f"{name}: {error}")
                fingerprint[name] = error
                continue
            (passed, text), ms = value
            latencies.append(ms)
            fingerprint[name] = text
            outcomes.append(None if passed else f"{name}: FAIL {text[-200:]}")
        return PassResult(wall, latencies, outcomes, digest(fingerprint))


WORKLOADS = {w.name: w for w in (DeskCampaign, DeepCells, SmallVerdicts, VerifySuites)}
