"""Layered benchmark of turanstab's verdict pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload desk-campaign --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in its own process.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from reference import NOMINAL_S, ParallelReference, reference_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("desk-campaign", "deep-cells", "small-verdicts", "verify-suites")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_jobs2_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

SETUP_SAMPLES = 9
SETUP_PER_BLOCK = 3
SETUP_CODE = "import sys; from turanstab import cli; sys.exit(cli.main(sys.argv[1:]))"
SETUP_ARGS = ("stability", "--poly", "1,1")
SETUP_EXPECT = "weakly-hurwitz-stable"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import turanstab from this checkout's src/, and nothing else."""
    if not (SRC / "turanstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no turanstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import turanstab

    if Path(turanstab.__file__).resolve().parent != SRC / "turanstab":
        sys.exit(f"perfbench: imported turanstab from {turanstab.__file__}, not {SRC}")


# -- annotations --------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def git_sha() -> str:
    """HEAD of this checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- measurements -------------------------------------------------------

def setup_sample() -> tuple[float, str | None]:
    """Time for a fresh interpreter to import the CLI and print one trivial
    verdict, and what went wrong, if anything."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, *SETUP_ARGS]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode == 0 and proc.stdout.strip() == SETUP_EXPECT:
        return elapsed, None
    return elapsed, f"setup: exit {proc.returncode}: {proc.stderr[-200:]}"


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_pool(workload_name: str):
    """Two spawned workers for the workloads that split a pass themselves;
    desk-campaign uses run_campaign's own pool."""
    if workload_name == "desk-campaign":
        return None
    pool = ProcessPoolExecutor(
        max_workers=2,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=importlib.import_module,
        initargs=("workloads",),
    )
    # two submissions start both workers, which import the program
    list(pool.map(time.sleep, [0.2, 0.2]))
    return pool


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.outcomes: list[str | None] = []
        self.fingerprint: str | None = None

    def record(self, result, label: str) -> None:
        """Add a pass's checks, and check its outputs match the first pass."""
        self.outcomes += result.outcomes
        if self.fingerprint is None:
            self.fingerprint = result.fingerprint
        else:
            same = result.fingerprint == self.fingerprint
            self.outcomes.append(None if same else f"{label}: outputs differ from the first pass")

    def end_to_end(self) -> tuple[dict, dict]:
        """Passes in the workload's pass_order until the time is up, each
        between two runs of the reference work (see reference.py), with the
        setup samples taken in blocks between the first passes."""
        self.outcomes.append(setup_sample()[1])  # may write bytecode: unmeasured
        passes, setups = [], []
        pool = make_pool(self.workload.name)
        parallel = ParallelReference()
        try:
            start = time.perf_counter()
            order = self.workload.pass_order
            for n in itertools.count():
                jobs = order[n % len(order)]
                # a jobs=2 pass depends on both CPUs, so its reference work
                # runs on two processes at once
                reference = reference_s if jobs == 1 else parallel.measure
                before = reference()
                result = self.workload.run(jobs, pool)
                after = reference()
                self.record(result, f"jobs={jobs} pass {n + 1}")
                passes.append({"jobs": jobs, "wall_s": result.wall_s,
                               "latencies_ms": result.latencies_ms, "refs": (before, after)})
                if len(setups) < SETUP_SAMPLES:
                    setups += self.setup_block(parallel)
                # stop before the next pass would overrun the time
                upcoming = [p["wall_s"] for p in passes
                            if p["jobs"] == order[(n + 1) % len(order)]]
                if upcoming and time.perf_counter() - start + statistics.mean(upcoming) > self.seconds:
                    break
            while len(setups) < SETUP_SAMPLES:
                setups += self.setup_block(parallel)
        finally:
            parallel.close()
            if pool is not None:
                pool.shutdown(wait=True)

        scaled = {1: [], 2: []}
        p50s, p99s = [], []
        for p in passes:
            scale = NOMINAL_S / statistics.mean(p["refs"])
            scaled[p["jobs"]].append(p["wall_s"] * scale)
            if p["jobs"] == 1:
                p50s.append(statistics.median(p["latencies_ms"]) * scale)
                p99s.append(percentile(p["latencies_ms"], 99) * scale)
        setup = [t * NOMINAL_S / statistics.mean(refs) for t, refs in setups]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(scaled[1]),
            "wall_jobs2_s": statistics.median(scaled[2]),
            "verdict_p50_ms": statistics.median(p50s),
            "verdict_p99_ms": statistics.median(p99s),
            "peak_rss_mb": peak_rss_mb(),
        }
        one = [p for p in passes if p["jobs"] == 1]
        detail = {
            "verdict_samples_per_pass": len(one[0]["latencies_ms"]),
            "unscaled": {
                "setup_s": statistics.median(t for t, _ in setups),
                "wall_s": statistics.median(p["wall_s"] for p in one),
                "wall_jobs2_s": statistics.median(p["wall_s"] for p in passes if p["jobs"] == 2),
                "verdict_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in one),
                "verdict_p99_ms": statistics.median(percentile(p["latencies_ms"], 99) for p in one),
            },
            "passes": [{k: p[k] for k in ("jobs", "wall_s", "refs")} for p in passes],
            "setup_samples": setups,
            "outputs_sha256": self.fingerprint,
        }
        return metrics, detail

    def setup_block(self, parallel) -> list[tuple[float, tuple[float, float]]]:
        """SETUP_PER_BLOCK setup times, each with the reference times, on
        both CPUs, just before and after it: a fresh interpreter may start on
        either CPU."""
        block = []
        before = parallel.measure()
        for _ in range(SETUP_PER_BLOCK):
            elapsed, outcome = setup_sample()
            self.outcomes.append(outcome)
            after = parallel.measure()
            block.append((elapsed, (before, after)))
            before = after
        return block

    def traced(self) -> tuple[dict, dict]:
        from tracer import Tracer
        from workloads import digest

        # Untraced and traced passes alternate; the counts and times come from
        # the first traced pass, and every later traced pass must repeat its
        # counts exactly.
        plain_walls, traced_walls, tracer, first = [], [], None, None
        start = time.perf_counter()
        while True:
            plain = self.workload.run(1)
            self.record(plain, f"untraced pass {len(plain_walls) + 1}")
            plain_walls.append(plain.wall_s)
            with Tracer() as this_tracer:
                this = self.workload.run(1)
            label = f"traced pass {len(traced_walls) + 1}"
            self.record(this, label)
            traced_walls.append(this.wall_s)
            if tracer is None:
                tracer, first, counts = this_tracer, this, _counts(this_tracer)
            else:
                same = _counts(this_tracer) == counts
                self.outcomes.append(None if same else f"{label}: counts differ from the first")
            elapsed = time.perf_counter() - start
            if elapsed * (len(plain_walls) + 1) / len(plain_walls) > self.seconds:
                break
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls)
        detail = {
            "untraced_wall_s_all": plain_walls,
            "traced_wall_s_all": traced_walls,
            "spans": len(tracer.start),
            "notes": tracer.notes,
            # their metrics read 0 on this workload
            "not_called": [name for name in tracer.names if not metrics[f"{name}.calls"]],
            "outputs_sha256": self.fingerprint,
        }
        stem = f"{self.workload.name}-seed{self.seed}"
        tracer.write_spans(OUT / f"{stem}-spans.tsv")
        if first.cells:
            cells = _with_bits(first.cells, tracer.verdicts, detail["notes"])
            lines = ",\n".join(json.dumps(c) for c in cells)
            (OUT / f"{stem}-cells.json").write_text(f"[\n{lines}\n]\n")
            detail["cells"] = len(cells)
            detail["cells_sha256"] = digest(cells)
            detail["cell_max"] = {
                key: max(c[key] for c in cells if c.get(key) is not None)
                for key in ("degree", "chain_length", "gcd_degree", "chain_bits")
                if any(c.get(key) is not None for c in cells)
            }
        return metrics, detail


def _counts(tracer) -> tuple[dict, list[dict]]:
    """A traced pass's metrics other than times, and its per-verdict counts."""
    from tracer import metric_units

    units = metric_units()
    counts = {k: v for k, v in tracer.metrics().items() if units[k] not in ("s", "ms")}
    return counts, tracer.verdicts


def _with_bits(cells: list[dict], verdicts: list[dict], notes: list[str]) -> list[dict]:
    """Join each cell's certificate counts with the chain bit size the tracer
    saw during that cell's verdict."""
    if len(cells) != len(verdicts):
        notes.append(f"{len(cells)} cells but {len(verdicts)} traced verdicts: bits omitted")
        return cells
    joined = []
    for cell, seen in zip(cells, verdicts):
        if (seen["degree"], seen["chain_length"]) != (cell["degree"], cell["chain_length"]):
            notes.append("traced verdicts out of cell order: bits omitted")
            return cells
        joined.append({**cell, "chain_bits": seen["chain_bits"]})
    return joined


def run_one(args) -> int:
    import_program()
    from tracer import metric_units
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(workload, args.seed, args.seconds)
    if args.trace:
        metrics, detail = run.traced()
        units = metric_units()
    else:
        metrics, detail = run.end_to_end()
        units = END_TO_END_UNITS
    failures = [o for o in run.outcomes if o is not None]
    attempted, failed = len(run.outcomes), len(failures)
    for name, value in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {units[name]}")
    print(f"{args.workload}  checks: {attempted} attempted, {failed} failed, "
          f"failed_frac {failed / attempted:.6g}")
    for text in failures[:20]:
        print(f"{args.workload}  FAILED {text}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "git_sha": git_sha(),
        "failed_frac": failed / attempted,
        **detail,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def stop_multiprocessing_helpers() -> None:
    """Stop the processes multiprocessing starts on demand and leaves running
    until this process exits (the resource tracker of a spawn pool, a fork
    server), and wait for each to end."""
    from multiprocessing import forkserver, resource_tracker

    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    # on SIGTERM, unwind normally so that every helper process is stopped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.seconds < 1:
        sys.exit("perfbench: --seconds must be at least 1")
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    finally:
        stop_multiprocessing_helpers()


if __name__ == "__main__":
    sys.exit(main())
