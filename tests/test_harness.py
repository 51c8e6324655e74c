"""Campaign sweeps, JSONL reports and the verification suites."""

import json
import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from turanstab import expressions, harness, sequences, stability
from turanstab.harness import (
    CampaignConfig,
    DEFAULT_SEED,
    EXTREME_ROOT_TOL,
    emit_reports,
    polar_unit_sequence,
    question_probe_jensen,
    run_campaign,
    verify_chebyshev_closed_forms,
    verify_fisk_counterexample,
    verify_jensen_laguerre_relations,
    verify_legendre_turan,
    verify_theorem_1_2,
    verify_wronskian_strip,
)
from turanstab.polycore import Poly
from turanstab.sequences import POLAR_UNIT

from oracles import is_squarefree, oracle_agreement, random_squarefree_poly

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def pool_calls(monkeypatch):
    """Stand in for the campaign's process pool in this process, so no
    worker process is ever started; each pool records its worker count and
    the cells and chunk size given to ``map``."""
    calls = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.call = {"max_workers": max_workers}
            calls.append(self.call)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            cells = list(iterable)
            self.call.update(cells=cells, chunksize=chunksize)
            return map(fn, cells)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    return calls


def set_cpus(monkeypatch, affinity, cpus):
    """``affinity`` CPUs in this process's mask (None: the platform has no
    masks) out of ``cpus`` on the machine."""
    if affinity is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(affinity)))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)


def bell_cfg(**kw):
    base = dict(family=sequences.spec("bell"), k_max=4, n_max=2)
    base.update(kw)
    return CampaignConfig(**base)


class TestCampaign:
    def test_grid_shape_and_order(self):
        records = run_campaign(bell_cfg())
        assert len(records) == 5 * 2
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_windowed_builder_matches_direct_expression(self):
        records = run_campaign(bell_cfg())
        seq = sequences.generate(sequences.spec("bell"), 4 + 2 * 2)
        for rec in records:
            expr = expressions.extended_turan(seq, rec.k, rec.n)
            assert rec.degree == expr.degree()

    def test_bell_grid_all_stable(self):
        records = run_campaign(bell_cfg())
        assert all(r.verdict and not r.flagged for r in records)

    def test_deterministic_across_jobs(self, tmp_path):
        paths = []
        for jobs in (1, 2):
            records = run_campaign(bell_cfg(jobs=jobs))
            path = tmp_path / f"report-{jobs}.jsonl"
            emit_reports(records, path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

    def test_counterexample_flagging(self, monkeypatch):
        def spoiler(window, k, n, reflect, shift):
            # plant a right-half-plane root to exercise the flag path
            built = expressions.build_expression(window, k, n, reflect, shift)
            return built * Poly([-1, 1])

        monkeypatch.setattr(harness, "build_expression", spoiler)
        records = run_campaign(bell_cfg(k_max=2, n_max=1, jobs=1))
        assert all(r.flagged and not r.verdict for r in records)

    @pytest.mark.parametrize("affinity, cpus, workers", [
        pytest.param(8, 8, 3, id="8-3"),
        pytest.param(2, 2, 2, id="2-2"),
        # a platform without affinity masks that cannot count its CPUs
        pytest.param(None, None, None, id="None-None"),
        # pinned to one of eight CPUs, as under taskset -c 0
        pytest.param(1, 8, None, id="1of8-None"),
    ])
    def test_pool_has_one_worker_per_cell_and_cpu_at_most(
        self, monkeypatch, pool_calls, affinity, cpus, workers
    ):
        set_cpus(monkeypatch, affinity, cpus)
        records = run_campaign(bell_cfg(k_max=2, n_max=1, jobs=1_000_000))
        # three cells; one worker runs them in this process, without a pool
        assert [c["max_workers"] for c in pool_calls] == ([workers] if workers else [])
        assert [(r.k, r.n, r.verdict) for r in records] == [
            (0, 1, True), (1, 1, True), (2, 1, True),
        ]

    def test_pool_gets_heaviest_cells_first_in_few_chunks(
        self, monkeypatch, pool_calls
    ):
        set_cpus(monkeypatch, 2, 2)
        records = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=2))
        [call] = pool_calls
        sizes = [cell[1] + cell[2] for cell in call["cells"]]
        assert sizes == sorted(sizes, reverse=True)
        chunks = -(-len(call["cells"]) // call["chunksize"])
        assert chunks <= 4 * call["max_workers"]
        keys = [(r.k, r.n) for r in records]
        assert keys == sorted(keys) and len(keys) == 7 * 3
        in_process = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=1))
        assert [replace(r, elapsed_ms=0.0) for r in records] == [
            replace(r, elapsed_ms=0.0) for r in in_process
        ]

    def test_tier_limits(self):
        with pytest.raises(ValueError):
            bell_cfg(k_max=30, tier="desk")
        bell_cfg(k_max=30, tier="full")
        with pytest.raises(ValueError):
            bell_cfg(n_max=0)
        with pytest.raises(ValueError):
            bell_cfg(jobs=0)


class TestReports:
    def test_schema(self, tmp_path):
        records = run_campaign(bell_cfg(k_max=1, n_max=1))
        path = tmp_path / "r.jsonl"
        emit_reports(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == len(records)
        for line in lines:
            rec = json.loads(line)
            assert rec["schema"] == 1
            assert set(rec) == {
                "schema", "family", "k", "n", "degree",
                "verdict", "flagged", "certificate",
            }
            assert "elapsed_ms" not in rec

    def test_timing_opt_in(self, tmp_path):
        records = run_campaign(bell_cfg(k_max=1, n_max=1))
        path = tmp_path / "t.jsonl"
        emit_reports(records, path, with_timing=True)
        rec = json.loads(path.read_text().splitlines()[0])
        assert "elapsed_ms" in rec

    def test_failed_write_leaves_the_old_report(self, tmp_path, monkeypatch):
        records = run_campaign(bell_cfg(k_max=1, n_max=1))
        path = tmp_path / "r.jsonl"
        path.write_bytes(b"previous report\n")
        dumps = json.dumps
        calls = []

        def dumps_then_fail(obj):
            calls.append(obj)
            if len(calls) > 1:
                raise RuntimeError("killed mid-report")
            return dumps(obj)

        monkeypatch.setattr(harness.json, "dumps", dumps_then_fail)
        with pytest.raises(RuntimeError):
            emit_reports(records, path)
        assert len(calls) == 2
        assert path.read_bytes() == b"previous report\n"

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_reports([], tmp_path / "missing" / "r.jsonl")

    @pytest.mark.parametrize("family, reflect, name", [
        ("bell", False, "bell"),
        ("laguerre", True, "laguerre-reflected"),
        ("bessel", False, "bessel"),
    ])
    def test_desk_report_matches_golden(self, tmp_path, family, reflect, name):
        # the golden files are the criterion-4 desk-tier reports, written
        # with jobs=1; regenerating them with jobs=2 also pins --jobs
        # independence
        k_max, n_max = harness.TIER_LIMITS["desk"]
        cfg = CampaignConfig(family=sequences.spec(family), k_max=k_max,
                             n_max=n_max, reflect=reflect, jobs=2)
        path = tmp_path / f"{name}-desk.jsonl"
        emit_reports(run_campaign(cfg), path)
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()

    @pytest.mark.parametrize("family, reflect, name", [
        ("bell", False, "bell"),
        ("laguerre", True, "laguerre-reflected"),
        ("bessel", False, "bessel"),
    ])
    def test_full_report_matches_golden(self, tmp_path, family, reflect, name):
        # the golden files are the full-tier reports (k <= 50, n <= 5),
        # written with jobs=2; every cell of degree >= 32 takes the interval
        # Routh fast path, so the whole grid is recomputed in a few seconds
        k_max, n_max = harness.TIER_LIMITS["full"]
        cfg = CampaignConfig(family=sequences.spec(family), k_max=k_max,
                             n_max=n_max, reflect=reflect, jobs=2, tier="full")
        path = tmp_path / f"{name}-full.jsonl"
        emit_reports(run_campaign(cfg), path)
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes()


class TestSuites:
    def test_fisk(self):
        assert verify_fisk_counterexample()

    def test_chebyshev_closed_forms_small(self):
        assert verify_chebyshev_closed_forms(6, 3)

    def test_legendre_small(self):
        assert verify_legendre_turan(8)

    def test_wronskian_strip_small(self):
        assert verify_wronskian_strip(20, seed=DEFAULT_SEED)

    def test_jensen_relations_small(self):
        assert verify_jensen_laguerre_relations(10, seed=DEFAULT_SEED)

    def test_jensen_relations_check_every_k(self, monkeypatch):
        calls = []

        def counting(expr):
            calls.append(expr)
            return stability.is_weakly_hurwitz(expr)

        monkeypatch.setattr(harness, "is_weakly_hurwitz", counting)
        assert verify_jensen_laguerre_relations(51, seed=DEFAULT_SEED)
        assert len(calls) == 52

    def test_theorem_bell_small(self):
        assert verify_theorem_1_2(sequences.spec("bell"), 8)

    def test_theorem_type_a_with_shift(self):
        spec = sequences.spec("type_a", [1, F(1, 2), *range(1, 13)])
        assert verify_theorem_1_2(spec, 8)

    def test_theorem_hermite_small(self):
        assert verify_theorem_1_2(sequences.spec("hermite"), 6)

    def test_theorem_polar_sequence(self):
        seq = polar_unit_sequence(10)
        assert sequences.verify_relation(seq, POLAR_UNIT)
        assert verify_theorem_1_2(seq, 8)

    def test_theorem_rejects_bad_sequence(self):
        with pytest.raises(ValueError):
            verify_theorem_1_2(sequences.bell(10), 8)  # wrong polar relation
        with pytest.raises(ValueError):
            verify_theorem_1_2(polar_unit_sequence(3), 8)  # too short

    def test_question_probe_reports_all_k(self):
        out = question_probe_jensen(5)
        assert [k for k, _ in out] == list(range(6))
        assert all(isinstance(v, bool) for _, v in out)

    def test_extreme_root_tol_pinned(self):
        assert EXTREME_ROOT_TOL == F(1, 1 << 20)


class TestOracleAgreement:
    def test_random_squarefree(self):
        rng = random.Random(DEFAULT_SEED)
        for _ in range(25):
            p = random_squarefree_poly(rng, max_degree=6)
            assert 1 <= p.degree() <= 6
            assert is_squarefree(p)

    def test_agreement_sample(self):
        agreements, total, mismatches = oracle_agreement(samples=60)
        assert total == 60
        assert agreements == total
        assert mismatches == []

    def test_seed_determinism(self):
        a = oracle_agreement(samples=20, seed=7)
        b = oracle_agreement(samples=20, seed=7)
        assert a == b
