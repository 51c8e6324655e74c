"""Campaign sweeps, JSONL reports and the verification suites."""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from math import factorial
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
from turanstab.polycore import Poly, int_mul
from turanstab.sequences import POLAR_UNIT

from oracles import (
    RealRootCounter,
    is_squarefree,
    oracle_agreement,
    random_squarefree_poly,
    type_a_recurrence,
)

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def forks(monkeypatch):
    """Count the campaign's ``os.fork`` calls; the children are real."""
    calls, fork = [], os.fork
    monkeypatch.setattr(harness.os, "fork", lambda: calls.append(1) or fork())
    return calls


class SpoiledDiagonal(Exception):
    pass


def spoil_diagonals(monkeypatch, here=None, in_child=None):
    """Call ``here`` with the cells of every diagonal this process builds,
    and ``in_child`` with those of every diagonal a forked child builds."""
    parent, build = os.getpid(), harness.turan_diagonal

    def spoiled(window, top, ns):
        action = here if os.getpid() == parent else in_child
        if action is not None:
            action(ns)
        return build(window, top, ns)

    monkeypatch.setattr(harness, "turan_diagonal", spoiled)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_reflected_and_shifted_cells_match_two_passes(self, tmp_path):
        # reflect and shift are one substitution x -> -x - shift; each cell
        # must match reflecting first and shifting second, which here gives
        # other certificates than the opposite order
        spec = sequences.spec("type_a", [1, F(1, 2), *range(1, 13)])
        shift = F(-1, 2)
        seq = sequences.generate(spec, 3 + 2 * 2)
        reports = []
        for jobs in (1, 2):
            cfg = CampaignConfig(family=spec, k_max=3, n_max=2, reflect=True,
                                 shift=shift, jobs=jobs)
            records = run_campaign(cfg)
            assert len(records) == 8
            for rec in records:
                expr = expressions.extended_turan(seq, rec.k, rec.n)
                want = stability.is_weakly_hurwitz(
                    expr.compose_linear(-1, 0).compose_linear(1, shift))
                other = stability.is_weakly_hurwitz(
                    expr.compose_linear(1, shift).compose_linear(-1, 0))
                assert (rec.verdict, rec.degree) == (want.verdict, want.degree)
                assert rec.certificate == want.summary() != other.summary()
            path = tmp_path / f"report-{jobs}.jsonl"
            emit_reports(records, path)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_counterexample_flagging(self, monkeypatch):
        def spoiler(window, t, ns):
            # plant a right-half-plane root to exercise the flag path
            built = expressions.turan_diagonal(window, t, ns)
            return [expr * Poly([-1, 1]) for expr in built]

        monkeypatch.setattr(harness, "turan_diagonal", spoiler)
        records = run_campaign(bell_cfg(k_max=2, n_max=1, jobs=1))
        assert all(r.flagged and not r.verdict for r in records)

    def test_zero_expression_is_a_false_cell_of_no_degree(self):
        # gamma_0..gamma_2 = 0: the cells (0, 1), (1, 1) and (0, 2) are built
        # from zero members only, and their expressions are zero
        gamma = [0, 0, 0, 1, F(-1, 2), 0, 3, F(1, 7), 2]
        cfg = CampaignConfig(family=sequences.spec("jensen", gamma), k_max=4, n_max=2)
        records = run_campaign(cfg)
        zero = [(r.k, r.n) for r in records if r.degree == -1]
        assert zero == [(0, 1), (0, 2), (1, 1)]
        for r in records:
            if r.degree == -1:
                assert not r.verdict and r.flagged and r.certificate == {}

    def test_each_diagonal_forms_its_products_once(self, monkeypatch):
        products, per_unit = [], []

        def counting_mul(a, b):
            products.append(1)
            return int_mul(a, b)

        def counting_diagonal(window, t, ns):
            before = len(products)
            built = expressions.turan_diagonal(window, t, ns)
            per_unit.append((ns, len(products) - before))
            return built

        monkeypatch.setattr(expressions, "int_mul", counting_mul)
        monkeypatch.setattr(harness, "turan_diagonal", counting_diagonal)
        k_max, n_max = harness.TIER_LIMITS["desk"]
        run_campaign(bell_cfg(k_max=k_max, n_max=n_max))
        assert len(per_unit) == k_max + n_max
        assert all(count == max(ns) + 1 for ns, count in per_unit)
        full = [count for ns, count in per_unit if ns == tuple(range(1, n_max + 1))]
        assert full == [n_max + 1] * (k_max - n_max + 2)
        # t = 1 and 2 make 2 and 3 products, t = 3..28 four each; building
        # each cell alone made n + 1, so 26 * (2 + 3 + 4) = 234
        assert len(products) == 2 + 3 + 26 * 4

    @pytest.mark.parametrize("affinity, cpus, workers", [
        pytest.param(8, 8, 3, id="8-3"),
        pytest.param(2, 2, 2, id="2-2"),
        # a platform without affinity masks that cannot count its CPUs
        pytest.param(None, None, 1, id="None-None"),
        # pinned to one of eight CPUs, as under taskset -c 0
        pytest.param(1, 8, 1, id="1of8-None"),
    ])
    def test_pool_has_one_worker_per_cell_and_cpu_at_most(
        self, monkeypatch, forks, affinity, cpus, workers
    ):
        set_cpus(monkeypatch, affinity, cpus)
        records = run_campaign(bell_cfg(k_max=1, n_max=2, jobs=1_000_000))
        # four cells on the three diagonals k + n = 1, 2, 3, so three units;
        # this process is one worker, and each other worker a forked child
        assert len(forks) == workers - 1
        assert [(r.k, r.n, r.verdict) for r in records] == [
            (0, 1, True), (0, 2, True), (1, 1, True), (1, 2, True),
        ]
        assert_no_child_left()

    def test_deal_snakes_heaviest_first(self):
        assert harness._deal(list("abcdefg"), 2) == [list("ade"), list("bcfg")]
        assert harness._deal(list("abcdefg"), 3) == [list("afg"), list("be"), list("cd")]
        assert harness._deal(list("ab"), 1) == [list("ab")]

    def test_shares_get_heaviest_diagonals_first_and_every_cell_once(
        self, monkeypatch, forks
    ):
        set_cpus(monkeypatch, 2, 2)
        dealt, deal = [], harness._deal
        monkeypatch.setattr(harness, "_deal",
                            lambda units, workers: dealt.append(deal(units, workers)) or dealt[-1])
        records = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=2))
        [shares] = dealt
        assert len(shares) == 2 and len(forks) == 1
        # a unit is one diagonal t = k + n with its cells (t - n, n); the
        # shares take the diagonals t = 9, 8, ..., 1 in turn 0, 1, 1, 0, ...
        assert [[unit[1] for unit in share] for share in shares] == [
            [9, 6, 5, 2, 1], [8, 7, 4, 3],
        ]
        cells = [(t - n, n) for share in shares for _, t, ns, *_ in share for n in ns]
        assert sorted(cells) == [(k, n) for k in range(7) for n in range(1, 4)]
        keys = [(r.k, r.n) for r in records]
        assert keys == sorted(keys) and len(keys) == 7 * 3
        in_process = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=1))
        assert [replace(r, elapsed_ms=0.0) for r in records] == [
            replace(r, elapsed_ms=0.0) for r in in_process
        ]
        assert_no_child_left()

    def test_platform_without_fork_runs_in_process(self, monkeypatch):
        set_cpus(monkeypatch, 2, 2)
        in_process = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=1))
        monkeypatch.delattr(harness.os, "fork")
        records = run_campaign(bell_cfg(k_max=6, n_max=3, jobs=2))
        assert [replace(r, elapsed_ms=0.0) for r in records] == [
            replace(r, elapsed_ms=0.0) for r in in_process
        ]

    def test_a_child_exception_is_raised_again_here(self, monkeypatch, forks):
        set_cpus(monkeypatch, 2, 2)

        def fail(ns):
            raise SpoiledDiagonal(f"diagonal with n in {ns}")

        spoil_diagonals(monkeypatch, in_child=fail)
        with pytest.raises(SpoiledDiagonal) as info:
            run_campaign(bell_cfg(k_max=6, n_max=3, jobs=2))
        # the child's first diagonal is t = 8, with the cells n = 2, 3
        assert type(info.value) is SpoiledDiagonal
        assert str(info.value) == "diagonal with n in (2, 3)"
        assert len(forks) == 1
        assert_no_child_left()

    def test_a_failing_share_here_kills_the_children(self, monkeypatch, forks):
        set_cpus(monkeypatch, 2, 2)

        def fail(ns):
            raise SpoiledDiagonal("this process's share")

        # a child that would hang for a minute must be killed, not awaited
        spoil_diagonals(monkeypatch, here=fail, in_child=lambda ns: time.sleep(60))
        start = time.monotonic()
        with pytest.raises(SpoiledDiagonal, match="^this process's share$"):
            run_campaign(bell_cfg(k_max=6, n_max=3, jobs=2))
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        assert_no_child_left()

    def test_start_up_loads_no_process_pool(self, tmp_path):
        # the workers are forked children: neither import nor a campaign at
        # --jobs 2 loads a process pool
        code = ("import sys, turanstab.cli; "
                "turanstab.cli.main(['campaign', '--family', 'bell', '--k-max', '3', "
                "'--jobs', '2', '--out', sys.argv[1]]); "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "r.jsonl")],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.stdout.splitlines()[-1:] == ["[]"], proc.stderr

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
        assert list(tmp_path.iterdir()) == [path]  # no r.jsonl.partial

    def test_directory_path_leaves_no_partial(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(OSError, match="cannot write report to"):
            emit_reports(run_campaign(bell_cfg(k_max=1, n_max=1)), target)
        assert list(tmp_path.iterdir()) == [target]  # no adir.partial

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            emit_reports([], tmp_path / "missing" / "r.jsonl")

    @pytest.mark.parametrize("family, reflect, name", [
        ("bell", False, "bell"),
        ("laguerre", True, "laguerre-reflected"),
        ("bessel", False, "bessel"),
        # 301 false verdicts; in 150 of the 156 Legendre and Hermite cells
        # the gcd of the rotated parts is not real-rooted
        ("bell", True, "bell-reflected"),
        ("laguerre", False, "laguerre"),
        ("legendre", False, "legendre"),
        ("hermite", False, "hermite"),
    ])
    def test_desk_report_matches_golden(self, tmp_path, family, reflect, name):
        # the golden files are the desk-tier reports, written with jobs=1:
        # criterion 4's three all-true campaigns and four with false cells;
        # regenerating them with jobs=2 also pins --jobs independence
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

    def test_legendre_proof_holds_to_the_full_tier(self):
        # past the suite's k <= 20, to k <= 50; about 0.6 s
        assert verify_legendre_turan(50)

    @pytest.mark.parametrize("t0", [
        Poly([1, 1]),  # 1 - x^2 does not divide it
        Poly([1, 0, -1]) * Poly([6, -5, 1]),  # q = (x - 2)(x - 3), q(0) > 0
        Poly([1, 0, -1]) * Poly([-1, 0, -1]),  # q = -(x^2 + 1), no real zero
        Poly(),  # q = 0
    ], ids=["inexact", "real-zeros", "negative", "zero"])
    def test_legendre_refutes_a_bad_expression(self, monkeypatch, t0):
        # P_0 = 1, P_1 = 0, P_2 = -t0 give T_0 = P_1^2 - P_0 P_2 = t0
        seq = [Poly.one(), Poly(), -t0, Poly.one()]
        monkeypatch.setattr(sequences, "legendre", lambda k_max: seq)
        assert verify_legendre_turan(1) is False

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

    def test_theorem_type_h_windows_start_inside_the_zeros(self, monkeypatch):
        # the right window of T_k starts at or below the largest zero of
        # P_{k+1} and the left one at or above its smallest, so a pass
        # proves the claim beyond the zeros themselves
        calls = []

        def recording(f, tau, *, left):
            calls.append(tau)
            return stability.nonvanishing_halfplane(f, tau, left=left)

        monkeypatch.setattr(harness, "nonvanishing_halfplane", recording)
        spec = sequences.spec("hermite")
        assert verify_theorem_1_2(spec, 6)
        seq = sequences.generate(spec, 8)
        assert len(calls) == 14
        for k, (right, left) in enumerate(zip(calls[::2], calls[1::2])):
            counter = RealRootCounter(seq[k + 1])
            assert counter.count(right, None) >= 1, k
            assert counter.count(None, left) >= 1, k

    @pytest.mark.parametrize("params", [(1, F(1, 2), 3), (F(1, 3), -2, F(-1, 2))])
    def test_theorem_asymmetric_type_h(self, params):
        # the zeros centre on b/a, not on 0 as Hermite's do, so the two
        # sides of a window are two different questions
        assert verify_theorem_1_2(sequences.spec("type_h", params), 10)

    def test_theorem_polar_sequence(self):
        seq = polar_unit_sequence(10)
        assert sequences.verify_relation(seq, POLAR_UNIT)
        assert verify_theorem_1_2(seq, 8)

    def test_theorem_rejects_bad_sequence(self):
        with pytest.raises(ValueError):
            verify_theorem_1_2(sequences.bell(10), 8)  # wrong polar relation
        with pytest.raises(ValueError):
            verify_theorem_1_2(polar_unit_sequence(3), 8)  # too short

    @pytest.mark.parametrize("tops", [
        [F(1, factorial(k)) for k in range(1, 11)],  # (x - 1)^k / k!
        [0, 1, *[0] * 8],  # P_2 = x^2 + 1/2, P_3 = -x^2 - 1/6, ...
    ], ids=["positive", "non-real"])
    def test_theorem_rejects_polar_zeros_off_the_nonpositive_axis(self, tops):
        # P_0 = 1 and (x D - k) P_k = P_{k-1}: x^j, j < k, takes the
        # coefficient of P_{k-1} over j - k, and x^k the free tops[k - 1]
        seq = [Poly.one()]
        for k, top in enumerate(tops, 1):
            prev = list(seq[-1].coeffs) + [0] * (k - len(seq[-1].coeffs))
            seq.append(Poly([c / (j - k) for j, c in enumerate(prev)] + [top]))
        assert sequences.verify_relation(seq, POLAR_UNIT)
        with pytest.raises(ValueError, match="non-positive zeros"):
            verify_theorem_1_2(seq, 8)

    def test_question_probe_reports_all_k(self):
        out = question_probe_jensen(5)
        assert [k for k, _ in out] == list(range(6))
        assert all(isinstance(v, bool) for _, v in out)

    def test_extreme_root_tol_pinned(self):
        assert EXTREME_ROOT_TOL == F(1, 1 << 20)


class TestBeyondTheSuites:
    """Claims past what ``verify --suite all`` checks."""

    @pytest.mark.parametrize("params, inner", [
        (params, inner)
        for inner in (False, True)
        for params in ((2, 0, -1), (1, F(1, 2), 3), (F(1, 3), -2, F(-1, 2)))
    ], ids=[*(f"params{i}" for i in range(3)),
            *(f"params{i}-P_k-inner" for i in range(3))])
    def test_type_h_windows_at_extended_orders(self, params, inner):
        # T(k, n) for n = 1, 2, 3 has no zero right of the upper bracket
        # end of P_{k+1}'s largest zero, nor left of the lower end of its
        # smallest; each end lies within 2^-20 outside its zero, so this is
        # the type-H claim checked just beyond the zeros, on both sides.
        # With ``inner`` the window is P_k's, for k >= 2, checked at the
        # inner bracket ends (M_lo < M and m_hi >= m), so a pass implies the
        # tighter claim at the zeros themselves.  At k = 1 the zeros of
        # T(1, n) lie on the line Re x = b/a through the one zero of P_1:
        # the right side fails at M_lo, and the left side holds only because
        # b/a is dyadic here, so the bisection stops at m_hi = b/a.
        seq = sequences.generate(sequences.spec("type_h", params), 12 + 2 * 3)
        for k in range(1 if inner else 0, 13):
            m_lo, m_hi, M_lo, M_hi = stability.isolate_extreme_roots(
                seq[k if inner else k + 1], EXTREME_ROOT_TOL)
            left, right = (m_hi, M_lo) if inner else (m_lo, M_hi)
            for n in (1, 2, 3):
                expr = expressions.extended_turan(seq, k, n)
                holds = stability.nonvanishing_halfplane(expr, right, left=False)
                assert holds == (not inner or k > 1), (k, n)
                assert stability.nonvanishing_halfplane(expr, left, left=True), (k, n)

    def test_type_a_cell_stable_iff_its_c_step_rises(self):
        # outside the type-A hypothesis of a non-decreasing c, the n = 1
        # cell k, shifted by -b, is stable exactly where c_{k+1} >= c_k
        rng = random.Random(DEFAULT_SEED)
        cells = 0
        for _ in range(12):
            a, b = rng.choice([1, 2, -1, F(1, 3)]), rng.randint(0, 3)
            c = [F(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(14)]
            assert any(x > y for x, y in zip(c, c[1:]))  # not monotone
            seq = type_a_recurrence(a, b, c, 14)
            for k in range(13):
                expr = expressions.reflect_shift(expressions.turan(seq, k), False, -b)
                stable = stability.is_weakly_hurwitz(expr).verdict
                assert stable == (c[k + 1] >= c[k]), (a, b, c, k)
                cells += 1
        assert cells == 156


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
