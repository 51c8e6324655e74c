"""Self-checks of the benchmark's own parts.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import tracer  # noqa: E402
from known_verdicts import KINDS, MAX_DEGREE, MIN_DEGREE, known_verdict_polys  # noqa: E402
from turanstab import expressions, harness, polycore, sequences, stability  # noqa: E402
from turanstab.stability import INCONCLUSIVE, ORACLE_MAX_DEGREE, STABLE  # noqa: E402


@pytest.fixture(scope="module")
def known():
    return known_verdict_polys(seed=7, count=600)


def test_generator_is_balanced_and_covers_every_kind(known):
    assert sum(kp.stable for kp in known) == len(known) // 2
    assert {kp.poly.degree() for kp in known} == set(range(MIN_DEGREE, MAX_DEGREE + 1))
    kinds = Counter(kind for kp in known for kind in kp.kinds)
    assert set(kinds) == set(KINDS)


def test_generator_is_seeded(known):
    again = known_verdict_polys(seed=7, count=600)
    assert [kp.poly for kp in again] == [kp.poly for kp in known]
    other = known_verdict_polys(seed=8, count=600)
    assert [kp.poly for kp in other] != [kp.poly for kp in known]


def test_generator_truth_agrees_with_the_numeric_oracle(known):
    # A zero of multiplicity > 1 on the imaginary axis splits numerically by
    # about sqrt(machine epsilon), beyond the oracle's axis tolerance, so the
    # oracle does not apply there.
    checked = 0
    for kp in known:
        if kp.poly.degree() > ORACLE_MAX_DEGREE or kp.multiple_axis_zero:
            continue
        oracle = stability.cross_check_oracle(kp.poly)
        if oracle == INCONCLUSIVE:
            continue
        checked += 1
        assert (oracle == STABLE) == kp.stable, kp
    assert checked > len(known) // 3


def test_generator_truth_agrees_with_the_exact_verdict(known):
    for kp in known[:200]:
        assert stability.is_weakly_hurwitz(kp.poly).verdict == kp.stable, kp


def _bell_cell():
    seq = sequences.generate(sequences.spec("bell"), 14)
    return expressions.extended_turan(seq, 10, 2)


def test_tracer_binds_every_alias_and_restores_them():
    original = polycore.int_pseudo_rem
    with tracer.Tracer():
        assert stability.int_pseudo_rem is polycore.int_pseudo_rem is not original
        assert harness.is_weakly_hurwitz is stability.is_weakly_hurwitz
        assert harness.is_weakly_hurwitz.__wrapped__ is not None
    assert stability.int_pseudo_rem is polycore.int_pseudo_rem is original
    assert "__wrapped__" not in vars(harness.is_weakly_hurwitz)
    assert polycore.Poly.__dict__["__mul__"].__name__ == "__mul__"


def test_traced_counts_repeat_and_verdicts_match():
    expr = _bell_cell()
    plain = stability.is_weakly_hurwitz(expr).summary()
    runs = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            cert = stability.is_weakly_hurwitz(expr)
        assert cert.summary() == plain
        metrics = tr.metrics()
        runs.append(({k: v for k, v in metrics.items() if not k.endswith("_s")}, tr.verdicts))
    assert runs[0] == runs[1]
    metrics, verdicts = runs[0]
    assert metrics["stability.is_weakly_hurwitz.calls"] == 1
    assert metrics["stability.chain_length_max"] == plain["chain_length"]
    assert verdicts[0]["chain_bits"] > 0


def test_self_time_excludes_children():
    with tracer.Tracer() as tr:
        stability.is_weakly_hurwitz(_bell_cell())
    m = tr.metrics()
    for name in ("stability.is_weakly_hurwitz", "polycore.gcd"):
        assert 0 <= m[f"{name}.self_s"] < m[f"{name}.total_s"]
    assert m["polycore.int_pseudo_rem.self_s"] == pytest.approx(
        m["polycore.int_pseudo_rem.total_s"]
    )


def test_missing_target_is_noted_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("polycore", "no_such_fn"),))
    with tracer.Tracer() as tr:
        stability.is_weakly_hurwitz(polycore.Poly([1, 1]))
    assert tr.notes == ["polycore.no_such_fn: not found, metrics omitted"]
    assert not any(k.startswith("polycore.no_such_fn") for k in tr.metrics())
