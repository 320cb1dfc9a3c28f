"""Tests of the benchmark itself: smoke runs, replay-failure counting, tracing.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.fixture(scope="module")
def rz():
    return harness.import_realz(fresh=False)


def _smoke(workload, trace, tmp_path):
    return harness.run(workload, 3, 0, trace, smoke=True, fresh_import=False, out_dir=tmp_path)


def _printed_units(result) -> dict:
    units = {}
    for line in run.report_lines(result)[:-1]:
        parts = line.split()
        if len(parts) == 3:
            units[parts[0]] = parts[2]
    return units


def test_benchmark_json_lists_every_workload():
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_end_to_end_metric(workload, tmp_path):
    result = _smoke(workload, False, tmp_path)
    assert result["correct"]
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = _printed_units(result)
    for name, unit in expected.items():
        assert printed[name] == unit
    assert all(v["value"] > 0 for k, v in result["metrics"].items() if k != "proved_frac")
    last = json.loads(run.report_lines(result)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_smoke_run_prints_every_layer_metric(workload, tmp_path, rz):
    result = _smoke(workload, True, tmp_path)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = _printed_units(result)
    for name, unit in expected.items():
        assert printed[name] == unit
    # The wrappers are gone once the run ends.
    assert not hasattr(rz.check_realizability, "__wrapped__")
    assert not hasattr(rz.simplex.solve, "__wrapped__")
    records = [json.loads(line) for line in open(tmp_path / f"{workload}-s3-t1-ops.jsonl")]
    assert all("pivots" in rec for rec in records)


def test_same_seed_gives_same_inputs(rz, tmp_path):
    first = workloads.full_float_round(rz, 5, 0, str(tmp_path), smoke=True)
    second = workloads.full_float_round(rz, 5, 0, str(tmp_path), smoke=True)
    assert [op.label for op in first] == [op.label for op in second]
    for a, b in zip(first, second):
        assert np.array_equal(a.corr.rho2, b.corr.rho2)


def test_infeasible_variant_breaks_the_closed_form_condition(rz):
    domain = workloads.complete_domain(rz, 4, 2)
    base = rz.correlations_of(rz.bernoulli_product(domain, [Fraction(1, 3)] * 4))
    broken = workloads.break_total_count(rz, base, 8, 0.5, True)
    assert min(workloads.total_count_margins(base, 8)) >= 0
    assert min(workloads.total_count_margins(broken, 8)) < 0
    assert not rz.check_realizability(domain, broken).feasible


def _infeasible_op(rz):
    domain = workloads.complete_domain(rz, 3, 1)
    base = rz.correlations_of(rz.bernoulli_product(domain, [0.3, 0.4, 0.5]))
    corr = workloads.break_total_count(rz, base, 3, 0.5, False)
    return workloads.Op("check", "complete(3,c1)", domain, corr, expect=False)


def _feasible_op(rz):
    domain = workloads.complete_domain(rz, 3, 1)
    corr = rz.correlations_of(rz.bernoulli_product(domain, [0.3, 0.4, 0.5]))
    return workloads.Op("check", "complete(3,c1)", domain, corr, expect=True)


def _counted(rz, op, outcome, monkeypatch):
    monkeypatch.setattr(rz, "check_realizability", lambda *args, **kwargs: outcome)
    record, _ = harness.execute(rz, op, "t0")
    return record["fail"], harness._fail_counts([record])


def test_sign_flipped_certificate_counts_as_replay_failure(rz, monkeypatch):
    op = _infeasible_op(rz)
    genuine = rz.check_realizability(op.domain, op.corr)
    assert harness.judge_library(rz, op, genuine) == ("infeasible", None)
    cert = genuine.certificate
    flipped = rz.RealizationResult.refuted(
        rz.QuadraticPolynomial(f0=-cert.f0, f1=-cert.f1, f2=-cert.f2)
    )
    fail, counts = _counted(rz, op, flipped, monkeypatch)
    assert fail == "replay"
    assert counts == {"replay": 1, "verdict": 0, "error": 0}


def test_perturbed_witness_counts_as_replay_failure(rz, monkeypatch):
    op = _feasible_op(rz)
    genuine = rz.check_realizability(op.domain, op.corr)
    assert harness.judge_library(rz, op, genuine) == ("feasible", None)
    atoms = [list(atom) for atom in genuine.distribution.atoms]
    shift = min(atoms[0][1], 1e-3) / 2
    atoms[0][1] -= shift
    atoms[1][1] += shift
    perturbed = rz.RealizationResult.realized(
        rz.Distribution(op.domain, tuple(tuple(atom) for atom in atoms))
    )
    fail, counts = _counted(rz, op, perturbed, monkeypatch)
    assert fail == "replay"
    assert counts == {"replay": 1, "verdict": 0, "error": 0}


def test_wrong_verdict_and_raising_op_are_counted(rz, monkeypatch):
    op = _infeasible_op(rz)
    witness = rz.check_realizability(_feasible_op(rz).domain, _feasible_op(rz).corr)
    assert _counted(rz, op, witness, monkeypatch)[0] == "verdict"

    def boom(*args, **kwargs):
        raise rz.IterationLimitError("pivot budget")

    monkeypatch.setattr(rz, "check_realizability", boom)
    record, _ = harness.execute(rz, op, "t1")
    assert record["fail"] == "error"


def test_sign_flipped_certificate_fails_cli_certify(rz, tmp_path):
    ops = workloads.orbit_round(rz, 4, 0, str(tmp_path), smoke=True)
    by_kind = {}
    for op in ops:
        by_kind.setdefault((op.kind, op.expect), op)
    stationary = by_kind[("stationary", False)]
    record, _ = harness.execute(rz, stationary, "s")
    assert record["fail"] is None
    certify = by_kind[("certify", False)]
    assert harness.execute(rz, certify, "c")[0]["fail"] is None
    cert = json.loads(Path(certify.files["cert"]).read_text())
    flip = lambda v: [flip(x) for x in v] if isinstance(v, list) else -v  # noqa: E731
    cert.update(f0=flip(cert["f0"]), f1=flip(cert["f1"]), f2=flip(cert["f2"]))
    Path(certify.files["cert"]).write_text(json.dumps(cert))
    assert harness.execute(rz, certify, "c")[0]["fail"] == "replay"


def test_tracer_wraps_every_namespace_and_restores(rz):
    original = rz.enumerate_configurations
    domain = workloads.complete_domain(rz, 3, 1)
    corr = rz.correlations_of(rz.bernoulli_product(domain, [0.5] * 3))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module in (rz, rz.enumeration, rz.solver, rz.stationary, rz.generators):
            assert module.enumerate_configurations is not original
        span = tracer.open("op.lib", "x")
        rz.check_realizability(domain, corr)
        tracer.close(span)
    finally:
        tracer.uninstall()
    assert rz.solver.enumerate_configurations is original
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["op.lib", "solver.check_realizability", "enumeration.enumerate_configurations"]
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert tracer.op_counts()["x"]["configs"] == 8


def test_speed_probe_scales_by_the_samples_around_an_interval():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    # Full speed long before the interval, half speed around and inside it.
    probe.starts = [0.0, 9.95, 10.2, 10.4, 10.55]
    probe.seconds = [ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    factor, inside = probe.slowdown(10.0, 10.5)
    assert factor == pytest.approx(2.0)
    assert inside == pytest.approx(4 * ref)
    assert probe.scaled(10.0, 10.5) == pytest.approx((0.5 - 4 * ref) / 2)
    # With no sample in the window, the nearest one stands in.
    assert probe.slowdown(1.0, 1.1) == (pytest.approx(1.0), 0)
    assert probe.slowdown(9.0, 9.5) == (pytest.approx(2.0), 0)
    assert probe.slowdown(11.0, 12.0) == (pytest.approx(2.0), 0)


def test_speed_probe_samples_on_the_timer_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.perf_counter() + 5 * speed.PERIOD
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        probe.stop()
    assert len(probe.seconds) >= 2
    assert probe.starts == sorted(probe.starts)
    assert signal.getsignal(signal.SIGALRM) == before
