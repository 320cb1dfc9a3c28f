"""Closed-loop benchmark harness: one client, one operation at a time.

A run sets up (imports ``realz`` and builds round 0), then executes whole
rounds of operations: as many as take
``seconds`` on the reference machine (see ``workloads.WORKLOADS``), and at
least enough for ``MIN_SAMPLES`` timed ops.  The work of a run is thus
fixed by its seed, and the op mix is the same on every run.  The set-up is
timed several more times between rounds and its median reported.
A smoke-sized round runs untimed before the first timed op.
Each op is one user request followed by the replay of the proof it
emitted; the replay is timed as part of the op.  Agreement gates run
between rounds, outside the timed loop.

Untraced runs report times at a fixed reference speed: a
:class:`speed.SpeedProbe` samples the host's speed all through the run and
each op and set-up is scaled by the slowdown measured around it (see
``speed``).  The wall-clock figures are kept in the run summary.

With ``trace`` every op runs twice, untraced and traced back to back, so
the tracing overhead is measured on identical work; only the traced runs
feed the per-layer metrics.  Traced runs are not scaled.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed
import tracing
import workloads
from workloads import FLOAT_TOL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: The op-time 90th percentile needs ten samples beyond it.
MIN_SAMPLES = 100

#: Set-up is repeated this many times and its median reported.
SETUP_REPEATS = 5

#: A run stops adding rounds past this multiple of ``seconds``, whatever
#: the plan, so a much slower program still ends inside its time limit.
MAX_OVERRUN = 3.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("proved_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example ``realz`` is missing)."""


# ---------------------------------------------------------------------------
# set-up


def import_realz(fresh: bool):
    """Import ``realz`` from this checkout's ``src``, optionally from scratch."""
    if not (SRC / "realz" / "__init__.py").is_file():
        raise BenchmarkError(f"no realz package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [n for n in sys.modules if n == "realz" or n.startswith("realz.")]:
            del sys.modules[name]
    rz = importlib.import_module("realz")
    importlib.import_module("realz.cli")
    if Path(rz.__file__).resolve().parent != (SRC / "realz").resolve():
        raise BenchmarkError(f"realz was imported from {rz.__file__}, not from {SRC}")
    return rz


# ---------------------------------------------------------------------------
# operations and their replay


def _same_tables(rz, got, want, exact: bool) -> bool:
    if exact:
        return all(a == b for a, b in zip(got.rho1.tolist(), want.rho1.tolist())) and all(
            a == b for a, b in zip(got.rho2.flatten().tolist(), want.rho2.flatten().tolist())
        )
    worst = max(
        float(np.max(np.abs(got.rho1.astype(float) - want.rho1.astype(float)))),
        float(np.max(np.abs(got.rho2.astype(float) - want.rho2.astype(float)))),
    )
    return worst <= FLOAT_TOL


def witness_replays(rz, witness, corr, exact: bool) -> bool:
    """A feasible verdict's witness must reproduce the input tables."""
    return _same_tables(rz, rz.correlations_of(witness), corr, exact)


def certificate_replays(rz, domain, cert, corr, exact: bool) -> bool:
    """An infeasible verdict's certificate must pass ``verify_certificate``."""
    return rz.verify_certificate(domain, cert, corr, tol=0 if exact else FLOAT_TOL)


def judge_library(rz, op, outcome) -> tuple:
    """Replay a library result; return ``(verdict, failure or None)``.

    ``outcome`` is a ``RealizationResult`` or ``ThirdMomentResult``.
    """
    if op.kind == "check":
        feasible, witness = outcome.feasible, outcome.distribution
    else:
        feasible, witness = outcome.finite, outcome.witness
    verdict = "feasible" if feasible else "infeasible"
    if op.expect is not None and feasible != op.expect:
        return verdict, "verdict"
    if op.r_star is not None and outcome.r_star != op.r_star:
        return verdict, "verdict"
    if feasible:
        ok = witness_replays(rz, witness, op.corr, op.rational)
    else:
        ok = certificate_replays(rz, op.domain, outcome.certificate, op.corr, op.rational)
    return verdict, None if ok else "replay"


def run_library(rz, op) -> tuple:
    opts = rz.SolverOptions(arithmetic_mode="rational" if op.rational else "float")
    if op.kind == "check":
        outcome = rz.check_realizability(op.domain, op.corr, opts)
    else:
        outcome = rz.minimal_third_moment(op.domain, op.corr, opts)
    verdict, failure = judge_library(rz, op, outcome)
    return verdict, failure, outcome


def _read_json(path):
    with open(path) as handle:
        return json.load(handle)


def judge_cli(rz, op, code: int) -> tuple:
    """Check one ``realz`` command's exit code and report."""
    if code == 2:
        return "error", "error"
    if op.kind == "certify":
        return ("valid", None) if code == 0 else ("invalid", "replay")
    if op.kind == "conditions":
        return ("pass", None) if code == 0 else ("fail", "verdict")
    report = _read_json(op.files["report"])
    verdict = report.get("verdict")
    if (code == 0) != (verdict == "feasible"):
        return verdict, "error"
    if verdict == "feasible":
        if not op.expect:
            return verdict, "verdict"
        atoms = tuple(
            (tuple(atom["occupancy"]), float(atom["weight"])) for atom in report["witness"]["atoms"]
        )
        ok = witness_replays(rz, rz.Distribution(op.domain, atoms), op.corr, False)
        return verdict, None if ok else "replay"
    if op.expect:
        return verdict, "verdict"
    with open(op.files["cert"], "w") as handle:
        json.dump(dict(report["certificate"], schema_version=1), handle)
    return verdict, None


def cli_argv(op) -> list:
    files = op.files
    if op.kind == "stationary":
        return ["stationary", files["instance"], "--out", files["report"]]
    if op.kind == "certify":
        return ["certify", files["instance"], files["cert"], "--out", files["report"]]
    return [
        "conditions",
        files["instance"],
        "--family",
        "singletons",
        "--family",
        "pairs",
        "--out",
        files["report"],
    ]


def run_cli(rz, op) -> tuple:
    if op.kind == "certify" and not os.path.exists(op.files["cert"]):
        return "missing", "error", None
    code = rz.cli.main(cli_argv(op))
    verdict, failure = judge_cli(rz, op, code)
    return verdict, failure, None


def execute(rz, op, op_id, tracer=None, probe=None) -> tuple:
    """Run one op with its replay, timed; any exception is a failure.

    With a ``probe``, the host's speed is sampled right before the op, and
    the record keeps the op's start for scaling once the run ends.
    Returns the op record and the library result (``None`` for commands).
    """
    library = op.kind in ("check", "third")
    span = tracer.open("op.lib" if library else "op.cli", op_id) if tracer else None
    if probe:
        probe.sample()
    start = time.perf_counter()
    try:
        verdict, failure, outcome = (run_library if library else run_cli)(rz, op)
    except Exception as exc:  # an op that raises is counted, not fatal
        verdict, failure, outcome = f"raised {type(exc).__name__}: {exc}", "error", None
    seconds = time.perf_counter() - start
    if tracer:
        tracer.close(span)
    record = {
        "id": op_id,
        "kind": op.kind,
        "label": op.label,
        "mode": "rational" if op.rational else "float",
        "near_boundary": op.near_boundary,
        "expect": op.expect,
        "verdict": verdict,
        "fail": failure,
        "seconds": seconds,
    }
    if probe:
        record["start"] = start
    if not library:
        report = op.files.get("report")
        record["report_bytes"] = os.path.getsize(report) if report and os.path.exists(report) else 0
    return record, outcome


# ---------------------------------------------------------------------------
# agreement gates (outside the timed loop)


def gate_round(rz, outcomes) -> list:
    """Full-vs-orbit and float-vs-rational agreement on one round's
    ``(op, record, outcome)`` triples.

    Returns a description of every disagreement.  Ops that raised are
    already counted as failures and have no verdict to compare.
    """
    problems = []
    for op, rec, outcome in outcomes:
        if rec["fail"] == "error" or outcome is None:
            continue
        full = rec["verdict"] == "feasible"
        if op.torus_dims:
            group = rz.translation_group(op.torus_dims)
            reduced = rz.check_realizability_stationary(op.domain, op.corr, group).feasible
            if reduced != full:
                problems.append(f"{rec['id']} {op.label}: full {full}, orbit-reduced {reduced}")
        if op.gate:
            floated = workloads.to_float(rz, op.corr)
            quick = rz.check_realizability(op.domain, floated).feasible
            if quick != full:
                problems.append(f"{rec['id']} {op.label}: rational {full}, float {quick}")
    return problems


# ---------------------------------------------------------------------------
# the run


def _quantiles(values):
    if len(values) < 2:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10)
    return statistics.median(values), deciles[8]


def _environment() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
            else:
                packed = ROOT / ".git" / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text().splitlines():
                        if line.endswith(" " + ref[5:]):
                            commit = line.split()[0]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False,
        fresh_import: bool = True, out_dir: Path = OUT) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    make_round, nominal = workloads.WORKLOADS[workload]
    # A traced run executes every op twice, so it plans half the rounds.
    planned = 1 if smoke else max(1, round(seconds / nominal / (2 if trace else 1)))
    out_dir = Path(out_dir)
    stem = f"{workload}-s{seed}-t{int(trace)}"
    workdir = out_dir / f"work-{stem}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    probe = None if trace else speed.SpeedProbe()
    try:
        if probe:
            probe.start()
        return _run(make_round, planned, workload, seed, seconds, tracer, probe, smoke, fresh_import, out_dir, stem,
                    str(workdir))
    finally:
        if probe:
            probe.stop()
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _setup(make_round, seed, workdir, smoke, fresh_import):
    """Import ``realz`` and build round 0; return ``(realz, ops, (start, end))``."""
    start = time.perf_counter()
    rz = import_realz(fresh_import)
    ops = make_round(rz, seed, 0, workdir, smoke)
    return rz, ops, (start, time.perf_counter())


def _repeat_setup(make_round, seed, workdir, smoke, fresh_import) -> tuple:
    """Time one more set-up, then restore the modules the run is using."""
    saved = {name: module for name, module in sys.modules.items() if name == "realz" or name.startswith("realz.")}
    try:
        return _setup(make_round, seed, workdir, smoke, fresh_import)[2]
    finally:
        for name in [n for n in sys.modules if n == "realz" or n.startswith("realz.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def _setup_schedule(planned: int) -> list:
    """How many set-ups to time before round 0 and after each round.

    The machine's speed drifts over seconds, so the repeats are spread over
    the whole run rather than timed back to back.
    """
    counts = [0] * (planned + 1)
    for k in range(SETUP_REPEATS):
        counts[round(k * planned / (SETUP_REPEATS - 1))] += 1
    return counts


def _run(make_round, planned, workload, seed, seconds, tracer, probe, smoke, fresh_import, out_dir, stem, workdir):
    schedule = [1] if smoke else _setup_schedule(planned)
    rz, ops, first = _setup(make_round, seed, workdir, smoke, fresh_import)
    setup_times = [first]

    def more_setups(count):
        for _ in range(count):
            setup_times.append(_repeat_setup(make_round, seed, workdir, smoke, fresh_import))

    more_setups(schedule[0] - 1)

    if not smoke:
        # Lazy set-up in realz and its dependencies finishes before timing:
        # one smoke-sized round, untimed and unrecorded.
        for op in make_round(rz, seed, 0, os.path.join(workdir, "warm-up"), True):
            execute(rz, op, "warm-up")

    if tracer:
        # Round 0 once more under the tracer, for the generator spans.
        tracer.install()
        span = tracer.open("setup", "setup")
        ops = make_round(rz, seed, 0, workdir, smoke)
        tracer.close(span)
        tracer.uninstall()

    records, traced_records, problems = [], [], []
    plain_s = traced_s = 0.0
    index = 0
    while True:
        outcomes = []
        for k, op in enumerate(ops):
            # When tracing, each op runs untraced and traced back to back, in
            # alternating order, so the overhead ratio is not drift.
            passes = ((None, "u"), (tracer, "t")) if tracer else ((None, "u"),)
            for active, tag in passes if k % 2 == 0 else passes[::-1]:
                if active:
                    active.install()
                rec, outcome = execute(rz, op, f"r{index}.{k}{tag}", active, None if active else probe)
                if active:
                    active.uninstall()
                    traced_records.append(rec)
                    traced_s += rec["seconds"]
                else:
                    records.append(rec)
                    plain_s += rec["seconds"]
                rec["round"] = index
            outcomes.append((op, rec, outcome))
        problems.extend(gate_round(rz, outcomes))
        rounds = index + 1
        more_setups(schedule[rounds] if rounds < len(schedule) else 0)
        enough = smoke or tracer is not None or len(records) >= MIN_SAMPLES
        if (enough and rounds >= planned) or plain_s + traced_s >= MAX_OVERRUN * max(seconds, 1):
            break
        index += 1
        ops = make_round(rz, seed, index, workdir, smoke)
    more_setups(sum(schedule[rounds + 1 :]))

    wall_setups = [end - start for start, end in setup_times]
    wall_times = [r["seconds"] for r in records]
    if probe:
        probe.sample()  # the last intervals need a sample after them too
        for rec in records:
            start = rec.pop("start")
            rec["ref_seconds"] = probe.scaled(start, start + rec["seconds"])
        setups = [probe.scaled(start, end) for start, end in setup_times]
        times = [r["ref_seconds"] for r in records]
    else:
        setups, times = wall_setups, wall_times
    p50, p90 = _quantiles(times)
    failed = sum(1 for r in records if r["fail"])
    summary = {
        "workload": workload,
        "seed": seed,
        "rounds": rounds,
        "setup_seconds": setups,
        "samples": len(times),
        "beyond_p90": sum(1 for t in times if t > p90),
        "round_seconds": _round_seconds(records),
        "near_boundary_share": sum(1 for r in records if r["near_boundary"]) / len(records),
        "gate_problems": problems,
        "environment": _environment(),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(times) / sum(times),
            "op_s.p50": p50,
            "op_s.p90": p90,
            "proved_frac": 1 - failed / len(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        summary["fail_frac"] = failed / len(records)
        wall_p50, wall_p90 = _quantiles(wall_times)
        summary["wall"] = {
            "setup_s": statistics.median(wall_setups),
            "ops_per_s": len(wall_times) / plain_s,
            "op_s.p50": wall_p50,
            "op_s.p90": wall_p90,
            "slowdown": plain_s / sum(times),
            "speed_samples": len(probe.seconds),
        }
        summary["fail_counts"] = _fail_counts(records)
        op_records = records
    else:
        counts = tracer.op_counts()
        for rec in traced_records:
            rec.update(counts.get(rec["id"], {}))
        layer, shares = tracing.layer_metrics(tracer, traced_records, {"setup"})
        layer["trace.overhead"] = ((len(traced_records) / traced_s) / (len(records) / plain_s), "ratio")
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        summary["layer_shares"] = shares
        summary["fail_counts"] = _fail_counts(traced_records)
        op_records = traced_records
        failed = sum(1 for r in traced_records if r["fail"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if tracer:
        tracer.write(out_dir / f"{stem}-spans.jsonl")
    if probe:
        with open(out_dir / f"{stem}-speed.json", "w") as handle:
            json.dump({"starts": probe.starts, "seconds": probe.seconds}, handle)
    with open(out_dir / f"{stem}-ops.jsonl", "w") as handle:
        for rec in op_records:
            handle.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
    with open(out_dir / f"{stem}-summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, default=str)
    return {
        "correct": not problems,
        "attempted": len(op_records),
        "failed": failed,
        "metrics": result_metrics,
        "summary": summary,
    }


def _round_seconds(records) -> list:
    totals: dict = {}
    for rec in records:
        totals[rec["round"]] = totals.get(rec["round"], 0.0) + rec["seconds"]
    return [totals[k] for k in sorted(totals)]


def _fail_counts(records) -> dict:
    counts = {"replay": 0, "verdict": 0, "error": 0}
    for rec in records:
        if rec["fail"]:
            counts[rec["fail"]] += 1
    return counts
