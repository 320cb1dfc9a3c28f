"""Answer digests: one SHA-256 per op, to show that two checkouts answer alike.

Usage, from the root of a checkout::

    python bench/answers.py [CHECKOUT] [--seed 7] [--baseline ../other-checkout]

Prints two digests per op of rounds 0-1 of the three benchmark workloads
at ``--seed``, built by this checkout's ``perfbench/workloads.py`` and run
as its harness runs them, replay included, and per call of the rational
near-boundary probe: ``tests/support.py`` ``near_boundary_input``, seeds
0-19 on its nine domains, each through ``check_realizability`` and
``minimal_third_moment``.  ``realz`` is imported from ``CHECKOUT/src``
(default: this checkout).  The answer digest covers the op's verdict and
failure and its library result with every value in full (arrays as dtype,
shape and list, scalars with their type) or its CLI report without
``timings`` and paths.  The route digest covers every ``simplex.solve``
call the op makes: the matrix's bytes, dtype and shape, the right-hand
side, the costs, the keyword arguments not at their defaults (None or
False) and the result, pivot counts included.  Each line ends with the
op's verdict, its ``r_star`` and its failure, if any, which the answer
digest covers too.  With ``--baseline`` both checkouts run in fresh
subprocesses; the ops whose answers differ are listed with both sides'
verdicts, then, apart, the ops whose route alone differs, and the exit
status is 1 if any op differs in either.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # perfbench/ and the checkouts stay as they are
ROOT = Path(__file__).resolve().parent.parent
WORKLOADS, ROUNDS, PROBE_SEEDS = ("full-float", "exact", "orbit-cli"), (0, 1), range(20)
#: Report keys that hold seconds or paths.
DROPPED = ("timings", "instance", "certificate_path")


def plain(obj):
    """``obj`` as nested lists and dicts of typed scalar reprs, in full."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [type(obj).__name__, {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}]
    if isinstance(obj, np.ndarray):
        return ["ndarray", str(obj.dtype), obj.shape, plain(obj.tolist())]
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, dict):
        return {repr(k): plain(v) for k, v in obj.items()}
    return f"{type(obj).__name__}:{obj!r}"


def work(checkout: Path, seed: int) -> None:
    """Print ``op digest`` lines for ``checkout``'s answers."""
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    import realz
    import realz.cli  # noqa: F401
    import harness
    import workloads
    from support import NEAR_BOUNDARY_DOMAINS, near_boundary_input

    solves, solve = [], realz.simplex.solve

    def spy(A, b, objective=None, **kwargs):
        res = solve(A, b, objective, **kwargs)
        costs = None if objective is None else [objective.tobytes(), str(objective.dtype)]
        # A keyword at its default (None or False) makes the call without it.
        kwargs = {key: value for key, value in kwargs.items() if value is not None and value is not False}
        solves.append(plain([A.tobytes(), str(A.dtype), A.shape, list(b), costs, kwargs, res]))
        return res

    realz.simplex.solve = spy

    def emit(op_id: str, answer, verdict: str, r_star=None, fail=None) -> None:
        shown = verdict + ("" if r_star is None else f" r_star={r_star}") + ("" if fail is None else f" fail={fail}")
        answer, route = (hashlib.sha256(repr(part).encode()).hexdigest() for part in ([answer, shown], solves))
        print(op_id, answer, route, " ".join(shown.split()), flush=True)
        solves.clear()

    with tempfile.TemporaryDirectory() as workdir:
        for name in WORKLOADS:
            for index in ROUNDS:
                ops = workloads.WORKLOADS[name][0](realz, seed, index, os.path.join(workdir, f"{name}-{index}"))
                solves.clear()
                for k, op in enumerate(ops):
                    record, outcome = harness.execute(realz, op, k)
                    answer = {key: record[key] for key in ("kind", "label", "verdict", "fail")}
                    if outcome is not None:
                        answer["result"] = plain(outcome)
                    elif os.path.exists(report := op.files.get("report", "")):
                        with open(report) as handle:
                            answer["report"] = {k: v for k, v in json.load(handle).items() if k not in DROPPED}
                    r_star = getattr(outcome, "r_star", None)
                    emit(f"{name}/round{index}/op{k}:{op.kind}", answer, record["verdict"], r_star, record["fail"])
    opts = realz.SolverOptions(arithmetic_mode="rational")
    for probe_seed in PROBE_SEEDS:
        for index, (label, *_) in enumerate(NEAR_BOUNDARY_DOMAINS):
            domain, corr = near_boundary_input(probe_seed, index)
            for check in (realz.check_realizability, realz.minimal_third_moment):
                try:
                    result = check(domain, corr, opts)
                    answer = plain(result)
                    third = check is realz.minimal_third_moment
                    verdict = "feasible" if (result.finite if third else result.feasible) else "infeasible"
                    r_star = result.r_star if third else None
                except realz.RealizabilityError as exc:
                    answer = verdict = f"raised {type(exc).__name__}: {exc}"
                    r_star = None
                emit(f"probe/seed{probe_seed}/{label}:{check.__name__}", answer, verdict, r_star)


def digests(checkout: Path, seed: int) -> dict:
    """``{op: (answer, route, verdict)}`` of ``checkout``'s answers at ``seed``."""
    proc = subprocess.run([sys.executable, "-B", __file__, str(checkout), "--seed", str(seed)],
                          capture_output=True, text=True, check=True)
    return {op: tuple(rest) for op, *rest in (line.split(" ", 3) for line in proc.stdout.splitlines())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="checkout whose src/ to digest")
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument("--baseline", type=Path, help="another checkout to compare with")
    args = parser.parse_args(argv)
    if args.baseline is None:
        work(args.checkout.resolve(), args.seed)
        return 0
    ours, theirs = digests(args.checkout.resolve(), args.seed), digests(args.baseline.resolve(), args.seed)
    missing, ops = (None, None, "(no such op)"), {**theirs, **ours}
    answers = [op for op in ops if ours.get(op, missing)[0] != theirs.get(op, missing)[0]]
    routes = [op for op in ops if op not in answers and ours[op][1] != theirs[op][1]]
    for label, listed in (("answer differs", answers), ("route only", routes)):
        for op in listed:
            print(f"{label}: {op}  baseline: {theirs.get(op, missing)[2]}  change: {ours.get(op, missing)[2]}")
    print(f"{len(ours)} ops, {len(answers)} answers differ, {len(routes)} more differ in their route alone", file=sys.stderr)
    return 1 if answers or routes else 0


if __name__ == "__main__":
    sys.exit(main())
