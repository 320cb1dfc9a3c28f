"""Alternating pairs of benchmark runs on two revisions, each run from a fresh copy.

Usage, from the root of a checkout::

    python bench/pairs.py CHANGE BASELINE --workload exact --pairs 10 --seed-base 4601

``CHANGE`` and ``BASELINE`` are git revisions of this repository: a commit,
a branch, or a tree id (``git add -A && git write-tree`` names uncommitted
work).  Pair ``k`` runs ``python3 perfbench/run.py --workload W --seed
SEED_BASE + k --seconds S`` once on each side, the baseline first in even
pairs and the change first in odd ones, with ``S`` the ``run_seconds`` of
``BENCHMARK.json``.  Every run gets its own fresh ``git archive`` of its
revision, removed after the run, so no side reads a checkout that earlier
runs have written to.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
side's median and quartiles, the change's median against the baseline's,
and in how many pairs the change read better (ties count for neither), and
it says whether the change wins at least nine tenths of the pairs by more
than the baseline's interquartile range (a gain) and whether its median is
worse than the baseline's by more than the metric's bound.  It also gives
the attempted and failed ops of every run.  The last line is one JSON
object with every run's metrics.  The exit status is 1 when a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(revision: str, into: Path) -> Path:
    """A fresh copy of ``revision``'s files in a new folder under ``into``."""
    folder = Path(tempfile.mkdtemp(dir=into))
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as files:
        files.extractall(folder, filter="data")
    return folder


def run(revision: str, workload: str, seed: int, seconds: float, into: Path) -> dict:
    """One benchmark run of ``revision`` from a fresh copy: its JSON result."""
    folder = export(revision, into)
    try:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        done = subprocess.run([*argv, "--seconds", str(seconds)], cwd=folder, capture_output=True, text=True)
    finally:
        shutil.rmtree(folder, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{revision} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``, the quartiles as ``statistics.quantiles`` takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def report(pairs: list, metrics: list) -> list:
    """One line per end-to-end metric, from ``(seed, baseline, change)`` runs."""
    lines = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for _, b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, _, c in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        relative = (cm - bm) / bm if bm else 0.0
        worse = relative if lower else -relative
        gain = wins >= 0.9 * len(pairs) and abs(cm - bm) > b3 - b1 and worse < 0
        lines.append(
            f"{name:12s} baseline {bm:.6g} [{b1:.6g}, {b3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"{relative:+.2%}  better in {wins} of {len(pairs)}  gain {'yes' if gain else 'no'}  "
            f"{'WORSE than its bound' if worse > metric['bound'] else 'within its bound'} ({metric['bound']:.0%})"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("change", help="the revision under test")
    parser.add_argument("baseline", help="the revision it is compared with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as into:
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("baseline", "change") if k % 2 == 0 else ("change", "baseline")
            revisions = {"baseline": args.baseline, "change": args.change}
            try:
                runs = {side: run(revisions[side], args.workload, seed, seconds, Path(into)) for side in order}
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            pairs.append((seed, runs["baseline"], runs["change"]))
            shown = "  ".join(
                f"{side} {runs[side]['metrics']['ops_per_s']['value']:.6g} ops/s, "
                f"{runs[side]['failed']} of {runs[side]['attempted']} failed"
                for side in ("baseline", "change")
            )
            print(f"pair {k} seed {seed} ({order[0]} first): {shown}", flush=True)
    for line in report(pairs, benchmark["end_to_end"]):
        print(line)
    print(json.dumps({"workload": args.workload, "change": args.change, "baseline": args.baseline,
                      "pairs": [{"seed": s, "baseline": b, "change": c} for s, b, c in pairs]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
