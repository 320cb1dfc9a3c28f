"""Instance ladder: seconds, pivots and exact pivots per rung.

Usage, from the root of a checkout::

    python bench/ladder.py --baseline ../other-checkout --out BENCH_6.json

Every rung is one ``realz`` request, run in a fresh subprocess with
``realz`` imported from the ``src/`` of the checkout being measured: this
one, and the ``--baseline`` checkout when given.  Rungs are rational,
except the rungs named ``-float``, which run in float mode.  A
torus rung's tables are the Bernoulli(1/2) ones (``feasible``), those with
three quarters of the pair table (``infeasible``: the particle count's
variance is negative, which the solver refutes before its LP), or those
of ``LP_ONLY`` (``lp-infeasible``: only the LP refutes them).  Each
runs ``REPEATS`` times; a run over ``TIMEOUT_S`` seconds is recorded as a
timeout and not repeated.  Per run the worker records the end-to-end
seconds of the request, the seconds inside ``simplex.solve`` and, of
those, in the exact step (``exact_s``: ``simplex._prove``, the proof of
the float basis, and ``simplex._Exact.run``, the exact engine; a
checkout without ``_prove`` times the engine alone), the pivot count,
the exact pivot count, the float search's pivots in phase 1 and in phase
2 (``phase_1_pivots``, ``phase_2_pivots``, read off each answer's
``_pivots``; null on a checkout whose answers carry none) and the worker's
peak resident set size in MB (``ru_maxrss``).  It also replays the
proof, exactly for a rational rung and within ``FLOAT_TOL`` for a float
one: the witness must reproduce the input tables, the certificate must
pass ``verify_certificate`` at that tolerance, and a third-moment dual
cubic must be nonnegative on every configuration, by one call of the
observable kernel ``realz.core._observable``, with a zero budget pairing
at ``r_star``.  An infeasible orbit rung's certificate is replayed a
second time under its translation group (``orbit_replays``; ``null`` on
every other rung).  A rung that a checkout refuses with
``CapacityError`` (its space is past ``enumeration.MAX_CONFIGURATIONS``
there) is recorded as ``refused`` and not compared.  The repeats of the
two checkouts alternate, run by run, so that a drift in the host's speed
falls on both.

The script exits with status 1 when a proof fails to replay, when full
and orbit replay of a certificate disagree, when the full and
orbit-reduced verdicts of a torus disagree, when a ``near-boundary-``
rung makes no pivot, or when the two checkouts disagree on a verdict or
an ``r_star``.

The ``battery-`` rungs run the necessary-condition battery
(``run_battery``, singletons and pairs) on the feasible torus tables
instead.  They have no proof to replay (``replays`` is ``null``) and no
pivots; their verdict is ``pass`` or ``fail``, and the two checkouts must
agree on it and on the worst margin, kept exactly as ``worst_margin``.

The ``near-boundary-`` rungs decide tables within solver tolerance of a
low-dimensional face of the moment polytope, whose zero entries force most
configurations off the support: three feasible (3,3) torus checks of the
``full-float`` workload (``DRIFT``), built by ``perfbench/workloads.py``,
in float mode, and one rational ``tests/support.py`` input per domain of
``NEAR_BOUNDARY``.  Each must reach the LP (make a pivot) on both
checkouts, and its proof must replay.

The ``law-`` rungs build a reference law and read its tables: a
``bernoulli_product`` on the (4,4) cap-1 torus (65,536 atoms), with float
and with exact weights, and a ``hardcore_gibbs`` law on the (4,4)
hard-core torus, each followed by ``correlations_of``.  Their verdict is
the atom count, and ``tables`` is a SHA-256 of both tables, values and
types; the two checkouts must agree on both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Runs per rung and checkout; the report keeps their median.
REPEATS = 3

#: A run that takes longer is recorded as a timeout.
TIMEOUT_S = 120.0

#: Replay tolerance of the float rungs: the value of ``realz.simplex.TOLERANCE``,
#: kept here because a baseline checkout may predate that constant.
FLOAT_TOL = 1e-9


#: ``(density, factor)`` of the ``lp-infeasible`` torus rungs: the
#: Bernoulli tables with the nearest-neighbour pair entries times
#: ``factor``.  Their particle count's moments lie inside its hull, so the
#: LP, not the count-hull refutation before it, says infeasible.
LP_ONLY = {
    (2, 2, 2): (Fraction(1, 2), Fraction(3, 2)),
    (4, 3): (Fraction(1, 2), Fraction(3, 2)),
    (4, 4): (Fraction(2, 5), Fraction(7, 5)),
}


#: ``(seed, round, op)`` of three feasible near-boundary (3,3) torus checks
#: of the ``full-float`` workload, built by ``perfbench/workloads.py``,
#: whose full LPs took 15,759-20,020 float pivots.
DRIFT = ((7303, 5, 32), (7308, 10, 24), (9314, 1, 11))

#: ``(domain label, seed)`` of the rational ``near-boundary-`` rungs:
#: ``tests/support.py`` ``near_boundary_input`` on that domain, through
#: ``minimal_third_moment``.
NEAR_BOUNDARY = (("torus(3,3)", 2), ("complete(6,c2)", 14))


def rungs() -> list:
    """``(name, kind, spec)`` for every rung, smallest first per family."""
    out = [(f"two-atom(m={m})", "third", ("two-atom", m)) for m in range(1, 7)]
    for sites in range(3, 7):
        for cap in (1, 2):
            out.append((f"complete({sites},c{cap})", "third", ("complete", sites, cap)))
    # The (5,4) torus (2**20 configurations) is measured orbit-reduced only.
    tori = [((3, 3), "rational", ("check", "orbit")), ((2, 2, 2), "rational", ("check", "orbit"))]
    tori += [((4, 3), "float", ("check", "orbit")), ((4, 4), "float", ("check", "orbit")), ((5, 4), "float", ("orbit",))]
    for dims, mode, kinds in tori:
        label = "torus" + str(dims).replace(" ", "") + ("-float" if mode == "float" else "")
        for variant in ("feasible", "infeasible") + (("lp-infeasible",) if dims in LP_ONLY else ()):
            for kind in kinds:
                suffix = "full" if kind == "check" else kind
                out.append((f"{label}-{variant}-{suffix}", kind, ("torus", dims, variant, mode)))
    # The (5,5) torus (2**25 configurations in 1,342,208 orbits), feasible
    # only: replaying an infeasible rung's certificate enumerates them all.
    out.append(("torus(5,5)-float-feasible-orbit", "orbit", ("torus", (5, 5), "feasible", "float")))
    for dims, mode in (((4, 3), "float"), ((4, 4), "float"), ((3, 3), "rational")):
        label = "battery-torus" + str(dims).replace(" ", "") + ("-float" if mode == "float" else "")
        out.append((label, "battery", ("torus", dims, "feasible", mode)))
    out += [(f"law-bernoulli(4,4)-{mode}", "law", ("bernoulli", mode)) for mode in ("float", "exact")]
    out.append(("law-hardcore(4,4)", "law", ("hardcore", "float")))
    for seed, index, op in DRIFT:
        out.append((f"near-boundary-drift({seed},{index},{op})-float", "check", ("drift", seed, index, op)))
    for label, seed in NEAR_BOUNDARY:
        out.append((f"near-boundary-{label}-seed{seed}", "third", ("near-boundary", label, seed)))
    return out


# ---------------------------------------------------------------------------
# worker: one rung, one run, in this process


def _instance(rz, spec):
    if spec[0] in ("drift", "near-boundary"):
        # Built by this checkout's workloads and test support, whose
        # folders get no bytecode.
        sys.dont_write_bytecode = True
        sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
        if spec[0] == "drift":
            import workloads

            op = workloads.full_float_round(rz, *spec[1:3], None)[spec[3]]
            return op.domain, op.corr
        from support import NEAR_BOUNDARY_DOMAINS, near_boundary_input

        index = next(k for k, (label, *_) in enumerate(NEAR_BOUNDARY_DOMAINS) if label == spec[1])
        return near_boundary_input(spec[2], index)
    if spec[0] == "two-atom":
        m = spec[1]
        corr, dist = rz.two_atom_family(m + 2, m)
        return dist.domain, corr
    if spec[0] == "complete":
        _, sites, cap = spec
        dist = np.full((sites, sites), 1.0)
        np.fill_diagonal(dist, 0.0)
        domain = rz.Domain(distance=dist, occupancy_cap=(cap,) * sites)
        # Half a truncated Poisson(1/2) law, half a Bernoulli(1/3) product.
        laws = [
            rz.correlations_of(rz.truncated_poisson_product(domain, Fraction(1, 2))),
            rz.correlations_of(rz.bernoulli_product(domain, [Fraction(1, 3)] * sites)),
        ]
        half = Fraction(1, 2)
        return domain, rz.CorrelationPair(
            rho1=half * (laws[0].rho1 + laws[1].rho1), rho2=half * (laws[0].rho2 + laws[1].rho2)
        )
    _, dims, variant, mode = spec
    domain = rz.torus_domain(dims, occupancy_cap=1)
    # The Bernoulli(p) tables, read off directly: the (5,4) torus has
    # 2**20 atoms.  With p = 1/2 their entries are exact in binary too.
    s = domain.site_count
    p, factor = LP_ONLY[dims] if variant == "lp-infeasible" else (Fraction(1, 2), 1)
    rho1 = np.full(s, p, dtype=object)
    rho2 = np.full((s, s), p * p, dtype=object)
    np.fill_diagonal(rho2, Fraction(0))
    rho2[domain.distance == 1] *= factor
    if variant == "infeasible":
        # Three quarters of the Bernoulli(1/2) pair table makes the
        # variance of the particle count negative.
        rho2 = rho2 * Fraction(3, 4)
    if mode == "float":
        rho1, rho2 = rho1.astype(float), rho2.astype(float)
    return domain, rz.CorrelationPair(rho1=rho1, rho2=rho2)


def _replays(rz, domain, corr, kind, outcome, tol) -> bool:
    """The emitted proof, replayed within ``tol`` (exactly at 0)."""
    feasible = outcome.finite if kind == "third" else outcome.feasible
    if not feasible:
        return rz.verify_certificate(domain, outcome.certificate, corr, tol=tol)
    witness = outcome.witness if kind == "third" else outcome.distribution
    got = rz.correlations_of(witness)
    pairs = zip([*got.rho1.flat, *got.rho2.flat], [*corr.rho1.flat, *corr.rho2.flat])
    same = all(abs(a - b) <= tol for a, b in pairs)
    if kind != "third":
        return same
    cubic = outcome.dual_cubic
    configs = rz.enumerate_configurations(domain)
    # The scale is positive, so the scaled values keep their signs.
    nonnegative = bool((rz.core._observable(configs, cubic.quadratic, cubic.f3)[0] >= 0).all())
    return same and nonnegative and cubic.budget_pairing(corr, outcome.r_star) == 0


def work(name: str) -> dict:
    """Run one rung once with the ``realz`` on ``sys.path``."""
    import realz as rz
    from realz import simplex

    kind, spec = next((k, s) for n, k, s in rungs() if n == name)
    if kind == "law":
        return _law(rz, spec)
    domain, corr = _instance(rz, spec)
    if kind == "battery":
        return _battery(rz, domain, corr)
    solve, run, prove = simplex.solve, simplex._Exact.run, getattr(simplex, "_prove", None)
    lp = {"pivots": 0, "exact_pivots": 0, "phase_1_pivots": 0, "phase_2_pivots": 0, "simplex_s": 0.0, "exact_s": 0.0}

    def counted(*args, **kwargs):
        start = time.perf_counter()
        res = solve(*args, **kwargs)
        lp["simplex_s"] += time.perf_counter() - start
        lp["pivots"] += res.iterations
        lp["exact_pivots"] += res.exact_pivots
        phases = getattr(res, "_pivots", None)
        for k, key in enumerate(("phase_1_pivots", "phase_2_pivots")):
            lp[key] = None if phases is None or lp[key] is None else lp[key] + phases[k]
        return res

    def timed(step):
        def wrapped(*args, **kwargs):
            start = time.perf_counter()
            try:
                return step(*args, **kwargs)
            finally:
                lp["exact_s"] += time.perf_counter() - start

        return wrapped

    mode = spec[3] if spec[0] == "torus" else "float" if spec[0] == "drift" else "rational"
    opts = rz.SolverOptions(arithmetic_mode=mode)
    simplex.solve, simplex._Exact.run = counted, timed(run)
    if prove is not None:
        simplex._prove = timed(prove)
    try:
        start = time.perf_counter()
        if kind == "third":
            outcome = rz.minimal_third_moment(domain, corr, opts)
        elif kind == "check":
            outcome = rz.check_realizability(domain, corr, opts)
        else:
            group = rz.translation_group(spec[1])
            outcome = rz.check_realizability_stationary(domain, corr, group, opts)
        seconds = time.perf_counter() - start
    except rz.CapacityError as exc:
        return {"refused": str(exc), "source": str(Path(rz.__file__).resolve().parent)}
    finally:
        simplex.solve, simplex._Exact.run = solve, run
        if prove is not None:
            simplex._prove = prove
    feasible = outcome.finite if kind == "third" else outcome.feasible
    tol = FLOAT_TOL if mode == "float" else 0
    orbit_replays = None
    if kind == "orbit" and not feasible:
        orbit_replays = rz.verify_certificate(domain, outcome.certificate, corr, tol=tol, group=group)
    return {
        "seconds": seconds,
        **lp,
        "verdict": "feasible" if feasible else "infeasible",
        "r_star": str(outcome.r_star) if kind == "third" and feasible else None,
        "replays": _replays(rz, domain, corr, kind, outcome, tol),
        "orbit_replays": orbit_replays,
        "source": str(Path(rz.__file__).resolve().parent),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _law(rz, spec) -> dict:
    """One run of a law rung: the fields of :func:`work`, with the atom
    count as the verdict and a digest of the tables."""
    family, mode = spec
    if family == "bernoulli":
        domain = rz.torus_domain((4, 4), occupancy_cap=1)
        p = Fraction(1, 2) if mode == "exact" else 0.5
        start = time.perf_counter()
        law = rz.bernoulli_product(domain, [p] * domain.site_count)
    else:
        domain = rz.torus_domain((4, 4), occupancy_cap=1, exclusion_diameter=1.5)
        start = time.perf_counter()
        law = rz.hardcore_gibbs(domain, 0.5)
    corr = rz.correlations_of(law)
    seconds = time.perf_counter() - start
    values = [*corr.rho1.flat, *corr.rho2.flat]
    digest = hashlib.sha256(repr((values, [type(v).__name__ for v in values])).encode()).hexdigest()
    return {
        "seconds": seconds,
        "pivots": 0,
        "exact_pivots": 0,
        "simplex_s": 0.0,
        "exact_s": None,
        "phase_1_pivots": 0,
        "phase_2_pivots": 0,
        "verdict": f"{len(law.atoms)} atoms",
        "r_star": None,
        "tables": digest,
        "replays": None,
        "orbit_replays": None,
        "source": str(Path(rz.__file__).resolve().parent),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _battery(rz, domain, corr) -> dict:
    """One run of a battery rung: the fields of :func:`work`, with the
    battery's outcome as the verdict and its worst margin."""
    start = time.perf_counter()
    report = rz.run_battery(domain, corr)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "pivots": 0,
        "exact_pivots": 0,
        "simplex_s": 0.0,
        "exact_s": None,
        "phase_1_pivots": 0,
        "phase_2_pivots": 0,
        "verdict": "pass" if report.overall else "fail",
        "r_star": None,
        "worst_margin": str(report.worst.margin),
        "replays": None,
        "orbit_replays": None,
        "source": str(Path(rz.__file__).resolve().parent),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# orchestration: every rung on every checkout


def _run_once(checkout: Path, name: str) -> dict:
    """One worker run of a rung on ``checkout``; raises
    ``subprocess.TimeoutExpired`` past ``TIMEOUT_S``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", name],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"{name} failed in {checkout}:\n{proc.stderr}")
    run = json.loads(proc.stdout.splitlines()[-1])
    if run["source"] != str((checkout / "src" / "realz").resolve()):
        raise RuntimeError(f"{name}: realz was imported from {run['source']}, not from {checkout}")
    return run


def run_rung(sides: list, name: str) -> dict:
    """The result of a rung per side of ``sides``, ``(side, checkout)``
    pairs.  The sides take turns run by run, in reverse order on every
    other repeat; a side that times out or refuses the rung runs no more."""
    runs = {side: [] for side, _ in sides}
    ended = {}
    for repeat in range(REPEATS):
        for side, checkout in sides if repeat % 2 == 0 else sides[::-1]:
            if side in ended:
                continue
            try:
                run = _run_once(checkout, name)
            except subprocess.TimeoutExpired:
                ended[side] = {"timeout": True, "timeout_s": TIMEOUT_S, "runs": runs[side]}
                continue
            if "refused" in run:
                ended[side] = {"timeout": False, "refused": run["refused"]}
                continue
            runs[side].append(run)
    return {side: ended.get(side) or _summary(runs[side]) for side, _ in sides}


def _summary(runs: list) -> dict:
    """Medians over the runs of one side, and whether they agree."""
    first = runs[0]
    orbit = [r.get("orbit_replays") for r in runs]
    outcome = lambda r: (r["verdict"], r["r_star"], r.get("worst_margin"), r.get("tables"))  # noqa: E731
    return {
        "timeout": False,
        "seconds": [r["seconds"] for r in runs],
        "median_s": statistics.median(r["seconds"] for r in runs),
        "simplex_s": statistics.median(r["simplex_s"] for r in runs),
        "exact_s": None if first["exact_s"] is None else statistics.median(r["exact_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "pivots": first["pivots"],
        "exact_pivots": first["exact_pivots"],
        "phase_1_pivots": first.get("phase_1_pivots"),
        "phase_2_pivots": first.get("phase_2_pivots"),
        "verdict": first["verdict"],
        "r_star": first["r_star"],
        "worst_margin": first.get("worst_margin"),
        "tables": first.get("tables"),
        "replays": None if first["replays"] is None else all(r["replays"] for r in runs),
        "orbit_replays": None if None in orbit else all(orbit),
        "runs_agree": all(outcome(r) == outcome(first) for r in runs) and all(o == orbit[0] for o in orbit),
    }


def _environment(checkout: Path) -> dict:
    """Python, numpy, cores, machine and commit of ``checkout``, as its
    ``perfbench`` harness records them, and ``source_sha256``, a SHA-256 of
    the names and bytes of its ``src/realz/*.py``: the commit does not name
    the measured code of a tree with uncommitted changes or of an archive,
    whose ``git_commit`` is null."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import json, harness; print(json.dumps(harness._environment()))"],
        cwd=checkout / "perfbench", capture_output=True, text=True, check=True,
    )
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "realz").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return {**json.loads(proc.stdout), "source_sha256": digest.hexdigest()}


def _measured(result) -> bool:
    """A rung result with a verdict: neither timed out nor refused."""
    return result is not None and not result["timeout"] and "refused" not in result


def check(entries: list) -> list:
    """Every failed replay and every verdict disagreement, described."""
    problems = []
    by_name = {e["name"]: e for e in entries}
    for e in entries:
        results = {side: e[side] for side in ("baseline", "change") if _measured(e.get(side))}
        for side, res in results.items():
            if res["replays"] is False or not res["runs_agree"]:
                problems.append(f"{e['name']} ({side}): proof does not replay or runs disagree")
            if res.get("orbit_replays") not in (None, res["replays"]):
                problems.append(f"{e['name']} ({side}): full and orbit replay of the certificate disagree")
        if len(results) == 2:
            a, b = results["baseline"], results["change"]
            if (a["verdict"], a["r_star"]) != (b["verdict"], b["r_star"]):
                problems.append(
                    f"{e['name']}: baseline {a['verdict']} {a['r_star']}, change {b['verdict']} {b['r_star']}"
                )
            if a.get("worst_margin") != b.get("worst_margin"):
                problems.append(
                    f"{e['name']}: worst margin {a.get('worst_margin')} at baseline, {b.get('worst_margin')} in change"
                )
            if a.get("tables") != b.get("tables"):
                problems.append(f"{e['name']}: the checkouts' tables differ")
        if e["name"].startswith("near-boundary-"):
            for side, res in results.items():
                if not res["pivots"]:
                    problems.append(f"{e['name']} ({side}): the LP is not reached")
        if e["name"].endswith("-orbit"):
            full = by_name.get(e["name"][: -len("-orbit")] + "-full")
            for side in ("baseline", "change"):
                if full and _measured(e.get(side)) and _measured(full.get(side)):
                    if e[side]["verdict"] != full[side]["verdict"]:
                        problems.append(f"{e['name']} ({side}): full and orbit-reduced verdicts differ")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, help="another checkout to measure alongside this one")
    parser.add_argument("--out", type=Path, help="JSON report to write (required unless --worker)")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(work(args.worker)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    sides = [("change", ROOT)]
    if args.baseline:
        sides.insert(0, ("baseline", args.baseline.resolve()))
    entries = []
    for name, kind, _ in rungs():
        entry = {"name": name, "kind": kind, **run_rung(sides, name)}
        for side, _ in sides:
            res = entry[side]
            shown = f"refused: {res['refused']}" if "refused" in res else "timeout"
            if _measured(res):
                shown = f"{res['median_s']:.4g} s, {res['pivots']} pivots, exact {res['exact_pivots']}"
                if res["phase_1_pivots"] is not None:
                    shown += f" (phase 1 {res['phase_1_pivots']}, phase 2 {res['phase_2_pivots']})"
                shown += f", peak {res['peak_rss_mb']:.0f} MB"
                if res["exact_s"] is not None:
                    shown += f", exact {res['exact_s']:.3g} s"
            print(f"{name:28s} {side:8s} {shown}", flush=True)
        entries.append(entry)
    problems = check(entries)
    report = {
        "description": "Instance ladder, rational rungs, -float torus rungs, battery rungs and law rungs; seconds are"
        " medians of end-to-end wall time per request, peak_rss_mb the median of the workers' peak RSS.",
        "repeats": REPEATS,
        "timeout_s": TIMEOUT_S,
        "checkouts": {side: _environment(path) for side, path in sides},
        "rungs": entries,
        "problems": problems,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
