"""Seeded instances and operations for the three benchmark workloads.

Every round of a workload is a list of :class:`Op` built from
``numpy.random.default_rng([seed, round])``, so the same seed gives the same
inputs.  Verdicts are known by construction wherever that is possible:
mixtures of generator laws are realizable, and the infeasible tables break
a closed-form condition on the total particle count that this module
evaluates itself (see :func:`total_count_margins`), independently of the
solver.  The near-boundary slice of ``full-float`` has no known verdict;
only its proofs are replayed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

#: Float-mode tolerance: the solver's default, also used for replay.
FLOAT_TOL = 1e-9

#: A broken closed-form condition must miss by at least this much, so
#: infeasible inputs sit far from the boundary at any solver tolerance.
BREAK_MARGIN = 1e-3

#: Near-boundary perturbation magnitudes (log-uniform between the two).
NEAR_LOW, NEAR_HIGH = 1e-11, 3e-9


@dataclass
class Op:
    """One user request.

    ``kind`` is ``check`` or ``third`` (library ops) or a ``realz``
    subcommand (``stationary``, ``certify``, ``conditions``).  ``expect``
    is the verdict known by construction (``True`` realizable, ``False``
    not, ``None`` unknown).
    """

    kind: str
    label: str
    domain: object
    corr: object
    rational: bool = False
    expect: bool | None = None
    r_star: object = None
    torus_dims: tuple | None = None  # stationary on this torus: full-vs-orbit gate
    gate: bool = False  # decided away from the boundary: float-vs-rational gate
    near_boundary: bool = False
    files: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# domains


def complete_domain(rz, sites: int, cap: int):
    dist = np.full((sites, sites), 1.0)
    np.fill_diagonal(dist, 0.0)
    return rz.Domain(distance=dist, occupancy_cap=(cap,) * sites)


def torus(rz, dims, hardcore: bool = False):
    return rz.torus_domain(dims, occupancy_cap=1, exclusion_diameter=1.5 if hardcore else None)


# ---------------------------------------------------------------------------
# tables


def _tables(rz, rho1, rho2):
    return rz.CorrelationPair(rho1=rho1, rho2=rho2)


def mixture(rz, parts, weights):
    rho1 = sum(w * p.rho1 for w, p in zip(weights, parts))
    rho2 = sum(w * p.rho2 for w, p in zip(weights, parts))
    return _tables(rz, rho1, rho2)


def total_count_margins(corr, n_max):
    """Margins of two necessary conditions on the total count ``N``.

    ``N`` is integer valued in ``[0, n_max]``, so for any realization
    ``Var N >= (ceil E - E)(E - floor E)`` (gap) and
    ``Var N <= n_max E - E^2`` (upper).  Both sides come from the tables
    alone: ``E = sum rho1`` and ``Var N = sum rho2 + E - E^2`` with the
    factorial diagonal.  Returns ``(gap, upper)``; negative means broken.
    """
    e = sum(corr.rho1.tolist())
    s2 = sum(corr.rho2.flatten().tolist())
    var = s2 + e - e * e
    floor = math.floor(e)
    gap = var - (e - floor) * (floor + 1 - e)
    upper = n_max * e - e * e - var
    return gap, upper


def break_total_count(rz, corr, n_max, u, rational):
    """Scale ``rho2`` until one total-count condition fails by a margin.

    Shrinking the pair table lowers ``Var N`` below the gap bound when that
    is possible; otherwise it is inflated above the upper bound.  Scaling
    keeps symmetry, stationarity, signs and the support, so the solver's
    shortcut never fires and the LP decides.
    """
    e = sum(corr.rho1.tolist())
    s2 = sum(corr.rho2.flatten().tolist())
    floor = math.floor(e)
    g = (e - floor) * (floor + 1 - e)
    t_gap = (g - e + e * e) / s2
    if t_gap > 0.25:
        t = t_gap * (Fraction(3, 10) + Fraction(u).limit_denominator(20) / 2)
    else:
        t = (n_max - 1) * e / s2 * (Fraction(3, 2) + Fraction(u).limit_denominator(20))
    t = Fraction(t).limit_denominator(256) if rational else float(t)
    broken = _tables(rz, corr.rho1, corr.rho2 * t)
    gap, upper = total_count_margins(broken, n_max)
    if min(gap, upper) > -BREAK_MARGIN:
        raise AssertionError(f"infeasible variant is too close to the boundary: {gap}, {upper}")
    return broken


def stationary_product(rz, sites, densities, weights):
    """Float tables of a mixture of i.i.d. lattice-gas laws, in closed form.

    Equal to ``correlations_of(bernoulli_product(...))`` mixtures, without
    summing over every configuration (a (4,4) torus has 65,536).
    """
    rho1 = np.full(sites, sum(w * p for w, p in zip(weights, densities)))
    rho2 = np.full((sites, sites), sum(w * p * p for w, p in zip(weights, densities)))
    np.fill_diagonal(rho2, 0.0)
    return _tables(rz, rho1, rho2)


def _weights(rng, k, rational):
    if rational:
        raw = [int(v) for v in rng.integers(1, 5, size=k)]
        return [Fraction(v, sum(raw)) for v in raw]
    raw = rng.random(k) + 0.2
    return (raw / raw.sum()).tolist()


def _param(rng, lo, hi, rational, denominator=8):
    if rational:
        low, high = math.ceil(lo * denominator), math.floor(hi * denominator)
        return Fraction(int(rng.integers(low, high + 1)), denominator)
    return float(rng.uniform(lo, hi))


def feasible_mixture(rng, rz, domain, *, stationary, rational, kinds):
    """Random mixture of the generator laws named in ``kinds``, so
    realizable by construction.

    ``bernoulli`` and ``poisson`` (product laws) need a product domain;
    ``gibbs`` works on any.  With ``stationary`` the parameters are the
    same on every site, so torus instances are translation invariant.
    """
    s = domain.site_count
    parts = []
    for kind in kinds:
        if kind == "bernoulli":
            if stationary:
                p = [_param(rng, 0.1, 0.6, rational)] * s
            else:
                p = [_param(rng, 0.1, 0.7, rational) for _ in range(s)]
            law = rz.bernoulli_product(domain, p)
        elif kind == "poisson":
            law = rz.truncated_poisson_product(domain, _param(rng, 0.2, 1.2, rational, 4))
        else:
            law = rz.hardcore_gibbs(domain, _param(rng, 0.2, 1.5, rational, 4))
        parts.append(rz.correlations_of(law))
    return mixture(rz, parts, _weights(rng, len(parts), rational))


def near_boundary(rng, rz, domain):
    """An exact few-atom table, rounded to float and nudged by 1e-11..3e-9.

    The unperturbed table is realizable and sits on a low-dimensional face
    of the moment polytope, so the perturbed one is decided by margins of
    the same size as the solver tolerance.
    """
    configs = rz.enumerate_configurations(domain)
    k = int(rng.integers(2, 5))
    chosen = sorted(rng.choice(len(configs), size=k, replace=False).tolist())
    raw = [int(v) for v in rng.integers(1, 10, size=k)]
    atoms = tuple((configs[i], Fraction(w, sum(raw))) for i, w in zip(chosen, raw))
    exact = rz.correlations_of(rz.Distribution(domain, atoms))
    rho1 = np.array([float(v) for v in exact.rho1], dtype=float)
    rho2 = np.array([[float(v) for v in row] for row in exact.rho2], dtype=float)
    s = domain.site_count
    entries = [("1", i, i) for i in range(s) if rho1[i] > 0]
    entries += [("2", i, j) for i in range(s) for j in range(i, s) if rho2[i, j] > 0]
    for idx in rng.choice(len(entries), size=min(len(entries), int(rng.integers(1, 4))), replace=False):
        which, i, j = entries[int(idx)]
        delta = math.exp(rng.uniform(math.log(NEAR_LOW), math.log(NEAR_HIGH)))
        delta *= 1 if rng.random() < 0.5 else -1
        if which == "1":
            rho1[i] += delta
        else:
            rho2[i, j] += delta
            rho2[j, i] = rho2[i, j]
    return _tables(rz, rho1, rho2)


def to_float(rz, corr):
    return _tables(
        rz,
        np.array([float(v) for v in corr.rho1], dtype=float),
        np.array([[float(v) for v in row] for row in corr.rho2], dtype=float),
    )


# ---------------------------------------------------------------------------
# workloads


def _n_max(domain):
    return sum(domain.occupancy_cap)


FULL_FLOAT_DOMAINS = (
    ("torus(3,3)", "torus", (3, 3), False),
    ("torus(2,2,2)", "torus", (2, 2, 2), False),
    ("torus(3,3)-hc", "torus", (3, 3), True),
    ("complete(4,c1)", "complete", (4, 1), None),
    ("complete(4,c2)", "complete", (4, 2), None),
    ("complete(5,c1)", "complete", (5, 1), None),
    ("complete(5,c2)", "complete", (5, 2), None),
    ("complete(6,c1)", "complete", (6, 1), None),
    ("complete(6,c2)", "complete", (6, 2), None),
)

FULL_FLOAT_SMOKE = ("torus(3,3)-hc", "complete(4,c1)")

#: Generator laws mixed for the feasible-check, third-moment and infeasible
#: inputs.  Fixed pairs keep the pivot count per op steady across seeds;
#: domains with exclusion mix two hard-core Gibbs laws instead.
FULL_FLOAT_KINDS = (["bernoulli", "poisson"], ["poisson", "gibbs"], ["gibbs", "bernoulli"])


def full_float_round(rz, seed, index, workdir, smoke=False):
    """Per domain: a feasible check, an infeasible check, a third-moment
    minimization and a near-boundary check (so a quarter of the ops each)."""
    rng = np.random.default_rng([seed, index, 1])
    ops = []
    for label, shape, arg, hardcore in FULL_FLOAT_DOMAINS:
        if smoke and label not in FULL_FLOAT_SMOKE:
            continue
        if shape == "torus":
            domain = torus(rz, arg, hardcore)
        else:
            domain = complete_domain(rz, *arg)
        stationary = shape == "torus"
        slots = FULL_FLOAT_KINDS if not hardcore else [["gibbs", "gibbs"]] * 3
        feasible, other, base = (
            feasible_mixture(rng, rz, domain, stationary=stationary, rational=False, kinds=kinds)
            for kinds in slots
        )
        infeasible = break_total_count(rz, base, _n_max(domain), float(rng.random()), False)
        nudged = near_boundary(rng, rz, domain)
        dims = arg if stationary else None
        ops.append(Op("check", label, domain, feasible, expect=True, torus_dims=dims))
        ops.append(Op("check", label, domain, infeasible, expect=False, torus_dims=dims))
        ops.append(Op("third", label, domain, other, expect=True, torus_dims=dims))
        ops.append(Op("check", label, domain, nudged, near_boundary=True))
    for op in ops:
        if op.torus_dims and not rz.is_stationary(op.corr, rz.translation_group(op.torus_dims)):
            raise AssertionError(f"{op.label}: generated table is not stationary")
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


#: (sites, cap, copies) of the complete graphs; each copy is one check and
#: one third-moment op.  Two copies of the mid-sized graphs put the op-time
#: 90th percentile inside their group rather than at its edge.
EXACT_COMPLETE = ((3, 1, 1), (3, 2, 1), (4, 1, 1), (4, 2, 2), (5, 1, 1), (6, 1, 2))
EXACT_LIGHT_TORI = ((2, 2), (4,), (5,))
#: Copies of the light torus checks and of the two-atom sweep per round, so a
#: run holds enough ops for a 90th percentile with ten samples beyond it and
#: the median falls inside the light torus group.
EXACT_LIGHT_COPIES = 6
EXACT_SWEEPS = 2


def exact_heavy(rz, index):
    """The two heaviest exact ops of round ``index``, one of each.

    Their inputs do not depend on the seed: a rational op of this size costs
    2 to 8 s depending on the fractions drawn, and with two of each per run
    that spread would swamp every other change.  Variants alternate by
    round parity, so the two rounds of a run hold each variant once.
    """
    five = complete_domain(rz, 5, 2)
    tables = [
        rz.correlations_of(rz.truncated_poisson_product(five, Fraction(1, 2))),
        rz.correlations_of(rz.bernoulli_product(five, [Fraction(1, 3)] * 5)),
    ]
    five_corr = mixture(rz, tables, [Fraction(1, 2)] * 2)
    cube = torus(rz, (2, 2, 2))
    cube_corr = rz.correlations_of(rz.bernoulli_product(cube, [Fraction(1, 2)] * 8))
    if index % 2:
        cube_corr = break_total_count(rz, cube_corr, _n_max(cube), 0.5, True)
    return [
        Op(("check", "third")[index % 2], "complete(5,c2)", five, five_corr, rational=True, expect=True, gate=True),
        Op("check", "torus(2,2,2)", cube, cube_corr, rational=True, expect=index % 2 == 0, gate=True),
    ]


def exact_round(rz, seed, index, workdir, smoke=False):
    """Two-atom sweeps, complete graphs (check and third moment), light tori
    with exact infeasible variants, and the two heavy ops of
    :func:`exact_heavy`."""
    rng = np.random.default_rng([seed, index, 2])
    ops = []
    for _ in range(1 if smoke else EXACT_SWEEPS):
        for m in range(1, 3 if smoke else 7):
            corr, dist = rz.two_atom_family(m + 1 + int(rng.integers(0, 3)), m)
            ops.append(
                Op("third", f"two-atom(m={m})", dist.domain, corr, rational=True, expect=True, r_star=m - 1)
            )
    for sites, cap, copies in EXACT_COMPLETE[:1] if smoke else EXACT_COMPLETE:
        domain = complete_domain(rz, sites, cap)
        for _ in range(copies):
            for kind in ("check", "third"):
                corr = feasible_mixture(rng, rz, domain, stationary=False, rational=True, kinds=["poisson", "bernoulli"])
                ops.append(Op(kind, f"complete({sites},c{cap})", domain, corr, rational=True, expect=True, gate=True))
    for dims in EXACT_LIGHT_TORI[1:2] if smoke else EXACT_LIGHT_TORI:
        domain = torus(rz, dims)
        label = f"torus{dims}".replace(" ", "")
        for _ in range(1 if smoke else EXACT_LIGHT_COPIES):
            corr = feasible_mixture(rng, rz, domain, stationary=True, rational=True, kinds=["poisson", "bernoulli"])
            base = feasible_mixture(rng, rz, domain, stationary=True, rational=True, kinds=["poisson", "bernoulli"])
            broken = break_total_count(rz, base, _n_max(domain), float(rng.random()), True)
            ops.append(Op("check", label, domain, corr, rational=True, expect=True, gate=True))
            ops.append(Op("check", label, domain, broken, rational=True, expect=False, gate=True))
    if not smoke:
        ops.extend(exact_heavy(rz, index))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


ORBIT_HEAVY = ((4, 4), (4, 3))
ORBIT_LIGHT = (((3, 3), False), ((3, 3), True), ((4, 3), True), ((4, 4), True))
#: Copies of the light instances per round (see EXACT_LIGHT_COPIES).
ORBIT_LIGHT_COPIES = 4


def _write_instance(path, domain, corr, dims):
    payload = {
        "schema_version": 1,
        "domain": {
            "distance": domain.distance.tolist(),
            "occupancy_cap": 1,
            "exclusion_diameter": domain.exclusion_diameter,
        },
        "correlations": {"rho1": corr.rho1.tolist(), "rho2": corr.rho2.tolist()},
        "group": {"torus_dims": list(dims)},
    }
    with open(path, "w") as handle:
        json.dump(payload, handle)


def orbit_round(rz, seed, index, workdir, smoke=False):
    """Symmetric torus instances written as files, and ``realz`` commands
    on them: ``stationary`` on every instance, ``certify`` on every
    infeasible report, ``conditions`` on the feasible (3,3) and (4,3)
    instances."""
    rng = np.random.default_rng([seed, index, 3])
    folder = os.path.join(workdir, f"round{index}")
    os.makedirs(folder, exist_ok=True)
    instances = []
    if smoke:
        specs = [((3, 3), True, 0)]
    else:
        specs = [(dims, False, 0) for dims in ORBIT_HEAVY]
        specs += [(dims, hc, c) for c in range(ORBIT_LIGHT_COPIES) for dims, hc in ORBIT_LIGHT]
    domains = {}
    for dims, hardcore, copy in specs:
        if (dims, hardcore) not in domains:
            domains[dims, hardcore] = torus(rz, dims, hardcore)
        domain = domains[dims, hardcore]
        label = f"torus{dims}{'-hc' if hardcore else ''}".replace(" ", "")
        s = domain.site_count
        if hardcore:
            feasible, base = (
                feasible_mixture(rng, rz, domain, stationary=True, rational=False, kinds=["gibbs", "gibbs"])
                for _ in range(2)
            )
        else:
            k = int(rng.integers(1, 3))
            feasible = stationary_product(rz, s, [float(rng.uniform(0.1, 0.6)) for _ in range(k)], _weights(rng, k, False))
            base = stationary_product(rz, s, [float(rng.uniform(0.1, 0.6))], [1.0])
        infeasible = break_total_count(rz, base, _n_max(domain), float(rng.random()), False)
        for variant, corr, expect in (("feasible", feasible, True), ("infeasible", infeasible, False)):
            stem = os.path.join(folder, f"{label}-{variant}-{copy}")
            _write_instance(stem + ".json", domain, corr, dims)
            instances.append((label, stem, domain, corr, expect, dims))
    heavy, light = [], []
    for label, stem, domain, corr, expect, dims in instances:
        files = {"instance": stem + ".json", "report": stem + ".report.json", "cert": stem + ".cert.json"}
        ops = heavy if label in HEAVY_LABELS else light
        ops.append(Op("stationary", label, domain, corr, expect=expect, files=files))
        if not expect:
            ops.append(Op("certify", label, domain, corr, expect=False, files=dict(files, report=stem + ".certify.json")))
        if expect and dims != (4, 4):
            ops.append(
                Op("conditions", label, domain, corr, expect=True, files=dict(files, report=stem + ".conditions.json"))
            )
    return interleave(heavy, light) if heavy else light


HEAVY_LABELS = {f"torus{dims}".replace(" ", "") for dims in ORBIT_HEAVY}

#: Order of the heavy ops by their index in instance order (stationary on
#: (4,4) feasible, on (4,4) infeasible, certify, stationary on (4,3)
#: feasible, conditions, stationary on (4,3) infeasible, certify): long and
#: short ops alternate, and every certificate follows its report.
HEAVY_ORDER = (0, 3, 1, 5, 4, 2, 6)


def interleave(heavy, light):
    """Heavy ops in :data:`HEAVY_ORDER`, each followed by an equal share of
    the light ops, in their own order.

    The machine's speed drifts over seconds and the light ops set the
    median op time, so they are spread over the whole round instead of
    running in one block.  The order is fixed, so peak memory does not
    depend on the seed either.
    """
    heavy = [heavy[i] for i in HEAVY_ORDER]
    ops, start = [], 0
    for k, op in enumerate(heavy):
        stop = round((k + 1) * len(light) / len(heavy))
        ops.append(op)
        ops.extend(light[start:stop])
        start = stop
    return ops


#: Round builder and the seconds one round takes on the reference machine
#: (2 cores, Python 3.11, numpy 2.4) at the commit that added the benchmark.
#: A run executes ``round(seconds / nominal)`` whole rounds, so its work is
#: fixed by the seed and the same on every run and commit.
WORKLOADS = {
    "full-float": (full_float_round, 2.8),
    "exact": (exact_round, 10.5),
    "orbit-cli": (orbit_round, 18.5),
}
