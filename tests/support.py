"""Shared builders for the test suite."""

from __future__ import annotations

import contextlib
import importlib.util
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import realz
from realz import CorrelationPair, Distribution, Domain, correlations_of, enumerate_configurations, torus_domain
from realz import enumeration

#: The benchmark's workload builders, read here for their inputs alone.
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def single_site(cap: int, **kwargs) -> Domain:
    return Domain(distance=[[0.0]], occupancy_cap=(cap,), **kwargs)


def complete_domain(sites: int, cap: int = 1, spacing: float = 1.0, **kwargs) -> Domain:
    """Sites pairwise at the same distance (complete graph geometry)."""
    dist = np.full((sites, sites), spacing)
    np.fill_diagonal(dist, 0.0)
    return Domain(distance=dist, occupancy_cap=(cap,) * sites, **kwargs)


def plain_domain(domain: Domain) -> Domain:
    """``domain``'s distances, caps, exclusion and totals as a plain
    ``Domain``, which records no translations: checks on it take the
    unreduced moment LP even where ``domain``'s would take its group."""
    return Domain(distance=domain.distance, occupancy_cap=domain.occupancy_cap,
                  exclusion_diameter=domain.exclusion_diameter, total_cap=domain.total_cap,
                  total_exact=domain.total_exact)


def pair_lattice_corr(rho: float, q: float) -> CorrelationPair:
    """Two-site lattice-gas correlations with common density and pair moment."""
    return CorrelationPair(
        rho1=np.array([rho, rho]),
        rho2=np.array([[0.0, q], [q, 0.0]]),
    )


def random_domain(rng, max_sites: int = 4, max_cap: int = 2, allow_exclusion: bool = True) -> Domain:
    sites = int(rng.integers(1, max_sites + 1))
    caps = tuple(int(rng.integers(1, max_cap + 1)) for _ in range(sites))
    dist = np.zeros((sites, sites))
    for i in range(sites):
        for j in range(i + 1, sites):
            dist[i, j] = dist[j, i] = float(rng.uniform(0.5, 2.0))
    exclusion = None
    if allow_exclusion and sites > 1 and rng.random() < 0.3:
        exclusion = float(rng.uniform(0.4, 1.2))
        caps = (1,) * sites
    return Domain(distance=dist, occupancy_cap=caps, exclusion_diameter=exclusion)


@contextlib.contextmanager
def max_configurations(count: int):
    """``enumeration.MAX_CONFIGURATIONS`` is ``count`` within the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration, "MAX_CONFIGURATIONS", count)
        yield


def random_distribution(rng, domain: Domain, exact: bool = False) -> Distribution:
    """Random finitely supported distribution on admissible configurations."""
    configs = enumerate_configurations(domain)
    count = int(rng.integers(1, min(len(configs), 6) + 1))
    chosen = sorted(rng.choice(len(configs), size=count, replace=False).tolist())
    if exact:
        raws = [int(rng.integers(1, 20)) for _ in chosen]
        total = sum(raws)
        weights = [Fraction(r, total) for r in raws]
    else:
        raws = rng.random(count) + 1e-3
        weights = (raws / raws.sum()).tolist()
    return Distribution(domain, tuple((configs[k], w) for k, w in zip(chosen, weights)))


def scaled_nearest_pairs(domain: Domain, corr: CorrelationPair, factor) -> CorrelationPair:
    """``corr`` with the pair entries of the closest distinct sites times
    ``factor``: stationary when ``corr`` is, on a torus."""
    rho2 = corr.rho2.copy()
    nearest = domain.distance == domain.distance[domain.distance > 0].min()
    rho2[nearest] = rho2[nearest] * factor
    return CorrelationPair(rho1=corr.rho1, rho2=rho2)


def moved_density(corr: CorrelationPair) -> CorrelationPair:
    """``corr`` with nine tenths of site 1's density moved to site 0.  The
    particle count's moments stay, so only the LP can refute the table."""
    rho1 = corr.rho1.copy()
    rho1[0], rho1[1] = rho1[0] + rho1[1] * Fraction(9, 10), rho1[1] / 10
    return CorrelationPair(rho1=rho1, rho2=corr.rho2)


#: ``(label, shape, argument, hard core)`` of the nine near-boundary domains:
#: tori with one particle per site (the hard-core one excludes neighbours)
#: and complete graphs ``(sites, cap)``.
NEAR_BOUNDARY_DOMAINS = (
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


def near_boundary_input(seed: int, index: int) -> tuple:
    """``(domain, corr)``: input ``seed`` on ``NEAR_BOUNDARY_DOMAINS[index]``.

    An exact law on 2-4 random configurations is rounded to float, and 1-3
    of its nonzero entries are nudged by 1e-11..3e-9 (log-uniform, either
    sign), so the input sits within solver tolerance of a low-dimensional
    face of the moment polytope.  The float tables are returned as the
    exact ``Fraction`` of each float.
    """
    _, shape, arg, hardcore = NEAR_BOUNDARY_DOMAINS[index]
    if shape == "torus":
        domain = torus_domain(arg, occupancy_cap=1, exclusion_diameter=1.5 if hardcore else None)
    else:
        domain = complete_domain(*arg)
    rng = np.random.default_rng([seed, 99, index])
    configs = enumerate_configurations(domain)
    k = int(rng.integers(2, 5))
    chosen = sorted(rng.choice(len(configs), size=k, replace=False).tolist())
    raw = [int(v) for v in rng.integers(1, 10, size=k)]
    law = Distribution(domain, tuple((configs[i], Fraction(w, sum(raw))) for i, w in zip(chosen, raw)))
    exact = correlations_of(law)
    rho1 = np.array([float(v) for v in exact.rho1])
    rho2 = np.array([[float(v) for v in row] for row in exact.rho2])
    s = domain.site_count
    entries = [("1", i, i) for i in range(s) if rho1[i] > 0]
    entries += [("2", i, j) for i in range(s) for j in range(i, s) if rho2[i, j] > 0]
    for idx in rng.choice(len(entries), size=min(len(entries), int(rng.integers(1, 4))), replace=False):
        which, i, j = entries[int(idx)]
        delta = math.exp(rng.uniform(math.log(1e-11), math.log(3e-9))) * (1 if rng.random() < 0.5 else -1)
        if which == "1":
            rho1[i] += delta
        else:
            rho2[i, j] += delta
            rho2[j, i] = rho2[i, j]
    as_fractions = np.frompyfunc(Fraction, 1, 1)
    return domain, CorrelationPair(rho1=as_fractions(rho1), rho2=as_fractions(rho2))


@contextlib.contextmanager
def _workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded for its inputs."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def exact_workload_inputs(seed: int = 1) -> list:
    """``(check, domain, corr)`` for every op of rounds 0 and 1 of the
    benchmark's ``exact`` workload at ``seed``: the rational checks and
    third-moment minima it times."""
    with _workloads() as module:
        ops = [op for index in (0, 1) for op in module.exact_round(realz, seed, index, None)]
    checks = {"check": realz.check_realizability, "third": realz.minimal_third_moment}
    return [(checks[op.kind], op.domain, op.corr) for op in ops]


#: ``(seed, round, op)`` of four near-boundary (3,3) torus checks of the
#: benchmark's ``full-float`` workload whose full LPs took 15,759-28,563
#: float pivots, and whether each is realizable.  A zero entry of each
#: table forces most configurations off its support.
DRIFT_OPS = (((9312, 2, 0), False), ((7303, 5, 32), True), ((7308, 10, 24), True), ((9314, 1, 11), True))


def drift_inputs() -> list:
    """``(domain, corr, feasible)`` of the :data:`DRIFT_OPS`, as the
    ``full-float`` workload builds them."""
    with _workloads() as module:
        ops = [(module.full_float_round(realz, seed, index, None)[k], feasible) for (seed, index, k), feasible in DRIFT_OPS]
    return [(op.domain, op.corr, feasible) for op, feasible in ops]


def near_boundary_inputs() -> list:
    """``(check, domain, corr)`` of the rational near-boundary probe: both
    checks on every seed 0-19 of every near-boundary domain."""
    checks = (realz.check_realizability, realz.minimal_third_moment)
    return [(check, *near_boundary_input(seed, index))
            for seed in range(20) for index in range(len(NEAR_BOUNDARY_DOMAINS)) for check in checks]
