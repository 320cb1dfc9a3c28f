"""Exhaustive generation of admissible configurations and observable ranges.

Enumeration is a depth-first walk over sites with pruning by caps,
exclusion, and total-particle constraints.  Output is always in ascending
lexicographic order of occupancy vectors, so downstream variable indexing
is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Domain, Scalar, _as_vector
from .errors import CapacityError, DimensionError, ValidationError

#: Default ceiling on the number of admissible configurations.
DEFAULT_LIMIT = 10_000_000

#: Values of a linear observable closer than this are merged into one.
MERGE_TOL = 1e-12


@dataclass(frozen=True)
class RangeSet:
    """Sorted distinct values taken by a linear observable."""

    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise ValidationError("range set must be nonempty")
        if any(values[k] >= values[k + 1] for k in range(len(values) - 1)):
            raise ValidationError("range set values must be strictly increasing")
        object.__setattr__(self, "values", values)

    @property
    def min(self) -> Scalar:
        return self.values[0]

    @property
    def max(self) -> Scalar:
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)


def enumerate_configurations(domain: Domain, limit: int = DEFAULT_LIMIT) -> list:
    """All admissible configurations, ascending lexicographically.

    Raises :class:`CapacityError` when the admissible space exceeds
    ``limit`` configurations.
    """
    s = domain.site_count
    caps = domain.occupancy_cap
    if domain.total_cap is None and domain.total_exact is None:
        d = domain.exclusion_diameter
        if d is None or d <= 0:
            product = math.prod(c + 1 for c in caps)
            if product > limit:
                raise CapacityError(f"configuration space has {product} members, limit is {limit}")

    dist = domain.distance
    d = domain.exclusion_diameter
    exclusion = d is not None and d > 0
    total_cap = domain.total_cap
    total_exact = domain.total_exact

    out: list = []
    prefix = [0] * s

    def walk(site: int, total: int, occupied: list) -> None:
        if site == s:
            if total_exact is not None and total != total_exact:
                return
            if len(out) >= limit:
                raise CapacityError(f"more than {limit} admissible configurations; raise the limit")
            out.append(tuple(prefix))
            return
        cap = min(caps[site], 1) if exclusion else caps[site]
        for n in range(cap + 1):
            new_total = total + n
            if total_cap is not None and new_total > total_cap:
                break
            if total_exact is not None and new_total > total_exact:
                break
            if n > 0 and exclusion and any(dist[o, site] < d for o in occupied):
                break
            prefix[site] = n
            if n > 0:
                occupied.append(site)
            walk(site + 1, new_total, occupied)
            if n > 0:
                occupied.pop()
        prefix[site] = 0

    try:
        walk(0, 0, [])
    finally:
        # walk reaches itself through its closure cell: break that cycle, so
        # ``out`` is freed when the caller drops it, not at a later collection.
        del walk
    return out


def _occupancy(domain: Domain, limit: int = DEFAULT_LIMIT) -> np.ndarray:
    """Admissible configurations stacked as a ``(configs x sites)`` int64 array."""
    configs = enumerate_configurations(domain, limit=limit)
    return np.array(configs, dtype=np.int64).reshape(len(configs), domain.site_count)


def _range_set(f: Sequence[Scalar], X: np.ndarray, merge_tol: float = MERGE_TOL) -> RangeSet:
    """Distinct values of ``sum_i f_i n_i`` over the rows of ``X``, as in
    :func:`range_of`.  Row sums, unlike ``X @ f``, match ``(f * row).sum()``."""
    fv = _as_vector(f, "f")
    if fv.shape[0] != X.shape[1]:
        raise DimensionError("observable length does not match domain")
    if not len(X):
        raise ValidationError("domain admits no configurations; range is empty")
    values = sorted((X * fv).sum(axis=1).tolist())
    merged = [values[0]]
    for v in values[1:]:
        if v - merged[-1] > merge_tol:
            merged.append(v)
    return RangeSet(tuple(merged))


def range_of(
    f: Sequence[Scalar],
    domain: Domain,
    limit: int = DEFAULT_LIMIT,
    merge_tol: float = MERGE_TOL,
) -> RangeSet:
    """Sorted distinct values of ``sum_i f_i n_i`` over admissible configurations.

    Values closer than ``merge_tol`` are merged (first representative kept),
    guarding against spurious near-duplicates from float coefficients.
    """
    return _range_set(f, _occupancy(domain, limit), merge_tol)


def max_occupancy(domain: Domain, window: Sequence[int], limit: int = DEFAULT_LIMIT) -> int:
    """Largest particle count inside a site subset over all admissible configurations."""
    sites = sorted(set(int(i) for i in window))
    if any(i < 0 or i >= domain.site_count for i in sites):
        raise DimensionError("window contains a site index outside the domain")
    return int(_occupancy(domain, limit)[:, sites].sum(axis=1).max(initial=0))
