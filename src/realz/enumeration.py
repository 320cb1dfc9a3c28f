"""Exhaustive generation of admissible configurations and observable ranges.

Enumeration builds the occupancy array breadth first, site by site, with
pruning by caps, exclusion, and total-particle constraints.  Output is
always in ascending lexicographic order of occupancy vectors, so downstream
variable indexing is reproducible bit for bit.
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


def enumerate_configurations(domain: Domain, limit: int = DEFAULT_LIMIT) -> np.ndarray:
    """All admissible configurations as a ``(configs x sites)`` int64 array.

    Rows are occupancy vectors in ascending lexicographic order.  Raises
    :class:`CapacityError` when the admissible space exceeds ``limit``
    configurations.
    """
    s = domain.site_count
    caps = domain.occupancy_cap
    d = domain.exclusion_diameter
    exclusion = d is not None and d > 0
    total_exact = domain.total_exact
    budget = domain.total_cap if total_exact is None else total_exact
    if budget is None and not exclusion:
        product = math.prod(c + 1 for c in caps)
        if product > limit:
            raise CapacityError(f"configuration space has {product} members, limit is {limit}")
    if exclusion:
        caps = tuple(min(c, 1) for c in caps)
        close = np.tril(domain.distance < d, -1)  # row k: earlier sites too close to k
    if budget is not None:
        # Every budget above the sum of the caps acts alike (no bound, or no
        # configuration for total_exact): clip it so int64 holds the totals.
        budget = min(budget, sum(caps) + 1)
        caps = tuple(min(c, budget) for c in caps)
    # rest[k]: particles the sites after k can take; a prefix that cannot
    # reach total_exact even so is dropped at once.
    rest = [sum(caps[k + 1 :]) for k in range(s)]
    # Every prefix extends to a configuration (by zeros, or up to
    # total_exact) unless exclusion can block that, so then a prefix count
    # above the limit already exceeds it, and is not built.
    prefixes_extend = total_exact is None or not exclusion

    # Breadth first, site by site: each prefix row is repeated once per
    # occupancy the next site admits, ascending, which keeps the rows in
    # lexicographic order.  Rows are built in the narrowest dtype that holds
    # every cap, and widened to int64 once at the end.
    X = np.zeros((1, s), dtype=np.min_scalar_type(max(caps, default=0)))
    total = np.zeros(1, dtype=np.int64)
    count = 1  # the empty prefix
    for site in range(s):
        hi = np.full(len(X), caps[site]) if budget is None else np.minimum(caps[site], budget - total)
        if exclusion:
            hi[X[:, close[site]].any(axis=1)] = 0
        lo = 0 if total_exact is None else np.maximum(budget - total - rest[site], 0)
        reps = np.maximum(hi - lo + 1, 0)
        count = reps.sum()
        if prefixes_extend and count > limit:
            break
        # n runs from lo to hi within the block of each prefix.
        ends = np.cumsum(reps)
        n = np.arange(count) - np.repeat(ends - reps - lo, reps)
        X = np.repeat(X, reps, axis=0)
        X[:, site] = n
        if budget is not None:
            total = np.repeat(total, reps) + n
    if count > limit:
        raise CapacityError(f"more than {limit} admissible configurations; raise the limit")
    return X.astype(np.int64)


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
    return _range_set(f, enumerate_configurations(domain, limit), merge_tol)


def max_occupancy(domain: Domain, window: Sequence[int], limit: int = DEFAULT_LIMIT) -> int:
    """Largest particle count inside a site subset over all admissible configurations."""
    sites = sorted(set(int(i) for i in window))
    if any(i < 0 or i >= domain.site_count for i in sites):
        raise DimensionError("window contains a site index outside the domain")
    return int(enumerate_configurations(domain, limit)[:, sites].sum(axis=1).max(initial=0))
