"""Exhaustive generation of admissible configurations and observable ranges.

Enumeration builds the occupancy array breadth first, site by site, with
pruning by caps, exclusion, and total-particle constraints.  Output is
always in ascending lexicographic order of occupancy vectors, so downstream
variable indexing is reproducible bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EQUALITY_TOL, Domain, Scalar, _all_finite, _as_vector, _block_size, _integer
from .errors import CapacityError, DimensionError, ValidationError

#: Ceiling on the configurations one enumeration returns, and under a group
#: on the orbit representatives and the surviving prefixes of every site.
#: Past it :class:`CapacityError` is raised.  It is read at each build.
MAX_CONFIGURATIONS = 10_000_000

#: Bytes of built spaces (one byte per occupancy) and of their keys that a
#: process keeps for reuse: a check, its replay and the next check of the
#: same domain enumerate once.  The full (4,4) torus (1 MiB) and the (5,4)
#: orbit representatives (1.05 MB) are above it and not kept, so a process
#: that enumerates those once holds no more memory than it did without the
#: memo.
_MEMO_BYTES = 1 << 19


@dataclass(frozen=True)
class RangeSet:
    """Sorted distinct values taken by a linear observable."""

    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if not values:
            raise ValidationError("range set must be nonempty")
        if any(v != v for v in values):
            raise ValidationError("range set values must not be NaN")
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


def enumerate_configurations(domain: Domain, group=None, *, _narrow: bool = False) -> np.ndarray:
    """All admissible configurations as a ``(configs x sites)`` int64 array.

    Rows are occupancy vectors in ascending lexicographic order.  Raises
    :class:`CapacityError` when the admissible space exceeds
    ``MAX_CONFIGURATIONS``.

    Under a site permutation ``group`` (a :class:`~realz.stationary.FiniteGroup`
    that preserves the domain), only the lexicographically least member of
    each configuration orbit is returned, in the same order.  These are
    generated without the rest of their orbits (orderly generation, Read
    1978; McKay 1998): after each site, a prefix is dropped when some
    element ``g`` already makes it larger than its image ``g.x``, with
    ``(g.x)[j] = x[g^-1(j)]``, on the first positions that both determine;
    at the last site this is the exact test.  ``MAX_CONFIGURATIONS`` then
    bounds the representatives and the surviving prefixes of every site,
    and a space that its caps alone put past it is refused unbuilt.

    Spaces are shared within the process: each is built once per content
    key (the domain's fields but its labels, ``MAX_CONFIGURATIONS`` and
    the group's elements) and kept, least recently used first out, within
    ``_MEMO_BYTES``; every call returns its own writable copy.

    ``_narrow``, the moment LP's read, returns the built rows themselves
    instead: read-only, in the builder's narrow unsigned dtype, the memo's
    own array when it is kept.  The LP reads them with no copy, and the
    call stays this function's, where the benchmark's tracer times it.
    """
    if group is not None and group.degree != domain.site_count:
        raise DimensionError("group degree does not match the domain")
    key = (
        domain.distance.tobytes(),
        domain.occupancy_cap,
        domain.exclusion_diameter,
        domain.total_cap,
        domain.total_exact,
        MAX_CONFIGURATIONS,
        None if group is None else group._array().tobytes(),
    )
    X = _MEMO.get(key)
    if X is None:
        X = _build(domain, group)
        X.flags.writeable = False
        _MEMO.put(key, X)
    return X if _narrow else X.astype(np.int64)


class _Memo:
    """Built spaces by content key, read-only in the builder's dtype, the
    least recently used dropped first so that the arrays and the byte
    strings of their keys stay within ``_MEMO_BYTES``.  An array above
    that alone is not kept.  Threads share the memo, so each lookup and
    each store holds the lock."""

    def __init__(self):
        self.entries: OrderedDict = OrderedDict()  # key -> (array, bytes charged)
        self.size = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            entry = self.entries.get(key)
            if entry is None:
                return None
            self.entries.move_to_end(key)
        return entry[0]

    def put(self, key, X: np.ndarray) -> None:
        size = X.nbytes + sum(len(part) for part in key if isinstance(part, bytes))
        if size > _MEMO_BYTES:
            return
        with self.lock:
            if key in self.entries:  # another thread built it meanwhile
                return
            self.entries[key] = (X, size)
            self.size += size
            while self.size > _MEMO_BYTES:
                self.size -= self.entries.popitem(last=False)[1][1]


_MEMO = _Memo()


def _build(domain: Domain, group) -> np.ndarray:
    """The rows :func:`enumerate_configurations` returns, in the narrowest
    unsigned dtype that holds every cap."""
    limit = MAX_CONFIGURATIONS
    s = domain.site_count
    caps = domain.occupancy_cap
    d = domain.exclusion_diameter
    exclusion = d is not None and d > 0
    total_exact = domain.total_exact
    budget = domain.total_cap if total_exact is None else total_exact
    if past := _past_limit(domain, None if group is None else len(group)):
        raise CapacityError(past)
    if exclusion:
        caps = tuple(min(c, 1) for c in caps)
    if budget is not None:
        # Every budget above the sum of the caps acts alike (no bound, or no
        # configuration for total_exact): clip it so int64 holds the totals.
        budget = min(budget, sum(caps) + 1)
        caps = tuple(min(c, budget) for c in caps)
    if sum(caps) > 2**63 - 2:  # so int64 holds every count, total and budget
        raise ValidationError(f"configurations of up to {sum(caps)} particles are past int64")
    grow = _Growth(domain, caps, budget)
    # Every prefix extends to a configuration (by zeros, or up to
    # total_exact) unless exclusion can block that, so then a prefix count
    # above the bound already exceeds it, and is not built.
    prefixes_extend = total_exact is None or not exclusion

    # Breadth first, site by site: each prefix row is repeated once per
    # occupancy the next site admits, ascending, which keeps the rows in
    # lexicographic order.  Rows are built in the narrowest dtype that holds
    # every cap, and kept in it.
    X = np.zeros((1, s), dtype=np.min_scalar_type(max(caps, default=0)))
    total = None if budget is None else np.zeros(1, dtype=np.int64)
    count = 1  # the empty prefix
    if group is None:
        for site in range(s):
            reps, lo = grow.counts(X, total, site)
            count = reps.sum()
            if prefixes_extend and count > limit:
                break
            X, total = grow.rows(X, total, site, reps, lo)
    else:
        least = _LexLeast(group, max(caps, default=0) + 1)
        # A grown row is keyed twice per element.  Each block grows at most
        # `step` rows, and near the limit no more than the rows that could
        # still pass it, or `near` rows, so that a kept count which ends
        # close to the limit does not finish its site a few rows at a time.
        step = _block_size(2 * len(group))
        near = max(1, step // 16)
        for site in range(s):
            reps, lo = grow.counts(X, total, site)
            ends = np.cumsum(reps)
            parts, count, start, size = [], 0, 0, int(ends[-1]) if len(ends) else 0
            while not parts or start < size:
                stop = min(start + step, start + max(limit - count + 1, near), size)
                Xb, tb = grow.piece(X, total, site, reps, lo, ends, start, stop)
                keep = least.keep(Xb, site + 1)
                parts.append((Xb[keep], None if tb is None else tb[keep]))
                count += len(parts[-1][0])
                if count > limit:
                    raise CapacityError(
                        f"{count} or more orbit representatives or prefixes, "
                        f"past enumeration.MAX_CONFIGURATIONS = {limit}"
                    )
                start = stop
            X = np.concatenate([p[0] for p in parts])
            total = None if total is None else np.concatenate([p[1] for p in parts])
    if count > limit:
        raise CapacityError(f"{count} or more configurations, past enumeration.MAX_CONFIGURATIONS = {limit}")
    return X


def _past_limit(domain: Domain, order: int | None = None) -> str | None:
    """Why the space is past ``MAX_CONFIGURATIONS`` under a group of
    ``order`` elements (None: no group), known from the caps alone, else
    None: with no total and no exclusion it has ``prod(cap + 1)``
    configurations, and so at least that over ``order`` orbits."""
    if domain.total_cap is not None or domain.total_exact is not None or (domain.exclusion_diameter or 0) > 0:
        return None
    product, limit = math.prod(c + 1 for c in domain.occupancy_cap), MAX_CONFIGURATIONS
    if product <= limit * (order or 1):
        return None
    count = f"{product} configurations" if order is None else f"at least {-(-product // order)} orbits"
    return f"{count}, past enumeration.MAX_CONFIGURATIONS = {limit}"


class _Growth:
    """One site step of the breadth-first build: the occupancies each
    prefix admits at the next site, and the rows that repeat them."""

    def __init__(self, domain: Domain, caps: tuple, budget):
        s = domain.site_count
        d = domain.exclusion_diameter
        self.caps, self.budget, self.total_exact = caps, budget, domain.total_exact
        # close row k: earlier sites too close to k
        self.close = np.tril(domain.distance < d, -1) if d is not None and d > 0 else None
        # rest[k]: particles the sites after k can take; a prefix that cannot
        # reach total_exact even so is dropped at once.
        self.rest = [sum(caps[k + 1 :]) for k in range(s)]

    def counts(self, X, total, site) -> tuple:
        """``(reps, lo)``: per prefix row, how many occupancies ``site``
        admits, and the least of them."""
        cap, budget = self.caps[site], self.budget
        hi = np.full(len(X), cap) if budget is None else np.minimum(cap, budget - total)
        if self.close is not None:
            hi[X[:, self.close[site]].any(axis=1)] = 0
        lo = np.zeros_like(hi) if self.total_exact is None else np.maximum(budget - total - self.rest[site], 0)
        return np.maximum(hi - lo + 1, 0), lo

    def rows(self, X, total, site, reps, lo) -> tuple:
        """Each prefix row repeated ``reps`` times, ``site`` running from
        ``lo`` upwards within its block, and the particle totals."""
        # n runs from lo to hi within the block of each prefix.
        ends = np.cumsum(reps)
        n = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - reps - lo, reps)
        X = np.repeat(X, reps, axis=0)
        X[:, site] = n
        if total is not None:
            total = np.repeat(total, reps) + n
        return X, total

    def piece(self, X, total, site, reps, lo, ends, start: int, stop: int) -> tuple:
        """Rows ``start`` to ``stop`` of :meth:`rows` on the whole of ``X``,
        whose prefix ``k`` grows rows ``ends[k] - reps[k]`` to ``ends[k]``
        (``ends``, the running sum of ``reps``): only the prefixes those
        rows come from, each over its share."""
        if start == 0 and stop == (ends[-1] if len(ends) else 0):
            return self.rows(X, total, site, reps, lo)  # the whole growth, with no slicing
        # The prefixes ending past start, through the first that ends at stop or later.
        rows = slice(np.searchsorted(ends, start, side="right"), np.searchsorted(ends, stop) + 1)
        begins = ends[rows] - reps[rows]
        skip = np.maximum(start - begins, 0)
        counts = np.minimum(ends[rows], stop) - begins - skip
        return self.rows(X[rows], None if total is None else total[rows], site, counts, lo[rows] + skip)


class _LexLeast:
    """The prefix test of orderly generation under a site permutation group.

    Occupancies are digits in ``base``, so an integer key orders segments
    lexicographically.  With ``d`` sites set, element ``g`` determines
    ``(g.x)[j]`` for ``j`` below ``m_g(d)``, the first position whose
    preimage is not yet set.  A prefix falls when ``g.x`` keys below ``x``
    on that segment for some ``g``.  Only an element whose segment grew at
    ``d`` and moves some position of it can drop a prefix there, so each
    level tests those alone, as the columns of ``U`` (weights of ``x``) and
    ``V`` (weights of ``g.x``).
    """

    def __init__(self, group, base: int):
        s = group.degree
        perms = group._array()
        inverse = np.argsort(perms, axis=1)  # inverse[g, perm[g, i]] = i
        # m[g, d]: positions j whose preimages of 0..j are all below d.
        reach = np.maximum.accumulate(inverse, axis=1)
        m = (reach[:, None, :] < np.arange(s + 1)[:, None]).sum(axis=2)
        first_moved = np.logical_and.accumulate(inverse == np.arange(s), axis=1).sum(axis=1)
        # One column per (d, g) whose segment grew at d and moves a position,
        # ordered by d.
        level, g = np.nonzero(((m[:, 1:] > m[:, :-1]) & (first_moved[:, None] < m[:, 1:])).T)
        length = m[g, level + 1]
        # Keys stay exact: float64 (BLAS products) below 2**53.
        if base**s <= 2**53:
            self.dtype = np.float64
        else:
            self.dtype = np.int64 if base**s < 2**63 else object
        powers = np.array([base**k for k in range(s)], dtype=self.dtype)
        j = np.arange(s)[:, None]
        inside = j < length  # (s x columns)
        U = np.where(inside, powers[np.maximum(length - 1 - j, 0)], 0).astype(self.dtype)
        V = np.zeros_like(U)
        V[inverse[g].T[inside], np.nonzero(inside)[1]] = U[inside]
        bounds = np.searchsorted(level, np.arange(s + 1)).tolist()
        self.tests = [None] + [
            (U[:d, a:b], V[:d, a:b]) if b > a else None for d, a, b in zip(range(1, s + 1), bounds, bounds[1:])
        ]

    def keep(self, X, d: int) -> np.ndarray:
        """Mask of the rows of ``X``, ``d`` sites set, that no element
        makes smaller on the positions it determines."""
        test = self.tests[d]
        if test is None:
            return np.ones(len(X), dtype=bool)
        U, V = test
        P = X[:, :d].astype(self.dtype)
        return ~((P @ V) < (P @ U)).any(axis=1)


def range_of(f: Sequence[Scalar], domain: Domain) -> RangeSet:
    """Sorted distinct values of ``sum_i f_i n_i`` over admissible configurations.

    Values closer than ``EQUALITY_TOL`` are merged (first representative kept),
    guarding against spurious near-duplicates from float coefficients.  Row
    sums, unlike ``X @ f``, match ``(f * row).sum()``.
    """
    X = enumerate_configurations(domain)
    fv = _as_vector(f, "f")
    if fv.shape[0] != X.shape[1]:
        raise DimensionError("observable length does not match domain")
    if not _all_finite(fv):
        raise ValidationError("observable entries must be finite")
    if not len(X):
        raise ValidationError("domain admits no configurations; range is empty")
    values = np.unique((X * fv).sum(axis=1)).tolist()
    merged = [values[0]]
    for v in values[1:]:
        if v - merged[-1] > EQUALITY_TOL:
            merged.append(v)
    return RangeSet(tuple(merged))


def max_occupancy(domain: Domain, window: Sequence[int]) -> int:
    """Largest particle count inside a site subset over all admissible configurations."""
    sites = sorted({_integer(i, "site index") for i in window})
    if any(i < 0 or i >= domain.site_count for i in sites):
        raise DimensionError("window contains a site index outside the domain")
    return int(enumerate_configurations(domain)[:, sites].sum(axis=1).max(initial=0))
