"""Symmetry handling on finite domains: group actions, averaging, orbit LPs.

A finite permutation group acting on sites extends to configurations,
distributions and correlation tables.  Uniform averaging over the group is
the exact finite analogue of invariant-measure averaging, so stationary
correlations are realizable exactly when they are realizable by an
invariant distribution.  :func:`check_realizability_stationary` exploits
that equivalence by handing the group to the moment LP of
:mod:`realz.solver`, which then works on orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    CorrelationPair,
    Distribution,
    Domain,
    RealizationResult,
    Scalar,
    _blocks,
    _is_exact_value,
)
# enumerate_configurations is called through the enumeration module, but
# stays in this namespace, where perfbench's tracer and its tests look it up.
from .enumeration import enumerate_configurations  # noqa: F401
from .errors import DimensionError, ValidationError
from .solver import SolverOptions, _group_average, _moment_lp

#: Invariance comparisons use this absolute tolerance.
STATIONARY_TOL = 1e-12


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of an integer array: keys are equal exactly
    when the rows are, and sort in a fixed order."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of site permutations.

    Each element maps site ``i`` to ``element[i]``.  The element set must be
    closed under composition, which for a finite set of permutations makes
    it a group: the identity and the inverses are powers of each element.
    ``elements`` may also be given as one ``(|G| x sites)`` integer array.
    """

    elements: tuple

    def __post_init__(self):
        try:
            perms = np.array(self.elements, dtype=np.intp)
        except (TypeError, ValueError, OverflowError):
            perms = np.empty(1)  # ragged or not integers
        if not len(perms):
            raise ValidationError("group needs at least the identity")
        if perms.ndim != 2:
            raise ValidationError(f"elements are not permutations of one length: {self.elements!r}")
        size = perms.shape[1]
        bad = (np.sort(perms, axis=1) != np.arange(size)).any(axis=1)
        if bad.any():
            raise ValidationError(f"not a permutation of {size} sites: {tuple(perms[bad.argmax()].tolist())}")
        perms.flags.writeable = False
        object.__setattr__(self, "elements", tuple(map(tuple, perms.tolist())))
        object.__setattr__(self, "_perms", perms)
        if size == 0:
            if len(perms) > 1:
                raise ValidationError("duplicate group elements")
            return
        # Rows of the narrowest dtype make the shortest keys.
        narrow = perms.astype(np.min_scalar_type(size))
        keys = np.sort(_row_keys(narrow))
        if (keys[1:] == keys[:-1]).any():
            raise ValidationError("duplicate group elements")
        for block in _blocks(len(perms), len(perms) * size):
            # Row (a, g) holds a composed with g: a[g[i]] at position i.
            composed = _row_keys(narrow[block][:, perms].reshape(-1, size))
            found = keys[np.minimum(np.searchsorted(keys, composed), len(keys) - 1)]
            if (found != composed).any():
                raise ValidationError("group is not closed under composition")

    def _array(self) -> np.ndarray:
        """The elements as one read-only ``(|G| x sites)`` index array."""
        return self._perms

    @property
    def degree(self) -> int:
        return self._perms.shape[1]

    def __len__(self) -> int:
        return len(self._perms)

    def apply_to_config(self, perm, config) -> tuple:
        out = [0] * len(config)
        for i, n in enumerate(config):
            out[perm[i]] = n
        return tuple(out)

    def site_orbits(self) -> list:
        """Orbits of sites, each sorted, in the order of their least sites.

        The orbit of site ``i`` is column ``i`` of the element array, so its
        least site is that column's minimum."""
        least = self._perms.min(axis=0)
        return _split_orbits(least, np.arange(self.degree).tolist())

    def pair_orbits(self) -> list:
        """Orbits of unordered site pairs (diagonal pairs included), each
        sorted, in the lexicographic order of their least pairs."""
        s, perms = self.degree, self._perms
        # The least image of pair (i, j) starts with the least site of the
        # orbits of i and j, so an element that reaches it maps i or j to the
        # least site of its orbit: only those elements, |G| / |orbit| per
        # site, are tried.  Element `element[k]` maps `site[k]` to the least
        # site of its orbit, sites in ascending order.
        low = perms.min(axis=0)
        site, element = np.nonzero(perms.T == low[:, None])
        # least[i, j]: the least key of pair (i, j) over the elements tried for i
        least = np.full((s, s), s * s, dtype=np.intp)
        for block in _blocks(len(site), s):
            images, sites = perms[element[block]], site[block]
            a = low[sites][:, None]
            # Pair (a, b), a <= b, has the key a * s + b, which orders pairs
            # lexicographically.
            keys = np.minimum(a, images) * s + np.maximum(a, images)
            starts = np.concatenate(([0], np.flatnonzero(sites[1:] != sites[:-1]) + 1))
            rows = sites[starts]
            least[rows] = np.minimum(least[rows], np.minimum.reduceat(keys, starts, axis=0))
        i, j = np.nonzero(np.arange(s)[:, None] <= np.arange(s))
        return _split_orbits(np.minimum(least, least.T)[i, j], list(zip(i.tolist(), j.tolist())))

    def validate_action(self, domain: Domain) -> None:
        if self.degree != domain.site_count:
            raise DimensionError("group degree does not match the domain")
        perms = self._perms
        caps = np.array(domain.occupancy_cap)
        if (caps[perms] != caps).any():
            raise ValidationError("group does not preserve occupancy caps")
        if not _invariant_table(domain.distance, perms, STATIONARY_TOL):
            raise ValidationError("group does not preserve distances")

    def fixes(self, vector, table, tol: float = STATIONARY_TOL) -> bool:
        """True when the site ``vector`` and the ``(S x S)`` ``table`` equal
        their images under every element within ``tol``, exactly at 0.
        Object arrays of Fractions compare exactly, entry by entry."""
        perms = self._perms
        return _close(vector[perms], vector, tol) and _invariant_table(table, perms, tol)


def _split_orbits(least: np.ndarray, items: list) -> list:
    """``items`` grouped by the key ``least`` of their orbit.  The items
    come in ascending order and ``least`` names the least member, so each
    orbit's members stay in order and the orbits come in the order of their
    least members."""
    orbits: dict = {}
    for key, item in zip(least.tolist(), items):
        orbits.setdefault(key, []).append(item)
    return list(map(tuple, orbits.values()))


def _invariant_table(table: np.ndarray, perms: np.ndarray, tol: float) -> bool:
    """True when the ``(S x S)`` table equals its image ``table[p][:, p]``
    under every row ``p`` of ``perms`` within ``tol``, compared a block of
    elements at a time."""
    size = table.shape[0]
    for block in _blocks(len(perms), size * size):
        P = perms[block]
        if not _close(table[P[:, :, None], P[:, None, :]], table, tol):
            return False
    return True


def _close(image: np.ndarray, array: np.ndarray, tol: float) -> bool:
    """True when no entry of ``image`` is more than ``tol`` from its entry
    of ``array``.  Most images match exactly, which is the cheap test."""
    return not ((image != array).any() and (np.abs(image - array) > tol).any())


def _torus_coordinates(dims: tuple) -> np.ndarray:
    """The ``(sites x d)`` coordinates of a torus, sites in row-major order."""
    return np.indices(dims).reshape(len(dims), math.prod(dims)).T


def _torus_dims(torus_dims: Sequence[int]) -> tuple:
    """Torus dimensions as ints of at least 1; a bool or a float is refused, never truncated."""
    dims = tuple(torus_dims)
    if all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) and d >= 1 for d in dims):
        return tuple(map(int, dims))
    raise ValidationError(f"torus dimensions must be positive integers, got {dims!r}")


def translation_group(torus_dims: Sequence[int]) -> FiniteGroup:
    """All translations of a discrete torus, as site permutations.

    Sites are indexed row-major over the torus coordinates; the shift by
    ``t`` is the element at the site of ``t``, so the identity comes first.
    """
    dims = _torus_dims(torus_dims)
    if not dims:
        raise ValidationError("a torus needs at least one dimension")
    coords = _torus_coordinates(dims)
    return FiniteGroup(elements=_site_index(coords[:, None] + coords[None, :], dims))


def _site_index(coords: np.ndarray, dims: tuple) -> np.ndarray:
    """The row-major site index of torus coordinates (last axis), taken
    componentwise modulo ``dims``."""
    strides = np.array([math.prod(dims[k + 1 :]) for k in range(len(dims))], dtype=np.intp)
    return (coords % np.array(dims, dtype=np.intp)) @ strides


def torus_domain(
    torus_dims: Sequence[int],
    occupancy_cap=1,
    exclusion_diameter: float | None = None,
    total_cap: int | None = None,
    total_exact: int | None = None,
) -> Domain:
    """Discrete torus with cyclic graph (L1) distances."""
    dims = _torus_dims(torus_dims)
    coords = _torus_coordinates(dims)
    delta = np.abs(coords[:, None] - coords[None, :])
    return Domain(
        distance=np.minimum(delta, dims - delta).sum(axis=2).astype(float),
        occupancy_cap=occupancy_cap,
        site_labels=tuple(",".join(map(str, c)) for c in coords.tolist()),
        exclusion_diameter=exclusion_diameter,
        total_cap=total_cap,
        total_exact=total_exact,
    )


def is_stationary(corr: CorrelationPair, group: FiniteGroup) -> bool:
    """True when both correlation tables are invariant under the group,
    within ``STATIONARY_TOL``."""
    if group.degree != corr.site_count:
        raise DimensionError("group degree does not match correlations")
    return group.fixes(corr.rho1, corr.rho2)


def symmetrize(dist: Distribution, group: FiniteGroup) -> Distribution:
    """Uniform group average of a distribution.

    The result is invariant, idempotent under repetition, and leaves the
    correlation tables unchanged whenever they were already stationary.
    """
    group.validate_action(dist.domain)
    exact = dist.is_exact
    weights = [Fraction(w) if exact else w for _, w in dist.atoms]
    return Distribution(dist.domain, _group_average(dist.occupancy, weights, group))


def check_realizability_stationary(
    domain: Domain,
    corr: CorrelationPair,
    group: FiniteGroup,
    opts: SolverOptions | None = None,
) -> RealizationResult:
    """Realizability via the moment LP over configuration orbits.

    Requires stationary correlations.  The verdict always agrees with the
    unreduced check; a feasible outcome carries a group-invariant witness,
    and an infeasible one carries a certificate with orbit-constant
    coefficients, valid on the full configuration space.
    """
    group.validate_action(domain)
    if not is_stationary(corr, group):
        raise ValidationError("correlations are not stationary under the group")
    return _moment_lp(domain, corr, opts, group=group)[0]


@dataclass(frozen=True, eq=False)
class ReducedPairCorrelation:
    """Density plus pair correlation indexed by torus displacement class."""

    rho: Scalar
    g2: dict


def reduce_pair_correlation(
    corr: CorrelationPair, torus_dims: Sequence[int]
) -> ReducedPairCorrelation:
    """Collapse stationary pair data to one value per displacement class.

    ``g2(s) = rho2[0][site at displacement s] / rho^2`` with displacements
    taken componentwise modulo the torus dimensions.  Requires a strictly
    positive density.
    """
    dims = _torus_dims(torus_dims)
    group = translation_group(dims)
    if group.degree != corr.site_count:
        raise DimensionError("torus dimensions do not match correlations")
    if not is_stationary(corr, group):
        raise ValidationError("correlations are not stationary on this torus")
    return _reduce_stationary(corr, dims)


def _reduce_stationary(corr: CorrelationPair, dims: tuple) -> ReducedPairCorrelation:
    """:func:`reduce_pair_correlation` on tables already checked to be
    stationary on the torus ``dims``."""
    rho = corr.rho1[0]
    if rho == 0:
        raise ValidationError("density is zero: reduced pair correlation undefined")
    rho_sq = rho * rho
    displacements = map(tuple, _torus_coordinates(dims).tolist())
    return ReducedPairCorrelation(
        rho=rho, g2={disp: value / rho_sq for disp, value in zip(displacements, corr.rho2[0])}
    )


def expand_pair_correlation(
    reduced: ReducedPairCorrelation, torus_dims: Sequence[int]
) -> CorrelationPair:
    """Rebuild full correlation tables from displacement-class data."""
    dims = _torus_dims(torus_dims)
    coords = _torus_coordinates(dims)
    size = len(coords)
    if len(reduced.g2) != size:
        raise DimensionError("displacement table does not match the torus size")
    displacements = list(map(tuple, coords.tolist()))
    if missing := [disp for disp in displacements if disp not in reduced.g2]:
        raise DimensionError(f"displacement table has no entry for displacement {missing[0]}")
    rho = reduced.rho
    exact = _is_exact_value(rho) and all(map(_is_exact_value, reduced.g2.values()))
    dtype = object if exact else float
    rho_sq = rho * rho
    # Site b lies at displacement coords[b] - coords[a] from site a.
    site_of = _site_index(coords[None, :] - coords[:, None], dims)
    by_site = np.array([rho_sq * reduced.g2[disp] for disp in displacements], dtype=dtype)
    return CorrelationPair(rho1=np.full(size, rho, dtype=dtype), rho2=by_site[site_of])
