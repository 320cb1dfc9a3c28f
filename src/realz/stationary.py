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
)
# enumerate_configurations is called through the enumeration module, but
# stays in this namespace, where perfbench's tracer and its tests look it up.
from .enumeration import DEFAULT_LIMIT, enumerate_configurations  # noqa: F401
from .errors import DimensionError, ValidationError
from .solver import SolverOptions, _group_average, _moment_lp

#: Invariance comparisons use this absolute tolerance.
STATIONARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of site permutations.

    Each element maps site ``i`` to ``element[i]``.  The element set must be
    closed under composition, which for a finite set of permutations makes
    it a group: the identity and the inverses are powers of each element.
    """

    elements: tuple

    def __post_init__(self):
        elements = tuple(tuple(int(v) for v in perm) for perm in self.elements)
        if not elements:
            raise ValidationError("group needs at least the identity")
        size = len(elements[0])
        for perm in elements:
            if len(perm) != size or sorted(perm) != list(range(size)):
                raise ValidationError(f"not a permutation of {size} sites: {perm}")
        index = set(elements)
        if len(index) != len(elements):
            raise ValidationError("duplicate group elements")
        object.__setattr__(self, "elements", elements)
        perms = self._array()
        for a in perms:
            # a[perms] holds a composed with every element, one row each.
            if not index.issuperset(map(tuple, a[perms].tolist())):
                raise ValidationError("group is not closed under composition")

    def _array(self) -> np.ndarray:
        """The elements as one ``(|G| x sites)`` index array."""
        return np.array(self.elements, dtype=np.intp).reshape(len(self), self.degree)

    @property
    def degree(self) -> int:
        return len(self.elements[0])

    def __len__(self) -> int:
        return len(self.elements)

    def apply_to_config(self, perm, config) -> tuple:
        out = [0] * len(config)
        for i, n in enumerate(config):
            out[perm[i]] = n
        return tuple(out)

    def site_orbits(self) -> list:
        seen = set()
        orbits = []
        for i in range(self.degree):
            if i in seen:
                continue
            orbit = sorted({perm[i] for perm in self.elements})
            seen.update(orbit)
            orbits.append(tuple(orbit))
        return orbits

    def pair_orbits(self) -> list:
        """Orbits of unordered site pairs (diagonal pairs included)."""
        seen = set()
        orbits = []
        for i in range(self.degree):
            for j in range(i, self.degree):
                if (i, j) in seen:
                    continue
                orbit = sorted(
                    {
                        (min(perm[i], perm[j]), max(perm[i], perm[j]))
                        for perm in self.elements
                    }
                )
                seen.update(orbit)
                orbits.append(tuple(orbit))
        return orbits

    def validate_action(self, domain: Domain) -> None:
        if self.degree != domain.site_count:
            raise DimensionError("group degree does not match the domain")
        perms = self._array()
        caps = np.array(domain.occupancy_cap)
        if (caps[perms] != caps).any():
            raise ValidationError("group does not preserve occupancy caps")
        dist = domain.distance
        for p in perms:
            if (np.abs(dist[np.ix_(p, p)] - dist) > STATIONARY_TOL).any():
                raise ValidationError("group does not preserve distances")


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
    grid = np.arange(math.prod(dims)).reshape(dims)
    axes = tuple(range(len(dims)))
    # Rolling the grid back by t puts the site of x + t at x.
    return FiniteGroup(
        elements=tuple(
            tuple(np.roll(grid, -shift, axes).ravel().tolist()) for shift in _torus_coordinates(dims)
        )
    )


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
    # Object tables of Fractions compare exactly, entry by entry.
    perms = group._array()
    if (np.abs(corr.rho1[perms] - corr.rho1) > STATIONARY_TOL).any():
        return False
    return not any((np.abs(corr.rho2[np.ix_(p, p)] - corr.rho2) > STATIONARY_TOL).any() for p in perms)


def symmetrize(dist: Distribution, group: FiniteGroup) -> Distribution:
    """Uniform group average of a distribution.

    The result is invariant, idempotent under repetition, and leaves the
    correlation tables unchanged whenever they were already stationary.
    """
    group.validate_action(dist.domain)
    exact = dist.is_exact
    X = np.array([config for config, _ in dist.atoms], dtype=np.int64).reshape(len(dist.atoms), group.degree)
    weights = [Fraction(w) if exact else w for _, w in dist.atoms]
    return Distribution(dist.domain, _group_average(X, weights, group))


def check_realizability_stationary(
    domain: Domain,
    corr: CorrelationPair,
    group: FiniteGroup,
    opts: SolverOptions | None = None,
    limit: int = DEFAULT_LIMIT,
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
    return _moment_lp(domain, corr, opts, limit, group=group)[0]


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
    exact = isinstance(rho, (int, Fraction)) and all(
        isinstance(v, (int, Fraction)) for v in reduced.g2.values()
    )
    dtype = object if exact else float
    rho_sq = rho * rho
    # Site b lies at displacement coords[b] - coords[a] from site a, and
    # the row-major strides give the site at that displacement.
    strides = np.array([math.prod(dims[k + 1 :]) for k in range(len(dims))], dtype=np.intp)
    site_of = ((coords[None, :] - coords[:, None]) % np.array(dims, dtype=np.intp)) @ strides
    by_site = np.array([rho_sq * reduced.g2[disp] for disp in displacements], dtype=dtype)
    return CorrelationPair(rho1=np.full(size, rho, dtype=dtype), rho2=by_site[site_of])
