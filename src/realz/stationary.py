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

import itertools
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
from .solver import SolverOptions, _moment_lp

#: Invariance comparisons use this absolute tolerance.
STATIONARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Finite group of site permutations.

    Each element maps site ``i`` to ``element[i]``.  The element set must
    contain the identity and be closed under composition and inverses.
    """

    elements: tuple
    identity_index: int = 0

    def __post_init__(self):
        elements = tuple(tuple(int(v) for v in perm) for perm in self.elements)
        if not elements:
            raise ValidationError("group needs at least the identity")
        size = len(elements[0])
        ident = tuple(range(size))
        for perm in elements:
            if len(perm) != size or sorted(perm) != list(range(size)):
                raise ValidationError(f"not a permutation of {size} sites: {perm}")
        index = {perm: k for k, perm in enumerate(elements)}
        if len(index) != len(elements):
            raise ValidationError("duplicate group elements")
        if elements[self.identity_index] != ident:
            raise ValidationError("identity_index does not point at the identity")
        for a in elements:
            inverse = tuple(sorted(range(size), key=lambda i: a[i]))
            if inverse not in index:
                raise ValidationError("group is not closed under inverses")
            for bidx in range(len(elements)):
                b = elements[bidx]
                composed = tuple(a[b[i]] for i in range(size))
                if composed not in index:
                    raise ValidationError("group is not closed under composition")
        object.__setattr__(self, "elements", elements)

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
        caps = np.array(domain.occupancy_cap)
        dist = domain.distance
        for perm in self.elements:
            p = list(perm)
            if (caps[p] != caps).any():
                raise ValidationError("group does not preserve occupancy caps")
            if (np.abs(dist[np.ix_(p, p)] - dist) > STATIONARY_TOL).any():
                raise ValidationError("group does not preserve distances")


def site_coordinates(index: int, dims: Sequence[int]) -> tuple:
    coords = []
    for d in reversed(dims):
        coords.append(index % d)
        index //= d
    return tuple(reversed(coords))


def coordinate_site(coords: Sequence[int], dims: Sequence[int]) -> int:
    index = 0
    for c, d in zip(coords, dims):
        index = index * d + (c % d)
    return index


def translation_group(torus_dims: Sequence[int]) -> FiniteGroup:
    """All translations of a discrete torus, as site permutations.

    Sites are indexed row-major over the torus coordinates; the identity
    (zero shift) comes first.
    """
    dims = tuple(int(d) for d in torus_dims)
    if not dims or any(d < 1 for d in dims):
        raise ValidationError("torus dimensions must be positive integers")
    size = 1
    for d in dims:
        size *= d
    elements = []
    for shift in itertools.product(*(range(d) for d in dims)):
        perm = [0] * size
        for idx in range(size):
            coords = site_coordinates(idx, dims)
            moved = tuple((c + t) % d for c, t, d in zip(coords, shift, dims))
            perm[idx] = coordinate_site(moved, dims)
        elements.append(tuple(perm))
    return FiniteGroup(elements=tuple(elements), identity_index=0)


def torus_domain(
    torus_dims: Sequence[int],
    occupancy_cap=1,
    exclusion_diameter: float | None = None,
    total_cap: int | None = None,
    total_exact: int | None = None,
) -> Domain:
    """Discrete torus with cyclic graph (L1) distances."""
    dims = tuple(int(d) for d in torus_dims)
    size = 1
    for d in dims:
        size *= d
    dist = np.zeros((size, size))
    for a in range(size):
        ca = site_coordinates(a, dims)
        for b in range(size):
            cb = site_coordinates(b, dims)
            dist[a, b] = sum(
                min((x - y) % d, (y - x) % d) for x, y, d in zip(ca, cb, dims)
            )
    labels = tuple(
        ",".join(str(c) for c in site_coordinates(i, dims)) for i in range(size)
    )
    return Domain(
        distance=dist,
        occupancy_cap=occupancy_cap,
        site_labels=labels,
        exclusion_diameter=exclusion_diameter,
        total_cap=total_cap,
        total_exact=total_exact,
    )


def is_stationary(
    corr: CorrelationPair, group: FiniteGroup, tol: float = STATIONARY_TOL
) -> bool:
    """True when both correlation tables are invariant under the group."""
    if group.degree != corr.site_count:
        raise DimensionError("group degree does not match correlations")
    # Object tables of Fractions compare exactly, entry by entry.
    for perm in group.elements:
        p = list(perm)
        if (np.abs(corr.rho1[p] - corr.rho1) > tol).any():
            return False
        if (np.abs(corr.rho2[np.ix_(p, p)] - corr.rho2) > tol).any():
            return False
    return True


def symmetrize(dist: Distribution, group: FiniteGroup) -> Distribution:
    """Uniform group average of a distribution.

    The result is invariant, idempotent under repetition, and leaves the
    correlation tables unchanged whenever they were already stationary.
    """
    group.validate_action(dist.domain)
    exact = dist.is_exact
    share = Fraction(1, len(group)) if exact else 1.0 / len(group)
    weights: dict = {}
    for config, w in dist.atoms:
        part = w * share
        for perm in group.elements:
            moved = group.apply_to_config(perm, config)
            weights[moved] = weights.get(moved, 0) + part
    atoms = tuple(sorted(weights.items()))
    return Distribution(dist.domain, atoms)


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

    @property
    def displacements(self) -> list:
        return sorted(self.g2)


def reduce_pair_correlation(
    corr: CorrelationPair, torus_dims: Sequence[int]
) -> ReducedPairCorrelation:
    """Collapse stationary pair data to one value per displacement class.

    ``g2(s) = rho2[0][site at displacement s] / rho^2`` with displacements
    taken componentwise modulo the torus dimensions.  Requires a strictly
    positive density.
    """
    dims = tuple(int(d) for d in torus_dims)
    group = translation_group(dims)
    if group.degree != corr.site_count:
        raise DimensionError("torus dimensions do not match correlations")
    if not is_stationary(corr, group):
        raise ValidationError("correlations are not stationary on this torus")
    rho = corr.rho1[0]
    if rho == 0:
        raise ValidationError("density is zero: reduced pair correlation undefined")
    rho_sq = rho * rho
    g2 = {}
    for j in range(corr.site_count):
        disp = site_coordinates(j, dims)
        g2[disp] = corr.rho2[0, j] / rho_sq
    return ReducedPairCorrelation(rho=rho, g2=g2)


def expand_pair_correlation(
    reduced: ReducedPairCorrelation, torus_dims: Sequence[int]
) -> CorrelationPair:
    """Rebuild full correlation tables from displacement-class data."""
    dims = tuple(int(d) for d in torus_dims)
    size = 1
    for d in dims:
        size *= d
    if len(reduced.g2) != size:
        raise DimensionError("displacement table does not match the torus size")
    rho = reduced.rho
    exact = isinstance(rho, (int, Fraction)) and all(
        isinstance(v, (int, Fraction)) for v in reduced.g2.values()
    )
    dtype = object if exact else float
    rho1 = np.full(size, rho, dtype=dtype)
    rho2 = np.zeros((size, size), dtype=dtype)
    rho_sq = rho * rho
    for a in range(size):
        ca = site_coordinates(a, dims)
        for b in range(size):
            cb = site_coordinates(b, dims)
            disp = tuple((y - x) % d for x, y, d in zip(ca, cb, dims))
            rho2[a, b] = rho_sq * reduced.g2[disp]
    return CorrelationPair(rho1=rho1, rho2=rho2)
