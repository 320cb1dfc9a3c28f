"""Symmetry handling on finite domains: group actions, averaging, orbit LPs.

A finite permutation group acting on sites extends to configurations,
distributions and correlation tables.  Uniform averaging over the group is
the exact finite analogue of invariant-measure averaging, so stationary
correlations are realizable exactly when they are realizable by an
invariant distribution.  :func:`check_realizability_stationary` exploits
that equivalence by handing the group to the moment LP of
:mod:`realz.solver`, which then works on orbits.  A :func:`torus_domain`
records its translations, so the unreduced checks take the same route for
its stationary tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EQUALITY_TOL,
    CorrelationPair,
    Distribution,
    Domain,
    RealizationResult,
    Scalar,
    _all_finite,
    _blocks,
    _integer,
    _is_exact_array,
    _is_exact_value,
    _pyscalar,
)
# enumerate_configurations is called through the enumeration module, but
# stays in this namespace, where perfbench's tracer and its tests look it up.
from .enumeration import enumerate_configurations  # noqa: F401
from .errors import DimensionError, ValidationError
from .solver import SolverOptions, _fixed, _group_average, _moment_lp, _orbits


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
    A site index that is a bool, a string or not integral is refused,
    never truncated or parsed.
    """

    elements: tuple

    def __post_init__(self):
        elements = self.elements
        try:
            if not (isinstance(elements, np.ndarray) and elements.dtype.kind in "iu"):
                elements = [[_integer(i, "site index") for i in element] for element in elements]
            perms = np.array(elements, dtype=np.intp)
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

    @classmethod
    def _of(cls, perms: np.ndarray) -> "FiniteGroup":
        """The group of the rows of ``perms``, a ``(|G| x sites)`` intp
        array of distinct permutations closed under composition that the
        package built, unchecked; the group keeps it, read-only, so the
        caller gives it up."""
        group = object.__new__(cls)
        perms.flags.writeable = False
        object.__setattr__(group, "elements", tuple(map(tuple, perms.tolist())))
        object.__setattr__(group, "_perms", perms)
        return group

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

    def _orbit_labels(self) -> tuple:
        """Per site, and per pair ``i <= j`` in lexicographic order, the key
        of its orbit's least member, as :func:`realz.solver._orbits` reads
        them: site ``a`` has the key ``a`` (the least site of site ``i``'s
        orbit is column ``i``'s minimum of the element array), and pair
        ``(a, b)``, ``a <= b``, the key ``a * s + b``."""
        s, perms = self.degree, self._perms
        low = perms.min(axis=0)
        # The least image of pair (i, j) starts with the least site of the
        # orbits of i and j, so an element that reaches it maps i or j to the
        # least site of its orbit: only those elements, |G| / |orbit| per
        # site, are tried.  Element `element[k]` maps `site[k]` to the least
        # site of its orbit, sites in ascending order.
        site, element = np.nonzero(perms.T == low[:, None])
        # least[i, j]: the least key of pair (i, j) over the elements tried for i
        least = np.full((s, s), s * s, dtype=np.intp)
        for block in _blocks(len(site), s):
            images, sites = perms[element[block]], site[block]
            a = low[sites][:, None]
            keys = np.minimum(a, images) * s + np.maximum(a, images)
            starts = np.concatenate(([0], np.flatnonzero(sites[1:] != sites[:-1]) + 1))
            rows = sites[starts]
            least[rows] = np.minimum(least[rows], np.minimum.reduceat(keys, starts, axis=0))
        i, j = np.nonzero(np.arange(s)[:, None] <= np.arange(s))
        return low, np.minimum(least, least.T)[i, j]

    @functools.cached_property
    def _orbit_description(self) -> tuple:
        """The orbit description that :func:`realz.solver._orbits` makes of
        :meth:`_orbit_labels`, built on first use and kept, read-only: every
        orbit LP on the group and both orbit listings read it."""
        return _orbits(self.degree, self._orbit_labels())

    def site_orbits(self) -> list:
        """Orbits of sites, each sorted, in the order of their least sites."""
        sites, _, _, starts, _ = self._orbit_description
        # Cut before every orbit, so the first piece is empty, also on no sites.
        return [tuple(orbit.tolist()) for orbit in np.split(sites, starts)[1:]]

    def pair_orbits(self) -> list:
        """Orbits of unordered site pairs (diagonal pairs included), each
        sorted, in the lexicographic order of their least pairs."""
        _, i, j, _, starts = self._orbit_description
        return [tuple(map(tuple, orbit.tolist())) for orbit in np.split(np.column_stack((i, j)), starts)[1:]]

    def validate_action(self, domain: Domain) -> None:
        """Refuse a group of another degree, or one that moves a cap or,
        past ``EQUALITY_TOL``, a distance: :meth:`fixes`' test."""
        if self.degree != domain.site_count:
            raise DimensionError("group degree does not match the domain")
        caps, orbits = np.array(domain.occupancy_cap), self._orbit_description
        if not _fixed(orbits, caps, domain.distance, EQUALITY_TOL):
            # Only a failure pays for a second pass, which names it.
            moved = "distances" if _fixed(orbits, caps, np.zeros_like(domain.distance), 0) else "occupancy caps"
            raise ValidationError(f"group does not preserve {moved}")

    def fixes(self, vector, table, tol: float = EQUALITY_TOL) -> bool:
        """True when each entry of ``[1, *vector, *table.flat]`` is within
        ``tol`` of its orbit representative's, exactly at 0
        (:func:`realz.solver._fixed`): for a symmetric ``table``, as every
        distance matrix, table and ``f2`` is, invariance under every
        element.  Object arrays of Fractions compare exactly."""
        return _fixed(self._orbit_description, vector, table, tol)


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
    Translations by distinct ``t`` are distinct permutations, closed under
    composition, so the group is built unchecked.
    One group is kept per shape, for the 16 used last: a group and its
    orbit description are read-only, so every caller shares them.
    """
    dims = _torus_dims(torus_dims)
    if not dims:
        raise ValidationError("a torus needs at least one dimension")
    return _translation_group(dims)


@functools.lru_cache(maxsize=16)
def _translation_group(dims: tuple) -> FiniteGroup:
    """:func:`translation_group` of validated ``dims``, built once and kept."""
    coords = _torus_coordinates(dims)
    return FiniteGroup._of(_site_index(coords[:, None] + coords[None, :], dims))


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
    """Discrete torus with cyclic graph (L1) distances.

    With one cap for every site and one dimension at least, the domain
    records the translations it was built with (private, no dataclass
    field): :func:`translation_group` of ``torus_dims``, built on first
    use, one group per shape.  :func:`realz.check_realizability` and
    :func:`realz.minimal_third_moment` take that group first, before they
    enumerate, for tables it fixes (exactly in rational mode, within
    ``EQUALITY_TOL`` in float mode, each entry against its orbit
    representative's), and solve the moment LP over configuration orbits,
    as :func:`check_realizability_stationary` does.
    """
    dims = _torus_dims(torus_dims)
    coords = _torus_coordinates(dims)
    delta = np.abs(coords[:, None] - coords[None, :])
    domain = Domain(
        distance=np.minimum(delta, dims - delta).sum(axis=2).astype(float),
        occupancy_cap=occupancy_cap,
        site_labels=tuple(",".join(map(str, c)) for c in coords.tolist()),
        exclusion_diameter=exclusion_diameter,
        total_cap=total_cap,
        total_exact=total_exact,
    )
    # Translations preserve the distances, the exclusion and the totals;
    # only unequal caps keep them from acting on the domain.
    if dims and len(set(domain.occupancy_cap)) == 1:
        object.__setattr__(domain, "_translations", functools.partial(translation_group, dims))
    return domain


def is_stationary(corr: CorrelationPair, group: FiniteGroup) -> bool:
    """True when both correlation tables are invariant under the group,
    within ``EQUALITY_TOL``: each entry against its orbit representative's
    (:meth:`FiniteGroup.fixes`)."""
    return _stationary(corr, group, EQUALITY_TOL)


def _stationary(corr: CorrelationPair, group: FiniteGroup, tol: float) -> bool:
    """:func:`is_stationary` within ``tol``, exactly at 0."""
    if group.degree != corr.site_count:
        raise DimensionError("group degree does not match correlations")
    return group.fixes(corr.rho1, corr.rho2, tol)


def symmetrize(dist: Distribution, group: FiniteGroup) -> Distribution:
    """Uniform group average of a distribution.

    The result is invariant, idempotent under repetition, and leaves the
    correlation tables unchanged whenever they were already stationary.
    """
    group.validate_action(dist.domain)
    weights = [w for _, w in dist.atoms]
    if not dist.is_exact:
        return Distribution._of(dist.domain, *_group_average(dist.occupancy, weights, group))
    members, totals, integers = _group_average(dist.occupancy, weights, group, dist._integers)
    return Distribution._of(dist.domain, members, totals, integers=integers)


def check_realizability_stationary(
    domain: Domain,
    corr: CorrelationPair,
    group: FiniteGroup,
    opts: SolverOptions | None = None,
) -> RealizationResult:
    """Realizability via the moment LP over configuration orbits.

    Requires stationary correlations: within ``EQUALITY_TOL`` in float
    mode, and exactly in rational mode, where the LP reads each orbit's
    representative entry exactly and a table stationary only within the
    tolerance would be answered for another.  The verdict always agrees
    with the unreduced check; a feasible outcome carries a group-invariant
    witness, and an infeasible one carries a certificate with
    orbit-constant coefficients, valid on the full configuration space.
    :func:`realz.check_realizability` takes the same route on a
    :func:`torus_domain` whose translations fix the tables, with no group
    handed.
    """
    group.validate_action(domain)
    exact = bool(opts and opts.rational and corr.is_exact)
    # One pass at the mode's tolerance; only a failure pays for a second,
    # which tells the two messages apart.
    if not _stationary(corr, group, 0 if exact else EQUALITY_TOL):
        if exact and is_stationary(corr, group):
            raise ValidationError("correlations are not exactly stationary under the group (rational mode)")
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
    rho, row = corr.rho1[0], corr.rho2[0]
    if rho == 0:
        raise ValidationError("density is zero: reduced pair correlation undefined")
    if _is_exact_value(rho) and _is_exact_array(row):  # Python ints and Fractions, which never wrap
        rho, row = _pyscalar(rho), row.astype(object)
    else:
        rho, row = np.float64(rho), row.astype(float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below, not warned about
        rho_sq = rho * rho
        g2 = row / rho_sq
    if not (rho_sq < math.inf and _all_finite(g2)):
        raise ValidationError("reduced pair correlation must lie within the float range")
    displacements = map(tuple, _torus_coordinates(dims).tolist())
    return ReducedPairCorrelation(rho=rho, g2=dict(zip(displacements, g2)))


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
