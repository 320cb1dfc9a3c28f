"""Domain and configuration algebra for finite point processes.

Sites are indexed ``0 .. S-1``.  A configuration is a plain tuple of
nonnegative per-site particle counts.  All second-order data uses the
factorial convention: the diagonal of a pair table stores ``E[n(n-1)]``,
never the raw second moment, so a lattice gas (at most one particle per
site) always has a vanishing diagonal.

Values may be floats or exact ``fractions.Fraction`` objects; every
operation here is pure and preserves exactness when given exact inputs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DimensionError, UnboundedSiteError, ValidationError

#: Occupancy vector: one count per site.
Configuration = tuple

Scalar = float | int | Fraction

#: Absolute tolerance for probability weights summing to one.
WEIGHT_TOL = 1e-9

#: Absolute tolerance for float symmetry checks on stored matrices.
SYMMETRY_TOL = 1e-12


def _pyscalar(value):
    """Strip numpy scalar wrappers so exact values stay exact."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_square(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


def _is_symmetric(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return bool((arr == arr.T).all())
    return bool(np.allclose(arr, arr.T, rtol=0.0, atol=SYMMETRY_TOL))


def _all_finite(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return all(math.isfinite(float(v)) for v in arr.flat)
    return bool(np.isfinite(arr).all())


def _is_exact_value(value) -> bool:
    return isinstance(value, (int, np.integer, Fraction)) and not isinstance(value, bool)


def _is_exact_array(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return all(_is_exact_value(v) for v in arr.flat)
    return bool(np.issubdtype(arr.dtype, np.integer))


@dataclass(frozen=True, eq=False)
class Domain:
    """Finite site set with pairwise distances and occupancy limits.

    ``distance`` must be symmetric with a zero diagonal; no triangle
    inequality is assumed (only comparisons against the exclusion diameter
    matter).  ``occupancy_cap`` gives the per-site particle limit, or one
    limit for every site; caps must be finite so the configuration space
    can be enumerated.  An exclusion diameter ``D > 0`` forbids
    simultaneous occupation of any two sites strictly closer than ``D``
    and, because each site is at distance zero from itself, limits every
    site to at most one particle.  ``total_cap`` bounds the particle
    number; ``total_exact`` fixes it; at most one of the two may be set and
    all constraints apply conjunctively.
    """

    distance: np.ndarray
    occupancy_cap: tuple
    site_labels: tuple = ()
    exclusion_diameter: float | None = None
    total_cap: int | None = None
    total_exact: int | None = None

    def __post_init__(self):
        dist = _as_square(self.distance, "distance").astype(float)
        if not _is_symmetric(dist):
            raise ValidationError("distance matrix must be symmetric")
        if not np.allclose(np.diag(dist), 0.0, rtol=0.0, atol=SYMMETRY_TOL):
            raise ValidationError("distance matrix must have a zero diagonal")
        if not np.isfinite(dist).all() or (dist < 0).any():
            raise ValidationError("distances must be finite and nonnegative")
        s = dist.shape[0]

        caps = self.occupancy_cap
        if not isinstance(caps, Iterable):
            caps = (caps,) * s  # one cap for every site
        caps = tuple(self._check_cap(c, i) for i, c in enumerate(caps))
        if len(caps) != s:
            raise DimensionError(
                f"occupancy_cap has {len(caps)} entries for {s} sites"
            )

        labels = self.site_labels or tuple(f"s{i}" for i in range(s))
        if not isinstance(labels, Sequence):
            raise ValidationError(f"site_labels must be a sequence, got {labels!r}")
        labels = tuple(labels)
        if len(labels) != s:
            raise DimensionError(f"site_labels has {len(labels)} entries for {s} sites")

        if self.total_cap is not None and self.total_exact is not None:
            raise ValidationError("at most one of total_cap / total_exact may be set")
        for name in ("total_cap", "total_exact"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, (int, np.integer)) or value < 0):
                raise ValidationError(f"{name} must be a nonnegative integer")

        d = self.exclusion_diameter
        if d is not None:
            try:
                d = float(d)
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"exclusion_diameter must be a number, got {d!r}") from exc
            if not math.isfinite(d) or d < 0:
                raise ValidationError("exclusion_diameter must be finite and nonnegative")

        dist.setflags(write=False)
        object.__setattr__(self, "distance", dist)
        object.__setattr__(self, "occupancy_cap", caps)
        object.__setattr__(self, "site_labels", labels)
        object.__setattr__(self, "exclusion_diameter", d)

    @staticmethod
    def _check_cap(cap, site: int) -> int:
        if isinstance(cap, bool):
            raise ValidationError(f"occupancy cap for site {site} must be an integer, got {cap!r}")
        if cap is None or (isinstance(cap, float) and math.isinf(cap)):
            raise UnboundedSiteError(f"site {site} has no finite occupancy cap")
        if isinstance(cap, float) and not cap.is_integer():
            raise ValidationError(f"occupancy cap for site {site} must be an integer")
        try:
            cap = int(cap)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"occupancy cap for site {site} must be an integer") from exc
        if cap < 0:
            raise ValidationError(f"occupancy cap for site {site} must be nonnegative")
        return cap

    @property
    def site_count(self) -> int:
        return len(self.occupancy_cap)

    @property
    def is_lattice_gas(self) -> bool:
        """True when every site holds at most one particle."""
        if all(c <= 1 for c in self.occupancy_cap):
            return True
        d = self.exclusion_diameter
        return d is not None and d > 0


def is_admissible(domain: Domain, config: Sequence[int]) -> bool:
    """True when the occupancy vector satisfies every domain constraint."""
    s = domain.site_count
    if len(config) != s:
        raise DimensionError(f"configuration has {len(config)} entries for {s} sites")
    total = 0
    for i, n in enumerate(config):
        if n < 0 or n > domain.occupancy_cap[i]:
            return False
        total += n
    if domain.total_cap is not None and total > domain.total_cap:
        return False
    if domain.total_exact is not None and total != domain.total_exact:
        return False
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        occupied = [i for i, n in enumerate(config) if n > 0]
        if any(config[i] >= 2 for i in occupied):
            return False
        dist = domain.distance
        for a in range(len(occupied)):
            for b in range(a + 1, len(occupied)):
                if dist[occupied[a], occupied[b]] < d:
                    return False
    return True


def factorial_power2(config: Sequence[int]) -> np.ndarray:
    """Second factorial power of an occupancy vector.

    Entry ``(i, j)`` counts ordered pairs of distinct particles located at
    sites ``i`` and ``j``: ``n_i * n_j`` off the diagonal and
    ``n_i * (n_i - 1)`` on it.
    """
    n = np.asarray(config, dtype=np.int64)
    out = np.outer(n, n)
    np.fill_diagonal(out, n * (n - 1))
    return out


@dataclass(frozen=True, eq=False)
class QuadraticPolynomial:
    """Quadratic observable ``f0 + <f1, n> + <f2, second factorial power>``.

    ``f2`` is required symmetric and its full double sum is used, so an
    off-diagonal interaction between sites ``i`` and ``j`` is counted twice
    (once per order).  Doubles as a non-realizability certificate: one that
    is nonnegative on every admissible configuration but pairs negatively
    with a prescribed correlation pair refutes realizability.
    """

    f0: Scalar
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        f1 = _as_vector(self.f1, "f1")
        f2 = _as_square(self.f2, "f2")
        if f2.shape[0] != f1.shape[0]:
            raise DimensionError("f1 and f2 disagree on the number of sites")
        if not _is_symmetric(f2):
            raise ValidationError("f2 must be symmetric")
        object.__setattr__(self, "f0", _pyscalar(self.f0))
        object.__setattr__(self, "f1", f1)
        object.__setattr__(self, "f2", f2)

    @property
    def site_count(self) -> int:
        return self.f1.shape[0]

    def coefficients(self) -> list:
        """All scalar coefficients, constant term first."""
        return [self.f0, *self.f1.tolist(), *self.f2.flatten().tolist()]


def eval_quadratic(poly: QuadraticPolynomial, config: Sequence[int]) -> Scalar:
    """Value of the quadratic observable on one configuration."""
    if len(config) != poly.site_count:
        raise DimensionError("configuration length does not match polynomial")
    n = np.asarray(config, dtype=np.int64)
    value = poly.f0 + (poly.f1 * n).sum() + (poly.f2 * factorial_power2(config)).sum()
    return _pyscalar(value)


def h_moment(config: Sequence[int], chi: Sequence[Scalar], order: int) -> Scalar:
    """Sum of chi-weight products over ordered tuples of distinct particles.

    For constant weight one this reduces to the falling factorial
    ``N (N-1) ... (N-order+1)`` of the total particle number.  Orders one
    through three are supported; the closed forms use the power sums
    ``s_m = sum_i n_i chi_i^m``.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 1, 2 or 3, got {order}")
    chi = _as_vector(chi, "chi")
    if len(config) != chi.shape[0]:
        raise DimensionError("configuration length does not match chi")
    if any(float(c) <= 0 for c in chi.flat):
        raise ValidationError("chi must be strictly positive")
    n = np.asarray(config, dtype=np.int64)
    s1 = _pyscalar((n * chi).sum())
    if order == 1:
        return s1
    s2 = _pyscalar((n * chi * chi).sum())
    if order == 2:
        return s1 * s1 - s2
    s3 = _pyscalar((n * chi * chi * chi).sum())
    return s1 * s1 * s1 - 3 * s1 * s2 + 2 * s3


@dataclass(frozen=True, eq=False)
class CorrelationPair:
    """Prescribed first- and second-order correlation data.

    ``rho2[i][j]`` is ``E[n_i n_j]`` for distinct sites and the factorial
    diagonal ``E[n_i (n_i - 1)]`` for ``i == j``.  The constructor checks
    shape and symmetry only; value-level invariants (finiteness,
    nonnegativity) are checked by :meth:`validate` so that deliberately
    invalid tables can still be constructed for certificate replay.
    """

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self):
        rho1 = _as_vector(self.rho1, "rho1")
        rho2 = _as_square(self.rho2, "rho2")
        if rho2.shape[0] != rho1.shape[0]:
            raise DimensionError("rho1 and rho2 disagree on the number of sites")
        if not _is_symmetric(rho2):
            raise ValidationError("rho2 must be symmetric")
        object.__setattr__(self, "rho1", rho1)
        object.__setattr__(self, "rho2", rho2)

    @property
    def site_count(self) -> int:
        return self.rho1.shape[0]

    @property
    def is_exact(self) -> bool:
        return _is_exact_array(self.rho1) and _is_exact_array(self.rho2)

    def validate(self, require_nonnegative: bool = True) -> None:
        if not _all_finite(self.rho1) or not _all_finite(self.rho2):
            raise ValidationError("correlation entries must be finite")
        if require_nonnegative:
            if any(v < 0 for v in self.rho1.flat) or any(v < 0 for v in self.rho2.flat):
                raise ValidationError("correlation entries must be nonnegative")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Finitely supported probability distribution on admissible configurations.

    Atoms are ``(configuration, weight)`` pairs with nonnegative weights
    summing to one within ``WEIGHT_TOL``.  Renormalization is never applied
    implicitly; use :meth:`renormalized`.  ``meta`` carries generator
    metadata (for example a partition function) and does not affect any
    computation.
    """

    domain: Domain
    atoms: tuple
    meta: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        atoms = tuple(
            (tuple(int(n) for n in config), _pyscalar(weight))
            for config, weight in self.atoms
        )
        object.__setattr__(self, "atoms", atoms)
        self.validate()

    def validate(self, tol: float = WEIGHT_TOL) -> None:
        seen = set()
        total = 0
        for config, weight in self.atoms:
            if weight < 0:
                raise ValidationError(f"negative weight {weight} on {config}")
            if config in seen:
                raise ValidationError(f"duplicate configuration {config}")
            seen.add(config)
            if not is_admissible(self.domain, config):
                raise ValidationError(f"configuration {config} is not admissible")
            total += weight
        if abs(total - 1) > tol:
            raise ValidationError(f"weights sum to {total}, not 1")

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_value(w) for _, w in self.atoms)

    def weight_of(self, config: Sequence[int]) -> Scalar:
        key = tuple(int(n) for n in config)
        for c, w in self.atoms:
            if c == key:
                return w
        return 0

    def renormalized(self) -> "Distribution":
        total = sum(w for _, w in self.atoms)
        if total <= 0:
            raise ValidationError("cannot renormalize: total mass is not positive")
        if self.is_exact and not isinstance(total, Fraction):
            total = Fraction(total)
        return Distribution(
            self.domain, tuple((c, w / total) for c, w in self.atoms), dict(self.meta)
        )


def correlations_of(dist: Distribution) -> CorrelationPair:
    """First and second correlation tables of a finite distribution."""
    s = dist.domain.site_count
    exact = dist.is_exact
    dtype = object if exact else float
    rho1 = np.zeros(s, dtype=dtype)
    rho2 = np.zeros((s, s), dtype=dtype)
    for config, weight in dist.atoms:
        n = np.asarray(config, dtype=np.int64)
        rho1 = rho1 + weight * n
        rho2 = rho2 + weight * factorial_power2(config)
    return CorrelationPair(rho1=rho1, rho2=rho2)


def pairing(poly: QuadraticPolynomial, corr: CorrelationPair) -> Scalar:
    """Expected value of the observable under any realization of ``corr``.

    Equals ``f0 + sum_i f1_i rho1_i + sum_{ij} f2_ij rho2_ij`` and, for every
    distribution, coincides with the weighted average of the observable over
    its atoms.  Linear in both arguments.
    """
    if poly.site_count != corr.site_count:
        raise DimensionError("polynomial and correlations disagree on site count")
    value = poly.f0 + (poly.f1 * corr.rho1).sum() + (poly.f2 * corr.rho2).sum()
    return _pyscalar(value)


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of a realizability check.

    Either feasible with an explicit realizing distribution, or infeasible
    with a certificate: a quadratic observable nonnegative on every
    admissible configuration whose pairing with the prescribed correlations
    is negative.
    """

    feasible: bool
    distribution: Distribution | None = None
    certificate: QuadraticPolynomial | None = None

    @classmethod
    def realized(cls, distribution: Distribution) -> "RealizationResult":
        return cls(feasible=True, distribution=distribution)

    @classmethod
    def refuted(cls, certificate: QuadraticPolynomial) -> "RealizationResult":
        return cls(feasible=False, certificate=certificate)
