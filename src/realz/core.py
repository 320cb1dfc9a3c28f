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
import numbers
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

#: Entries the largest intermediate of one block of an array pass may
#: hold: passes over the occupancy array or a group's element array go in
#: the slices of :func:`_blocks`.
_BLOCK_CELLS = 1 << 16


def _blocks(count: int, cells: int):
    """Slices of ``range(count)`` that cover ``cells`` entries per item in
    about ``_BLOCK_CELLS`` entries per slice."""
    step = max(1, _BLOCK_CELLS // max(cells, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def _pyscalar(value):
    """Strip numpy scalar wrappers so exact values stay exact."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _to_integers(values) -> tuple:
    """``(s, [s * v for v in values])`` for exact ``values``, ``s`` their
    least common denominator, so every scaled value is a Python int."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


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
    # Exact symmetry is the common case, and the cheap test.
    if (arr == arr.T).all():
        return True
    return arr.dtype != object and bool(np.allclose(arr, arr.T, rtol=0.0, atol=SYMMETRY_TOL))


def _all_finite(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        return all(math.isfinite(float(v)) for v in arr.flat)
    return bool(np.isfinite(arr).all())


def _is_exact_value(value) -> bool:
    """The one rule for an exact scalar: an int (numpy's too) or a
    ``Fraction``, never a ``bool``."""
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
        diagonal = np.diag(dist)
        if diagonal.any() and not np.allclose(diagonal, 0.0, rtol=0.0, atol=SYMMETRY_TOL):
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
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0
            ):
                raise ValidationError(f"{name} must be a nonnegative integer")

        d = self.exclusion_diameter
        if d is not None:
            if isinstance(d, bool):
                raise ValidationError(f"exclusion_diameter must be a number, got {d!r}")
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


def _integral(config) -> tuple:
    """One configuration as a tuple of Python ints.  An entry that is not
    an integral number is refused, never truncated or parsed."""
    entries = tuple(config.tolist() if isinstance(config, np.ndarray) else config)
    try:
        if all(isinstance(n, numbers.Number) and n == int(n) for n in entries):
            return tuple(map(int, entries))
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, complex numbers
        pass
    raise ValidationError(f"configuration {entries} has an entry that is not an integer")


def _occupancies(configs, s: int) -> np.ndarray:
    """Configurations as one array of rows, ``(configs x entries)`` when
    they are equally long (``s`` entries when there are none): int64, or
    Python ints when an entry does not fit.  Configurations of unequal
    lengths give one tuple per row.  An entry that is not an integral
    number is refused."""
    try:
        X = np.array(configs)
    except ValueError:  # unequal lengths
        X = None
    if X is not None and X.ndim == 2 and X.dtype.kind in "biu" and X.dtype != np.uint64:
        return X.astype(np.int64, copy=False)
    # Floats, strings, uint64, Python ints past int64, or numpy rows whose
    # dtypes promote to float: entry by entry.
    rows = [_integral(config) for config in configs]
    if not rows:
        return np.zeros((0, s), dtype=np.int64)
    try:
        return np.array(rows, dtype=np.int64)
    except (OverflowError, ValueError):  # past int64, or unequal lengths
        return np.array(rows, dtype=object)


def _admissible(domain: Domain, X: np.ndarray) -> np.ndarray:
    """Mask of the rows of the occupancy array ``X`` that satisfy every
    constraint of ``domain``: signs, caps, the particle total, exclusion.
    Caps are compared as integers, never rounded to float64."""
    if sum(domain.occupancy_cap) >= 2**63:  # a row within the caps could overflow its int64 total
        X = X.astype(object)
    caps = np.array(domain.occupancy_cap, dtype=object if X.dtype == object else np.int64)
    ok = ((X >= 0) & (X <= caps)).all(axis=1)
    if domain.total_cap is not None:
        ok &= X.sum(axis=1) <= domain.total_cap
    if domain.total_exact is not None:
        ok &= X.sum(axis=1) == domain.total_exact
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        # Each site is at distance zero from itself: one particle at most.
        i, j = np.nonzero(np.triu(domain.distance < d, 1))
        occupied = X > 0
        ok &= (X <= 1).all(axis=1) & ~(occupied[:, i] & occupied[:, j]).any(axis=1)
    return ok


def is_admissible(domain: Domain, config: Sequence[int]) -> bool:
    """True when the occupancy vector satisfies every domain constraint."""
    s = domain.site_count
    if len(config) != s:
        raise DimensionError(f"configuration has {len(config)} entries for {s} sites")
    return bool(_admissible(domain, _occupancies([config], s))[0])


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


def _integer_coefficients(coefficients: list, s: int, occupancy: int, total: int) -> tuple:
    """``(scale, f0, f1, f2, f3)`` from ``[f0, *f1, *f2.flat, f3]``.

    Exact coefficients come back times ``scale``, the lcm of their
    denominators, as integers: int64 unless the observable could overflow
    it on configurations with at most ``occupancy`` particles per site and
    ``total`` in all, and then Python ints.  Floats come back as float64.
    """
    scale, dtype = 1, float
    if all(map(_is_exact_value, coefficients)):
        scale, coefficients = _to_integers(coefficients)
        size = [abs(c) for c in coefficients]
        n, N = max(occupancy, 1), max(total, 1)  # at least 1: each coefficient must fit too
        bound = size[0] + n * sum(size[1 : 1 + s]) + (n * n + n) * sum(size[1 + s : -1]) + size[-1] * N**3
        dtype = np.int64 if bound < 2**63 else object
    f0, *rest, f3 = coefficients
    rest = np.array(rest, dtype=dtype)
    return scale, f0, rest[:s], rest[s:].reshape(s, s), f3


def _observable(X: np.ndarray, poly: QuadraticPolynomial | None, f3: Scalar = 0) -> tuple:
    """``(values, scale)``: ``scale`` times ``f0 + <f1, n> + <f2, fp2(n)> +
    f3 N(N-1)(N-2)`` on every row ``n`` of the occupancy array ``X``, with
    ``fp2`` the second factorial power and ``N`` the particle number.
    ``poly`` None is no quadratic part.  Exact coefficients are scaled to
    integers (:func:`_integer_coefficients`); floats give scale 1.
    """
    s = X.shape[1]
    quadratic = [0] * (1 + s + s * s) if poly is None else poly.coefficients()
    total = int(X.sum(axis=1).max(initial=0)) if f3 else 0
    scale, f0, f1, f2, f3 = _integer_coefficients([*quadratic, _pyscalar(f3)], s, int(X.max(initial=0)), total)
    blocks = []
    # One block at least, so that an empty X still gives an array.
    for rows in _blocks(max(len(X), 1), s):
        Y = X[rows]
        # <f2, fp2(n)> is n.f2.n - <diag f2, n>.
        value = 0 if poly is None else f0 + (Y * f1).sum(axis=1) + ((Y @ f2) * Y).sum(axis=1) - Y @ np.diagonal(f2)
        if f3:
            N = Y.sum(axis=1).astype(f1.dtype)  # float, or integers as wide as the bound needs
            value = value + f3 * (N * (N - 1) * (N - 2))
        blocks.append(value)
    return np.concatenate(blocks), scale


def _observable_at(config: Sequence[int], poly: QuadraticPolynomial, f3: Scalar = 0) -> Scalar:
    """:func:`_observable` on one configuration, unscaled."""
    if len(config) != poly.site_count:
        raise DimensionError("configuration length does not match polynomial")
    values, scale = _observable(_occupancies([config], poly.site_count), poly, f3)
    value = _pyscalar(values[0])
    return value if scale == 1 else Fraction(value, scale)


def eval_quadratic(poly: QuadraticPolynomial, config: Sequence[int]) -> Scalar:
    """Value of the quadratic observable on one configuration."""
    return _observable_at(config, poly)


@dataclass(frozen=True, eq=False)
class CorrelationPair:
    """Prescribed first- and second-order correlation data.

    ``rho2[i][j]`` is ``E[n_i n_j]`` for distinct sites and the factorial
    diagonal ``E[n_i (n_i - 1)]`` for ``i == j``.  The constructor checks
    shape and symmetry only, and :meth:`validate` finiteness, so that
    deliberately invalid tables can still be constructed for certificate
    replay.  A negative entry is no error: the moment LP refutes it with a
    certificate.
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

    def validate(self) -> None:
        """Refuse a NaN or infinite entry."""
        if not _all_finite(self.rho1) or not _all_finite(self.rho2):
            raise ValidationError("correlation entries must be finite")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Finitely supported probability distribution on admissible configurations.

    Atoms are ``(configuration, weight)`` pairs with finite nonnegative
    weights summing to one within ``WEIGHT_TOL``.  Renormalization is never
    applied implicitly; use :meth:`renormalized`.  ``meta`` carries
    generator metadata (for example a partition function) and does not
    affect any computation.  ``occupancy`` holds the atoms' configurations
    as one read-only ``(atoms x sites)`` array, in atom order: int64, or
    Python ints when an entry does not fit.
    """

    domain: Domain
    atoms: tuple
    meta: dict = field(default_factory=dict, repr=False)
    occupancy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        X = _occupancies([config for config, _ in atoms], self.domain.site_count)
        X.setflags(write=False)
        weights = [_pyscalar(weight) for _, weight in atoms]
        object.__setattr__(self, "atoms", tuple(zip(map(tuple, X.tolist()), weights)))
        object.__setattr__(self, "occupancy", X)
        self.validate()

    def validate(self) -> None:
        s = self.domain.site_count
        seen = set()
        total = 0
        for config, weight in self.atoms:
            if len(config) != s:
                raise DimensionError(f"configuration has {len(config)} entries for {s} sites")
            if weight < 0:
                raise ValidationError(f"negative weight {weight} on {config}")
            if config in seen:
                raise ValidationError(f"duplicate configuration {config}")
            seen.add(config)
            total += weight
        bad = ~_admissible(self.domain, self.occupancy)
        if bad.any():
            raise ValidationError(f"configuration {self.atoms[bad.argmax()][0]} is not admissible")
        # "not <=" so that a NaN weight, which passes the sign test, fails.
        if not abs(total - 1) <= WEIGHT_TOL:
            raise ValidationError(f"weights sum to {total}, not 1")

    @property
    def is_exact(self) -> bool:
        return all(_is_exact_value(w) for _, w in self.atoms)

    def weight_of(self, config: Sequence[int]) -> Scalar:
        """The weight of the atom equal to ``config`` entry by entry, else 0
        (also for an entry that is not an integer)."""
        key = tuple(config)
        return next((w for c, w in self.atoms if c == key), 0)

    def renormalized(self) -> "Distribution":
        total = sum(w for _, w in self.atoms)
        if self.is_exact and not isinstance(total, Fraction):
            total = Fraction(total)
        return Distribution(
            self.domain, tuple((c, w / total) for c, w in self.atoms), dict(self.meta)
        )


def correlations_of(dist: Distribution) -> CorrelationPair:
    """First and second correlation tables of a finite distribution.

    One product over the law's occupancy array ``X`` with weights ``w``:
    ``rho1 = w X`` and ``rho2 = X^T diag(w) X - diag(rho1)``.  Exact
    weights are first scaled to integers by their common denominator, which
    divides the tables once; they hold ``Fraction`` objects when a weight is
    one, else ints.
    """
    X, exact = dist.occupancy, dist.is_exact
    weights = [weight for _, weight in dist.atoms]
    if exact:
        scale, ints = _to_integers(weights)
        bound = len(X) * max(map(abs, ints), default=0) * int(X.max(initial=0)) ** 2
        w = np.array(ints, dtype=np.int64 if bound < 2**63 else object)
    else:
        w = np.array(weights, dtype=float)
        if X.dtype == object:  # entries past int64: float weights give float tables
            X = X.astype(float)
    rho1, rho2 = w @ X, (X.T * w) @ X
    rho2[np.diag_indices(X.shape[1])] -= rho1
    if exact:
        fractions = any(isinstance(v, Fraction) for v in weights)
        value = np.frompyfunc(lambda v: Fraction(int(v), scale) if fractions else int(v), 1, 1)
        rho1, rho2 = value(rho1), value(rho2)
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
