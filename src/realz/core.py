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
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import attrgetter, itemgetter, mul

import numpy as np

from .errors import DimensionError, UnboundedSiteError, ValidationError

#: Occupancy vector: one count per site.
Configuration = tuple

Scalar = float | int | Fraction

#: The float bar: the float search's pivot, ratio and phase-1 tests, the
#: solver's moment-matrix refutation, float replay, a law's total weight
#: and the condition battery's pass mark all compare at it.
TOLERANCE = 1e-9

#: The float equality slack: tables compared for symmetry or invariance,
#: and nearby values of an observable merged into one, agree within it.
EQUALITY_TOL = 1e-12

#: Entries the largest intermediate of one block of an array pass may
#: hold: passes over the occupancy array or a group's element array go in
#: the slices of :func:`_blocks`.
_BLOCK_CELLS = 1 << 16


def _block_size(cells: int) -> int:
    """Items per block, for ``cells`` entries per item: about
    ``_BLOCK_CELLS`` entries per block, and one item at least."""
    return max(1, _BLOCK_CELLS // max(cells, 1))


def _blocks(count: int, cells: int):
    """Slices of ``range(count)`` that cover ``cells`` entries per item in
    about ``_BLOCK_CELLS`` entries per slice."""
    step = _block_size(cells)
    return (slice(start, start + step) for start in range(0, count, step))


def _pyscalar(value):
    """Strip numpy scalar wrappers so exact values stay exact."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def _to_integers(values) -> tuple:
    """``(s, [s * v for v in values])`` for exact ``values``, ``s`` their
    least common denominator, so every scaled value is a Python int."""
    denominators = list(map(attrgetter("denominator"), values))
    scale = math.lcm(*denominators)
    return scale, [n * (scale // d) for n, d in zip(map(attrgetter("numerator"), values), denominators)]


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


def _is_symmetric(arr: np.ndarray, integers: tuple | None = None) -> bool:
    """``arr`` equals its transpose: exactly when ``integers`` is the
    integer form (:func:`_integer_form`) whose last entries are ``arr``'s,
    else within ``EQUALITY_TOL`` unless ``arr`` holds objects."""
    if integers is not None:
        # Exact entries are equal exactly when their numerators over one
        # scale are, which compare as ints with no Fraction.__eq__ call.
        # Row i against column i.
        s = len(arr)
        numerators = integers[1][len(integers[1]) - s * s :]
        return all(numerators[i * s : (i + 1) * s] == numerators[i::s] for i in range(s))
    # Exact symmetry is the common case, and the cheap test.
    if (arr == arr.T).all():
        return True
    return arr.dtype != object and bool(np.allclose(arr, arr.T, rtol=0.0, atol=EQUALITY_TOL))


def _all_finite(arr: np.ndarray) -> bool:
    """No NaN or infinite entry.  An exact entry is finite however large,
    so it is never converted to float."""
    if arr.dtype == object:
        return all(_is_exact_value(v) or math.isfinite(v) for v in arr.flat)
    return bool(np.isfinite(arr).all())


def _float_entries(name: str, *arrays: np.ndarray) -> None:
    """Refuse entries that float arithmetic cannot read: a NaN or infinite
    one, or an exact one past the float range."""
    try:
        finite = all(np.isfinite(np.asarray(arr, dtype=float)).all() for arr in arrays)
    except OverflowError:
        raise ValidationError(f"{name} must lie within the float range") from None
    if not finite:
        raise ValidationError(f"{name} must be finite")


def _is_real(value) -> bool:
    """The one rule for a real entry or parameter: a real number (numpy's
    too) or a ``Decimal``, never a ``bool``.  NaN and the infinities are
    real."""
    return isinstance(value, (numbers.Real, Decimal)) and not isinstance(value, bool)


def _real_entries(name: str, *values) -> set:
    """Refuse an entry of ``values`` that is not real (:func:`_is_real`): a
    bool, a string, a complex number or None, say, is never parsed or cast.
    An array is read by its dtype; a sequence entry by entry, so that numpy
    reads no bool as 0 or 1.  Returns the types of the entries read one by
    one, those of sequences and object arrays, for the caller to reuse."""
    types = set()
    for arr in values:
        arr = arr if isinstance(arr, np.ndarray) else np.array(arr, dtype=object)
        if arr.dtype == object:
            seen = set(map(type, arr.flat))
            if not (seen <= {int, float, Fraction} or all(map(_is_real, arr.flat))):
                raise ValidationError(f"{name} must be real numbers")
            types |= seen
        elif arr.dtype.kind not in "iuf":
            raise ValidationError(f"{name} must be real numbers")
    return types


def _floated(arr: np.ndarray, types: set) -> np.ndarray:
    """``arr`` with each ``Decimal`` entry as its float value, as float
    mode reads a ``Fraction``: a ``Decimal`` mixes with no float.
    ``types`` are its entries' types, as :func:`_real_entries` read them."""
    if arr.dtype != object:
        return arr
    if any(issubclass(t, Decimal) for t in types):
        return np.array([float(v) if isinstance(v, Decimal) else v for v in arr.flat], dtype=object).reshape(arr.shape)
    return arr


def _is_exact_value(value) -> bool:
    """The one rule for an exact scalar: an int (numpy's too) or a
    ``Fraction``, never a ``bool``."""
    return isinstance(value, (int, np.integer, Fraction)) and not isinstance(value, bool)


def _is_exact_array(arr: np.ndarray) -> bool:
    if arr.dtype == object:
        # Nearly always ints and Fractions alone, which one pass over the types shows.
        return set(map(type, arr.flat)) <= {int, Fraction} or all(_is_exact_value(v) for v in arr.flat)
    return bool(np.issubdtype(arr.dtype, np.integer))


def _integer_form(head, *arrays: np.ndarray, types: set | None = None) -> tuple | None:
    """``(scale, numerators, fractions)`` when ``head`` and every entry of
    ``arrays`` are exact (:func:`_is_exact_value`), else None.  In that
    order, value ``k`` is ``numerators[k] / scale``, a Python int over the
    least common denominator, and ``fractions`` is whether one is a
    ``Fraction`` (else every value is an int).  ``types`` are the types of
    the entries read one by one (:func:`_real_entries`), when the caller
    has them: an integer array's entries come out as Python ints."""
    if any(arr.dtype.kind not in "iuO" for arr in arrays):
        return None
    values = [head, *chain.from_iterable(arr.ravel().tolist() for arr in arrays)]
    types = set(map(type, values)) if types is None else {type(head), int, *types}
    if not types <= {int, Fraction}:
        if not all(map(_is_exact_value, values)):
            return None
        values = list(map(_pyscalar, values))  # numpy integers as Python ints
        types = set(map(type, values))
    if types <= {int}:
        return 1, values, False
    return (*_to_integers(values), True)


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
    #: The caps as one read-only array for :func:`_admissible`: int64, or
    #: Python ints when a row within them could overflow an int64 total.
    _caps: np.ndarray = field(init=False, repr=False)
    #: A site permutation group that preserves the domain, as a function
    #: that builds it on first use, or None (no dataclass field): the
    #: translations of a :func:`realz.stationary.torus_domain`, one per
    #: site, which the moment LP takes for tables invariant under them.
    _translations = None

    def __post_init__(self):
        try:
            dist = _as_square(self.distance, "distance").astype(float)
        except OverflowError:  # an exact distance past the float range
            raise ValidationError("distances must lie within the float range") from None
        if not _is_symmetric(dist):
            raise ValidationError("distance matrix must be symmetric")
        diagonal = np.diag(dist)
        if diagonal.any() and not np.allclose(diagonal, 0.0, rtol=0.0, atol=EQUALITY_TOL):
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
            if value is not None:
                value = _integer(value, name)
                if value < 0:
                    raise ValidationError(f"{name} must be a nonnegative integer")
                object.__setattr__(self, name, value)

        d = self.exclusion_diameter
        if d is not None:
            try:
                d = float(_number(d, "exclusion_diameter"))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"exclusion_diameter must be a number, got {d!r}") from exc
            except OverflowError:
                raise ValidationError("exclusion_diameter must lie within the float range") from None
            if not math.isfinite(d) or d < 0:
                raise ValidationError("exclusion_diameter must be finite and nonnegative")

        dist.setflags(write=False)
        cap_array = np.array(caps, dtype=object if sum(caps) >= 2**63 else np.int64)
        cap_array.setflags(write=False)
        object.__setattr__(self, "distance", dist)
        object.__setattr__(self, "occupancy_cap", caps)
        object.__setattr__(self, "_caps", cap_array)
        object.__setattr__(self, "site_labels", labels)
        object.__setattr__(self, "exclusion_diameter", d)

    @staticmethod
    def _check_cap(cap, site: int) -> int:
        if cap is None or (isinstance(cap, float) and math.isinf(cap)):
            raise UnboundedSiteError(f"site {site} has no finite occupancy cap")
        cap = _integer(cap, f"occupancy cap for site {site}")
        if cap < 0:
            raise ValidationError(f"occupancy cap for site {site} must be nonnegative")
        return cap

    @property
    def site_count(self) -> int:
        return len(self.occupancy_cap)


def _as_int(n):
    """``n`` as a Python int when it is an integral number other than a
    bool, else None."""
    try:
        return int(n) if isinstance(n, numbers.Number) and not isinstance(n, bool) and n == int(n) else None
    except (TypeError, ValueError, OverflowError):  # NaN, infinities, complex numbers
        return None


def _integer(value, name: str) -> int:
    """An integer parameter as a Python int.  A bool, a string or a number
    that is not integral is refused, never truncated or parsed."""
    if (n := _as_int(value)) is None:
        raise ValidationError(f"{name} must be an integer")
    return n


def _number(value, name: str):
    """A real parameter as it is.  A bool (numpy's too), a complex number
    or a value that is not a number, a string say, is refused, never
    parsed."""
    if not _is_real(value):
        raise ValidationError(f"{name} must be a number, got {value!r}")
    return value


def _integral(config) -> tuple:
    """One configuration as a tuple of Python ints.  An entry that is not
    an integral number, or is a bool, is refused, never truncated or
    parsed."""
    entries = tuple(config.tolist() if isinstance(config, np.ndarray) else config)
    ints = tuple(map(_as_int, entries))
    if None in ints:
        raise ValidationError(f"configuration {entries} has an entry that is not an integer")
    return ints


def _occupancies(configs, s: int) -> tuple:
    """``(X, rows)``: the configurations as one array of rows, ``(configs x
    entries)`` when they are equally long (``s`` entries when there are
    none), int64, or Python ints when an entry does not fit; and as tuples
    of Python ints when those are at hand, else None.  Configurations of
    unequal lengths give one tuple per row.  An entry that is not an
    integral number, or is a bool, is refused."""
    row_types = set(map(type, configs))
    if row_types == {np.ndarray}:
        # numpy rows: their dtype shows whether they hold integers.
        try:
            X = np.array(configs)
        except ValueError:  # unequal lengths
            X = None
        if X is not None and X.ndim == 2 and X.dtype.kind in "iu" and X.dtype != np.uint64:
            return X.astype(np.int64, copy=False), None
    elif set(map(type, chain.from_iterable(configs))) == {int} and set(map(len, configs)) == {s}:
        # Python ints alone: the types also show a bool, which np.array
        # would read as an int.  Tuples of them are the rows already.
        try:
            X = np.fromiter(chain.from_iterable(configs), np.int64, len(configs) * s).reshape(-1, s)
        except OverflowError:  # past int64
            pass
        else:
            return X, configs if row_types == {tuple} else None
    # Floats, strings, bools, uint64, Python ints past int64, or numpy rows
    # whose dtypes promote to float: entry by entry.
    rows = [_integral(config) for config in configs]
    if not rows:
        return np.zeros((0, s), dtype=np.int64), rows
    try:
        return np.array(rows, dtype=np.int64), rows
    except (OverflowError, ValueError):  # past int64, or unequal lengths
        return np.array(rows, dtype=object), rows


def _admissible(domain: Domain, X: np.ndarray) -> np.ndarray:
    """Mask of the rows of the occupancy array ``X`` that satisfy every
    constraint of ``domain``: signs, caps, the particle total, exclusion.
    Caps are compared as integers, never rounded to float64."""
    caps = domain._caps
    if caps.dtype == object or X.dtype == object:
        X, caps = X.astype(object, copy=False), caps.astype(object)
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
    return bool(_admissible(domain, _occupancies([config], s)[0])[0])


@dataclass(frozen=True, eq=False)
class QuadraticPolynomial:
    """Quadratic observable ``f0 + <f1, n> + <f2, second factorial power>``.

    ``f2`` is required symmetric and its full double sum is used, so an
    off-diagonal interaction between sites ``i`` and ``j`` is counted twice
    (once per order).  Doubles as a non-realizability certificate: one that
    is nonnegative on every admissible configuration but pairs negatively
    with a prescribed correlation pair refutes realizability.

    Exact coefficients are also kept as ``_integers`` (no dataclass field),
    ``(scale, numerators, fractions)`` of ``[f0, *f1, *f2.flat]`` as
    :func:`_integer_form` gives them, read when the polynomial is built;
    None when a coefficient is not exact.  :func:`pairing` and replay read
    it instead of the coefficients.
    """

    f0: Scalar
    f1: np.ndarray
    f2: np.ndarray

    def __post_init__(self):
        f1 = _as_vector(self.f1, "f1")
        f2 = _as_square(self.f2, "f2")
        if f2.shape[0] != f1.shape[0]:
            raise DimensionError("f1 and f2 disagree on the number of sites")
        f0 = _pyscalar(self.f0)
        if not _is_real(f0):
            raise ValidationError("coefficients must be real numbers")
        types = _real_entries("coefficients", self.f1, self.f2)
        integers = _integer_form(f0, f1, f2, types=types)
        if not _is_symmetric(f2, integers):
            raise ValidationError("f2 must be symmetric")
        object.__setattr__(self, "f0", float(f0) if isinstance(f0, Decimal) else f0)
        object.__setattr__(self, "f1", _floated(f1, types))
        object.__setattr__(self, "f2", _floated(f2, types))
        object.__setattr__(self, "_integers", integers)

    @classmethod
    def _of(cls, f0, f1: np.ndarray, f2: np.ndarray, integers: tuple | None = None) -> "QuadraticPolynomial":
        """The polynomial of coefficients the package built, unchecked:
        ``f1`` a vector and ``f2`` a symmetric matrix of its size, every
        entry a real number and none a ``Decimal``, stored as the public
        constructor stores them.  ``integers`` is their integer form with
        the least scale, when the caller has it."""
        poly = object.__new__(cls)
        f0 = _pyscalar(f0)
        object.__setattr__(poly, "f0", f0)
        object.__setattr__(poly, "f1", f1)
        object.__setattr__(poly, "f2", f2)
        object.__setattr__(poly, "_integers", _integer_form(f0, f1, f2) if integers is None else integers)
        return poly

    @property
    def site_count(self) -> int:
        return self.f1.shape[0]

    def coefficients(self) -> list:
        """All scalar coefficients, constant term first."""
        return [self.f0, *self.f1.tolist(), *self.f2.flatten().tolist()]


def _integer_coefficients(poly: QuadraticPolynomial | None, f3, s: int, occupancy: int, total: int) -> tuple:
    """``(scale, dtype, quadratic, f3)``: ``poly``'s coefficients
    ``(f0, f1, f2)`` as ``quadratic`` (None for ``poly`` None, no quadratic
    part), and ``f3``.

    Exact coefficients come back times ``scale``, the lcm of their
    denominators, as integers (``poly``'s own integer form, widened to
    ``f3``'s denominator), in ``dtype``: int64 unless the observable could
    overflow it on configurations with at most ``occupancy`` particles per
    site and ``total`` in all, and then Python ints (object).  Floats come
    back as float64, and ``dtype`` is float.
    """
    form = (1, []) if poly is None else poly._integers
    if form is None or not _is_exact_value(f3):
        scale, dtype, coefficients = 1, float, [] if poly is None else poly.coefficients()
    else:
        scale, coefficients = form[0], form[1]
        numerator, denominator = f3.as_integer_ratio()
        if (step := denominator // math.gcd(scale, denominator)) != 1:
            scale, coefficients = scale * step, [step * c for c in coefficients]
        f3 = numerator * (scale // denominator)
        # At least 1: each coefficient must fit too.
        bound = abs(f3) * max(total, 1) ** 3
        if coefficients:
            size, n = [abs(c) for c in coefficients], max(occupancy, 1)
            bound += size[0] + n * sum(size[1 : 1 + s]) + (n * n + n) * sum(size[1 + s :])
        dtype = np.int64 if bound < 2**63 else object
    if poly is None:
        return scale, dtype, None, f3
    f0, *rest = coefficients
    rest = np.array(rest, dtype=dtype)
    return scale, dtype, (f0, rest[:s], rest[s:].reshape(s, s)), f3


def _observable(X: np.ndarray, poly: QuadraticPolynomial | None, f3: Scalar = 0) -> tuple:
    """``(values, scale)``: ``scale`` times ``f0 + <f1, n> + <f2, fp2(n)> +
    f3 N(N-1)(N-2)`` on every row ``n`` of the occupancy array ``X``, with
    ``fp2`` the second factorial power and ``N`` the particle number.
    ``poly`` None is no quadratic part, and builds no coefficient table.
    Exact coefficients are scaled to integers
    (:func:`_integer_coefficients`); floats give scale 1.
    """
    s = X.shape[1]
    counts = X.sum(axis=1) if f3 else None  # the particle numbers, read once
    total = 0 if counts is None else int(counts.max(initial=0))
    occupancy = 0 if poly is None else int(X.max(initial=0))
    scale, dtype, quadratic, f3 = _integer_coefficients(poly, _pyscalar(f3), s, occupancy, total)
    blocks = []
    # One block at least, so that an empty X still gives an array.
    for rows in _blocks(max(len(X), 1), s):
        value = 0
        if quadratic is not None:
            f0, f1, f2 = quadratic
            Y = X[rows]
            # <f2, fp2(n)> is n.f2.n - <diag f2, n>.
            value = f0 + (Y * f1).sum(axis=1) + ((Y @ f2) * Y).sum(axis=1) - Y @ np.diagonal(f2)
        if f3:
            N = counts[rows].astype(dtype)  # float, or integers as wide as the bound needs
            value = value + f3 * (N * (N - 1) * (N - 2))
        blocks.append(value)
    return np.concatenate(blocks), scale


def _observable_at(config: Sequence[int], poly: QuadraticPolynomial, f3: Scalar = 0) -> Scalar:
    """:func:`_observable` on one configuration, unscaled."""
    if len(config) != poly.site_count:
        raise DimensionError("configuration length does not match polynomial")
    values, scale = _observable(_occupancies([config], poly.site_count)[0], poly, f3)
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
    shape, symmetry and that every entry is a real number, never a bool,
    and :meth:`validate` finiteness, so that deliberately invalid tables
    can still be constructed for certificate replay.  A negative entry is
    no error: the moment LP refutes it with a certificate.

    Exact tables are also kept as ``_integers`` (no dataclass field),
    ``(scale, numerators, fractions)``: the values ``[1, *rho1,
    *rho2.flat]`` as Python-int numerators over one common denominator
    ``scale`` (the least one, unless :func:`correlations_of` hands over
    its law's), and whether an entry is a ``Fraction``; None for tables
    with an entry that is not exact.  It is read when the pair is built,
    so tables changed in place afterwards are not seen.  :attr:`is_exact`,
    :func:`pairing`, replay and the refutations before the moment LP read
    it instead of the tables.
    """

    rho1: np.ndarray
    rho2: np.ndarray

    def __post_init__(self):
        rho1 = _as_vector(self.rho1, "rho1")
        rho2 = _as_square(self.rho2, "rho2")
        if rho2.shape[0] != rho1.shape[0]:
            raise DimensionError("rho1 and rho2 disagree on the number of sites")
        # The entries' types, read once: for the refusals, the integer form
        # and the Decimal entries alike.
        types = _real_entries("correlation entries", self.rho1, self.rho2)
        integers = _integer_form(1, rho1, rho2, types=types)
        if not _is_symmetric(rho2, integers):
            raise ValidationError("rho2 must be symmetric")
        object.__setattr__(self, "rho1", _floated(rho1, types))
        object.__setattr__(self, "rho2", _floated(rho2, types))
        object.__setattr__(self, "_integers", integers)

    @classmethod
    def _of(cls, rho1: np.ndarray, rho2: np.ndarray, integers: tuple) -> "CorrelationPair":
        """The exact tables the package built, unchecked: ``rho1`` a vector
        and ``rho2`` a symmetric matrix of its size, and ``integers`` their
        integer form over any common denominator."""
        corr = object.__new__(cls)
        object.__setattr__(corr, "rho1", rho1)
        object.__setattr__(corr, "rho2", rho2)
        object.__setattr__(corr, "_integers", integers)
        return corr

    @property
    def site_count(self) -> int:
        return self.rho1.shape[0]

    @property
    def is_exact(self) -> bool:
        return self._integers is not None

    def validate(self) -> None:
        """Refuse a NaN or infinite entry."""
        if not _all_finite(self.rho1) or not _all_finite(self.rho2):
            raise ValidationError("correlation entries must be finite")


@dataclass(frozen=True, eq=False)
class Distribution:
    """Finitely supported probability distribution on admissible configurations.

    Atoms are ``(configuration, weight)`` pairs with finite nonnegative
    weights summing to one within ``TOLERANCE``.  Renormalization is never
    applied implicitly; use :meth:`renormalized`.  ``meta`` carries
    generator metadata (for example a partition function) and does not
    affect any computation.  ``occupancy`` holds the atoms' configurations
    as one read-only ``(atoms x sites)`` array, in atom order: int64, or
    Python ints when an entry does not fit.  Exact weights are also kept
    as ``_integers``, ``(scale, numerators, fractions)``: weight ``k`` is
    ``numerators[k] / scale``, a Python int over the least common
    denominator, and ``fractions`` is whether a weight is a ``Fraction``
    (else every weight is an int); None for float weights.  The checks and
    :func:`correlations_of` read it instead of the weights.

    The constructor converts its atoms' configurations to that array once;
    the package's own laws hand over the array they hold (:meth:`_of`).
    Either way the law is checked on the array and the weight list, with
    no per-atom loop unless a check fails.
    """

    domain: Domain
    atoms: tuple
    meta: dict = field(default_factory=dict, repr=False)
    occupancy: np.ndarray = field(init=False, repr=False)
    _integers: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        X, rows = _occupancies([config for config, _ in atoms], self.domain.site_count)
        self._hold(X, [weight for _, weight in atoms], rows)

    @classmethod
    def _of(
        cls, domain: Domain, occupancy: np.ndarray, weights: list, meta: dict | None = None, integers: tuple | None = None
    ) -> "Distribution":
        """The law whose atom ``k`` is ``(occupancy[k], weights[k])``.
        ``occupancy`` is a 2-D int64 array, or holds Python ints past
        int64; the law keeps it, read-only, so the caller gives it up.
        ``integers`` is the weights' integer form (``_integers``, over the
        least common denominator), when the caller has it: the exact LP
        hands its witness's over, so no lcm is taken again."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "domain", domain)
        object.__setattr__(dist, "meta", {} if meta is None else meta)
        dist._hold(occupancy, weights, integers=integers)
        return dist

    def _hold(self, X: np.ndarray, weights: list, rows: list | None = None, integers: tuple | None = None) -> None:
        """Keep ``X`` and ``weights`` and check the law; ``rows`` are the
        rows of ``X`` as tuples of Python ints, and ``integers`` the
        weights' integer form, when the caller has them."""
        X.setflags(write=False)
        if integers is None:
            types = set(map(type, weights))
            if not types <= {int, float, Fraction}:  # numpy scalars, or entries that are no weights
                weights = list(map(_pyscalar, weights))
                types = set(map(type, weights))
                if not all(map(_is_real, weights)):
                    raise ValidationError("weights must be real numbers")
            # An exact law nearly always holds ints and Fractions alone, which
            # the types show; any other law stops `all` at its first float.
            if types <= {int, Fraction} or all(map(_is_exact_value, weights)):
                integers = (*_to_integers(weights), Fraction in types)
        rows = map(tuple, X.tolist()) if rows is None else rows
        object.__setattr__(self, "atoms", tuple(zip(rows, weights)))
        object.__setattr__(self, "occupancy", X)
        object.__setattr__(self, "_integers", integers)
        self.validate()

    def validate(self) -> None:
        """Refuse the first fault in atom order: a configuration of the
        wrong length, a negative weight or a repeated configuration; then
        the first configuration that is not admissible; then a total that
        misses 1 by more than ``TOLERANCE``."""
        s, X, atoms, integers = self.domain.site_count, self.occupancy, self.atoms, self._integers
        # Exact weights are read as their integer numerators: the same
        # signs, and an integer sum over the scale.
        values = list(map(itemgetter(1), atoms)) if integers is None else integers[1]
        total = sum(values)  # in atom order
        if integers is not None:
            total = Fraction(total, integers[0])
        # Every check at once: a NaN weight, which no sign test catches,
        # makes the total NaN, and "not <=" refuses that.
        if (
            X.ndim == 2 and X.shape[1] == s and min(values, default=0) >= 0
            and len(set(map(itemgetter(0), atoms))) == len(atoms)
            and _admissible(self.domain, X).all() and abs(total - 1) <= TOLERANCE
        ):
            return
        # A fault: the per-atom loop names the first one.
        seen = set()
        for (config, weight), value in zip(atoms, values):
            if len(config) != s:
                raise DimensionError(f"configuration has {len(config)} entries for {s} sites")
            if value < 0:
                raise ValidationError(f"negative weight {weight} on {config}")
            if config in seen:
                raise ValidationError(f"duplicate configuration {config}")
            seen.add(config)
        bad = ~_admissible(self.domain, X)
        if bad.any():
            raise ValidationError(f"configuration {atoms[bad.argmax()][0]} is not admissible")
        if not abs(total - 1) <= TOLERANCE:
            raise ValidationError(f"weights sum to {total}, not 1")

    @property
    def is_exact(self) -> bool:
        return self._integers is not None

    def weight_of(self, config: Sequence[int]) -> Scalar:
        """The weight of the atom equal to ``config`` entry by entry, else 0
        (also for an entry that is not an integer)."""
        key = tuple(config)
        return next((w for c, w in self.atoms if c == key), 0)

    def renormalized(self) -> "Distribution":
        weights = [w for _, w in self.atoms]
        total = sum(weights)
        if all(map(_is_exact_value, weights)) and not isinstance(total, Fraction):
            total = Fraction(total)
        return Distribution(
            self.domain, tuple((c, w / total) for c, w in self.atoms), dict(self.meta)
        )


def correlations_of(dist: Distribution) -> CorrelationPair:
    """First and second correlation tables of a finite distribution.

    One product over the law's occupancy array ``X`` with weights ``w``:
    ``rho1 = w X`` and ``rho2 = X^T diag(w) X - diag(rho1)``.  Exact
    weights are read as integers over their common denominator, which
    divides the tables once; they hold ``Fraction`` objects when a weight is
    one, else ints, and the pair keeps the integer tables over that
    denominator as its integer form.  The integer products run in float64
    while a bound keeps every sum below ``2**53``, where float64 holds
    integers exactly, then in int64 while it stays below ``2**63``, else on
    Python ints.
    """
    X, integers = dist.occupancy, dist._integers
    if integers is not None:
        scale, ints, fractions = integers
        bound = len(X) * max(map(abs, ints), default=0) * int(X.max(initial=0)) ** 2
        # Sums of integers below 2**53 are exact in float64, whose products
        # numpy hands to BLAS; int64 products run without it.
        w = np.array(ints, dtype=float if bound < 2**53 else np.int64 if bound < 2**63 else object)
        if w.dtype == float:
            X = X.astype(float)
    else:
        w = np.array([weight for _, weight in dist.atoms], dtype=float)
        if X.dtype == object:  # entries past int64: float weights give float tables
            X = X.astype(float)
    rho1, rho2 = w @ X, (X.T * w) @ X
    rho2[np.diag_indices(X.shape[1])] -= rho1
    if integers is None:
        return CorrelationPair(rho1=rho1, rho2=rho2)
    s, flat = X.shape[1], np.concatenate((rho1, rho2.ravel()))
    numerators = (flat.astype(np.int64) if flat.dtype == float else flat).tolist()
    values = numerators
    if fractions:  # one Fraction per distinct value: rho2 is symmetric
        values = list(map({v: Fraction(v, scale) for v in set(numerators)}.__getitem__, numerators))
    values = np.array(values, dtype=object)
    return CorrelationPair._of(values[:s], values[s:].reshape(s, s), (scale, [scale, *numerators], fractions))


def pairing(poly: QuadraticPolynomial, corr: CorrelationPair) -> Scalar:
    """Expected value of the observable under any realization of ``corr``.

    Equals ``f0 + sum_i f1_i rho1_i + sum_{ij} f2_ij rho2_ij`` and, for every
    distribution, coincides with the weighted average of the observable over
    its atoms.  Linear in both arguments.  When both are exact the value is
    exact: one dot product of Python-int numerators, the coefficients' and
    those of ``(1, rho1, rho2)``, over the product of their scales, so no
    fixed-width product wraps.  It is a ``Fraction`` when a coefficient or
    an entry is one, else an int.
    """
    if poly.site_count != corr.site_count:
        raise DimensionError("polynomial and correlations disagree on site count")
    if poly._integers is None or corr._integers is None:
        return _pyscalar(poly.f0 + (poly.f1 * corr.rho1).sum() + (poly.f2 * corr.rho2).sum())
    (p, coefficients, fractions), (q, entries, more) = poly._integers, corr._integers
    value = sum(map(mul, coefficients, entries))
    return Fraction(value, p * q) if fractions or more else value


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
