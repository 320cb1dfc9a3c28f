"""Reference distributions with exactly computable correlations.

These serve as fixtures: every generator emits a finitely supported
distribution with known first and second correlation tables, and emits
exact rational weights whenever its parameters are rational, so exact-mode
solvers can consume them directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import CorrelationPair, Distribution, Domain, Scalar, _integer, _is_exact_value, _number, _pyscalar, _to_integers
from .enumeration import enumerate_configurations
from .errors import ValidationError


def _reject_constrained(domain: Domain, what: str) -> None:
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        raise ValidationError(f"{what} is a product law; exclusion domains are rejected")
    if domain.total_cap is not None or domain.total_exact is not None:
        raise ValidationError(f"{what} is a product law; total-particle caps are rejected")


def _product_law(domain: Domain, site_laws: list, exact: bool) -> Distribution:
    """The product law whose site ``i`` holds ``n`` particles with weight
    ``site_laws[i][n]``; atoms of weight 0 are left out.

    Float weights multiply in site order.  Exact ones multiply as integer
    numerators, each site's law over its least common denominator, so that
    an atom's weight is its numerator over the product of those scales:
    a ``Fraction`` when one of its factors is one, else an int."""
    sizes = [len(law) for law in site_laws]
    # The product space in itertools.product order, the last site fastest.
    X = np.indices(sizes, dtype=np.int64).reshape(len(sizes), math.prod(sizes)).T
    dtype = float
    if exact:
        site_laws = [list(map(_pyscalar, law)) for law in site_laws]
        marks = [np.array([isinstance(v, Fraction) for v in law]) for law in site_laws]
        scales, site_laws = zip(*map(_to_integers, site_laws)) if site_laws else ((), ())
        bound = math.prod(max(1, *map(abs, law)) for law in site_laws)
        dtype = np.int64 if bound < 2**63 else object
        fractions = np.zeros(len(X), dtype=bool)
        for mark, column in zip(marks, X.T):
            fractions |= mark[column]
    weights = np.ones(len(X), dtype=dtype)
    for law, column in zip(site_laws, X.T):
        weights = weights * np.array(law, dtype=dtype)[column]
    keep = np.array(weights > 0, dtype=bool)
    weights = weights[keep].tolist()
    if exact:
        D = math.prod(scales)
        # One Fraction per distinct weight: a product law has few.
        keys = list(zip(weights, fractions[keep].tolist()))
        exact_of = {key: Fraction(key[0], D) if key[1] else key[0] // D for key in set(keys)}
        weights = list(map(exact_of.__getitem__, keys))
    return Distribution._of(domain, X[keep], weights)


def bernoulli_product(domain: Domain, p) -> Distribution:
    """Independent per-site occupation with probabilities ``p``.

    Correlations: ``rho1 = p`` and ``rho2_ij = p_i p_j`` off the diagonal
    with a vanishing factorial diagonal.
    """
    _reject_constrained(domain, "bernoulli_product")
    probs = [_number(q, "occupation probability") for q in p]
    s = domain.site_count
    if len(probs) != s:
        raise ValidationError(f"need {s} probabilities, got {len(probs)}")
    if any(q < 0 or q > 1 for q in probs):
        raise ValidationError("occupation probabilities must lie in [0, 1]")
    if any(c < 1 for c in domain.occupancy_cap):
        raise ValidationError("every site needs capacity for at least one particle")
    exact = all(map(_is_exact_value, probs))
    one = 1 if exact else 1.0
    return _product_law(domain, [[one - q, q] for q in probs], exact)


def hardcore_gibbs(domain: Domain, z: Scalar) -> Distribution:
    """Grand-canonical weights ``z^(particle count)`` over admissible configurations.

    The normalizing partition function is reported in ``meta``.
    """
    if _number(z, "activity") <= 0:
        raise ValidationError("activity must be positive")
    configs = enumerate_configurations(domain)
    counts = configs.sum(axis=1)
    if not _is_exact_value(z):
        zf = float(z)
        # Python-int exponents give Python floats.
        raw = [zf**n for n in counts.tolist()]
        partition = sum(raw)
        return Distribution._of(domain, configs, [w / partition for w in raw], {"partition_function": partition})
    # z = p/q: weight n is p^n q^(M - n) over one integer partition sum.
    z = Fraction(_pyscalar(z))
    p, q, M = z.numerator, z.denominator, int(counts.max(initial=0))
    powers = [p**n * q ** (M - n) for n in range(M + 1)]
    partition = sum(k * w for k, w in zip(np.bincount(counts, minlength=M + 1).tolist(), powers))
    laws = [Fraction(w, partition) for w in powers] if partition else []
    weights = list(map(laws.__getitem__, counts.tolist()))
    return Distribution._of(domain, configs, weights, {"partition_function": Fraction(partition, q**M)})


def two_atom_family(cap: int, m: int) -> tuple:
    """Single-site pair with density ``1/m`` and unit factorial second moment.

    Mixes the empty configuration with occupancy ``m + 1`` at weight
    ``1/(m(m+1))``; needs ``cap >= m + 1`` to exist, and below that cap the
    returned correlations are not realizable at all.
    """
    cap, m = _integer(cap, "cap"), _integer(m, "m")
    if m < 1:
        raise ValidationError("m must be a positive integer")
    if cap < m + 1:
        raise ValidationError(
            f"cap {cap} cannot host the atom at occupancy {m + 1}"
        )
    domain = Domain(distance=[[0.0]], occupancy_cap=(cap,))
    weight = Fraction(1, m * (m + 1))
    dist = Distribution(
        domain, (((0,), 1 - weight), ((m + 1,), weight))
    )
    corr = CorrelationPair(
        rho1=np.array([Fraction(1, m)], dtype=object),
        rho2=np.array([[Fraction(1)]], dtype=object),
    )
    return corr, dist


def truncated_poisson_product(domain: Domain, lam: Scalar) -> Distribution:
    """Independent per-site Poisson occupancies conditioned below each cap.

    Renormalizes per site, so this approximates (never reproduces) the
    unconditioned Poisson law; use it as a fixture, not as ground truth for
    correlations.
    """
    _reject_constrained(domain, "truncated_poisson_product")
    if _number(lam, "rate") <= 0:
        raise ValidationError("rate must be positive")
    exact = _is_exact_value(lam)
    lam = Fraction(_pyscalar(lam)) if exact else float(lam)
    laws = {}  # one law per distinct cap
    for cap in domain.occupancy_cap:
        if cap not in laws:
            raw = [lam**k / math.factorial(k) for k in range(cap + 1)]
            total = sum(raw)
            laws[cap] = [w / total for w in raw]
    return _product_law(domain, [laws[cap] for cap in domain.occupancy_cap], exact)

