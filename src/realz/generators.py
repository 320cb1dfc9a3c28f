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

from .core import CorrelationPair, Distribution, Domain, Scalar, _is_exact_value, _pyscalar
from .enumeration import enumerate_configurations
from .errors import ValidationError


def _reject_constrained(domain: Domain, what: str) -> None:
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        raise ValidationError(f"{what} is a product law; exclusion domains are rejected")
    if domain.total_cap is not None or domain.total_exact is not None:
        raise ValidationError(f"{what} is a product law; total-particle caps are rejected")


def _product_law(domain: Domain, site_laws: list, one: Scalar) -> Distribution:
    """The product law whose site ``i`` holds ``n`` particles with weight
    ``site_laws[i][n]``; each atom's weight is ``one`` times its sites'
    weights, in site order, and atoms of weight 0 are left out."""
    sizes = [len(law) for law in site_laws]
    # The product space in itertools.product order, the last site fastest.
    X = np.indices(sizes).reshape(len(sizes), math.prod(sizes)).T
    weights = np.full(len(X), one, dtype=float if isinstance(one, float) else object)
    for law, column in zip(site_laws, X.T):
        weights = weights * np.array(law, dtype=weights.dtype)[column]
    keep = np.array(weights > 0, dtype=bool)
    return Distribution(domain, tuple(zip(X[keep], weights[keep].tolist())))


def bernoulli_product(domain: Domain, p) -> Distribution:
    """Independent per-site occupation with probabilities ``p``.

    Correlations: ``rho1 = p`` and ``rho2_ij = p_i p_j`` off the diagonal
    with a vanishing factorial diagonal.
    """
    _reject_constrained(domain, "bernoulli_product")
    probs = list(p)
    s = domain.site_count
    if len(probs) != s:
        raise ValidationError(f"need {s} probabilities, got {len(probs)}")
    if any(q < 0 or q > 1 for q in probs):
        raise ValidationError("occupation probabilities must lie in [0, 1]")
    if any(c < 1 for c in domain.occupancy_cap):
        raise ValidationError("every site needs capacity for at least one particle")
    one = 1 if all(map(_is_exact_value, probs)) else 1.0
    return _product_law(domain, [[one - q, q] for q in probs], one)


def hardcore_gibbs(domain: Domain, z: Scalar) -> Distribution:
    """Grand-canonical weights ``z^(particle count)`` over admissible configurations.

    The normalizing partition function is reported in ``meta``.
    """
    if z <= 0:
        raise ValidationError("activity must be positive")
    configs = enumerate_configurations(domain)
    exact = _is_exact_value(z)
    zf = Fraction(_pyscalar(z)) if exact else float(z)
    # Python-int exponents keep exact weights in Python ints.
    raw = [zf**n for n in configs.sum(axis=1).tolist()]
    partition = sum(raw)
    atoms = tuple((config, w / partition) for config, w in zip(configs, raw))
    return Distribution(domain, atoms, meta={"partition_function": partition})


def two_atom_family(cap: int, m: int) -> tuple:
    """Single-site pair with density ``1/m`` and unit factorial second moment.

    Mixes the empty configuration with occupancy ``m + 1`` at weight
    ``1/(m(m+1))``; needs ``cap >= m + 1`` to exist, and below that cap the
    returned correlations are not realizable at all.
    """
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
    if lam <= 0:
        raise ValidationError("rate must be positive")
    exact = _is_exact_value(lam)
    lam = Fraction(_pyscalar(lam)) if exact else float(lam)
    site_laws = []
    for cap in domain.occupancy_cap:
        raw = [lam**k / math.factorial(k) for k in range(cap + 1)]
        total = sum(raw)
        site_laws.append([w / total for w in raw])
    return _product_law(domain, site_laws, 1 if exact else 1.0)

