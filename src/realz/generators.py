"""Reference distributions with exactly computable correlations.

These serve as fixtures: every generator emits a finitely supported
distribution with known first and second correlation tables, and emits
exact rational weights whenever its parameters are rational, so exact-mode
solvers can consume them directly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .core import CorrelationPair, Distribution, Domain, Scalar
from .enumeration import DEFAULT_LIMIT, enumerate_configurations
from .errors import ValidationError


def _is_exact(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _reject_constrained(domain: Domain, what: str) -> None:
    d = domain.exclusion_diameter
    if d is not None and d > 0:
        raise ValidationError(f"{what} is a product law; exclusion domains are rejected")
    if domain.total_cap is not None or domain.total_exact is not None:
        raise ValidationError(f"{what} is a product law; total-particle caps are rejected")


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
    one = 1 if all(_is_exact(q) for q in probs) else 1.0
    atoms = []
    for config in itertools.product((0, 1), repeat=s):
        weight = one
        for i, n in enumerate(config):
            weight = weight * (probs[i] if n else (one - probs[i]))
        if weight > 0:
            atoms.append((config, weight))
    return Distribution(domain, tuple(atoms))


def hardcore_gibbs(domain: Domain, z: Scalar, limit: int = DEFAULT_LIMIT) -> Distribution:
    """Grand-canonical weights ``z^(particle count)`` over admissible configurations.

    The normalizing partition function is reported in ``meta``.
    """
    if z <= 0:
        raise ValidationError("activity must be positive")
    configs = enumerate_configurations(domain, limit=limit)
    exact = _is_exact(z)
    zf = Fraction(z) if exact else float(z)
    raw = [zf ** sum(config) for config in configs]
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
    exact = _is_exact(lam)
    lam = Fraction(lam) if exact else float(lam)
    site_laws = []
    for cap in domain.occupancy_cap:
        raw = [lam**k / math.factorial(k) for k in range(cap + 1)]
        total = sum(raw)
        site_laws.append([w / total for w in raw])
    atoms = []
    for config in itertools.product(*(range(c + 1) for c in domain.occupancy_cap)):
        weight = 1 if exact else 1.0
        for i, n in enumerate(config):
            weight = weight * site_laws[i][n]
        if weight > 0:
            atoms.append((config, weight))
    return Distribution(domain, tuple(atoms))

