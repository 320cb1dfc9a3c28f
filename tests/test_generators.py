"""Reference distributions: exact weights and known correlations."""

from fractions import Fraction

import numpy as np
import pytest

from realz import (
    SolverOptions,
    ValidationError,
    bernoulli_product,
    check_realizability,
    correlations_of,
    hardcore_gibbs,
    minimal_third_moment,
    truncated_poisson_product,
    two_atom_family,
)
from oracle import oracle_min_third_moment
from support import complete_domain, single_site

RATIONAL = SolverOptions(arithmetic_mode="rational")


def triangle_excluded():
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    from realz import Domain

    return Domain(distance=dist, occupancy_cap=(1, 1, 1), exclusion_diameter=1.5)


class TestBernoulliProduct:
    def test_zero_rate_is_empty_delta(self):
        dist = bernoulli_product(complete_domain(2), [0.0, 0.0])
        assert dist.atoms == (((0, 0), 1.0),)

    def test_unit_rate_is_full_delta(self):
        dist = bernoulli_product(complete_domain(2), [1.0, 1.0])
        assert dist.atoms == (((1, 1), 1.0),)

    def test_uniform_half(self):
        dist = bernoulli_product(complete_domain(2), [Fraction(1, 2)] * 2)
        assert len(dist.atoms) == 4
        assert all(w == Fraction(1, 4) for _, w in dist.atoms)
        corr = correlations_of(dist)
        assert corr.rho2[0, 1] == Fraction(1, 4)
        assert corr.rho2[0, 0] == 0

    def test_exclusion_domain_rejected(self):
        with pytest.raises(ValidationError):
            bernoulli_product(triangle_excluded(), [0.1, 0.1, 0.1])

    def test_total_cap_rejected(self):
        with pytest.raises(ValidationError):
            bernoulli_product(complete_domain(2, total_cap=1), [0.1, 0.1])


class TestHardcoreGibbs:
    def test_small_activity_concentrates_on_empty(self):
        dist = hardcore_gibbs(single_site(1), Fraction(1, 10**6))
        assert dist.weight_of((0,)) > Fraction(999999, 1000000)

    def test_single_free_site_unit_activity(self):
        dist = hardcore_gibbs(single_site(1), 1)
        assert dist.weight_of((0,)) == Fraction(1, 2)
        assert dist.weight_of((1,)) == Fraction(1, 2)

    def test_triangle_with_exclusion(self):
        dist = hardcore_gibbs(triangle_excluded(), 1)
        assert dist.meta["partition_function"] == 4
        assert dist.weight_of((0, 0, 0)) == Fraction(1, 4)
        assert dist.weight_of((1, 0, 0)) == Fraction(1, 4)

    def test_float_activity_gives_float_weights(self):
        dist = hardcore_gibbs(single_site(2), 0.5)
        assert isinstance(dist.atoms[0][1], float)
        assert sum(w for _, w in dist.atoms) == pytest.approx(1.0)


class TestTwoAtomFamily:
    def test_m3_cap4(self):
        corr, dist = two_atom_family(4, 3)
        assert dist.weight_of((0,)) == Fraction(11, 12)
        assert dist.weight_of((4,)) == Fraction(1, 12)
        got = correlations_of(dist)
        assert got.rho1[0] == Fraction(1, 3) == corr.rho1[0]
        assert got.rho2[0, 0] == 1 == corr.rho2[0, 0]

    def test_m1_cap2(self):
        corr, dist = two_atom_family(2, 1)
        assert dist.weight_of((2,)) == Fraction(1, 2)
        assert corr.rho1[0] == 1 and corr.rho2[0, 0] == 1

    def test_cap_below_threshold_rejected(self):
        with pytest.raises(ValidationError):
            two_atom_family(3, 3)

    def test_third_moment_of_witness_and_optimum(self):
        # the construction attains m - 1; the minimum is strictly
        # increasing in m, confirmed against the elimination oracle
        previous = None
        for m in range(2, 7):
            corr, dist = two_atom_family(m + 1, m)
            witness_h3 = sum(
                w * sum(c) * (sum(c) - 1) * (sum(c) - 2) for c, w in dist.atoms
            )
            assert witness_h3 == m - 1
            res = minimal_third_moment(dist.domain, corr, RATIONAL)
            assert res.finite and res.r_star <= m - 1
            status, value = oracle_min_third_moment(dist.domain, corr)
            assert status == "optimal" and value == res.r_star
            if previous is not None:
                assert res.r_star > previous
            previous = res.r_star


class TestTruncatedPoissonProduct:
    def test_small_rate_concentrates_on_empty(self):
        dist = truncated_poisson_product(complete_domain(2), Fraction(1, 10**6))
        assert dist.weight_of((0, 0)) > Fraction(99, 100)

    def test_single_lattice_site_unit_rate(self):
        dist = truncated_poisson_product(single_site(1), 1)
        assert dist.weight_of((0,)) == Fraction(1, 2)
        assert dist.weight_of((1,)) == Fraction(1, 2)

    def test_two_site_product(self):
        dist = truncated_poisson_product(complete_domain(2), 1)
        assert all(w == Fraction(1, 4) for _, w in dist.atoms)

    def test_exclusion_domain_rejected(self):
        with pytest.raises(ValidationError):
            truncated_poisson_product(triangle_excluded(), 1)


class TestGeneratorContracts:
    def test_outputs_validate_and_realize_themselves(self):
        rng = np.random.default_rng(67)
        dom = complete_domain(3, cap=2)
        fixtures = [
            bernoulli_product(complete_domain(3), rng.random(3).tolist()),
            hardcore_gibbs(dom, Fraction(3, 2)),
            truncated_poisson_product(dom, Fraction(1, 2)),
            two_atom_family(4, 3)[1],
        ]
        for dist in fixtures:
            res = check_realizability(dist.domain, correlations_of(dist))
            assert res.feasible

    def test_exact_weights_for_rational_parameters(self):
        fixtures = [
            bernoulli_product(complete_domain(2), [Fraction(1, 3), Fraction(1, 7)]),
            hardcore_gibbs(single_site(3), Fraction(2, 5)),
            truncated_poisson_product(single_site(2), Fraction(3, 4)),
        ]
        for dist in fixtures:
            assert dist.is_exact
            assert sum(w for _, w in dist.atoms) == 1

