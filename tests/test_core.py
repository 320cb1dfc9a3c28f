"""Core algebra: admissibility, factorial powers, polynomials, correlations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realz import (
    CorrelationPair,
    DimensionError,
    Distribution,
    Domain,
    QuadraticPolynomial,
    UnboundedSiteError,
    ValidationError,
    correlations_of,
    eval_quadratic,
    factorial_power2,
    h_moment,
    is_admissible,
    pairing,
)
from support import complete_domain, random_distribution, random_domain, single_site


def quadratic(f0, f1, f2):
    return QuadraticPolynomial(f0=f0, f1=np.asarray(f1, dtype=float), f2=np.asarray(f2, dtype=float))


class TestDomain:
    def test_rejects_asymmetric_distance(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0, 1.0], [2.0, 0.0]], occupancy_cap=(1, 1))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[1.0]], occupancy_cap=(1,))

    def test_rejects_unbounded_cap(self):
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0]], occupancy_cap=(math.inf,))
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0]], occupancy_cap=(None,))

    @pytest.mark.parametrize("cap", [None, math.inf])
    def test_rejects_unbounded_scalar_cap(self, cap):
        with pytest.raises(UnboundedSiteError):
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=cap)

    @pytest.mark.parametrize("cap", [True, 2.5])
    def test_rejects_malformed_scalar_cap(self, cap):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=cap)

    def test_integral_float_cap_broadcasts(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=2.0)
        assert dom.occupancy_cap == (2, 2)

    def test_rejects_non_sequence_labels(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0]], occupancy_cap=1, site_labels=5)

    def test_rejects_both_total_caps(self):
        with pytest.raises(ValidationError):
            Domain(distance=[[0.0]], occupancy_cap=(1,), total_cap=1, total_exact=1)

    def test_cap_broadcast_and_labels(self):
        dom = complete_domain(3, cap=2)
        assert dom.occupancy_cap == (2, 2, 2)
        assert dom.site_labels == ("s0", "s1", "s2")
        assert dom.site_count == 3


class TestIsAdmissible:
    def test_exclusion_blocks_close_pair(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=2.0)
        assert not is_admissible(dom, (1, 1))

    def test_single_particle_fine_under_exclusion(self):
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=2.0)
        assert is_admissible(dom, (1, 0))

    def test_cap_exceeded(self):
        assert not is_admissible(single_site(3), (4,))

    def test_exclusion_forbids_double_occupancy(self):
        dom = Domain(distance=[[0.0]], occupancy_cap=(3,), exclusion_diameter=0.5)
        assert is_admissible(dom, (1,))
        assert not is_admissible(dom, (2,))

    def test_exclusion_boundary_is_strict(self):
        # pairs exactly at distance D are allowed
        dom = Domain(distance=[[0.0, 1.0], [1.0, 0.0]], occupancy_cap=(1, 1), exclusion_diameter=1.0)
        assert is_admissible(dom, (1, 1))

    def test_total_caps(self):
        dom = complete_domain(3, cap=1, total_cap=1)
        assert is_admissible(dom, (1, 0, 0))
        assert not is_admissible(dom, (1, 1, 0))
        dom = complete_domain(3, cap=1, total_exact=2)
        assert is_admissible(dom, (1, 1, 0))
        assert not is_admissible(dom, (1, 0, 0))

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            is_admissible(single_site(1), (0, 0))


class TestFactorialPower2:
    def test_single_site(self):
        assert factorial_power2((2,)).tolist() == [[2]]

    def test_distinct_pair(self):
        assert factorial_power2((1, 1)).tolist() == [[0, 1], [1, 0]]

    def test_triple_occupancy(self):
        assert factorial_power2((3, 0)).tolist() == [[6, 0], [0, 0]]

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    def test_diagonal_identity(self, config):
        fp2 = factorial_power2(tuple(config))
        for i, n in enumerate(config):
            assert fp2[i, i] == n * n - n

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    def test_counts_labeled_pairs(self, config):
        labels = [site for site, n in enumerate(config) for _ in range(n)]
        fp2 = factorial_power2(tuple(config))
        for i in range(len(config)):
            for j in range(len(config)):
                brute = sum(
                    1
                    for a, b in itertools.permutations(range(len(labels)), 2)
                    if labels[a] == i and labels[b] == j
                )
                assert fp2[i, j] == brute


class TestEvalQuadratic:
    def test_constant(self):
        poly = quadratic(1.0, [0.0], [[0.0]])
        assert eval_quadratic(poly, (7,)) == 1.0

    def test_linear(self):
        poly = quadratic(0.0, [1.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
        assert eval_quadratic(poly, (2, 3)) == 5.0

    def test_quadratic_all_ones(self):
        # hand expansion over distinct labeled particles of (2, 1)
        poly = quadratic(0.0, [0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        assert eval_quadratic(poly, (2, 1)) == 6.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eval_quadratic(quadratic(0.0, [1.0], [[0.0]]), (1, 2))

    def test_asymmetric_f2_rejected(self):
        with pytest.raises(ValidationError):
            quadratic(0.0, [0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]])


class TestHMoment:
    def test_single_site_falling_factorial(self):
        assert h_moment((4,), np.ones(1), 3) == 24

    def test_three_singletons(self):
        assert h_moment((1, 1, 1), np.ones(3), 3) == 6

    def test_weighted_pairs(self):
        assert h_moment((3,), np.array([2.0]), 2) == 24

    def test_order_validation(self):
        with pytest.raises(ValueError):
            h_moment((1,), np.ones(1), 4)

    def test_chi_must_be_positive(self):
        with pytest.raises(ValidationError):
            h_moment((1, 1), np.array([1.0, 0.0]), 2)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3),
        st.integers(min_value=1, max_value=3),
    )
    @settings(deadline=None)
    def test_matches_labeled_brute_force(self, config, order):
        chi = [Fraction(k + 1, 2) for k in range(len(config))]
        labels = [site for site, n in enumerate(config) for _ in range(n)]
        brute = sum(
            math.prod(chi[labels[k]] for k in pick)
            for pick in itertools.permutations(range(len(labels)), order)
        )
        got = h_moment(tuple(config), np.array(chi, dtype=object), order)
        assert got == brute


class TestDistribution:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Distribution(single_site(1), (((0,), 0.5),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            Distribution(single_site(1), (((0,), 0.5), ((0,), 0.5)))

    def test_rejects_inadmissible_atom(self):
        with pytest.raises(ValidationError):
            Distribution(single_site(1), (((2,), 1.0),))

    def test_renormalize_is_explicit(self):
        dist = Distribution(single_site(1), (((0,), 0.5), ((1,), 0.5)))
        doubled = Distribution.__new__(Distribution)
        object.__setattr__(doubled, "domain", dist.domain)
        object.__setattr__(doubled, "atoms", (((0,), 1.0), ((1,), 1.0)))
        object.__setattr__(doubled, "meta", {})
        renorm = doubled.renormalized()
        assert renorm.weight_of((0,)) == pytest.approx(0.5)


class TestCorrelationsOf:
    def test_empty_delta(self):
        dist = Distribution(complete_domain(2), (((0, 0), 1.0),))
        corr = correlations_of(dist)
        assert corr.rho1.tolist() == [0.0, 0.0]
        assert corr.rho2.tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_full_lattice_pair(self):
        dist = Distribution(complete_domain(2), (((1, 1), 1.0),))
        corr = correlations_of(dist)
        assert corr.rho1.tolist() == [1.0, 1.0]
        assert corr.rho2.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_two_atom_mixture(self):
        dist = Distribution(
            single_site(4), (((0,), Fraction(11, 12)), ((4,), Fraction(1, 12)))
        )
        corr = correlations_of(dist)
        assert corr.rho1[0] == Fraction(1, 3)
        assert corr.rho2[0, 0] == Fraction(1)

    def test_lattice_gas_diagonal_vanishes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dom = random_domain(rng, max_sites=4, max_cap=1)
            corr = correlations_of(random_distribution(rng, dom))
            assert all(abs(corr.rho2[i, i]) < 1e-12 for i in range(dom.site_count))


class TestPairing:
    def test_constant(self):
        corr = CorrelationPair(rho1=np.array([0.3]), rho2=np.array([[0.4]]))
        assert pairing(quadratic(1.0, [0.0], [[0.0]]), corr) == 1.0

    def test_diagonal_term(self):
        corr = CorrelationPair(rho1=np.array([0.0]), rho2=np.array([[1.0]]))
        assert pairing(quadratic(0.0, [0.0], [[1.0]]), corr) == 1.0

    def test_affine(self):
        corr = CorrelationPair(rho1=np.array([0.4]), rho2=np.array([[0.0]]))
        assert pairing(quadratic(-1.0, [1.0], [[0.0]]), corr) == pytest.approx(-0.6)

    def test_linear_in_polynomial(self):
        rng = np.random.default_rng(3)
        corr = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        poly_a = _random_poly(rng, 2)
        poly_b = _random_poly(rng, 2)
        summed = QuadraticPolynomial(
            f0=poly_a.f0 + poly_b.f0, f1=poly_a.f1 + poly_b.f1, f2=poly_a.f2 + poly_b.f2
        )
        assert pairing(summed, corr) == pytest.approx(
            pairing(poly_a, corr) + pairing(poly_b, corr)
        )
        scaled = QuadraticPolynomial(f0=3 * poly_a.f0, f1=3 * poly_a.f1, f2=3 * poly_a.f2)
        assert pairing(scaled, corr) == pytest.approx(3 * pairing(poly_a, corr))

    def test_linear_in_correlations(self):
        # moment terms combine linearly; the constant term enters once
        rng = np.random.default_rng(4)
        corr_a = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        corr_b = CorrelationPair(rho1=rng.random(2), rho2=_sym(rng, 2))
        poly = _random_poly(rng, 2)
        mixed = CorrelationPair(
            rho1=corr_a.rho1 + 2.0 * corr_b.rho1, rho2=corr_a.rho2 + 2.0 * corr_b.rho2
        )
        lhs = pairing(poly, mixed) - poly.f0
        rhs = (pairing(poly, corr_a) - poly.f0) + 2.0 * (pairing(poly, corr_b) - poly.f0)
        assert lhs == pytest.approx(rhs)

    def test_consistency_with_expectation(self):
        # pairing against correlations_of(mu) equals the mu-average of the value
        rng = np.random.default_rng(11)
        for _ in range(50):
            dom = random_domain(rng)
            dist = random_distribution(rng, dom)
            poly = _random_poly(rng, dom.site_count)
            corr = correlations_of(dist)
            via_pairing = pairing(poly, corr)
            via_expectation = sum(w * eval_quadratic(poly, c) for c, w in dist.atoms)
            scale = 1.0 + abs(via_pairing) + abs(via_expectation)
            assert abs(via_pairing - via_expectation) <= 1e-9 * scale


def _sym(rng, s):
    m = rng.random((s, s))
    return (m + m.T) / 2


def _random_poly(rng, s):
    return QuadraticPolynomial(f0=float(rng.normal()), f1=rng.normal(size=s), f2=_sym(rng, s))
