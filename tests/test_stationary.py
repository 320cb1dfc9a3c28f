"""Group actions, averaging, orbit-reduced checks, displacement reduction."""

from fractions import Fraction

import numpy as np
import pytest

from realz import (
    CorrelationPair,
    Distribution,
    FiniteGroup,
    SolverOptions,
    ValidationError,
    bernoulli_product,
    check_realizability,
    check_realizability_stationary,
    correlations_of,
    expand_pair_correlation,
    hardcore_gibbs,
    is_stationary,
    reduce_pair_correlation,
    symmetrize,
    torus_domain,
    translation_group,
    verify_certificate,
)

RATIONAL = SolverOptions(arithmetic_mode="rational")


class TestTranslationGroup:
    def test_trivial(self):
        group = translation_group((1,))
        assert len(group) == 1
        assert group.elements == ((0,),)

    def test_cycle_of_five(self):
        group = translation_group((5,))
        assert len(group) == 5
        shift = group.elements[1]
        assert shift == (1, 2, 3, 4, 0)

    def test_two_by_two_torus_is_klein(self):
        group = translation_group((2, 2))
        assert len(group) == 4
        for perm in group.elements:
            # every translation composed with itself is the identity
            square = tuple(perm[perm[i]] for i in range(4))
            assert square == (0, 1, 2, 3)

    def test_group_axioms_validated(self):
        from realz import FiniteGroup

        with pytest.raises(ValidationError):
            FiniteGroup(elements=((0, 1), (1, 0), (0, 1, 2)))
        with pytest.raises(ValidationError):
            # missing inverse closure: single non-identity 3-cycle
            FiniteGroup(elements=((0, 1, 2), (1, 2, 0)))


class TestIsStationary:
    def test_circulant_tables_pass(self):
        dom = torus_domain((4,))
        corr = correlations_of(bernoulli_product(dom, [0.3] * 4))
        assert is_stationary(corr, translation_group((4,)))

    def test_perturbed_entry_fails(self):
        dom = torus_domain((4,))
        corr = correlations_of(bernoulli_product(dom, [0.3] * 4))
        rho1 = corr.rho1.copy()
        rho1[2] += 1e-6
        assert not is_stationary(
            CorrelationPair(rho1=rho1, rho2=corr.rho2), translation_group((4,))
        )

    def test_symmetrized_distribution_is_stationary(self):
        group = translation_group((3,))
        dom = torus_domain((3,))
        dist = Distribution(dom, (((1, 0, 0), 1.0),))
        sym = symmetrize(dist, group)
        assert is_stationary(correlations_of(sym), group)


class TestSymmetrize:
    def test_fixed_point_on_invariant_input(self):
        dom = torus_domain((3,))
        dist = bernoulli_product(dom, [Fraction(1, 2)] * 3)
        sym = symmetrize(dist, translation_group((3,)))
        assert sym.atoms == dist.atoms

    def test_orbit_average_of_singleton(self):
        dom = torus_domain((3,))
        dist = Distribution(dom, (((1, 0, 0), 1.0),))
        sym = symmetrize(dist, translation_group((3,)))
        weights = dict(sym.atoms)
        assert set(weights) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert all(w == pytest.approx(1 / 3) for w in weights.values())

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        dom = torus_domain((4,))
        configs = [(1, 0, 1, 0), (1, 1, 0, 0), (0, 0, 0, 0)]
        raw = rng.random(3)
        dist = Distribution(dom, tuple(zip(configs, (raw / raw.sum()).tolist())))
        once = symmetrize(dist, translation_group((4,)))
        twice = symmetrize(once, translation_group((4,)))
        assert dict(once.atoms) == pytest.approx(dict(twice.atoms))

    def test_preserves_stationary_correlations(self):
        dom = torus_domain((5,), exclusion_diameter=1.5)
        gibbs = hardcore_gibbs(dom, 1)
        group = translation_group((5,))
        corr = correlations_of(gibbs)
        res = check_realizability(dom, corr)
        sym = symmetrize(res.distribution, group)
        back = correlations_of(sym)
        assert np.allclose(back.rho1.astype(float), corr.rho1.astype(float), atol=1e-9)
        assert np.allclose(back.rho2.astype(float), corr.rho2.astype(float), atol=1e-9)


class TestStationaryCheck:
    def test_agrees_with_full_check_on_feasible_cycle(self):
        dom = torus_domain((5,), exclusion_diameter=1.5)
        corr = correlations_of(hardcore_gibbs(dom, 1))
        group = translation_group((5,))
        full = check_realizability(dom, corr)
        reduced = check_realizability_stationary(dom, corr, group)
        assert full.feasible and reduced.feasible
        witness = reduced.distribution
        for perm in group.elements:
            moved = sorted(
                (group.apply_to_config(perm, c), w) for c, w in witness.atoms
            )
            assert moved == sorted(witness.atoms)
        back = correlations_of(witness)
        assert np.allclose(back.rho2.astype(float), corr.rho2.astype(float), atol=1e-9)

    def test_agrees_on_infeasible_cycle(self):
        # scaled unit pair moment with zero density, stationary by construction
        dom = torus_domain((4,), occupancy_cap=3)
        corr = CorrelationPair(rho1=np.zeros(4), rho2=np.full((4, 4), 1.0))
        group = translation_group((4,))
        full = check_realizability(dom, corr)
        reduced = check_realizability_stationary(dom, corr, group)
        assert not full.feasible and not reduced.feasible
        # the orbit-reduced certificate replays on the full space
        assert verify_certificate(dom, reduced.certificate, corr, 1e-9)

    @pytest.mark.parametrize(
        "dims, cap, rho, pair, opts, feasible",
        [
            ((1,), 4, 1 / 3, 1.0, SolverOptions(), True),
            ((1,), 4, Fraction(1, 3), Fraction(1), RATIONAL, True),
            ((3,), 1, Fraction(1, 2), Fraction(3, 5), RATIONAL, False),
        ],
        ids=["float-feasible", "rational-feasible", "rational-infeasible"],
    )
    def test_trivial_group_matches_plain_check(self, dims, cap, rho, pair, opts, feasible):
        dom = torus_domain(dims, occupancy_cap=cap)
        s = dom.site_count
        dtype = object if opts.rational else float
        rho2 = np.full((s, s), pair, dtype=dtype)
        if s > 1:
            np.fill_diagonal(rho2, 0)
        corr = CorrelationPair(rho1=np.full(s, rho, dtype=dtype), rho2=rho2)
        group = FiniteGroup(elements=(tuple(range(s)),))
        full = check_realizability(dom, corr, opts)
        reduced = check_realizability_stationary(dom, corr, group, opts)
        assert full.feasible == reduced.feasible == feasible
        if feasible:
            assert full.distribution.atoms == reduced.distribution.atoms
        else:
            assert full.certificate.coefficients() == reduced.certificate.coefficients()
            assert verify_certificate(dom, reduced.certificate, corr, 0)

    def test_rejects_nonstationary_input(self):
        dom = torus_domain((3,))
        corr = CorrelationPair(
            rho1=np.array([0.2, 0.3, 0.2]), rho2=np.zeros((3, 3))
        )
        with pytest.raises(ValidationError):
            check_realizability_stationary(dom, corr, translation_group((3,)))

    def test_verdicts_agree_on_random_stationary_instances(self):
        rng = np.random.default_rng(61)
        group = translation_group((4,))
        dom = torus_domain((4,))
        for _ in range(10):
            # random invariant distribution via symmetrization
            configs = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (0, 0, 0, 0)]
            raw = rng.random(len(configs))
            dist = symmetrize(
                Distribution(dom, tuple(zip(configs, (raw / raw.sum()).tolist()))),
                group,
            )
            corr = correlations_of(dist)
            scale = 1.0 + rng.random()  # sometimes push infeasible
            test_corr = CorrelationPair(rho1=corr.rho1, rho2=corr.rho2 * scale)
            if not is_stationary(test_corr, group):
                continue
            full = check_realizability(dom, test_corr)
            reduced = check_realizability_stationary(dom, test_corr, group)
            assert full.feasible == reduced.feasible


class TestReducedPairCorrelation:
    def test_bernoulli_product_flat(self):
        dom = torus_domain((5,))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 4)] * 5))
        reduced = reduce_pair_correlation(corr, (5,))
        assert reduced.rho == Fraction(1, 4)
        assert reduced.g2[(0,)] == 0
        assert all(reduced.g2[(s,)] == 1 for s in range(1, 5))

    def test_zero_density_rejected(self):
        corr = CorrelationPair(rho1=np.zeros(3), rho2=np.zeros((3, 3)))
        with pytest.raises(ValidationError):
            reduce_pair_correlation(corr, (3,))

    def test_hardcore_four_cycle(self):
        dom = torus_domain((4,), exclusion_diameter=1.5)
        corr = correlations_of(hardcore_gibbs(dom, 1))
        reduced = reduce_pair_correlation(corr, (4,))
        # seven independent sets: empty, four singletons, two opposite pairs
        assert reduced.rho == Fraction(2, 7)
        assert reduced.g2[(1,)] == 0
        assert reduced.g2[(2,)] == Fraction(1, 7) / (Fraction(2, 7) ** 2)

    def test_reduce_then_expand_round_trips(self):
        dom = torus_domain((2, 2))
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 3)] * 4))
        reduced = reduce_pair_correlation(corr, (2, 2))
        back = expand_pair_correlation(reduced, (2, 2))
        assert (back.rho1 == corr.rho1).all()
        assert (back.rho2 == corr.rho2).all()
