"""Realizability decisions, certificates, and third-moment minimization."""

from fractions import Fraction

import numpy as np
import pytest

from realz import (
    CorrelationPair,
    QuadraticPolynomial,
    RationalInputError,
    SolverOptions,
    ValidationError,
    check_realizability,
    correlations_of,
    enumerate_configurations,
    eval_quadratic,
    h_moment,
    minimal_third_moment,
    pairing,
    two_atom_family,
    verify_certificate,
)
from oracle import oracle_min_third_moment, oracle_realizable
from support import (
    complete_domain,
    pair_lattice_corr,
    random_distribution,
    random_domain,
    single_site,
)

RATIONAL = SolverOptions(arithmetic_mode="rational")


def corr_1site(rho1, rho2):
    return CorrelationPair(rho1=np.array([rho1]), rho2=np.array([[rho2]]))


class TestCheckRealizability:
    def test_unit_pair_moment_with_zero_density_is_refuted(self):
        for cap in range(2, 7):
            res = check_realizability(single_site(cap), corr_1site(0.0, 1.0))
            assert not res.feasible
            assert verify_certificate(
                single_site(cap), res.certificate, corr_1site(0.0, 1.0), 1e-9
            )

    def test_two_atom_instance_feasible_at_cap_four(self):
        res = check_realizability(single_site(4), corr_1site(1 / 3, 1.0))
        assert res.feasible
        weights = dict(res.distribution.atoms)
        assert weights[(0,)] == pytest.approx(11 / 12)
        assert weights[(4,)] == pytest.approx(1 / 12)

    def test_pair_instance_with_q_04_is_refuted(self):
        # the only candidate solution needs a negative weight
        dom = complete_domain(2, cap=1)
        res = check_realizability(dom, pair_lattice_corr(0.75, 0.4))
        assert not res.feasible
        assert verify_certificate(dom, res.certificate, pair_lattice_corr(0.75, 0.4), 1e-9)

    def test_own_correlations_always_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            dom = random_domain(rng)
            dist = random_distribution(rng, dom)
            res = check_realizability(dom, correlations_of(dist))
            assert res.feasible

    def test_witness_correlations_match(self):
        # soundness of the feasible branch on random instances
        rng = np.random.default_rng(29)
        for _ in range(50):
            dom = random_domain(rng, max_sites=4, max_cap=2)
            corr = correlations_of(random_distribution(rng, dom))
            res = check_realizability(dom, corr)
            assert res.feasible
            got = correlations_of(res.distribution)
            assert np.allclose(got.rho1.astype(float), corr.rho1.astype(float), atol=1e-9)
            assert np.allclose(got.rho2.astype(float), corr.rho2.astype(float), atol=1e-9)

    def test_every_refutation_verifies(self):
        rng = np.random.default_rng(31)
        refuted = 0
        while refuted < 20:
            dom = random_domain(rng, max_sites=3, max_cap=2, allow_exclusion=False)
            corr = correlations_of(random_distribution(rng, dom))
            bumped = CorrelationPair(
                rho1=corr.rho1.copy(), rho2=corr.rho2 + np.full(corr.rho2.shape, 9.0)
            )
            res = check_realizability(dom, bumped)
            if res.feasible:
                continue
            refuted += 1
            assert verify_certificate(dom, res.certificate, bumped, 1e-9)

    def test_certificate_is_normalized(self):
        res = check_realizability(single_site(5), corr_1site(0.0, 1.0))
        coeffs = [abs(c) for c in res.certificate.coefficients()]
        assert max(coeffs) == pytest.approx(1.0)

    def test_negative_density_shortcut(self):
        res = check_realizability(single_site(2), corr_1site(-0.5, 0.0))
        assert not res.feasible
        # analytic certificate: the occupancy observable itself
        assert eval_quadratic(res.certificate, (1,)) > 0
        assert pairing(res.certificate, corr_1site(-0.5, 0.0)) < 0

    def test_lattice_gas_diagonal_shortcut(self):
        corr = corr_1site(0.5, 0.3)
        res = check_realizability(single_site(1), corr)
        assert not res.feasible
        assert verify_certificate(single_site(1), res.certificate, corr, 1e-9)

    def test_excluded_pair_shortcut(self):
        dom = complete_domain(2, cap=1, exclusion_diameter=1.5)
        corr = pair_lattice_corr(0.1, 0.05)
        res = check_realizability(dom, corr)
        assert not res.feasible
        assert verify_certificate(dom, res.certificate, corr, 1e-9)

    @pytest.mark.parametrize(
        "domain, rho1, rho2",
        [
            (single_site(2), [Fraction(-1, 2)], [[0]]),
            (complete_domain(2), [Fraction(1, 2)] * 2, [[0, Fraction(-1, 4)], [Fraction(-1, 4), 0]]),
            (single_site(1), [Fraction(1, 2)], [[Fraction(1, 5)]]),
            (
                complete_domain(2, exclusion_diameter=1.5),
                [Fraction(1, 10)] * 2,
                [[0, Fraction(1, 20)], [Fraction(1, 20), 0]],
            ),
        ],
        ids=["negative-density", "negative-pair", "capped-diagonal", "excluded-pair"],
    )
    def test_rational_shortcut_certificate_is_exact(self, domain, rho1, rho2):
        corr = CorrelationPair(rho1=np.array(rho1, dtype=object), rho2=np.array(rho2, dtype=object))
        res = check_realizability(domain, corr, RATIONAL)
        assert not res.feasible
        assert all(type(c) in (int, Fraction) for c in res.certificate.coefficients())
        assert verify_certificate(domain, res.certificate, corr, tol=0)

    def test_rational_mode_rejects_floats(self):
        with pytest.raises(RationalInputError):
            check_realizability(single_site(2), corr_1site(0.5, 0.25), RATIONAL)

    def test_dimension_guard(self):
        from realz import DimensionError

        with pytest.raises(DimensionError):
            check_realizability(single_site(2), pair_lattice_corr(0.5, 0.2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            check_realizability(single_site(2), corr_1site(float("nan"), 0.0))


class TestVerifyCertificate:
    def test_constant_one_is_no_certificate(self):
        cert = QuadraticPolynomial(f0=1.0, f1=np.zeros(1), f2=np.zeros((1, 1)))
        assert not verify_certificate(single_site(5), cert, corr_1site(0.2, 0.1), 1e-9)

    def test_negative_diagonal_table_accepts_diagonal_observable(self):
        # invalid correlation table constructed on purpose: the factorial
        # diagonal observable pairs to -1 while staying nonnegative
        cert = QuadraticPolynomial(f0=0.0, f1=np.zeros(1), f2=np.array([[1.0]]))
        assert verify_certificate(single_site(5), cert, corr_1site(0.0, -1.0), 1e-9)

    def test_solver_certificate_replays(self):
        corr = corr_1site(0.0, 1.0)
        res = check_realizability(single_site(5), corr)
        assert verify_certificate(single_site(5), res.certificate, corr, 1e-9)

    def test_no_certificate_exists_for_feasible_instances(self):
        # random nonnegative quadratics never refute realizable data
        rng = np.random.default_rng(37)
        dom = complete_domain(2, cap=2)
        dist = random_distribution(rng, dom)
        corr = correlations_of(dist)
        for _ in range(100):
            alpha0 = rng.normal()
            alpha = rng.normal(size=2)
            beta = rng.random(2)
            f0 = alpha0 * alpha0
            f1 = 2 * alpha0 * alpha + alpha * alpha
            f2 = np.outer(alpha, alpha) + np.diag(beta)
            cert = QuadraticPolynomial(f0=f0, f1=f1, f2=f2)
            assert not verify_certificate(dom, cert, corr, 1e-9)


    @staticmethod
    def _random_certificate(rng, s):
        g = rng.integers(-9, 10, size=(s, s))
        f2 = g + g.T
        np.fill_diagonal(f2, rng.integers(1, 10, size=s))
        return QuadraticPolynomial(
            f0=Fraction(int(rng.integers(-9, 10)), 3),
            f1=np.array([Fraction(int(v), 7) for v in rng.integers(-90, 10, size=s)], dtype=object),
            f2=np.array([[Fraction(int(v), 5) for v in row] for row in f2], dtype=object),
        )

    def test_matches_per_configuration_loop(self):
        # Against the loop over configurations, exactly for Fraction
        # coefficients: the verdict flips between tol = -worst and a hair
        # below.  The last domain has 5041 configurations, and its minimum,
        # at (65, 3), lies past the first 4096 in enumeration order.
        rng = np.random.default_rng(41)
        domains = [random_domain(rng) for _ in range(10)]
        certs = [self._random_certificate(rng, dom.site_count) for dom in domains]
        domains.append(complete_domain(2, cap=70))
        certs.append(
            # (n0 - 65)^2 + (n1 - 3)^2 / 3 - 1, written with n^2 = n(n-1) + n
            QuadraticPolynomial(
                f0=Fraction(65**2 + 3) - 1,
                f1=np.array([Fraction(-129), Fraction(-5, 3)], dtype=object),
                f2=np.array([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 3)]], dtype=object),
            )
        )
        for dom, cert in zip(domains, certs):
            s = dom.site_count
            # invalid tables on purpose: the pairing sits far below -tol,
            # so only the worst value decides
            corr = CorrelationPair(rho1=np.zeros(s, dtype=int), rho2=-(10**7) * np.eye(s, dtype=int))
            worst = min(eval_quadratic(cert, config) for config in enumerate_configurations(dom))
            assert verify_certificate(dom, cert, corr, tol=-worst)
            assert not verify_certificate(dom, cert, corr, tol=-worst - Fraction(1, 10**6))
            floated = QuadraticPolynomial(
                f0=float(cert.f0), f1=cert.f1.astype(float), f2=cert.f2.astype(float)
            )
            assert verify_certificate(dom, floated, corr, tol=-float(worst) + 1e-9)
            assert not verify_certificate(dom, floated, corr, tol=-float(worst) - 1e-9)


class TestMinimalThirdMoment:
    def test_delta_at_empty(self):
        res = minimal_third_moment(single_site(3), corr_1site(0.0, 0.0))
        assert res.finite
        assert res.r_star == pytest.approx(0.0, abs=1e-12)

    def test_two_atom_attains_two(self):
        res = minimal_third_moment(single_site(4), corr_1site(1 / 3, 1.0))
        assert res.finite
        assert res.r_star == pytest.approx(2.0, abs=1e-9)
        corr, _ = two_atom_family(4, 3)
        status, value = oracle_min_third_moment(single_site(4), corr)
        assert status == "optimal" and value == 2

    def test_infeasible_instance_gives_certificate(self):
        res = minimal_third_moment(single_site(5), corr_1site(0.0, 1.0))
        assert not res.finite
        assert verify_certificate(single_site(5), res.certificate, corr_1site(0.0, 1.0), 1e-9)

    def test_witness_attains_optimum(self):
        corr, _ = two_atom_family(5, 2)
        res = minimal_third_moment(single_site(5), corr, RATIONAL)
        assert res.finite
        total = sum(
            w * (sum(c) * (sum(c) - 1) * (sum(c) - 2)) for c, w in res.witness.atoms
        )
        assert total == res.r_star

    def test_monotone_nonincreasing_in_cap(self):
        corr, _ = two_atom_family(4, 3)
        values = []
        for cap in (4, 5, 6, 7):
            res = minimal_third_moment(single_site(cap), corr, RATIONAL)
            assert res.finite
            values.append(res.r_star)
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_dual_cubic_certifies_optimality(self):
        corr, _ = two_atom_family(4, 3)
        res = minimal_third_moment(single_site(4), corr, RATIONAL)
        cubic = res.dual_cubic
        for config in enumerate_configurations(single_site(4)):
            assert cubic.evaluate(config) >= 0
        assert cubic.budget_pairing(corr, res.r_star) == 0
        assert cubic.budget_pairing(corr, res.r_star - 1) < 0

    def test_objective_matches_h_moment_past_int64(self):
        from realz.solver import _third_factorial_total

        configs = [(0, 0), (1, 2), (3, 3), (2**21, 7)]
        got = _third_factorial_total(np.array(configs, dtype=np.int64))
        ones = np.ones(2, dtype=np.int64)
        assert [int(v) for v in got] == [h_moment(c, ones, 3) for c in configs]


class TestOracleEquivalence:
    def test_float_and_rational_verdicts_agree(self):
        # production float mode vs production rational mode vs elimination
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 10:
            dom = random_domain(rng, max_sites=2, max_cap=2, allow_exclusion=False)
            if len(enumerate_configurations(dom)) > 8:
                continue
            dist = random_distribution(rng, dom, exact=True)
            corr = correlations_of(dist)
            if rng.random() < 0.5:
                rho2 = corr.rho2.copy()
                rho2[0, 0] = rho2[0, 0] + 7
                corr = CorrelationPair(rho1=corr.rho1, rho2=rho2)
            float_corr = CorrelationPair(
                rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float)
            )
            float_verdict = check_realizability(dom, float_corr).feasible
            rational_verdict = check_realizability(dom, corr, RATIONAL).feasible
            assert float_verdict == rational_verdict == oracle_realizable(dom, corr)
            checked += 1
