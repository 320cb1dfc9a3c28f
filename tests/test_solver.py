"""Realizability decisions, certificates, and third-moment minimization."""

import dataclasses
import inspect
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

import realz.solver

from realz import (
    CorrelationPair,
    DimensionError,
    Distribution,
    Domain,
    IterationLimitError,
    QuadraticPolynomial,
    RationalInputError,
    SolverOptions,
    ValidationError,
    bernoulli_product,
    check_realizability,
    check_realizability_stationary,
    correlations_of,
    FiniteGroup,
    enumerate_configurations,
    eval_quadratic,
    minimal_third_moment,
    pairing,
    simplex,
    torus_domain,
    translation_group,
    two_atom_family,
    verify_certificate,
)
from oracle import _labeled_triple_count, oracle_min_third_moment, oracle_realizable, oracle_system
from support import (
    complete_domain,
    drift_inputs,
    exact_workload_inputs,
    moved_density,
    near_boundary_inputs,
    pair_lattice_corr,
    plain_domain,
    random_distribution,
    random_domain,
    scaled_nearest_pairs,
    single_site,
)
from test_enumeration import reference_domains

RATIONAL = SolverOptions(arithmetic_mode="rational")


def corr_1site(rho1, rho2):
    return CorrelationPair(rho1=np.array([rho1]), rho2=np.array([[rho2]]))


def _hardcore_torus_case():
    """Mass on the excluded distance-1 pairs of the hard-core (3,3) torus."""
    domain = torus_domain((3, 3), exclusion_diameter=1.5)
    rho2 = np.where(domain.distance == 1, Fraction(1, 20), Fraction(0)).astype(object)
    return domain, [Fraction(1, 10)] * 9, rho2, translation_group((3, 3))


def _halved_pairs_torus_case():
    """Half the Bernoulli(1/2) pair table of the cap-1 (3,3) torus: with
    E[N] = 9/2, E[(N - 4)(N - 5)] = 9 - 36 + 20 < 0."""
    domain = torus_domain((3, 3), occupancy_cap=1)
    rho2 = np.where(domain.distance > 0, Fraction(1, 8), Fraction(0)).astype(object)
    return domain, [Fraction(1, 2)] * 9, rho2, translation_group((3, 3))


def _hardcore_range_case():
    """The (3,3) torus without nearest neighbours holds at most 3 particles,
    not 9: E[N] = 3 and E[N^2] = 12 break E[N (3 - N)] >= 0."""
    domain = torus_domain((3, 3), occupancy_cap=1, exclusion_diameter=1.2)
    rho2 = np.where(domain.distance > 1.2, Fraction(1, 4), Fraction(0)).astype(object)
    return domain, [Fraction(1, 3)] * 9, rho2, None


#: Inputs refuted before the LP, by the moment matrix or the count hull:
#: (domain, rho1, rho2, group).
MOMENT_MATRIX_REFUTATIONS = {
    "cap-0-site": (
        Domain(distance=[[0, 1], [1, 0]], occupancy_cap=(0, 1)),
        [Fraction(1, 2), Fraction(1, 4)],
        np.zeros((2, 2), dtype=int),
        None,
    ),
    "total-cap-1-pair-mass": (
        complete_domain(2, cap=2, total_cap=1),
        [Fraction(1, 4)] * 2,
        [[0, Fraction(1, 8)], [Fraction(1, 8), 0]],
        None,
    ),
    "total-exact-0-density": (single_site(2, total_exact=0), [Fraction(1, 2)], [[0]], None),
    "empty-space": (
        complete_domain(2, total_exact=3),
        [Fraction(1, 2)] * 2,
        np.zeros((2, 2), dtype=int),
        None,
    ),
    "hardcore-torus-group": _hardcore_torus_case(),
    # E[N] = 1 but E[N^2] = 9 > 8 E[N]: the count exceeds its range 0..8.
    "count-range-complete(4,c2)": (
        complete_domain(4, cap=2),
        [Fraction(1, 4)] * 4,
        np.full((4, 4), Fraction(1, 2), dtype=object),
        None,
    ),
    "count-gap-torus-group": _halved_pairs_torus_case(),
    "count-range-hardcore-torus": _hardcore_range_case(),
}

#: Nonzero ``f2`` entries of the certificate of each group case: the 9
#: pairs of one axis, each twice, or every pair for a quadratic in N.
GROUP_CERTIFICATE_SUPPORT = {"hardcore-torus-group": 2 * 9, "count-gap-torus-group": 9 * 9}


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

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    @pytest.mark.parametrize("case", sorted(MOMENT_MATRIX_REFUTATIONS))
    def test_moment_matrix_refutes_without_simplex(self, monkeypatch, case, opts):
        domain, rho1, rho2, group = MOMENT_MATRIX_REFUTATIONS[case]
        dtype = object if opts.rational else float
        corr = CorrelationPair(
            rho1=np.array([v if opts.rational else float(v) for v in rho1], dtype=dtype),
            rho2=np.array(
                [[v if opts.rational else float(v) for v in row] for row in rho2], dtype=dtype
            ),
        )

        def no_simplex(*args, **kwargs):
            raise AssertionError("the moment matrix should refute before the LP")

        monkeypatch.setattr(simplex, "solve", no_simplex)
        if group is None:
            res = check_realizability(domain, corr, opts)
        else:
            res = check_realizability_stationary(domain, corr, group, opts)
        assert not res.feasible
        cert = res.certificate
        assert verify_certificate(domain, cert, corr, tol=0 if opts.rational else 1e-9)
        if group is not None:
            for perm in group.elements:
                p = list(perm)
                assert (cert.f1[p] == cert.f1).all()
                assert (cert.f2[np.ix_(p, p)] == cert.f2).all()
            assert np.count_nonzero(cert.f2.astype(float)) == GROUP_CERTIFICATE_SUPPORT[case]

    @pytest.mark.parametrize(
        "rho1, rho2, feasible",
        [(0.5, 1e-15, True), (-1e-15, 0.0, True), (0.5, 1e-6, False), (-1e-6, 0.0, False)],
        ids=["tiny-capped-diagonal", "tiny-negative-density", "capped-diagonal", "negative-density"],
    )
    def test_float_moment_matrix_refutes_beyond_the_tolerance(self, rho1, rho2, feasible):
        # A float entry within the tolerance of a refuted sign cannot give a
        # certificate that replays, so the LP decides it instead.
        domain, corr = single_site(1), corr_1site(rho1, rho2)
        res = check_realizability(domain, corr)
        assert res.feasible == feasible
        if not feasible:
            assert verify_certificate(domain, res.certificate, corr, 1e-9)
            return
        got = correlations_of(res.distribution)
        assert abs(got.rho1[0] - rho1) <= 1e-15
        assert abs(got.rho2[0, 0] - rho2) <= 1e-15

    @pytest.mark.parametrize(
        "q, feasible, solved",
        [(Fraction(1, 2) - Fraction(1, 10**12), True, True), (Fraction(1, 2) - Fraction(1, 10**6), False, False)],
        ids=["within-the-tolerance", "beyond-the-tolerance"],
    )
    def test_float_count_gap_refutes_beyond_the_tolerance(self, monkeypatch, q, feasible, solved):
        # Two cap-1 sites with E[N] = 3/2: E[(N - 1)(N - 2)] = 2q - 1.  Within
        # the tolerance of 0 the hull's certificate cannot replay, so the LP
        # decides, and its witness reproduces the input within it.
        domain, corr = complete_domain(2, cap=1), pair_lattice_corr(0.75, float(q))
        calls = []
        solve = simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        res = check_realizability(domain, corr)
        assert res.feasible == feasible and bool(calls) == solved
        if not feasible:
            assert verify_certificate(domain, res.certificate, corr, 1e-9)
            assert pairing(res.certificate, corr) == pytest.approx(-1e-6, rel=1e-6)
            return
        got = correlations_of(res.distribution)
        assert np.abs(got.rho2 - corr.rho2).max() <= 1e-9

    @pytest.mark.parametrize(
        "rho1, rho2",
        [(1, 10**400), (10**400, 0), (Fraction(10**400, 3), Fraction(10**400, 7))],
        ids=["range", "gap", "fractions"],
    )
    def test_count_hull_compares_exact_entries_past_the_float_range(self, monkeypatch, rho1, rho2):
        # The count hull's pairings are exact, and never read as floats.
        def no_simplex(*args, **kwargs):
            raise AssertionError("the count hull should refute before the LP")

        monkeypatch.setattr(simplex, "solve", no_simplex)
        domain = single_site(2)
        corr = CorrelationPair(rho1=np.array([rho1], dtype=object), rho2=np.array([[rho2]], dtype=object))
        res = check_realizability(domain, corr, RATIONAL)
        assert not res.feasible
        assert all(type(c) in (int, Fraction) for c in res.certificate.coefficients())
        assert verify_certificate(domain, res.certificate, corr, tol=0)

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    def test_count_hull_never_refutes_a_law(self, monkeypatch, opts):
        # The tables of a law pass both count quadratics, so the LP decides
        # each one: on domains with exclusion, a particle cap or a fixed total.
        calls = []
        solve = simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda *args, **kwargs: calls.append(1) or solve(*args, **kwargs))
        rng = np.random.default_rng(37)
        kinds = set()
        for trial in range(60):
            domain = random_domain(rng, max_sites=4, max_cap=3)
            counts = enumerate_configurations(domain).sum(axis=1)
            if trial % 3 == 1:
                domain = dataclasses.replace(domain, total_cap=int(rng.integers(0, counts.max() + 1)))
            elif trial % 3 == 2:
                domain = dataclasses.replace(domain, total_exact=int(rng.choice(counts)))
            kinds.add((domain.exclusion_diameter is not None, domain.total_cap is not None, domain.total_exact is not None))
            corr = correlations_of(random_distribution(rng, domain, exact=opts.rational))
            before = len(calls)
            assert check_realizability(domain, corr, opts).feasible
            assert len(calls) == before + 1
        assert {(True, False, False), (False, True, False), (False, False, True)} <= kinds

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    @pytest.mark.parametrize(
        "case, kind, lower",
        [("mean-at-hi", "gap", False), ("mean-above-hi", "gap", True),
         ("one-count-below", "range", False), ("one-count-above", "gap", False)],
    )
    def test_count_hull_at_the_ends_of_the_attained_counts(self, monkeypatch, opts, case, kind, lower):
        # Where E[N] >= hi the gap is (N - hi)**2, where a bracket of the
        # nearest two counts gives (N - a)(N - hi); its pairing is no higher,
        # and lower when E[N] > hi.  One attained count gives (N - a)**2
        # under either rule.
        domain, rho1, q = {
            "mean-at-hi": (complete_domain(2, cap=1), Fraction(1), Fraction(1, 2)),  # E[N] = 2, Var N = -1
            "mean-above-hi": (complete_domain(2, cap=1), Fraction(3, 2), Fraction(1, 2)),  # densities above the caps
            "one-count-below": (complete_domain(2, cap=1, total_exact=1), Fraction(1, 4), Fraction(0)),
            "one-count-above": (complete_domain(2, cap=1, total_exact=1), Fraction(3, 4), Fraction(0)),
        }[case]
        number = (lambda v: v) if opts.rational else float
        corr = CorrelationPair(
            rho1=np.array([number(rho1)] * 2, dtype=object if opts.rational else float),
            rho2=np.array([[0, number(q)], [number(q), 0]], dtype=object if opts.rational else float),
        )
        margin = 0 if opts.rational else simplex.TOLERANCE

        def no_simplex(*args, **kwargs):
            raise AssertionError("the count hull should refute before the LP")

        monkeypatch.setattr(simplex, "solve", no_simplex)
        res = check_realizability(domain, corr, opts)
        assert not res.feasible
        assert verify_certificate(domain, res.certificate, corr, tol=margin)
        # The hull's first quadratic, unscaled, against the nearest-two rule's.
        X = enumerate_configurations(domain)
        orbits = realz.solver._orbits(2)
        _, i, j, _, _ = orbits
        b = [1, *corr.rho1.tolist(), *corr.rho2[i, j].tolist()]

        def no_matrix():
            raise AssertionError("the count hull should refute before the matrix is built")

        y = next(realz.solver._refutations(X.sum(axis=1), b, corr, orbits, margin, no_matrix))
        assert ("gap" if y[-1] > 0 else "range") == kind
        # Mapped as the solver maps them: over 1 in rational mode, else as floats.
        y, scale = (y, 1) if opts.rational else (list(map(float, y)), None)
        got = pairing(realz.solver._orbit_polynomial(y, orbits, normalize=False, scale=scale), corr)
        counts = sorted(set(X.sum(axis=1).tolist()))
        mean, falling = sum(corr.rho1.tolist()), sum(corr.rho2.ravel().tolist())
        k = min(max(bisect_right(counts, mean), 1), len(counts) - 1)
        a, c, lo, hi = counts[max(k - 1, 0)], counts[k], counts[0], counts[-1]
        nearest_two = falling + (1 - a - c) * mean + a * c if kind == "gap" else -falling + (lo + hi - 1) * mean - lo * hi
        assert got < nearest_two if lower else got == nearest_two
        assert got < -margin

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

    @pytest.mark.parametrize("huge", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
    def test_entries_past_the_float_range(self, huge):
        # An exact entry is finite however large: rational mode decides it,
        # and float mode, which reads every entry as a float, refuses it.
        corr = CorrelationPair(rho1=np.array([huge], dtype=object), rho2=np.array([[0]], dtype=object))
        corr.validate()
        for solve in (check_realizability, minimal_third_moment):
            with pytest.raises(ValidationError, match="^correlation entries must lie within the float range$"):
                solve(single_site(2), corr)
        res = check_realizability(single_site(2), corr, RATIONAL)
        assert not res.feasible
        assert verify_certificate(single_site(2), res.certificate, corr, 0)
        assert not minimal_third_moment(single_site(2), corr, RATIONAL).finite

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    def test_pivot_bound_is_one_constant(self, opts, monkeypatch):
        # In rational mode the float search's raise hands the program to the
        # exact engine, which raises past the same bound.
        assert [f.name for f in dataclasses.fields(SolverOptions)] == ["arithmetic_mode"]
        assert simplex.MAX_PIVOTS == 50_000
        # Phase 1 makes 5 pivots on this LP from the crash basis (on
        # complete(3)'s it makes none).
        domain = complete_domain(4)
        corr = correlations_of(bernoulli_product(domain, [Fraction(1, 2)] * 4))
        assert check_realizability(domain, corr, opts).feasible
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 1)
        with pytest.raises(IterationLimitError, match="exceeded 1 pivots"):
            check_realizability(domain, corr, opts)

    def test_float_bar_is_one_constant(self):
        # Float mode solves, refutes from the moment matrix and replays at
        # simplex.TOLERANCE; no option, parameter or public wrapper sets it.
        assert simplex.TOLERANCE == 1e-9
        with pytest.raises(TypeError):
            SolverOptions(tolerance=1e-7)
        assert "tolerance" not in inspect.signature(simplex.solve).parameters
        assert inspect.signature(verify_certificate).parameters["tol"].default == simplex.TOLERANCE
        assert "lp_feasibility" not in realz.__all__ and not hasattr(realz, "lp_feasibility")
        assert realz.LinearProgramResult is simplex.LinearProgramResult

    def test_negative_entries_are_valid_tables(self):
        # validate() checks finiteness only; the LP refutes a negative entry.
        corr = CorrelationPair(rho1=[-0.5], rho2=[[0.0]])
        corr.validate()
        assert not check_realizability(single_site(2), corr).feasible


    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    def test_count_hull_on_large_occupancies(self, opts):
        # One configuration of 3e9 particles: the count hull counts from the
        # least count, where a bincount from 0 took 3e9 + 1 entries (22 GiB).
        n = 3_000_000_000
        domain = single_site(n, total_exact=n)
        corr = CorrelationPair(rho1=np.array([n], dtype=object), rho2=np.array([[n * (n - 1)]], dtype=object))
        res = check_realizability(domain, corr, opts)
        assert res.feasible and res.distribution.occupancy.tolist() == [[n]]
        third = minimal_third_moment(domain, corr, opts)
        assert third.finite and third.r_star == (n * (n - 1) * (n - 2) if opts.rational else pytest.approx(2.7e28))

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    def test_count_hull_reads_int64_tables_exactly(self, opts):
        # rho1 sums to 10**19, past int64: summed in int64, the hull's mean
        # wrapped to -8446744073709551616.  Read exactly, it is the object
        # table's, and so is the certificate, (N - 2)**2 / 4.
        domain = complete_domain(2)
        certificates = []
        for dtype in (np.int64, object):
            corr = CorrelationPair(rho1=np.array([5 * 10**18] * 2, dtype=dtype), rho2=np.zeros((2, 2), dtype=dtype))
            res = check_realizability(domain, corr, opts)
            assert not res.feasible
            assert verify_certificate(domain, res.certificate, corr, tol=0 if opts.rational else 1e-9)
            cert = res.certificate
            certificates.append([cert.f0, cert.f1.tolist(), cert.f2.tolist()])
        assert certificates[0] == certificates[1] == [1, [-0.75] * 2, [[0.25] * 2] * 2]

    @pytest.mark.parametrize("opts", [SolverOptions(), RATIONAL], ids=["float", "rational"])
    def test_moments_past_int64_are_refused(self, opts):
        # n(n - 1) = 2**80 - 2**40 has no int64 moment row.
        n = 2**40
        domain = single_site(n, total_exact=n)
        corr = CorrelationPair(rho1=np.array([n], dtype=object), rho2=np.array([[n * (n - 1)]], dtype=object))
        for solve in (check_realizability, minimal_third_moment):
            with pytest.raises(ValidationError, match=f"^pair moments up to {n} \\* {n - 1} are past int64$"):
                solve(domain, corr, opts)

class TestVerifyCertificate:
    def test_constant_one_is_no_certificate(self):
        cert = QuadraticPolynomial(f0=1.0, f1=np.zeros(1), f2=np.zeros((1, 1)))
        assert not verify_certificate(single_site(5), cert, corr_1site(0.2, 0.1), 1e-9)

    def test_negative_diagonal_table_accepts_diagonal_observable(self):
        # invalid correlation table constructed on purpose: the factorial
        # diagonal observable pairs to -1 while staying nonnegative
        cert = QuadraticPolynomial(f0=0.0, f1=np.zeros(1), f2=np.array([[1.0]]))
        assert verify_certificate(single_site(5), cert, corr_1site(0.0, -1.0), 1e-9)

    def test_empty_space_round_trip(self):
        # No admissible configuration: every observable is vacuously
        # nonnegative, so the pairing alone decides.
        dom = complete_domain(2, total_exact=3)
        corr = pair_lattice_corr(0.5, 0.0)
        res = check_realizability(dom, corr)
        assert not res.feasible
        assert verify_certificate(dom, res.certificate, corr, 1e-9)
        assert not verify_certificate(dom, res.certificate, corr, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_tables_rejected(self, bad):
        for cert in (QuadraticPolynomial(f0=1.0, f1=[0.0], f2=[[0.0]]), QuadraticPolynomial(f0=1, f1=[0], f2=[[0]])):
            with pytest.raises(ValidationError, match="^correlation entries must be finite$"):
                verify_certificate(single_site(2), cert, corr_1site(bad, 0.0), 1e-9)

    @pytest.mark.parametrize(
        "f0, f1", [(1.0, math.inf), (1.0, -math.inf), (math.nan, 0.0), (Fraction(1), math.nan), (math.inf, 0)],
        ids=["inf", "minus-inf", "nan-f0", "exact-f0", "inf-f0"],
    )
    def test_nonfinite_coefficients_rejected(self, f0, f1):
        cert = QuadraticPolynomial(f0=f0, f1=np.array([f1], dtype=object), f2=[[0.0]])
        with pytest.raises(ValidationError, match="^certificate coefficients must be finite$"):
            verify_certificate(single_site(2), cert, corr_1site(0.5, 0.0), 1e-9)

    def test_entries_past_the_float_range(self):
        # Exact with exact replays exactly; an exact entry past the float
        # range that meets a float is refused, on either side.
        huge = np.array([10**400], dtype=object)
        exact_corr = CorrelationPair(rho1=huge, rho2=np.array([[0]], dtype=object))
        assert verify_certificate(single_site(2), QuadraticPolynomial(f0=2, f1=[-1], f2=[[0]]), exact_corr, 0)
        with pytest.raises(ValidationError, match="^correlation entries must lie within the float range$"):
            verify_certificate(single_site(2), QuadraticPolynomial(f0=2.0, f1=[-1.0], f2=[[0.0]]), exact_corr, 1e-9)
        cert = QuadraticPolynomial(f0=0, f1=-huge, f2=[[0]])
        with pytest.raises(ValidationError, match="^certificate coefficients must lie within the float range$"):
            verify_certificate(single_site(2), cert, corr_1site(0.5, 0.0), 1e-9)

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

    def test_wide_coefficients_replay_exactly(self):
        # Coefficients near 10**18 could overflow int64 on a configuration,
        # so the replay evaluates them as Python ints, still exactly.
        rng = np.random.default_rng(43)
        for _ in range(5):
            dom = random_domain(rng)
            small = self._random_certificate(rng, dom.site_count)
            factor = Fraction(10**18, 11)
            cert = QuadraticPolynomial(f0=small.f0 * factor, f1=small.f1 * factor, f2=small.f2 * factor)
            s = dom.site_count
            corr = CorrelationPair(rho1=np.zeros(s, dtype=int), rho2=-(10**40) * np.eye(s, dtype=object))
            worst = min(eval_quadratic(cert, config) for config in enumerate_configurations(dom))
            assert verify_certificate(dom, cert, corr, tol=-worst)
            assert not verify_certificate(dom, cert, corr, tol=-worst - Fraction(1, 10**6))

    def test_int64_tables_pair_without_wrapping(self):
        # The point mass at (k,) realizes these int64 tables, and 2**31 n(n - 1)
        # is nonnegative on every configuration, so it refutes nothing; its
        # int64 pairing 2**31 k (k - 1) wrapped to -9223231299366420480.
        k = 2**16 + 1
        domain = single_site(k)
        corr = CorrelationPair(rho1=np.array([k]), rho2=np.array([[k * (k - 1)]]))
        cert = QuadraticPolynomial(f0=0, f1=np.array([0]), f2=np.array([[2**31]]))
        assert check_realizability(domain, corr).feasible
        value = pairing(cert, corr)
        assert value == 2**31 * k * (k - 1) and type(value) is int
        assert not verify_certificate(domain, cert, corr)
        assert not verify_certificate(domain, cert, corr, tol=0)


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

    def test_objective_matches_h_moment_past_int64(self, monkeypatch):
        # The objective minimal_third_moment hands the moment LP, on rows
        # up to one whose N(N-1)(N-2) is past int64.
        objectives = []
        moment_lp = realz.solver._moment_lp

        def spy(*args, objective=None, **kwargs):
            objectives.append(objective)
            return moment_lp(*args, objective=objective, **kwargs)

        monkeypatch.setattr(realz.solver, "_moment_lp", spy)
        corr, _ = two_atom_family(4, 3)
        assert minimal_third_moment(single_site(4), corr, RATIONAL).finite
        configs = [(0, 0), (1, 2), (3, 3), (2**21, 7)]
        got = objectives[0](np.array(configs, dtype=np.int64))
        assert [int(v) for v in got] == [_labeled_triple_count(c) for c in configs]


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


def _spy_on_solves(monkeypatch) -> list:
    """Record the ``(A, b, objective)`` of every ``simplex.solve`` call."""
    calls, solve = [], simplex.solve

    def spy(A, b, objective=None, **kwargs):
        calls.append((A, b, objective))
        return solve(A, b, objective, **kwargs)

    monkeypatch.setattr(simplex, "solve", spy)
    return calls


def _lp_input(A, b, objective) -> tuple:
    """An LP input in a form that compares exactly: the matrix's bytes,
    dtype and shape, the right-hand side's values and the costs."""
    b = [v.item() if isinstance(v, np.generic) else v for v in b]
    return A.tobytes(), A.dtype, A.shape, b, None if objective is None else (objective.tobytes(), objective.dtype)


class TestOneBuilder:
    """Every check's LP comes from one orbit description, ``solver._orbits``,
    one builder, ``solver._orbit_moments``, and one right-hand side rule;
    without a group every orbit has one member."""

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_full_lps_equal_the_oracle_system(self, rational, monkeypatch):
        # Exclusion, total_cap, total_exact, caps 0-3 and empty spaces.
        # With no refutation before the LP every input reaches it.
        calls = _spy_on_solves(monkeypatch)
        monkeypatch.setattr(realz.solver, "_refutations", lambda *args: iter(()))
        opts = RATIONAL if rational else SolverOptions()
        rng, dropped = np.random.default_rng(61), 0
        for domain in reference_domains():
            s = domain.site_count
            # Eighths: a float entry is its exact Fraction.
            rho1, rho2 = rng.integers(0, 17, size=s), rng.integers(0, 17, size=(s, s))
            rho2 = rho2 + rho2.T
            scale = Fraction(1, 8) if rational else 1 / 8
            corr = CorrelationPair(rho1=rho1.astype(object) * scale, rho2=rho2.astype(object) * scale)
            if not rational:
                corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
            configs, A, b = oracle_system(domain, corr)
            # The presolve drops exactly the configurations with a positive
            # entry on a zero row (past the normalization row) and keeps
            # the rest in order.
            zero = [k for k in range(1, len(b)) if b[k] == 0]
            kept = [c for c in range(len(configs)) if not any(A[k][c] > 0 for k in zero)]
            dropped += len(configs) - len(kept)
            for check in (check_realizability, minimal_third_moment):
                calls.clear()
                check(domain, corr, opts)
                [(got_A, got_b, objective)] = calls
                assert got_A.dtype == np.int64 and got_A.shape == (len(A), len(kept))
                assert got_A.tolist() == [[row[c] for c in kept] for row in A]
                assert [Fraction(v) for v in got_b] == b
                if check is minimal_third_moment:
                    assert objective.dtype == np.int64
                    assert objective.tolist() == [_labeled_triple_count(configs[c]) for c in kept]
                else:
                    assert objective is None
        assert dropped > 0

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_one_element_group_runs_the_full_lp(self, rational, monkeypatch):
        # The orbit check under the identity alone: the same LP input and
        # the same answer as the full check, on a feasible table, one only
        # the LP refutes, and one the count hull refutes before it.
        calls = _spy_on_solves(monkeypatch)
        opts = RATIONAL if rational else SolverOptions()
        domains = [
            complete_domain(3, cap=2),
            complete_domain(4, exclusion_diameter=1.5),
            complete_domain(3, cap=2, total_cap=3),
            complete_domain(3, cap=3, total_exact=4),
            torus_domain((3, 2)),
        ]
        rng, solved = np.random.default_rng(67), []
        for domain in domains:
            s = domain.site_count
            corr = correlations_of(random_distribution(rng, domain, exact=True))
            tables = [corr, moved_density(corr), scaled_nearest_pairs(domain, corr, Fraction(1, 4))]
            identity = FiniteGroup(elements=(tuple(range(s)),))
            for table in tables:
                if not rational:
                    table = CorrelationPair(rho1=table.rho1.astype(float), rho2=table.rho2.astype(float))
                calls.clear()
                full = check_realizability(domain, table, opts)
                orbit = realz.check_realizability_stationary(domain, table, identity, opts)
                assert repr(orbit) == repr(full)
                assert len(calls) in (0, 2)
                assert [_lp_input(*call) for call in calls[:1]] == [_lp_input(*call) for call in calls[1:]]
                solved.append(len(calls) // 2)
        # Feasible and LP-refuted inputs reached the LP; hull-refuted ones did not.
        assert solved[0::3] == solved[1::3] == [1] * len(domains) and 0 in solved[2::3]


def _exact_proof_replays(check, domain, corr, result) -> bool:
    """A rational answer's proof, replayed exactly on the full space: the
    certificate by :func:`verify_certificate` at 0, the witness's tables
    equal to the input and, for a third-moment minimum, the dual cubic
    nonnegative on every configuration with a zero budget pairing."""
    feasible = result.feasible if check is check_realizability else result.finite
    if not feasible:
        return verify_certificate(domain, result.certificate, corr, tol=0)
    got = correlations_of(result.distribution if check is check_realizability else result.witness)
    if not (got.rho1.tolist() == corr.rho1.tolist() and got.rho2.tolist() == corr.rho2.tolist()):
        return False
    if check is check_realizability:
        return True
    cubic = result.dual_cubic
    values = realz.core._observable(enumerate_configurations(domain), cubic.quadratic, cubic.f3)[0]
    return bool((values >= 0).all()) and cubic.budget_pairing(corr, result.r_star) == 0


def _few_atom_tables() -> list:
    """``(domain, corr)``: the exact tables of a law on a few random
    configurations of each of ``reference_domains()`` with any, zero
    wherever the atoms leave a site or pair empty, and (past one site)
    their moved densities."""
    rng, tables = np.random.default_rng(73), []
    for domain in reference_domains():
        if len(enumerate_configurations(domain)):
            corr = correlations_of(random_distribution(rng, domain, exact=True))
            tables += [(domain, corr), (domain, moved_density(corr))] if domain.site_count > 1 else [(domain, corr)]
    return tables


class TestSupportPresolve:
    """A zero entry of ``b`` on a row with a nonzero entry forces every
    configuration with a positive entry there off the support: the LP runs
    without those columns, and its duals are lifted back."""

    def test_answers_equal_the_unreduced_lp(self, monkeypatch):
        # Rational checks on the few-atom tables and the near-boundary
        # probe, against the full LP solved on the solver's own builder;
        # every proof replays exactly.
        solve = simplex.solve
        calls = _spy_on_solves(monkeypatch)
        checks = (check_realizability, minimal_third_moment)
        inputs = [(check, domain, table) for domain, table in _few_atom_tables() for check in checks]
        inputs += near_boundary_inputs()
        reduced, verdicts = 0, set()
        for check, domain, corr in inputs:
            calls.clear()
            result = check(domain, corr, RATIONAL)
            X = enumerate_configurations(domain)
            s = domain.site_count
            M, _ = realz.solver._orbit_moments(X, realz.solver._orbits(s))
            i, j = np.triu_indices(s)
            b = [1, *corr.rho1.tolist(), *corr.rho2[i, j].tolist()]
            third = check is minimal_third_moment
            full = solve(M.T, b, realz.core._observable(X, None, 1)[0] if third else None, rational=True)
            feasible = result.finite if third else result.feasible
            assert feasible == full.feasible
            if third and feasible:
                assert result.r_star == full.objective_value
            assert _exact_proof_replays(check, domain, corr, result)
            reduced += any(A.shape[1] < len(X) for A, _, _ in calls)
            verdicts.add((feasible, bool(calls)))
        # Both verdicts come from the LP, and most LPs are reduced.
        assert {(True, True), (False, True)} <= verdicts and reduced > len(inputs) // 2

    def test_float_proofs_replay_within_the_tolerance(self, monkeypatch):
        # The same few-atom tables in float: every reduced LP's witness,
        # certificate and dual cubic replays within TOLERANCE on the full
        # space, and the least third moment is the unreduced LP's.
        solve, tol = simplex.solve, simplex.TOLERANCE
        calls = _spy_on_solves(monkeypatch)
        reduced = 0
        for domain, table in _few_atom_tables():
            corr = CorrelationPair(rho1=table.rho1.astype(float), rho2=table.rho2.astype(float))
            calls.clear()
            result = minimal_third_moment(domain, corr)
            reduced += bool(calls) and calls[0][0].shape[1] < len(enumerate_configurations(domain))
            if not result.finite:
                assert verify_certificate(domain, result.certificate, corr)
                continue
            got = correlations_of(result.witness)
            assert np.abs(got.rho1 - corr.rho1).max() <= tol and np.abs(got.rho2 - corr.rho2).max() <= tol
            X = enumerate_configurations(domain)
            i, j = np.triu_indices(domain.site_count)
            M, _ = realz.solver._orbit_moments(X, realz.solver._orbits(domain.site_count))
            full = solve(M.T, [1, *corr.rho1, *corr.rho2[i, j]], realz.core._observable(X, None, 1)[0])
            assert abs(result.r_star - full.objective_value) <= tol
            cubic = result.dual_cubic
            assert realz.core._observable(X, cubic.quadratic, cubic.f3)[0].min() >= -tol
            assert abs(cubic.budget_pairing(corr, result.r_star)) <= tol
        assert reduced > 20

    def test_lifted_certificates_are_group_invariant(self, monkeypatch):
        # Stationary tables of a law on configurations with no nearest
        # neighbours: their nearest-pair orbit row is zero, and forces the
        # orbits with a neighbouring pair off.  The orbit check and the
        # full check agree; their proofs replay exactly on the full space.
        domain = torus_domain((3, 3))
        group = translation_group((3, 3))
        X = enumerate_configurations(domain)
        apart = X[~((X[:, :, None] * X[:, None, :])[:, domain.distance == 1] > 0).any(axis=1)]
        calls = _spy_on_solves(monkeypatch)
        rng, verdicts = np.random.default_rng(79), set()
        for _ in range(6):
            rows = rng.choice(len(apart), size=3, replace=False)
            law = Distribution(domain, tuple((apart[k].tolist(), Fraction(1, 3)) for k in rows))
            corr = correlations_of(realz.symmetrize(law, group))
            for table in (corr, *(CorrelationPair(rho1=corr.rho1, rho2=corr.rho2 * t) for t in (Fraction(1, 2), 2))):
                full = check_realizability(domain, table, RATIONAL)
                calls.clear()
                orbit = check_realizability_stationary(domain, table, group, RATIONAL)
                # The nearest-pair orbit row drops the orbits that hold a neighbouring pair.
                assert all(A.shape[1] < len(enumerate_configurations(domain, group)) for A, _, _ in calls)
                assert orbit.feasible == full.feasible
                for result in (full, orbit):
                    assert _exact_proof_replays(check_realizability, domain, table, result)
                if not orbit.feasible:
                    assert group.fixes(orbit.certificate.f1, orbit.certificate.f2, tol=0)
                verdicts.add((orbit.feasible, bool(calls)))
        # Feasible and infeasible answers from the reduced orbit LP.
        assert {(True, True), (False, True)} <= verdicts

    def test_drift_ops_take_few_pivots(self, monkeypatch):
        # Four near-boundary full-float checks whose full LPs drifted
        # through 15,759-28,563 pivots: a zero entry leaves a few dozen
        # columns, and each answers as before in a handful of pivots.
        calls, solve = [], simplex.solve
        monkeypatch.setattr(simplex, "solve", lambda *args, **kwargs: calls.append(solve(*args, **kwargs)) or calls[-1])
        for domain, corr, feasible in drift_inputs():
            calls.clear()
            result = check_realizability(domain, corr)
            assert result.feasible == feasible
            assert len(calls) == 1 and calls[0].iterations < 200
            if feasible:
                got = correlations_of(result.distribution)
                assert np.abs(got.rho1 - corr.rho1).max() <= simplex.TOLERANCE
                assert np.abs(got.rho2 - corr.rho2).max() <= simplex.TOLERANCE


def _per_orbit_polynomial(y, site_orbits, pair_orbits, s, exact) -> QuadraticPolynomial:
    """Row duals mapped orbit by orbit, member by member: the reference for
    ``solver._orbit_polynomial``."""
    dtype = object if exact else float
    f1, f2 = np.zeros(s, dtype=dtype), np.zeros((s, s), dtype=dtype)
    for value, orbit in zip(y[1:], site_orbits):
        f1[list(orbit)] = value
    for value, orbit in zip(y[1 + len(site_orbits) :], pair_orbits):
        for i, j in orbit:
            f2[i, j] = f2[j, i] = value if i == j else value / 2
    return QuadraticPolynomial(f0=y[0], f1=f1, f2=f2)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
def test_orbit_polynomial_matches_the_per_orbit_loop(exact):
    # Equal values and equal entry types, with and without a group, on
    # groups that are not transitive and on no sites; in rational mode the
    # duals are integers over one scale, as the exact LP hands them over,
    # against the loop on their Fractions.
    rng = np.random.default_rng(73)
    groups = [None, translation_group((4,)), translation_group((3, 3)), translation_group((1,)),
              FiniteGroup(elements=((),)), FiniteGroup(elements=((0, 1, 2, 3), (0, 3, 2, 1)))]
    for group in groups:
        s = 5 if group is None else group.degree
        if group is None:
            site_orbits, pair_orbits = [(i,) for i in range(s)], [((i, j),) for i in range(s) for j in range(i, s)]
        else:
            site_orbits, pair_orbits = group.site_orbits(), group.pair_orbits()
        orbits = realz.solver._orbits(s, None if group is None else group._orbit_labels())
        rows = 1 + len(site_orbits) + len(pair_orbits)
        if exact:
            y, scale = rng.integers(-9, 10, rows).tolist(), int(rng.integers(1, 7))
            values = [Fraction(v, scale) for v in y]
        else:
            y, scale = rng.normal(size=rows).tolist(), None
            values = y
        got = realz.solver._orbit_polynomial(y, orbits, normalize=False, scale=scale)
        want = _per_orbit_polynomial(values, site_orbits, pair_orbits, s, exact)
        assert got.f0 == want.f0 and type(got.f0) is type(want.f0)
        for a, b in ((got.f1, want.f1), (got.f2, want.f2)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()
            assert list(map(type, a.flat)) == list(map(type, b.flat))


def _orbit_lists(orbits: tuple) -> tuple:
    """The site orbits, the pair orbits and the site count of
    ``solver._orbits``'s description, as the per-orbit loop takes them."""
    sites, i, j, site_starts, pair_starts = (part.tolist() for part in orbits)
    pairs = list(zip(i, j))
    site_orbits = [tuple(sites[a:b]) for a, b in zip(site_starts, [*site_starts[1:], len(sites)])]
    pair_orbits = [tuple(pairs[a:b]) for a, b in zip(pair_starts, [*pair_starts[1:], len(pairs)])]
    return site_orbits, pair_orbits, len(sites)


def _normalized(cert: QuadraticPolynomial) -> QuadraticPolynomial:
    """A certificate scaled so its largest coefficient magnitude is one,
    rebuilt from its coefficient lists: with the per-orbit loop, the
    two-step reference for the normalizing ``solver._orbit_polynomial``."""
    scale = max(abs(c) for c in cert.coefficients())
    if scale == 0 or scale == 1:
        return cert
    exact = isinstance(scale, (int, Fraction))
    if exact:
        scale = Fraction(scale)
    dtype = object if exact else float
    return QuadraticPolynomial(
        f0=cert.f0 / scale,
        f1=np.array([v / scale for v in cert.f1.tolist()], dtype=dtype),
        # Shaped, for no sites: an empty list of rows has one dimension.
        f2=np.array([[v / scale for v in row] for row in cert.f2.tolist()], dtype=dtype).reshape(cert.f2.shape),
    )


def _entries(poly: QuadraticPolynomial) -> tuple:
    """The dtypes, then every coefficient's type and repr, which gives a
    float's bits and tells -0.0 from 0.0."""
    return poly.f1.dtype, poly.f2.dtype, [(type(v), repr(v)) for v in poly.coefficients()]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
def test_orbit_polynomial_normalizes_as_the_two_step_map(exact):
    # On 0, 1, 4 and 9 sites, with one-member orbits and translation
    # orbits: random duals, zero duals and unit duals on every row, both
    # signs; in rational mode integers over one scale (units over 1 and
    # over 3), as the exact LP hands them over, against the two-step map
    # of their Fractions.  An off-diagonal unit halves to 1/2, the scale; a
    # unit elsewhere is its own scale and leaves the duals as they are.
    rng = np.random.default_rng(83)
    for s, group in ((0, None), (1, None), (4, None), (9, None), (0, FiniteGroup(elements=((),))),
                     (1, translation_group((1,))), (4, translation_group((4,))), (9, translation_group((3, 3)))):
        if group is None:
            site_orbits, pair_orbits = [(i,) for i in range(s)], [((i, j),) for i in range(s) for j in range(i, s)]
        else:
            site_orbits, pair_orbits = group.site_orbits(), group.pair_orbits()
        orbits = realz.solver._orbits(s, None if group is None else group._orbit_labels())
        rows = 1 + len(site_orbits) + len(pair_orbits)
        if exact:
            duals = [(rng.integers(-9, 10, rows).tolist(), int(d)) for d in rng.integers(1, 7, 2)] + [([0] * rows, 1)]
            units, zero = [(sign * unit, unit) for sign in (1, -1) for unit in (1, 3)], 0
        else:
            duals = [rng.normal(size=rows).tolist(), (1e-300 * rng.normal(size=rows)).tolist(), [0.0] * rows]
            duals, units, zero = [(y, None) for y in duals], [(sign, None) for sign in (1.0, -1.0)], 0.0
        for row in range(rows):
            for unit, scale in units:
                duals.append(([unit if k == row else zero for k in range(rows)], scale))
        for y, scale in duals:
            values = y if scale is None else [Fraction(v, scale) for v in y]
            want = _normalized(_per_orbit_polynomial(values, site_orbits, pair_orbits, s, exact))
            assert _entries(realz.solver._orbit_polynomial(y, orbits, scale=scale)) == _entries(want)


@pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
def test_one_construction_per_certificate(rational, monkeypatch):
    # The count gap (N - 1)(N - 2), whose largest dual is 2, refutes the
    # 2-site table before the LP; the 3-site table passes every refutation
    # before it (n_0 = n_1 and n_0 = n_2 almost surely, yet E[n_1 n_2] = 0)
    # and is refuted by the LP's Farkas dual.  A certificate is built by
    # the public constructor or by the package's unchecked one.
    built, solved = [], []
    polynomial, solve = realz.solver.QuadraticPolynomial, realz.solver.simplex.solve
    of, validate = polynomial._of, polynomial.__post_init__
    monkeypatch.setattr(polynomial, "_of", lambda *args: built.append(1) or of(*args))
    monkeypatch.setattr(polynomial, "__post_init__", lambda self: built.append(1) or validate(self))
    monkeypatch.setattr(realz.solver.simplex, "solve", lambda *args, **kw: solved.append(1) or solve(*args, **kw))
    opts = SolverOptions(arithmetic_mode="rational" if rational else "float")
    half = Fraction(1, 2) if rational else 0.5
    rho2 = np.array([[0, half, half], [half, 0, 0], [half, 0, 0]], dtype=object if rational else float)
    farkas = CorrelationPair(rho1=np.array([half] * 3, dtype=rho2.dtype), rho2=rho2)
    gap = CorrelationPair(rho1=np.array([3 * half / 2] * 2, dtype=rho2.dtype),
                          rho2=4 * half / 5 * (1 - np.eye(2, dtype=int)))
    for domain, corr, lp in ((complete_domain(2), gap, 0), (complete_domain(3), farkas, 1)):
        built.clear(), solved.clear()
        res = check_realizability(domain, corr, opts)
        assert not res.feasible and verify_certificate(domain, res.certificate, corr, 0 if rational else 1e-9)
        assert (built, len(solved)) == ([1], lp)


def _spy_on_builds(monkeypatch) -> tuple:
    """``(built, solved)``: one entry per moment matrix built and per
    ``simplex.solve`` call (:func:`_spy_on_solves`) from here on."""
    built, build = [], realz.solver._orbit_moments
    monkeypatch.setattr(realz.solver, "_orbit_moments", lambda *args: built.append(1) or build(*args))
    return built, _spy_on_solves(monkeypatch)


def _answer(result) -> list:
    """A rational check's verdict, certificate and witness: every value
    with its type, atoms in order."""
    typed = lambda values: [(type(v), v) for v in values]
    cert, law = result.certificate, result.distribution
    return [
        result.feasible,
        None if cert is None else typed(cert.coefficients()),
        None if law is None else [(config, type(w), w) for config, w in law.atoms],
    ]


def test_handed_over_tables_decide_as_the_public_ones():
    # correlations_of hands its tables over with its law's scale, which
    # need not be their least one; the public constructor finds the least.
    # On every reference domain the rational check answers both alike, on
    # a law's tables from the domain itself (feasible) and from a roomier
    # domain (often infeasible there).
    rng = np.random.default_rng(47)
    verdicts = set()
    for domain in reference_domains():
        s = domain.site_count
        laws = [random_distribution(rng, complete_domain(s, cap=3), exact=True)]
        if len(enumerate_configurations(domain)):
            laws.append(random_distribution(rng, domain, exact=True))
        for law in laws:
            handed = correlations_of(law)
            public = CorrelationPair(rho1=handed.rho1.copy(), rho2=handed.rho2.copy())
            got, want = (check_realizability(domain, corr, RATIONAL) for corr in (handed, public))
            assert _answer(got) == _answer(want)
            verdicts.add(got.feasible)
    assert verdicts == {True, False}


class TestRefutationsBeforeTheMatrix:
    """The refutations before the LP: a negative entry and the count hull
    before the moment matrix is built, then the zero columns of the one
    matrix that the LP reads."""

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_hull_refuted_tables_build_no_matrix(self, rational, monkeypatch):
        # Three quarters of the Bernoulli(1/2) pair table: the particle
        # count's variance is negative, and the count hull refutes it with
        # no moment matrix.  The feasible table builds one, for the LP.
        built, solved = _spy_on_builds(monkeypatch)
        half = Fraction(1, 2) if rational else 0.5
        opts = SolverOptions(arithmetic_mode="rational" if rational else "float")
        torus = torus_domain((3, 3))
        corr = correlations_of(bernoulli_product(torus, [half] * 9))
        hull = CorrelationPair(rho1=corr.rho1, rho2=corr.rho2 * (Fraction(3, 4) if rational else 0.75))
        res = check_realizability(torus, hull, opts)
        assert not res.feasible and verify_certificate(torus, res.certificate, hull, tol=0 if rational else 1e-9)
        assert (built, len(solved)) == ([], 0)
        assert check_realizability(torus, corr, opts).feasible and (built, len(solved)) == ([1], 1)

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_a_table_refuted_by_a_zero_column_and_the_hull_gets_the_hulls_certificate(self, rational, monkeypatch):
        # Two cap-1 sites with mass on the (0, 0) diagonal, whose moment is
        # 0 on every configuration, and E[N(N - 1)] = 9/5 > E[N] = 1: the
        # range quadratic -N(N - 1) + N refutes it before the matrix is
        # built, where the zero column's dual gave -n_0(n_0 - 1).
        built, solved = _spy_on_builds(monkeypatch)
        number = (lambda v: v) if rational else float
        dtype = object if rational else float
        corr = CorrelationPair(
            rho1=np.array([number(Fraction(1, 2))] * 2, dtype=dtype),
            rho2=np.array([[number(Fraction(3, 10)), number(Fraction(3, 4))], [number(Fraction(3, 4)), 0]], dtype=dtype),
        )
        domain = complete_domain(2, cap=1)
        res = check_realizability(domain, corr, SolverOptions(arithmetic_mode="rational" if rational else "float"))
        assert (built, len(solved)) == ([], 0)
        cert = res.certificate
        assert not res.feasible and verify_certificate(domain, cert, corr, tol=0 if rational else 1e-9)
        assert [cert.f0, cert.f1.tolist(), cert.f2.tolist()] == [0, [1, 1], [[-1, -1], [-1, -1]]]
        assert all(type(c) is (Fraction if rational else float) for c in cert.coefficients())

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("case", ["hardcore-neighbour-pair", "cap-1-diagonal", "cap-0-site"])
    def test_zero_column_refutations_build_the_matrix_once(self, rational, case, monkeypatch):
        # Each table passes the count hull, and has a positive entry on a
        # row whose moment is 0 on every configuration.
        built, solved = _spy_on_builds(monkeypatch)
        eighth = Fraction(1, 8)
        domain, rho1, rho2, row = {
            # Pairs of the L1 (3,3) torus at distance 1 are excluded;
            # E[N] = 9/8 and Var N = 135/64 sit on the hull's upper bound.
            "hardcore-neighbour-pair": (torus_domain((3, 3), exclusion_diameter=1.5), [eighth] * 9,
                                        (1 - np.eye(9, dtype=int)) * Fraction(1, 32), (0, 1)),
            "cap-1-diagonal": (complete_domain(2, cap=1), [2 * eighth] * 2, [[Fraction(1, 10), 0], [0, 0]], (0, 0)),
            "cap-0-site": (Domain(distance=[[0, 1], [1, 0]], occupancy_cap=(1, 0)), [2 * eighth, eighth],
                           np.zeros((2, 2), dtype=int), 1),
        }[case]
        dtype = object if rational else float
        number = (lambda v: v) if rational else float
        corr = CorrelationPair(rho1=np.array([number(v) for v in rho1], dtype=dtype),
                               rho2=np.array([[number(v) for v in r] for r in np.asarray(rho2).tolist()], dtype=dtype))
        opts, tol = SolverOptions(arithmetic_mode="rational" if rational else "float"), 0 if rational else 1e-9
        # The torus_domain takes its translations, which fix the table; a
        # plain Domain of its distances keeps every pair its own row.
        plain = plain_domain(domain)
        res = check_realizability(plain, corr, opts)
        assert (built, len(solved)) == ([1], 0)
        cert = res.certificate
        assert not res.feasible and verify_certificate(plain, cert, corr, tol=tol)
        # Minus the unit dual of that row, normalized.
        if isinstance(row, int):
            assert cert.f1.tolist() == [-(k == row) for k in range(len(cert.f1))] and not cert.f2.any()
        else:
            unit = np.zeros(cert.f2.shape, dtype=int)
            unit[row] = unit[row[::-1]] = -1
            assert cert.f2.tolist() == unit.tolist() and not cert.f1.any()
        assert cert.f0 == 0
        if case == "hardcore-neighbour-pair":
            # Minus the indicator of the neighbour pair's orbit, the row of
            # the orbit LP, normalized.
            built.clear()
            res = check_realizability(domain, corr, opts)
            assert (built, len(solved)) == ([1], 0)
            cert = res.certificate
            assert not res.feasible and verify_certificate(domain, cert, corr, tol=tol)
            assert verify_certificate(plain, cert, corr, tol=tol)
            orbit = next(orbit for orbit in translation_group((3, 3)).pair_orbits() if row in orbit)
            indicator = np.zeros(cert.f2.shape, dtype=int)
            for a, b in orbit:
                indicator[a, b] = indicator[b, a] = -1
            assert cert.f2.tolist() == indicator.tolist() and not cert.f1.any() and cert.f0 == 0

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("grouped", [False, True], ids=["full", "orbit"])
    def test_an_empty_space_falls_to_the_normalization_row(self, rational, grouped, monkeypatch):
        # Three particles on two cap-1 sites: no configuration, so every
        # column of the matrix is zero, and -1 refutes the normalization.
        built, solved = _spy_on_builds(monkeypatch)
        domain = torus_domain((2,), total_exact=3)
        opts = SolverOptions(arithmetic_mode="rational" if rational else "float")
        corr = pair_lattice_corr(0.5, 0.25)
        if rational:
            corr = CorrelationPair(rho1=np.array([Fraction(1, 2)] * 2, dtype=object),
                                   rho2=np.array([[0, Fraction(1, 4)], [Fraction(1, 4), 0]], dtype=object))
        if grouped:
            res = check_realizability_stationary(domain, corr, translation_group((2,)), opts)
        else:
            res = check_realizability(domain, corr, opts)
        assert (built, len(solved)) == ([1], 0)
        cert = res.certificate
        assert not res.feasible and verify_certificate(domain, cert, corr, tol=0 if rational else 1e-9)
        assert cert.f0 == -1 and not cert.f1.any() and not cert.f2.any()
        assert type(cert.f0) is (Fraction if rational else float)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SolverOptions(arithmetic_mode="decimal"), ValidationError, "unknown arithmetic mode 'decimal'"),
        (lambda: verify_certificate(complete_domain(2), QuadraticPolynomial(f0=1.0, f1=[0.0], f2=[[0.0]]),
                                    pair_lattice_corr(0.5, 0.2), 1e-9),
         DimensionError, "certificate, correlations and domain disagree on size"),
    ],
    ids=["arithmetic-mode", "certificate-size"],
)
def test_refusals(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_integer_answers_map_as_their_fractions(monkeypatch):
    # The exact LP hands its duals over as integers over d, and the
    # refutations theirs over 1: every certificate and third-moment dual
    # of the benchmark's exact checks and of the near-boundary probe equals
    # the map of the same duals as Fractions, integer form included.  Each
    # witness law's integer form is the one the public constructor finds.
    calls, orbit_polynomial = [], realz.solver._orbit_polynomial

    def recording(y, orbits, normalize=True, scale=None):
        poly = orbit_polynomial(y, orbits, normalize, scale)
        calls.append((y, orbits, normalize, scale, poly))
        return poly

    monkeypatch.setattr(realz.solver, "_orbit_polynomial", recording)
    laws = []
    for check, domain, corr in exact_workload_inputs() + near_boundary_inputs():
        result = check(domain, corr, RATIONAL)
        laws.append(result.distribution if check is check_realizability else result.witness)
    monkeypatch.undo()
    assert {scale == 1 for *_, scale, _ in calls} == {True, False}
    assert {normalize for _, _, normalize, _, _ in calls} == {True, False}
    for y, orbits, normalize, scale, poly in calls:
        assert scale is not None and all(type(v) is int for v in y)
        want = _per_orbit_polynomial([Fraction(v, scale) for v in y], *_orbit_lists(orbits), exact=True)
        want = _normalized(want) if normalize else want
        assert _entries(poly) == _entries(want) and poly._integers == want._integers
    laws = [law for law in laws if law is not None]
    assert len(laws) > 100
    for law in laws:
        assert law._integers == Distribution(law.domain, law.atoms)._integers


def test_rational_answers_read_only_the_integer_hand_over(monkeypatch):
    # A rational LP result that lost its integer hand-over, as a rebuilt
    # dataclass does, is refused rather than read as floats.  Float mode
    # reads a witness off its own hand-over, the solution's array, so a
    # rebuilt feasible answer is refused too; a Farkas dual is read off
    # the fields, so infeasible inputs answer as before.
    inputs = [(check, domain, corr) for check, domain, corr in exact_workload_inputs() if check is check_realizability]
    floats = [check_realizability(domain, corr).feasible for _, domain, corr in inputs]
    assert set(floats) == {True, False}
    solved, solve = [], realz.solver.simplex.solve
    monkeypatch.setattr(
        realz.solver.simplex, "solve", lambda *args, **kwargs: solved.append(1) or dataclasses.replace(solve(*args, **kwargs))
    )
    for (_, domain, corr), feasible in zip(inputs, floats):
        if feasible:
            with pytest.raises(TypeError):
                check_realizability(domain, corr)
        else:
            assert not check_realizability(domain, corr).feasible
    floated, refused = len(solved), 0
    for _, domain, corr in inputs:
        calls = len(solved)
        try:
            check_realizability(domain, corr, RATIONAL)
        except TypeError:
            refused += 1
        else:
            assert len(solved) == calls  # answered before the LP
    assert refused == len(solved) - floated > 0


def test_zero_columns_are_read_while_the_matrix_is_built():
    # The flags _orbit_moments records block by block are the built
    # matrix's nonzero columns, with and without a group's orbits.
    zero = set()
    for domain in reference_domains():
        X = enumerate_configurations(domain)
        X = X.astype(np.min_scalar_type(-int(X.max(initial=0)) - 1))  # narrow, as the LP reads it
        s = domain.site_count
        for group in (None, translation_group((s,))):
            orbits = realz.solver._orbits(s, None if group is None else group._orbit_labels())
            M, nonzero = realz.solver._orbit_moments(X, orbits)
            assert nonzero.tolist() == M.any(axis=0).tolist()
            zero.add(bool((~nonzero).any()))
    assert zero == {True, False}


class TestSetUp:
    """The fixed cost of a check: the count hull's bracket by clamping,
    the orbit description built once per site count, and the LP's read
    of the enumerated rows."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_count_bracket_equals_the_battery_rule(self, exact):
        """``_count_bracket`` is ``conditions._extremes`` on the counts
        attained in ``X``, for means below, inside and above them: on every
        domain of ``reference_domains()`` (total_exact and exclusion among
        them) and on a translation group's orbit representatives."""
        cases = [(dom, None) for dom in reference_domains()]
        for dims, kwargs in (((3, 3), {}), ((4,), {"occupancy_cap": 2, "total_cap": 3}),
                             ((3, 3), {"total_exact": 4}), ((4, 4), {"exclusion_diameter": 1.5})):
            cases.append((torus_domain(dims, **kwargs), translation_group(dims)))
        kinds = set()
        for dom, group in cases:
            X = realz.enumeration.enumerate_configurations(dom, group, _narrow=True)
            if not len(X):
                continue
            attained = sorted(set(X.sum(axis=1).tolist()))
            lo, hi = attained[0], attained[-1]
            kinds.add("total_exact" if dom.total_exact is not None else "exclusion" if dom.exclusion_diameter else "caps")
            kinds.add("group" if group is not None else "full")
            kinds.add("one count" if lo == hi else "range")
            for mean in (Fraction(k, 3) for k in range(3 * lo - 7, 3 * hi + 8)):
                total, scale = (mean.numerator, mean.denominator) if exact else (float(mean), 1)
                V = np.array([attained])
                want = realz.conditions._extremes(V, np.array([mean if exact else float(mean)], dtype=object if exact else float))
                assert list(realz.solver._count_bracket(X.sum(axis=1), total, scale)) == want[0].tolist()
        assert kinds == {"total_exact", "exclusion", "caps", "group", "full", "one count", "range"}

    def test_plain_orbits_are_built_once_and_refuse_writes(self):
        for s in (0, 1, 4):
            orbits = realz.solver._orbits(s)
            assert realz.solver._orbits(s) is orbits
            sites, i, j, site_starts, pair_starts = orbits
            assert orbits.sizes.tolist() == [1] * (s + len(i))
            for array in (*orbits, orbits.sizes, orbits.offsets, orbits.halved, orbits.where):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
        # Under a group the description is the group's, and its own.
        group = translation_group((4,))
        orbits = realz.solver._orbits(4, group._orbit_labels())
        assert orbits is not realz.solver._orbits(4, group._orbit_labels())
        assert orbits.sizes.tolist() == [4, 4, 4, 2]

    @pytest.mark.parametrize("grouped", [False, True], ids=["full", "orbit"])
    def test_callers_get_their_own_rows_after_a_check_read_the_kept_ones(self, grouped, monkeypatch):
        """The LP reads the memo's read-only narrow rows with no copy, and
        ``enumerate_configurations`` still hands every caller a fresh
        writable int64 array, whose changes no later check sees.  The
        torus's distances and caps on a plain domain, so that the full check
        keeps the unreduced LP and one kept space."""
        dom = plain_domain(torus_domain((3, 3)))
        group = translation_group((3, 3)) if grouped else None
        corr = correlations_of(bernoulli_product(dom, [Fraction(1, 3)] * 9))
        read, build = [], realz.solver._orbit_moments
        monkeypatch.setattr(realz.solver, "_orbit_moments", lambda X, orbits: read.append(X) or build(X, orbits))

        def answer():
            res = check_realizability_stationary(dom, corr, group, RATIONAL) if grouped else check_realizability(dom, corr, RATIONAL)
            law = res.distribution
            return law.atoms, law._integers

        first = answer()
        ((kept, _),) = realz.enumeration._MEMO.entries.values()
        assert read[0] is kept and not kept.flags.writeable and kept.dtype == np.uint8
        X = enumerate_configurations(dom, group)
        assert X.dtype == np.int64 and X.flags.writeable and not np.shares_memory(X, kept)
        assert X.tolist() == kept.tolist()
        X[:] = 1
        assert answer() == first
        assert read[1] is kept and enumerate_configurations(dom, group).tolist() == kept.tolist()
