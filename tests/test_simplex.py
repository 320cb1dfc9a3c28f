"""Simplex kernel: feasibility, optimality, duals, Farkas certificates."""

import contextlib
import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest

import realz
from realz import (
    CorrelationPair,
    DimensionError,
    IterationLimitError,
    RationalInputError,
    SolverOptions,
    UnboundedObjectiveError,
    ValidationError,
    bernoulli_product,
    hardcore_gibbs,
    check_realizability,
    check_realizability_stationary,
    correlations_of,
    minimal_third_moment,
    torus_domain,
    translation_group,
    truncated_poisson_product,
    two_atom_family,
    verify_certificate,
)
from realz.simplex import solve
from oracle import fm_feasible, fm_minimize
from support import (
    NEAR_BOUNDARY_DOMAINS,
    complete_domain,
    exact_workload_inputs,
    moved_density,
    near_boundary_input,
    near_boundary_inputs,
    plain_domain,
    random_distribution,
    scaled_nearest_pairs,
)
from test_enumeration import reference_domains

RATIONAL = SolverOptions(arithmetic_mode="rational")

#: Beale's cycling-prone instance ``(A, b, c)``, each row and the costs
#: times the lcm of their denominators (100, 50, 1; 100): min c.x over
#: A x = b, x >= 0 is -5, Beale's -1/20 times 100.
BEALE = (
    [[25, -6000, -4, 900, 100, 0, 0], [25, -4500, -1, 150, 0, 50, 0], [0, 0, 1, 0, 0, 0, 1]],
    [0, 0, 1],
    [-75, 15000, -2, 600, 0, 0, 0],
)


@contextlib.contextmanager
def starting_rule(rule):
    """Start every simplex built inside on ``rule``, the float search and
    the exact engine alike.  ``solve`` has no pivot-rule option: outside
    this, Bland's rule runs only after the stall guard fires."""
    init, built = realz.simplex._Pivots.__init__, []

    def forced(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.rule = rule
        built.append(type(self).__name__)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realz.simplex._Pivots, "__init__", forced)
        yield built
    assert built, "no simplex ran"


@contextlib.contextmanager
def float_search_ends_on(basis, infeasible, inverted=False):
    """The rational float search ends on ``basis`` with the verdict
    ``infeasible``, at once; the exact engine's phases run as they are.
    With ``inverted`` the search holds the float inverse and the
    determinant of a nonsingular ``basis``, as a search that pivoted there
    would; else it keeps the slack basis's."""

    def forced(lp):
        lp.basis = np.array(basis)
        B = lp.At[lp.basis, : lp.m].T
        if inverted and np.linalg.matrix_rank(B) == lp.m:
            lp.K[: lp.m, : lp.m], lp.det = np.linalg.inv(B), np.linalg.det(B)
        return infeasible

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realz.simplex._Revised, "two_phase", forced)
        yield


@pytest.fixture
def rule(request):
    """The rule of an indirect ``rule`` parameter, forced for the test;
    the fixture's value lists the class of every simplex built."""
    with starting_rule(request.param) as built:
        yield built


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class TestTrivial:
    def test_single_equation_feasible(self):
        res = solve([[1]], [1.0])
        assert res.feasible
        assert res.solution == (1.0,)

    def test_single_equation_infeasible(self):
        # x >= 0 cannot reach -1; the Farkas vector refutes it
        res = solve([[1]], [-1.0])
        assert not res.feasible
        y = res.farkas_dual
        assert y[0] * 1.0 >= -1e-9
        assert y[0] * -1.0 < 0

    def test_row_count_must_match_right_hand_side(self):
        with pytest.raises(DimensionError):
            solve([[1.0]], [1.0, 2.0])

    def test_empty_system(self):
        res = solve([], [], objective=[1, 2])
        assert res.feasible
        assert res.objective_value == 0.0


class TestOptimization:
    def test_known_optimum_with_duals(self):
        # min x0 + 2 x1 s.t. x0 + x1 = 1
        res = solve([[1, 1]], [1.0], objective=[1, 2])
        assert res.feasible
        assert res.objective_value == pytest.approx(1.0)
        assert res.solution[0] == pytest.approx(1.0)
        # strong duality: y.b equals the optimum
        assert dot(res.dual, [1.0]) == pytest.approx(1.0)

    def test_degenerate_instance_terminates_with_dantzig(self):
        # Beale's instance cycles under textbook Dantzig pivoting; this one
        # reaches the optimum (the stall-guard test below forces the fallback).
        res = solve(*BEALE)
        assert res.feasible
        assert res.objective_value == pytest.approx(-5)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_stall_guard_falls_back_to_bland(self, exact):
        # With no stalled pivot allowed, the first pivot without progress
        # hands the search to Bland's rule, which must reach the optimum.
        A, b, c = map(np.array, BEALE)
        if exact:
            lp = realz.simplex._Exact(A, b, c)
            lp.stall_limit = 0
            value = lp.run().objective_value
            assert value == -5
        else:
            lp = realz.simplex._Revised(A, b.astype(float), c)
            lp.stall_limit = 0
            assert not lp.two_phase()
            value = lp.result(False).objective_value
            assert value == pytest.approx(-5, abs=1e-10)
        assert lp.iterations > 0 and lp.rule == "bland"

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_bland_breaks_ratio_ties_by_lowest_basic_index(self, exact):
        # Column 0 enters on row 1, so row 0 keeps artificial 2 and row 1
        # holds variable 0.  Column 1 then has B^-1 a = (1, 1) against
        # x_B = 0: both ratios are 0, and Bland's rule takes row 1, the row
        # of the lower basic index, where the first minimal ratio is row 0.
        A = np.array([[1, 2], [1, 1]])
        if exact:
            # The start [2, 0] by hand: B = [[1, 1], [0, 1]], so d = 1, N =
            # Binv and x = 0.
            start = np.array([2, 0]), None, np.array([[1, -1], [0, 1]]), np.zeros(2, dtype=int), 1
            lp = realz.simplex._Exact(A, np.zeros(2, dtype=int), None, 1, start)
            assert lp.basis.tolist() == [2, 0] and lp.d == 1
            u = lp.Kc @ lp.At[1]
            assert u[: lp.m].tolist() == [1, 1] and lp.rhs.T[: lp.m, 0].tolist() == [0, 0]
            lp.rule = "bland"
            r, theta = lp.leaving(u[: lp.m])
            assert (r, theta) == (1, 0)
            lp.pivot(r, 1, u)
            lp.pivoted(theta > 0, "phase 1")
            assert lp.basis.tolist() == [2, 1] and lp.stall == 1
            return
        # The float loop reaches the tie from the basis [2, 0], set up with
        # its inverse; column 1 alone prices in, and the loop stops
        # after its pivot.  Under Dantzig's rule the tie goes to row 0.
        for rule, ends_on in (("bland", [2, 1]), ("dantzig", [1, 0])):
            lp = realz.simplex._Revised(A.astype(float), np.zeros(2), None)
            lp.rule, lp.basis = rule, np.array([2, 0])
            lp.K[: lp.m, : lp.m] = np.linalg.inv(lp.At[lp.basis, : lp.m].T)
            lp.start(0, 1)
            assert (lp.At[: lp.priced] @ lp.Kc[lp.m] > lp.tol).nonzero()[0].tolist() == [1]
            u = (lp.Kc @ lp.At[1])[: lp.m]
            assert u.tolist() == [1, 1] and lp.x_B.tolist() == [0, 0]
            lp.iterate(lp.priced, "phase 1")
            # One pivot, at a zero step, on row 1 (Bland) or row 0 (Dantzig).
            assert lp.basis.tolist() == ends_on and lp.iterations == 1 and lp.stall == 1

    def test_bland_ratio_tie_decides_the_vertex(self):
        # No objective, so phase 1's last vertex is the answer.  Its second
        # pivot ties rows 1 and 2 at ratio 1; Bland's rule takes row 2,
        # where x0 is basic, over artificial 5 on row 1, and phase 1 ends
        # on x = (2, 0, 0, 1).  Row 1 would end on (0, 4/3, 2/3, 1/3).
        A, b = [[2, 2, 1, -1], [0, -1, 1, -1], [-2, -2, 0, 2]], [3, -1, -2]
        with starting_rule("bland"):
            res = realz.simplex.solve(A, b)
            exact = realz.simplex.solve([[v * 10**400 for v in row] for row in A], [v * 10**400 for v in b], rational=True)
        assert res.solution == pytest.approx((2, 0, 0, 1), abs=1e-12) and res.iterations == 5
        assert exact.solution == (2, 0, 0, 1) and exact.exact_pivots == exact.iterations

    def test_both_rules_agree(self):
        rng = np.random.default_rng(5)
        paths = set()
        for _ in range(20):
            A = rng.integers(-3, 4, size=(3, 6))
            x0 = rng.random(6)
            b = (A @ x0).tolist()
            # nonnegative costs keep the objective bounded below
            c = rng.integers(0, 4, size=6).tolist()
            with starting_rule("bland"):
                bland = solve(A.tolist(), b, objective=c)
            dantzig = solve(A.tolist(), b, objective=c)
            assert bland.feasible and dantzig.feasible
            assert bland.objective_value == pytest.approx(dantzig.objective_value)
            paths.add(bland.iterations == dantzig.iterations)
        # The rules pivot differently, so the forced rule took effect.
        assert False in paths

    def test_iteration_limit(self, monkeypatch):
        rng = np.random.default_rng(9)
        A = rng.integers(-3, 4, size=(4, 10))
        b = (A @ rng.random(10)).tolist()
        monkeypatch.setattr(realz.simplex, "MAX_PIVOTS", 1)
        with pytest.raises(IterationLimitError, match="exceeded 1 pivots"):
            solve(A.tolist(), b, objective=list(range(10)))

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("rule", ["dantzig", "bland"], indirect=True)
    @pytest.mark.parametrize(
        "A, b, objective", [([[1, -1]], [0], [-1, 0]), ([], [], [-1])], ids=["one-row", "no-rows"]
    )
    def test_unbounded_objective(self, A, b, objective, rational, rule):
        # min -x1 s.t. x1 - x2 = 0: in phase 2 x2 enters and no row leaves,
        # so x1 = x2 grows without bound; with no rows x1 is free to grow.
        with pytest.raises(UnboundedObjectiveError):
            realz.simplex.solve(A, b, objective, rational=rational)
        # In rational mode the float search's raise hands the program to
        # the exact engine, which raises it too.
        assert rule == (["_Revised", "_Exact"] if rational else ["_Revised"])


class TestBoundViews:
    """``_Revised`` binds ``K``, its views and the pivot's buffers once per
    solve; pivots must update them in place, or the loop would read stale
    data."""

    BUFFERS = {"K": (5, 6), "prices": (13,), "column": (5,), "mask": (4,), "ratios": (4,), "outer": (5, 6)}

    def test_views_share_memory_with_K(self):
        rng = np.random.default_rng(71)
        A = rng.integers(0, 3, size=(4, 9))
        A[0] = 1
        b, c = A @ rng.integers(0, 3, size=9), rng.integers(0, 4, size=9)
        lp = realz.simplex._Revised(A, b.astype(float), c.astype(float))
        bound = {name: getattr(lp, name) for name in (*self.BUFFERS, "Kc", "x_B", "basis")}
        assert {name: bound[name].shape for name in self.BUFFERS} == self.BUFFERS
        assert bound["mask"].dtype == bool and all(bound[name].dtype == float for name in self.BUFFERS if name != "mask")
        assert not lp.two_phase() and lp.iterations > 0
        # The same arrays, written in place, and none of them another's view.
        assert all(getattr(lp, name) is array for name, array in bound.items())
        m = lp.m
        for view, part in ((lp.Kc, lp.K[:, : m + 1]), (lp.x_B, lp.K[:m, -1])):
            assert np.shares_memory(view, lp.K)
            assert np.array_equal(view, part)
        for name in self.BUFFERS:
            assert not any(np.shares_memory(bound[name], bound[other]) for other in self.BUFFERS if other != name)
        # The last pricing, of phase 2's n columns, is the final basis's.
        assert np.array_equal(lp.prices[: lp.n], lp.At[: lp.n] @ lp.Kc[m])
        x = np.array(lp.result(False).solution)
        assert np.abs(A @ x - b).max() <= 1e-9

    def test_K_is_updated_in_place(self, monkeypatch):
        # At every pivot the loop holds the arrays bound before the first,
        # and each rank-1 step writes K and its outer-product buffer anew.
        rng = np.random.default_rng(71)
        A = rng.integers(0, 3, size=(4, 9))
        A[0] = 1
        b = A @ rng.integers(0, 3, size=9)
        lp = realz.simplex._Revised(A, b.astype(float), None)
        bound = {name: getattr(lp, name) for name in (*self.BUFFERS, "Kc", "x_B", "basis")}
        pivoted, seen = realz.simplex._Pivots.pivoted, []

        def spying(self, progress, phase):
            assert all(getattr(self, name) is array for name, array in bound.items())
            seen.append((bound["K"].copy(), bound["outer"].copy()))
            pivoted(self, progress, phase)

        monkeypatch.setattr(realz.simplex._Pivots, "pivoted", spying)
        assert not lp.two_phase()
        assert len(seen) == lp.iterations > 1
        for (K, outer), (K_next, outer_next) in zip(seen, seen[1:]):
            assert not np.array_equal(K, K_next) and not np.array_equal(outer, outer_next)
        # The bound inverse is the final basis's.
        B = lp.At[lp.basis, : lp.m].T
        assert np.allclose(lp.Kc[: lp.m, : lp.m] @ B, np.eye(lp.m))


class TestRationalMode:
    def test_exact_solution(self):
        res = solve(
            [[1, 1], [1, -1]], [1, Fraction(1, 3)], rational=True
        )
        assert res.feasible
        assert res.solution == (Fraction(2, 3), Fraction(1, 3))

    def test_rejects_floats(self):
        # A right-hand side that is not exact: a float, a bool (numpy
        # would read [True, 2] as the integers [1, 2]) or a fraction string.
        for b in ([0.5], [True], [np.True_], ["1/4"], [1.0]):
            with pytest.raises(RationalInputError):
                solve([[1]], b, rational=True)


class TestIntegerContract:
    """``A`` and the costs are integer arrays in both modes, as the moment
    LPs give them; only ``b`` may be real (float mode) or rational."""

    NOT_INTEGERS = [0.5, 1.0, np.float64(2), Fraction(1, 2), Fraction(2), "1", "1/2", True, np.True_]

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    @pytest.mark.parametrize("entry", NOT_INTEGERS, ids=repr)
    def test_refuses_matrices_and_costs_that_are_not_integers(self, entry, rational):
        for A, objective in (([[entry, 1]], None), ([[1, 1]], [entry, 1]), ([[1, entry]], [1, 2])):
            with pytest.raises(ValidationError, match="must hold integers"):
                solve(A, [1], objective, rational=rational)

    NOT_REALS = ["1", "1/2", True, np.True_, 1 + 0j, np.complex128(1), None]

    @pytest.mark.parametrize("entry", NOT_REALS, ids=repr)
    def test_refuses_right_hand_sides_that_are_not_real(self, entry):
        # Never parsed, read as 0 or 1, or stripped of an imaginary part:
        # alone, among real entries, and in an array.  Rational mode keeps
        # its own error.
        for b in ([entry], [1, entry], np.array([entry])):
            A = [[1]] * len(b)
            with pytest.raises(ValidationError, match="right-hand side must be real numbers"):
                solve(A, b)
            with pytest.raises(RationalInputError):
                solve(A, b, rational=True)

    NOT_FINITE = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "np.nan": np.float64("nan"),
                  "int-past-float": 10**400, "fraction-past-float": Fraction(-(10**400), 3)}

    @pytest.mark.parametrize("entry", NOT_FINITE.values(), ids=NOT_FINITE.keys())
    def test_refuses_right_hand_sides_that_are_not_finite(self, entry):
        # Never answered (NaN), read as an unbounded objective or an
        # infeasible row (the infinities), or raised as a bare overflow (an
        # exact entry past the float range), with or without costs: alone,
        # among finite entries, and in an array.
        for b in ([entry], [1, entry], np.array([entry])):
            A = [[1]] * len(b)
            for objective in (None, [1]):
                with pytest.raises(ValidationError, match="right-hand side must be finite"):
                    solve(A, b, objective)

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_refuses_arrays_of_other_dtypes(self, rational):
        for arr in (np.array([[0.5, 1.0]]), np.array([[True, False]]), np.array([["1", "2"]])):
            with pytest.raises(ValidationError, match="constraint matrix must hold integers"):
                solve(arr, [1], rational=rational)
            with pytest.raises(ValidationError, match="objective must hold integers"):
                solve([[1, 1]], [1], arr[0], rational=rational)

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_accepts_every_integer_form(self, rational):
        # min x0 + 2 x1 over x0 + x1 = 1, written in int64, int32, uint64,
        # numpy ints among objects, and Python ints past int64 (scaled).
        big = 10**20
        forms = [
            ([[1, 1]], [1, 2], 1),
            (np.array([[1, 1]], dtype=np.int32), np.array([1, 2], dtype=np.int32), 1),
            (np.array([[1, 1]], dtype=np.uint64), np.array([1, 2], dtype=np.uint64), 1),
            (np.array([[np.int64(1), 1]], dtype=object), [np.int64(1), 2], 1),
            ([[big, big]], [big, 2 * big], big),
        ]
        for A, objective, scale in forms:
            res = solve(A, [scale], objective, rational=rational)
            assert res.feasible and res.solution == (1, 0) and res.objective_value == scale

    def test_moment_lps_hand_over_integer_matrices(self, monkeypatch):
        # Every solve the package makes, in both modes: the full, the
        # third-moment and the orbit-reduced LP, on plain domains, under
        # exclusion, total_cap and total_exact, and under a group.
        calls, seen, made = [], set(), 0
        solve = realz.simplex.solve

        def spy(A, b, objective=None, **kwargs):
            calls.append((A, objective))
            return solve(A, b, objective, **kwargs)

        monkeypatch.setattr(realz.simplex, "solve", spy)
        domains = [
            (complete_domain(3, cap=2), None),
            (complete_domain(4, exclusion_diameter=1.5), None),
            (complete_domain(3, cap=2, total_cap=3), None),
            (complete_domain(3, cap=2, total_exact=2), None),
            (torus_domain((3, 2)), (3, 2)),
            (torus_domain((4,), occupancy_cap=2, exclusion_diameter=1.5), (4,)),
        ]
        for opts in (SolverOptions(), RATIONAL):
            for domain, dims in domains:
                corr = correlations_of(hardcore_gibbs(domain, Fraction(1, 2)))
                if not opts.rational:
                    corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))

                def stationary(domain, corr, opts):
                    return check_realizability_stationary(domain, corr, translation_group(dims), opts)

                checks = [check_realizability, minimal_third_moment] + ([stationary] if dims else [])
                # The particle count's moments of the second table pass the
                # count hull, so the LP decides it too.
                other = moved_density(corr) if dims is None else scaled_nearest_pairs(domain, corr, 3)
                for pair in (corr, other):
                    for check in checks:
                        before, made = len(calls), made + 1
                        check(domain, pair, opts)
                        if len(calls) > before:
                            seen.add((check.__name__, opts.arithmetic_mode))
        names = ("check_realizability", "minimal_third_moment", "stationary")
        assert seen == {(name, mode) for name in names for mode in ("float", "rational")}
        assert len(calls) == made == 2 * 2 * (6 * 2 + 2)
        assert any(objective is not None for _, objective in calls)
        for A, objective in calls:
            assert isinstance(A, np.ndarray) and A.dtype == np.int64
            assert objective is None or (isinstance(objective, np.ndarray) and objective.dtype == np.int64)


class TestRedundantRows:
    # Each system repeats its first row and adds an all-zero row, so phase 1
    # ends with artificials basic at level zero.  In the second, phase 2's
    # entering column touches one of them, which leaves at a zero step; the
    # others stay basic to the end, as do all of them in the other two.
    CASES = [
        (
            [[-1, 2, 1, -2, -1], [2, 0, -2, 1, 1], [2, -2, -2, 2, -2], [-1, 2, 1, -2, -1], [0, 0, 0, 0, 0]],
            [-1, 2, 2, -1, 0],
        ),
        ([[2, 2, 2], [-1, -2, 0], [2, -1, 2], [2, 2, 2], [0, 0, 0]], [2, -2, -1, 2, 0]),
        ([[0, 1, 1], [2, 0, 0], [0, 2, -2], [0, 1, 1], [0, 0, 0]], [0, 0, 0, 0, 0]),
    ]

    @pytest.mark.parametrize("rule", ["dantzig", "bland"], indirect=True)
    @pytest.mark.parametrize("A, b", CASES)
    def test_rational_solution_is_exact(self, A, b, rule):
        c = list(range(1, len(A[0]) + 1))
        optimum = fm_minimize(A, b, c)[1]
        # Scaled by 10**400 a system keeps its solutions and optimum but
        # overflows float64, so exact pivoting from the slack basis, the
        # phase-2 rule for artificials included, decides it instead of a
        # certified float basis.
        for scale in (1, 10**400):
            A_s = [[v * scale for v in row] for row in A]
            b_s = [v * scale for v in b]
            for objective in (None, c):
                res = solve(A_s, b_s, objective=objective, rational=True)
                assert res.feasible
                assert res.exact_pivots == (0 if scale == 1 else res.iterations)
                assert all(v >= 0 for v in res.solution)
                for row, rhs in zip(A_s, b_s):
                    assert dot(row, res.solution) == rhs
            assert res.objective_value == optimum
            # the duals stay dual feasible and attain the optimum
            assert dot(res.dual, b_s) == res.objective_value
            for j, cost in enumerate(c):
                assert dot(res.dual, [row[j] for row in A_s]) <= cost

    @pytest.mark.parametrize("A, b", CASES)
    def test_float_matches_rational(self, A, b):
        c = list(range(1, len(A[0]) + 1))
        exact = solve(A, b, objective=c, rational=True)
        res = solve(A, [float(v) for v in b], objective=c)
        assert res.feasible
        assert min(res.solution) >= 0
        for row, rhs in zip(A, b):
            assert dot(row, res.solution) == pytest.approx(rhs, abs=1e-9)
        assert res.objective_value == pytest.approx(float(exact.objective_value), abs=1e-9)

    @pytest.mark.parametrize("rational", [False, True], ids=["float", "rational"])
    def test_contradictory_copies_are_refuted(self, rational):
        for A, b in (([[1, 1], [1, 1], [0, 0]], [1, 2, 0]), ([[1, 1], [0, 0]], [1, 1])):
            res = solve(A, b, rational=rational)
            assert not res.feasible
            y = res.farkas_dual
            assert all(dot(y, [row[j] for row in A]) >= 0 for j in range(2))
            assert dot(y, b) < 0


class TestFarkasProperties:
    def assert_valid_farkas(self, A, b, y, tol=1e-9):
        for j in range(len(A[0])):
            assert dot(y, [row[j] for row in A]) >= -tol
        assert dot(y, b) < -tol / 10

    def test_random_systems_against_elimination_oracle(self):
        # float verdict, exact-rational verdict and the independent
        # elimination oracle must all agree
        rng = np.random.default_rng(42)
        feasible_count = infeasible_count = 0
        for _ in range(40):
            A = rng.integers(-4, 5, size=(5, 8))
            if rng.random() < 0.5:
                x0 = rng.integers(0, 3, size=8)
                b = A @ x0
            else:
                b = rng.integers(-6, 7, size=5)
            A_list = A.tolist()
            b_list = b.tolist()
            float_res = solve(A_list, [float(v) for v in b_list])
            rational_res = solve(A_list, b_list, rational=True)
            oracle_verdict = fm_feasible(A_list, b_list)
            assert float_res.feasible == rational_res.feasible == oracle_verdict
            if float_res.feasible:
                feasible_count += 1
                x = rational_res.solution
                for row, rhs in zip(A_list, b_list):
                    assert dot(row, x) == rhs
            else:
                infeasible_count += 1
                self.assert_valid_farkas(
                    A_list, b_list, [float(v) for v in rational_res.farkas_dual]
                )
                self.assert_valid_farkas(
                    [[float(v) for v in row] for row in A_list],
                    [float(v) for v in b_list],
                    float_res.farkas_dual,
                )
        assert feasible_count > 5 and infeasible_count > 5

    def test_minimization_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            A = rng.integers(-2, 3, size=(3, 5))
            x0 = rng.integers(0, 3, size=5)
            b = A @ x0
            c = rng.integers(0, 4, size=5)
            res = solve(A.tolist(), b.tolist(), objective=c.tolist(), rational=True)
            status, value = fm_minimize(A.tolist(), b.tolist(), c.tolist())
            assert res.feasible and status == "optimal"
            assert res.objective_value == value

    def test_bland_rule_against_elimination_oracle(self):
        # a float Bland search whose final basis is certified exactly (or,
        # failing that, exact pivoting): verdicts, solutions, Farkas
        # vectors and optima checked against the oracle
        rng = np.random.default_rng(23)
        verdicts = set()
        for _ in range(30):
            A = rng.integers(-3, 4, size=(4, 7)).tolist()
            if rng.random() < 0.5:
                b = (np.array(A) @ rng.integers(0, 3, size=7)).tolist()
            else:
                b = rng.integers(-5, 6, size=4).tolist()
            c = rng.integers(0, 4, size=7).tolist()
            with starting_rule("bland"):
                res = solve(A, b, objective=c, rational=True)
            assert res.feasible == fm_feasible(A, b)
            verdicts.add(res.feasible)
            if res.feasible:
                for row, rhs in zip(A, b):
                    assert dot(row, res.solution) == rhs
                assert res.objective_value == fm_minimize(A, b, c)[1]
            else:
                y = res.farkas_dual
                assert all(dot(y, [row[j] for row in A]) >= 0 for j in range(7))
                assert dot(y, b) < 0
        assert verdicts == {True, False}


def k4_mixture():
    """complete(4,c2) and the mean of its truncated Poisson(1/2) and
    Bernoulli(1/3) tables: a realizable input."""
    k4 = complete_domain(4, cap=2)
    mixed = [
        correlations_of(truncated_poisson_product(k4, Fraction(1, 2))),
        correlations_of(bernoulli_product(k4, [Fraction(1, 3)] * 4)),
    ]
    return k4, CorrelationPair(rho1=(mixed[0].rho1 + mixed[1].rho1) / 2, rho2=(mixed[0].rho2 + mixed[1].rho2) / 2)


class TestExactCertification:
    """Rational mode: a float search, then an exact check of its final basis."""

    def test_float_feasible_but_exactly_infeasible(self):
        # x0 = 1 + e/2, x1 = -e/2 solves the equalities: negative, but only
        # by 5e-31, which float arithmetic cannot see.
        A = [[1, 1], [1, -1]]
        b = [1, 1 + Fraction(1, 10**30)]
        float_res = solve(A, [float(v) for v in b])
        assert float_res.feasible
        res = solve(A, b, rational=True)
        assert not res.feasible
        # Float phase 1 ends on the basis {x0, artificial 3}, where the
        # artificial is exactly 1e-30 and no column prices in: its phase-1
        # duals are the Farkas proof, with no exact pivot.
        assert res.exact_pivots == 0
        assert res.farkas_dual == (1, -1)
        y = res.farkas_dual
        assert all(dot(y, [row[j] for row in A]) >= 0 for j in range(2))
        assert dot(y, b) < 0

    @pytest.mark.parametrize("objective", [None, [1, 2]])
    def test_overflowing_float_conversion_falls_back(self, objective):
        # 10**400 has no float64 value; the float search cannot start.
        A = [[10**400, 1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(A, [1], objective=objective, rational=True)
        assert res.feasible
        assert res.exact_pivots == res.iterations > 0
        assert dot(A[0], res.solution) == 1
        if objective is not None:
            assert res.objective_value == Fraction(1, 10**400)

    @pytest.mark.parametrize("rule", ["dantzig", "bland"], indirect=True)
    def test_fallback_pivoting_against_elimination_oracle(self, rule):
        # Scaling a system by 10**400 keeps its solutions and optima but
        # overflows float64, so exact pivoting decides every system.
        rng = np.random.default_rng(29)
        big = 10**400
        verdicts = set()
        for _ in range(12):
            A = rng.integers(-3, 4, size=(4, 6))
            if rng.random() < 0.5:
                b = A @ rng.integers(0, 3, size=6)
            else:
                b = rng.integers(-5, 6, size=4)
            c = rng.integers(0, 4, size=6).tolist()
            A, b = A.tolist(), b.tolist()
            scaled_A = [[v * big for v in row] for row in A]
            scaled_b = [v * big for v in b]
            res = solve(scaled_A, scaled_b, objective=c, rational=True)
            assert res.exact_pivots == res.iterations
            assert res.feasible == fm_feasible(A, b)
            verdicts.add(res.feasible)
            if res.feasible:
                for row, rhs in zip(A, b):
                    assert dot(row, res.solution) == rhs
                assert res.objective_value == fm_minimize(A, b, c)[1]
            else:
                y = res.farkas_dual
                assert all(dot(y, [row[j] for row in scaled_A]) >= 0 for j in range(6))
                assert dot(y, scaled_b) < 0
        assert verdicts == {True, False}

    def test_moment_lps_are_certified(self, monkeypatch):
        # Rational moment LPs end on a float basis that checks exactly; the
        # answers satisfy their systems exactly either way.
        calls = []
        solve = realz.simplex.solve

        def recording(A, b, objective=None, **kwargs):
            res = solve(A, b, objective, **kwargs)
            calls.append((A, b, objective, res))
            return res

        monkeypatch.setattr(realz.simplex, "solve", recording)
        corr, dist = two_atom_family(5, 3)
        assert minimal_third_moment(dist.domain, corr, RATIONAL).r_star == 2
        k4, k4_corr = k4_mixture()
        assert check_realizability(k4, k4_corr, RATIONAL).feasible
        assert minimal_third_moment(k4, k4_corr, RATIONAL).finite
        cube = torus_domain((2, 2, 2), occupancy_cap=1)
        cube_corr = correlations_of(bernoulli_product(cube, [Fraction(1, 2)] * 8))
        assert check_realizability(cube, cube_corr, RATIONAL).feasible
        # Raised nearest-neighbour pair entries leave the particle count's
        # moments inside the count hull, so the LP refutes them.
        raised = scaled_nearest_pairs(cube, cube_corr, Fraction(3, 2))
        assert not check_realizability(cube, raised, RATIONAL).feasible
        # The orbit LPs sum each row over its orbit, so they too get the
        # int64 moment matrix.
        for dims, factor in (((3, 3), 2), ((2, 2, 2), Fraction(3, 2))):
            torus = torus_domain(dims, occupancy_cap=1)
            corr = correlations_of(bernoulli_product(torus, [Fraction(1, 2)] * torus.site_count))
            group = translation_group(dims)
            assert check_realizability_stationary(torus, corr, group, RATIONAL).feasible
            raised = scaled_nearest_pairs(torus, corr, factor)
            assert not check_realizability_stationary(torus, raised, group, RATIONAL).feasible
        assert len(calls) == 9
        for A, b, objective, res in calls:
            assert res.exact_pivots == 0
            assert isinstance(A, np.ndarray) and A.dtype == np.int64
            A = np.asarray(A, dtype=object)
            b = np.asarray(b, dtype=object)
            if not res.feasible:
                y = np.asarray(res.farkas_dual, dtype=object)
                assert (y @ A >= 0).all() and y @ b < 0
                continue
            x = np.asarray(res.solution, dtype=object)
            assert (x >= 0).all() and (A @ x == b).all()
            if objective is not None:
                y = np.asarray(res.dual, dtype=object)
                assert (y @ A <= np.asarray(objective, dtype=object)).all()
                assert y @ b == res.objective_value == np.asarray(objective, dtype=object) @ x

    def test_scaled_moment_lps_are_decided_by_exact_pivoting(self, monkeypatch):
        # Scaled by 10**400 the complete(4,c2) moment LPs keep their
        # verdicts and optima but overflow float64, so exact pivoting from
        # the slack basis decides each of them alone.
        calls = []
        solve = realz.simplex.solve

        def recording(A, b, objective=None, **kwargs):
            calls.append((np.asarray(A).tolist(), list(b), None if objective is None else list(objective)))
            return solve(A, b, objective, **kwargs)

        monkeypatch.setattr(realz.simplex, "solve", recording)
        k4, corr = k4_mixture()
        check_realizability(k4, corr, RATIONAL)
        check_realizability(k4, moved_density(corr), RATIONAL)
        minimal_third_moment(k4, corr, RATIONAL)
        monkeypatch.undo()
        assert len(calls) == 3
        big = 10**400
        verdicts = set()
        for A, b, objective in calls:
            plain = solve(A, b, objective, rational=True)
            A_s = [[v * big for v in row] for row in A]
            b_s = [v * big for v in b]
            res = solve(A_s, b_s, objective, rational=True)
            assert res.exact_pivots == res.iterations > 0
            assert res.feasible == plain.feasible
            verdicts.add(res.feasible)
            if res.feasible:
                assert min(res.solution) >= 0
                assert all(dot(row, res.solution) == rhs for row, rhs in zip(A_s, b_s))
                assert res.objective_value == plain.objective_value
            else:
                y = res.farkas_dual
                assert all(dot(y, [row[j] for row in A_s]) >= 0 for j in range(len(A[0])))
                assert dot(y, b_s) < 0
        assert verdicts == {True, False}


#: ``(A, b, objective, basis, infeasible)``: a final float basis whose
#: verdict the exact engine must not take as it stands.  Basis entries
#: ``>= n`` are artificials.
REJECTED_BASES = {
    # x0 + x1 = 1, x0 - x1 = 3 on columns {0, 1}: x1 = -1.
    "negative-x": ([[1, 1], [1, -1]], [1, 3], None, [0, 1], False),
    # Row 1 is twice row 0, moved by 1e-30: its artificial sits at 1e-30.
    "artificial-off-zero": ([[1, 1], [2, 2]], [1, 2 + Fraction(1, 10**30)], None, [0, 3], False),
    # x0 = 1 is feasible, but column 1 costs less: reduced cost -1.
    "reduced-cost": ([[1, 1]], [1], [2, 1], [0], False),
    # Called infeasible on a feasible system: y = 0 pairs to 0, not > 0.
    "farkas-pairing": ([[1, 0], [0, 1]], [1, 1], None, [0, 1], True),
    # y = (0, 1) pairs to 1 > 0, but y . A_1 = 1 > 0.
    "farkas-dual": ([[1, 0], [0, 1]], [1, 1], None, [0, 3], True),
    "singular": ([[1, 2], [2, 4]], [1, 2], None, [0, 1], False),
    "singular-infeasible": ([[1, 2], [2, 4]], [1, 3], None, [0, 1], True),
}


def assert_oracle_answer(A, b, objective, res):
    """``res`` is the exact answer of ``min objective . x, A x = b, x >= 0``
    (no objective: feasibility), as the Fourier-Motzkin oracle finds it."""
    assert res.feasible == fm_feasible(A, b)
    values = [*(res.solution or ()), *(res.dual or ()), *(res.farkas_dual or ())]
    assert all(type(v) is Fraction for v in values)
    if res.feasible:
        assert min(res.solution, default=0) >= 0
        assert all(dot(row, res.solution) == rhs for row, rhs in zip(A, b))
        if objective is not None:
            assert res.objective_value == fm_minimize(A, b, objective)[1]
    else:
        y = res.farkas_dual
        assert all(dot(y, [row[j] for row in A]) >= 0 for j in range(len(A[0])))
        assert dot(y, b) < 0


def exact_engine(A, b, objective):
    """``_Exact`` on ``A x = b`` (cleared to integers over one scale, as
    ``solve`` hands it over) from the slack basis."""
    A = realz.simplex._integers(A, "A").reshape(len(b), -1)
    scale, b = realz.core._to_integers(b)
    cvec = None if objective is None else realz.simplex._integers(objective, "objective")
    return realz.simplex._Exact(A, b, cvec, scale)


def ending_on(A, b, objective, basis, infeasible):
    """Rational ``solve`` with the float search ending on ``basis``, its
    float inverse in place, with the verdict ``infeasible``."""
    with float_search_ends_on(basis, infeasible, inverted=True):
        return realz.simplex.solve(A, b, objective, rational=True)


class TestCertifyRejections:
    """Every way a float basis chosen by hand is rejected, through
    ``solve`` with the float search forced onto it, with its float inverse
    in place and without.  A rejected basis ends in exact pivots, or, when
    its own exact values already decide the program, in the other
    verdict."""

    @pytest.mark.parametrize("case", sorted(REJECTED_BASES))
    def test_rejected(self, case):
        A, b, objective, basis, infeasible = REJECTED_BASES[case]
        res = ending_on(*REJECTED_BASES[case])
        assert res.exact_pivots > 0 or res.feasible == infeasible
        assert_oracle_answer(A, b, objective, res)

    @pytest.mark.parametrize("case", sorted(REJECTED_BASES))
    def test_rejection_ends_in_exact_pivoting(self, case):
        A, b, objective, basis, infeasible = REJECTED_BASES[case]
        with float_search_ends_on(basis, infeasible):
            res = realz.simplex.solve(A, b, objective, rational=True)
        assert res.exact_pivots > 0 or res.feasible == infeasible
        assert res.exact_pivots == res.iterations
        assert_oracle_answer(A, b, objective, res)

    def test_the_right_bases_certify(self):
        # The same systems on the bases that prove them, exactly as the
        # oracle decides, with no exact pivot.
        feasible = ending_on([[1, 1], [2, 2]], [1, 2], None, [0, 3], False)
        assert feasible.solution == (1, 0) and feasible.dual == (0, 0)
        optimum = ending_on([[1, 1]], [1], [2, 1], [1], False)
        assert optimum.solution == (0, 1) and optimum.dual == (1,) and optimum.objective_value == 1
        farkas = ending_on([[1, 2], [2, 4]], [1, 3], None, [0, 3], True)
        assert farkas.farkas_dual == (2, -1)
        assert not fm_feasible([[1, 2], [2, 4]], [1, 3])
        for res in (feasible, optimum, farkas):
            assert res.exact_pivots == 0
            values = [*(res.solution or ()), *(res.dual or ()), *(res.farkas_dual or ())]
            assert all(type(v) is Fraction for v in values)


class TestExactEngine:
    """The exact engine's own pivots, on systems scaled by 10**400 so that
    the float search cannot start and the engine starts from the slack
    basis."""

    def test_rules_agree_and_pivot_differently(self):
        rng = np.random.default_rng(83)
        big, paths = 10**400, set()
        for _ in range(12):
            A = rng.integers(-3, 4, size=(4, 7))
            b = (A @ rng.integers(0, 3, size=7)).tolist()
            c = rng.integers(0, 4, size=7).tolist()
            scaled_A, scaled_b = [[v * big for v in row] for row in A.tolist()], [v * big for v in b]
            with starting_rule("bland") as built:
                bland = realz.simplex.solve(scaled_A, scaled_b, c, rational=True)
            assert built == ["_Exact"]
            dantzig = realz.simplex.solve(scaled_A, scaled_b, c, rational=True)
            assert bland.feasible and dantzig.feasible
            assert bland.objective_value == dantzig.objective_value == fm_minimize(A.tolist(), b, c)[1]
            paths.add(bland.exact_pivots == dantzig.exact_pivots)
        # The rules pivot differently, so the engine reads the rule.
        assert False in paths

    def test_feasible_float_basis_is_kept(self):
        # On the float basis {x0} of min 2 x0 + x1, x0 + x1 = 1, one phase-2
        # pivot brings x1 in; from the slack basis, artificial 2, it takes two.
        for basis, pivots in (([0], 1), ([2], 2)):
            res = ending_on([[1, 1]], [1], [2, 1], basis, False)
            assert res.solution == (0, 1) and res.exact_pivots == res.iterations == pivots

    @pytest.mark.parametrize("objective", [False, True], ids=["feasibility", "objective"])
    def test_exact_pricing_scans_the_matrix_once_per_solve(self, monkeypatch, objective):
        # Past float64, exact pivoting from the slack basis prices at every
        # step; the bounds on A and c are read once, when the engine starts.
        rng = np.random.default_rng(67)
        A = rng.integers(0, 3, size=(8, 40))
        A[0] = 1
        b = [v * 10**400 for v in A[:, :3].sum(axis=1).tolist()]
        c = rng.integers(0, 5, size=40) if objective else None
        scans, largest = [], realz.simplex._largest
        monkeypatch.setattr(realz.simplex, "_largest", lambda T: scans.append(T) or largest(T))
        res = realz.simplex.solve(A, b, c, rational=True)
        assert res.feasible and res.exact_pivots == res.iterations > 1
        # A is the only 8 x 40 array, and an int64 c is handed on as it is.
        assert [T.shape for T in scans].count(A.shape) == 1
        assert sum(T is c for T in scans) == int(objective)

    def test_artificials_at_zero_leave_in_phase_2(self):
        # Rows 0 and 1 are equal, so phase 1 ends with x1 basic and both
        # artificials basic at zero.  In phase 2 column 0 enters with u = -1
        # on their rows: one of them must leave at step 0, since the step
        # of x1's row (1) would lift both artificials to 1.  The float
        # engine applies the same rule to the unscaled system.
        A, b, c = [[-1, 0, 0], [-1, 0, 0], [-1, -1, 0]], [0, 0, -1], [0, 3, 3]
        res = realz.simplex.solve([[v * 10**400 for v in row] for row in A], [v * 10**400 for v in b], c, rational=True)
        assert res.exact_pivots == 2 and res.objective_value == fm_minimize(A, b, c)[1] == 3
        assert res.solution == (0, 1, 0)
        res = realz.simplex.solve(A, b, c)
        assert res.objective_value == 3 and res.solution == (0, 1, 0)


class TestIntegerInverse:
    """The exact engine's bordered inverse in integers: its ``int64`` bound,
    the start from a float basis, the rules that keep its pivot counts,
    and answers from any basis."""

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_inverse_passes_int64_partway(self, k, monkeypatch):
        # Entries up to 2**20 keep the first pivots in int64; the minors of
        # the later bases pass 2**63, and the engine ends on Python ints.
        rng = np.random.default_rng(89 + k)
        dtypes, pivot = [], realz.simplex._Exact.pivot

        def recorded(lp, *args):
            pivot(lp, *args)
            dtypes.append(lp.inverse.T.dtype)

        monkeypatch.setattr(realz.simplex._Exact, "pivot", recorded)
        verdicts = set()
        for _ in range(4):
            A = rng.integers(-(2**20), 2**20, size=(k, k + 2)).tolist()
            b = [dot(row, rng.integers(-1, 4, size=k + 2).tolist()) for row in A]
            c = rng.integers(0, 2**20, size=k + 2).tolist()
            dtypes.clear()
            res = exact_engine(A, b, c).run()
            if fm_minimize(A, b, c)[0] == "unbounded":
                continue
            assert_oracle_answer(A, b, c, res)
            verdicts.add(res.feasible)
            assert dtypes[0] == np.int64 and dtypes[-1] == object
        assert verdicts == {True, False}

    def test_right_hand_side_alone_moves_to_python_ints(self):
        # Two right-hand sides over 3**40 and 5**30: the cleared b' passes
        # 2**63, the inverse of the small A does not.
        A, c = [[1, 2, 1, 0], [2, 1, 0, 1]], [1, 1, 3, 2]
        b = [Fraction(2, 3**40), 1 + Fraction(1, 5**30)]
        lp = exact_engine(A, b, c)
        res = lp.run()
        assert lp.iterations > 0 and lp.inverse.T.dtype == np.int64 and lp.rhs.T.dtype == object
        assert_oracle_answer(A, b, c, res)

    @pytest.mark.parametrize("objective", [None, [1, 1, 3]], ids=["feasibility", "objective"])
    def test_swapped_float_basis_is_installed(self, objective):
        # Column 1 sits at position 0 of the float basis, but touches row 1
        # alone, and column 0 only row 0: the basis is read in its order,
        # with no exact pivot.
        A, b = [[1, 0, 1], [0, 1, 1]], [2, 3]
        res = ending_on(A, b, objective, [1, 0], False)
        assert res.exact_pivots == 0 and res.solution == (2, 3, 0)
        assert_oracle_answer(A, b, objective, res)

    @pytest.mark.parametrize("seed", range(8))
    def test_any_float_basis_ends_in_the_oracles_answer(self, seed):
        # Random bases, right or wrong, singular or not, with artificials
        # at any position, and either float verdict: the proof takes or
        # rejects each, and the solve ends exactly where the oracle does.
        rng = np.random.default_rng([97, seed])
        for _ in range(12):
            m, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            A = rng.integers(-3, 4, size=(m, n)).tolist()
            b = [int(v) for v in rng.integers(-4, 5, size=m)]
            c = rng.integers(0, 4, size=n).tolist() if rng.random() < 0.5 else None
            basis = rng.choice(n + m, size=m, replace=False).tolist()
            res = ending_on(A, b, c, basis, bool(rng.random() < 0.5))
            assert_oracle_answer(A, b, c, res)

    def test_farkas_proof_is_read_before_primal_values(self):
        # At the float basis [artificial 4, x0] the exact values are
        # negative (x0 = -3), but y = (3, -1) already proves infeasibility:
        # read first, it takes no exact pivot, where the slack basis would
        # take one.
        A, b = [[1, 3, 1], [3, 1, -1]], [-3, 1]
        res = ending_on(A, b, None, [4, 0], True)
        assert res.exact_pivots == 0 and res.farkas_dual == (3, -1)
        assert_oracle_answer(A, b, None, res)

    def test_phase_1_prices_no_artificial(self, monkeypatch):
        # From the slack basis phase 1 takes two pivots, both structural;
        # letting a departed artificial price back in would take three.
        A, b = [[2, -3], [-3, 2], [0, 3]], [-1, -2, 2]
        entered, pivot = [], realz.simplex._Exact.pivot
        monkeypatch.setattr(realz.simplex._Exact, "pivot", lambda lp, r, q, *args: entered.append(q) or pivot(lp, r, q, *args))
        lp = exact_engine(A, b, None)
        res = lp.run()
        assert lp.iterations == 2 and sorted(entered) == [0, 1]
        assert_oracle_answer(A, b, None, res)

    def test_tripped_bound_rescans_before_it_moves(self):
        # A loose bound trips, and a scan finds room in int64; a factor
        # that leaves none moves the array to Python ints.
        block = realz.simplex._Bounded.of(np.array([[3, 0], [0, -5]], dtype=object))
        assert block.T.dtype == np.int64 and block.big == 5
        block.big = 2**62
        assert block.room(4).dtype == np.int64 and block.big == 5
        assert block.room(2**61).dtype == object and block.T.tolist() == [[3, 0], [0, -5]]
        # An all-zero array counts as 1, so no factor past int64 keeps it.
        assert realz.simplex._Bounded.of(np.zeros((2, 2), dtype=object)).room(2**63).dtype == object


def declined(A, b, objective, crash=None, interior=False):
    """Rational ``solve`` with the proof step's answer dropped and its start
    kept, so the exact engine runs from the proved float basis, or from
    the slack basis where there is none; the float search starts from the
    ``crash`` columns, as an ``interior`` LP or not, as the solve it
    re-runs did."""
    prove = realz.simplex._prove
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realz.simplex, "_prove", lambda *args: (None, prove(*args)[1]))
        return realz.simplex.solve(A, b, objective, rational=True, _crash=crash, _interior=interior)


class TestProof:
    """The float basis proved by one rounded inverse and one integer check
    (``simplex._prove``): the exact engine's answers, and no engine where
    it would make no pivot."""

    def test_answers_equal_the_exact_engines(self, monkeypatch):
        # The moment LPs of the reference domains, on feasible tables and
        # on eighths that the LP mostly refutes, and a slice of the
        # near-boundary probe, whose float bases the engine often rejects.
        rng = np.random.default_rng(71)
        cases = []
        for domain in reference_domains():
            s = domain.site_count
            rho1, rho2 = rng.integers(0, 17, size=s), rng.integers(0, 17, size=(s, s))
            eighths = (rho1.astype(object) * Fraction(1, 8), (rho2 + rho2.T).astype(object) * Fraction(1, 8))
            cases.append((domain, CorrelationPair(*eighths)))
            if realz.enumerate_configurations(domain).shape[0]:
                cases.append((domain, correlations_of(random_distribution(rng, domain, exact=True))))
        cases += [near_boundary_input(seed, index) for seed in (0, 1, 2) for index in range(len(NEAR_BOUNDARY_DOMAINS))]
        calls, proofs, solve, prove = [], [], realz.simplex.solve, realz.simplex._prove

        def recording(A, b, objective=None, **kwargs):
            proofs.clear()
            res = solve(A, b, objective, **kwargs)
            crash = kwargs.get("_crash"), kwargs.get("_interior", False)
            calls.append((A, b, objective, crash, res, proofs[-1] if proofs else (None, None)))
            return res

        monkeypatch.setattr(realz.simplex, "solve", recording)
        monkeypatch.setattr(realz.simplex, "_prove", lambda *args: proofs.append(prove(*args)) or proofs[-1])
        # Every input reaches the LP.
        monkeypatch.setattr(realz.solver, "_refutations", lambda *args: iter(()))
        for domain, corr in cases:
            for check in (check_realizability, minimal_third_moment):
                check(domain, corr, RATIONAL)
        monkeypatch.undo()
        farkas = 0
        for A, b, objective, crash, res, (answer, start) in calls:
            proved = answer is not None
            if proved and start is None:
                # A Farkas proof at a negative exact value, which the engine
                # does not start from: the proof holds on integers.
                y = np.array(res.farkas_dual, dtype=object)
                assert (y @ np.asarray(A, dtype=object) >= 0).all() and y @ np.array(b, dtype=object) < 0
                farkas += 1
            else:
                assert declined(A, b, objective, *crash) == res
            # The step decides exactly the solves the engine decides with
            # no pivot.
            assert proved == (res.exact_pivots == 0)
        assert {res.feasible for *_, res, _ in calls} == {True, False}
        assert {answer is not None for *_, (answer, _) in calls} == {True, False}
        assert farkas > 0

    def test_no_exact_engine_where_no_pivot_follows(self, monkeypatch):
        # The float search gets this basis right, so the step proves it and
        # no exact engine is built.
        built, init = [], realz.simplex._Exact.__init__
        monkeypatch.setattr(realz.simplex._Exact, "__init__", lambda lp, *args: built.append(lp) or init(lp, *args))
        torus = torus_domain((4,), occupancy_cap=1)
        corr = correlations_of(bernoulli_product(torus, [Fraction(1, 3)] * 4))
        res = check_realizability(torus, corr, RATIONAL)
        assert res.feasible and not built

    @pytest.mark.parametrize("case", sorted(REJECTED_BASES))
    def test_rejected_bases_reach_exact_pivoting(self, case, monkeypatch):
        # Each basis of TestCertifyRejections, with its float inverse in
        # place: the step declines every one the engine pivots from, and
        # gives the engine's answer on the rest, whose exact values decide
        # the other verdict.
        A, b, objective, basis, infeasible = REJECTED_BASES[case]
        runs, run = [], realz.simplex._Exact.run
        monkeypatch.setattr(realz.simplex._Exact, "run", lambda lp, *args: runs.append(lp) or run(lp, *args))
        with float_search_ends_on(basis, infeasible, inverted=True):
            res = realz.simplex.solve(A, b, objective, rational=True)
            assert bool(runs) == (res.exact_pivots > 0)
            assert declined(A, b, objective) == res
        assert res.exact_pivots > 0 or res.feasible == infeasible
        assert_oracle_answer(A, b, objective, res)

    @pytest.mark.parametrize("case", ["determinant", "check", "costs"])
    def test_past_its_bounds_the_step_declines(self, case, monkeypatch):
        # determinant: |det B| = (2**26 + 1)**2 - 1 passes 2**52, so d Binv
        # is not read in float.  check: d = 2**30, but B N's partial sums
        # reach 2**61.  costs: past int64.  The step hands no start over,
        # so the exact engine decides each from the slack basis, in two
        # pivots, with no warning.
        k = 2**26 + 1
        A, b, c = {
            "determinant": ([[k, 1], [1, k]], [k + 1, k + 1], [1, 1]),
            "check": ([[2**30, 1], [0, 1]], [2**30 + 1, 1], None),
            "costs": ([[1, 1], [1, -1]], [2, 0], [2**70, 2**70]),
        }[case]
        proofs, prove = [], realz.simplex._prove
        monkeypatch.setattr(realz.simplex, "_prove", lambda *args: proofs.append(prove(*args)) or proofs[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = realz.simplex.solve(A, b, c, rational=True)
        assert k * k - 1 > 2**52 and proofs == [(None, None)]
        assert res.solution == (1, 1) and res.exact_pivots == 2
        assert_oracle_answer(A, b, c, res)


def rational_solves(inputs) -> list:
    """``(result, proof, pivots)`` of every rational solve the checks
    ``inputs`` (``(check, domain, corr)``) make: ``proof`` is ``(search,
    args)``, the float search whose basis ``_prove`` proved and the rest of
    its arguments, or None where the exact engine ran, and ``pivots`` the
    calls of ``_Exact.pivot``."""
    calls, proofs, pivots = [], [], []
    solve, prove, pivot = realz.simplex.solve, realz.simplex._prove, realz.simplex._Exact.pivot

    def proving(search, *args):
        answer, start = prove(search, *args)
        proofs.append(None if answer is None else (search, args))
        return answer, start

    def recording(A, b, objective=None, **kwargs):
        proofs.clear()
        pivots.clear()
        res = solve(A, b, objective, **kwargs)
        calls.append((res, proofs[-1] if proofs else None, len(pivots)))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realz.simplex, "solve", recording)
        patch.setattr(realz.simplex, "_prove", proving)
        patch.setattr(realz.simplex._Exact, "pivot", lambda lp, *args: pivots.append(1) or pivot(lp, *args))
        for check, domain, corr in inputs:
            check(domain, corr, RATIONAL)
    return calls


@pytest.fixture(scope="module")
def benchmark_solves():
    """The rational solves of the ``exact`` workload's rounds 0-1 and of
    the near-boundary probe, as :func:`rational_solves` gives them."""
    return rational_solves(exact_workload_inputs()), rational_solves(near_boundary_inputs())


class TestIntegerHandOver:
    """One integer scale through the exact LP: ``solve`` clears ``b`` once,
    ``_prove`` reads ``|det B|`` off the float search's pivot elements, and
    the answer hands its integers over beside its ``Fraction`` values."""

    def test_handed_integers_are_the_public_values(self, benchmark_solves):
        calls = [call for calls in benchmark_solves for call in calls]
        # The workload's infeasible tables are refuted before the LP; the
        # probe's reach it.
        assert {res.feasible for res, *_ in calls} == {True, False}
        for res, *_ in calls:
            support, duals = res._integers
            if res.feasible:
                # The positive weights in column order, over their least
                # common denominator, as _to_integers gives them.
                columns = [k for k, v in enumerate(res.solution) if v > 0]
                scale, numerators = realz.core._to_integers([res.solution[k] for k in columns])
                assert support == (columns, numerators, scale)
                assert all(type(v) is int for v in numerators)
            values = res.farkas_dual if not res.feasible else res.dual if res.objective_value is not None else None
            if values is None:
                assert duals is None
            else:
                numerators, d = duals
                assert [Fraction(v, d) for v in numerators] == list(values)
        # Outside the dataclass fields: the fields and their values are as before.
        assert "_integers" not in {f.name for f in dataclasses.fields(realz.simplex.LinearProgramResult)}

    def test_pivot_determinant_is_det_B(self, benchmark_solves):
        workload, probe = benchmark_solves
        # Every solve of the workload is proved, and most of the probe's.
        assert all(proof is not None for _, proof, _ in workload)
        assert sum(proof is not None for _, proof, _ in probe) > len(probe) // 2
        for res, proof, _ in workload + probe:
            if proof is not None:
                search = proof[0]
                B = search.At[search.basis, : search.m].T
                assert round(abs(search.det)) == round(abs(np.linalg.det(B)))

    def test_a_wrong_determinant_is_declined(self, benchmark_solves):
        # Off by one, d Binv is no integer matrix unless Binv is one (its
        # denominator would divide both d and d +- 1): the check B N = d I
        # declines it.  Where Binv is integral every multiple of 1 passes,
        # and the answer is the same.
        declined = 0
        for res, proof, _ in [call for calls in benchmark_solves for call in calls]:
            if proof is None:
                continue
            search, args = proof
            det, d = search.det, round(abs(search.det))
            integral = (np.rint(search.K[: search.m, : search.m] * d) % d == 0).all()
            try:
                for wrong in (d - 1, d + 1):
                    search.det = float(wrong)
                    answer, _ = realz.simplex._prove(search, *args)
                    if not integral:
                        assert answer is None
                        declined += 1
                    elif answer is not None:
                        assert answer == res
            finally:
                search.det = det
        assert declined > 100

    def test_every_exact_pivot_is_counted(self, benchmark_solves):
        # The engine starts from the handed start or the slack basis and
        # makes no pivot that exact_pivots leaves out.
        calls = [call for calls in benchmark_solves for call in calls]
        assert any(pivots for *_, pivots in calls)
        assert all(res.exact_pivots == pivots for res, _, pivots in calls)

    @pytest.mark.parametrize("seed, index, pivots", [(3, 1, (6, 26, 10)), (10, 3, (3, 1, 1))],
                             ids=["torus(2,2,2)", "complete(4,c1)"])
    def test_engine_pivots_on_from_the_proved_basis(self, seed, index, pivots):
        # Two third-moment LPs of the probe whose float basis the step
        # reads as feasible but not optimal: the engine pivots on from it,
        # where from the slack basis it would make 6 and 3 exact pivots.
        domain, corr = near_boundary_input(seed, index)
        *_, res = moment_lps([(minimal_third_moment, domain, corr, RATIONAL)])[-1]
        assert res._pivots == pivots

    def test_a_proved_solve_calls_no_lapack(self, monkeypatch):
        # |det B| comes off the pivots: no np.linalg function runs, so a
        # one-shot rational command pays no first LAPACK call.
        called = []
        for name in dir(np.linalg):
            function = getattr(np.linalg, name)
            if not name.startswith("_") and callable(function) and not isinstance(function, type):
                monkeypatch.setattr(np.linalg, name, lambda *args, name=name, **kwargs: called.append(name))
        torus = torus_domain((4,), occupancy_cap=1)
        corr = correlations_of(bernoulli_product(torus, [Fraction(1, 3)] * 4))
        (res, proof, _), = rational_solves([(check_realizability, torus, corr)])
        assert proof is not None and res.exact_pivots == 0 and res.feasible
        assert called == []


#: ``(seed, index)`` of near-boundary inputs whose float basis the exact
#: engine rejects, so that it restarts from the slack basis and pivots.
EXACT_PIVOTING_INPUTS = ((3, 4), (3, 6), (5, 5), (9, 6), (13, 7), (14, 6), (16, 3), (19, 4))


class TestNearBoundary:
    """Inputs within solver tolerance of the moment polytope's boundary:
    every rational answer is exact, and every float input gets a verdict."""

    def test_rational_answers_are_exact(self, monkeypatch):
        inputs = [near_boundary_input(seed, index) for seed in (0, 1) for index in range(len(NEAR_BOUNDARY_DOMAINS))]
        verdicts = []
        for domain, corr in inputs:
            res = check_realizability(domain, corr, RATIONAL)
            verdicts.append(res.feasible)
            assert res.feasible or verify_certificate(domain, res.certificate, corr, tol=0)
        calls = []
        solve = realz.simplex.solve

        def recording(A, b, objective=None, **kwargs):
            res = solve(A, b, objective, **kwargs)
            calls.append((A, b, res))
            return res

        monkeypatch.setattr(realz.simplex, "solve", recording)
        # The count hull refutes some of these inputs before the LP; here
        # the LP solves every one, and agrees with each verdict.
        monkeypatch.setattr(realz.solver, "_refutations", lambda *args: iter(()))
        for domain, corr in inputs:
            check_realizability(domain, corr, RATIONAL)
        assert len(calls) == 18
        assert [res.feasible for _, _, res in calls] == verdicts
        for seed, index in EXACT_PIVOTING_INPUTS:
            check_realizability(*near_boundary_input(seed, index), RATIONAL)
        # The engine's pivots run on real moment LPs, not only on toys.
        assert len(calls) == 18 + len(EXACT_PIVOTING_INPUTS)
        assert all(res.exact_pivots > 0 for _, _, res in calls[18:])
        for A, b, res in calls:
            A, b = np.asarray(A, dtype=object), np.asarray(b, dtype=object)
            if res.feasible:
                x = np.asarray(res.solution, dtype=object)
                assert (x >= 0).all() and (A @ x == b).all()
            else:
                y = np.asarray(res.farkas_dual, dtype=object)
                assert (y @ A >= 0).all() and y @ b < 0
        assert sum(res.exact_pivots > 0 for _, _, res in calls) >= 10

    def test_float_inputs_get_verdicts_and_feasible_witnesses_replay(self):
        # Every float answer stands: an artificial pivoted out at zero with
        # no ratio test can push the witness weights off a sum of 1, which
        # Distribution refuses with a ValidationError.
        feasible = 0
        for seed in (0, 1):
            for index in range(len(NEAR_BOUNDARY_DOMAINS)):
                domain, corr = near_boundary_input(seed, index)
                corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
                res = check_realizability(domain, corr)
                if res.feasible:
                    feasible += 1
                    got = correlations_of(res.distribution)
                    assert np.abs(got.rho1 - corr.rho1).max() <= 1e-9
                    assert np.abs(got.rho2 - corr.rho2).max() <= 1e-9
        assert feasible > 0


    def test_float_certificates_that_fail_replay_are_counted(self):
        # The float probe, seeds 0-39 on the nine domains: its infeasible
        # answers whose certificate misses the replay bar (91 of 360 from
        # the slack basis, 73 from the crash basis, 68 with the crash always
        # taken on interior LPs; ROADMAP item 1).  No more may fail, and
        # every feasible witness reproduces its input.
        failing = feasible = 0
        for seed in range(40):
            for index in range(len(NEAR_BOUNDARY_DOMAINS)):
                domain, corr = near_boundary_input(seed, index)
                corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
                res = check_realizability(domain, corr)
                if res.feasible:
                    feasible += 1
                    got = correlations_of(res.distribution)
                    assert max(np.abs(got.rho1 - corr.rho1).max(), np.abs(got.rho2 - corr.rho2).max()) <= 1e-9
                elif not verify_certificate(domain, res.certificate, corr):
                    failing += 1
        assert feasible >= 214 and failing <= 68

    def test_float_third_moment_witnesses_replay(self):
        # The same 360 float inputs through minimal_third_moment: every
        # finite witness reproduces its input.  An artificial that phase 2
        # pivots out at its phase-1 value, up to the tolerance, moved mass
        # with it: 44 inputs raised on a weight sum off 1, and 7 witnesses
        # missed the bar.  One input still raises (seed 7 on the (3,3)
        # torus, a weight sum of 7.5e10; ROADMAP item 10).
        raised = finite = 0
        for seed in range(40):
            for index in range(len(NEAR_BOUNDARY_DOMAINS)):
                domain, corr = near_boundary_input(seed, index)
                corr = CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float))
                try:
                    res = minimal_third_moment(domain, corr)
                except realz.ValidationError:
                    raised += 1
                    continue
                if res.finite:
                    finite += 1
                    got = correlations_of(res.witness)
                    assert max(np.abs(got.rho1 - corr.rho1).max(), np.abs(got.rho2 - corr.rho2).max()) <= 1e-9
        assert raised <= 1 and finite >= 200


def moment_lps(inputs) -> list:
    """``(A, b, objective, kwargs, result)`` of every ``simplex.solve`` call
    that the checks ``inputs`` (``(check, domain, corr, opts)``) make."""
    calls, solve = [], realz.simplex.solve

    def recording(A, b, objective=None, **kwargs):
        res = solve(A, b, objective, **kwargs)
        calls.append((A, b, objective, kwargs, res))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(realz.simplex, "solve", recording)
        for check, domain, corr, opts in inputs:
            check(domain, corr, opts)
    return calls


def reference_tables(law) -> list:
    """``(check, domain, corr, opts)``: both checks, in float and in rational
    mode, on the tables of ``law(rng, domain, exact)`` on every domain of
    ``reference_domains()`` with a configuration."""
    rng, inputs = np.random.default_rng(71), []
    for exact in (False, True):
        opts = RATIONAL if exact else SolverOptions()
        for domain in reference_domains():
            if realz.enumerate_configurations(domain).shape[0]:
                corr = correlations_of(law(rng, domain, exact))
                inputs += [(check, domain, corr, opts) for check in (check_realizability, minimal_third_moment)]
    return inputs


def uniform_law(rng, domain, exact):
    """Equal weight on every configuration of ``domain``."""
    configs = realz.enumerate_configurations(domain)
    weight = Fraction(1, len(configs)) if exact else 1 / len(configs)
    return realz.Distribution(domain, tuple((config, weight) for config in configs))


class TestCrash:
    """The float search starts from the crash basis of the configurations
    with at most two particles (``simplex._start``), and counts its pivots
    per phase."""

    def test_pivot_counts_per_phase(self, monkeypatch):
        # (phase 1, phase 2, exact) against a spy on every pivot: the float
        # search's per phase, the exact engine's all together.
        seen, pivoted = [], realz.simplex._Pivots.pivoted

        def spying(self, progress, phase):
            seen.append(phase if isinstance(self, realz.simplex._Revised) else "exact")
            pivoted(self, progress, phase)

        solve = realz.simplex.solve

        def counted(A, b, objective=None, **kwargs):
            seen.clear()
            res = solve(A, b, objective, **kwargs)
            assert res._pivots == (seen.count("phase 1"), seen.count("phase 2"), seen.count("exact"))
            assert res.iterations == len(seen) and res.exact_pivots == seen.count("exact")
            counts.append(res._pivots)
            return res

        counts = []
        monkeypatch.setattr(realz.simplex._Pivots, "pivoted", spying)
        monkeypatch.setattr(realz.simplex, "solve", counted)
        # Near-boundary inputs whose rational checks make exact pivots,
        # as floats too, and the first reference tables.
        inputs = [(check, *near_boundary_input(seed, index)) for seed, index in EXACT_PIVOTING_INPUTS[:4]
                  for check in (check_realizability, minimal_third_moment)]
        for check, domain, corr in inputs:
            check(domain, corr, RATIONAL)
            check_realizability(domain, CorrelationPair(rho1=corr.rho1.astype(float), rho2=corr.rho2.astype(float)))
        for check, domain, corr, opts in reference_tables(uniform_law)[:24]:
            check(domain, corr, opts)
        # Every count is exercised.
        assert all(any(count[k] for count in counts) for k in range(3))
        # Outside the dataclass fields, as _integers is.
        assert "_pivots" not in {f.name for f in dataclasses.fields(realz.simplex.LinearProgramResult)}

    @pytest.mark.parametrize("law", [uniform_law, random_distribution], ids=["uniform", "few-atom"])
    def test_crash_cuts_phase_1(self, law):
        # The same LPs from the slack basis (no crash column): the crash at
        # least halves phase 1 on the uniform laws' tables.  On laws of 1-6
        # random atoms, whose tables lie on low faces, it cuts phase 1 by a
        # third (402 against 628 pivots).
        calls = moment_lps(reference_tables(law))
        crash = sum(res._pivots[0] for *_, res in calls)
        slack = sum(solve(A, b, objective, rational=kwargs["rational"])._pivots[0] for A, b, objective, kwargs, _ in calls)
        assert 2 * crash <= slack if law is uniform_law else 3 * crash <= 2 * slack

    def test_crash_basis_is_triangular_and_signed(self):
        # The start of every moment LP of the reference tables, and of the
        # same LP with b negated, under the objective rule, as an interior
        # LP, and after the budget's restart: its inverse and x_B are the
        # basis's, every basic value is nonnegative, each structural
        # column's last nonzero is on its own row, and |det B| is the
        # product of the own-row entries.  The restart is the slack start
        # in every buffer.
        starts, kept = set(), 0
        for A, b, objective, kwargs, res in moment_lps(reference_tables(uniform_law)):
            A = np.asarray(A)
            for bvec in (np.array([float(v) for v in b]), -np.array([float(v) for v in b])):
                ruled = realz.simplex._Revised(A, bvec, objective, kwargs["_crash"])
                interior = realz.simplex._Revised(A, bvec, objective, kwargs["_crash"], True)
                kept += (ruled.basis >= ruled.n).all() and (interior.basis < interior.n).any()
                restarted = realz.simplex._Revised(A, bvec, objective, kwargs["_crash"], True)
                restarted.start(0, 1)
                restarted.restart()
                slack = realz.simplex._Revised(A, bvec, objective)
                slack.start(0, 1)
                assert restarted.budget is None and (restarted.signs is None) == (slack.signs is None)
                assert restarted.det == slack.det and (restarted.basis == slack.basis).all()
                assert (restarted.K == slack.K).all() and (restarted.At == slack.At).all()
                for start, lp in (("ruled", ruled), ("interior", interior), ("restart", restarted)):
                    m, n = lp.m, lp.n
                    B = lp.At[lp.basis, :m].T
                    assert np.allclose(lp.K[:m, :m] @ B, np.eye(m))
                    assert (lp.x_B >= 0).all() and np.allclose(B @ lp.x_B, bvec)
                    structural = np.flatnonzero(lp.basis < n)
                    own = [np.flatnonzero(A[:, j]).max() for j in lp.basis[structural]]
                    assert own == structural.tolist()
                    assert abs(lp.det) == np.prod(A[structural, lp.basis[structural]])
                    assert lp.det == pytest.approx(np.linalg.det(B))
                    starts.add((start, len(structural) > 0, lp.signs is not None))
        # Crash and slack starts, with and without signed artificials, and
        # interior LPs that keep a crash the objective rule rejects.
        both = {(True, True), (True, False), (False, True), (False, False)}
        assert {key[1:] for key in starts if key[0] == "ruled"} == both
        assert {key[1:] for key in starts if key[0] == "interior"} == both
        assert {key[1:] for key in starts if key[0] == "restart"} == {(False, True), (False, False)}
        assert kept > 0

    def test_budget_restarts_phase_1_from_the_slack_basis(self, monkeypatch):
        # The (4,3) lp-infeasible table of the ladder, Bernoulli(1/2) with
        # its nearest-neighbour pairs times 3/2: its interior full LP spends
        # the budget of 2m pivots from the crash, starts over once from the
        # slack basis and refutes the table exactly, in 2m pivots more than
        # the slack start alone makes.  The torus's distances and caps on a
        # plain domain: a torus_domain would take its translations.
        torus = plain_domain(torus_domain((4, 3), occupancy_cap=1))
        s = torus.site_count
        rho2 = np.full((s, s), Fraction(1, 4), dtype=object)
        np.fill_diagonal(rho2, 0)
        corr = scaled_nearest_pairs(torus, CorrelationPair(np.full(s, Fraction(1, 2), dtype=object), rho2), Fraction(3, 2))
        restarts, restart = [], realz.simplex._Revised.restart
        monkeypatch.setattr(realz.simplex._Revised, "restart", lambda lp: restarts.append(lp.iterations) or restart(lp))
        (A, b, objective, kwargs, res), = moment_lps([(check_realizability, torus, corr, RATIONAL)])
        m = len(b)
        assert kwargs["_interior"] and restarts == [2 * m]
        assert not res.feasible and res.exact_pivots == 0
        y = np.array(res.farkas_dual, dtype=object)
        assert (y @ np.asarray(A, dtype=object) >= 0).all() and y @ np.array(b, dtype=object) < 0
        slack = solve(A, b, objective, rational=True)
        assert slack.feasible == res.feasible and res.iterations == slack.iterations + 2 * m
        assert res._pivots == (slack._pivots[0] + 2 * m, 0, 0)


class TestDegenerateSystems:
    """Float and exact verdicts on degenerate systems of moment-matrix shape."""

    @pytest.mark.parametrize("rule", ["dantzig", "bland"], indirect=True)
    def test_float_verdicts_match_exact(self, rule):
        # 12 x 60, entries in {0, 1, 2} under a normalization row.  b mixes
        # three columns, so every feasible basis is degenerate; half of the
        # right-hand sides are then moved by 1/2 in one row.
        rng = np.random.default_rng(47)
        verdicts = []
        for _ in range(12):
            A = rng.integers(0, 3, size=(12, 60))
            A[0] = 1
            columns = rng.choice(60, size=3, replace=False)
            b = [sum(Fraction(k, 6) * int(A[i, j]) for k, j in zip((1, 2, 3), columns)) for i in range(12)]
            if rng.random() < 0.5:
                b[int(rng.integers(1, 12))] += Fraction(int(rng.choice([-1, 1])), 2)
            exact = solve(A.tolist(), b, rational=True)
            floats = solve(A, [float(v) for v in b])
            assert floats.feasible == exact.feasible
            verdicts.append(exact.feasible)
            # An int64 matrix whose right-hand side overflows float64 goes
            # straight to exact pivoting, with the same verdict.
            scaled = realz.simplex.solve(A, [v * 10**400 for v in b], rational=True)
            assert scaled.exact_pivots == scaled.iterations and scaled.feasible == exact.feasible
            if exact.feasible:
                assert min(exact.solution) >= 0 and (A @ np.array(exact.solution) == b).all()
                x = np.array(floats.solution)
                assert x.min() >= 0 and np.abs(A @ x - np.array(b, dtype=float)).max() <= 1e-9
            else:
                y = np.array(exact.farkas_dual)
                assert (y @ A >= 0).all() and y @ np.array(b) < 0
                y = np.array(floats.farkas_dual)
                assert (y @ A >= -1e-9).all() and y @ np.array(b, dtype=float) < 0
        assert 3 <= sum(verdicts) <= 9
