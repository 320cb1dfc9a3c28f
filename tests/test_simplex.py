"""Simplex kernel: feasibility, optimality, duals, Farkas certificates."""

from fractions import Fraction

import numpy as np
import pytest

from realz import (
    DimensionError,
    IterationLimitError,
    RationalInputError,
    SolverOptions,
    lp_feasibility,
)
from oracle import fm_feasible, fm_minimize

RATIONAL = SolverOptions(arithmetic_mode="rational")
RATIONAL_BLAND = SolverOptions(arithmetic_mode="rational", pivot_rule="bland")


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


class TestTrivial:
    def test_single_equation_feasible(self):
        res = lp_feasibility([[1.0]], [1.0])
        assert res.feasible
        assert res.solution == (1.0,)

    def test_single_equation_infeasible(self):
        # x >= 0 cannot reach -1; the Farkas vector refutes it
        res = lp_feasibility([[1.0]], [-1.0])
        assert not res.feasible
        y = res.farkas_dual
        assert y[0] * 1.0 >= -1e-9
        assert y[0] * -1.0 < 0

    def test_row_count_must_match_right_hand_side(self):
        with pytest.raises(DimensionError):
            lp_feasibility([[1.0]], [1.0, 2.0])

    def test_empty_system(self):
        res = lp_feasibility([], [], objective=[1.0, 2.0])
        assert res.feasible
        assert res.objective_value == 0.0


class TestOptimization:
    def test_known_optimum_with_duals(self):
        # min x0 + 2 x1 s.t. x0 + x1 = 1
        res = lp_feasibility([[1.0, 1.0]], [1.0], objective=[1.0, 2.0])
        assert res.feasible
        assert res.objective_value == pytest.approx(1.0)
        assert res.solution[0] == pytest.approx(1.0)
        # strong duality: y.b equals the optimum
        assert dot(res.dual, [1.0]) == pytest.approx(1.0)

    def test_degenerate_instance_terminates_with_dantzig(self):
        # classic cycling-prone instance; the stall guard must cope
        A = [
            [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
            [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        ]
        b = [0.0, 0.0, 1.0]
        c = [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0]
        res = lp_feasibility(A, b, objective=c, opts=SolverOptions(pivot_rule="dantzig"))
        assert res.feasible
        assert res.objective_value == pytest.approx(-0.05)

    def test_both_rules_agree(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.integers(-3, 4, size=(3, 6)).astype(float)
            x0 = rng.random(6)
            b = (A @ x0).tolist()
            # nonnegative costs keep the objective bounded below
            c = rng.integers(0, 4, size=6).astype(float).tolist()
            bland = lp_feasibility(
                A.tolist(), b, objective=c, opts=SolverOptions(pivot_rule="bland")
            )
            dantzig = lp_feasibility(
                A.tolist(), b, objective=c, opts=SolverOptions(pivot_rule="dantzig")
            )
            assert bland.feasible and dantzig.feasible
            assert bland.objective_value == pytest.approx(dantzig.objective_value)

    def test_iteration_limit(self):
        rng = np.random.default_rng(9)
        A = rng.integers(-3, 4, size=(4, 10)).astype(float)
        b = (A @ rng.random(10)).tolist()
        with pytest.raises(IterationLimitError):
            lp_feasibility(
                A.tolist(), b, objective=list(range(10)),
                opts=SolverOptions(max_iterations=1),
            )


class TestRationalMode:
    def test_exact_solution(self):
        res = lp_feasibility(
            [[1, 1], [1, -1]], [1, Fraction(1, 3)], opts=RATIONAL
        )
        assert res.feasible
        assert res.solution == (Fraction(2, 3), Fraction(1, 3))

    def test_rejects_floats(self):
        with pytest.raises(RationalInputError):
            lp_feasibility([[0.5]], [1], opts=RATIONAL)

    def test_accepts_fraction_strings(self):
        res = lp_feasibility([["1/2"]], ["1/4"], opts=RATIONAL)
        assert res.solution == (Fraction(1, 2),)


class TestRedundantRows:
    # Each system repeats its first row and adds an all-zero row, so phase 1
    # ends with artificials basic at level zero; on all three the drive-out
    # pivots at least one of them out and leaves the others.
    CASES = [
        (
            [[-1, 2, 1, -2, -1], [2, 0, -2, 1, 1], [2, -2, -2, 2, -2], [-1, 2, 1, -2, -1], [0, 0, 0, 0, 0]],
            [-1, 2, 2, -1, 0],
        ),
        ([[2, 2, 2], [-1, -2, 0], [2, -1, 2], [2, 2, 2], [0, 0, 0]], [2, -2, -1, 2, 0]),
        ([[0, 1, 1], [2, 0, 0], [0, 2, -2], [0, 1, 1], [0, 0, 0]], [0, 0, 0, 0, 0]),
    ]

    @pytest.mark.parametrize("rule", ["dantzig", "bland"])
    @pytest.mark.parametrize("A, b", CASES)
    def test_rational_solution_is_exact(self, A, b, rule):
        c = list(range(1, len(A[0]) + 1))
        opts = SolverOptions(arithmetic_mode="rational", pivot_rule=rule)
        for objective in (None, c):
            res = lp_feasibility(A, b, objective=objective, opts=opts)
            assert res.feasible
            assert all(v >= 0 for v in res.solution)
            for row, rhs in zip(A, b):
                assert dot(row, res.solution) == rhs
        assert res.objective_value == fm_minimize(A, b, c)[1]
        # the duals stay dual feasible and attain the optimum
        assert dot(res.dual, b) == res.objective_value
        for j, cost in enumerate(c):
            assert dot(res.dual, [row[j] for row in A]) <= cost

    @pytest.mark.parametrize("A, b", CASES)
    def test_float_matches_rational(self, A, b):
        c = list(range(1, len(A[0]) + 1))
        exact = lp_feasibility(A, b, objective=c, opts=RATIONAL)
        res = lp_feasibility(
            [[float(v) for v in row] for row in A], [float(v) for v in b], objective=c
        )
        assert res.feasible
        assert min(res.solution) >= 0
        for row, rhs in zip(A, b):
            assert dot(row, res.solution) == pytest.approx(rhs, abs=1e-9)
        assert res.objective_value == pytest.approx(float(exact.objective_value), abs=1e-9)

    @pytest.mark.parametrize("opts", [None, RATIONAL], ids=["float", "rational"])
    def test_contradictory_copies_are_refuted(self, opts):
        for A, b in (([[1, 1], [1, 1], [0, 0]], [1, 2, 0]), ([[1, 1], [0, 0]], [1, 1])):
            res = lp_feasibility(A, b, opts=opts)
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
            float_res = lp_feasibility(
                [[float(v) for v in row] for row in A_list], [float(v) for v in b_list]
            )
            rational_res = lp_feasibility(A_list, b_list, opts=RATIONAL)
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
            res = lp_feasibility(A.tolist(), b.tolist(), objective=c.tolist(), opts=RATIONAL)
            status, value = fm_minimize(A.tolist(), b.tolist(), c.tolist())
            assert res.feasible and status == "optimal"
            assert res.objective_value == value

    def test_bland_rule_against_elimination_oracle(self):
        # exact Bland pivoting from the first pivot: verdicts, solutions,
        # Farkas vectors and optima checked against the oracle
        rng = np.random.default_rng(23)
        verdicts = set()
        for _ in range(30):
            A = rng.integers(-3, 4, size=(4, 7)).tolist()
            if rng.random() < 0.5:
                b = (np.array(A) @ rng.integers(0, 3, size=7)).tolist()
            else:
                b = rng.integers(-5, 6, size=4).tolist()
            c = rng.integers(0, 4, size=7).tolist()
            res = lp_feasibility(A, b, objective=c, opts=RATIONAL_BLAND)
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
