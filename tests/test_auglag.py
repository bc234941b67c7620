import hashlib
from dataclasses import fields, replace
from itertools import islice

import numpy as np
import pytest

from ehrelay import auglag, experiment
from ehrelay.auglag import (
    _eliminate,
    _newton_direction,
    _penalty,
    _ReducedPoint,
    _Subproblem,
    optimize,
    solve_subproblem,
    update_multipliers,
    update_penalties,
)
from ehrelay.channel import Scenario
from ehrelay.experiment import stress_scenarios, trial_rng
from ehrelay.system import ALPHA_MAX, ALPHA_MIN, ReducedProblem, achievable_rate
from ehrelay.waterfill import solve as oracle_solve
from oracles import pack_point, penalty_gradient, penalty_value
from test_waterfill import crosscheck_problem


def assemble(z, nu, sigma, problem):
    """Eliminate the slacks at one point ``z`` with a fresh subproblem."""
    return _eliminate(z, _Subproblem(nu, sigma, problem))


def random_state(rng, n, coeff_lo=1e-2, coeff_hi=1e3, bandwidth=1000.0):
    """Random problem plus a point ``z = (alpha, mu)`` and multiplier and
    penalty vectors, at sane coefficient scales."""
    a = rng.uniform(coeff_lo, coeff_hi, n)
    b = rng.uniform(coeff_lo, coeff_hi, n)
    problem = ReducedProblem(a, b, bandwidth, int(rng.integers(1, 4)))
    z = np.concatenate(([rng.uniform(0.05, 0.9)], rng.uniform(0.0, 1.0, n)))
    nu = rng.normal(0.0, 1.0, 2)
    sigma = rng.uniform(0.5, 20.0, 2)
    return problem, z, nu, sigma


def eliminated(point):
    """The full primal vector of a reduced point, in the reference layout."""
    return pack_point(point.z[0], point.z[1:], point.s1, point.s2)


def gradient_vs_central_differences(problem, z, nu, sigma, h=2e-5, tol=1e-5):
    """Worst relative error of the reduced gradient the solver runs against
    a central finite difference of the reduced penalty value, over the
    components of ``z = (alpha, mu)`` the difference can resolve.

    A central difference carries cancellation noise of order
    ``eps * |P| / h`` plus a truncation term of comparable size near the
    optimal step; components smaller than that combined floor divided by
    the target tolerance cannot be certified at double precision and are
    skipped.  The eliminated slacks make the penalty only once
    differentiable where a budget starts to bind, and a difference across
    that kink errs by ``h`` times the jump in curvature; where the two
    difference points do not share the point's binding budgets, the step
    is halved until they do, and the floor is that of the shorter step.
    """
    def binding(point):
        return point.h_budget1 > 0.0, point.h_damp > 0.0

    point = assemble(z, nu, sigma, problem)
    grad = point.gradient
    base = max(1.0, abs(point.value))
    worst = 0.0
    for i in range(z.size):
        step = h
        while True:
            zp = z.copy()
            zm = z.copy()
            zp[i] += step
            zm[i] -= step
            above, below = assemble(zp, nu, sigma, problem), assemble(zm, nu, sigma, problem)
            if binding(above) == binding(below) == binding(point):
                break
            step *= 0.5
        floor = max(1e-8, 2.0 * np.finfo(float).eps * base / (step * tol))
        if abs(grad[i]) <= floor:
            continue
        fd = (above.value - below.value) / (2 * step)
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-30))
    return worst


def dense_hessian(point):
    """The structured Hessian of a reduced point, written out in full."""
    n = point.h_diag.size
    hess = np.empty((n + 1, n + 1))
    hess[0, 0] = point.h_alpha
    hess[0, 1:] = hess[1:, 0] = point.block[1]
    hess[1:, 1:] = (
        np.diag(point.h_diag)
        + point.h_budget1
        + point.h_damp * np.outer(point.block[3], point.block[3])
    )
    return hess


def parallel_row_residual(sigma, coeff_lo, coeff_hi):
    """Worst relative residual of the Newton step's mu rows on parallel budget rows.

    One live pair, or ``a / b`` the same on every pair (n = 2, 8, 64), with
    ``a`` and ``b`` drawn from ``[coeff_lo, coeff_hi]`` and both budgets
    overspent, so both bind at ``nu = 0`` with penalty ``sigma``.  Returns
    the largest ``|H_mu d_mu + h_cross d_alpha + g_mu|`` over the largest
    ``|g_mu|``.
    """
    rng = np.random.default_rng(60)
    worst = 0.0
    for n in (1, 2, 8, 64):
        for _ in range(25):
            b = rng.uniform(coeff_lo, coeff_hi, n)
            a = rng.uniform(coeff_lo, coeff_hi, n) if n == 1 else rng.uniform(coeff_lo, coeff_hi) * b
            problem = ReducedProblem(a, b, 2.0, int(rng.integers(1, 4)))
            alpha = rng.uniform(0.05, 0.9)
            r = a[0] / b[0] * (1.0 - alpha) / (2.0 * alpha)
            mu = rng.dirichlet(np.ones(n)) * rng.uniform(1.01, 2.0) * max(1.0, 1.0 / r)
            z = np.concatenate(([alpha], mu))
            point = assemble(z, np.zeros(2), np.full(2, sigma), problem)
            assert point.h_budget1 == point.h_damp == sigma
            step = _newton_direction(z, point, 0.0)
            hess = dense_hessian(point)
            grad = point.gradient
            residual = hess[1:, 1:] @ step[1:] + hess[1:, 0] * step[0] + grad[1:]
            worst = max(worst, float(np.max(np.abs(residual)) / np.max(np.abs(grad[1:]))))
    return worst


def reduced_states(seed, count):
    """Random reduced points ``(problem, z, nu, sigma, point)``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0)
        yield problem, z, nu, sigma, assemble(z, nu, sigma, problem)


def violation_by_hand(point, problem):
    """Independent scalar re-derivation of both constraint residuals at
    the eliminated point, by subtraction, with each pair's relay power
    set to balance its hops."""
    alpha, mu = float(point.z[0]), point.z[1:]
    g = 2.0 * alpha / (1.0 - alpha)
    relay = [problem.a_coeffs[i] * mu[i] / (g * problem.b_coeffs[i]) for i in range(problem.n_pairs)]
    return np.array([sum(mu) + point.s1 - 1.0, sum(relay) + point.s2 - 1.0])


def first_start(problem, monkeypatch):
    """The ``z`` of the first subproblem ``optimize`` solves; the run stops there."""
    class Started(Exception):
        pass

    def spy(z, *args):
        raise Started(z)

    with monkeypatch.context() as patch:
        patch.setattr(auglag, "solve_subproblem", spy)
        with pytest.raises(Started) as started:
            optimize(problem)
    return started.value.args[0]


class TestReducedProblem:
    @pytest.mark.parametrize(
        "a, b, bandwidth",
        [
            ([np.nan, 1.0], [1.0, 1.0], 1000.0),
            ([np.inf, 1.0], [1.0, 1.0], 1000.0),
            ([1.0, 1.0], [1.0, -np.inf], 1000.0),
            ([1.0, 1.0], [np.nan, 1.0], 1000.0),
            ([1.0, 1.0], [1.0, 1.0], np.inf),
            ([1.0, 1.0], [1.0, 1.0], np.nan),
        ],
        ids=["nan-a", "inf-a", "minus-inf-b", "nan-b", "inf-bandwidth", "nan-bandwidth"],
    )
    def test_non_finite_inputs_rejected(self, a, b, bandwidth):
        with pytest.raises(ValueError):
            ReducedProblem(np.array(a), np.array(b), bandwidth, 1)

    @pytest.mark.parametrize(
        "a, b, k, match",
        [
            ([1.0, 2.0], [1.0], 1, "equal-length"),
            ([1.0, -2.0], [1.0, 1.0], 1, "nonnegative"),
            ([1.0, 2.0], [1.0, 1.0], 0, "k_subcarriers"),
            ([1.0, 2.0], [1.0, 1.0], 2.5, "k_subcarriers"),
            ([1.0, 2.0], [1.0, 1.0], 2.0, "k_subcarriers"),
            ([1.0, 2.0], [1.0, 1.0], True, "k_subcarriers"),
        ],
        ids=["unequal-lengths", "negative-a", "no-subcarriers", "fractional-k", "float-k", "bool-k"],
    )
    def test_malformed_inputs_rejected(self, a, b, k, match):
        with pytest.raises(ValueError, match=match):
            ReducedProblem(np.array(a), np.array(b), 1000.0, k)

    def test_numpy_integer_count_accepted(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, np.int64(2))
        assert problem.k_subcarriers == 2


class TestViolation:
    def test_all_slack_point_is_feasible(self):
        # With no source power every relay power is 0 and both slacks take
        # their whole budget.
        problem = ReducedProblem(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1000.0, 1)
        point = assemble(np.array([0.37, 0.0, 0.0]), np.zeros(2), np.ones(2), problem)
        assert np.array_equal(point.mu_bar, [0.0, 0.0])
        assert (point.s1, point.s2) == (1.0, 1.0)
        assert np.allclose(point.residual, 0.0)

    def test_balanced_single_pair(self):
        # 2 alpha / (1 - alpha) = 2 at alpha = 0.5, so A mu = 2 B mu_bar.
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        point = assemble(np.array([0.5, 0.5]), np.zeros(2), np.ones(2), problem)
        assert point.mu_bar[0] == pytest.approx(0.5)
        assert (point.s1, point.s2) == pytest.approx((0.5, 0.5))
        assert np.allclose(point.residual, 0.0)

    def test_matches_hand_recomputation(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 5)))
            point = assemble(z, nu, sigma, problem)
            assert np.max(np.abs(point.residual - violation_by_hand(point, problem))) < 1e-12


class TestPenaltyValue:
    def test_bare_objective_at_zero_violation(self):
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        point = assemble(np.array([0.5, 0.5]), np.zeros(2), np.ones(2), problem)
        expected = (0.5 - 1.0) * 1000.0 / 2.0 * np.log2(1.0 + 2.0 * 0.5)
        assert point.value == pytest.approx(expected)

    def test_independent_of_sigma_when_feasible(self):
        # z has a feasible completion, which the elimination finds under
        # any penalties; with zero multipliers the value is the objective.
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        z = np.array([0.5, 0.5])
        v1 = assemble(z, np.zeros(2), np.ones(2), problem).value
        v2 = assemble(z, np.zeros(2), np.full(2, 1e4), problem).value
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_multipliers_shift_interior_constraints(self):
        # With both slacks interior, each constraint settles at
        # c = nu / sigma, which lowers the value by nu^2 / (2 sigma).
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        z = np.array([0.5, 0.5])
        nu = np.array([0.3, -0.2])
        objective = (0.5 - 1.0) * 1000.0 / 2.0 * np.log2(1.0 + 2.0 * 0.5)
        for sigma in (np.ones(2), np.full(2, 1e4)):
            point = assemble(z, nu, sigma, problem)
            assert np.allclose(point.residual, nu / sigma, rtol=1e-12, atol=0.0)
            assert point.value == pytest.approx(objective - np.sum(nu**2 / (2.0 * sigma)), rel=1e-12)

    def test_matches_reference_at_eliminated_point(self):
        for problem, _, nu, sigma, point in reduced_states(54, 100):
            value = penalty_value(eliminated(point), nu, sigma, problem)
            assert abs(point.value - value) <= 1e-12 * max(1.0, abs(value))

    def test_value_only_path_matches_elimination(self):
        # The line search prices each trial point by _penalty alone and
        # completes only the accepted one from the same intermediates:
        # every field must carry the bits of a fresh elimination.
        rng = np.random.default_rng(61)
        for _ in range(60):
            problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 6)))
            fixed = _Subproblem(nu, sigma, problem)
            assert _penalty(z, fixed)[0] == _eliminate(z, fixed).value
            point, _, _ = solve_subproblem(z, nu, sigma, problem, 1e-6)
            fresh = _eliminate(point.z, fixed)
            for field in fields(_ReducedPoint):
                assert np.array_equal(getattr(point, field.name), getattr(fresh, field.name)), field.name


class TestPenaltyGradient:
    def test_slack_gradient_zero_at_feasible_zero_multiplier(self):
        # The elimination leaves the full penalty stationary in both slacks.
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        point = assemble(np.array([0.5, 0.5]), np.zeros(2), np.ones(2), problem)
        grad = penalty_gradient(eliminated(point), np.zeros(2), np.ones(2), problem)
        n = problem.n_pairs
        assert grad[1 + n] == 0.0  # d/ds1
        assert grad[2 + n] == 0.0  # d/ds2

    def test_mu_gradient_zero_for_dead_channel(self):
        # A = 0 removes the objective pull; zero multipliers and zero
        # violation remove the constraint pull.
        problem = ReducedProblem(np.array([0.0]), np.array([1.0]), 1000.0, 1)
        point = assemble(np.array([0.5, 0.3]), np.zeros(2), np.ones(2), problem)
        assert point.gradient[1] == 0.0

    def test_matches_central_finite_differences(self):
        # Small bandwidth keeps the penalty value at a scale where an
        # h = 2e-5 central difference resolves every gradient component.
        rng = np.random.default_rng(42)
        for _ in range(100):
            problem, z, nu, sigma = random_state(
                rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0
            )
            assert gradient_vs_central_differences(problem, z, nu, sigma) < 1e-5

    def test_matches_reference_at_eliminated_point(self):
        # At the minimizer over the slacks the reduced gradient is the
        # full gradient's (alpha, mu) block.
        for problem, z, nu, sigma, point in reduced_states(55, 100):
            grad = penalty_gradient(eliminated(point), nu, sigma, problem)[: z.size]
            assert np.max(np.abs(point.gradient - grad)) <= 1e-9 * max(1.0, np.max(np.abs(grad)))


class TestSubproblem:
    def test_fixed_point_returned_unchanged(self):
        rng = np.random.default_rng(43)
        problem, z, nu, sigma = random_state(rng, 3, coeff_hi=10.0)
        first, _, _ = solve_subproblem(z, nu, sigma, problem, inner_tol=1e-6)
        second, iterations, _ = solve_subproblem(first.z, nu, sigma, problem, inner_tol=1e-6)
        assert iterations <= 2
        assert np.max(np.abs(eliminated(second) - eliminated(first))) < 1e-6
        v1 = penalty_value(eliminated(first), nu, sigma, problem)
        v2 = penalty_value(eliminated(second), nu, sigma, problem)
        assert v2 <= v1 + 1e-9 * max(1.0, abs(v1))

    def test_quadratic_instance_reaches_analytic_minimum(self):
        # With a = 0 the objective vanishes and the penalty is a sum of
        # shifted quadratics; each reaches its own shift, so the optimal
        # value is exactly -sum(nu^2 / (2 sigma)).
        problem = ReducedProblem(np.array([0.0]), np.array([1.0]), 1000.0, 1)
        nu = np.array([0.4, -0.3])
        sigma = np.array([2.0, 1.0])
        point, _, _ = solve_subproblem(np.array([0.5, 1.0]), nu, sigma, problem, inner_tol=1e-12)
        value = penalty_value(eliminated(point), nu, sigma, problem)
        expected = -float(np.sum(nu**2 / (2.0 * sigma)))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_hessian_matches_gradient_differences(self):
        # Exact inside an active set of the elimination, so only points
        # whose active set is the same at both difference points count.
        def active_set(point):
            return tuple(point.mu_bar > 0.0), point.h_damp > 0.0, point.h_budget1 > 0.0

        h = 1e-6
        checked = 0
        for problem, z, nu, sigma, point in reduced_states(49, 100):
            n = problem.n_pairs
            columns = []
            for i in range(n + 1):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                above, below = assemble(zp, nu, sigma, problem), assemble(zm, nu, sigma, problem)
                if not active_set(above) == active_set(below) == active_set(point):
                    break
                columns.append((above.gradient - below.gradient) / (2.0 * h))
            else:
                hess = dense_hessian(point)
                fd = np.array(columns).T
                assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))
                checked += 1
        assert checked >= 50

    def test_newton_direction_matches_dense_solve(self):
        # With no coordinate held at a bound (eps = 0, interior points) and
        # a positive definite Hessian the O(n) bordered solve is the plain
        # Newton step.
        checked = 0
        for _, z, _, _, point in reduced_states(50, 400):
            hess = dense_hessian(point)
            if np.linalg.eigvalsh(hess).min() <= 0.0:
                continue
            dense = -np.linalg.solve(hess, point.gradient)
            if abs(dense[0]) >= 0.25:
                continue
            step = _newton_direction(z, point, 0.0)
            assert np.max(np.abs(step - dense)) <= 1e-10 * np.max(np.abs(dense))
            checked += 1
        assert checked >= 10

    def test_newton_direction_matches_dense_solve_on_benchmark_paths(self, monkeypatch):
        # The states where both budgets bind along five benchmark solves
        # (n = 64), taken with no coordinate held: wherever the Hessian is
        # positive definite and the alpha move is below the cap, the
        # Woodbury step is the dense Newton step.
        states = []

        def recorded(z, point, eps):
            states.append((z, point))
            return _newton_direction(z, point, eps)

        with monkeypatch.context() as patch:
            patch.setattr(auglag, "_newton_direction", recorded)
            for trial in range(5):
                optimize(crosscheck_problem(trial))
        checked = 0
        for z, point in states:
            if point.h_budget1 == 0.0 or point.h_damp == 0.0 or not np.all(z[1:] > 0.0):
                continue
            hess = dense_hessian(point)
            if np.linalg.eigvalsh(hess).min() <= 0.0:
                continue
            dense = -np.linalg.solve(hess, point.gradient)
            if abs(dense[0]) >= 0.25:
                continue
            step = _newton_direction(z, point, 0.0)
            assert np.max(np.abs(step - dense)) <= 1e-10 * np.max(np.abs(dense))
            checked += 1
        assert checked >= 50, checked

    @pytest.mark.parametrize("sigma, tol", [(1e2, 1e-7), (1e6, 1e-7), (1e10, 1e-7), (1e12, 1e-5)])
    def test_newton_direction_on_parallel_rows(self, sigma, tol):
        # One live pair, or a / b the same on every pair (n = 2, 8, 64),
        # makes the two budget rows parallel, so row 2's pivot cancels once
        # row 1 is eliminated.  With both budgets binding at penalty sigma
        # the mu rows of the step solve their own system,
        # H_mu d_mu + h_cross d_alpha = -g_mu, to tol of the gradient; the
        # rows' gains reach 1e15 at sigma = 1e10 and 1e17 at 1e12.
        assert parallel_row_residual(sigma, 1.0, 1e2) <= tol

    @pytest.mark.xfail(
        reason="below SNR 1 the rows' Sherman-Morrison updates and their one "
        "refinement step leave a residual of 3e-4 of the gradient at sigma = 1e10, "
        "where a dense solve leaves 1e-13",
    )
    def test_newton_direction_on_parallel_rows_below_snr_one(self):
        # The parallel-row states above with a and b drawn from [1e-2, 1].
        assert parallel_row_residual(1e10, 1e-2, 1.0) <= 1e-7

    def test_newton_direction_holds_coordinates_at_bound(self):
        # With eps > 0, every mu within eps of 0 whose gradient pushes it
        # outward steps exactly to 0 and drops out of the Hessian.  The free
        # mu solve the free rows of the dense Newton system at the alpha
        # move taken, and where the free block is positive definite and the
        # move short the whole free step is the dense Newton step.  With
        # budget 2 slack h_alpha is 0, so only the first check applies.
        eps = 1e-3
        rng = np.random.default_rng(52)
        seen = {"budget 1 slack": 0, "budget 2 slack": 0, "both bind": 0, "dense step": 0}
        for _ in range(1000):
            problem, z, nu, sigma = random_state(rng, int(rng.integers(2, 6)), coeff_hi=1e2, bandwidth=2.0)
            n = problem.n_pairs
            # Budget multipliers far to either side make each budget slack
            # or binding; weak pairs near 0 let the prices push them out.
            nu = sigma * rng.choice([-2.0, 2.0], 2)
            low = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            a = problem.a_coeffs.copy()
            a[low] *= 1e-4
            problem = ReducedProblem(a, problem.b_coeffs, problem.bandwidth_hz, problem.k_subcarriers)
            z[1 + low] = rng.choice([0.0, eps]) * rng.uniform(0.0, 1.0, low.size)
            point = assemble(z, nu, sigma, problem)
            mu = z[1:]
            fixed = (mu <= eps) & (point.gradient[1:] > 0.0)
            if not fixed.any() or fixed.all():
                continue
            step = _newton_direction(z, point, eps)
            assert np.array_equal(step[1:][fixed], -mu[fixed])

            free = np.concatenate([[True], ~fixed])
            hess = dense_hessian(point)[np.ix_(free, free)]
            grad = point.gradient[free]
            d_mu = -np.linalg.solve(hess[1:, 1:], grad[1:] + hess[1:, 0] * step[0])
            assert np.max(np.abs(step[1:][~fixed] - d_mu)) <= 1e-10 * np.max(np.abs(d_mu))
            if np.linalg.eigvalsh(hess).min() > 0.0:
                dense = -np.linalg.solve(hess, grad)
                if abs(dense[0]) < 0.25:
                    assert np.max(np.abs(step[free] - dense)) <= 1e-10 * np.max(np.abs(dense))
                    seen["dense step"] += 1
            if point.h_budget1 == 0.0:
                seen["budget 1 slack"] += 1
            elif point.h_damp == 0.0:
                seen["budget 2 slack"] += 1
            else:
                seen["both bind"] += 1
        assert min(seen.values()) >= 10, seen

    def test_newton_direction_holds_every_coordinate_at_bound(self):
        # Weak pairs near 0 under binding budget 1 have every mu pushed
        # outward, so every mu steps exactly to 0 and the two-row solve has
        # no free row.  Alpha then moves alone: its reduced gradient and
        # Schur complement are its own gradient and curvature, under the
        # same Newton or _ALPHA_STEP rule and the same hold at its bounds.
        eps = 1e-3
        rng = np.random.default_rng(54)
        seen = {"alpha held": 0, "newton": 0, "capped": 0}
        for _ in range(400):
            problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0)
            problem = replace(problem, a_coeffs=1e-4 * problem.a_coeffs)
            nu = sigma * np.array([-2.0, rng.choice([-2.0, 2.0])])
            z[1:] = eps * rng.uniform(0.0, 1.0, problem.n_pairs)
            edges = (ALPHA_MIN + eps * rng.uniform(), ALPHA_MAX - eps * rng.uniform())
            z[0] = rng.choice([*edges, rng.uniform(ALPHA_MIN, 0.05), rng.uniform(0.05, 0.95)])
            point = assemble(z, nu, sigma, problem)
            if not np.all(point.gradient[1:] > 0.0):
                continue
            step = _newton_direction(z, point, eps)
            assert np.array_equal(step[1:], -z[1:])
            g_alpha, schur = float(point.gradient[0]), point.h_alpha
            if z[0] - ALPHA_MIN <= eps and g_alpha > 0.0:
                expected, kind = ALPHA_MIN - z[0], "alpha held"
            elif ALPHA_MAX - z[0] <= eps and g_alpha < 0.0:
                expected, kind = ALPHA_MAX - z[0], "alpha held"
            elif schur > 0.0 and abs(g_alpha) < 0.25 * schur:
                expected, kind = -g_alpha / schur, "newton"
            else:
                expected, kind = -0.25 * np.sign(g_alpha), "capped"
            assert step[0] == expected
            seen[kind] += 1
        assert min(seen.values()) >= 10, seen

    def test_newton_direction_holds_alpha_at_upper_bound(self):
        # Within eps of ALPHA_MAX with its gradient pushing outward, alpha
        # steps exactly to ALPHA_MAX and drops out of the Hessian, so the
        # free mu take the Newton step of the dense mu block alone.  Hop-1
        # coefficients 1e3 times larger keep the relay budget binding near
        # alpha = 1, where it pulls alpha up; 1e5 times larger give mu
        # blocks with condition numbers up to about 1e13.  On every state
        # the step solves its own system, H d = -g on the free mu block,
        # to 1e-6 of the gradient.  At scale 1e3 it also matches the dense
        # solve to 10 digits where the block's condition is at most 1e6;
        # at 1e5 even such blocks lose the 10th digit between two solves.
        eps = 1e-3
        seen = {(scale, ill): 0 for scale in (1e3, 1e5) for ill in (False, True)}
        for scale in (1e3, 1e5):
            rng = np.random.default_rng(53)
            for _ in range(400):
                problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0)
                problem = ReducedProblem(scale * problem.a_coeffs, problem.b_coeffs, 2.0, problem.k_subcarriers)
                z[0] = ALPHA_MAX - eps * rng.uniform()
                point = assemble(z, nu, sigma, problem)
                if point.gradient[0] >= 0.0:
                    continue
                step = _newton_direction(z, point, eps)
                assert step[0] == ALPHA_MAX - z[0]
                fixed = (z[1:] <= eps) & (point.gradient[1:] > 0.0)
                assert np.array_equal(step[1:][fixed], -z[1:][fixed])
                hess = dense_hessian(point)[1:, 1:][np.ix_(~fixed, ~fixed)]
                grad = point.gradient[1:][~fixed]
                assert np.max(np.abs(hess @ step[1:][~fixed] + grad)) <= 1e-6 * np.max(np.abs(grad))
                ill = np.linalg.cond(hess) > 1e6
                if scale == 1e3 and not ill:
                    dense = -np.linalg.solve(hess, grad)
                    assert np.max(np.abs(step[1:][~fixed] - dense)) <= 1e-10 * np.max(np.abs(dense))
                seen[scale, ill] += 1
        assert seen[1e3, False] >= 50 and seen[1e5, True] >= 100, seen

    def test_never_increases_penalty(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            problem, z, nu, sigma = random_state(rng, int(rng.integers(1, 5)))
            before = penalty_value(eliminated(assemble(z, nu, sigma, problem)), nu, sigma, problem)
            point, _, _ = solve_subproblem(z, nu, sigma, problem, inner_tol=1e-8)
            after = penalty_value(eliminated(point), nu, sigma, problem)
            assert after <= before + 1e-9 * max(1.0, abs(before))


class TestUpdates:
    # Each rule takes and returns the floats of one budget row.
    def test_multipliers_unchanged_at_zero_violation(self):
        for nu in (0.5, -0.5, 1.0):
            assert update_multipliers(nu, 1.0, 0.0) == nu

    def test_multiplier_step(self):
        out = update_multipliers(0.0, 1.0, 0.3)
        assert type(out) is float
        assert out == pytest.approx(-0.3)

    def test_multipliers_match_recomputation(self):
        rng = np.random.default_rng(45)
        nu = rng.normal(size=6)
        sigma = rng.uniform(0.5, 30.0, 6)
        c = rng.normal(size=6)
        for i in range(6):
            out = update_multipliers(float(nu[i]), float(sigma[i]), float(c[i]))
            assert out == pytest.approx(nu[i] - sigma[i] * c[i], rel=1e-15)

    def test_penalties_kept_on_sufficient_decrease(self):
        assert update_penalties(7.0, 0.05, 0.4, 3) == 7.0

    def test_penalties_grow_tenfold(self):
        out = update_penalties(1.0, 0.3, 0.4, 1)
        assert type(out) is float
        assert out == 10.0

    def test_penalties_grow_to_iteration_square(self):
        assert update_penalties(5.0, 0.3, 0.4, 12) == 144.0

    def test_boundary_equality_keeps_sigma(self):
        assert update_penalties(3.0, 0.1, 0.4, 5) == 3.0

    def test_sequence_nondecreasing(self):
        # Four rows, each run through the rule on its own.
        rng = np.random.default_rng(46)
        sigma = [1.0] * 4
        for k in range(1, 30):
            c_new, c_old = rng.random(4).tolist(), rng.random(4).tolist()
            new = [update_penalties(*row, k) for row in zip(sigma, c_new, c_old)]
            assert all(grown >= old for grown, old in zip(new, sigma))
            sigma = new

    def test_rejects_bad_iteration_index(self):
        with pytest.raises(ValueError):
            update_penalties(1.0, 1.0, 1.0, 0)


class TestOptimize:
    def test_single_pair_equal_coefficients(self):
        problem = ReducedProblem(np.array([2.0]), np.array([2.0]), 1000.0, 1)
        res = optimize(problem)
        assert res.converged
        assert abs(res.allocation.alpha - 1.0 / 3.0) < 1e-3
        assert abs(res.allocation.mu[0] - 1.0) < 1e-4
        assert abs(res.allocation.mu_bar[0] - 1.0) < 1e-4

    def test_convergence_report_fields(self):
        problem = ReducedProblem(np.array([5.0, 1.0]), np.array([4.0, 2.0]), 1000.0, 2)
        res = optimize(problem)
        assert res.converged
        assert res.final_violation <= 1e-6
        assert res.allocation.mu.sum() <= 1.0 + 1e-9
        assert res.allocation.mu_bar.sum() <= 1.0 + 1e-9
        assert res.outer_iterations <= 100
        assert not res.stalled

    def test_hop_balance_at_convergence(self):
        rng = np.random.default_rng(47)
        problems = []
        for _ in range(5):
            n = int(rng.integers(1, 5))
            problems.append(
                ReducedProblem(rng.uniform(0.5, 50.0, n), rng.uniform(0.5, 50.0, n), 1000.0, 2)
            )
        # K = 1, N = 2, P = 0.1 W, phi = 0.74: the optimum switches the
        # second pair off, and the solver leaves it a hop-1 SNR inside the
        # convergence tolerance with no hop-2 power.
        problems.append(
            ReducedProblem(
                np.array([50.06792926332739, 4.859536568452855]),
                np.array([4.6196860450373, 0.026302700054709915]),
                1000.0,
                1,
            )
        )
        for problem in problems:
            res = optimize(problem)
            assert res.converged
            alloc = res.allocation
            g = 2.0 * alloc.alpha / (1.0 - alloc.alpha)
            snr1 = problem.a_coeffs * alloc.mu
            snr2 = g * problem.b_coeffs * alloc.mu_bar
            assert np.max(np.abs(snr1 - snr2) / np.maximum(1.0, snr1)) <= 1e-5
            # Relative balance of every pair, however weak.
            assert np.all(np.abs(snr1 - snr2) <= 1e-5 * np.maximum(snr1, snr2))

    def test_inner_iterations_bounded_at_interior_time_split(self):
        # The acceptance phi sweep's trial_rng(7, 1, 0) at phi = 0.2
        # (K = 2, N = 2, d_sd = 10): the optimal time split is interior and
        # the subchannel SNRs span four decades.  The count stands in for
        # the sweep's wall-clock gate without depending on the machine; a
        # diagonally scaled projected gradient step needs 58,740 here.
        problem = ReducedProblem(
            np.array([499172.6026225028, 378337.65107991395, 252708.1674036053, 75964.04911230027]),
            np.array([457.6753918411256, 398.9675567535374, 69.99714012446255, 15.32298805158969]),
            1000.0,
            2,
        )
        res = optimize(problem)
        assert res.converged
        assert res.inner_iterations <= 500

    def test_rate_is_achievable_rate_of_allocation(self):
        # The reported rate is the one rate function applied to the
        # reported allocation, bit for bit.
        rng = np.random.default_rng(48)
        for seed in range(8):
            n = int(rng.integers(1, 4))
            scen = Scenario(
                n_s=n, n_r=n, n_d=n, k_subcarriers=int(rng.integers(1, 3)),
                p_source=float(rng.choice([0.1, 1.0, 10.0])), phi=float(rng.uniform(0.2, 0.8)),
            )
            problem = experiment.draw(scen, np.random.default_rng(seed)).problem
            res = optimize(problem)
            assert res.rate_bps == achievable_rate(problem, res.allocation)

    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_iterations_independent_of_bandwidth_unit(self, trial):
        # Rates are linear in bandwidth_hz, so its unit only rescales the
        # problem; the penalties start at that scale, so the solve's path
        # must not hang on it.  A unit start penalty took 67-260 inner
        # iterations here at 1 kHz and above.
        base = crosscheck_problem(trial)
        alphas = []
        for bandwidth in (1.0, 1e3, 1e6, 1e9):
            problem = replace(base, bandwidth_hz=bandwidth)
            res = optimize(problem)
            assert res.converged
            assert res.inner_iterations <= 40
            oracle = oracle_solve(problem).rate_star
            assert abs(res.rate_bps - oracle) <= 1e-7 * oracle
            alphas.append(res.allocation.alpha)
        assert max(alphas) - min(alphas) <= 1e-7

    @pytest.mark.parametrize("seed", range(14))
    def test_low_snr_far_relay_matches_oracle(self, seed):
        # K = 4, N = 3 at P = 3.6 mW with the relay at phi = 0.83 of
        # d_sd = 30: every SNR coefficient is below 1 and the optimal time
        # split lies above 0.9.  With unit start penalties these solves took
        # 1,077-22,495 inner iterations, and seed 12 missed by 1.1e-4.
        scen = Scenario(n_s=3, n_r=3, n_d=3, k_subcarriers=4, p_source=0.0036, phi=0.83, d_sd=30.0)
        problem = experiment.draw(scen, np.random.default_rng(seed)).problem
        res = optimize(problem)
        assert res.converged
        assert res.inner_iterations <= 1000
        oracle = oracle_solve(problem).rate_star
        assert abs(res.rate_bps - oracle) <= 1e-6 * oracle

    @pytest.mark.parametrize(
        "draw, rate_hex, alpha_hex, outer, inner, violation_hex, arrays_sha256",
        [
            (
                ("crosscheck", 0), "0x1.c6cc73be15b0fp+13", "0x1.d3377a0210627p-5", 4, 13,
                "0x1.583290a000000p-25", "23b576d7d24af410e380625ede64f89a5d1b84e4e78943a9d222ed49fb95fd0d",
            ),
            (
                ("crosscheck", 1), "0x1.c913c8e02b776p+13", "0x1.26e838a528bdap-4", 4, 16,
                "0x1.4545e0f000000p-23", "61e449c9cec98e98269d9fb8a2de45710d410061bf79f03a1d09291217712c7e",
            ),
            (
                ("crosscheck", 2), "0x1.c325fffde91b1p+13", "0x1.021f19975a047p-4", 4, 15,
                "0x1.37f38fa000000p-24", "8d939ece830d7b17a28fa81ee2bc4a3df0eb10d30cfc715b304d29628fd779e7",
            ),
            (
                ("phi", 0.1), "0x1.1ab9b72486328p+12", "0x1.c69c30c8bd2f3p-3", 4, 46,
                "0x1.e079530000000p-27", "85898caab30f0147af1a61c058918c39687a8fd0e14393be7adf3ea64f9ee4d3",
            ),
            (
                ("phi", 0.5), "0x1.8d3aed5bc5017p+10", "0x1.362ed74f4ab86p-2", 3, 66,
                "0x1.269dceb400000p-22", "152b9f42e60037bf7c71a624ee64678cfd058249094a9d8e5ca2c24a2ee17205",
            ),
            (
                ("phi", 0.9), "0x1.f2d88b0e2dd70p+11", "0x1.2b1de8d0f4f60p-4", 4, 9,
                "0x1.a34d800000000p-27", "65eae036e7619fda6c5ccf9971e03d8e38a67f53a5c425142ba26a94acba61a6",
            ),
        ],
        ids=["crosscheck-0", "crosscheck-1", "crosscheck-2", "phi-0.1", "phi-0.5", "phi-0.9"],
    )
    def test_results_pinned_bit_for_bit(
        self, draw, rate_hex, alpha_hex, outer, inner, violation_hex, arrays_sha256
    ):
        # A rewrite of the solver's kernels that claims the same arithmetic
        # must reproduce these exactly; comparing two runs of one build
        # cannot show that.  The values were recorded with numpy 2.4 on
        # OpenBLAS 0.3; another BLAS may order its dot products differently
        # and move the last bits, which is then a reason to re-record, not
        # a solver change.  A deliberate change of the solver's path (its
        # start, its updates or its rounding) is the other reason, and
        # CHANGES.md lists the old and new values.  The digest covers the
        # bytes of mu, mu_bar and the final multipliers and penalties, in
        # that order.
        kind, key = draw
        if kind == "crosscheck":
            problem = crosscheck_problem(key)
        else:  # K = 2, N = 2, d_sd = 10 at relay position phi = key
            scen = Scenario(phi=key)
            problem = experiment.draw(scen, trial_rng(7, 0, 0)).problem
        res = optimize(problem)
        assert res.rate_bps.hex() == rate_hex
        assert res.allocation.alpha.hex() == alpha_hex
        assert (res.outer_iterations, res.inner_iterations) == (outer, inner)
        assert res.final_violation.hex() == violation_hex
        digest = hashlib.sha256()
        for array in (res.allocation.mu, res.allocation.mu_bar, res.final_nu, res.final_sigma):
            digest.update(array.tobytes())
        assert digest.hexdigest() == arrays_sha256

    def test_iterations_pinned_over_crosscheck_draws(self):
        # The totals over twenty benchmark draws: a kernel rewrite that
        # claims the solver's path must keep them.  At alpha = 1/2 for every
        # start they were (79, 382).
        outer = inner = 0
        for trial in range(20):
            res = optimize(crosscheck_problem(trial))
            outer += res.outer_iterations
            inner += res.inner_iterations
        assert (outer, inner) == (79, 286)

    def test_start_fills_relay_budget(self, monkeypatch):
        # On the benchmark's draws alpha* is 0.05 to 0.08 and the even start
        # spends the relay budget at a split below 1/2, where the run starts,
        # with an even share of the source budget.  A start at 1/2 walked
        # alpha down the 0.25 step cap first.
        for trial in range(10):
            problem = crosscheck_problem(trial)
            z = first_start(problem, monkeypatch)
            g = float(np.mean(problem.a_coeffs / problem.b_coeffs))
            expected = g / (2.0 + g)
            assert ALPHA_MIN < expected < 0.5
            assert z[0] == pytest.approx(expected, rel=1e-15, abs=0.0)
            assert np.array_equal(z[1:], np.full(problem.n_pairs, 1.0 / problem.n_pairs))

    def test_start_of_one_live_pair_skips_dead_pairs(self, monkeypatch):
        # A dead pair (a = 0 or b = 0) spends no relay power, so g is the
        # live pair's a / b alone.
        problem = ReducedProblem(np.array([3.0, 0.0, 5.0]), np.array([50.0, 2.0, 0.0]), 1000.0, 1)
        z = first_start(problem, monkeypatch)
        assert z.size == 2
        assert z[0] == pytest.approx(0.06 / 2.06, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "a, b, start",
        [([1e-6, 2e-6], [1.0, 1.0], ALPHA_MIN), ([1.5e308, 1.0e308], [1.0, 1.0], 0.5), ([4.0, 4.0], [1.0, 2.0], 0.5)],
        ids=["floor", "near-overflow", "weak-relay"],
    )
    def test_start_at_the_split_limits(self, a, b, start, monkeypatch):
        # g so small that g / (2 + g) falls below ALPHA_MIN starts at the
        # floor; a / b near the largest double sums without overflow (a
        # RuntimeWarning fails the suite); g >= 2 keeps the start at 1/2.
        problem = ReducedProblem(np.array(a), np.array(b), 1000.0, 1)
        assert first_start(problem, monkeypatch)[0] == start

    def test_dead_pair_gets_no_relay_power(self):
        # A pair with no hop-2 gain (b = 0) or no hop-1 gain (a = 0) adds no
        # rate, so it gets no power on either hop, and the live pairs solve
        # exactly as the problem without it.
        rng = np.random.default_rng(53)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = rng.uniform(0.5, 50.0, n)
            b = rng.uniform(0.5, 50.0, n)
            dead = rng.integers(0, n)
            if rng.random() < 0.5:
                b[dead] = 0.0
            else:
                a[dead] = 0.0
            problem = ReducedProblem(a, b, 1000.0, 2)
            res = optimize(problem)
            assert res.converged
            assert res.allocation.mu[dead] == 0.0 and res.allocation.mu_bar[dead] == 0.0
            keep = np.arange(n) != dead
            alone = optimize(ReducedProblem(a[keep], b[keep], 1000.0, 2))
            assert res.allocation.alpha == alone.allocation.alpha
            assert np.array_equal(res.allocation.mu[keep], alone.allocation.mu)
            assert res.rate_bps == alone.rate_bps

    def test_no_live_pair(self):
        # As the oracle does: rate 0 at the lower clamp, after no iteration.
        for a, b in (([0.0, 3.0], [2.0, 0.0]), ([0.0], [0.0]), ([4.0], [0.0])):
            problem = ReducedProblem(np.array(a), np.array(b), 1000.0, 1)
            res = optimize(problem)
            assert (res.rate_bps, res.allocation.alpha) == (0.0, ALPHA_MIN)
            assert (res.outer_iterations, res.inner_iterations) == (0, 0)
            assert res.converged and not res.allocation.mu.any() and not res.allocation.mu_bar.any()
            assert res.rate_bps == oracle_solve(problem).rate_star

    @pytest.mark.xfail(
        raises=AssertionError,
        reason="a live pair at a / b of 1e12 and beyond stalls short of alpha* "
        "and still reports converged",
    )
    @pytest.mark.parametrize(
        "a, b",
        [([1e12], [1.0]), ([1e20], [1.0]), ([1e9], [1e-3]), ([1e20, 1.0], [1.0, 1.0])],
        ids=["1e12", "1e20", "1e9/1e-3", "two-pairs-1e20"],
    )
    def test_live_pairs_at_high_gain_ratio(self, a, b):
        # Each one-pair solve takes under 30 inner iterations, ends with its
        # subproblem stalled, and reports converged 88%, 15% and 46% below
        # the oracle (alpha 0.986 against alpha* 0.564 at 1e12).  At
        # a / b = 1e10 it is exact.  Beside a pair at a = b = 1, a / b = 1e20
        # stalls after 40 outer and 56,082 inner iterations and reports
        # converged 90% below the oracle (alpha 0.986 against alpha* 0.582).
        # A solver must converge or say it did not.
        problem = ReducedProblem(np.array(a), np.array(b), 1000.0, 1)
        res = optimize(problem)
        oracle = oracle_solve(problem).rate_star
        assert not res.converged or abs(res.rate_bps - oracle) <= 1e-6 * oracle

    @pytest.mark.xfail(
        raises=RuntimeWarning,
        reason="one live pair overflows in the solve from a / b of about 1e58",
    )
    @pytest.mark.parametrize("a", [1e58, 1e100, 1e160])
    def test_one_live_pair_without_overflow(self, a):
        # The suite turns the overflow warning into an error: 1e58
        # overflows in the Newton step's matmul, 1e100 and 1e160 in a
        # multiply.  The oracle solves each without a warning.
        problem = ReducedProblem(np.array([a]), np.array([1.0]), 1000.0, 1)
        res = optimize(problem)
        oracle = oracle_solve(problem).rate_star
        assert not res.converged or abs(res.rate_bps - oracle) <= 1e-6 * oracle

    @pytest.mark.parametrize("kind, index", [("corner", 65), ("corner", 24), ("corner", 115), ("broad", 70)])
    def test_stress_scenarios_match_oracle(self, kind, index):
        # Seeded stress scenarios that a form with one balance row per pair
        # missed by 1.4e-5, 1.7e-6, 3.6e-2 and 1.9e-6.  In corner 65 and 24
        # and broad 70 (alpha* 0.68 to 0.89) the absolute 1e-6 stop left a
        # pair at an SNR far below 1 unbalanced, and the trim to its weaker
        # hop cost rate; in corner 115 alpha ran on to 0.9997 against an
        # alpha* of 0.9965.
        problem = experiment.draw(next(islice(stress_scenarios(kind), index, None)), trial_rng(99, 0, index)).problem
        res = optimize(problem)
        assert res.converged
        oracle = oracle_solve(problem).rate_star
        assert abs(res.rate_bps - oracle) <= 1e-6 * oracle

    def test_last_subproblem_at_inner_cap_is_not_converged(self, monkeypatch):
        # Corner 12 meets the 1e-6 stop on feasibility, but only after its
        # last subproblem ran into the inner cap, so it is no KKT point.
        problem = experiment.draw(next(islice(stress_scenarios("corner"), 12, None)), trial_rng(99, 0, 12)).problem
        sizes = []
        inner = solve_subproblem

        def recorded(*args):
            out = inner(*args)
            sizes.append(out[1])
            return out

        monkeypatch.setattr(auglag, "solve_subproblem", recorded)
        res = optimize(problem)
        assert res.final_violation <= 1e-6
        assert sizes[-1] == auglag._MAX_INNER_ITERS
        assert not res.converged

    def test_alpha_stays_in_clamp(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1e12]), 1000.0, 1)
        res = optimize(problem)
        assert ALPHA_MIN <= res.allocation.alpha <= ALPHA_MAX
