import numpy as np
import pytest

from ehrelay.auglag import ALPHA_MAX, ALPHA_MIN, ReducedProblem
from ehrelay.waterfill import _waterfill_two_budgets, inner_waterfill, solve
from oracles import (
    random_feasible_points,
    two_budget_kkt_residual,
    two_budget_nested_bisection,
    waterfill_bisection,
)


def rate_of(mu, a, alpha, bandwidth, k):
    w = (1.0 - alpha) * bandwidth / (2.0 * k)
    return w * float(np.sum(np.log2(1.0 + a * mu)))


class TestInnerWaterfill:
    def test_single_pair_closed_form(self):
        a_val, b_val = 3.0, 2.0
        problem = ReducedProblem(np.array([a_val]), np.array([b_val]), 1000.0, 1)
        for alpha in [0.05, 0.2, 0.5, 0.8]:
            g = 2.0 * alpha / (1.0 - alpha)
            cost = a_val / (g * b_val)
            mu, mu_bar, rate = inner_waterfill(alpha, problem)
            assert mu[0] == pytest.approx(min(1.0, 1.0 / cost), rel=1e-12)
            assert mu_bar[0] == pytest.approx(cost * mu[0], rel=1e-12)
            expected = (1.0 - alpha) * 1000.0 / 2.0 * np.log2(1.0 + a_val * mu[0])
            assert rate == pytest.approx(expected, rel=1e-12)

    def test_slack_cost_budget_reduces_to_classic_waterfilling(self):
        rng = np.random.default_rng(51)
        a = rng.uniform(0.5, 30.0, 5)
        b = a * 1e6  # enormous hop-2 headroom: cost constraint never binds
        problem = ReducedProblem(a, b, 1000.0, 2)
        mu, _, _ = inner_waterfill(0.5, problem)
        reference = waterfill_bisection(a)
        assert np.max(np.abs(mu - reference)) < 1e-9

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(52)
        a = rng.uniform(0.5, 40.0, 3)
        b = rng.uniform(0.5, 40.0, 3)
        problem = ReducedProblem(a, b, 1000.0, 1)
        alpha = 0.3
        g = 2.0 * alpha / (1.0 - alpha)
        cost = a / (g * b)
        mu_opt, _, rate_opt = inner_waterfill(alpha, problem)
        # 1e5 random candidates feasible for both budgets.
        cands = random_feasible_points(rng, 3, 100_000)
        usage = cands @ cost
        cands = cands[usage <= 1.0]
        best = 0.0
        for mu in cands:
            best = max(best, rate_of(mu, a, alpha, 1000.0, 1))
        assert rate_opt >= best - 1e-9 * max(1.0, best)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(53)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 7))
            cases.append((rng.uniform(1e-1, 1e3, n), rng.uniform(1e-1, 1e3, n), float(rng.uniform(0.02, 0.95))))
        # Wide draws up to the largest time split, where the cost budget is
        # slack by orders of magnitude; a relay hop 5-10x stronger keeps the
        # costs of the active channels close together.
        for alpha in (0.3, 0.9, 0.9999, ALPHA_MAX):
            for _ in range(6):
                a = rng.uniform(1e-1, 1e3, 64)
                cases.append((a, rng.uniform(1e-1, 1e3, 64), alpha))
                cases.append((a, a * rng.uniform(5.0, 10.0, 64), alpha))
        for a, b, alpha in cases:
            problem = ReducedProblem(a, b, 1000.0, 2)
            mu, mu_bar, _ = inner_waterfill(alpha, problem)
            g = 2.0 * alpha / (1.0 - alpha)
            cost = a / (g * b)
            assert two_budget_kkt_residual(a, cost, mu) < 1e-8
            # Pair balance holds by construction.
            assert np.max(np.abs(a * mu - g * b * mu_bar)) <= 1e-9 * max(1.0, float(np.max(a * mu)))

    def test_kkt_residual_flags_moved_power(self):
        # Moving 1% of the power between two active channels of an optimum
        # must show as a KKT violation, whichever budgets are tight.
        rng = np.random.default_rng(55)
        for alpha in (0.05, 0.2, 0.5, 0.9999):
            a = rng.uniform(1.0, 1e3, 16)
            b = a * rng.uniform(0.5, 10.0, 16)
            mu, _, _ = inner_waterfill(alpha, ReducedProblem(a, b, 1000.0, 2))
            cost = a / (2.0 * alpha / (1.0 - alpha) * b)
            assert two_budget_kkt_residual(a, cost, mu) < 1e-8
            on = np.flatnonzero(mu > 0.0)
            assert on.size >= 2
            moved = mu.copy()
            moved[on[np.argmax(mu[on])]] -= 0.01
            moved[on[np.argmin(mu[on])]] += 0.01
            assert two_budget_kkt_residual(a, cost, moved) > 1e-3

    def test_two_budget_branch_matches_nested_bisection(self):
        rng = np.random.default_rng(56)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 65))
            a = 10.0 ** rng.uniform(-4.0, 8.0, n)
            spread = rng.uniform(0.0, 3.0)  # cost ratio up to 1e6
            shape = 10.0 ** rng.uniform(-spread, spread, n)
            alpha = float(rng.uniform(0.05, 0.95))
            g = 2.0 * alpha / (1.0 - alpha)
            dead = rng.random(n) < 0.1
            live = ~dead
            # Scale the costs so that the live pairs are in the two-budget
            # branch: the unit-budget solution overspends the cost budget
            # and the cost-budget solution overspends the unit budget.
            unit = waterfill_bisection(a[live])
            scale = 10.0 ** rng.uniform(0.0, np.log10(shape.max() / shape.min())) / float(shape[live] @ unit)
            cost = scale * shape
            if (
                float(cost[live] @ unit) <= 1.0 + 1e-9
                or float((waterfill_bisection(a[live] / cost[live]) / cost[live]).sum()) <= 1.0 + 1e-9
            ):
                continue
            b = a / (g * cost)
            a[dead & (rng.random(n) < 0.5)] = 0.0
            b[dead & (a > 0.0)] = 0.0
            problem = ReducedProblem(a, b, 1000.0, 2)
            mu, mu_bar, rate = inner_waterfill(alpha, problem)
            assert np.array_equal(mu[dead], np.zeros(int(dead.sum())))
            assert np.array_equal(mu_bar[dead], np.zeros(int(dead.sum())))
            ref = two_budget_nested_bisection(a[live], a[live] / (g * b[live]))
            assert np.max(np.abs(mu[live] - ref)) <= 1e-8
            ref_rate = (1.0 - alpha) * 1000.0 / 4.0 * float(np.sum(np.log2(1.0 + a[live] * ref)))
            assert rate == pytest.approx(ref_rate, rel=1e-9)
            checked += 1

    def test_price_ratio_near_one_keeps_its_digits(self):
        # Nearly all the price sits on the cost budget, so s is close to 1;
        # measured from 1 rather than 0, s would keep too few digits and
        # sum(mu) would miss 1 by about 8e-8.
        a = np.array([1e-4, 1e8, 1e3])
        cost = np.array([1e-6, 1e6, 1.0])
        mu, mu_bar, _ = inner_waterfill(0.5, ReducedProblem(a, a / (2.0 * cost), 1000.0, 1))
        assert abs(mu.sum() - 1.0) <= 1e-11
        assert abs(mu_bar.sum() - 1.0) <= 1e-11
        assert np.max(np.abs(mu - two_budget_nested_bisection(a, cost))) <= 1e-11

    def test_single_pair_with_both_budgets_tight(self):
        # One pair has both budgets tight only at cost 1, where mu = 1.
        for a_val in (1e-4, 3.0, 1e8):
            a = np.array([a_val])
            mu = _waterfill_two_budgets(a, np.array([[1.0]]))
            assert mu[0, 0] == pytest.approx(1.0, rel=1e-12)
            assert mu[0] == pytest.approx(two_budget_nested_bisection(a, np.array([1.0])), rel=1e-12)

    def test_all_dead_channels(self):
        problem = ReducedProblem(np.array([0.0, 0.0]), np.array([1.0, 0.5]), 1000.0, 1)
        mu, mu_bar, rate = inner_waterfill(0.4, problem)
        assert rate == 0.0
        assert np.array_equal(mu, np.zeros(2))
        assert np.array_equal(mu_bar, np.zeros(2))

    def test_alpha_domain(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, 1)
        with pytest.raises(ValueError):
            inner_waterfill(0.0, problem)
        with pytest.raises(ValueError):
            inner_waterfill(1.0, problem)


class TestSolve:
    def test_equal_coefficients_closed_form(self):
        problem = ReducedProblem(np.array([2.0]), np.array([2.0]), 1000.0, 1)
        sol = solve(problem)
        assert abs(sol.alpha_star - 1.0 / 3.0) < 1e-3
        assert sol.mu_star[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.mu_bar_star[0] == pytest.approx(1.0, abs=1e-3)

    def test_huge_relay_coefficient_pushes_alpha_down(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1e12]), 1000.0, 1)
        sol = solve(problem)
        assert sol.alpha_star <= ALPHA_MIN + 1e-3

    def test_profile_and_feasibility(self):
        rng = np.random.default_rng(54)
        problem = ReducedProblem(rng.uniform(1, 50, 4), rng.uniform(1, 50, 4), 1000.0, 2)
        sol = solve(problem, grid_points=99)
        assert len(sol.alpha_grid_profile) == 99
        assert sol.mu_star.sum() <= 1.0 + 1e-9
        assert sol.mu_bar_star.sum() <= 1.0 + 1e-9
        assert (sol.mu_star >= 0).all() and (sol.mu_bar_star >= 0).all()
        # The refined point is at least as good as every grid point.
        grid_best = max(rate for _, rate in sol.alpha_grid_profile)
        assert sol.rate_star >= grid_best - 1e-9

    def test_grid_points_validated(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, 1)
        with pytest.raises(ValueError):
            solve(problem, grid_points=7)

    def test_profile_matches_inner_waterfill(self):
        rng = np.random.default_rng(57)
        problem = ReducedProblem(rng.uniform(0.1, 1e3, 12), rng.uniform(0.1, 1e3, 12), 1000.0, 2)
        sol = solve(problem)
        branches = set()
        for alpha, rate in sol.alpha_grid_profile:
            mu, mu_bar, single = inner_waterfill(alpha, problem)
            assert rate == pytest.approx(single, rel=1e-12)
            branches.add((mu.sum() > 1.0 - 1e-9, mu_bar.sum() > 1.0 - 1e-9))
        # The grid crosses every branch: unit budget, cost budget, both.
        assert branches == {(True, False), (False, True), (True, True)}

    def test_all_dead_problem(self):
        problem = ReducedProblem(np.zeros(3), np.array([1.0, 0.5, 0.0]), 1000.0, 1)
        sol = solve(problem)
        assert sol.rate_star == 0.0
        assert np.array_equal(sol.mu_star, np.zeros(3))
        assert np.array_equal(sol.mu_bar_star, np.zeros(3))
        assert len(sol.alpha_grid_profile) == 199
        assert all(rate == 0.0 for _, rate in sol.alpha_grid_profile)

    def test_dead_pairs_stay_off(self):
        a = np.array([2.0, 0.0, 5.0, 3.0, 40.0])
        b = np.array([1.0, 4.0, 0.0, 2.0, 0.5])
        sol = solve(ReducedProblem(a, b, 1000.0, 2))
        dead = np.array([False, True, True, False, False])
        assert np.array_equal(sol.mu_star[dead], np.zeros(2))
        assert np.array_equal(sol.mu_bar_star[dead], np.zeros(2))
        assert (sol.mu_star[~dead] > 0.0).all()
        live = solve(ReducedProblem(a[~dead], b[~dead], 1000.0, 2))
        for (_, rate), (_, live_rate) in zip(sol.alpha_grid_profile, live.alpha_grid_profile):
            assert rate == pytest.approx(live_rate, rel=1e-12)
