import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ehrelay import waterfill
from ehrelay.experiment import Scenario, trial_rng
from ehrelay.system import ALPHA_MAX, ALPHA_MIN, Allocation, ReducedProblem, achievable_rate
from ehrelay.waterfill import _waterfill_two_budgets, inner_waterfill, solve
from draws import draw_stages
from oracles import (
    golden_section_max,
    random_feasible_points,
    two_budget_kkt_residual,
    two_budget_nested_bisection,
    waterfill_bisection,
)


def rate_of(mu, a, alpha, bandwidth, k):
    w = (1.0 - alpha) * bandwidth / (2.0 * k)
    return w * float(np.sum(np.log2(1.0 + a * mu)))


def crosscheck_problem(trial):
    """A 64-pair problem drawn as the benchmark's crosscheck workload draws it."""
    scen = Scenario(
        n_s=2, n_r=2, n_d=2, k_subcarriers=32, bandwidth_hz=1000.0, p_source=0.1, d_sd=2.0, phi=0.5
    )
    return draw_stages(scen, trial_rng(2718, 0, trial)).problem


def inner_at(alpha, problem):
    """``(mu, mu_bar, rate)`` of row 0 of :func:`inner_waterfill` on the 1-element array ``[alpha]``."""
    mu, mu_bar, rates, _ = inner_waterfill(np.array([alpha]), problem)
    return mu[0], mu_bar[0], rates[0]


def pinned_problem(draw):
    """A crosscheck draw, or K = 2, N = 2, d_sd = 10 at relay position phi."""
    kind, key = draw
    if kind == "crosscheck":
        return crosscheck_problem(key)
    return draw_stages(Scenario(phi=key), trial_rng(7, 0, 0)).problem


def counted_solve(monkeypatch, problem):
    """``solve(problem)`` and the ``ndim`` of each :func:`inner_waterfill` call it made."""
    calls = []
    inner = waterfill.inner_waterfill

    def counted(alpha, problem):
        calls.append(np.ndim(alpha))
        return inner(alpha, problem)

    with monkeypatch.context() as patch:
        patch.setattr(waterfill, "inner_waterfill", counted)
        sol = solve(problem)
    return sol, calls


def golden_section_rate(problem, sol):
    """Best rate of golden-section refinement around ``sol``'s best grid point."""
    alphas, rates = map(np.array, zip(*sol.alpha_grid_profile))
    best = int(np.argmax(rates))
    lo = float(alphas[max(0, best - 1)])
    hi = float(alphas[min(alphas.size - 1, best + 1)])
    _, rate = golden_section_max(lambda al: inner_at(al, problem)[2], lo, hi, 1e-6)
    return max(rate, float(rates[best]))


def test_import_leaves_alpf_unloaded():
    # The referee shares only the problem with the solver it checks, so a
    # fresh interpreter that imports it must not load ALPF.
    src = str(Path(waterfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, ehrelay.waterfill; print(sorted(m for m in sys.modules if m.startswith('ehrelay')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "['ehrelay', 'ehrelay.channel', 'ehrelay.system', 'ehrelay.waterfill']\n"


class TestInnerWaterfill:
    def test_single_pair_closed_form(self):
        a_val, b_val = 3.0, 2.0
        problem = ReducedProblem(np.array([a_val]), np.array([b_val]), 1000.0, 1)
        for alpha in [0.05, 0.2, 0.5, 0.8]:
            g = 2.0 * alpha / (1.0 - alpha)
            cost = a_val / (g * b_val)
            mu, mu_bar, rate = inner_at(alpha, problem)
            assert mu[0] == pytest.approx(min(1.0, 1.0 / cost), rel=1e-12)
            assert mu_bar[0] == pytest.approx(cost * mu[0], rel=1e-12)
            expected = (1.0 - alpha) * 1000.0 / 2.0 * np.log2(1.0 + a_val * mu[0])
            assert rate == pytest.approx(expected, rel=1e-12)

    def test_slack_cost_budget_reduces_to_classic_waterfilling(self):
        rng = np.random.default_rng(51)
        a = rng.uniform(0.5, 30.0, 5)
        b = a * 1e6  # enormous hop-2 headroom: cost constraint never binds
        problem = ReducedProblem(a, b, 1000.0, 2)
        mu, _, _ = inner_at(0.5, problem)
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
        mu_opt, _, rate_opt = inner_at(alpha, problem)
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
        # Coefficients spanning twelve decades, so the active channels' costs
        # can span ten or more; draw 130 (n = 11, alpha = ALPHA_MIN, active costs
        # from 0.17 to 3.3e9) reads 1.5e-8 if the prices are fitted to the
        # absolute marginals rather than the relative misfit.
        wide = np.random.default_rng(0)
        for _ in range(300):
            n = int(wide.integers(2, 65))
            a, b = 10.0 ** wide.uniform(-4.0, 8.0, (2, n))
            alpha = (ALPHA_MIN, 0.01, 0.3, 0.9, ALPHA_MAX)[int(wide.integers(0, 5))]
            cases.append((a, b, alpha))
        for a, b, alpha in cases:
            problem = ReducedProblem(a, b, 1000.0, 2)
            mu, mu_bar, _ = inner_at(alpha, problem)
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
            mu, _, _ = inner_at(alpha, ReducedProblem(a, b, 1000.0, 2))
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
            mu, mu_bar, rate = inner_at(alpha, problem)
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
        mu, mu_bar, _ = inner_at(0.5, ReducedProblem(a, a / (2.0 * cost), 1000.0, 1))
        assert abs(mu.sum() - 1.0) <= 1e-11
        assert abs(mu_bar.sum() - 1.0) <= 1e-11
        assert np.max(np.abs(mu - two_budget_nested_bisection(a, cost))) <= 1e-11

    def test_single_pair_with_both_budgets_tight(self):
        # One pair has both budgets tight only at cost 1, where mu = 1.
        for a_val in (1e-4, 3.0, 1e8):
            a = np.array([a_val])
            mu, _ = _waterfill_two_budgets(a, np.array([[1.0]]))
            assert mu[0, 0] == pytest.approx(1.0, rel=1e-12)
            assert mu[0] == pytest.approx(two_budget_nested_bisection(a, np.array([1.0])), rel=1e-12)

    def test_array_rows_match_scalar_calls(self):
        # The rows of one call equal 1-element calls, bit for bit, across
        # every branch and with dead pairs.
        rng = np.random.default_rng(57)
        a = rng.uniform(0.1, 1e3, 12)
        b = rng.uniform(0.1, 1e3, 12)
        a[3] = 0.0
        b[7] = 0.0
        problem = ReducedProblem(a, b, 1000.0, 2)
        alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 61)
        mu, mu_bar, rates, slopes = inner_waterfill(alphas, problem)
        assert mu.shape == mu_bar.shape == (61, 12)
        assert rates.shape == slopes.shape == (61,)
        for i in range(alphas.size):
            mu_i, mu_bar_i, rate_i, slope_i = inner_waterfill(alphas[i : i + 1], problem)
            assert mu_i.tobytes() == mu[i : i + 1].tobytes()
            assert mu_bar_i.tobytes() == mu_bar[i : i + 1].tobytes()
            assert rate_i.tobytes() == rates[i : i + 1].tobytes()
            assert slope_i.tobytes() == slopes[i : i + 1].tobytes()

    @pytest.mark.parametrize("dead", [False, True], ids=["live", "dead-pairs"])
    def test_slope_matches_central_differences(self, monkeypatch, dead):
        # The slope is dR/dalpha by the envelope theorem, from the cost
        # budget's price; central differences of the rate must agree on
        # every branch, on two-budget rows solved in either coordinates.
        rng = np.random.default_rng(57)
        a = rng.uniform(0.1, 1e3, 12)
        b = rng.uniform(0.1, 1e3, 12)
        if dead:
            a[3] = 0.0
            b[7] = 0.0
        problem = ReducedProblem(a, b, 1000.0, 2)
        live = a[(a > 0.0) & (b > 0.0)]
        swapped = []
        root = waterfill._price_ratio_root

        def recorded(gains, cost, start):
            swapped.extend((gains != live).any(axis=1))
            return root(gains, cost, start)

        alphas = np.linspace(0.01, 0.99, 99)
        with monkeypatch.context() as patch:
            patch.setattr(waterfill, "_price_ratio_root", recorded)
            mu, mu_bar, _, slopes = inner_waterfill(alphas, problem)
        step = 1e-6
        central = (inner_waterfill(alphas + step, problem)[2] - inner_waterfill(alphas - step, problem)[2]) / (2 * step)
        assert np.all(np.abs(slopes - central) <= 1e-6 * np.abs(central))
        branches = {(m.sum() > 1.0 - 1e-9, m_bar.sum() > 1.0 - 1e-9) for m, m_bar in zip(mu, mu_bar)}
        assert branches == {(True, False), (False, True), (True, True)}
        assert any(swapped) and not all(swapped)

    def test_all_dead_channels(self):
        problem = ReducedProblem(np.array([0.0, 0.0]), np.array([1.0, 0.5]), 1000.0, 1)
        mu, mu_bar, rate = inner_at(0.4, problem)
        assert rate == 0.0
        assert np.array_equal(mu, np.zeros(2))
        assert np.array_equal(mu_bar, np.zeros(2))

    def test_alpha_domain(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, 1)
        # A float is rejected too: the evaluator takes a 1-D array only.
        bad = (
            0.5, np.array([0.0]), np.array([1.0]), np.array([0.3, 1.0]), np.array([0.0, 0.3]),
            np.array([0.3, np.nan]), np.full((2, 2), 0.5),
        )
        for alpha in bad:
            with pytest.raises(ValueError):
                inner_waterfill(alpha, problem)


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
        sol = solve(problem)
        assert len(sol.alpha_grid_profile) == 199
        assert sol.mu_star.sum() <= 1.0 + 1e-9
        assert sol.mu_bar_star.sum() <= 1.0 + 1e-9
        assert (sol.mu_star >= 0).all() and (sol.mu_bar_star >= 0).all()
        # The refined point is at least as good as every grid point.
        grid_best = max(rate for _, rate in sol.alpha_grid_profile)
        assert sol.rate_star >= grid_best - 1e-9

    def test_profile_matches_inner_waterfill(self):
        rng = np.random.default_rng(57)
        problem = ReducedProblem(rng.uniform(0.1, 1e3, 12), rng.uniform(0.1, 1e3, 12), 1000.0, 2)
        sol = solve(problem)
        branches = set()
        for alpha, rate in sol.alpha_grid_profile:
            mu, mu_bar, single = inner_at(alpha, problem)
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

    def test_refine_tol_below_float_spacing_returns(self, monkeypatch):
        # The bracket cannot shrink below the spacing of floats near alpha*;
        # the rounds stop once it no longer shrinks.
        monkeypatch.setattr(waterfill, "_REFINE_TOL", 1e-300)
        problem = crosscheck_problem(0)
        sol = solve(problem)
        assert sol.rate_star >= max(rate for _, rate in sol.alpha_grid_profile)

    def test_zoom_matches_golden_section(self):
        rng = np.random.default_rng(57)
        three_branch = ReducedProblem(rng.uniform(0.1, 1e3, 12), rng.uniform(0.1, 1e3, 12), 1000.0, 2)
        problems = [crosscheck_problem(t) for t in range(6)] + [three_branch]
        rng = np.random.default_rng(58)
        for _ in range(4):
            a = 10.0 ** rng.uniform(-2.0, 4.0, 20)
            b = 10.0 ** rng.uniform(-2.0, 4.0, 20)
            a[rng.random(20) < 0.15] = 0.0
            b[rng.random(20) < 0.15] = 0.0
            problems.append(ReducedProblem(a, b, 1000.0, 3))
        for problem in problems:
            sol = solve(problem)
            ref = golden_section_rate(problem, sol)
            assert sol.rate_star >= ref * (1.0 - 1e-11)
            assert sol.rate_star >= max(rate for _, rate in sol.alpha_grid_profile)
            assert ALPHA_MIN <= sol.alpha_star <= ALPHA_MAX
            assert sol.mu_star.sum() <= 1.0 + 1e-9
            assert sol.mu_bar_star.sum() <= 1.0 + 1e-9
            assert (sol.mu_star >= 0.0).all() and (sol.mu_bar_star >= 0.0).all()
            # The pairs stay balanced, and the rate is that of the allocation.
            g = 2.0 * sol.alpha_star / (1.0 - sol.alpha_star)
            hop1 = problem.a_coeffs * sol.mu_star
            hop2 = g * problem.b_coeffs * sol.mu_bar_star
            assert np.allclose(hop1, hop2, rtol=1e-12, atol=0.0)
            rate = rate_of(sol.mu_star, problem.a_coeffs, sol.alpha_star, 1000.0, problem.k_subcarriers)
            assert sol.rate_star == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize(
        "draw, rate_hex, alpha_hex, arrays_sha256",
        [
            (
                ("crosscheck", 0), "0x1.c6cc73d0f7b66p+13", "0x1.d3377bdf17fcap-5",
                "1019131309a79a3f64cb102b9900b306c1ecdf59cd8415b44f254c41d7ea5e08",
            ),
            (
                ("crosscheck", 1), "0x1.c913c90656e20p+13", "0x1.26e83cb5cd1e3p-4",
                "ec0b16a3eab9e159e55469e7371e97e7085498f2f1b1ae782d73b272ba00c4c4",
            ),
            (
                ("crosscheck", 2), "0x1.c326001aedb7dp+13", "0x1.021f1b776b724p-4",
                "cd9a9420bb173ab1f25888fd9e90627187039552232357a8b8c200086d2a3df3",
            ),
            (
                ("phi", 0.1), "0x1.1ab9b72486328p+12", "0x1.c69c310c14990p-3",
                "82385186125665a01429f7a4b4fd5b69ded8281028cfdcb5803830ac18835ca4",
            ),
            (
                ("phi", 0.5), "0x1.8d3aed5bc501bp+10", "0x1.362ed8cd082d5p-2",
                "069afa2d750562f19024750c096e61398fb4bd382c282b68df1cc41cafb52ade",
            ),
            (
                ("phi", 0.9), "0x1.f2d88b1aec59ap+11", "0x1.2b1de85cd0dbdp-4",
                "40dc9acde836770983ce63c44b2a9268739c75f1c4e817cfc36eda6335d66373",
            ),
        ],
        ids=["crosscheck-0", "crosscheck-1", "crosscheck-2", "phi-0.1", "phi-0.5", "phi-0.9"],
    )
    def test_solve_pinned_bit_for_bit(self, draw, rate_hex, alpha_hex, arrays_sha256):
        # A rewrite of the oracle's kernels that claims the same arithmetic
        # must reproduce these exactly.  Recorded with numpy 2.4 on OpenBLAS
        # 0.3; another BLAS may move the last bits of the grid's cost-budget
        # test, which is then a reason to re-record, not an oracle change.
        # The digest covers the bytes of mu, mu_bar and the grid profile as
        # a (grid_points, 2) array, in that order.
        sol = solve(pinned_problem(draw))
        assert sol.rate_star.hex() == rate_hex
        assert sol.alpha_star.hex() == alpha_hex
        digest = hashlib.sha256()
        for array in (sol.mu_star, sol.mu_bar_star, np.array(sol.alpha_grid_profile)):
            digest.update(array.tobytes())
        assert digest.hexdigest() == arrays_sha256

    @pytest.mark.parametrize(
        "draw, rate_hex, alpha_hex",
        [
            (("crosscheck", 0), "0x1.c6cc73d0f5c9ap+13", "0x1.d3374afdce71fp-5"),
            (("crosscheck", 1), "0x1.c913c90656dabp+13", "0x1.26e838d525490p-4"),
            (("crosscheck", 2), "0x1.c326001aec632p+13", "0x1.021f32191f154p-4"),
            (("phi", 0.1), "0x1.1ab9b724862d2p+12", "0x1.c69c272a510cbp-3"),
            (("phi", 0.5), "0x1.8d3aed5bc4ff3p+10", "0x1.362edb3a42f36p-2"),
            (("phi", 0.9), "0x1.f2d88b1ac8218p+11", "0x1.2b1e05a91fdbdp-4"),
        ],
        ids=["crosscheck-0", "crosscheck-1", "crosscheck-2", "phi-0.1", "phi-0.5", "phi-0.9"],
    )
    def test_solve_no_worse_than_fixed_zoom(self, draw, rate_hex, alpha_hex):
        # The same draws as the bit-for-bit pins, solved by the fixed
        # +-1-row zoom that the slope-placed rounds replaced: the rate may
        # not fall below its answer, and alpha stays within the contract.
        sol = solve(pinned_problem(draw))
        assert sol.rate_star >= float.fromhex(rate_hex) * (1.0 - 1e-12)
        assert abs(sol.alpha_star - float.fromhex(alpha_hex)) <= 1e-6

    def test_rate_matches_achievable_rate(self):
        # Two independent formulas for the same rate: the oracle's own
        # water-filling sum and the system's per-pair minimum of hop rates.
        for t in range(3):
            problem = crosscheck_problem(t)
            sol = solve(problem)
            rate = achievable_rate(problem, Allocation(sol.alpha_star, sol.mu_star, sol.mu_bar_star))
            assert rate == pytest.approx(sol.rate_star, rel=1e-12)

    def test_alpha_within_refine_tol_of_dense_optimum(self):
        # Coefficients spanning many decades put some optima on a kink,
        # where one budget leaves the active set and the rate is steep on
        # one side; the contract there is on alpha, not on the rate.
        rng = np.random.default_rng(59)
        for _ in range(30):
            n = int(rng.integers(1, 65))
            a = 10.0 ** rng.uniform(-4.0, 8.0, n)
            b = 10.0 ** rng.uniform(-4.0, 8.0, n)
            a[rng.random(n) < 0.1] = 0.0
            problem = ReducedProblem(a, b, 1000.0, int(rng.integers(1, 40)))
            sol = solve(problem)
            if sol.rate_star == 0.0:
                continue
            dense = np.linspace(
                max(ALPHA_MIN, sol.alpha_star - 4e-6), min(ALPHA_MAX, sol.alpha_star + 4e-6), 801
            )
            _, _, rates, _ = inner_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6

    def test_decade_spanning_alpha_and_calls(self, monkeypatch):
        # Optima on kinks and at the box edges: the slope-placed rounds keep
        # the contract on alpha and stay within 8 calls.
        rng = np.random.default_rng(61)
        for _ in range(64):
            n = int(rng.integers(1, 65))
            a = 10.0 ** rng.uniform(-4.0, 8.0, n)
            b = 10.0 ** rng.uniform(-4.0, 8.0, n)
            a[rng.random(n) < 0.1] = 0.0
            problem = ReducedProblem(a, b, 1000.0, int(rng.integers(1, 40)))
            sol, calls = counted_solve(monkeypatch, problem)
            assert 1 <= len(calls) <= 8
            dense = np.linspace(
                max(ALPHA_MIN, sol.alpha_star - 4e-6), min(ALPHA_MAX, sol.alpha_star + 4e-6), 801
            )
            _, _, rates, _ = inner_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6

    def test_price_ratio_roots_stop_at_rounding(self, monkeypatch):
        # f sums 64 terms, so its rounding can keep the Newton step above
        # 4 eps * s at the root; the root must then stop on |f| itself.
        calls = [0]
        steps = []
        blend = waterfill._blend
        root = waterfill._price_ratio_root

        def counted_blend(*args):
            calls[0] += 1
            return blend(*args)

        def counted_root(*args):
            before = calls[0]
            out = root(*args)
            steps.append(calls[0] - before)
            return out

        monkeypatch.setattr(waterfill, "_blend", counted_blend)
        monkeypatch.setattr(waterfill, "_price_ratio_root", counted_root)
        for t in range(6):
            solve(crosscheck_problem(t))
        assert max(steps) <= 30

    def test_refinement_stays_batched(self, monkeypatch):
        for trial in range(6):
            _, calls = counted_solve(monkeypatch, crosscheck_problem(trial))
            # At most 4 calls, each on an array of time splits.
            assert 1 <= len(calls) <= 4
            assert calls == [1] * len(calls)

    def test_solution_is_inner_waterfill_at_alpha_star(self):
        # solve keeps the best row of its batches; a 1-element call at alpha*
        # must reproduce it bit for bit.
        rng = np.random.default_rng(60)
        problems = [crosscheck_problem(t) for t in range(3)]
        for _ in range(6):
            a = 10.0 ** rng.uniform(-2.0, 4.0, 16)
            b = 10.0 ** rng.uniform(-2.0, 4.0, 16)
            a[rng.random(16) < 0.15] = 0.0
            problems.append(ReducedProblem(a, b, 1000.0, 3))
        for problem in problems:
            sol = solve(problem)
            mu, mu_bar, rate = inner_at(sol.alpha_star, problem)
            assert sol.rate_star.hex() == rate.hex()
            assert mu.tobytes() == sol.mu_star.tobytes()
            assert mu_bar.tobytes() == sol.mu_bar_star.tobytes()

    def test_exhausted_price_ratio_root_raises(self, monkeypatch):
        # One step stops no root of the crosscheck draw; returning the last
        # iterate would give an allocation that overspends a budget.
        monkeypatch.setattr(waterfill, "_ROOT_STEPS", 1)
        with pytest.raises(RuntimeError, match="price-ratio root"):
            solve(crosscheck_problem(0))
