import hashlib
import os
import subprocess
import sys
import warnings
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from ehrelay import experiment, waterfill
from ehrelay.experiment import STRESS_SETS, Scenario, stress_scenarios, trial_rng
from ehrelay.system import ALPHA_MAX, ALPHA_MIN, Allocation, ReducedProblem, achievable_rate
import oracles
from ehrelay.waterfill import inner_waterfill, solve
from oracles import (
    golden_section_max,
    random_feasible_points,
    sorted_waterfill,
    two_budget_kkt_residual,
    two_budget_nested_bisection,
    unit_price_bisection,
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
    return experiment.draw(scen, trial_rng(2718, 0, trial)).problem


def reference_rate(alpha, problem):
    """The rate of :func:`oracles.sorted_waterfill` at the one time split ``alpha``."""
    return sorted_waterfill(np.array([alpha]), problem)[2][0]


def pinned_problem(draw):
    """A crosscheck draw, or K = 2, N = 2, d_sd = 10 at relay position phi."""
    kind, key = draw
    if kind == "crosscheck":
        return crosscheck_problem(key)
    return experiment.draw(Scenario(phi=key), trial_rng(7, 0, 0)).problem


def counted_solve(monkeypatch, problem):
    """``solve(problem)`` and the ``(alpha, prices)`` of each :func:`inner_waterfill` call it made."""
    calls = []
    inner = waterfill.inner_waterfill

    def counted(alpha, problem, prices=None):
        calls.append((alpha, prices))
        return inner(alpha, problem, prices)

    with monkeypatch.context() as patch:
        patch.setattr(waterfill, "inner_waterfill", counted)
        sol = solve(problem)
    return sol, calls


def count_blends(monkeypatch, run):
    """Run ``run()``; return the reference's ``_blend`` evaluations, and those of each price-ratio root in it."""
    calls = [0]
    steps = []
    blend = oracles._blend
    root = oracles._price_ratio_root

    def counted_blend(*args):
        calls[0] += 1
        return blend(*args)

    def counted_root(*args):
        before = calls[0]
        out = root(*args)
        steps.append(calls[0] - before)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_blend", counted_blend)
        patch.setattr(oracles, "_price_ratio_root", counted_root)
        run()
    return calls[0], steps


def decade_problems(seed, count):
    """``count`` problems with a, b log-uniform in 1e-4..1e8 and about 10% of a zero."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        n = int(rng.integers(1, 65))
        a = 10.0 ** rng.uniform(-4.0, 8.0, n)
        b = 10.0 ** rng.uniform(-4.0, 8.0, n)
        a[rng.random(n) < 0.1] = 0.0
        problems.append(ReducedProblem(a, b, 1000.0, int(rng.integers(1, 40))))
    return problems


def stress_problems(count):
    """The first ``count`` scenarios of each stress set, on the solver tests' channels."""
    return [
        experiment.draw(scenario, trial_rng(99, 0, i)).problem
        for kind in STRESS_SETS
        for i, scenario in enumerate(islice(stress_scenarios(kind), count))
    ]


def assert_within_budgets(mu, mu_bar):
    """Every row of ``mu`` and of ``mu_bar`` sums to at most 1 + 1e-14."""
    assert mu.sum(axis=-1).max() <= 1.0 + 1e-14
    assert mu_bar.sum(axis=-1).max() <= 1.0 + 1e-14


def fresh_python(*args, check=False):
    """``python ARGS`` in a fresh interpreter with ``src`` on its path, run to completion."""
    src = str(Path(waterfill.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check)


def modules_loaded_by(module):
    """Sorted names of the modules a fresh interpreter holds once it has imported ``module``."""
    code = f"import sys, {module}; print(*sorted(sys.modules))"
    return fresh_python("-c", code, check=True).stdout.split()


def test_import_leaves_alpf_unloaded():
    # The referee shares only the problem with the solver it checks, so a
    # fresh interpreter that imports it must not load ALPF.
    loaded = [m for m in modules_loaded_by("ehrelay.waterfill") if m.startswith("ehrelay")]
    assert loaded == ["ehrelay", "ehrelay.channel", "ehrelay.system", "ehrelay.waterfill"]


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
        # Nearly all the price sits on the cost budget, so the reference's
        # price share s is close to 1; measured from 1 rather than 0, s would
        # keep too few digits and sum(mu) would miss 1 by about 8e-8.  The
        # program prices the two budgets apart, and must hold both too.
        a = np.array([1e-4, 1e8, 1e3])
        cost = np.array([1e-6, 1e6, 1.0])
        problem = ReducedProblem(a, a / (2.0 * cost), 1000.0, 1)
        mus, mu_bars, _ = sorted_waterfill(np.array([0.5]), problem)
        for mu, mu_bar in ((mus[0], mu_bars[0]), inner_waterfill(0.5, problem)[:2]):
            assert abs(mu.sum() - 1.0) <= 1e-11
            assert abs(mu_bar.sum() - 1.0) <= 1e-11
            assert np.max(np.abs(mu - two_budget_nested_bisection(a, cost))) <= 1e-11

    def test_single_pair_with_both_budgets_tight(self):
        # One pair has both budgets tight only at cost 1, where mu = 1, in the
        # reference's two-budget branch and in the program's price roots.
        for a_val in (1e-4, 3.0, 1e8):
            a = np.array([a_val])
            mu = oracles._waterfill_two_budgets(a, np.array([[1.0]]))
            assert mu[0, 0] == pytest.approx(1.0, rel=1e-12)
            assert mu[0] == pytest.approx(two_budget_nested_bisection(a, np.array([1.0])), rel=1e-12)
            assert inner_waterfill(0.5, ReducedProblem(a, a / 2.0, 1000.0, 1))[0][0] == pytest.approx(1.0, rel=1e-12)

    def test_array_rows_match_scalar_calls(self):
        # The rows of one reference call equal 1-element calls, bit for bit,
        # across every branch and with dead pairs, so a scan row is the
        # reference's answer at that time split.
        rng = np.random.default_rng(57)
        a = rng.uniform(0.1, 1e3, 12)
        b = rng.uniform(0.1, 1e3, 12)
        a[3] = 0.0
        b[7] = 0.0
        problem = ReducedProblem(a, b, 1000.0, 2)
        alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 61)
        mu, mu_bar, rates = sorted_waterfill(alphas, problem)
        assert mu.shape == mu_bar.shape == (61, 12)
        assert rates.shape == (61,)
        for i in range(alphas.size):
            mu_i, mu_bar_i, rate_i = sorted_waterfill(alphas[i : i + 1], problem)
            assert mu_i.tobytes() == mu[i : i + 1].tobytes()
            assert mu_bar_i.tobytes() == mu_bar[i : i + 1].tobytes()
            assert rate_i.tobytes() == rates[i : i + 1].tobytes()

    def test_all_dead_channels(self):
        problem = ReducedProblem(np.array([0.0, 0.0]), np.array([1.0, 0.5]), 1000.0, 1)
        mu, mu_bar, rate = inner_waterfill(0.4, problem)
        assert rate == 0.0
        assert np.array_equal(mu, np.zeros(2))
        assert np.array_equal(mu_bar, np.zeros(2))

    def test_alpha_domain(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, 1)
        for alpha in (0.0, 1.0, -0.1, 1.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="alpha"):
                inner_waterfill(alpha, problem)
        # The scan reference takes a 1-D array only.
        for alpha in (0.5, np.array([0.3, 1.0]), np.array([0.3, np.nan]), np.full((2, 2), 0.5)):
            with pytest.raises(ValueError, match="alpha"):
                sorted_waterfill(alpha, problem)

    def test_no_rate_below_the_sorted_reference_on_stress_scans(self):
        # Two algorithms at each of 200 time splits of the first 50 scenarios
        # of each stress set: the price roots may not rate below the sorted
        # water levels.  The corner set's low SNRs cancel in 1 / (q cost + p)
        # - 1 / a: at corner 42 and alpha = 1.05e-4 no representable q
        # spends the cost budget to better than 5e-7, so the root's last
        # Newton step must be taken in mu itself.
        scan = np.geomspace(ALPHA_MIN, ALPHA_MAX, 200)
        for problem in stress_problems(50):
            _, _, reference = sorted_waterfill(scan, problem)
            for alpha, floor in zip(scan, reference * (1.0 - 1e-12)):
                mu, mu_bar, rate = inner_waterfill(alpha, problem)
                assert rate >= floor
                assert_within_budgets(mu, mu_bar)
                Allocation(alpha, mu, mu_bar)

    def test_exhausted_cost_price_root_raises(self, monkeypatch):
        # Problem 9 of decade corpus 61 needs the cost budget's price at
        # ALPHA_MIN, and a root of one step ends at none.
        problem = decade_problems(61, 64)[9]
        monkeypatch.setattr(waterfill, "_ROOT_STEPS", 1)
        with pytest.raises(RuntimeError, match="cost-price root"):
            inner_waterfill(ALPHA_MIN, problem)


class TestUnitPrice:
    @staticmethod
    def cases():
        """``(x, a)`` with a fifth of ``x`` zero and the rest over 12 decades."""
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            a = 10.0 ** rng.uniform(-4.0, 8.0, n)
            x = 10.0 ** rng.uniform(-6.0, 6.0, n)
            x[rng.random(n) < 0.2] = 0.0
            yield x, a

    def test_matches_bisection(self):
        # From either side of the price, and from Dinkelbach's first start.
        for x, a in self.cases():
            ref = unit_price_bisection(x, a)
            for start in (0.5 * ref, 2.0 * ref, float(np.max(a / (1.0 + a)))):
                if start == 0.0 or ((x == 0.0).any() and not (x + start < a).any()):
                    continue  # outside the start's contract
                p = waterfill._unit_price(x, a, 1.0 / a, start)
                assert abs(p - ref) <= 1e-14 * ref

    def test_exhausted_price_steps_raise(self, monkeypatch):
        monkeypatch.setattr(waterfill, "_PRICE_STEPS", 2)
        x, a = max(self.cases(), key=lambda case: case[0].size)
        with pytest.raises(RuntimeError, match="unit-price root"):
            waterfill._unit_price(x, a, 1.0 / a, float(np.max(a / (1.0 + a))))


class TestSolve:
    def test_equal_coefficients_closed_form(self):
        problem = ReducedProblem(np.array([2.0]), np.array([2.0]), 1000.0, 1)
        sol = solve(problem)
        assert abs(sol.alpha_star - 1.0 / 3.0) < 1e-3
        assert sol.mu_star[0] == pytest.approx(1.0, abs=1e-6)
        assert sol.mu_bar_star[0] == pytest.approx(1.0, abs=1e-3)

    def test_huge_relay_coefficient_pushes_alpha_down(self):
        # g* = sum c mu* lies below the box, so the rate peaks at its lower edge.
        problem = ReducedProblem(np.array([1.0]), np.array([1e12]), 1000.0, 1)
        sol = solve(problem)
        assert sol.alpha_star == ALPHA_MIN

    def test_weak_relay_coefficient_pushes_alpha_up(self):
        # At an SNR this low ln(1 + a mu) is nearly linear, so the ratio
        # 2 ln(1 + a mu) / (2 + c mu) rises all the way to mu* = 1.  Then
        # g* = c = a / b = 1e6 lies above the box's
        # 2 ALPHA_MAX / (1 - ALPHA_MAX) = 2e4; the optimum is its upper edge.
        problem = ReducedProblem(np.array([1e-6]), np.array([1e-12]), 1000.0, 1)
        sol = solve(problem)
        assert sol.alpha_star == ALPHA_MAX
        alphas = np.linspace(0.9, ALPHA_MAX, 201)
        assert sol.rate_star >= sorted_waterfill(alphas, problem)[2].max()

    def test_profile_and_feasibility(self):
        rng = np.random.default_rng(54)
        problem = ReducedProblem(rng.uniform(1, 50, 4), rng.uniform(1, 50, 4), 1000.0, 2)
        sol = solve(problem)
        assert sol.mu_star.sum() <= 1.0 + 1e-9
        assert sol.mu_bar_star.sum() <= 1.0 + 1e-9
        assert (sol.mu_star >= 0).all() and (sol.mu_bar_star >= 0).all()
        # The optimum is at least as good as every point of a 199-point grid.
        _, _, rates = sorted_waterfill(np.linspace(ALPHA_MIN, ALPHA_MAX, 199), problem)
        assert sol.rate_star >= rates.max() - 1e-9

    def test_profile_matches_inner_waterfill(self):
        # The three-branch problem of the solve tests: across the box the
        # reference's rows take every branch (unit budget, cost budget,
        # both), each row is the rate of its allocation, and the program's
        # price roots give the same rate at every split.
        rng = np.random.default_rng(57)
        problem = ReducedProblem(rng.uniform(0.1, 1e3, 12), rng.uniform(0.1, 1e3, 12), 1000.0, 2)
        alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 199)
        mus, mu_bars, rates = sorted_waterfill(alphas, problem)
        branches = set()
        for alpha, mu, mu_bar, rate in zip(alphas, mus, mu_bars, rates):
            assert rate == pytest.approx(rate_of(mu, problem.a_coeffs, alpha, 1000.0, 2), rel=1e-12)
            assert inner_waterfill(alpha, problem)[2] == pytest.approx(rate, rel=1e-13)
            branches.add((mu.sum() > 1.0 - 1e-9, mu_bar.sum() > 1.0 - 1e-9))
        assert branches == {(True, False), (False, True), (True, True)}
        assert solve(problem).rate_star >= rates.max()

    def test_all_dead_problem(self):
        problem = ReducedProblem(np.zeros(3), np.array([1.0, 0.5, 0.0]), 1000.0, 1)
        sol = solve(problem)
        assert sol.rate_star == 0.0
        assert np.array_equal(sol.mu_star, np.zeros(3))
        assert np.array_equal(sol.mu_bar_star, np.zeros(3))
        assert sol.alpha_star == ALPHA_MIN
        assert sol.iterations == 0

    def test_dead_pairs_stay_off(self):
        a = np.array([2.0, 0.0, 5.0, 3.0, 40.0])
        b = np.array([1.0, 4.0, 0.0, 2.0, 0.5])
        sol = solve(ReducedProblem(a, b, 1000.0, 2))
        dead = np.array([False, True, True, False, False])
        assert np.array_equal(sol.mu_star[dead], np.zeros(2))
        assert np.array_equal(sol.mu_bar_star[dead], np.zeros(2))
        assert (sol.mu_star[~dead] > 0.0).all()
        live = solve(ReducedProblem(a[~dead], b[~dead], 1000.0, 2))
        assert sol.alpha_star == live.alpha_star
        assert sol.rate_star == pytest.approx(live.rate_star, rel=1e-12)
        assert np.array_equal(sol.mu_star[~dead], live.mu_star)

    def test_matches_golden_section(self):
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
            # The rate is unimodal in alpha, so golden section over the whole
            # box is a valid reference.
            _, ref = golden_section_max(lambda al: reference_rate(al, problem), ALPHA_MIN, ALPHA_MAX, 1e-9)
            assert sol.rate_star >= ref * (1.0 - 1e-12)
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
                ("crosscheck", 0), "0x1.c6cc73d0f7b67p+13", "0x1.d3377bd06e05ap-5",
                "d4f3ea65b5b8d6c656f5622d0dbe4f52e8aff3aa0bd45435b4c00945196f3353",
            ),
            (
                ("crosscheck", 1), "0x1.c913c90656e1fp+13", "0x1.26e83cb88e1d0p-4",
                "aa34042812cf148c56c7870c2a82813fad285c0044ee90d69b3b57b822764868",
            ),
            (
                ("crosscheck", 2), "0x1.c326001aedb7dp+13", "0x1.021f1b6631091p-4",
                "837547d0ad2a18a89635bcbeabd785d84b499e17a295e4efa1eb9f5815c6822d",
            ),
            (
                ("phi", 0.1), "0x1.1ab9b72486328p+12", "0x1.c69c30d5fe746p-3",
                "46853a741a55672631910f4d31754c6835eefde4a6f85f7d9ecf17a526cf0e0c",
            ),
            (
                ("phi", 0.5), "0x1.8d3aed5bc501cp+10", "0x1.362ed85dc1dc8p-2",
                "84044979e6ddfeaa437a872624891c5e07ae7467a275b5d33972a4815cfb87aa",
            ),
            (
                ("phi", 0.9), "0x1.f2d88b1aec59cp+11", "0x1.2b1de8700b102p-4",
                "9abdf15eabc2e65f089d77242545c50c8b68c5ff534b09a4e312a19af6f76694",
            ),
        ],
        ids=["crosscheck-0", "crosscheck-1", "crosscheck-2", "phi-0.1", "phi-0.5", "phi-0.9"],
    )
    def test_solve_pinned_bit_for_bit(self, draw, rate_hex, alpha_hex, arrays_sha256):
        # A rewrite of the oracle's kernels that claims the same arithmetic
        # must reproduce these exactly.  Recorded with numpy 2.4 on OpenBLAS
        # 0.3; another BLAS may move the last bits of a dot product, such as
        # the cost-budget test, which is then a reason to re-record, not an
        # oracle change.
        # The digest covers the bytes of mu and mu_bar, in that order.
        sol = solve(pinned_problem(draw))
        assert sol.rate_star.hex() == rate_hex
        assert sol.alpha_star.hex() == alpha_hex
        digest = hashlib.sha256()
        for array in (sol.mu_star, sol.mu_bar_star):
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
        # The same draws as the bit-for-bit pins.  The figures are those an
        # earlier solve found on them by a grid over alpha and a fixed
        # +-1-row zoom, before it took alpha* from Dinkelbach's method: the
        # rate may not fall below them, and alpha stays within the contract.
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
            _, _, rates = sorted_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6

    def test_decade_spanning_alpha_and_calls(self, monkeypatch):
        # Optima on kinks and at the box edges: alpha keeps its contract, from
        # one inner_waterfill call at alpha*, which is given no prices, and
        # so runs its root, only at a clipped alpha*.
        clipped = 0
        for problem in decade_problems(61, 64):
            sol, [(alpha, prices)] = counted_solve(monkeypatch, problem)
            edge = sol.alpha_star in (ALPHA_MIN, ALPHA_MAX)
            assert alpha == sol.alpha_star
            assert (prices is None) == edge
            clipped += edge
            dense = np.linspace(
                max(ALPHA_MIN, sol.alpha_star - 4e-6), min(ALPHA_MAX, sol.alpha_star + 4e-6), 801
            )
            _, _, rates = sorted_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6
        assert clipped == 2

    def test_rate_no_worse_than_dense_and_global_scans(self):
        # The rate is the optimum's, not that of a time split near it: at a
        # kink or at a small alpha*, a split a few 1e-9 off already loses
        # more than 1e-12 of the rate.  The dense scan steps away from
        # alpha* by relative offsets from 1e-13 to 1e-5, log-spaced, so it
        # finds a better split at whatever distance it lies.  Every scanned
        # row of the reference must meet both budgets, or an overspending
        # split could rate above the optimum: problem 54's did, by 1.5e-13
        # at 1 + 9.9e-13.
        scan = np.geomspace(ALPHA_MIN, ALPHA_MAX, 3000)
        for problem in decade_problems(66, 64):
            sol = solve(problem)
            offsets = sol.alpha_star * np.geomspace(1e-13, 1e-5, 400)
            near = np.clip(sol.alpha_star + np.r_[-offsets, 0.0, offsets], ALPHA_MIN, ALPHA_MAX)
            best = 0.0
            for alphas in (near, scan):
                mu, mu_bar, rates = sorted_waterfill(alphas, problem)
                assert_within_budgets(mu, mu_bar)
                best = max(best, rates.max())
            assert sol.rate_star >= best * (1.0 - 1e-12)

    def test_unit_price_roots_take_few_steps(self, monkeypatch):
        # The first step lands below the price sought and the rest rise to
        # it, so a root on the decade-spanning corpus takes a handful of
        # steps, and no step divides by zero.
        calls = [0]
        steps = []
        price_step = waterfill._price_step
        root = waterfill._unit_price

        def counted_step(*args):
            calls[0] += 1
            return price_step(*args)

        def counted_root(*args):
            before = calls[0]
            out = root(*args)
            steps.append(calls[0] - before)
            return out

        monkeypatch.setattr(waterfill, "_price_step", counted_step)
        monkeypatch.setattr(waterfill, "_unit_price", counted_root)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for problem in decade_problems(66, 64) + [crosscheck_problem(t) for t in range(6)]:
                solve(problem)
        assert max(steps) <= 10

    def test_price_ratio_roots_stop_at_rounding(self, monkeypatch):
        # In the reference, f sums 64 terms, so its rounding can keep the
        # Newton step above 4 eps * s at the root; the root must then stop on
        # |f| itself.  The crosscheck draws' alpha* are two-budget rows.
        problems = [crosscheck_problem(t) for t in range(6)]
        alphas = [solve(problem).alpha_star for problem in problems]
        _, steps = count_blends(monkeypatch, lambda: [reference_rate(al, p) for al, p in zip(alphas, problems)])
        assert len(steps) == 6
        assert max(steps) <= 30

    def test_budgets_hold_to_rounding(self):
        # Problem 9 of decade corpus 61 clips alpha* to ALPHA_MIN, and its
        # two active pairs have costs 0.059 and 4e13 there: a price-ratio
        # root's stop on the resolution of s alone left sum mu_bar =
        # 1 + 7.9e-10.  On problem 8 of corpus 205 it left 1 + 1.3e-9, which
        # Allocation rejects.  The reference's scan rows take every branch:
        # on corner stress scenario 42 at alpha = 1.66e-4 the cost budget's
        # level / cost - 1 / a cancelled, to sum mu_bar = 1 + 1.6e-7.
        decades = decade_problems(61, 64) + decade_problems(66, 64) + decade_problems(68, 64)
        problems = decades + [decade_problems(205, 9)[8]] + [crosscheck_problem(t) for t in range(6)]
        for problem in problems:
            sol = solve(problem)
            assert_within_budgets(sol.mu_star, sol.mu_bar_star)
            Allocation(sol.alpha_star, sol.mu_star, sol.mu_bar_star)
        scan = np.geomspace(ALPHA_MIN, ALPHA_MAX, 200)
        for problem in stress_problems(50) + decades:
            mu, mu_bar, _ = sorted_waterfill(scan, problem)
            assert_within_budgets(mu, mu_bar)
            for row in range(scan.size):
                Allocation(scan[row], mu[row], mu_bar[row])

    def test_one_inner_waterfill_call(self, monkeypatch):
        # Dinkelbach's last step is the allocation: one call at an interior
        # alpha*, at that step's prices, and no second water-fill root.
        roots = []
        cost_price = waterfill._cost_price
        monkeypatch.setattr(waterfill, "_cost_price", lambda *args: roots.append(args) or cost_price(*args))
        for trial in range(6):
            sol, [(alpha, prices)] = counted_solve(monkeypatch, crosscheck_problem(trial))
            assert ALPHA_MIN < sol.alpha_star < ALPHA_MAX
            assert alpha == sol.alpha_star
            assert prices is not None
        assert roots == []

    def test_solution_is_inner_waterfill_at_alpha_star(self):
        # At a clipped alpha* solve returns inner_waterfill's root at the
        # edge, bit for bit.  At an interior one it returns the water-fill at
        # Dinkelbach's last prices, and the price roots at the same split
        # agree to rounding.
        rng = np.random.default_rng(60)
        problems = [crosscheck_problem(t) for t in range(3)]
        for _ in range(6):
            a = 10.0 ** rng.uniform(-2.0, 4.0, 16)
            b = 10.0 ** rng.uniform(-2.0, 4.0, 16)
            a[rng.random(16) < 0.15] = 0.0
            problems.append(ReducedProblem(a, b, 1000.0, 3))
        clipped = [decade_problems(61, 64)[9], decade_problems(205, 9)[8]]
        for problem, edge in [(p, False) for p in problems] + [(p, True) for p in clipped]:
            sol = solve(problem)
            mu, mu_bar, rate = inner_waterfill(sol.alpha_star, problem)
            if edge:
                assert sol.alpha_star == ALPHA_MIN
                assert sol.rate_star.hex() == rate.hex()
                assert mu.tobytes() == sol.mu_star.tobytes()
                assert mu_bar.tobytes() == sol.mu_bar_star.tobytes()
            else:
                assert rate == pytest.approx(sol.rate_star, rel=1e-14, abs=0.0)

    def test_clipped_alpha_matches_nested_bisection(self):
        # Both problems clip alpha* to ALPHA_MIN with both budgets tight.  On
        # problem 9 of decade corpus 61 the active costs run from 0.059 to
        # 4e13; a solve that divided out the cost budget's 7.9e-10 of
        # rounding fell 7.4e-10 below nested bisection.
        for problem in (decade_problems(61, 64)[9], decade_problems(205, 9)[8]):
            sol = solve(problem)
            assert sol.alpha_star == ALPHA_MIN
            live = problem.live
            a = problem.a_coeffs[live]
            cost = a / (2.0 * ALPHA_MIN / (1.0 - ALPHA_MIN) * problem.b_coeffs[live])
            ref = two_budget_nested_bisection(a, cost)
            ref_rate = rate_of(ref, a, ALPHA_MIN, problem.bandwidth_hz, problem.k_subcarriers)
            assert sol.rate_star == pytest.approx(ref_rate, rel=1e-12)

    def test_exhausted_price_ratio_root_raises(self, monkeypatch):
        # One step stops no root of the reference at the crosscheck draw's
        # alpha*; returning the last iterate would give an allocation that
        # overspends a budget.
        problem = crosscheck_problem(0)
        alpha = solve(problem).alpha_star
        monkeypatch.setattr(oracles, "_ROOT_STEPS", 1)
        with pytest.raises(RuntimeError, match="price-ratio root"):
            reference_rate(alpha, problem)

    def test_exhausted_dinkelbach_steps_raise(self, monkeypatch):
        # One step ends no solve of the crosscheck draw: its ratio still
        # rises after the first step.
        monkeypatch.setattr(waterfill, "_DINKELBACH_STEPS", 1)
        with pytest.raises(RuntimeError, match="Dinkelbach"):
            solve(crosscheck_problem(0))


class TestPremise:
    """The fact both solvers rest on: the rate is unimodal in the time split.

    With ``g = 2 alpha / (1 - alpha)``, the best rate at a fixed split is
    ``W 2 C(g) / ((2 + g) ln 2)``, where ``C(g)``, the best
    ``sum ln(1 + a mu)`` with the relay budget read as ``g``, is concave:
    a partial maximum of a concave function over a convex set.  A concave
    function over a positive affine one has no local maximum but the
    global one.  The profiles are the scan reference's,
    :func:`oracles.sorted_waterfill`, and the tolerances sit far above the
    1e-12 by which it may overspend a budget.
    """

    def test_per_split_optimum_is_concave_in_g(self):
        alpha = np.geomspace(ALPHA_MIN, ALPHA_MAX, 400)
        g = 2.0 * alpha / (1.0 - alpha)
        lam = (g[2:] - g[1:-1]) / (g[2:] - g[:-2])
        for problem in decade_problems(71, 64):
            _, _, rates = sorted_waterfill(alpha, problem)
            w = problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
            c = rates * (2.0 + g) * np.log(2.0) / (2.0 * w)
            chord = lam * c[:-2] + (1.0 - lam) * c[2:]
            assert np.all(c[1:-1] >= chord - 1e-10 * c.max())

    def test_rate_has_one_local_maximum_in_alpha(self):
        # Log-spaced towards both ends of the box.
        alpha = np.concatenate(
            (np.geomspace(ALPHA_MIN, 0.5, 200), 1.0 - np.geomspace(0.5, 1.0 - ALPHA_MAX, 200)[1:])
        )
        for problem in decade_problems(72, 64):
            _, _, rates = sorted_waterfill(alpha, problem)
            peak = int(np.argmax(rates))
            tol = 1e-10 * rates[peak]
            assert np.all(np.diff(rates[: peak + 1]) >= -tol)
            assert np.all(np.diff(rates[peak:]) <= tol)
