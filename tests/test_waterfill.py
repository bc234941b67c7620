import hashlib
import os
import subprocess
import sys
import warnings
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
    mu, mu_bar, rates = inner_waterfill(np.array([alpha]), problem)
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
            mu = _waterfill_two_budgets(a, np.array([[1.0]]))
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
        mu, mu_bar, rates = inner_waterfill(alphas, problem)
        assert mu.shape == mu_bar.shape == (61, 12)
        assert rates.shape == (61,)
        for i in range(alphas.size):
            mu_i, mu_bar_i, rate_i = inner_waterfill(alphas[i : i + 1], problem)
            assert mu_i.tobytes() == mu[i : i + 1].tobytes()
            assert mu_bar_i.tobytes() == mu_bar[i : i + 1].tobytes()
            assert rate_i.tobytes() == rates[i : i + 1].tobytes()

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
        assert sol.rate_star >= inner_waterfill(alphas, problem)[2].max()

    def test_profile_and_feasibility(self):
        rng = np.random.default_rng(54)
        problem = ReducedProblem(rng.uniform(1, 50, 4), rng.uniform(1, 50, 4), 1000.0, 2)
        sol = solve(problem)
        assert sol.mu_star.sum() <= 1.0 + 1e-9
        assert sol.mu_bar_star.sum() <= 1.0 + 1e-9
        assert (sol.mu_star >= 0).all() and (sol.mu_bar_star >= 0).all()
        # The optimum is at least as good as every point of a 199-point grid.
        _, _, rates = inner_waterfill(np.linspace(ALPHA_MIN, ALPHA_MAX, 199), problem)
        assert sol.rate_star >= rates.max() - 1e-9

    def test_profile_matches_inner_waterfill(self):
        # The three-branch problem of the solve tests: across the box its
        # rows take every branch (unit budget, cost budget, both), and each
        # row of one call is the rate of its allocation.
        rng = np.random.default_rng(57)
        problem = ReducedProblem(rng.uniform(0.1, 1e3, 12), rng.uniform(0.1, 1e3, 12), 1000.0, 2)
        alphas = np.linspace(ALPHA_MIN, ALPHA_MAX, 199)
        mus, mu_bars, rates = inner_waterfill(alphas, problem)
        branches = set()
        for alpha, mu, mu_bar, rate in zip(alphas, mus, mu_bars, rates):
            assert rate == pytest.approx(rate_of(mu, problem.a_coeffs, alpha, 1000.0, 2), rel=1e-12)
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
            # The rate is unimodal in alpha, so golden section over the whole
            # box is a valid reference.
            _, ref = golden_section_max(lambda al: inner_at(al, problem)[2], ALPHA_MIN, ALPHA_MAX, 1e-9)
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
                "5fa7082b3d563ec70fe7f39b3f0cca416fe873b4d6c1a7794f8e5192c4f4e6fa",
            ),
            (
                ("crosscheck", 1), "0x1.c913c90656e1fp+13", "0x1.26e83cb88e1d0p-4",
                "16828c4d841029a0ea54a2a73645fdc91ff3c84884845f6356c0c59e8d8da0cf",
            ),
            (
                ("crosscheck", 2), "0x1.c326001aedb7dp+13", "0x1.021f1b6631091p-4",
                "9b6a2cd76d678a3b8d74988727591525c422a07dfb2879e22aacba7fecef8698",
            ),
            (
                ("phi", 0.1), "0x1.1ab9b72486328p+12", "0x1.c69c30d5fe746p-3",
                "b17dbc4377df0ff969d44cafb0ef0188f13af23e7ccd9abcfcb3ebf2a501f2df",
            ),
            (
                ("phi", 0.5), "0x1.8d3aed5bc501cp+10", "0x1.362ed85dc1dc8p-2",
                "bbfd54edd1ec1e63341d6e8134c3af6c918531bcde06a4fc09b825306cdd9629",
            ),
            (
                ("phi", 0.9), "0x1.f2d88b1aec59cp+11", "0x1.2b1de8700b102p-4",
                "374f85c44bc53187c40c1a19309035637966daba8cec9b5dfa9537a651e37a34",
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
            _, _, rates = inner_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6

    def test_decade_spanning_alpha_and_calls(self, monkeypatch):
        # Optima on kinks and at the box edges: alpha keeps its contract,
        # from one call on a single time split.
        for problem in decade_problems(61, 64):
            sol, calls = counted_solve(monkeypatch, problem)
            assert calls == [1]
            dense = np.linspace(
                max(ALPHA_MIN, sol.alpha_star - 4e-6), min(ALPHA_MAX, sol.alpha_star + 4e-6), 801
            )
            _, _, rates = inner_waterfill(dense, problem)
            assert abs(dense[np.argmax(rates)] - sol.alpha_star) <= 1e-6

    def test_rate_no_worse_than_dense_and_global_scans(self):
        # The rate is the optimum's, not that of a time split near it: at a
        # kink or at a small alpha*, a split a few 1e-9 off already loses
        # more than 1e-12 of the rate.  The dense scan steps away from
        # alpha* by relative offsets from 1e-13 to 1e-5, log-spaced, so it
        # finds a better split at whatever distance it lies.
        scan = np.geomspace(ALPHA_MIN, ALPHA_MAX, 3000)
        for problem in decade_problems(66, 64):
            sol = solve(problem)
            offsets = sol.alpha_star * np.geomspace(1e-13, 1e-5, 400)
            near = np.clip(sol.alpha_star + np.r_[-offsets, 0.0, offsets], ALPHA_MIN, ALPHA_MAX)
            best = max(inner_waterfill(near, problem)[2].max(), inner_waterfill(scan, problem)[2].max())
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
            # One call, on an array of time splits.
            assert calls == [1]

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

    def test_exhausted_dinkelbach_steps_raise(self, monkeypatch):
        # One step ends no solve of the crosscheck draw: its ratio still
        # rises after the first step.
        monkeypatch.setattr(waterfill, "_DINKELBACH_STEPS", 1)
        with pytest.raises(RuntimeError, match="Dinkelbach"):
            solve(crosscheck_problem(0))
