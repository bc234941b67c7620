import numpy as np
import pytest

from ehrelay.auglag import (
    ALPHA_MAX,
    ALPHA_MIN,
    _assemble,
    _newton_direction,
    default_initial_point,
    optimize,
    pack_point,
    penalty_gradient,
    penalty_value,
    solve_subproblem,
    unpack_point,
    update_multipliers,
    update_penalties,
    violation,
)
from ehrelay.channel import Scenario, effective_subchannels, generate
from ehrelay.experiment import trial_rng
from ehrelay.system import ReducedProblem, achievable_rate, optimal_energy_plan, snr_coefficients
from test_waterfill import crosscheck_problem


def random_state(rng, n, coeff_lo=1e-2, coeff_hi=1e3, bandwidth=1000.0):
    """Random problem plus primal/dual state at sane coefficient scales."""
    a = rng.uniform(coeff_lo, coeff_hi, n)
    b = rng.uniform(coeff_lo, coeff_hi, n)
    problem = ReducedProblem(a, b, bandwidth, int(rng.integers(1, 4)))
    x = pack_point(
        rng.uniform(0.05, 0.9),
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, 1.0, n),
        rng.uniform(0.0, 0.5),
        rng.uniform(0.0, 0.5),
    )
    nu = rng.normal(0.0, 1.0, n + 2)
    sigma = rng.uniform(0.5, 20.0, n + 2)
    return problem, x, nu, sigma


def gradient_vs_central_differences(problem, x, nu, sigma, h=2e-5, tol=1e-5):
    """Worst relative error of the analytic gradient against a central
    finite difference, over components the difference can resolve.

    A central difference carries cancellation noise of order
    ``eps * |P| / h`` plus a truncation term of comparable size near the
    optimal step; components smaller than that combined floor divided by
    the target tolerance cannot be certified at double precision and are
    skipped.
    """
    grad = penalty_gradient(x, nu, sigma, problem)
    base = max(1.0, abs(penalty_value(x, nu, sigma, problem)))
    floor = max(1e-8, 2.0 * np.finfo(float).eps * base / (h * tol))
    worst = 0.0
    for i in range(x.size):
        if abs(grad[i]) <= floor:
            continue
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        fd = (penalty_value(xp, nu, sigma, problem) - penalty_value(xm, nu, sigma, problem)) / (2 * h)
        worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-30))
    return worst


def dense_hessian(point):
    """The structured Hessian of a reduced point, written out in full."""
    n = point.h_diag.size
    hess = np.empty((n + 1, n + 1))
    hess[0, 0] = point.h_alpha
    hess[0, 1:] = hess[1:, 0] = point.h_cross
    hess[1:, 1:] = (
        np.diag(point.h_diag)
        + point.h_budget1
        + point.h_damp * np.outer(point.h_ratio, point.h_ratio)
    )
    return hess


def reduced_states(seed, count):
    """Random reduced points ``(problem, z, nu, sigma, point)``."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        problem, x, nu, sigma = random_state(rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0)
        z = x[: 1 + problem.n_pairs].copy()
        yield problem, z, nu, sigma, _assemble(z, nu, sigma, problem)


def violation_by_hand(x, problem):
    """Independent scalar re-derivation of every constraint residual."""
    n = problem.n_pairs
    alpha, mu, mu_bar, s1, s2 = unpack_point(x, n)
    out = [sum(mu) + s1 - 1.0, sum(mu_bar) + s2 - 1.0]
    for i in range(n):
        ratio = 2.0 * alpha / (1.0 - alpha)
        out.append(problem.a_coeffs[i] * mu[i] - ratio * problem.b_coeffs[i] * mu_bar[i])
    return np.array(out)


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


class TestViolation:
    def test_all_slack_point_is_feasible(self):
        problem = ReducedProblem(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1000.0, 1)
        x = pack_point(0.37, [0.0, 0.0], [0.0, 0.0], 1.0, 1.0)
        assert np.allclose(violation(x, problem), 0.0)

    def test_balanced_single_pair(self):
        # 2 alpha / (1 - alpha) = 2 at alpha = 0.5, so A mu = 2 B mu_bar.
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(0.5, [0.5], [0.5], 0.5, 0.5)
        assert np.allclose(violation(x, problem), 0.0)

    def test_matches_hand_recomputation(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            problem, x, _, _ = random_state(rng, int(rng.integers(1, 5)))
            c = violation(x, problem)
            assert np.max(np.abs(c - violation_by_hand(x, problem))) < 1e-12


class TestPenaltyValue:
    def test_bare_objective_at_zero_violation(self):
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(0.5, [0.5], [0.5], 0.5, 0.5)
        nu = np.zeros(3)
        sigma = np.ones(3)
        expected = (0.5 - 1.0) * 1000.0 / 2.0 * np.log2(1.0 + 2.0 * 0.5)
        assert penalty_value(x, nu, sigma, problem) == pytest.approx(expected)

    def test_independent_of_sigma_when_feasible(self):
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(0.5, [0.5], [0.5], 0.5, 0.5)
        nu = np.array([0.3, -0.2, 0.6])
        v1 = penalty_value(x, nu, np.ones(3), problem)
        v2 = penalty_value(x, nu, np.full(3, 1e4), problem)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_alpha_one_rejected(self):
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(1.0, [0.5], [0.5], 0.0, 0.0)
        with pytest.raises(ValueError):
            penalty_value(x, np.zeros(3), np.ones(3), problem)


class TestPenaltyGradient:
    def test_slack_gradient_zero_at_feasible_zero_multiplier(self):
        problem = ReducedProblem(np.array([2.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(0.5, [0.5], [0.5], 0.5, 0.5)
        grad = penalty_gradient(x, np.zeros(3), np.ones(3), problem)
        n = problem.n_pairs
        assert grad[1 + 2 * n] == 0.0  # d/ds1
        assert grad[2 + 2 * n] == 0.0  # d/ds2

    def test_mu_gradient_zero_for_dead_channel(self):
        # A = 0 removes the objective pull; zero multipliers and zero
        # violation remove the constraint pull.
        problem = ReducedProblem(np.array([0.0]), np.array([1.0]), 1000.0, 1)
        x = pack_point(0.5, [0.3], [0.0], 0.7, 1.0)
        grad = penalty_gradient(x, np.zeros(3), np.ones(3), problem)
        assert grad[1] == 0.0

    def test_matches_central_finite_differences(self):
        # Small bandwidth keeps the penalty value at a scale where an
        # h = 1e-6 central difference resolves every gradient component.
        rng = np.random.default_rng(42)
        for _ in range(100):
            problem, x, nu, sigma = random_state(
                rng, int(rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0
            )
            assert gradient_vs_central_differences(problem, x, nu, sigma) < 1e-5


class TestSubproblem:
    def test_fixed_point_returned_unchanged(self):
        rng = np.random.default_rng(43)
        problem, x, nu, sigma = random_state(rng, 3, coeff_hi=10.0)
        first = solve_subproblem(x, nu, sigma, problem, inner_tol=1e-6, max_inner_iters=5000)
        second = solve_subproblem(first.x, nu, sigma, problem, inner_tol=1e-6, max_inner_iters=5000)
        assert second.iterations <= 2
        assert np.max(np.abs(second.x - first.x)) < 1e-6
        v1 = penalty_value(first.x, nu, sigma, problem)
        v2 = penalty_value(second.x, nu, sigma, problem)
        assert v2 <= v1 + 1e-9 * max(1.0, abs(v1))

    def test_quadratic_instance_reaches_analytic_minimum(self):
        # With a = 0 the objective vanishes and the penalty is a sum of
        # shifted quadratics; each reaches its own shift, so the optimal
        # value is exactly -sum(nu^2 / (2 sigma)).
        problem = ReducedProblem(np.array([0.0]), np.array([1.0]), 1000.0, 1)
        nu = np.array([0.4, -0.3, -0.2])
        sigma = np.array([2.0, 1.0, 4.0])
        x0 = default_initial_point(problem)
        res = solve_subproblem(x0, nu, sigma, problem, inner_tol=1e-12, max_inner_iters=5000)
        value = penalty_value(res.x, nu, sigma, problem)
        expected = -float(np.sum(nu**2 / (2.0 * sigma)))
        assert value == pytest.approx(expected, abs=1e-8)

    def test_hessian_matches_gradient_differences(self):
        # Exact inside an active set of the elimination, so only points
        # whose active set is the same at both difference points count.
        def active_set(point, n):
            return tuple(point.x[1 + n : 1 + 2 * n] > 0.0), point.h_damp > 0.0, point.h_budget1 > 0.0

        h = 1e-6
        checked = 0
        for problem, z, nu, sigma, point in reduced_states(49, 100):
            n = problem.n_pairs
            columns = []
            for i in range(n + 1):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                above, below = _assemble(zp, nu, sigma, problem), _assemble(zm, nu, sigma, problem)
                if not active_set(above, n) == active_set(below, n) == active_set(point, n):
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
            problem, x, nu, sigma = random_state(rng, int(rng.integers(2, 6)), coeff_hi=1e2, bandwidth=2.0)
            n = problem.n_pairs
            # Budget multipliers far to either side make each budget slack
            # or binding; weak pairs near 0 let the prices push them out.
            nu[:2] = sigma[:2] * rng.choice([-2.0, 2.0], 2)
            low = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            a = problem.a_coeffs.copy()
            a[low] *= 1e-4
            problem = ReducedProblem(a, problem.b_coeffs, problem.bandwidth_hz, problem.k_subcarriers)
            z = x[: 1 + n].copy()
            z[1 + low] = rng.choice([0.0, eps]) * rng.uniform(0.0, 1.0, low.size)
            point = _assemble(z, nu, sigma, problem)
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

    def test_dead_pair_gets_no_relay_power(self):
        # A pair with no hop-2 gain (b = 0) takes the masked branch of the
        # elimination: it gets no relay power, and the reduced value and
        # gradient still equal the full penalty's at the eliminated point.
        rng = np.random.default_rng(53)
        for _ in range(30):
            problem, x, nu, sigma = random_state(rng, int(rng.integers(2, 5)), coeff_hi=1e2, bandwidth=2.0)
            n = problem.n_pairs
            b = problem.b_coeffs.copy()
            b[rng.integers(0, n)] = 0.0
            problem = ReducedProblem(problem.a_coeffs, b, problem.bandwidth_hz, problem.k_subcarriers)
            point = _assemble(x[: 1 + n].copy(), nu, sigma, problem)
            assert np.all(point.x[1 + n : 1 + 2 * n][b == 0.0] == 0.0)
            value = penalty_value(point.x, nu, sigma, problem)
            assert abs(point.value - value) <= 1e-12 * max(1.0, abs(value))
            grad = penalty_gradient(point.x, nu, sigma, problem)[: 1 + n]
            assert np.max(np.abs(point.gradient - grad)) <= 1e-9 * max(1.0, np.max(np.abs(grad)))

    def test_never_increases_penalty(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            problem, x, nu, sigma = random_state(rng, int(rng.integers(1, 5)))
            before = penalty_value(x, nu, sigma, problem)
            res = solve_subproblem(x, nu, sigma, problem, inner_tol=1e-8, max_inner_iters=500)
            after = penalty_value(res.x, nu, sigma, problem)
            assert after <= before + 1e-9 * max(1.0, abs(before))


class TestUpdates:
    def test_multipliers_unchanged_at_zero_violation(self):
        nu = np.array([0.5, -0.5, 1.0])
        out = update_multipliers(nu, np.ones(3), np.zeros(3))
        assert np.array_equal(out, nu)

    def test_multiplier_step(self):
        out = update_multipliers(np.zeros(1), np.ones(1), np.array([0.3]))
        assert out[0] == pytest.approx(-0.3)

    def test_multipliers_match_recomputation(self):
        rng = np.random.default_rng(45)
        nu = rng.normal(size=6)
        sigma = rng.uniform(0.5, 30.0, 6)
        c = rng.normal(size=6)
        out = update_multipliers(nu, sigma, c)
        for i in range(6):
            assert out[i] == pytest.approx(nu[i] - sigma[i] * c[i], rel=1e-15)

    def test_penalties_kept_on_sufficient_decrease(self):
        out = update_penalties(np.array([7.0]), np.array([0.05]), np.array([0.4]), 3)
        assert out[0] == 7.0

    def test_penalties_grow_tenfold(self):
        out = update_penalties(np.array([1.0]), np.array([0.3]), np.array([0.4]), 1)
        assert out[0] == 10.0

    def test_penalties_grow_to_iteration_square(self):
        out = update_penalties(np.array([5.0]), np.array([0.3]), np.array([0.4]), 12)
        assert out[0] == 144.0

    def test_boundary_equality_keeps_sigma(self):
        out = update_penalties(np.array([3.0]), np.array([0.1]), np.array([0.4]), 5)
        assert out[0] == 3.0

    def test_sequence_nondecreasing(self):
        rng = np.random.default_rng(46)
        sigma = np.ones(4)
        for k in range(1, 30):
            new = update_penalties(sigma, rng.random(4), rng.random(4), k)
            assert (new >= sigma).all()
            sigma = new

    def test_rejects_bad_iteration_index(self):
        with pytest.raises(ValueError):
            update_penalties(np.ones(1), np.ones(1), np.ones(1), 0)


class TestOptimize:
    def test_single_pair_equal_coefficients(self):
        problem = ReducedProblem(np.array([2.0]), np.array([2.0]), 1000.0, 1)
        res = optimize(problem)
        assert res.converged
        assert abs(res.allocation.alpha - 1.0 / 3.0) < 1e-3
        assert abs(res.allocation.mu[0] - 1.0) < 1e-4
        assert abs(res.allocation.mu_bar[0] - 1.0) < 1e-4

    def test_paper_initial_point(self):
        problem = ReducedProblem(np.array([2.0, 3.0]), np.array([1.0, 2.0]), 1000.0, 2)
        x0 = default_initial_point(problem)
        alpha, mu, mu_bar, s1, s2 = unpack_point(x0, 2)
        assert alpha == 0.5
        assert np.allclose(mu, 0.5)
        assert np.allclose(mu_bar, 0.5)
        assert s1 == 0.05 and s2 == 0.05

    def test_convergence_report_fields(self):
        problem = ReducedProblem(np.array([5.0, 1.0]), np.array([4.0, 2.0]), 1000.0, 2)
        res = optimize(problem)
        assert res.converged
        assert res.final_violation <= 1e-6
        assert res.allocation.mu.sum() <= 1.0 + 1e-9
        assert res.allocation.mu_bar.sum() <= 1.0 + 1e-9
        assert res.outer_iterations <= 100
        text = res.report_text()
        assert "converged: True" in text
        assert "final_violation" in text

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
                p_source=float(rng.choice([0.1, 1.0, 10.0])), phi=float(rng.uniform(0.2, 0.8)), seed=seed,
            )
            real = generate(scen)
            eff = effective_subchannels(real)
            problem = snr_coefficients(eff.gains1, eff.gains2, optimal_energy_plan(real, scen), scen)
            res = optimize(problem)
            assert res.rate_bps == achievable_rate(problem, res.allocation)

    @pytest.mark.parametrize(
        "draw, rate_hex, alpha_hex, outer, inner",
        [
            (("crosscheck", 0), "0x1.c6cc73563810bp+13", "0x1.d33770101ad6bp-5", 11, 90),
            (("crosscheck", 1), "0x1.c913c8d869354p+13", "0x1.26e837def7c97p-4", 12, 67),
            (("crosscheck", 2), "0x1.c325ffcb9c951p+13", "0x1.021f167f0cf2ep-4", 12, 96),
            (("phi", 0.1), "0x1.1ab9b7248631fp+12", "0x1.c69c2dc0ebe53p-3", 11, 63),
            (("phi", 0.5), "0x1.8d3aed5b489b9p+10", "0x1.362ed7dbbfc40p-2", 13, 60),
            (("phi", 0.9), "0x1.f2d8896f4ce15p+11", "0x1.2b1de2bcecaa1p-4", 11, 53),
        ],
        ids=["crosscheck-0", "crosscheck-1", "crosscheck-2", "phi-0.1", "phi-0.5", "phi-0.9"],
    )
    def test_results_pinned_bit_for_bit(self, draw, rate_hex, alpha_hex, outer, inner):
        # A rewrite of the solver's kernels that claims the same arithmetic
        # must reproduce these exactly; comparing two runs of one build
        # cannot show that.  The values were recorded with numpy 2.4 on
        # OpenBLAS 0.3; another BLAS may order its dot products differently
        # and move the last bits, which is then a reason to re-record, not
        # a solver change.
        kind, key = draw
        if kind == "crosscheck":
            problem = crosscheck_problem(key)
        else:  # K = 2, N = 2, d_sd = 10 at relay position phi = key
            scen = Scenario(phi=key)
            real = generate(scen, trial_rng(7, 0, 0))
            eff = effective_subchannels(real)
            problem = snr_coefficients(eff.gains1, eff.gains2, optimal_energy_plan(real, scen), scen)
        res = optimize(problem)
        assert res.rate_bps.hex() == rate_hex
        assert res.allocation.alpha.hex() == alpha_hex
        assert (res.outer_iterations, res.inner_iterations) == (outer, inner)

    def test_alpha_stays_in_clamp(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1e12]), 1000.0, 1)
        res = optimize(problem)
        assert ALPHA_MIN <= res.allocation.alpha <= ALPHA_MAX

    def test_bad_init_rejected(self):
        problem = ReducedProblem(np.array([1.0]), np.array([1.0]), 1000.0, 1)
        with pytest.raises(ValueError):
            optimize(problem, init=np.zeros(3))
        bad = default_initial_point(problem)
        bad[0] = 0.0
        with pytest.raises(ValueError):
            optimize(problem, init=bad)
