import itertools

import numpy as np
import pytest

from ehrelay import channel
from ehrelay.channel import Scenario, generate
from ehrelay.experiment import draw
from ehrelay.system import (
    Allocation,
    ReducedProblem,
    achievable_rate,
    benchmark_allocation,
    snr_coefficients,
)
from ehrelay.waterfill import solve as oracle_solve
from test_channel import channel_matrices


class TestEnergyPlan:
    def test_diagonal_channel(self, monkeypatch):
        # Both hops diag(2, 1) on one subcarrier, through generate's gains
        # path: a stack of one matrix per hop.
        diagonal = np.diag([2.0, 1.0]).astype(complex)[None]
        monkeypatch.setattr(channel, "_complex_gaussian", lambda *_: diagonal)
        scen = Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=1)
        drawn = draw(scen)
        assert drawn.subcarrier == 0
        assert drawn.harvest_coeff == pytest.approx(4.0)

    def test_picks_best_subcarrier(self):
        # Unequal antenna counts with n_streams 1, 2 and 3, and K up to 8:
        # the subcarrier is the largest hop-1 gain's flat index in
        # generate's order divided by n_streams, a stride that one K = 2,
        # N = 2 draw cannot check.
        for (n_s, n_r, n_d), k in itertools.product([(1, 3, 2), (3, 2, 4), (4, 3, 5)], range(1, 9)):
            scen = Scenario(n_s=n_s, n_r=n_r, n_d=n_d, k_subcarriers=k, seed=8 + k)
            drawn = draw(scen)
            gains1, _ = generate(scen)
            assert drawn.harvest_coeff == gains1.max() == drawn.gains1[0]
            assert drawn.subcarrier == int(np.argmax(gains1)) // scen.n_streams
            tops = [float(np.linalg.svd(h, compute_uv=False)[0]) ** 2 for h in channel_matrices(scen)[0]]
            assert drawn.subcarrier == int(np.argmax(tops))
            assert drawn.harvest_coeff == pytest.approx(max(tops))

    def test_beats_random_search(self):
        scen = Scenario(k_subcarriers=4, seed=17)
        harvest_coeff = draw(scen).harvest_coeff
        h1, _ = channel_matrices(scen)
        rng = np.random.default_rng(99)
        best = 0.0
        for _ in range(10_000):
            k = int(rng.integers(0, 4))
            x = rng.standard_normal((scen.n_s, 1)) + 1j * rng.standard_normal((scen.n_s, 1))
            x /= np.linalg.norm(x)
            best = max(best, float(np.linalg.norm(h1[k] @ x) ** 2))
        assert harvest_coeff >= best - 1e-9


class TestRankOrder:
    def test_sorted_pairing_beats_all_permutations(self):
        # Exhaustive check on 3 subchannels with per-permutation powers
        # optimized by the reference solver.
        from itertools import permutations

        scen = Scenario(k_subcarriers=1, n_s=3, n_r=3, n_d=3, seed=2)
        problem = draw(scen).problem
        best = {}
        for perm in permutations(range(3)):
            prob = ReducedProblem(
                problem.a_coeffs, problem.b_coeffs[list(perm)], scen.bandwidth_hz, scen.k_subcarriers
            )
            best[perm] = oracle_solve(prob).rate_star
        sorted_rate = best[(0, 1, 2)]
        assert sorted_rate >= max(best.values()) - 1e-6 * sorted_rate


class TestAchievableRate:
    def setup_method(self):
        self.scen = Scenario(seed=13)
        self.problem = draw(self.scen).problem
        self.n = self.problem.n_pairs

    def alloc(self, alpha, mu=None, mu_bar=None):
        mu = np.full(self.n, 1.0 / self.n) if mu is None else mu
        mu_bar = np.full(self.n, 1.0 / self.n) if mu_bar is None else mu_bar
        return Allocation(alpha=alpha, mu=mu, mu_bar=mu_bar)

    def test_zero_alpha_zero_rate(self):
        assert achievable_rate(self.problem, self.alloc(0.0)) == 0.0

    def test_single_subchannel_forced_value(self):
        # One pair with hop-1 SNR exactly 1.  The relay spends what it
        # harvested over alpha in (1 - alpha) / 2, so its power is
        # 2 alpha eta P h / (1 - alpha); the hop-2 SNR follows by hand.
        scen = Scenario(n_s=1, n_r=1, n_d=1, k_subcarriers=1, bandwidth_hz=1000.0)
        sigma_sq = scen.noise_per_subchannel
        gains1 = np.array([sigma_sq / scen.p_source])  # mu = 1 -> SNR 1
        gains2 = np.array([1.0])
        alpha = 0.5
        alloc = Allocation(alpha=alpha, mu=np.array([1.0]), mu_bar=np.array([1.0]))
        # Ample harvest: hop 1 limits the pair to 250 * log2(2).  Scarce
        # harvest: hop 2 does.
        for harvest, hop2_limits in ((1e6, False), (1e-7, True)):
            problem = snr_coefficients(gains1, gains2, harvest, scen)
            p_relay = 2.0 * alpha * scen.eta * scen.p_source * harvest / (1.0 - alpha)
            snr2 = p_relay * gains2[0] / sigma_sq
            assert (snr2 < 1.0) == hop2_limits
            expected = 250.0 * min(np.log2(2.0), np.log2(1.0 + snr2))
            assert achievable_rate(problem, alloc) == pytest.approx(expected, rel=1e-12)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(self.problem, self.alloc(1.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(self.problem, Allocation(alpha=0.4, mu=np.array([1.0]), mu_bar=np.array([1.0])))

    def test_nonnegative_and_monotone_in_power(self):
        from dataclasses import replace

        alloc = self.alloc(0.4)
        rates = []
        for p in [0.1, 1.0, 10.0]:
            rates.append(achievable_rate(draw(replace(self.scen, p_source=p)).problem, alloc))
        assert all(r >= 0 for r in rates)
        assert rates[0] <= rates[1] <= rates[2]

    def test_snr_ratio_scaling_invariance(self):
        # Scaling noise and powers together leaves all SNRs, hence the
        # rate, unchanged.
        from dataclasses import replace

        alloc = self.alloc(0.3)
        base = achievable_rate(self.problem, alloc)
        c = 37.0
        scen2 = replace(self.scen, noise_total_w=self.scen.noise_total_w * c, p_source=self.scen.p_source * c)
        # Same seed, so same channels, with rescaled powers: hop-1 SNR has
        # p/noise unchanged and the relay power inherits the p_source
        # factor, cancelling the hop-2 noise factor.
        scaled = achievable_rate(draw(scen2).problem, alloc)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rate_never_beats_reference_upper_bound(self):
        prob = draw(Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=2, seed=31)).problem
        upper = oracle_solve(prob).rate_star
        rng = np.random.default_rng(6)
        n = prob.n_pairs
        for _ in range(50):
            mu = rng.random(n)
            mu = mu / mu.sum() * rng.random()
            mu_bar = rng.random(n)
            mu_bar = mu_bar / mu_bar.sum() * rng.random()
            alloc = Allocation(alpha=float(rng.uniform(0.01, 0.95)), mu=mu, mu_bar=mu_bar)
            rate = achievable_rate(prob, alloc)
            assert rate <= upper * (1.0 + 0.01) + 1e-9


class TestAllocation:
    @pytest.mark.parametrize(
        "alpha, mu, mu_bar, match",
        [
            (-0.1, [0.5], [0.5], "alpha"),
            (1.5, [0.5], [0.5], "alpha"),
            (0.5, [0.5, 0.5], [0.5], "equal length"),
            (0.5, [[0.5]], [[0.5]], "1-D"),
            (0.5, [0.5, -1e-9], [0.5, 0.5], "mu has a negative entry"),
            (0.5, [0.5, 0.5], [0.7, 0.4], "sum of mu_bar exceeds 1"),
        ],
        ids=["alpha-below-0", "alpha-above-1", "shape-mismatch", "not-1d", "negative-entry", "sum-above-1"],
    )
    def test_invalid_allocation_rejected(self, alpha, mu, mu_bar, match):
        with pytest.raises(ValueError, match=match):
            Allocation(alpha=alpha, mu=np.array(mu), mu_bar=np.array(mu_bar))

    def test_rounding_slack_accepted(self):
        alloc = Allocation(alpha=0.5, mu=np.array([0.5, 0.5 + 1e-10]), mu_bar=np.array([1.0, -1e-13]))
        assert alloc.mu.sum() > 1.0 and alloc.mu_bar.min() < 0.0


class TestBenchmark:
    def test_single_subchannel(self):
        alloc = benchmark_allocation(ReducedProblem(np.array([5.0]), np.array([3.0]), 1000.0, 1))
        assert alloc.alpha == 0.5
        assert alloc.mu[0] == pytest.approx(1.0)
        assert alloc.mu_bar[0] == pytest.approx(1.0)

    def test_proportional_split(self):
        alloc = benchmark_allocation(ReducedProblem(np.array([3.0, 1.0]), np.array([2.0, 2.0]), 1000.0, 1))
        assert np.allclose(alloc.mu, [0.75, 0.25])
        assert np.allclose(alloc.mu_bar, [0.5, 0.5])

    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError):
            benchmark_allocation(ReducedProblem(np.array([0.0, 0.0]), np.array([1.0, 2.0]), 1000.0, 1))


class TestSnrCoefficients:
    def test_formulas(self):
        scen = Scenario(p_source=2.0, eta=0.5, k_subcarriers=2, noise_total_w=1e-6, seed=3)
        gains1, gains2, _, harvest_coeff, problem = draw(scen)
        sigma_sq = 5e-7
        assert np.allclose(problem.a_coeffs, 2.0 * gains1 / sigma_sq)
        assert np.allclose(problem.b_coeffs, 0.5 * 2.0 * harvest_coeff * gains2 / sigma_sq)
        assert (problem.bandwidth_hz, problem.k_subcarriers) == (scen.bandwidth_hz, 2)

    def test_tiny_gains_zeroed(self):
        scen = Scenario(seed=3)
        gains = np.array([1.0, 1e-20])
        problem = snr_coefficients(gains, gains, draw(scen).harvest_coeff, scen)
        assert problem.a_coeffs[1] == 0.0
        assert problem.b_coeffs[1] == 0.0
