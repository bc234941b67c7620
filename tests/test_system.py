import numpy as np
import pytest

from ehrelay import channel
from ehrelay.auglag import ReducedProblem
from ehrelay.channel import Scenario, effective_subchannels, generate
from ehrelay.system import (
    Allocation,
    Pairing,
    achievable_rate,
    benchmark_allocation,
    optimal_energy_plan,
    optimal_pairing,
    snr_coefficients,
)
from ehrelay.waterfill import solve as oracle_solve


def realization(scen):
    real = generate(scen)
    eff = effective_subchannels(real)
    plan = optimal_energy_plan(real, scen)
    return real, eff, plan


class TestEnergyPlan:
    def test_diagonal_channel(self, monkeypatch):
        # Both hops diag(2, 1) on one subcarrier, through generate's gains path.
        diagonal = np.diag([2.0, 1.0]).astype(complex)
        monkeypatch.setattr(channel, "_complex_gaussian", lambda *_: diagonal)
        scen = Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=1)
        real = generate(scen)
        plan = optimal_energy_plan(real, scen)
        assert plan.chosen_subcarrier == 0
        assert plan.harvest_coeff == pytest.approx(4.0)

    def test_picks_best_subcarrier(self):
        scen = Scenario(k_subcarriers=2, seed=8)
        real, eff, plan = realization(scen)
        tops = [float(np.linalg.svd(h, compute_uv=False)[0]) ** 2 for h in real.h1]
        assert plan.chosen_subcarrier == int(np.argmax(tops))
        assert plan.harvest_coeff == pytest.approx(max(tops))
        assert plan.harvest_coeff == pytest.approx(eff.gains1[0])

    def test_energy_and_relay_power(self):
        scen = Scenario(p_source=2.0, eta=0.5, seed=1)
        _, _, plan = realization(scen)
        alpha = 0.25
        energy = plan.harvested_energy(alpha)
        assert energy == pytest.approx(0.25 * 0.5 * 2.0 * plan.harvest_coeff)
        assert plan.relay_power(alpha) == pytest.approx(2.0 * energy / (1.0 - alpha))
        with pytest.raises(ValueError):
            plan.relay_power(1.0)

    def test_beats_random_search(self):
        scen = Scenario(k_subcarriers=4, seed=17)
        real, _, plan = realization(scen)
        rng = np.random.default_rng(99)
        best = 0.0
        for _ in range(10_000):
            k = int(rng.integers(0, 4))
            x = rng.standard_normal((scen.n_s, 1)) + 1j * rng.standard_normal((scen.n_s, 1))
            x /= np.linalg.norm(x)
            best = max(best, float(np.linalg.norm(real.h1[k] @ x) ** 2))
        assert plan.harvest_coeff >= best - 1e-9


class TestPairing:
    def test_identity_when_sorted_equal_noise(self):
        pairing = optimal_pairing([9.0, 4.0, 1.0], [8.0, 3.0, 2.0], 1.0, 1.0)
        assert pairing.perm == (0, 1, 2)

    def test_unsorted_inputs(self):
        pairing = optimal_pairing([9.0, 1.0], [2.0, 8.0], 1.0, 1.0)
        # 9 pairs with 8, 1 pairs with 2.
        assert pairing.perm == (1, 0)

    def test_input_permutation_invariance(self):
        rng = np.random.default_rng(4)
        g1 = rng.random(5)
        g2 = rng.random(5)
        base = optimal_pairing(g1, g2, 1.0, 1.0)
        base_pairs = sorted((g1[n], g2[m]) for n, m in enumerate(base.perm))
        shuffle = rng.permutation(5)
        other = optimal_pairing(g1[shuffle], g2, 1.0, 1.0)
        other_pairs = sorted((g1[shuffle][n], g2[m]) for n, m in enumerate(other.perm))
        assert base_pairs == other_pairs

    def test_sorted_pairing_beats_all_permutations(self):
        # Exhaustive check on 3 subchannels with per-permutation powers
        # optimized by the reference solver.
        from itertools import permutations

        rng = np.random.default_rng(5)
        scen = Scenario(k_subcarriers=1, n_s=3, n_r=3, n_d=3, seed=2)
        _, eff, plan = realization(scen)
        a, b = snr_coefficients(eff.gains1, eff.gains2, plan, scen)
        best = {}
        for perm in permutations(range(3)):
            prob = ReducedProblem(a, b[list(perm)], scen.bandwidth_hz, scen.k_subcarriers)
            best[perm] = oracle_solve(prob, grid_points=64, refine_tol=1e-5).rate_star
        sorted_rate = best[(0, 1, 2)]
        assert sorted_rate >= max(best.values()) - 1e-6 * sorted_rate

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Pairing(perm=(0, 0, 1))


class TestAchievableRate:
    def setup_method(self):
        self.scen = Scenario(seed=13)
        self.real, self.eff, self.plan = realization(self.scen)
        self.n = self.eff.gains1.size

    def alloc(self, alpha, mu=None, mu_bar=None):
        mu = np.full(self.n, 1.0 / self.n) if mu is None else mu
        mu_bar = np.full(self.n, 1.0 / self.n) if mu_bar is None else mu_bar
        return Allocation(alpha=alpha, mu=mu, mu_bar=mu_bar, pairing=Pairing(tuple(range(self.n))))

    def test_zero_alpha_zero_rate(self):
        rate = achievable_rate(self.alloc(0.0), self.eff.gains1, self.eff.gains2, self.plan, self.scen)
        assert rate == 0.0

    def test_single_subchannel_forced_value(self):
        # One pair, hop-1 SNR exactly 1, ample relay power: 250 * log2(2).
        from ehrelay.system import EnergyPlan

        scen = Scenario(n_s=1, n_r=1, n_d=1, k_subcarriers=1, bandwidth_hz=1000.0)
        sigma_sq = scen.noise_per_subchannel
        gains1 = np.array([sigma_sq / (scen.p_source * 1.0)])  # mu=1 -> SNR 1
        gains2 = np.array([1.0])
        plan = EnergyPlan(
            chosen_subcarrier=0,
            harvest_coeff=1e6,
            eta=scen.eta,
            p_source=scen.p_source,
        )
        alloc = Allocation(alpha=0.5, mu=np.array([1.0]), mu_bar=np.array([1.0]), pairing=Pairing((0,)))
        rate = achievable_rate(alloc, gains1, gains2, plan, scen)
        assert rate == pytest.approx(250.0 * np.log2(2.0))

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            achievable_rate(self.alloc(1.0), self.eff.gains1, self.eff.gains2, self.plan, self.scen)

    def test_nonnegative_and_monotone_in_power(self):
        from dataclasses import replace

        alloc = self.alloc(0.4)
        rates = []
        for p in [0.1, 1.0, 10.0]:
            scen = replace(self.scen, p_source=p)
            _, eff, plan = realization(scen)
            rates.append(achievable_rate(alloc, eff.gains1, eff.gains2, plan, scen))
        assert all(r >= 0 for r in rates)
        assert rates[0] <= rates[1] <= rates[2]

    def test_snr_ratio_scaling_invariance(self):
        # Scaling noise and powers together leaves all SNRs, hence the
        # rate, unchanged.
        from dataclasses import replace

        alloc = self.alloc(0.3)
        base = achievable_rate(alloc, self.eff.gains1, self.eff.gains2, self.plan, self.scen)
        c = 37.0
        scen2 = replace(self.scen, noise_total_w=self.scen.noise_total_w * c, p_source=self.scen.p_source * c)
        # Same channels, rescaled powers: hop-1 SNR has p/noise unchanged
        # and the relay power inherits the p_source factor, cancelling the
        # hop-2 noise factor.
        plan2 = optimal_energy_plan(self.real, scen2)
        scaled = achievable_rate(alloc, self.eff.gains1, self.eff.gains2, plan2, scen2)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_rate_never_beats_reference_upper_bound(self):
        scen = Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=2, seed=31)
        _, eff, plan = realization(scen)
        a, b = snr_coefficients(eff.gains1, eff.gains2, plan, scen)
        prob = ReducedProblem(a, b, scen.bandwidth_hz, scen.k_subcarriers)
        upper = oracle_solve(prob).rate_star
        rng = np.random.default_rng(6)
        n = eff.gains1.size
        for _ in range(50):
            mu = rng.random(n)
            mu = mu / mu.sum() * rng.random()
            mu_bar = rng.random(n)
            mu_bar = mu_bar / mu_bar.sum() * rng.random()
            alloc = Allocation(
                alpha=float(rng.uniform(0.01, 0.95)),
                mu=mu,
                mu_bar=mu_bar,
                pairing=Pairing(tuple(range(n))),
            )
            rate = achievable_rate(alloc, eff.gains1, eff.gains2, plan, scen)
            assert rate <= upper * (1.0 + 0.01) + 1e-9


class TestBenchmark:
    def test_single_subchannel(self):
        alloc = benchmark_allocation([5.0], [3.0])
        assert alloc.alpha == 0.5
        assert alloc.mu[0] == pytest.approx(1.0)
        assert alloc.mu_bar[0] == pytest.approx(1.0)

    def test_proportional_split(self):
        alloc = benchmark_allocation([3.0, 1.0], [2.0, 2.0])
        assert np.allclose(alloc.mu, [0.75, 0.25])
        assert np.allclose(alloc.mu_bar, [0.5, 0.5])

    def test_all_zero_gains_rejected(self):
        with pytest.raises(ValueError):
            benchmark_allocation([0.0, 0.0], [1.0, 2.0])


class TestSnrCoefficients:
    def test_formulas(self):
        scen = Scenario(p_source=2.0, eta=0.5, k_subcarriers=2, noise_total_w=1e-6, seed=3)
        _, eff, plan = realization(scen)
        a, b = snr_coefficients(eff.gains1, eff.gains2, plan, scen)
        sigma_sq = 5e-7
        assert np.allclose(a, 2.0 * eff.gains1 / sigma_sq)
        assert np.allclose(b, 0.5 * 2.0 * plan.harvest_coeff * eff.gains2 / sigma_sq)

    def test_tiny_gains_zeroed(self):
        scen = Scenario(seed=3)
        _, eff, plan = realization(scen)
        gains = np.array([1.0, 1e-20])
        a, _ = snr_coefficients(gains, gains, plan, scen)
        assert a[1] == 0.0
