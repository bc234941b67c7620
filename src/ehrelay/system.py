"""Closed-form quantities of the time-switching relay protocol.

The block of unit duration splits into an energy-transfer phase of
length ``alpha`` followed by two information phases of length
``(1 - alpha) / 2`` each.  The relay stores everything it harvests in
phase one and spends it in phase three; this module provides the
harvested energy and relay power, the optimal energy-transfer subcarrier,
the optimal rank-ordered subchannel pairing, and the end-to-end
achievable rate of an arbitrary power allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ehrelay.channel import ChannelRealization, Scenario

__all__ = [
    "Allocation",
    "EnergyPlan",
    "Pairing",
    "achievable_rate",
    "benchmark_allocation",
    "optimal_energy_plan",
    "optimal_pairing",
    "snr_coefficients",
]

# Relative threshold below which a subchannel gain counts as zero
# (rank-deficiency artifacts of the decomposition).
GAIN_FLOOR_REL = 1e-14

_SUM_SLACK = 1e-9
_NEG_SLACK = -1e-12


@dataclass(frozen=True)
class Pairing:
    """Bijection from hop-1 subchannel index to hop-2 subchannel index."""

    perm: tuple[int, ...]

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm must be a permutation of 0..n-1")

    def __len__(self) -> int:
        return len(self.perm)


@dataclass(frozen=True)
class Allocation:
    """Decision variables of one transmission round.

    ``mu[n]`` is the fraction of source power on hop-1 subchannel ``n``
    and ``mu_bar[m]`` the fraction of relay power on hop-2 subchannel
    ``m``; ``pairing`` maps hop-1 indices to hop-2 indices.
    """

    alpha: float
    mu: np.ndarray
    mu_bar: np.ndarray
    pairing: Pairing

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu_bar = np.asarray(self.mu_bar, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_bar", mu_bar)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if mu.shape != mu_bar.shape or mu.ndim != 1:
            raise ValueError("mu and mu_bar must be 1-D arrays of equal length")
        if len(self.pairing) != mu.size:
            raise ValueError("pairing length must match mu length")
        for name, vec in (("mu", mu), ("mu_bar", mu_bar)):
            if vec.size and vec.min() < _NEG_SLACK:
                raise ValueError(f"{name} has a negative entry: {vec.min()}")
            if vec.sum() > 1.0 + _SUM_SLACK:
                raise ValueError(f"sum of {name} exceeds 1: {vec.sum()}")


@dataclass(frozen=True)
class EnergyPlan:
    """Energy-transfer pattern of phase one.

    The whole source budget is beamformed onto a single subcarrier along
    the strongest hop-1 direction.  ``harvest_coeff`` is that direction's
    squared singular value, i.e. the power gain seen by the harvester.
    """

    chosen_subcarrier: int
    harvest_coeff: float
    eta: float
    p_source: float

    def harvested_energy(self, alpha: float) -> float:
        """Energy collected over phase one (block length normalized to 1)."""
        return alpha * self.eta * self.p_source * self.harvest_coeff

    def relay_power(self, alpha: float) -> float:
        """Transmit power available at the relay during phase three."""
        if alpha >= 1.0:
            raise ValueError("alpha must be < 1: phase three has zero duration")
        return 2.0 * alpha * self.eta * self.p_source * self.harvest_coeff / (1.0 - alpha)


def optimal_energy_plan(real: ChannelRealization, scenario: Scenario) -> EnergyPlan:
    """Pick the subcarrier that maximizes harvested power.

    The best choice is the hop-1 subcarrier with the largest top squared
    singular value (the beam runs along the matching right singular
    vector, which nothing downstream needs).  Ties go to the lowest
    subcarrier.
    """
    tops = real.gains1[:: scenario.n_streams]
    best_k = int(np.argmax(tops))
    return EnergyPlan(
        chosen_subcarrier=best_k,
        harvest_coeff=float(tops[best_k]),
        eta=scenario.eta,
        p_source=scenario.p_source,
    )


def optimal_pairing(gains1, gains2, sigma_r_sq: float, sigma_d_sq: float) -> Pairing:
    """Rank-ordered pairing of noise-normalized subchannel gains.

    The n-th strongest hop-1 subchannel (gain over relay noise) is paired
    with the n-th strongest hop-2 subchannel (gain over destination
    noise).  Input order is arbitrary.
    """
    g1 = np.asarray(gains1, dtype=float)
    g2 = np.asarray(gains2, dtype=float)
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ValueError("gain lists must be 1-D and of equal length")
    if sigma_r_sq <= 0 or sigma_d_sq <= 0:
        raise ValueError("noise powers must be > 0")
    order1 = np.argsort(-g1 / sigma_r_sq, kind="stable")
    order2 = np.argsort(-g2 / sigma_d_sq, kind="stable")
    perm = [0] * g1.size
    for rank in range(g1.size):
        perm[order1[rank]] = int(order2[rank])
    return Pairing(perm=tuple(perm))


def achievable_rate(
    alloc: Allocation,
    gains1,
    gains2,
    plan: EnergyPlan,
    scenario: Scenario,
) -> float:
    """End-to-end rate in bit/s of a given allocation.

    Each pair carries the minimum of its hop rates; every pair is scaled
    by the duty-cycle factor ``(1 - alpha) * bandwidth / (2 K)``.

    Raises:
        ValueError: if ``alloc.alpha >= 1`` (the relay power is undefined).
    """
    if alloc.alpha >= 1.0:
        raise ValueError("alpha must be < 1: relay power undefined at alpha = 1")
    g1 = np.asarray(gains1, dtype=float)
    g2 = np.asarray(gains2, dtype=float)
    sigma_sq = scenario.noise_per_subchannel
    p_relay = plan.relay_power(alloc.alpha)
    weight = (1.0 - alloc.alpha) * scenario.bandwidth_hz / (2.0 * scenario.k_subcarriers)

    total = 0.0
    for n, m in enumerate(alloc.pairing.perm):
        snr1 = scenario.p_source * alloc.mu[n] * g1[n] / sigma_sq
        snr2 = p_relay * alloc.mu_bar[m] * g2[m] / sigma_sq
        total += weight * min(np.log2(1.0 + snr1), np.log2(1.0 + snr2))
    return float(total)


def benchmark_allocation(gains1, gains2) -> Allocation:
    """Non-adaptive reference: half-time split, gain-proportional powers.

    ``alpha = 0.5`` and each hop spreads its budget proportionally to its
    subchannel gains, with rank-ordered pairing.

    Raises:
        ValueError: if either hop has all-zero gains.
    """
    g1 = np.asarray(gains1, dtype=float)
    g2 = np.asarray(gains2, dtype=float)
    t1 = g1.sum()
    t2 = g2.sum()
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("cannot build benchmark allocation from all-zero gains")
    return Allocation(
        alpha=0.5,
        mu=g1 / t1,
        mu_bar=g2 / t2,
        pairing=optimal_pairing(g1, g2, 1.0, 1.0),
    )


def snr_coefficients(
    gains1,
    gains2,
    plan: EnergyPlan,
    scenario: Scenario,
) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless SNR coefficients of paired subchannel lists.

    For hop-1 entry ``n``: ``a[n] = P_S * gain1[n] / sigma^2``.  For hop-2
    entry ``n``: ``b[n] = eta * P_S * harvest_coeff * gain2[n] / sigma^2``,
    so the hop-2 SNR equals ``2 alpha / (1 - alpha) * b[n] * mu_bar[n]``.

    Gains below ``GAIN_FLOOR_REL`` times the hop maximum are treated as
    exact zeros (rank-deficiency noise).
    """
    g1 = _floor_gains(np.asarray(gains1, dtype=float))
    g2 = _floor_gains(np.asarray(gains2, dtype=float))
    sigma_sq = scenario.noise_per_subchannel
    a = scenario.p_source * g1 / sigma_sq
    b = scenario.eta * scenario.p_source * plan.harvest_coeff * g2 / sigma_sq
    return a, b


def _floor_gains(g: np.ndarray) -> np.ndarray:
    if g.size == 0:
        return g
    floor = g.max() * GAIN_FLOOR_REL
    out = g.copy()
    out[out < floor] = 0.0
    return out
