"""Closed-form quantities of the time-switching relay protocol.

The block of unit duration splits into an energy-transfer phase of
length ``alpha`` followed by two information phases of length
``(1 - alpha) / 2`` each.  The relay stores everything it harvests in
phase one and spends it in phase three.  Both hops' subchannels arrive
sorted by gain, and that sort is the pairing: the n-th strongest hop-1
subchannel forwards over the n-th strongest hop-2 subchannel.

This module owns :class:`ReducedProblem`, the one problem type that
every solver reads.  It provides the optimal energy-transfer
subcarrier, the problem's SNR coefficients, the fixed benchmark
allocation and the end-to-end achievable rate of any allocation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ehrelay.channel import ChannelRealization, Scenario

__all__ = [
    "Allocation",
    "EnergyPlan",
    "ReducedProblem",
    "achievable_rate",
    "benchmark_allocation",
    "optimal_energy_plan",
    "snr_coefficients",
]

# Relative threshold below which a subchannel gain counts as zero
# (rank-deficiency artifacts of the decomposition).
GAIN_FLOOR_REL = 1e-14

_SUM_SLACK = 1e-9
_NEG_SLACK = -1e-12


@dataclass(frozen=True)
class ReducedProblem:
    """Coefficients of the reduced rate problem over paired subchannels.

    ``a_coeffs[n]`` is the hop-1 SNR per unit power fraction and
    ``b_coeffs[n]`` the hop-2 SNR per unit power fraction divided by the
    time-split factor ``2 alpha / (1 - alpha)``.  Entries are paired by
    index.
    """

    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    bandwidth_hz: float
    k_subcarriers: int

    def __post_init__(self):
        a = np.asarray(self.a_coeffs, dtype=float)
        b = np.asarray(self.b_coeffs, dtype=float)
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "b_coeffs", b)
        if a.ndim != 1 or a.shape != b.shape or a.size < 1:
            raise ValueError("a_coeffs and b_coeffs must be equal-length 1-D arrays")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("SNR coefficients must be finite")
        if a.min() < 0 or b.min() < 0:
            raise ValueError("SNR coefficients must be nonnegative")
        if int(self.k_subcarriers) < 1:
            raise ValueError("k_subcarriers must be >= 1")
        if not (np.isfinite(self.bandwidth_hz) and self.bandwidth_hz > 0):
            raise ValueError("bandwidth_hz must be finite and > 0")

    @property
    def n_pairs(self) -> int:
        return int(self.a_coeffs.size)


@dataclass(frozen=True)
class Allocation:
    """Decision variables of one transmission round.

    ``mu[n]`` is the fraction of source power on hop-1 subchannel ``n``
    and ``mu_bar[n]`` the fraction of relay power on the hop-2
    subchannel paired with it.
    """

    alpha: float
    mu: np.ndarray
    mu_bar: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        mu_bar = np.asarray(self.mu_bar, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "mu_bar", mu_bar)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if mu.shape != mu_bar.shape or mu.ndim != 1:
            raise ValueError("mu and mu_bar must be 1-D arrays of equal length")
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


def optimal_energy_plan(real: ChannelRealization, scenario: Scenario) -> EnergyPlan:
    """Pick the subcarrier that maximizes harvested power.

    The best choice is the hop-1 subcarrier with the largest top squared
    singular value (the beam runs along the matching right singular
    vector, which nothing downstream needs).  Ties go to the lowest
    subcarrier.
    """
    tops = real.gains1[:: scenario.n_streams]
    best_k = int(np.argmax(tops))
    return EnergyPlan(chosen_subcarrier=best_k, harvest_coeff=float(tops[best_k]))


def achievable_rate(problem: ReducedProblem, alloc: Allocation) -> float:
    """End-to-end rate in bit/s of a given allocation.

    Each pair carries the minimum of its hop rates; every pair is scaled
    by the duty-cycle factor ``(1 - alpha) * bandwidth / (2 K)``.

    Raises:
        ValueError: if ``alloc.alpha >= 1`` (the relay power is undefined)
            or the allocation does not have one entry per pair.
    """
    if alloc.alpha >= 1.0:
        raise ValueError("alpha must be < 1: relay power undefined at alpha = 1")
    if alloc.mu.size != problem.n_pairs:
        raise ValueError("allocation length must match the number of pairs")
    g = 2.0 * alloc.alpha / (1.0 - alloc.alpha)
    r1 = np.log2(1.0 + problem.a_coeffs * alloc.mu)
    r2 = np.log2(1.0 + g * problem.b_coeffs * alloc.mu_bar)
    w = (1.0 - alloc.alpha) * problem.bandwidth_hz / (2.0 * problem.k_subcarriers)
    return float(w * np.sum(np.minimum(r1, r2)))


def benchmark_allocation(problem: ReducedProblem) -> Allocation:
    """Non-adaptive reference: half-time split, gain-proportional powers.

    ``alpha = 0.5`` and each hop spreads its budget in proportion to its
    SNR coefficients, which are proportional to its subchannel gains.

    Raises:
        ValueError: if either hop has all-zero coefficients.
    """
    t1 = problem.a_coeffs.sum()
    t2 = problem.b_coeffs.sum()
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("cannot build benchmark allocation from all-zero gains")
    return Allocation(alpha=0.5, mu=problem.a_coeffs / t1, mu_bar=problem.b_coeffs / t2)


def snr_coefficients(
    gains1,
    gains2,
    plan: EnergyPlan,
    scenario: Scenario,
) -> ReducedProblem:
    """The reduced problem of paired subchannel gains.

    For hop-1 entry ``n``: ``a[n] = P_S * gain1[n] / sigma^2``.  For hop-2
    entry ``n``: ``b[n] = eta * P_S * harvest_coeff * gain2[n] / sigma^2``,
    so the hop-2 SNR, with relay power ``2 alpha eta P_S harvest_coeff /
    (1 - alpha)``, equals ``2 alpha / (1 - alpha) * b[n] * mu_bar[n]``.

    Gains below ``GAIN_FLOOR_REL`` times the hop maximum are treated as
    exact zeros (rank-deficiency noise).
    """
    g1 = _floor_gains(np.asarray(gains1, dtype=float))
    g2 = _floor_gains(np.asarray(gains2, dtype=float))
    sigma_sq = scenario.noise_per_subchannel
    a = scenario.p_source * g1 / sigma_sq
    b = scenario.eta * scenario.p_source * plan.harvest_coeff * g2 / sigma_sq
    return ReducedProblem(a, b, scenario.bandwidth_hz, scenario.k_subcarriers)


def _floor_gains(g: np.ndarray) -> np.ndarray:
    if g.size == 0:
        return g
    floor = g.max() * GAIN_FLOOR_REL
    out = g.copy()
    out[out < floor] = 0.0
    return out
