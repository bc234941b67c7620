"""Wireless-powered two-hop MIMO-OFDM relay simulator and rate optimizer.

The package splits into small focused modules:

* :mod:`ehrelay.channel` - random fading channels with path loss.
* :mod:`ehrelay.system` - time-switching relay protocol and the reduced problem.
* :mod:`ehrelay.auglag` - augmented Lagrangian rate optimizer.
* :mod:`ehrelay.waterfill` - independent water-filling reference solver.
* :mod:`ehrelay.experiment` / :mod:`ehrelay.cli` - Monte Carlo sweeps and CLI.
"""

from ehrelay.channel import ChannelRealization, Scenario, effective_subchannels, generate
from ehrelay.system import (
    Allocation,
    EnergyPlan,
    achievable_rate,
    benchmark_allocation,
    optimal_energy_plan,
    snr_coefficients,
)

__all__ = [
    "Allocation",
    "ChannelRealization",
    "EnergyPlan",
    "Scenario",
    "achievable_rate",
    "benchmark_allocation",
    "effective_subchannels",
    "generate",
    "optimal_energy_plan",
    "snr_coefficients",
]

__version__ = "0.1.0"
