"""One channel draw taken from a scenario to its reduced problem, as ``run_trial`` takes it.

The test modules draw their problems here, so that a change to the
pipeline's stages edits one test site; each stage's own unit tests call
it directly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ehrelay.channel import (
    ChannelRealization,
    EffectiveSubchannels,
    Scenario,
    effective_subchannels,
    generate,
)
from ehrelay.system import EnergyPlan, ReducedProblem, optimal_energy_plan, snr_coefficients


class Draw(NamedTuple):
    real: ChannelRealization
    eff: EffectiveSubchannels
    plan: EnergyPlan
    problem: ReducedProblem


def draw_stages(scen: Scenario, rng: np.random.Generator | None = None) -> Draw:
    """Every stage's output for one draw of ``scen``; ``rng`` as in ``generate``."""
    real = generate(scen, rng)
    eff = effective_subchannels(real)
    plan = optimal_energy_plan(real, scen)
    return Draw(real, eff, plan, snr_coefficients(eff.gains1, eff.gains2, plan, scen))
