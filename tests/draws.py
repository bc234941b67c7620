"""The seeded stress scenarios that the solver tests share, each with its problem.

Every problem is drawn by ``experiment.draw``, the one path from a
scenario to its problem.
"""

from __future__ import annotations

import numpy as np

from ehrelay.channel import Scenario
from ehrelay.experiment import draw, trial_rng
from ehrelay.system import ReducedProblem

STRESS_SEEDS = {"broad": 12345, "corner": 777}


def stress_scenario(kind: str, index: int) -> tuple[Scenario, ReducedProblem]:
    """Scenario ``index`` of the seeded ``broad`` or ``corner`` stress set, and its problem.

    Scenarios are drawn in order from ``default_rng(STRESS_SEEDS[kind])``:
    K in 1..4 and the three antenna counts in 1..3; then P log-uniform in
    1 mW..1 kW with ``d_sd`` one of 1, 2, 10, 30 (broad), or P in
    1..100 mW at ``d_sd = 30`` (corner); then ``phi`` in 0.02..0.98 and
    ``eta`` in 0.2..1.  Scenario i's channels come from
    ``trial_rng(99, 0, i)``.
    """
    rng = np.random.default_rng(STRESS_SEEDS[kind])
    for _ in range(index + 1):
        k = int(rng.integers(1, 5))
        n_s, n_r, n_d = (int(v) for v in rng.integers(1, 4, 3))
        if kind == "broad":
            p_source = float(10.0 ** rng.uniform(-3.0, 3.0))
            d_sd = float(rng.choice([1.0, 2.0, 10.0, 30.0]))
        else:
            p_source = float(10.0 ** rng.uniform(-3.0, -1.0))
            d_sd = 30.0
        phi = float(rng.uniform(0.02, 0.98))
        eta = float(rng.uniform(0.2, 1.0))
    scen = Scenario(
        n_s=n_s, n_r=n_r, n_d=n_d, k_subcarriers=k, p_source=p_source, d_sd=d_sd, phi=phi, eta=eta
    )
    return scen, draw(scen, trial_rng(99, 0, index)).problem
