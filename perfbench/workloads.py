"""The benchmark's workloads and the spec files generated for them.

Each workload is one closed-loop ``ehrelay run``: a single process works
through every (sweep value, trial) pair in turn.  The spec file written
for it names every ``Scenario`` field explicitly, so a change of the
program's defaults cannot silently change what a workload measures.  The
benchmark seed only picks the experiment's ``master_seed``; the program
receives nothing but the spec file.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WORKLOADS", "Workload", "master_seed", "spec_text"]

# Scenario fields shared by every workload; each workload overrides some.
_BASE_SCENARIO = {
    "n_s": 2,
    "n_r": 2,
    "n_d": 2,
    "k_subcarriers": 2,
    "bandwidth_hz": 1000.0,
    "p_source": 1.0,
    "eta": 1.0,
    "phi": 0.5,
    "d_sd": 10.0,
    "pathloss_exp": 4.0,
    "noise_total_w": 1e-6,
}


@dataclass(frozen=True)
class Workload:
    """One sweep experiment, minus its master seed.

    ``scenario`` holds every ``Scenario`` field except ``seed``, which is
    set from the master seed when the spec is written.  ``trials`` is per
    timed repetition; the traced run uses ``trace_trials`` when set, so
    its layer shares rest on more than one draw.
    """

    name: str
    scenario: dict
    sweep: str
    sweep_values: tuple
    trials: int
    solvers: tuple[str, ...]
    trace_trials: int | None = None

    @property
    def operations(self) -> int:
        """(trial, solver) pairs in one run of the spec."""
        return max(1, len(self.sweep_values)) * self.trials * len(self.solvers)


WORKLOADS = {
    w.name: w
    for w in (
        # d_sd = 10 keeps every hop distance >= 1, so path loss never acts as
        # a gain; ALPF's time split is interior and its inner iterations run
        # into the tens of thousands at small phi.  Not in BENCHMARK.json:
        # a run holds only ~10 trials of 0.2 to 11 s, and its sweep_s spread
        # 0.2 to 0.28 between seeds.  Its traced counts are exact, though.
        Workload(
            name="phi_sweep",
            scenario=dict(_BASE_SCENARIO),
            sweep="phi",
            sweep_values=(0.1, 0.3, 0.5, 0.7, 0.9),
            trials=1,
            solvers=("alpf",),
        ),
        # d_sd = 2 at phi = 0.5 puts both hops at distance exactly 1.  With
        # K = 32 (64 subchannel pairs) and P = 0.1 W a trial takes 1.2 to
        # 2.2 s over 31 draws, four fifths of it in the oracle; at K = 8 it
        # took 0.3 to 11 s, and at K = 2 or P = 100 W the oracle's
        # two-budget region is hit on far fewer draws and one trial's cost
        # swings up to 100x.  Each repetition is a single trial and the
        # median over repetitions is reported.
        Workload(
            name="crosscheck",
            scenario={**_BASE_SCENARIO, "k_subcarriers": 32, "d_sd": 2.0, "p_source": 0.1},
            sweep="none",
            sweep_values=(),
            trials=1,
            solvers=("alpf", "oracle", "benchmark"),
            trace_trials=6,
        ),
        # Only the fixed benchmark allocation runs, so both solvers are
        # bypassed and the Jacobi SVDs of the 2K matrices per trial dominate.
        Workload(
            name="wide_mimo",
            scenario={**_BASE_SCENARIO, "n_s": 4, "n_r": 4, "n_d": 4, "k_subcarriers": 32},
            sweep="antennas",
            sweep_values=(4, 8),
            trials=3,
            solvers=("benchmark",),
        ),
    )
}


def master_seed(seed: int, rep: int) -> int:
    """Master seed of repetition ``rep`` of a run with benchmark seed ``seed``."""
    return seed * 1000 + rep


def spec_text(workload: Workload, seed: int) -> str:
    """The ``key = value`` spec file of ``workload`` with master seed ``seed``."""
    lines = [f"# perfbench workload {workload.name}"]
    lines += [f"{key} = {value!r}" for key, value in workload.scenario.items()]
    lines += [
        f"seed = {seed}",
        f"sweep = {workload.sweep}",
    ]
    if workload.sweep_values:
        lines.append("sweep_values = " + ", ".join(repr(v) for v in workload.sweep_values))
    lines += [
        f"trials = {workload.trials}",
        "solvers = " + ", ".join(workload.solvers),
        f"master_seed = {seed}",
    ]
    return "\n".join(lines) + "\n"
