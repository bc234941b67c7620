"""Monte Carlo sweeps over relay position, power and antenna counts.

An :class:`ExperimentSpec` pins one scenario, one sweep axis, a trial
count, the set of solvers to run and a master seed.  Trials are seeded
by mixing ``(master_seed, sweep_index, trial_index)`` through
``numpy.random.SeedSequence``, so results are reproducible and adding
sweep points does not perturb existing trials.  Aggregated results are
emitted as CSV with full-precision (round-trippable) numbers.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from ehrelay.auglag import optimize
from ehrelay.channel import (
    FIELD_TYPES,
    Scenario,
    effective_subchannels,
    generate,
    parse_key_value_file,
    parse_value,
    require_count,
    scenario_from_mapping,
)
from ehrelay.system import achievable_rate, benchmark_allocation, optimal_energy_plan, snr_coefficients
from ehrelay.waterfill import solve as oracle_solve

__all__ = [
    "CSV_HEADER",
    "SOLVER_ORDER",
    "SWEEP_KINDS",
    "ExperimentSpec",
    "SweepResult",
    "SweepRow",
    "TrialOutcome",
    "emit_csv",
    "run",
    "run_trial",
    "spec_from_file",
    "trial_rng",
    "validate_solvers",
]

SOLVER_ORDER = ("alpf", "oracle", "benchmark")
# Each sweep kind and the Scenario fields one of its values sets.
_SWEEPS = {
    "phi": ("phi",),
    "p_source": ("p_source",),
    "antennas": ("n_s", "n_r", "n_d"),
    "k_subcarriers": ("k_subcarriers",),
}
SWEEP_KINDS = ("none", *_SWEEPS)

@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: scenario, sweep axis, trials, solvers."""

    scenario: Scenario
    sweep: str = "none"
    sweep_values: tuple = ()
    trials: int = 200
    solvers: tuple[str, ...] = ("alpf", "benchmark")
    output_path: str | None = None
    master_seed: int = 0

    def __post_init__(self):
        if self.sweep not in SWEEP_KINDS:
            raise ValueError(f"sweep must be one of {SWEEP_KINDS}, got '{self.sweep}'")
        if self.sweep != "none" and len(self.sweep_values) == 0:
            raise ValueError("sweep_values must be nonempty for a swept experiment")
        if self.sweep == "none" and len(self.sweep_values) > 0:
            raise ValueError("sweep_values must be empty when sweep is 'none'")
        require_count("trials", self.trials)
        require_count("master_seed", self.master_seed, least=0)
        validate_solvers(self.solvers)
        for value in self.sweep_values:
            scenario_for_sweep(self.scenario, self.sweep, value)  # validates


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial, per-solver result."""

    rate_bps: float
    alpha: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class SweepRow:
    """Aggregate of one (sweep value, solver) cell; its fields are the CSV columns.

    ``mean_iterations`` averages each trial's count: ALPF's outer
    iterations, the oracle's Dinkelbach steps, and 0 for the benchmark.
    """

    sweep_value: float | int | None
    solver: str
    mean_rate_bps: float
    stderr_rate_bps: float
    mean_alpha: float
    mean_iterations: float
    convergence_fraction: float


# Each experiment field a spec file may set, with its default's type; the
# scenario's fields share the file's namespace.
_SPEC_TYPES = {f.name: type(f.default) for f in fields(ExperimentSpec) if f.name != "scenario"}

CSV_HEADER = ",".join(["sweep_param", *(f.name for f in fields(SweepRow))])


@dataclass(frozen=True)
class SweepResult:
    """All aggregate rows of one experiment run."""

    sweep_param: str
    rows: tuple[SweepRow, ...]

    def rows_for(self, solver: str) -> list[SweepRow]:
        return [r for r in self.rows if r.solver == solver]


def validate_solvers(solvers) -> None:
    """Reject an empty solver list or a name outside :data:`SOLVER_ORDER`."""
    if not solvers:
        raise ValueError("solvers must be nonempty")
    for solver in solvers:
        if solver not in SOLVER_ORDER:
            raise ValueError(f"unknown solver '{solver}'")


def scenario_for_sweep(base: Scenario, sweep: str, value) -> Scenario:
    """Return ``base`` with the swept parameter replaced by ``value``."""
    if sweep == "none":
        return base
    return replace(base, **dict.fromkeys(_SWEEPS[sweep], value))


def trial_rng(master_seed: int, sweep_index: int, trial_index: int) -> np.random.Generator:
    """Deterministic per-trial generator.

    The three indices are mixed by ``numpy.random.SeedSequence``, so each
    trial's stream is independent of every other and stable under
    appending sweep values or trials.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed, sweep_index, trial_index]))


def run_trial(scenario: Scenario, rng: np.random.Generator, solvers) -> dict[str, TrialOutcome]:
    """Draw one channel and run the requested solvers on it."""
    real = generate(scenario, rng)
    eff = effective_subchannels(real)
    plan = optimal_energy_plan(real, scenario)
    problem = snr_coefficients(eff.gains1, eff.gains2, plan, scenario)

    outcomes: dict[str, TrialOutcome] = {}
    for solver in solvers:
        if solver == "benchmark":
            alloc = benchmark_allocation(problem)
            rate = achievable_rate(problem, alloc)
            outcomes[solver] = TrialOutcome(rate_bps=rate, alpha=alloc.alpha, iterations=0, converged=True)
        elif solver == "alpf":
            res = optimize(problem)
            outcomes[solver] = TrialOutcome(
                rate_bps=res.rate_bps,
                alpha=res.allocation.alpha,
                iterations=res.outer_iterations,
                converged=res.converged,
            )
        elif solver == "oracle":
            sol = oracle_solve(problem)
            outcomes[solver] = TrialOutcome(
                rate_bps=sol.rate_star,
                alpha=sol.alpha_star,
                iterations=sol.iterations,
                converged=True,
            )
        else:  # specs never get here; this check is for direct callers
            raise ValueError(f"unknown solver '{solver}'")
    return outcomes


def run(spec: ExperimentSpec) -> SweepResult:
    """Execute the experiment: every sweep value times every trial.

    Deterministic for a fixed ``spec``; trial outcomes are aggregated per
    (sweep value, solver) into mean rate, standard error, mean optimal
    time split, mean iteration count and convergence fraction.
    """
    values = list(spec.sweep_values) if spec.sweep != "none" else [None]
    solvers = [s for s in SOLVER_ORDER if s in spec.solvers]
    rows: list[SweepRow] = []
    for i, value in enumerate(values):
        scen = scenario_for_sweep(spec.scenario, spec.sweep, value)
        collected: dict[str, list[TrialOutcome]] = {s: [] for s in solvers}
        for t in range(spec.trials):
            outcome = run_trial(scen, trial_rng(spec.master_seed, i, t), solvers)
            for s in solvers:
                collected[s].append(outcome[s])
        for s in solvers:
            rows.append(_aggregate(value, s, collected[s]))
    return SweepResult(sweep_param=spec.sweep, rows=tuple(rows))


def emit_csv(result: SweepResult, path) -> None:
    """Write one header line plus one line per aggregate row.

    Numbers are written with ``repr`` so parsing them back recovers the
    exact double-precision values.

    Raises:
        ValueError: on an empty result.
        OSError: when the file cannot be written; the message names the path.
    """
    if not result.rows:
        raise ValueError("cannot emit CSV for an empty result")
    lines = [CSV_HEADER]
    for row in result.rows:
        lines.append(",".join([result.sweep_param, *map(_cell, astuple(row))]))
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to '{path}': {exc}") from exc


def spec_from_file(path) -> ExperimentSpec:
    """Load an :class:`ExperimentSpec` from a ``key = value`` file.

    Scenario fields and experiment fields share one flat namespace;
    ``sweep_values`` and ``solvers`` are comma-separated lists.  Unknown
    keys are rejected, and every ``ValueError`` names the file.
    """
    values = parse_key_value_file(path)
    exp_raw = {k: values.pop(k) for k in list(values) if k in _SPEC_TYPES}
    sweep = exp_raw.get("sweep", "none")
    kwargs = {}
    try:
        kwargs["scenario"] = scenario_from_mapping(values)
        for key, kind in _SPEC_TYPES.items():
            if key not in exp_raw:
                continue
            raw = exp_raw[key]
            if kind is tuple:
                entries = tuple(v.strip() for v in raw.split(",") if v.strip())
                if key == "sweep_values":
                    # An unknown kind's values parse as floats, and ExperimentSpec then names the kind.
                    kind = FIELD_TYPES[_SWEEPS[sweep][0]] if sweep in _SWEEPS else float
                    entries = tuple(parse_value(key, v, kind) for v in entries)
                kwargs[key] = entries
            else:
                # Strings, and the output path whose default is None, are taken as written.
                kwargs[key] = parse_value(key, raw, kind) if kind is int else raw
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cell(value) -> str:
    """CSV text of one field: empty for ``None``, a string as is, a number by ``repr``."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _aggregate(sweep_value, solver: str, outcomes: list[TrialOutcome]) -> SweepRow:
    rates = np.array([o.rate_bps for o in outcomes])
    alphas = np.array([o.alpha for o in outcomes])
    iters = np.array([float(o.iterations) for o in outcomes])
    conv = np.array([1.0 if o.converged else 0.0 for o in outcomes])
    stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
    return SweepRow(
        sweep_value=sweep_value,
        solver=solver,
        mean_rate_bps=float(rates.mean()),
        stderr_rate_bps=stderr,
        mean_alpha=float(alphas.mean()),
        mean_iterations=float(iters.mean()),
        convergence_fraction=float(conv.mean()),
    )
