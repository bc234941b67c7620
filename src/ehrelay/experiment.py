"""Monte Carlo sweeps over relay position, power and antenna counts.

An :class:`ExperimentSpec` pins one scenario, one sweep axis, a trial
count, the set of solvers to run and a master seed.  :data:`SOLVERS`
maps each solver's name to the function that runs it on a drawn problem;
its order is the order of the CSV rows.  Trials are seeded
by mixing ``(master_seed, sweep_index, trial_index)`` through
``numpy.random.SeedSequence``, so results are reproducible and adding
sweep points does not perturb existing trials.  Aggregated results are
emitted as CSV with full-precision (round-trippable) numbers.

:func:`stress_scenarios` draws the seeded stress sets of :data:`STRESS_SETS`
that ``ehrelay selftest`` and the solver tests solve.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ehrelay.auglag import optimize
from ehrelay.channel import Scenario, effective_subchannels, generate, parse_key_value_file, require_count
from ehrelay.system import (
    ReducedProblem, achievable_rate, benchmark_allocation, optimal_energy_plan, snr_coefficients,
)
from ehrelay.waterfill import solve as oracle_solve

__all__ = [
    "CSV_HEADER",
    "SOLVERS",
    "SOLVER_ORDER",
    "STRESS_SETS",
    "SWEEP_KINDS",
    "Draw",
    "ExperimentSpec",
    "SweepRow",
    "TrialOutcome",
    "draw",
    "emit_csv",
    "run",
    "run_trial",
    "spec_from_file",
    "stress_scenarios",
    "trial_rng",
]

# Each sweep kind and the Scenario fields one of its values sets.
_SWEEPS = {
    "phi": ("phi",),
    "p_source": ("p_source",),
    "antennas": ("n_s", "n_r", "n_d"),
    "k_subcarriers": ("k_subcarriers",),
}
SWEEP_KINDS = ("none", *_SWEEPS)
# Each stress set of stress_scenarios: (seed, log10 range of P in W, d_sd choices).
STRESS_SETS = {
    "broad": (12345, (-3.0, 3.0), (1.0, 2.0, 10.0, 30.0)),
    "corner": (777, (-3.0, -1.0), (30.0,)),
}

@dataclass(frozen=True)
class ExperimentSpec:
    """One reproducible experiment: scenario, sweep axis, trials, solvers.

    ``solvers`` is held in :data:`SOLVER_ORDER`, each name once, and
    ``sweep_values`` as Python numbers, so the spec is hashable and each
    value's CSV cell reads back by ``float``.
    """

    scenario: Scenario
    sweep: str = "none"
    sweep_values: tuple = ()
    trials: int = 200
    solvers: tuple[str, ...] = ("alpf", "benchmark")
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
        object.__setattr__(self, "solvers", tuple(s for s in SOLVER_ORDER if s in self.solvers))
        object.__setattr__(self, "sweep_values", tuple(np.asarray(v).item() for v in self.sweep_values))
        self.points()  # validates each swept scenario

    def points(self) -> list[tuple]:
        """Each ``(sweep value, scenario)`` in :func:`run`'s order; the value is None when unswept."""
        if self.sweep == "none":
            return [(None, self.scenario)]
        names = _SWEEPS[self.sweep]
        return [(value, replace(self.scenario, **dict.fromkeys(names, value))) for value in self.sweep_values]


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial, per-solver result; ``inner_iterations`` is ALPF's, 0 for the other solvers."""

    rate_bps: float
    alpha: float
    iterations: int
    converged: bool
    inner_iterations: int


def _alpf(problem: ReducedProblem) -> tuple[TrialOutcome, object]:
    res = optimize(problem)
    alpha = res.allocation.alpha
    return TrialOutcome(res.rate_bps, alpha, res.outer_iterations, res.converged, res.inner_iterations), res


def _oracle(problem: ReducedProblem) -> tuple[TrialOutcome, object]:
    sol = oracle_solve(problem)
    return TrialOutcome(sol.rate_star, sol.alpha_star, sol.iterations, True, 0), sol


def _benchmark(problem: ReducedProblem) -> tuple[TrialOutcome, object]:
    alloc = benchmark_allocation(problem)
    return TrialOutcome(achievable_rate(problem, alloc), alloc.alpha, 0, True, 0), alloc


# Each solver, in CSV row order: problem -> (its TrialOutcome, the solver's own
# result).  The functions look the solvers up as this module's globals at each
# call, so a wrapper set on one of them here sees every solve.
SOLVERS = {"alpf": _alpf, "oracle": _oracle, "benchmark": _benchmark}
SOLVER_ORDER = tuple(SOLVERS)


@dataclass(frozen=True)
class SweepRow:
    """Aggregate of one (sweep value, solver) cell; its fields are the CSV columns, in order.

    ``mean_iterations`` averages each trial's count: ALPF's outer
    iterations, the oracle's Dinkelbach steps, and 0 for the benchmark.
    """

    sweep_param: str
    sweep_value: float | int | None
    solver: str
    mean_rate_bps: float
    stderr_rate_bps: float
    mean_alpha: float
    mean_iterations: float
    convergence_fraction: float


# Each spec-file key with its field's type, read from the default: the
# scenario's fields and the experiment's share the file's one namespace.
_SCENARIO_KEYS = {f.name for f in fields(Scenario)}
_KEY_TYPES = {f.name: type(f.default) for f in (*fields(Scenario), *fields(ExperimentSpec)) if f.name != "scenario"}

_ROW_FIELDS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_ROW_FIELDS)


def validate_solvers(solvers) -> None:
    """Reject an empty solver list or a name outside :data:`SOLVERS`."""
    if not solvers:
        raise ValueError("solvers must be nonempty")
    for solver in solvers:
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver '{solver}'")


def trial_rng(master_seed: int, sweep_index: int, trial_index: int) -> np.random.Generator:
    """Deterministic per-trial generator.

    The three indices are mixed by ``numpy.random.SeedSequence``, so each
    trial's stream is independent of every other and stable under
    appending sweep values or trials.
    """
    return np.random.default_rng(np.random.SeedSequence([master_seed, sweep_index, trial_index]))


class Draw(NamedTuple):
    """One channel draw, from its sorted gains to its reduced problem.

    ``gains1``/``gains2`` are each hop's gains sorted in descending order,
    so index ``n`` is a pair.  Phase one's energy beam runs on hop-1
    subcarrier ``subcarrier``, whose top gain is ``harvest_coeff``.
    """

    gains1: np.ndarray
    gains2: np.ndarray
    subcarrier: int
    harvest_coeff: float
    problem: ReducedProblem


def draw(scenario: Scenario, rng: np.random.Generator) -> Draw:
    """Draw one channel of ``scenario`` from ``rng`` and take it to its reduced problem.

    Every draw of the program takes a :func:`trial_rng`.  The four stages pass
    each other plain arrays and are looked up as this module's globals at
    each call, so a wrapper set on one of them here sees every draw.
    """
    gains1, gains2 = generate(scenario, rng)
    sorted1, sorted2 = effective_subchannels(gains1, gains2)
    subcarrier, harvest_coeff = optimal_energy_plan(gains1, scenario)
    problem = snr_coefficients(sorted1, sorted2, harvest_coeff, scenario)
    return Draw(sorted1, sorted2, subcarrier, harvest_coeff, problem)


def stress_scenarios(kind: str) -> Iterator[Scenario]:
    """The scenarios of the seeded ``broad`` or ``corner`` stress set, in order.

    Scenarios are drawn one after another from the set's seed in
    :data:`STRESS_SETS`: K in 1..4 and the three antenna counts in 1..3;
    then P log-uniform over the set's range with ``d_sd`` one of its
    choices (broad: 1 mW..1 kW and 1, 2, 10 or 30; corner: 1..100 mW at
    30); then ``phi`` in 0.02..0.98 and ``eta`` in 0.2..1.  A one-choice
    draw takes nothing from the stream.  The generator does not end.
    Scenario i's channels are drawn from ``trial_rng(seed, 0, i)``; the
    solver tests take seed 99.
    """
    seed, (lo, hi), distances = STRESS_SETS[kind]
    rng = np.random.default_rng(seed)
    while True:
        k = int(rng.integers(1, 5))
        n_s, n_r, n_d = (int(v) for v in rng.integers(1, 4, 3))
        p_source = float(10.0 ** rng.uniform(lo, hi))
        d_sd = float(rng.choice(distances))
        phi = float(rng.uniform(0.02, 0.98))
        eta = float(rng.uniform(0.2, 1.0))
        yield Scenario(n_s=n_s, n_r=n_r, n_d=n_d, k_subcarriers=k, p_source=p_source, d_sd=d_sd, phi=phi, eta=eta)


def run_trial(scenario: Scenario, rng: np.random.Generator, solvers) -> dict[str, TrialOutcome]:
    """Draw one channel and run the requested solvers on it, in the order given."""
    validate_solvers(solvers)
    problem = draw(scenario, rng).problem
    return {s: SOLVERS[s](problem)[0] for s in solvers}


def run(spec: ExperimentSpec) -> tuple[SweepRow, ...]:
    """Execute the experiment: every sweep value times every trial; return the CSV's rows.

    Deterministic for a fixed ``spec``; trial outcomes are aggregated per
    (sweep value, solver), solvers in the spec's order, into mean rate,
    standard error, mean optimal time split, mean iteration count and
    convergence fraction.
    """
    rows: list[SweepRow] = []
    for i, (value, scen) in enumerate(spec.points()):
        outcomes = [run_trial(scen, trial_rng(spec.master_seed, i, t), spec.solvers) for t in range(spec.trials)]
        rows += (_aggregate(spec.sweep, value, s, [o[s] for o in outcomes]) for s in spec.solvers)
    return tuple(rows)


def emit_csv(rows, path) -> None:
    """Write one header line plus one line per :class:`SweepRow` of ``rows``.

    Numbers are written with ``repr`` so parsing them back recovers the
    exact double-precision values.

    Raises:
        ValueError: on no rows.
        OSError: when the file cannot be written; the message names the path.
    """
    if not rows:
        raise ValueError("cannot emit CSV for no rows")
    lines = [CSV_HEADER, *(",".join(_cell(getattr(row, name)) for name in _ROW_FIELDS) for row in rows)]
    text = "\n".join(lines) + "\n"
    try:
        Path(path).write_text(text, newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to '{path}': {exc}") from exc


def spec_from_file(path) -> ExperimentSpec:
    """Load an :class:`ExperimentSpec` from a ``key = value`` file.

    Scenario fields and experiment fields share one flat namespace, and
    one table types every key by its field's default: a count parses as
    ``int``, a quantity as ``float``, ``sweep`` as written, and ``solvers``
    and ``sweep_values`` as comma-separated lists.  ``sweep_values`` take
    the type of the swept field.

    Keys are read in file order.  The first error found is raised, and
    every ``ValueError`` names the file: a line-syntax error or duplicate
    key first, then an unknown key or unparsable value in file order,
    then the scenario's checks, then the experiment's.
    """
    values = parse_key_value_file(path)
    sweep = values.get("sweep", "none")
    # An unknown kind's values parse as floats, and ExperimentSpec then names the kind.
    swept = _KEY_TYPES[_SWEEPS[sweep][0]] if sweep in _SWEEPS else float
    scenario, experiment = {}, {}
    try:
        for key, raw in values.items():
            if key not in _KEY_TYPES:
                raise ValueError(f"unknown key '{key}'")
            kind = _KEY_TYPES[key]
            if kind is tuple:
                entries = tuple(v.strip() for v in raw.split(",") if v.strip())
                value = entries if key == "solvers" else tuple(_parse(key, v, swept) for v in entries)
            else:
                value = _parse(key, raw, kind)
            (scenario if key in _SCENARIO_KEYS else experiment)[key] = value
        return ExperimentSpec(Scenario(**scenario), **experiment)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse(key: str, raw: str, kind: type):
    """``kind(raw)``; a ``ValueError`` names ``key`` and ``raw``."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ValueError(f"invalid value for '{key}': {raw!r}") from exc


def _cell(value) -> str:
    """CSV text of one field: empty for ``None``, a string as is, a number by ``repr``."""
    if value is None:
        return ""
    return value if isinstance(value, str) else repr(value)


def _aggregate(sweep_param: str, sweep_value, solver: str, outcomes: list[TrialOutcome]) -> SweepRow:
    rates = np.array([o.rate_bps for o in outcomes])
    alphas = np.array([o.alpha for o in outcomes])
    iters = np.array([float(o.iterations) for o in outcomes])
    conv = np.array([1.0 if o.converged else 0.0 for o in outcomes])
    stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
    return SweepRow(
        sweep_param=sweep_param,
        sweep_value=sweep_value,
        solver=solver,
        mean_rate_bps=float(rates.mean()),
        stderr_rate_bps=stderr,
        mean_alpha=float(alphas.mean()),
        mean_iterations=float(iters.mean()),
        convergence_fraction=float(conv.mean()),
    )
