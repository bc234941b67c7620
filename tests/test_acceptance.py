"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPT-n PASS/FAIL`` line (visible with
``pytest -s`` or on failure) and then asserts.  Expensive artifacts (the
50-instance comparison batch, the relay-position sweep) are computed
once per module and shared.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from ehrelay.auglag import optimize
from ehrelay.channel import Scenario, effective_subchannels, generate, svd
from ehrelay.experiment import ExperimentSpec, emit_csv, run, trial_rng
from ehrelay.system import (
    ReducedProblem,
    achievable_rate,
    benchmark_allocation,
    optimal_energy_plan,
    snr_coefficients,
)
from ehrelay.waterfill import solve as oracle_solve
from test_auglag import gradient_vs_central_differences, random_state

PHI_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPT-{criterion} {'PASS' if passed else 'FAIL'}: {detail}")


@dataclass(frozen=True)
class ComparisonRun:
    k: int
    n: int
    p_source: float
    problem: ReducedProblem
    alpf: object
    oracle: object
    benchmark_rate: float


@pytest.fixture(scope="module")
def comparison_batch():
    """50 random instances over K in {1,2}, N in {1,2,3}, P in {0.1,1,10}."""
    rng = np.random.default_rng(2024)
    runs = []
    start = time.monotonic()
    for trial in range(50):
        k = int(rng.choice([1, 2]))
        n = int(rng.choice([1, 2, 3]))
        p = float(rng.choice([0.1, 1.0, 10.0]))
        scen = Scenario(
            n_s=n, n_r=n, n_d=n, k_subcarriers=k, p_source=p,
            phi=float(rng.uniform(0.1, 0.9)),
        )
        real = generate(scen, trial_rng(31337, 0, trial))
        eff = effective_subchannels(real)
        plan = optimal_energy_plan(real, scen)
        problem = snr_coefficients(eff.gains1, eff.gains2, plan, scen)
        res = optimize(problem)
        sol = oracle_solve(problem)
        bench_rate = achievable_rate(problem, benchmark_allocation(problem))
        runs.append(
            ComparisonRun(
                k=k, n=n, p_source=p, problem=problem, alpf=res, oracle=sol, benchmark_rate=bench_rate
            )
        )
    elapsed = time.monotonic() - start
    return runs, elapsed


@pytest.fixture(scope="module")
def phi_sweep():
    """Relay-position sweep: K = 2, N = 2, 200 trials per position."""
    spec = ExperimentSpec(
        scenario=Scenario(n_s=2, n_r=2, n_d=2, k_subcarriers=2),
        sweep="phi",
        sweep_values=PHI_GRID,
        trials=200,
        solvers=("alpf",),
        master_seed=7,
    )
    start = time.monotonic()
    result = run(spec)
    elapsed = time.monotonic() - start
    return result, elapsed


def test_criterion_1_oracle_equivalence(comparison_batch):
    runs, elapsed = comparison_batch
    converged = [r for r in runs if r.alpf.converged]
    frac = len(converged) / len(runs)
    worst_rel = max(
        abs(r.alpf.rate_bps - r.oracle.rate_star) / max(r.oracle.rate_star, 1e-12)
        for r in converged
    )
    ok = worst_rel <= 0.01 and frac >= 0.95 and elapsed < 60.0
    report(
        1,
        ok,
        f"{len(converged)}/{len(runs)} converged, worst rate gap {worst_rel:.2e}, "
        f"batch time {elapsed:.1f}s",
    )
    assert worst_rel <= 0.01
    assert frac >= 0.95
    assert elapsed < 60.0


def test_criterion_2_single_pair_closed_form():
    # alpha* = A / (A + 2B) with full budgets is the optimum exactly when
    # the rate still grows while the pair balance binds, i.e. when
    # A + 2B >= (1 + A) ln(1 + A); pairs are drawn from that regime.
    rng = np.random.default_rng(77)
    checked = 0
    worst_alpha = 0.0
    worst_mu = 0.0
    while checked < 20:
        a_val = float(np.exp(rng.uniform(np.log(0.3), np.log(30.0))))
        b_val = float(np.exp(rng.uniform(np.log(0.3), np.log(30.0))))
        if a_val + 2.0 * b_val < 1.1 * (1.0 + a_val) * np.log(1.0 + a_val):
            continue
        checked += 1
        target = a_val / (a_val + 2.0 * b_val)
        problem = ReducedProblem(np.array([a_val]), np.array([b_val]), 1000.0, 1)
        res = optimize(problem)
        sol = oracle_solve(problem)
        assert res.converged
        worst_alpha = max(
            worst_alpha, abs(res.allocation.alpha - target), abs(sol.alpha_star - target)
        )
        worst_mu = max(
            worst_mu,
            abs(res.allocation.mu[0] - 1.0),
            abs(res.allocation.mu_bar[0] - 1.0),
            abs(sol.mu_star[0] - 1.0),
            abs(sol.mu_bar_star[0] - 1.0),
        )
    ok = worst_alpha <= 1e-3 and worst_mu <= 1e-4
    report(2, ok, f"20 pairs, worst alpha error {worst_alpha:.2e}, worst mu error {worst_mu:.2e}")
    assert worst_alpha <= 1e-3
    assert worst_mu <= 1e-4


def test_criterion_3_constraint_satisfaction(comparison_batch):
    runs, _ = comparison_batch
    worst_violation = 0.0
    worst_balance = 0.0
    for r in runs:
        if not r.alpf.converged:
            continue
        worst_violation = max(worst_violation, r.alpf.final_violation)
    # Recompute hop balance directly from each run's coefficients.
    for r in runs:
        if not r.alpf.converged:
            continue
        alloc = r.alpf.allocation
        g = 2.0 * alloc.alpha / (1.0 - alloc.alpha)
        # Coefficients are recoverable from the solved rates only through
        # the problem.
        r1 = np.log2(1.0 + r.problem.a_coeffs * alloc.mu)
        r2 = np.log2(1.0 + g * r.problem.b_coeffs * alloc.mu_bar)
        live = r1 > 1e-9
        if live.any():
            rel = np.abs(r1[live] - r2[live]) / r1[live]
            worst_balance = max(worst_balance, float(rel.max()))
    ok = worst_violation <= 1e-6 and worst_balance <= 1e-5
    report(
        3,
        ok,
        f"worst violation {worst_violation:.2e}, worst hop-rate imbalance {worst_balance:.2e}",
    )
    assert worst_violation <= 1e-6
    assert worst_balance <= 1e-5


def test_criterion_4_rate_dip_at_midpoint(phi_sweep):
    result, elapsed = phi_sweep
    rows = result.rows_for("alpf")
    rates = np.array([row.mean_rate_bps for row in rows])
    errs = np.array([row.stderr_rate_bps for row in rows])
    i_min = int(np.argmin(rates))
    interior = 0 < i_min < len(rates) - 1
    lead_left = (rates[0] - rates[i_min]) / np.hypot(errs[0], errs[i_min])
    lead_right = (rates[-1] - rates[i_min]) / np.hypot(errs[-1], errs[i_min])
    profile = ", ".join(f"{p}:{r:.0f}" for p, r in zip(PHI_GRID, rates))
    ok = interior and lead_left > 3.0 and lead_right > 3.0 and elapsed < 300.0
    report(
        4,
        ok,
        f"min at phi={PHI_GRID[i_min]}, endpoint leads {lead_left:.1f}/{lead_right:.1f} SE, "
        f"sweep time {elapsed:.0f}s, profile [{profile}]",
    )
    assert elapsed < 300.0
    assert interior, f"mean rate profile has no interior minimum: [{profile}]"
    assert lead_left > 3.0 and lead_right > 3.0


def test_criterion_5_alpha_rises_then_falls(phi_sweep):
    result, _ = phi_sweep
    rows = result.rows_for("alpf")
    alphas = np.array([row.mean_alpha for row in rows])
    smoothed = np.array(
        [alphas[max(0, i - 1) : i + 2].mean() for i in range(len(alphas))]
    )
    i_max = int(np.argmax(smoothed))
    interior = 0 < i_max < len(smoothed) - 1
    rising = bool(np.all(np.diff(smoothed[: i_max + 1]) >= 0))
    falling = bool(np.all(np.diff(smoothed[i_max:]) <= 0))
    profile = ", ".join(f"{p}:{a:.5f}" for p, a in zip(PHI_GRID, smoothed))
    ok = interior and rising and falling
    report(5, ok, f"smoothed alpha profile [{profile}], max at phi={PHI_GRID[i_max]}")
    assert interior, f"smoothed mean alpha has no interior maximum: [{profile}]"
    assert rising and falling


def test_criterion_6_rate_grows_with_antennas():
    spec = ExperimentSpec(
        scenario=Scenario(k_subcarriers=2),
        sweep="antennas",
        sweep_values=(2, 3, 4, 5, 6),
        trials=100,
        solvers=("alpf",),
        master_seed=11,
    )
    result = run(spec)
    rates = [row.mean_rate_bps for row in result.rows_for("alpf")]
    increasing = all(rates[i] < rates[i + 1] for i in range(len(rates) - 1))
    report(6, increasing, "mean rates " + ", ".join(f"{r:.0f}" for r in rates))
    assert increasing


def test_criterion_7_benchmark_dominance(comparison_batch):
    runs, _ = comparison_batch
    converged = [r for r in runs if r.alpf.converged]
    bad = [r for r in converged if r.alpf.rate_bps < r.benchmark_rate - 1e-9]
    report(7, not bad, f"{len(converged) - len(bad)}/{len(converged)} converged trials dominate")
    assert not bad


def test_criterion_8_numerics():
    rng = np.random.default_rng(88)
    worst_rec = 0.0
    for _ in range(1000):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        u, s, vh = svd(m, full_matrices=False)
        worst_rec = max(worst_rec, float(np.linalg.norm((u * s) @ vh - m) / np.linalg.norm(m)))
    worst_grad = 0.0
    grad_rng = np.random.default_rng(89)
    for _ in range(100):
        problem, x, nu, sigma = random_state(
            grad_rng, int(grad_rng.integers(1, 5)), coeff_hi=1e2, bandwidth=2.0
        )
        worst_grad = max(worst_grad, gradient_vs_central_differences(problem, x, nu, sigma))
    ok = worst_rec <= 1e-10 and worst_grad <= 1e-5
    report(8, ok, f"worst SVD reconstruction {worst_rec:.2e}, worst gradient error {worst_grad:.2e}")
    assert worst_rec <= 1e-10
    assert worst_grad <= 1e-5


def test_criterion_9_deterministic_csv(tmp_path):
    spec = ExperimentSpec(
        scenario=Scenario(),
        sweep="phi",
        sweep_values=(0.25, 0.75),
        trials=5,
        solvers=("alpf", "benchmark"),
        master_seed=123,
    )
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    emit_csv(run(spec), p1)
    emit_csv(run(spec), p2)
    identical = p1.read_bytes() == p2.read_bytes()
    report(9, identical, f"{p1.stat().st_size} bytes, byte-identical={identical}")
    assert identical
