"""Command line interface: ``ehrelay run``, ``single`` and ``selftest``.

``main`` looks the command name up in ``_COMMANDS``, which gives each
command's help line, handler and arguments, and builds only that command's
parser.  The top-level parser is built only for help and errors: no
arguments, ``-h``, or a first argument that names no command.

Exit codes: 0 on success, 1 on validation errors, 2 when the optimizer
failed to converge on more than the allowed fraction of trials (or a
selftest check failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from ehrelay.auglag import optimize
from ehrelay.channel import Scenario, require_count, scenario_from_file
from ehrelay.experiment import (
    SOLVER_ORDER, draw, emit_csv, run, run_trial, spec_from_file, trial_rng, validate_solvers,
)
from ehrelay.system import achievable_rate, benchmark_allocation
from ehrelay.waterfill import solve as oracle_solve

MAX_NONCONVERGED_FRACTION = 0.05


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in _COMMANDS:
        parser = _top_parser()
        if not argv:
            parser.print_help()
            return 1
        top = parser.parse_args(argv)  # exits on -h or a name that is not a command
        argv = [top.command, *top.args]
    _, handler, arguments = _COMMANDS[argv[0]]
    parser = argparse.ArgumentParser(prog=f"ehrelay {argv[0]}")
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    try:
        return handler(parser.parse_args(argv[1:]))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _top_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrelay",
        description="Monte Carlo rate experiments for a wireless-powered MIMO-OFDM relay.",
        epilog="commands:\n" + "\n".join(f"  {name:<10}{_COMMANDS[name][0]}" for name in _COMMANDS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="{" + ",".join(_COMMANDS) + "}")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="its arguments; see ehrelay COMMAND -h")
    return parser


def _cmd_run(args) -> int:
    spec = spec_from_file(args.spec_file)
    output = args.output or spec.output_path
    if output is None:
        raise ValueError("no output path: pass --output or set output_path in the spec file")
    result = run(spec)
    emit_csv(result, output)
    print(f"wrote {len(result.rows)} rows to {output}")

    if "alpf" in spec.solvers:
        fractions = [row.convergence_fraction for row in result.rows_for("alpf")]
        worst = min(fractions)
        if 1.0 - worst > MAX_NONCONVERGED_FRACTION:
            print(
                f"optimizer convergence fraction {worst:.3f} below {1.0 - MAX_NONCONVERGED_FRACTION:.2f}",
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_single(args) -> int:
    scenario = scenario_from_file(args.scenario_file) if args.scenario_file else Scenario()
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    validate_solvers(solvers)

    gains1, gains2, subcarrier, harvest_coeff, problem = draw(scenario)

    print(f"scenario: {scenario}")
    print(f"energy beam subcarrier: {subcarrier}, harvest gain {harvest_coeff!r}")
    print(f"sorted hop-1 gains: {np.array2string(gains1, precision=6)}")
    print(f"sorted hop-2 gains: {np.array2string(gains2, precision=6)}")

    if "benchmark" in solvers:
        alloc = benchmark_allocation(problem)
        rate = achievable_rate(problem, alloc)
        print(f"\nbenchmark rate: {rate!r} bit/s (alpha = {alloc.alpha!r})")
    if "oracle" in solvers:
        sol = oracle_solve(problem)
        print(f"\noracle rate: {sol.rate_star!r} bit/s at alpha = {sol.alpha_star!r}")
        print(f"oracle mu: {np.array2string(sol.mu_star, precision=6)}")
        print(f"oracle mu_bar: {np.array2string(sol.mu_bar_star, precision=6)}")
    if "alpf" in solvers:
        res = optimize(problem)
        print(f"\noptimizer rate: {res.rate_bps!r} bit/s")
        print(f"optimizer mu: {np.array2string(res.allocation.mu, precision=6)}")
        print(f"optimizer mu_bar: {np.array2string(res.allocation.mu_bar, precision=6)}")
        print(res.report_text())
        if not res.converged:
            return 2
    return 0


def _cmd_selftest(args) -> int:
    require_count("--trials", args.trials)
    require_count("--seed", args.seed, least=0)
    rng = np.random.default_rng(args.seed)
    failures = []
    for i in range(args.trials):
        scenario = Scenario(
            n_s=int(rng.integers(1, 4)),
            n_r=int(rng.integers(1, 4)),
            n_d=int(rng.integers(1, 4)),
            k_subcarriers=int(rng.integers(1, 3)),
            p_source=float(rng.choice([0.1, 1.0, 10.0])),
            phi=float(rng.uniform(0.15, 0.85)),
            # run_trial draws from trial_rng below and never reads this
            # seed; the draw stays so that later instances keep their
            # scenarios.
            seed=int(rng.integers(0, 2**31)),
        )
        triple = (args.seed, 0, i)
        outcome = run_trial(scenario, trial_rng(*triple), SOLVER_ORDER)
        alpf, oracle, bench = outcome["alpf"], outcome["oracle"], outcome["benchmark"]

        checks = {
            "converged": alpf.converged,
            "rate>=benchmark": alpf.rate_bps >= bench.rate_bps - 1e-9,
            "rate-within-1%-of-oracle": abs(alpf.rate_bps - oracle.rate_bps)
            <= 0.01 * max(oracle.rate_bps, 1e-12),
        }
        bad = [name for name, ok in checks.items() if not ok]
        status = "PASS" if not bad else "FAIL(" + ",".join(bad) + ")"
        print(
            f"[{i + 1:02d}/{args.trials}] {status} seed={triple} "
            f"n_s={scenario.n_s} n_r={scenario.n_r} n_d={scenario.n_d} "
            f"K={scenario.k_subcarriers} P={scenario.p_source!r} phi={scenario.phi!r} "
            f"alpf={alpf.rate_bps:.6g} oracle={oracle.rate_bps:.6g} bench={bench.rate_bps:.6g}"
        )
        if bad:
            failures.append((i, bad))
    if failures:
        print(f"selftest FAILED on {len(failures)}/{args.trials} instances")
        return 2
    print(f"selftest passed on all {args.trials} instances")
    return 0


_SOLVERS = ",".join(SOLVER_ORDER)
# name -> (help line, handler, arguments); each argument is (flag, add_argument keywords).
_COMMANDS = {
    "run": ("run a sweep experiment from a spec file", _cmd_run, (
        ("spec_file", {"help": "key=value experiment spec file"}),
        ("--output", {"help": "CSV output path (overrides the spec file)"}),
    )),
    "single": ("solve a single channel realization", _cmd_single, (
        ("--scenario-file", {"help": "key=value scenario file"}),
        ("--seed", {"type": int, "help": "override the scenario seed"}),
        ("--solvers", {"default": _SOLVERS, "help": f"comma-separated subset of {_SOLVERS}"}),
    )),
    "selftest": ("run optimizer-vs-reference property checks", _cmd_selftest, (
        ("--trials", {"type": int, "default": 12, "help": "number of random instances"}),
        ("--seed", {"type": int, "default": 2024, "help": "master seed"}),
    )),
}

if __name__ == "__main__":
    sys.exit(main())
