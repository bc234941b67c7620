"""Command line interface: ``ehrelay run``, ``single`` and ``selftest``.

``main`` reads argv against the command's ``(flag, options)`` entries in
``_COMMANDS``, with the usage and error wording of Python's standard option
parser: positionals in order, each option as ``--flag VALUE`` or
``--flag=VALUE`` (no prefix abbreviations), and ``-h``.

``single`` solves the first sweep value of ``--scenario-file``, a ``run``
spec file (the ``Scenario`` defaults without one), on channels from
``trial_rng(M, 0, 0)``, where M is ``--seed`` or else the file's
``master_seed``.  So ``single --scenario-file F`` prints the first trial
that ``run F`` draws, and ``--seed M`` the one it draws at
``master_seed = M``.  Neither command reads the scenario's ``seed``.

``selftest`` solves scenario i < ``--trials`` of each seeded stress set
of ``experiment.STRESS_SETS`` (broad, then corner) on channels from
``trial_rng(--seed, 0, i)``, checks that ALPF converges, reaches the
benchmark and comes within 1% of the oracle, and prints one replay line each,
with ALPF's inner iterations.

Exit codes: 0 on success, 1 on validation errors, 2 on a usage error, on
failed convergence in more than the allowed fraction of ``run``'s trials,
on an unconverged solve in ``single``, or on a failed selftest check, and
141, SIGPIPE's, with nothing on stderr once stdout's reader has gone.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import fields, is_dataclass
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ehrelay.channel import Scenario, require_count
from ehrelay.experiment import (
    SOLVER_ORDER, SOLVERS, STRESS_SETS, ExperimentSpec, draw, emit_csv, run, run_trial, spec_from_file,
    stress_scenarios, trial_rng, validate_solvers,
)

MAX_NONCONVERGED_FRACTION = 0.05
# A word read as an option: a dash, not alone and not starting a negative number.
_OPTION = re.compile(r"-(?!\d+$|\d*\.\d+$).")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    if name not in _COMMANDS:
        if name not in (None, "-h", "--help"):
            _usage_error(None, f"argument {_CHOICES}: invalid choice: {name!r} (choose from {_NAMES})")
        print(_help(None))
        if name is None:
            return 1
        raise SystemExit(0)
    try:
        code = _COMMANDS[name][1](_parse(name, iter(argv[1:])))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout is gone: stop quietly, with stdout on the null
        # device so that the interpreter's last flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse(name: str, words) -> SimpleNamespace:
    """Read the ``words`` iterator against command ``name``'s ``(flag, options)`` entries."""
    options = {flag: opts for flag, opts in _COMMANDS[name][2] if flag.startswith("-")}
    positionals = [flag for flag, _ in _COMMANDS[name][2] if flag not in options]
    values = {flag: opts.get("default") for flag, opts in options.items()}
    given, extra = [], []
    for word in words:
        if not _OPTION.match(word):
            (given if len(given) < len(positionals) else extra).append(word)
        elif word in ("-h", "--help"):
            print(_help(name))
            raise SystemExit(0)
        elif (flag := word.partition("=")[0]) not in options:
            extra.append(word)
        else:
            value = word[len(flag) + 1:] if "=" in word else next(words, None)
            if value is None or "=" not in word and _OPTION.match(value):
                _usage_error(name, f"argument {flag}: expected one argument")
            kind = options[flag].get("type", str)
            try:
                values[flag] = kind(value)
            except ValueError:
                _usage_error(name, f"argument {flag}: invalid {kind.__name__} value: {value!r}")
    if len(given) < len(positionals):
        _usage_error(name, "the following arguments are required: " + ", ".join(positionals[len(given):]))
    if extra:
        _usage_error(name, "unrecognized arguments: " + " ".join(extra))
    values.update(zip(positionals, given))
    return SimpleNamespace(**{flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()})


def _help(name: str | None) -> str:
    """Help for command ``name``, or for ``ehrelay`` when None; its first line is the usage."""
    if name is None:
        usage = f"ehrelay [-h] {_CHOICES} ..."
        heading = "Monte Carlo rate experiments for a wireless-powered MIMO-OFDM relay.\n\ncommands (each takes -h):"
        rows = [(command, entry[0]) for command, entry in _COMMANDS.items()]
    else:
        rows = [(flag if flag[0] != "-" else f"{flag} {flag[2:].replace('-', '_').upper()}", opts["help"])
                for flag, opts in _COMMANDS[name][2]]
        words = [f"[{left}]" for left, _ in rows if left[0] == "-"] + [left for left, _ in rows if left[0] != "-"]
        usage, heading = " ".join([f"ehrelay {name} [-h]", *words]), "arguments:"
    rows.append(("-h, --help", "show this help message and exit"))
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([f"usage: {usage}", "", heading, *(f"  {left:<{width}}{right}" for left, right in rows)])


def _usage_error(name: str | None, message: str):
    usage = _help(name).partition("\n")[0]
    print(f"{usage}\n{'ehrelay' if name is None else f'ehrelay {name}'}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_run(args) -> int:
    spec = spec_from_file(args.spec_file)
    if args.output is None:
        raise ValueError("no output path: pass --output")
    # Checked before the sweep, so that a path that cannot be written costs no solves.
    if not args.output or not Path(args.output).parent.is_dir():
        raise OSError(f"cannot write CSV to '{args.output}': no such file or directory")
    if Path(args.output).is_dir():
        raise OSError(f"cannot write CSV to '{args.output}': is a directory")
    result = run(spec)
    emit_csv(result, args.output)
    print(f"wrote {len(result.rows)} rows to {args.output}")

    # Only ALPF can fail to converge; every other solver reports 1.0.
    worst = min(row.convergence_fraction for row in result.rows)
    if 1.0 - worst > MAX_NONCONVERGED_FRACTION:
        print(f"optimizer convergence fraction {worst:.3f} below {1.0 - MAX_NONCONVERGED_FRACTION:.2f}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_single(args) -> int:
    spec = spec_from_file(args.scenario_file) if args.scenario_file else ExperimentSpec(Scenario())
    _, scenario = spec.points()[0]
    triple = (spec.master_seed if args.seed is None else args.seed, 0, 0)
    require_count("--seed", triple[0], least=0)
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    validate_solvers(solvers)

    gains1, gains2, subcarrier, harvest_coeff, problem = draw(scenario, trial_rng(*triple))

    shown = ", ".join(f"{f.name}={getattr(scenario, f.name)!r}" for f in fields(scenario) if f.name != "seed")
    print(f"scenario: Scenario({shown})")
    print(f"trial: {triple}")
    print(f"energy beam subcarrier: {subcarrier}, harvest gain {harvest_coeff!r}")
    print(f"sorted hop-1 gains: {np.array2string(gains1, precision=6)}")
    print(f"sorted hop-2 gains: {np.array2string(gains2, precision=6)}")

    converged = True
    for name in SOLVER_ORDER:
        if name in solvers:
            outcome, result = SOLVERS[name](problem)
            print(f"\n{name} rate: {outcome.rate_bps!r} bit/s at alpha = {outcome.alpha!r}")
            print("\n".join(_field_lines(result)))
            converged = converged and outcome.converged
    return 0 if converged else 2


def _field_lines(result, prefix: str = ""):
    """``name: value`` for each field of dataclass ``result``, and of each dataclass in it.

    Arrays print through ``np.array2string`` at 6 digits, everything else by ``repr``.
    """
    for field in fields(result):
        value = getattr(result, field.name)
        if is_dataclass(value):
            yield from _field_lines(value, f"{prefix}{field.name}.")
        elif isinstance(value, np.ndarray):
            yield f"{prefix}{field.name}: {np.array2string(value, precision=6)}"
        else:
            yield f"{prefix}{field.name}: {value!r}"


def _cmd_selftest(args) -> int:
    require_count("--trials", args.trials)
    require_count("--seed", args.seed, least=0)
    failures, total = 0, len(STRESS_SETS) * args.trials
    for kind in STRESS_SETS:
        for i, scenario in enumerate(islice(stress_scenarios(kind), args.trials)):
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
                f"[{kind} {i}/{args.trials}] {status} seed={triple} alpf={alpf.rate_bps!r} "
                f"oracle={oracle.rate_bps!r} bench={bench.rate_bps!r} alpf_inner={alpf.inner_iterations} {scenario!r}"
            )
            failures += bool(bad)
    if failures:
        print(f"selftest FAILED on {failures}/{total} instances")
        return 2
    print(f"selftest passed on all {total} instances")
    return 0


_SOLVERS = ",".join(SOLVER_ORDER)
# name -> (help line, handler, arguments); each argument is (flag, {help, type?, default?}).
_COMMANDS = {
    "run": ("run a sweep experiment from a spec file", _cmd_run, (
        ("spec_file", {"help": "key=value experiment spec file"}),
        ("--output", {"help": "CSV output path"}),
    )),
    "single": ("solve a single channel realization", _cmd_single, (
        ("--scenario-file", {"help": "key=value run spec file; its first sweep value is solved "
                                     "(its trials and solvers are not read)"}),
        ("--seed", {"type": int, "help": "draw run's first trial at this master_seed "
                                         "(default: the file's master_seed; the scenario's seed is never read)"}),
        ("--solvers", {"default": _SOLVERS, "help": f"comma-separated subset of {_SOLVERS}"}),
    )),
    "selftest": ("run optimizer-vs-reference property checks", _cmd_selftest, (
        ("--trials", {"type": int, "default": 12, "help": "instances per stress set (broad, corner)"}),
        ("--seed", {"type": int, "default": 99, "help": "master seed of the channel draws"}),
    )),
}
_CHOICES = "{" + ",".join(_COMMANDS) + "}"
_NAMES = ", ".join(map(repr, _COMMANDS))

if __name__ == "__main__":
    sys.exit(main())
