import hashlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from ehrelay import auglag, channel, cli, experiment
from ehrelay.auglag import AlpfResult
from ehrelay.channel import Scenario
from ehrelay.experiment import (
    CSV_HEADER,
    SOLVER_ORDER,
    SOLVERS,
    STRESS_SETS,
    SWEEP_KINDS,
    ExperimentSpec,
    SweepResult,
    SweepRow,
    draw,
    emit_csv,
    run,
    run_trial,
    spec_from_file,
    stress_scenarios,
    trial_rng,
)
from ehrelay.system import Allocation
from ehrelay.waterfill import OracleSolution
from test_waterfill import fresh_python, modules_loaded_by

SPEC_TEXT = """
# small deterministic experiment
n_s = 2
n_r = 2
n_d = 2
k_subcarriers = 2
p_source = 1.0
sweep = phi
sweep_values = 0.3, 0.7
trials = 3
solvers = alpf, benchmark
master_seed = 99
"""

# Each sweep kind's values as a spec file writes them and as they read back.
SWEEP_VALUES = {
    "phi": ("0.25, 0.75", (0.25, 0.75)),
    "p_source": ("2, 0.5", (2.0, 0.5)),
    "antennas": ("2, 3", (2, 3)),
    "k_subcarriers": ("1, 4", (1, 4)),
}


@pytest.fixture
def small_spec(tmp_path):
    path = tmp_path / "exp.txt"
    path.write_text(SPEC_TEXT)
    return spec_from_file(path)


class TestSpecParsing:
    def test_fields(self, small_spec):
        assert small_spec.sweep == "phi"
        assert small_spec.sweep_values == (0.3, 0.7)
        assert small_spec.trials == 3
        assert small_spec.solvers == ("alpf", "benchmark")
        assert small_spec.master_seed == 99
        assert small_spec.scenario.k_subcarriers == 2

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("n_s = 2\nturbo = yes\n")
        with pytest.raises(ValueError, match="turbo"):
            spec_from_file(path)

    def test_scenario_file_round_trip(self, tmp_path):
        # A scenario file is a run spec that sets scenario keys only, and
        # ``ehrelay single`` reads it as one.
        path = tmp_path / "scenario.txt"
        path.write_text(
            "# comment line\n"
            "n_s = 3\n"
            "n_r = 2\n"
            "n_d = 4\n"
            "k_subcarriers = 2\n"
            "phi = 0.3   # relay near the source\n"
            "p_source = 10\n"
            "seed = 11\n"
        )
        scen = spec_from_file(path).scenario
        assert scen.n_s == 3 and scen.n_r == 2 and scen.n_d == 4
        assert scen.phi == pytest.approx(0.3)
        assert scen.p_source == pytest.approx(10.0)
        assert scen.seed == 11
        assert scen.eta == 1.0  # defaults preserved

    def test_duplicate_key_named_with_line(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("n_s = 2\nphi = 0.3\nn_s = 3\n")
        with pytest.raises(ValueError) as excinfo:
            spec_from_file(path)
        assert str(excinfo.value) == f"{path}:3: duplicate key 'n_s'"

    def test_undecodable_file_named(self, tmp_path):
        # Not UTF-8: the decoder's ValueError must name the file as well.
        path = tmp_path / "scenario.txt"
        path.write_bytes(b"n_s = \xff\n")
        with pytest.raises(ValueError) as excinfo:
            spec_from_file(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_antenna_sweep_values_are_ints(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("sweep = antennas\nsweep_values = 2, 3\ntrials = 1\n")
        spec = spec_from_file(path)
        assert spec.sweep_values == (2, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            ExperimentSpec(scenario=Scenario(), trials=0)
        with pytest.raises(ValueError, match="sweep"):
            ExperimentSpec(scenario=Scenario(), sweep="distance", sweep_values=(1,))
        with pytest.raises(ValueError, match="solver"):
            ExperimentSpec(scenario=Scenario(), solvers=("magic",))
        with pytest.raises(ValueError):
            ExperimentSpec(scenario=Scenario(), sweep="phi", sweep_values=())
        with pytest.raises(ValueError):
            ExperimentSpec(scenario=Scenario(), sweep="phi", sweep_values=(1.5,))

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"sweep": "antennas", "sweep_values": (2.5,)}, "n_s"),
            ({"sweep": "k_subcarriers", "sweep_values": (1.5,)}, "k_subcarriers"),
            ({"trials": 2.5}, "trials"),
            ({"master_seed": 1.5}, "master_seed"),
            ({"master_seed": -1}, "master_seed"),
            ({"sweep": "none", "sweep_values": (0.3,)}, "sweep_values"),
            ({"trials": True}, "trials"),
            ({"master_seed": False}, "master_seed"),
        ],
        ids=[
            "antennas", "k_subcarriers", "trials", "fractional-seed", "negative-seed", "values-without-sweep",
            "bool-trials", "bool-seed",
        ],
    )
    def test_bad_field_named(self, kwargs, field):
        # A fractional count is rejected, not truncated to a smaller one, and a bool is no count.
        with pytest.raises(ValueError, match=field):
            ExperimentSpec(scenario=Scenario(), **kwargs)

    def test_every_experiment_field_is_a_spec_key(self, tmp_path):
        # The spec keys come from ExperimentSpec's fields, so each one but
        # the scenario (whose fields share the file) reads back as written.
        values = {
            "sweep": ("p_source", "p_source"),
            "sweep_values": ("0.5, 2", (0.5, 2.0)),
            "trials": ("4", 4),
            "solvers": ("oracle, benchmark", ("oracle", "benchmark")),
            "master_seed": ("17", 17),
        }
        assert set(values) == {f.name for f in fields(ExperimentSpec)} - {"scenario"}
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in values.items()))
        spec = spec_from_file(path)
        for key, (_, parsed) in values.items():
            assert getattr(spec, key) == parsed

    def test_every_scenario_field_is_a_spec_key(self, tmp_path):
        # The scenario's fields share the spec file, each typed by its
        # default: a count reads as an int and a quantity as a float, even
        # when written without a point.
        values = {
            "n_s": ("3", 3),
            "n_r": ("4", 4),
            "n_d": ("1", 1),
            "k_subcarriers": ("5", 5),
            "bandwidth_hz": ("2e6", 2e6),
            "p_source": ("0.25", 0.25),
            "eta": ("1", 1.0),
            "phi": ("0.3", 0.3),
            "d_sd": ("7", 7.0),
            "pathloss_exp": ("3", 3.0),
            "noise_total_w": ("1e-9", 1e-9),
            "seed": ("11", 11),
        }
        assert set(values) == {f.name for f in fields(Scenario)}
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in values.items()))
        scenario = spec_from_file(path).scenario
        for field in fields(Scenario):
            value = getattr(scenario, field.name)
            assert value == values[field.name][1]
            assert type(value) is type(field.default)

    @pytest.mark.parametrize("sweep", [kind for kind in SWEEP_KINDS if kind != "none"])
    def test_sweep_values_take_the_swept_field_type(self, tmp_path, sweep):
        text, parsed = SWEEP_VALUES[sweep]
        path = tmp_path / "exp.txt"
        path.write_text(f"sweep = {sweep}\nsweep_values = {text}\ntrials = 1\n")
        values = spec_from_file(path).sweep_values
        assert values == parsed
        assert [type(v) for v in values] == [type(v) for v in parsed]

class TestRun:
    def test_deterministic_rows(self, small_spec):
        r1 = run(small_spec)
        r2 = run(small_spec)
        assert r1 == r2
        assert len(r1.rows) == 4  # 2 sweep values x 2 solvers

    def test_single_benchmark_trial_reproducible(self):
        spec = ExperimentSpec(
            scenario=Scenario(), sweep="none", trials=1, solvers=("benchmark",), master_seed=5
        )
        r1 = run(spec)
        r2 = run(spec)
        assert r1.rows[0].mean_rate_bps == r2.rows[0].mean_rate_bps
        assert r1.rows[0].convergence_fraction == 1.0
        assert r1.rows[0].mean_alpha == 0.5

    def test_alpf_beats_benchmark_each_trial(self):
        scen = Scenario()
        for t in range(6):
            out = run_trial(scen, trial_rng(3, 0, t), ("alpf", "benchmark"))
            assert out["alpf"].rate_bps >= out["benchmark"].rate_bps - 1e-9

    def test_oracle_close_to_alpf(self):
        scen = Scenario()
        for t in range(3):
            out = run_trial(scen, trial_rng(4, 0, t), ("alpf", "oracle"))
            assert out["alpf"].converged
            rel = abs(out["alpf"].rate_bps - out["oracle"].rate_bps) / out["oracle"].rate_bps
            assert rel <= 0.01

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver 'magic'"):
            run_trial(Scenario(), trial_rng(0, 0, 0), ("magic",))

    def test_solvers_called_through_module_globals(self, monkeypatch):
        # A wrapper set on experiment's global name of a solver sees every
        # call, as perfbench's tracer needs.
        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("optimize", "oracle_solve", "benchmark_allocation", "achievable_rate"):
            monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
        outcome = run_trial(Scenario(), trial_rng(0, 0, 0), SOLVER_ORDER)
        assert list(outcome) == list(SOLVER_ORDER)
        assert calls == {"optimize": 1, "oracle_solve": 1, "benchmark_allocation": 1, "achievable_rate": 1}

    def test_stress_scenarios_pinned(self):
        # The first 150 scenarios of each stress set, which ROADMAP's stress
        # tables and the solver tests index into; a change to the rule
        # moves every figure recorded on them.
        text = "\n".join(repr(s) for kind in STRESS_SETS for s in islice(stress_scenarios(kind), 150))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5bac2960212a5abe30bb1354f5f9b6800aa88e578b950754d7f3812e46ae290e"
        )

    def test_run_ignores_scenario_seed(self, tmp_path):
        # run draws from trial_rng(master_seed, i, t) alone, so two specs
        # that differ only in the scenario's seed write the same bytes.
        written = []
        for seed in (0, 41):
            path = tmp_path / f"exp{seed}.txt"
            path.write_text(f"{SPEC_TEXT}seed = {seed}\n")
            emit_csv(run(spec_from_file(path)), tmp_path / f"out{seed}.csv")
            written.append((tmp_path / f"out{seed}.csv").read_bytes())
        assert written[0] == written[1]

    def test_every_draw_takes_its_generator(self):
        # No draw falls back to a generator of its own.
        with pytest.raises(TypeError):
            draw(Scenario())
        with pytest.raises(TypeError):
            channel.generate(Scenario())

    def test_appending_sweep_values_preserves_trials(self):
        base = ExperimentSpec(
            scenario=Scenario(), sweep="phi", sweep_values=(0.3,), trials=2,
            solvers=("benchmark",), master_seed=12,
        )
        extended = ExperimentSpec(
            scenario=Scenario(), sweep="phi", sweep_values=(0.3, 0.6), trials=2,
            solvers=("benchmark",), master_seed=12,
        )
        r_base = run(base)
        r_ext = run(extended)
        assert r_base.rows[0] == r_ext.rows[0]


class TestCsv:
    def test_header_names_the_row_fields(self):
        assert CSV_HEADER == (
            "sweep_param,sweep_value,solver,mean_rate_bps,stderr_rate_bps,"
            "mean_alpha,mean_iterations,convergence_fraction"
        )

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(SweepResult(sweep_param="phi", rows=()), tmp_path / "out.csv")

    def test_single_row_two_lines(self, tmp_path):
        row = SweepRow(0.5, "benchmark", 123.456, 0.0, 0.5, 0.0, 1.0)
        path = tmp_path / "out.csv"
        emit_csv(SweepResult(sweep_param="phi", rows=(row,)), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_round_trip_bit_exact(self, tmp_path, small_spec):
        result = run(small_spec)
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        lines = path.read_text().splitlines()[1:]
        for line, row in zip(lines, result.rows):
            parts = line.split(",")
            assert parts[0] == "phi"
            assert float(parts[1]) == row.sweep_value
            assert parts[2] == row.solver
            assert float(parts[3]) == row.mean_rate_bps
            assert float(parts[4]) == row.stderr_rate_bps
            assert float(parts[5]) == row.mean_alpha
            assert float(parts[6]) == row.mean_iterations
            assert float(parts[7]) == row.convergence_fraction

    def test_identical_bytes_across_runs(self, tmp_path, small_spec):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(run(small_spec), p1)
        emit_csv(run(small_spec), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pipeline_bytes_pinned(self, tmp_path):
        # Channel draw, every solver, aggregation and formatting, end to
        # end: a change that claims the same numbers must reproduce this
        # digest, which comparing two runs of one build cannot show.
        # Recorded with numpy 2.4 on OpenBLAS 0.3; another BLAS may order
        # its dot products differently and move the last bits, which is
        # then a reason to re-record, not a pipeline change.  A deliberate
        # change of a solver's path is the other reason, and CHANGES.md
        # lists the old and new digests.
        spec = ExperimentSpec(
            scenario=Scenario(), sweep="antennas", sweep_values=(2, 3), trials=2,
            solvers=("alpf", "oracle", "benchmark"), master_seed=2014,
        )
        path = tmp_path / "out.csv"
        emit_csv(run(spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6d29c150e688ea35e382687b39839049914c079c91b413ff0c690e149b23fd9d"
        )

    def test_unwritable_path_raises_oserror(self, small_spec):
        result = run(small_spec)
        with pytest.raises(OSError, match="no/such/dir"):
            emit_csv(result, "/no/such/dir/out.csv")


class TestCli:
    def test_run_subcommand(self, tmp_path):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text(
            "sweep = none\ntrials = 2\nsolvers = benchmark\nmaster_seed = 4\n"
        )
        out_path = tmp_path / "result.csv"
        code = cli.main(["run", str(spec_path), "--output", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().startswith(CSV_HEADER)

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.main([]) == 1
        out = capsys.readouterr().out
        assert out.startswith("usage: ehrelay [-h] {run,single,selftest} ...\n")

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_run_help_prints_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ehrelay run [-h] [--output OUTPUT] spec_file\n")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, line in [
            ("run", "run a sweep experiment from a spec file"),
            ("single", "solve a single channel realization"),
            ("selftest", "run optimizer-vs-reference property checks"),
        ]:
            assert re.search(rf"^ +{name} +{line}$", out, re.MULTILINE), name

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["single", "-h"], ["selftest", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: {' '.join(['ehrelay', *argv[:-1]])} [-h]")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, prog, message",
        [
            (
                "bogus", "ehrelay",
                "argument {run,single,selftest}: invalid choice: 'bogus' (choose from 'run', 'single', 'selftest')",
            ),
            ("run", "ehrelay run", "the following arguments are required: spec_file"),
            ("run a b", "ehrelay run", "unrecognized arguments: b"),
            ("run a --foo", "ehrelay run", "unrecognized arguments: --foo"),
            ("run a --output", "ehrelay run", "argument --output: expected one argument"),
            ("single --seed x", "ehrelay single", "argument --seed: invalid int value: 'x'"),
            ("selftest --trials 2.5", "ehrelay selftest", "argument --trials: invalid int value: '2.5'"),
        ],
    )
    def test_usage_errors_exit_2(self, capsys, argv, prog, message):
        # The wording is argparse's: usage line first, the error last, on stderr.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv.split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"usage: {prog} [-h]")
        assert captured.err.splitlines()[-1] == f"{prog}: error: {message}"
        assert captured.out == ""

    def test_option_forms(self, capsys):
        # --flag VALUE and --flag=VALUE read alike; a prefix names no option.
        assert cli.main(["single", "--seed", "3", "--solvers", "benchmark"]) == 0
        separate = capsys.readouterr().out
        assert cli.main(["single", "--seed=3", "--solvers=benchmark"]) == 0
        assert capsys.readouterr().out == separate
        with pytest.raises(SystemExit) as exc:
            cli.main(["single", "--se", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("\nehrelay single: error: unrecognized arguments: --se 3\n")

    def test_run_leaves_argparse_unloaded(self, tmp_path):
        # main reads argv from the _COMMANDS table: argparse, and the
        # gettext and locale imports its messages pull in, would cost each
        # ``ehrelay run`` a few ms.  -X importtime lists every module the
        # interpreter imports, from its start.
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("trials = 2\nsolvers = benchmark\n")
        command = ["run", str(spec_path), "--output"]
        child = fresh_python("-X", "importtime", "-m", "ehrelay.cli", *command, str(tmp_path / "child.csv"))
        assert child.returncode == 0, child.stderr
        imported = {line.rpartition("|")[2].strip() for line in child.stderr.splitlines()}
        assert {"numpy", "ehrelay.experiment"} <= imported
        assert not imported & {"argparse", "gettext", "locale"}
        assert cli.main([*command, str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

    def test_entry_point_in_fresh_interpreter(self, tmp_path):
        # ``python -m ehrelay.cli`` reads sys.argv, as the console script does.
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text(SPEC_TEXT)
        child = fresh_python("-m", "ehrelay.cli", "run", str(spec_path), "--output", str(tmp_path / "child.csv"))
        assert child.returncode == 0, child.stderr
        assert cli.main(["run", str(spec_path), "--output", str(tmp_path / "main.csv")]) == 0
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()

        bare = fresh_python("-m", "ehrelay.cli")
        assert bare.returncode == 1
        assert bare.stdout.startswith("usage: ehrelay [-h] {run,single,selftest} ...\n")

    @pytest.mark.parametrize(
        "output, path, reason",
        [
            (["--output", ""], "", "no such file or directory"),
            (["--output="], "", "no such file or directory"),
            (["--output", "no/such/dir/x.csv"], "no/such/dir/x.csv", "no such file or directory"),
            (["--output", "."], ".", "is a directory"),
            (["--output", "{tmp_path}"], "{tmp_path}", "is a directory"),
        ],
        ids=["separate", "joined", "missing-dir", "cwd", "existing-dir"],
    )
    def test_run_empty_output_is_validation_error(self, tmp_path, monkeypatch, capsys, output, path, reason):
        # An unwritable --output is rejected before any trial is solved.
        def no_run(spec):
            pytest.fail("run called with an unwritable output path")

        monkeypatch.setattr(cli, "run", no_run)
        monkeypatch.chdir(tmp_path)
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("trials = 1\nsolvers = benchmark\n")
        output = [word.format(tmp_path=tmp_path) for word in output]
        assert cli.main(["run", str(spec_path), *output]) == 1
        path = path.format(tmp_path=tmp_path)
        assert capsys.readouterr().err == f"error: cannot write CSV to '{path}': {reason}\n"

    def test_run_missing_output_is_validation_error(self, tmp_path, capsys):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("sweep = none\ntrials = 1\nsolvers = benchmark\n")
        assert cli.main(["run", str(spec_path)]) == 1
        assert capsys.readouterr().err == "error: no output path: pass --output\n"

    def test_run_bad_spec_is_validation_error(self, tmp_path):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("unknown_field = 3\n")
        assert cli.main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")]) == 1

    @pytest.mark.parametrize(
        "line, key, raw",
        [
            ("trials = abc", "trials", "abc"),
            ("master_seed = 1e3", "master_seed", "1e3"),
            ("sweep = antennas\nsweep_values = 2, 3.5", "sweep_values", "3.5"),
        ],
        ids=["trials", "master_seed", "sweep_values"],
    )
    def test_bad_spec_value_names_key_and_file(self, tmp_path, capsys, line, key, raw):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text(f"solvers = benchmark\n{line}\n")
        assert cli.main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")]) == 1
        assert capsys.readouterr().err == f"error: {spec_path}: invalid value for '{key}': {raw!r}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "command, line, err",
        [
            ("single", "n_s = abc", "error: {path}: invalid value for 'n_s': 'abc'\n"),
            ("run", "phi = 1.5", "error: {path}: phi must lie strictly in (0, 1)\n"),
            ("run", "solvers = magic", "error: {path}: unknown solver 'magic'\n"),
            (
                "run", "sweep = distance",
                f"error: {{path}}: sweep must be one of {SWEEP_KINDS}, got 'distance'\n",
            ),
            ("single", "n_s 2", "error: {path}:1: expected 'key = value', got 'n_s 2'\n"),
            ("run", "seed = -2", "error: {path}: seed must be an integer >= 0, got -2\n"),
            ("run", "output_path = o.csv", "error: {path}: unknown key 'output_path'\n"),
            ("single", "output_path = o.csv", "error: {path}: unknown key 'output_path'\n"),
        ],
        ids=[
            "scenario-value", "scenario-range", "solver", "sweep", "malformed-line", "scenario-seed",
            "run-output-path", "single-output-path",
        ],
    )
    def test_input_errors_name_the_file(self, tmp_path, monkeypatch, capsys, command, line, err):
        # Each error names the input file and nothing is written.  A spec that
        # sets output_path is refused, since --output alone names the CSV.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "input.txt"
        path.write_text(f"{line}\n")
        if command == "single":
            argv = ["single", "--scenario-file", str(path)]
        else:
            argv = ["run", str(path), "--output", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == err.format(path=path)
        assert captured.out == ""
        assert not (tmp_path / "o.csv").exists()

    def test_low_convergence_fraction_is_logged(self, tmp_path, monkeypatch, capsys):
        row = SweepRow(None, "alpf", 1.0, 0.0, 0.5, 3.0, 0.5)
        monkeypatch.setattr(cli, "run", lambda spec: SweepResult("none", (row,)))
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("sweep = none\ntrials = 2\nsolvers = alpf\n")
        assert cli.main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr().err == "optimizer convergence fraction 0.500 below 0.95\n"

    def test_import_leaves_logging_unloaded(self):
        # Every CLI message goes to stderr by print; logging would cost
        # each process its import time.
        assert "logging" not in modules_loaded_by("ehrelay.cli")

    def test_single_subcommand(self, capsys):
        code = cli.main(["single", "--seed", "3", "--solvers", "alpf,benchmark"])
        out = capsys.readouterr().out
        assert code == 0
        assert "alpf rate" in out
        assert "benchmark rate" in out
        assert "converged: True" in out

    def test_single_stdout_pinned(self, capsys):
        # Every line single prints, from the draw's gains and energy beam
        # to each solver's report.  Recorded with numpy 2.4 on OpenBLAS
        # 0.3; another BLAS may order its dot products differently and
        # move the last bits, which is then a reason to re-record.
        assert cli.main(["single", "--seed", "3"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "ad1f54d308beb8f438394279f21b65349ea73e41b9f9513375356cdf85e0453e"
        )

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_single_into_a_closed_pipe_exits_quietly(self, unbuffered):
        # As ``ehrelay single --seed 3 | head -1`` once the reader is gone:
        # unbuffered, the first print fails; buffered, main's flush does.
        # Either way nothing goes to stderr, and the exit code is SIGPIPE's.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ehrelay.cli", "single", "--seed", "3"],
                stdout=write, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, b"")

    def test_single_negative_seed_is_validation_error(self, capsys):
        assert cli.main(["single", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be an integer >= 0, got -1\n"
        assert captured.out == ""

    def test_single_runs_every_solver_by_default(self, capsys):
        assert cli.main(["single", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "bit/s at alpha = 0.5\n" in out
        assert "oracle rate: " in out and "mu_bar_star: " in out
        assert "alpf rate: " in out and "converged: True" in out
        # Every field of each solver's result is printed, nested ones by dotted name.
        names = [f.name for f in fields(AlpfResult) if f.name != "allocation"]
        names += [f"allocation.{f.name}" for f in fields(Allocation)]
        names += [f.name for f in fields(OracleSolution)] + [f.name for f in fields(Allocation)]
        lines = out.splitlines()
        for name in names:
            assert any(line.startswith(f"{name}: ") for line in lines), name
        assert "stalled: False" in lines

    def test_single_prints_solvers_in_table_order(self, capsys):
        assert cli.main(["single", "--seed", "3", "--solvers", "benchmark,alpf"]) == 0
        headers = [line for line in capsys.readouterr().out.splitlines() if " rate: " in line]
        problem = draw(Scenario(), trial_rng(3, 0, 0)).problem
        assert [line.split()[0] for line in headers] == ["alpf", "benchmark"]  # SOLVER_ORDER
        for name, line in zip(["alpf", "benchmark"], headers):
            assert line.split()[2] == repr(SOLVERS[name](problem)[0].rate_bps)

    @pytest.mark.parametrize(
        "sweep, first",
        [("sweep = phi\nsweep_values = 0.3, 0.7\n", {"phi": 0.3}), ("sweep = none\n", {})],
        ids=["swept", "unswept"],
    )
    def test_single_replays_runs_first_trial(self, tmp_path, capsys, sweep, first):
        # single --seed M --scenario-file F draws trial_rng(M, 0, 0) on F's
        # first sweep value, the first trial of ``run F`` at master_seed = M.
        # Without --seed it takes the file's master_seed; the scenario's
        # seed is read by neither command, nor printed.
        path = tmp_path / "exp.txt"
        path.write_text(
            f"n_s = 3\nk_subcarriers = 3\np_source = 0.5\nseed = 8\n{sweep}"
            "trials = 1\nsolvers = alpf, oracle, benchmark\nmaster_seed = 11\n"
        )
        scenario = Scenario(n_s=3, k_subcarriers=3, p_source=0.5, seed=8, **first)
        outcome = run_trial(scenario, trial_rng(11, 0, 0), SOLVER_ORDER)
        rows = run(spec_from_file(path)).rows[:len(SOLVER_ORDER)]
        assert [row.mean_rate_bps for row in rows] == [outcome[name].rate_bps for name in SOLVER_ORDER]

        assert cli.main(["single", "--seed", "11", "--scenario-file", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == [f"scenario: {scenario!r}".replace(", seed=8)", ")"), "trial: (11, 0, 0)"]
        headers = [line.split() for line in lines if " rate: " in line]
        assert [(h[0], h[2]) for h in headers] == [(name, repr(outcome[name].rate_bps)) for name in SOLVER_ORDER]

        assert cli.main(["single", "--scenario-file", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_single_unconverged_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(auglag, "_MAX_OUTER_ITERS", 1)
        assert cli.main(["single", "--seed", "3", "--solvers", "alpf"]) == 2
        out = capsys.readouterr().out
        assert "converged: False" in out and "outer_iterations: 1" in out

    def test_selftest_failure_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(auglag, "_MAX_OUTER_ITERS", 1)
        assert cli.main(["selftest", "--trials", "2", "--seed", "6"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[2].startswith("FAIL(converged") for line in lines[:4]] == [True] * 4
        assert [line.split()[3:6] for line in lines[:4]] == [["seed=(6,", "0,", f"{i})"] for i in (0, 1, 0, 1)]
        assert lines[4:] == ["selftest FAILED on 4/4 instances"]

    def test_failed_decomposition_is_reported(self, monkeypatch, capsys):
        # LAPACK's LinAlgError is a ValueError, so main reports it and
        # returns 1 instead of ending in a traceback.
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(channel, "svd", fail)
        assert cli.main(["single"]) == 1
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    def test_selftest_subcommand(self, capsys):
        # At the default seed, the stress instances the solver tests draw;
        # at --seed 6, other channels for the same scenarios.  Each line is
        # a replay record: the trial_rng seed triple, every rate by repr,
        # ALPF's inner iterations, the exact scenario and the status those
        # rates give.
        instances = [(kind, i, s) for kind in STRESS_SETS for i, s in enumerate(islice(stress_scenarios(kind), 3))]
        for argv, seed in [([], 99), (["--seed", "6"], 6)]:
            code = cli.main(["selftest", "--trials", "3", *argv])
            lines = capsys.readouterr().out.splitlines()
            failures = 0
            for line, (kind, i, scenario) in zip(lines[:6], instances, strict=True):
                outcome = run_trial(scenario, trial_rng(seed, 0, i), SOLVER_ORDER)
                alpf, oracle, bench = outcome["alpf"], outcome["oracle"], outcome["benchmark"]
                bad = [name for name, ok in [
                    ("converged", alpf.converged),
                    ("rate>=benchmark", alpf.rate_bps >= bench.rate_bps - 1e-9),
                    ("rate-within-1%-of-oracle",
                     abs(alpf.rate_bps - oracle.rate_bps) <= 0.01 * max(oracle.rate_bps, 1e-12)),
                ] if not ok]
                status = "FAIL(" + ",".join(bad) + ")" if bad else "PASS"
                failures += bool(bad)
                assert line == (
                    f"[{kind} {i}/3] {status} seed=({seed}, 0, {i}) alpf={alpf.rate_bps!r} "
                    f"oracle={oracle.rate_bps!r} bench={bench.rate_bps!r} "
                    f"alpf_inner={alpf.inner_iterations} {scenario!r}"
                )
            summary = f"selftest FAILED on {failures}/6 instances" if failures else "selftest passed on all 6 instances"
            assert (code, lines[6:]) == (2 if failures else 0, [summary])

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_selftest_without_trials_is_validation_error(self, trials, capsys):
        assert cli.main(["selftest", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --trials must be an integer >= 1, got {trials}\n"
        assert "selftest passed" not in captured.out

    def test_selftest_negative_seed_is_validation_error(self, capsys):
        assert cli.main(["selftest", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be an integer >= 0, got -1\n"
        assert not any(line.startswith("[") for line in captured.out.splitlines())

    @pytest.mark.parametrize("solvers", ["", ",,", " , "])
    def test_single_without_solvers_is_validation_error(self, solvers, capsys):
        assert cli.main(["single", "--solvers", solvers]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: solvers must be nonempty\n"
        assert captured.out == ""
