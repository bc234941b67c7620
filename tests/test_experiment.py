import hashlib
import logging
import re
from dataclasses import fields

import numpy as np
import pytest

from ehrelay.channel import Scenario
from ehrelay.experiment import (
    CSV_HEADER,
    SWEEP_KINDS,
    ExperimentSpec,
    SweepResult,
    SweepRow,
    emit_csv,
    run,
    run_trial,
    spec_from_file,
    trial_rng,
)

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
            "output_path": ("out/result.csv", "out/result.csv"),
            "master_seed": ("17", 17),
        }
        assert set(values) == {f.name for f in fields(ExperimentSpec)} - {"scenario"}
        path = tmp_path / "exp.txt"
        path.write_text("".join(f"{key} = {text}\n" for key, (text, _) in values.items()))
        spec = spec_from_file(path)
        for key, (_, parsed) in values.items():
            assert getattr(spec, key) == parsed


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
            "7b4980e0a29eae34dc2d7eead85ec7f0ecbe5c8e685896e6f6566e0881329fbe"
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
        from ehrelay.cli import main

        code = main(["run", str(spec_path), "--output", str(out_path)])
        assert code == 0
        assert out_path.exists()
        assert out_path.read_text().startswith(CSV_HEADER)

    def test_run_writes_to_spec_output_path(self, tmp_path, capsys):
        from ehrelay.cli import main

        out_path = tmp_path / "from_spec.csv"
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text(f"trials = 1\nsolvers = benchmark\noutput_path = {out_path}\n")
        assert main(["run", str(spec_path)]) == 0
        assert capsys.readouterr().out == f"wrote 1 rows to {out_path}\n"
        assert out_path.read_text().startswith(CSV_HEADER + "\nnone,,benchmark,")

    def test_no_subcommand_prints_help(self, capsys):
        from ehrelay.cli import main

        assert main([]) == 1
        out = capsys.readouterr().out
        assert out.startswith("usage: ehrelay [-h] {run,single,selftest} ...\n")

    def test_run_missing_output_is_validation_error(self, tmp_path):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("sweep = none\ntrials = 1\nsolvers = benchmark\n")
        from ehrelay.cli import main

        assert main(["run", str(spec_path)]) == 1

    def test_run_bad_spec_is_validation_error(self, tmp_path):
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("unknown_field = 3\n")
        from ehrelay.cli import main

        assert main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")]) == 1

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
        from ehrelay.cli import main

        spec_path = tmp_path / "exp.txt"
        spec_path.write_text(f"solvers = benchmark\n{line}\n")
        assert main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")]) == 1
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
        ],
        ids=["scenario-value", "scenario-range", "solver", "sweep", "malformed-line"],
    )
    def test_input_errors_name_the_file(self, tmp_path, capsys, command, line, err):
        from ehrelay.cli import main

        path = tmp_path / "input.txt"
        path.write_text(f"{line}\n")
        if command == "single":
            argv = ["single", "--scenario-file", str(path)]
        else:
            argv = ["run", str(path), "--output", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == err.format(path=path)
        assert captured.out == ""

    def test_low_convergence_fraction_is_logged(self, tmp_path, monkeypatch, caplog):
        from ehrelay import cli

        row = SweepRow(None, "alpf", 1.0, 0.0, 0.5, 3.0, 0.5)
        monkeypatch.setattr(cli, "run", lambda spec: SweepResult("none", (row,)))
        spec_path = tmp_path / "exp.txt"
        spec_path.write_text("sweep = none\ntrials = 2\nsolvers = alpf\n")
        with caplog.at_level(logging.WARNING, logger="ehrelay.cli"):
            code = cli.main(["run", str(spec_path), "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("ehrelay.cli", logging.WARNING, "optimizer convergence fraction 0.500 below 0.95")
        ]

    def test_single_subcommand(self, capsys):
        from ehrelay.cli import main

        code = main(["single", "--seed", "3", "--solvers", "alpf,benchmark"])
        out = capsys.readouterr().out
        assert code == 0
        assert "optimizer rate" in out
        assert "benchmark rate" in out
        assert "converged: True" in out

    def test_single_runs_every_solver_by_default(self, capsys):
        from ehrelay.cli import main

        assert main(["single", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "(alpha = 0.5)" in out
        assert "oracle rate: " in out and "oracle mu_bar: " in out
        assert "optimizer rate: " in out and "converged: True" in out

    def test_single_unconverged_exits_2(self, monkeypatch, capsys):
        from ehrelay import auglag, cli

        monkeypatch.setattr(auglag, "_MAX_OUTER_ITERS", 1)
        assert cli.main(["single", "--seed", "3", "--solvers", "alpf"]) == 2
        out = capsys.readouterr().out
        assert "converged: False" in out and "outer_iterations: 1" in out

    def test_selftest_failure_exits_2(self, monkeypatch, capsys):
        from ehrelay import auglag, cli

        monkeypatch.setattr(auglag, "_MAX_OUTER_ITERS", 1)
        assert cli.main(["selftest", "--trials", "2", "--seed", "6"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1].startswith("FAIL(converged") for line in lines[:2]] == [True, True]
        assert lines[2:] == ["selftest FAILED on 2/2 instances"]

    def test_failed_decomposition_is_reported(self, monkeypatch, capsys):
        # LAPACK's LinAlgError is a ValueError, so main reports it and
        # returns 1 instead of ending in a traceback.
        from ehrelay import channel, cli

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(channel, "svd", fail)
        assert cli.main(["single"]) == 1
        assert capsys.readouterr().err == "error: SVD did not converge\n"

    def test_selftest_subcommand(self, capsys):
        from ehrelay.cli import main

        code = main(["selftest", "--trials", "3", "--seed", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "selftest passed" in out
        # Each instance line names the trial_rng seed triple and the
        # scenario fields that replay it alone.
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 3
        for i, line in enumerate(lines):
            assert f"seed=(6, 0, {i})" in line
        fields = dict(re.findall(r"(\w+)=(\S+)", lines[-1]))
        scenario = Scenario(
            n_s=int(fields["n_s"]), n_r=int(fields["n_r"]), n_d=int(fields["n_d"]),
            k_subcarriers=int(fields["K"]), p_source=float(fields["P"]), phi=float(fields["phi"]),
        )
        outcome = run_trial(scenario, trial_rng(6, 0, 2), ("alpf",))
        assert f"{outcome['alpf'].rate_bps:.6g}" == fields["alpf"]

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_selftest_without_trials_is_validation_error(self, trials, capsys):
        from ehrelay.cli import main

        assert main(["selftest", "--trials", trials]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --trials must be >= 1, got {trials}\n"
        assert "selftest passed" not in captured.out

    @pytest.mark.parametrize("solvers", ["", ",,", " , "])
    def test_single_without_solvers_is_validation_error(self, solvers, capsys):
        from ehrelay.cli import main

        assert main(["single", "--solvers", solvers]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: solvers must be nonempty\n"
        assert captured.out == ""
