import hashlib
import logging

import numpy as np
import pytest

from ehrelay.channel import Scenario
from ehrelay.experiment import (
    CSV_HEADER,
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
        # then a reason to re-record, not a pipeline change.
        spec = ExperimentSpec(
            scenario=Scenario(), sweep="antennas", sweep_values=(2, 3), trials=2,
            solvers=("alpf", "oracle", "benchmark"), master_seed=2014,
        )
        path = tmp_path / "out.csv"
        emit_csv(run(spec), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2fd2f9907b7277b52d70e1efb88043d476a9a7c25daa3a2f837d5fdf25cae738"
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
        # Each instance line names the trial_rng seed triple that replays it.
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 3
        for i, line in enumerate(lines):
            assert f"seed=(6, 0, {i})" in line

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
