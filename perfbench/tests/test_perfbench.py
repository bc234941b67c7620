"""Tests of the benchmark itself: tracing, self time, checks and spec files."""

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ehrelay import cli, experiment
from ehrelay.channel import Scenario, parse_key_value_file
from ehrelay.experiment import spec_from_file
from perfbench import spans as spanlib
from perfbench.run import Bench
from perfbench.workloads import WORKLOADS, Workload, spec_text

ROOT = Path(__file__).resolve().parents[2]

# Small enough to run in about a second, and runs all three solvers.
TINY = Workload(
    name="tiny",
    scenario={**WORKLOADS["crosscheck"].scenario, "k_subcarriers": 1, "n_s": 1, "n_r": 1, "n_d": 1},
    sweep="p_source",
    sweep_values=(0.1, 1.0),
    trials=2,
    solvers=("alpf", "oracle", "benchmark"),
)


def _span(name, start, end, parent=None, layer="x"):
    return {"name": name, "layer": layer, "start": start, "end": end, "parent": parent, "trial": None}


class TestSelfTime:
    def test_children_subtracted(self):
        spans = [_span("generate", 0.0, 10.0), _span("svd", 1.0, 3.0, 0), _span("svd", 4.0, 5.0, 0)]
        assert spanlib.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])

    def test_overlapping_children_counted_once(self):
        spans = [_span("outer", 0.0, 10.0), _span("a", 1.0, 4.0, 0), _span("b", 2.0, 6.0, 0)]
        assert spanlib.self_times(spans)[0] == pytest.approx(5.0)

    def test_svd_subtracted_from_generate(self):
        tracer = spanlib.Tracer(
            targets=(("ehrelay.experiment", "generate", "channel"), ("ehrelay.channel", "svd", "linalg"))
        )
        scenario = Scenario(k_subcarriers=3)
        with tracer.installed():
            experiment.generate(scenario, np.random.default_rng(5))
        generate, *svds = tracer.spans
        assert generate["name"] == "experiment.generate"
        assert [s["name"] for s in svds] == ["channel.svd"] * 6
        assert all(s["parent"] == 0 for s in svds)
        own = spanlib.self_times(tracer.spans)
        nested = sum(s["end"] - s["start"] for s in svds)
        assert own[0] == pytest.approx(generate["end"] - generate["start"] - nested, abs=1e-12)
        assert 0.0 < own[0] < generate["end"] - generate["start"]


class TestTracer:
    def test_every_attribute_restored(self, tmp_path):
        originals = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in spanlib.TARGETS}
        spec = tmp_path / "tiny.spec"
        spec.write_text(spec_text(TINY, 1))
        tracer = spanlib.Tracer()
        with tracer.installed():
            assert cli.run is not originals[("ehrelay.cli", "run")]
            rc = tracer.call(spanlib.ROOT_SPAN, "cli", cli.main, ["run", str(spec), "--output", str(tmp_path / "o.csv")])
        assert rc == 0
        assert {s["name"].split(".")[0] for s in tracer.spans} == {"cli", "experiment", "channel", "waterfill"}
        for (module, attr), original in originals.items():
            assert getattr(importlib.import_module(module), attr) is original, f"{module}.{attr}"

    def test_restored_after_exception(self):
        original = experiment.run_trial
        tracer = spanlib.Tracer()
        with pytest.raises(ValueError):
            with tracer.installed():
                experiment.run_trial(Scenario(), np.random.default_rng(0), ("nonsense",))
        assert experiment.run_trial is original


class TestBench:
    def test_traced_run_matches_untraced_csv(self, tmp_path):
        bench = Bench(TINY, 4, tmp_path)
        metrics = bench.traced()
        assert bench.violations == []
        assert (tmp_path / "rep0.csv").read_bytes() == (tmp_path / "rep0-traced.csv").read_bytes()
        assert bench.attempted == 2 * TINY.operations
        assert metrics["auglag.calls"] == (4, "count")
        assert metrics["waterfill.calls"] == (4, "count")
        assert metrics["waterfill.rate_gap_rel_max"][0] <= 0.01
        records = [json.loads(line) for line in (tmp_path / "trace" / "records.jsonl").read_text().splitlines()]
        assert len(records) == TINY.operations
        alpf = next(r for r in records if r["solver"] == "alpf")
        replayed = experiment.run_trial(Scenario(**alpf["scenario"]), experiment.trial_rng(*alpf["seed"]), ["alpf"])
        assert replayed["alpf"].rate_bps == alpf["rate_bps"]
        assert replayed["alpf"].iterations == alpf["outer_iters"]

    def test_alpf_below_benchmark_is_a_violation(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            experiment.CSV_HEADER
            + "\np_source,0.1,alpf,99.0,0.0,0.1,3.0,1.0\np_source,0.1,benchmark,100.0,0.0,0.5,0.0,1.0\n"
        )
        bench = Bench(Workload("one", TINY.scenario, "p_source", (0.1,), 2, ("alpf", "benchmark")), 0, tmp_path)
        bench._check_csv(0, path)
        assert len(bench.violations) == 1
        assert bench.failed == 2

    def test_unconverged_trials_counted_as_failed(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(experiment.CSV_HEADER + "\np_source,0.1,alpf,99.0,0.0,0.1,3.0,0.5\n")
        bench = Bench(Workload("one", TINY.scenario, "p_source", (0.1,), 2, ("alpf",)), 0, tmp_path)
        bench._check_csv(0, path)
        assert bench.violations == []
        assert bench.failed == 1

    def test_refuses_to_run_without_sources(self, tmp_path):
        shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wide_mimo", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""


class TestContract:
    """What a run prints are the metrics ``BENCHMARK.json`` declares."""

    def test_metric_names_and_units(self, tmp_path):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = tmp_path / f"trace{trace}"
            out.mkdir()
            bench = Bench(TINY, 2, out)
            metrics = bench.traced() if trace else bench.untraced(0.0)
            assert bench.violations == []
            assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in declared[key]}
            if not trace:
                assert all(value > 0 for value, _ in metrics.values())


class TestSpecFiles:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_scenario_field_written(self, name, tmp_path):
        path = tmp_path / "w.spec"
        path.write_text(spec_text(WORKLOADS[name], 7))
        keys = set(parse_key_value_file(path))
        assert {f.name for f in fields(Scenario)} <= keys
        spec = spec_from_file(path)
        assert spec.master_seed == 7
        assert spec.scenario.seed == 7
        assert spec.sweep_values == WORKLOADS[name].sweep_values
        assert spec.solvers == WORKLOADS[name].solvers
