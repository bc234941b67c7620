"""Benchmark of ``ehrelay run``: one workload, one seed, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured run is a fresh, single-threaded process (``child.py``) that
goes through the user's entry point, ``ehrelay.cli.main(["run", SPEC,
"--output", CSV])``, on a spec file generated from the seed.  Processes run
one at a time, never concurrently.

``--trace 0`` times set-up alone a few times, then runs the sweep again and
again, repetition ``r`` with master seed ``seed * 1000 + r``, at least three
times and until another repetition would end after ``--seconds``, counted
from the first set-up.  It reports the medians of ``setup_s``, ``sweep_rel``
and ``peak_rss_mb``.  ``sweep_rel`` is the sweep's wall time over that of a
fixed reference computation timed in the same process around it
(``child.reference_s``): the host's speed drifts by a fifth over tens of
seconds, and the ratio cancels most of that drift.  The median wall time
``sweep_s`` is printed too.  ``--trace 1`` runs the repetition-0 spec (with
the workload's ``trace_trials``, if set) once untraced and once with every
layer wrapped, and reports the per-layer metrics of the traced run.
Human-readable lines come first; the last line of standard output is one
JSON object.

Outputs are checked: the command must exit 0 and write one CSV row per
(sweep value, solver); ALPF's mean rate must not fall below the
benchmark's; in a traced run, every trial's ALPF rate must be within 1% of
the oracle's and the traced CSV must equal the untraced one byte for byte.
An operation is one (trial, solver) pair; it fails when ALPF does not
converge, the process raises or exits nonzero, or a check fails.  Every
failure but ALPF non-convergence is a violation: it is printed, sets
``"correct": false`` and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import spans as spanlib  # noqa: E402
from perfbench.workloads import WORKLOADS, master_seed, spec_text  # noqa: E402

MIN_REPS = 3
SETUP_PROBES = 5
# Every process must be done this long after start; the run is cut at 180 s.
DEADLINE_S = 170.0
RATE_TOL_BPS = 1e-9
ORACLE_GAP_MAX = 0.01


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ehrelay" / "__init__.py").is_file():
        print(f"error: no ehrelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[args.workload]
    if args.trace:
        bench = Bench(replace(workload, trials=workload.trace_trials or workload.trials), args.seed, out)
        metrics = bench.traced()
    else:
        bench = Bench(workload, args.seed, out)
        metrics = bench.untraced(args.seconds)

    for line in bench.log:
        print(line)
    failed = min(bench.failed, bench.attempted)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(f"{args.workload} failed_frac {failed / bench.attempted!r} ratio")
    correct = not bench.violations
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


class Bench:
    """Runs and checks the processes of one benchmark invocation."""

    def __init__(self, workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.log: list[str] = []
        self._env_logged = False

    def untraced(self, seconds: float) -> dict:
        """End-to-end metrics: medians over set-up probes and sweep repetitions."""
        start = time.monotonic()
        spec = self._write_spec(0)
        self._launch(spec)  # warm-up: fills the bytecode cache, not timed
        setups = [r["setup_s"] for r in (self._launch(spec) for _ in range(SETUP_PROBES)) if "setup_s" in r]
        reps = []
        lengths = []
        # Stop before a repetition of the median length would overrun --seconds.
        while len(reps) < MIN_REPS or (
            time.monotonic() - start + _median(lengths) < seconds
            and time.monotonic() + 1.5 * max(lengths) < self.deadline
        ):
            rep_start = time.monotonic()
            reps.append(self._sweep(len(reps)))
            lengths.append(time.monotonic() - rep_start)
        done = [r for r in reps if "sweep_s" in r]
        setups += [r["setup_s"] for r in done]
        self.log.append(f"# sweep_s median {_median([r['sweep_s'] for r in done])!r} s over {len(done)} repetitions")
        return {
            "setup_s": (_median(setups), "s"),
            "sweep_rel": (_median([r["sweep_s"] / r["ref_s"] for r in done]), "ratio"),
            "peak_rss_mb": (_median([r["peak_rss_mb"] for r in done]), "MB"),
        }

    def traced(self) -> dict:
        """Per-layer metrics of one traced sweep, next to an untraced one."""
        plain = self._sweep(0)
        trace_dir = self.out / "trace"
        trace_dir.mkdir()
        traced = self._sweep(0, trace_dir)
        if "sweep_s" not in plain or "sweep_s" not in traced:
            return {name: (0.0, unit) for name, (_, unit) in spanlib.layer_metrics([], 1.0, 1.0, 0).items()}

        plain_csv, traced_csv = (self.out / f"rep0{tag}.csv" for tag in ("", "-traced"))
        if plain_csv.read_bytes() != traced_csv.read_bytes():
            self._violate("traced and untraced CSVs differ for the same seed", self.workload.operations)
        spans = spanlib.load_spans(trace_dir / "spans.jsonl")
        for gap in spanlib.alpf_oracle_gaps(spans):
            if gap["gap"] > ORACLE_GAP_MAX:
                self._violate(f"trial {gap['trial']}: ALPF rate {gap['gap']:.3%} away from the oracle's", 1)
        with open(trace_dir / "records.jsonl", "w") as fh:
            for record in spanlib.trial_records(spans):
                fh.write(json.dumps(record) + "\n")
        self.log.append(f"# per-trial records: {trace_dir / 'records.jsonl'}")
        return spanlib.layer_metrics(spans, traced["sweep_s"], plain["sweep_s"], traced_csv.stat().st_size)

    def _write_spec(self, rep: int) -> Path:
        path = self.out / f"rep{rep}.spec"
        path.write_text(spec_text(self.workload, master_seed(self.seed, rep)))
        return path

    def _sweep(self, rep: int, trace_dir: Path | None = None) -> dict:
        """One ``ehrelay run`` process on the spec of repetition ``rep``, checked."""
        spec = self._write_spec(rep)
        csv_path = self.out / f"rep{rep}{'-traced' if trace_dir else ''}.csv"
        result = self._launch(spec, csv_path, trace_dir)
        ops = self.workload.operations
        self.attempted += ops
        if "error" in result:
            self._violate(f"rep {rep}: {result['error']}", ops)
        elif result["rc"] != 0:
            self._violate(f"rep {rep}: ehrelay run exited with code {result['rc']}", ops)
        else:
            self._check_csv(rep, csv_path)
        if "sweep_s" in result:
            self.log.append(
                f"# rep {rep} master_seed={master_seed(self.seed, rep)} traced={int(trace_dir is not None)} "
                f"setup_s={result['setup_s']!r} s sweep_s={result['sweep_s']!r} s ref_s={result['ref_s']!r} s "
                f"peak_rss_mb={result['peak_rss_mb']!r} MB"
            )
        return result

    def _check_csv(self, rep: int, path: Path) -> None:
        w = self.workload
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != max(1, len(w.sweep_values)) * len(w.solvers):
            self._violate(f"rep {rep}: {len(rows)} CSV rows, expected one per (sweep value, solver)", w.operations)
            return
        by_value: dict[str, dict[str, dict]] = {}
        for row in rows:
            by_value.setdefault(row["sweep_value"], {})[row["solver"]] = row
        for value, cells in by_value.items():
            alpf, bench = cells.get("alpf"), cells.get("benchmark")
            if alpf is None:
                continue
            if bench is not None and float(alpf["mean_rate_bps"]) < float(bench["mean_rate_bps"]) - RATE_TOL_BPS:
                self._violate(f"rep {rep}, sweep value {value}: mean ALPF rate below the benchmark's", w.trials)
                continue
            self.failed += round((1.0 - float(alpf["convergence_fraction"])) * w.trials)

    def _launch(self, spec: Path, csv_path: Path | None = None, trace_dir: Path | None = None) -> dict:
        """Run one child process to completion; its JSON result, or ``{"error": ...}``."""
        started = time.monotonic()
        cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--started", repr(started), "--spec", str(spec)]
        if csv_path is not None:
            cmd += ["--csv", str(csv_path)]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(lines[-1])
        if not self._env_logged:
            env_info = result["env"]
            self.log.insert(
                0,
                f"# env nproc={env_info['nproc']} python={env_info['python']} numpy={env_info['numpy']} "
                f"blas={env_info['blas']} threads={env_info['threads']}",
            )
            self._env_logged = True
        return result

    def _violate(self, message: str, failed_ops: int) -> None:
        self.violations.append(message)
        self.failed += failed_ops
        self.log.append(f"VIOLATION: {message}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
