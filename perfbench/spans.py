"""Layer timing from outside the program: swapped-in wrappers and span analysis.

A :class:`Tracer` replaces each module attribute through which a caller
reaches a layer with a timing wrapper, and puts the original back when
its ``installed()`` block ends.  ``ehrelay.experiment`` and
``ehrelay.cli`` bind their dependencies with ``from ... import``, so the
wrapper goes on the importing module's attribute, not on the defining
module's.  Each call becomes a span ``(name, layer, start, end, parent,
trial)`` kept in memory and written out as JSON lines when the run ends.

The analysis half (:func:`self_times`, :func:`layer_metrics`,
:func:`trial_records`) works on the written spans, so it runs in the
benchmark process rather than in the traced one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import json
import statistics
import time
from collections import defaultdict

__all__ = [
    "ROOT_SPAN",
    "TARGETS",
    "Tracer",
    "alpf_oracle_gaps",
    "layer_metrics",
    "load_spans",
    "self_times",
    "trial_records",
]

# (module, attribute, layer): the attribute a caller reaches the layer by.
TARGETS = (
    ("ehrelay.experiment", "generate", "channel"),
    ("ehrelay.experiment", "effective_subchannels", "channel"),
    ("ehrelay.experiment", "optimal_energy_plan", "system"),
    ("ehrelay.experiment", "snr_coefficients", "system"),
    ("ehrelay.experiment", "benchmark_allocation", "system"),
    ("ehrelay.experiment", "achievable_rate", "system"),
    ("ehrelay.experiment", "optimize", "auglag"),
    ("ehrelay.experiment", "oracle_solve", "waterfill"),
    ("ehrelay.experiment", "run_trial", "experiment"),
    ("ehrelay.experiment", "trial_rng", "experiment"),
    ("ehrelay.channel", "svd", "linalg"),
    ("ehrelay.waterfill", "inner_waterfill", "waterfill"),
    ("ehrelay.cli", "spec_from_file", "experiment"),
    ("ehrelay.cli", "run", "experiment"),
    ("ehrelay.cli", "emit_csv", "experiment"),
)

ROOT_SPAN = "cli.main"


def _capture_seed(args, result):
    return {"seed": [int(v) for v in args[:3]]}


def _capture_alpf(args, result):
    return {
        "outer_iters": int(result.outer_iterations),
        "inner_iters": int(result.inner_iterations),
        "converged": bool(result.converged),
        "stalled": bool(result.stalled),
    }


def _capture_trial(args, result):
    return {
        "scenario": dataclasses.asdict(args[0]),
        "outcomes": {
            solver: {
                "rate_bps": float(o.rate_bps),
                "alpha": float(o.alpha),
                "iterations": int(o.iterations),
                "converged": bool(o.converged),
            }
            for solver, o in result.items()
        },
    }


# Extra fields recorded from the arguments and result of some calls.
_CAPTURES = {
    "experiment.trial_rng": _capture_seed,
    "experiment.optimize": _capture_alpf,
    "experiment.run_trial": _capture_trial,
}


class Tracer:
    """Records one span per call of each wrapped attribute."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._trial: int | None = None
        self._trials_started = 0

    @contextlib.contextmanager
    def installed(self):
        """Swap every target attribute for a wrapper; restore them on exit."""
        saved = []
        try:
            for module_name, attr, layer in self.targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                name = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self._wrapper(name, layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` of layer ``layer``."""
        if name == "experiment.run_trial":
            trial = self._trials_started
            self._trials_started += 1
            self._trial = trial
        elif name == "experiment.trial_rng":
            # Called just before the run_trial it seeds.
            trial = self._trials_started
        else:
            trial = self._trial
        span = {
            "name": name,
            "layer": layer,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "trial": trial,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if name == "experiment.run_trial":
                self._trial = None
        capture = _CAPTURES.get(name)
        if capture is not None:
            span.update(capture(args, result))
        return result

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def _wrapper(self, name, layer, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, *args, **kwargs)

        return traced


def load_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def _quantile_ms(durations: list[float], q: float) -> float:
    """The ``q`` quantile of ``durations`` (seconds) in ms; 0 when empty."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e3 * cuts[round(q * 100) - 1]


def layer_metrics(spans: list[dict], traced_sweep_s: float, untraced_sweep_s: float, csv_bytes: int) -> dict:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``."""
    own = self_times(spans)
    busy = defaultdict(float)
    calls = defaultdict(int)
    by_name = defaultdict(list)
    for span, t in zip(spans, own):
        busy[span["layer"]] += t
        calls[span["layer"]] += 1
        by_name[span["name"]].append(span)

    def duration(name):
        return [s["end"] - s["start"] for s in by_name[name]]

    def layer_time(layer):
        return {
            f"{layer}.busy_s": (busy[layer], "s"),
            f"{layer}.share": (busy[layer] / traced_sweep_s, "ratio"),
        }

    m = {}
    for layer in ("linalg", "channel", "system"):
        m[f"{layer}.calls"] = (calls[layer], "count")
        m.update(layer_time(layer))

    alpf = by_name["experiment.optimize"]
    solve = duration("experiment.optimize")
    m["auglag.calls"] = (len(alpf), "count")
    m.update(layer_time("auglag"))
    m["auglag.solve_ms_p50"] = (_quantile_ms(solve, 0.5), "ms")
    m["auglag.solve_ms_p90"] = (_quantile_ms(solve, 0.9), "ms")
    m["auglag.solve_ms_max"] = (1e3 * max(solve, default=0.0), "ms")
    m["auglag.outer_iters"] = (sum(s["outer_iters"] for s in alpf), "count")
    m["auglag.inner_iters"] = (sum(s["inner_iters"] for s in alpf), "count")
    m["auglag.inner_iters_max"] = (max((s["inner_iters"] for s in alpf), default=0), "count")
    m["auglag.stalled"] = (sum(s["stalled"] for s in alpf), "count")
    m["auglag.unconverged"] = (sum(not s["converged"] for s in alpf), "count")

    oracle = duration("experiment.oracle_solve")
    m["waterfill.calls"] = (len(oracle), "count")
    m.update(layer_time("waterfill"))
    m["waterfill.solve_ms_p50"] = (_quantile_ms(oracle, 0.5), "ms")
    m["waterfill.solve_ms_p90"] = (_quantile_ms(oracle, 0.9), "ms")
    m["waterfill.inner_calls"] = (len(by_name["waterfill.inner_waterfill"]), "count")
    m["waterfill.rate_gap_rel_max"] = (max((g["gap"] for g in alpf_oracle_gaps(spans)), default=0.0), "ratio")

    trials = duration("experiment.run_trial")
    m.update(layer_time("experiment"))
    m["experiment.trial_ms_p50"] = (_quantile_ms(trials, 0.5), "ms")
    m["experiment.trial_ms_p90"] = (_quantile_ms(trials, 0.9), "ms")
    m["experiment.trial_ms_max"] = (1e3 * max(trials, default=0.0), "ms")
    m["experiment.csv_bytes"] = (csv_bytes, "bytes")
    m["cli.busy_s"] = (busy["cli"], "s")
    m["trace.overhead_frac"] = (traced_sweep_s / untraced_sweep_s - 1.0, "ratio")
    return m


def alpf_oracle_gaps(spans: list[dict]) -> list[dict]:
    """Relative ALPF-versus-oracle rate gap of every trial that ran both."""
    gaps = []
    for span in spans:
        outcomes = span.get("outcomes", {})
        if "alpf" in outcomes and "oracle" in outcomes:
            oracle = outcomes["oracle"]["rate_bps"]
            gap = abs(outcomes["alpf"]["rate_bps"] - oracle) / max(oracle, 1e-12)
            gaps.append({"trial": span["trial"], "gap": gap})
    return gaps


def trial_records(spans: list[dict]) -> list[dict]:
    """One replayable record per (trial, solver).

    Each carries the seed triple (for ``trial_rng``) and the scenario, so
    ``run_trial(Scenario(**scenario), trial_rng(*seed), [solver])``
    reproduces it, plus the trial's self time per layer in ms and, for
    ALPF, its iteration counts and flags.
    """
    own = self_times(spans)
    layer_ms = defaultdict(lambda: defaultdict(float))
    seeds = {}
    alpf = {}
    for span, t in zip(spans, own):
        trial = span["trial"]
        if trial is None:
            continue
        layer_ms[trial][span["layer"]] += 1e3 * t
        if "seed" in span:
            seeds[trial] = span["seed"]
        if span["name"] == "experiment.optimize":
            alpf[trial] = {k: span[k] for k in ("outer_iters", "inner_iters", "converged", "stalled")}
    records = []
    for span in spans:
        if span["name"] != "experiment.run_trial":
            continue
        trial = span["trial"]
        for solver, outcome in span["outcomes"].items():
            record = {
                "trial": trial,
                "seed": seeds.get(trial),
                "scenario": span["scenario"],
                "solver": solver,
                "rate_bps": outcome["rate_bps"],
                "alpha": outcome["alpha"],
                "converged": outcome["converged"],
                "layer_ms": dict(layer_ms[trial]),
            }
            if solver == "alpf":
                record.update(alpf[trial])
            records.append(record)
    return records
