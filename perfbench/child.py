"""One measured process: set up ehrelay, optionally run one sweep, report JSON.

Usage (from the repository root)::

    python3 perfbench/child.py --started T --spec SPEC [--csv CSV] [--trace-dir DIR]

``T`` is the launcher's ``time.monotonic()`` just before it started this
process; CLOCK_MONOTONIC is system-wide, so ``setup_s`` covers interpreter
start, the numpy and ehrelay imports and parsing the spec.  With ``--csv``
the process then runs ``ehrelay.cli.main(["run", SPEC, "--output", CSV])``
and times it as ``sweep_s``; with ``--trace-dir`` too, every layer
attribute is wrapped for that call and the spans are written to
``DIR/spans.jsonl``.  A fixed reference computation is timed just before
and just after the sweep, and ``ref_s`` is the sum of the two.  The last
line of standard output is a JSON object.
"""

import os

# Pinned before numpy is first imported, so BLAS starts single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# Rounds of each half of the reference computation, 0.05 to 0.1 s apiece on
# a 2-vCPU Xeon VM at 2.1 GHz.
REF_ROUNDS = 20000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--csv")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from ehrelay import cli
    from ehrelay.experiment import spec_from_file

    spec_from_file(args.spec)
    result = {"setup_s": time.monotonic() - args.started}

    if args.csv:
        run_argv = ["run", args.spec, "--output", args.csv]
        reference_s(numpy, 1000)  # warm-up, not timed
        ref_before = reference_s(numpy, REF_ROUNDS)
        if args.trace_dir:
            sys.path.insert(0, str(ROOT))
            from perfbench.spans import ROOT_SPAN, Tracer

            tracer = Tracer()
            with tracer.installed():
                start = time.perf_counter()
                result["rc"] = tracer.call(ROOT_SPAN, "cli", cli.main, run_argv)
                result["sweep_s"] = time.perf_counter() - start
            tracer.write(Path(args.trace_dir) / "spans.jsonl")
        else:
            start = time.perf_counter()
            result["rc"] = cli.main(run_argv)
            result["sweep_s"] = time.perf_counter() - start
        result["ref_s"] = ref_before + reference_s(numpy, REF_ROUNDS)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_config(numpy),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    print(json.dumps(result))
    return 0


def reference_s(numpy, rounds: int) -> float:
    """Wall time of a fixed computation of the same kind as the sweep's.

    Like the program, it interprets Python and calls numpy on tiny complex
    arrays, but it does not touch ``ehrelay``, so no change to the program
    changes its cost.  Timed next to the sweep, it tracks the speed the
    host gives this process at that moment.
    """
    rng = numpy.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    acc = 0.0
    start = time.perf_counter()
    for i in range(rounds):
        g = numpy.vdot(a[:, i % 4], a[:, (i + 1) % 4])
        acc += abs(g) * 1e-12 + (i * i) % 7
        a = a * (1.0 / (1.0 + acc * 1e-18))
    return time.perf_counter() - start


def _blas_config(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '').strip()})"


if __name__ == "__main__":
    sys.exit(main())
