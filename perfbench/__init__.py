"""Benchmark of the ``ehrelay run`` sweep: workloads, process harness and layer tracing.

Run it from the repository root::

    python3 perfbench/run.py --workload phi_sweep --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the checks.
"""
