"""Closed-loop benchmark of the transcript extraction engine.

Run from the repository root::

    python3 perfbench/run.py --workload extract_bulk --seed 1 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the layer map.
"""
