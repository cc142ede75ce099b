"""Seeded end-to-end and per-layer benchmark of the wellquench library and CLI.

Entry point: ``python3 benchmarks/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.  ``benchmarks/sweep.py``
runs every workload over several seeds and summarises the spread.
"""
