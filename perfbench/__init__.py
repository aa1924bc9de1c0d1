"""End-to-end and per-layer benchmark of the qwebs command line.

Run it from the repository root:

    python3 perfbench/run.py --workload cartan --seed 1 --seconds 40 --trace 0

See perfbench/README.md for the workloads, the metrics and how they relate.
"""
