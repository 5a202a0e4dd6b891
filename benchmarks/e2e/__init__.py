"""End-to-end benchmark of GMP-SVM on the wall and the simulated clock.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e.run``)
runs the workloads in :mod:`benchmarks.e2e.workloads`, each in a fresh
subprocess, checks the outputs and prints every metric with its unit.
See ``README.md`` in this directory.
"""
