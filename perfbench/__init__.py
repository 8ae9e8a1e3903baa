"""End-to-end and per-layer benchmark of the platoonopt solvers.

``perfbench/run.py`` is the command; ``README.md`` explains the workloads
and which layer metric should move which end-to-end metric.
"""
