"""Benchmark of the fermiflow library: seeded workloads, output checks and layer tracing.

Run it with ``python3 perfbench/run.py``; see perfbench/README.md.
"""
