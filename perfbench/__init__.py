"""The repository's seeded benchmark: build, serve and update.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  See ``perfbench/README.md``
for the workloads, the metrics and how each is measured.
"""
