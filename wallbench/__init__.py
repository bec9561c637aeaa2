"""Wall-clock benchmark of the APSP pipeline (graph → solve → store → serve → update).

Entry point: ``python3 wallbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root.  See ``wallbench/NOTES.md``.
"""
