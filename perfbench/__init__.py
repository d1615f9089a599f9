"""The repository benchmark: seeded workloads, end-to-end metrics and a per-layer ledger.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
