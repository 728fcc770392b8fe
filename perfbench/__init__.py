"""Repository benchmark: workloads, layer tracing and the steadiness
ledger.  Run ``python3 perfbench/run.py --help`` from the repository root.
"""
