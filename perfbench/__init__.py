"""Repository benchmark: sweep throughput end to end, host time per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see :mod:`perfbench.run`.
"""
