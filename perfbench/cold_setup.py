"""One cold set-up of a workload, timed in a fresh process.

Usage, from the repository root::

    python3 perfbench/cold_setup.py <workload> <seed>

Times what a user pays before a sweep's first cell: importing the
simulator, building every program the workload loads, constructing the
``Session`` and warming the numpy batch backend (its import, scan tables
and TAGE cutover calibration are paid once per process).  Then times the
calibration kernel of :mod:`perfbench.calib` in the same process (the
median of five calls after a first, slower one) and prints one JSON line
``{"setup_s", "build_s", "kernel_s"}``.  :mod:`perfbench.run` runs it
with one OpenBLAS thread, as it runs the workloads.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    start = time.perf_counter()
    from repro.predictors.batched import warm_backend
    from repro.session import Session
    from repro.workloads import registry

    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[name](seed)
    built_from = time.perf_counter()
    for benchmark in workload.benchmarks():
        registry.load(benchmark)
    built = time.perf_counter()
    Session(workload.config)
    warm_backend()
    end = time.perf_counter()
    from perfbench.calib import kernel
    kernel()  # the first call in a process runs slow; leave it out
    print(json.dumps({"setup_s": end - start, "build_s": built - built_from,
                      "kernel_s": median(kernel() for _ in range(5))}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
