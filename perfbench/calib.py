"""Host-speed calibration for the benchmark's gated throughput.

Shared cloud hosts change speed by tens of percent within a minute, and
that drift moves every timing the benchmark takes.  A fixed pure-Python
kernel (integer arithmetic and list stores, no simulator code) slows
down with the host but never with the simulator, so dividing a timing by
the kernel's duration at the same moment cancels most of the drift.

:class:`Calibrator` times the kernel in the process that runs the
cells, right before each cell of the measured work, so each sample sees
the host as the simulator sees it a moment later.  Samples
taken anywhere else tracked the simulator poorly: a sampler process on
an otherwise idle core, or the sweep's parent process while pool workers
held both cores, timed the kernel under different load than the cells.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from statistics import median
from typing import Iterator, List

#: Kernel seconds on the reference host.  Calibrated numbers read as
#: if measured on a host where :func:`kernel` takes exactly this long.
REFERENCE_KERNEL_S = 0.010


#: The kernel's working set: a few megabytes, like a simulator's tables,
#: so the kernel slows down with cache and memory contention as well as
#: with the core's clock.
_TABLE = [0] * (1 << 20)


#: Loop steps of :func:`kernel`, about 10 ms of work.
KERNEL_STEPS = 40_000


def kernel() -> float:
    """Seconds taken by a fixed integer and table loop (about 10 ms)."""
    table = _TABLE
    start = time.perf_counter()
    state = 1
    for step in range(KERNEL_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        table[state & 0xFFFFF] = step
    return time.perf_counter() - start


def speed_factor(samples: List[float]) -> float:
    """Host slowness relative to the reference (2.0 = twice as slow)."""
    return median(samples) / REFERENCE_KERNEL_S


class Calibrator:
    """Kernel samples taken right before each cell of the measured work."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Seconds spent sampling, to subtract from a timing.
        self.seconds = 0.0

    def factor(self) -> float:
        return speed_factor(self.samples)

    @contextmanager
    def per_call(self, owner: object, attribute: str, directory: str,
                 parallelism: int) -> Iterator[None]:
        """Sample before every call of ``owner.attribute`` in any process.

        ``owner`` is a class or a module, and ``attribute`` the cell entry
        point the workload's sweep calls (``Session.run``,
        ``Session.simulate``, ``repro.session.replay_mpki_batch``).  The
        wrapper is installed before a pool forks, so each worker samples
        the kernel before each cell it runs, under the same load as the
        cell.  Samples come back through one file per process in
        ``directory``; the sampling seconds, divided by ``parallelism``,
        count as time taken out of the sweep.  Stop the clock before the
        context ends: reading the files back is not part of the work.
        """
        original = vars(owner)[attribute]

        def calibrated(*args, **kwargs):
            taken = kernel()
            path = os.path.join(directory, f"calib-{os.getpid()}.txt")
            with open(path, "a") as handle:
                handle.write(f"{taken!r}\n")
            return original(*args, **kwargs)

        setattr(owner, attribute, calibrated)
        try:
            yield
        finally:
            setattr(owner, attribute, original)
            taken = []
            for name in os.listdir(directory):
                if name.startswith("calib-"):
                    with open(os.path.join(directory, name)) as handle:
                        taken += [float(line) for line in handle]
            self.samples += taken
            self.seconds += sum(taken) / parallelism
