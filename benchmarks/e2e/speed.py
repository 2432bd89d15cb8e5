"""A speed meter for a machine whose speed wanders.

On the shared 2-vCPU host this benchmark was built on, each vCPU
independently drops to about 0.6 of its speed for spells of 5-12 s (CPU
time rises with wall time: the processor itself is slower, nothing is
descheduled), so two 15-second runs of the same commit differ by up to
25 %.  To keep that out of the end-to-end timings, a helper process
pinned to each CPU runs a small fixed kernel — interpreter-bound work
that shares no code with ``src/`` — for :data:`SHARE` of the time while
a section is measured, timing each call in CPU seconds, which stay the
same when other processes compete for the processor.  The section's
*speed factor* is the mean kernel time, averaged over the CPUs, divided
by :data:`REFERENCE_KERNEL_S`; timings are reported divided by it, i.e.
in seconds of a machine on which the kernel takes
:data:`REFERENCE_KERNEL_S`.  Ten runs over ten seeds that spread by
10-18 % as measured spread by 3-8 % after the division.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import time

#: CPU seconds one kernel call takes in a helper on the reference
#: machine at its usual speed.
REFERENCE_KERNEL_S = 0.024
#: Share of each CPU a helper uses: about 35 samples per CPU in 15 s.
SHARE = 0.05
STOP_TIMEOUT_S = 10.0


def kernel() -> int:
    """Fixed interpreter-bound work: dict updates, tuple allocation, a sort."""
    table: dict[int, int] = {}
    pairs = []
    for i in range(30000):
        key = (i * 7919) % 1013
        table[key] = table.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(table) + len(pairs)


class SpeedMeter:
    """Context manager: one pinned helper per CPU for the ``with`` body."""

    def __init__(self) -> None:
        #: Kernel CPU seconds per call, by CPU; filled on exit.
        self.kernel_s: dict[int, list[float]] = {}
        self._helpers: list[tuple[int, subprocess.Popen]] = []

    def __enter__(self) -> "SpeedMeter":
        for cpu in sorted(os.sched_getaffinity(0)):
            helper = subprocess.Popen(
                [sys.executable, __file__, str(cpu)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            self._helpers.append((cpu, helper))
        return self

    def __exit__(self, *exc_info) -> None:
        for cpu, helper in self._helpers:
            try:  # closing its stdin is the helper's signal to report and exit
                out, _ = helper.communicate(timeout=STOP_TIMEOUT_S)
                self.kernel_s[cpu] = json.loads(out)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.communicate()
        self._helpers = []

    @property
    def factor(self) -> float:
        """How much slower than the reference the machine ran (1 = same)."""
        per_cpu = [statistics.mean(s) for s in self.kernel_s.values() if s]
        return statistics.mean(per_cpu) / REFERENCE_KERNEL_S


def _helper(cpu: int) -> None:
    """Pin to ``cpu``; time the kernel until stdin closes; print the timings."""
    os.sched_setaffinity(0, {cpu})
    samples = []
    pause = REFERENCE_KERNEL_S * (1 / SHARE - 1)
    while True:
        started = time.process_time()
        kernel()
        samples.append(time.process_time() - started)
        if select.select([sys.stdin], [], [], pause)[0]:
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    _helper(int(sys.argv[1]))
