"""What the benchmark reads from the host: /proc, a spin loop, a manifest."""

from __future__ import annotations

import os
import platform
import statistics
import time

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """CPU a live process has used so far, over all its threads.

    Read from ``schedstat`` (run time in nanoseconds) so that a block of
    a few dozen milliseconds can be costed; ``/proc/<pid>/stat``'s
    user+sys ticks of 10 ms where the kernel keeps no schedstat.
    """
    try:
        total = 0
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/schedstat", "rb") as handle:
                total += int(handle.read().split()[0])
        return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open(f"/proc/{pid}/stat", "rb") as handle:
        # the command name may hold spaces; fields count from after ")"
        fields = handle.read().rsplit(b")", 1)[1].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / _TICKS_PER_S


def peak_rss_mib(pid: int) -> float:
    """High-water resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def spin_ms(iterations: int = 300_000, repeats: int = 5) -> float:
    """A fixed pure-Python loop: the noise sentinel (best of *repeats*).

    The same instructions every time, so a change between the reading
    before a run and the one after it is the host, not the program.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(iterations):
            total += value & 7
        best = min(best, time.perf_counter() - started)
    return best * 1000.0 + (0 if total else 1)  # consume the loop's result


def manifest() -> dict:
    """Where and on what the numbers were taken."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of an ascending list, nearest rank."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(len(sorted_values) * q))
    return sorted_values[index]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
