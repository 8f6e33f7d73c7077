"""Host-speed probe: how fast the CPU a command runs on is at the moment.

On a shared virtual machine each virtual CPU switches, several times a
second, between a fast and a slow state (about 1.5x slower, as when
another tenant's work shares its physical core), and the share of slow
time drifts over minutes.  A command's wall and CPU time follow that
drift; two runs of the same code minutes apart differed by a third.

The probe is one thread of the benchmark process.  While a command runs
it pins itself, every PERIOD_S, to the CPU the command's main thread
last ran on and times a fixed loop by its own thread CPU time, so being
preempted does not count but a slow CPU does.  A command's slowdown is
the mean loop time during the command over REF_LOOP_S; dividing the
command's times by it gives them at reference speed.  Steal time (the
host running something else on the VM's CPU) stops both the command and
the loop's thread CPU clock, so it shows in wall time only; the
benchmark takes the steal of all CPUs during a command, from
/proc/stat, off its wall time before scaling.  On a 2-vCPU VM,
over 28 repetitions each of construct, verify and a bare import, log
wall time against log slowdown had a correlation of 0.91 to 0.97 and a
slope of 1.0 to 1.2, and scaling cut the spread (IQR over median) from
12-17% to 5-7%.  The loop takes about 3% of the command's CPU, the
same on every commit.
"""

from __future__ import annotations

import os
import threading
from array import array
from statistics import fmean
from time import perf_counter, thread_time_ns

PERIOD_S = 0.02
# loop time, in seconds, that counts as reference speed: about its
# average on the 2-vCPU VM where the benchmark was written, so that
# scaled times read close to raw ones there
REF_LOOP_S = 0.0008

# The loop mixes what the program does: random reads from 16 MB (more
# than a core's L2), method calls, and big-integer arithmetic.  A plain
# float loop slows less than the program on a slow CPU (it removed only
# half of the drift); this mix slows about as much.
_DATA = array("d", range(1 << 21))
_INDEX = [(i * 2654435761) % len(_DATA) for i in range(1500)]
_BIG = 3 ** 500


class _Point:
    __slots__ = ("a",)

    def __init__(self, a: float):
        self.a = a

    def f(self, x: float) -> float:
        return self.a * x + 1.0


def _loop() -> float:
    t0 = thread_time_ns()
    data, s = _DATA, 0.0
    for i in _INDEX:
        s += data[i]
    p = _Point(1.5)
    for i in range(1000):
        s += p.f(i)
    x = _BIG
    for i in range(60):
        (x * (x + i)) // (x - i)
    return (thread_time_ns() - t0) / 1e9


def steal_s() -> float:
    """Seconds the host has taken the VM's CPUs away (steal), all CPUs, since boot."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()  # "cpu user nice system idle iowait irq softirq steal"
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _last_cpu(pid: int) -> int | None:
    """Field 39 of /proc/<pid>/stat: the CPU the task last ran on."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class SpeedProbe:
    """Samples CPU speed while a followed process runs; use as a context manager."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (perf_counter at end, loop s)
        self._pid: int | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def follow(self, pid: int | None) -> None:
        """Sample on the CPU of process pid from now on; None pauses sampling."""
        self._pid = pid

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            pid = self._pid
            if pid is None:
                continue
            cpu = _last_cpu(pid)
            if cpu is not None:
                try:
                    os.sched_setaffinity(0, {cpu})  # this thread only
                except OSError:
                    pass
            loop_s = _loop()
            self._samples.append((perf_counter(), loop_s))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean loop time over REF_LOOP_S, for samples taken between t0 and t1.

        Falls back to every sample so far when none lies in the window,
        and to 1 before the first sample."""
        samples = list(self._samples)
        window = [s for t, s in samples if t0 <= t <= t1] or [s for _, s in samples]
        return fmean(window) / REF_LOOP_S if window else 1.0
