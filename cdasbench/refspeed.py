"""Reference speed: time every unit as if the CPU always ran at one speed.

The host's CPU speed drifts by tens of percent within a minute, and the
two vCPUs drift independently.  Every process of a run is therefore
pinned to one CPU (:func:`pin_to_one_cpu`), and a fixed reference kernel
(:func:`kernel`, which imports nothing from ``repro``) is timed whenever
the system under test is idle.  A unit of work measured between two
probes is reported as ``raw * P_NOMINAL_S / mean(probe before, probe
after)``: its time at the speed at which the kernel takes exactly
``P_NOMINAL_S``.

Set-up units — starting interpreters and importing — track the kernel
poorly: when the kernel ran 1.8x faster, they ran only about 1.35x
faster.  They are scaled instead by :func:`spawn`, the start of a bare
interpreter, probed the same way, to ``P_SPAWN_NOMINAL_S``.

A probe only counts while the server-side processes are idle: their CPU
time is read from ``/proc`` around the probe.  A probe during which they
ran for more than ``BUSY_SHARE`` of its wall time is retried, and a run
whose server never goes idle fails its check (:class:`ServerBusy`).
Otherwise a change that leaves background work running would slow the
probe, and so look faster at reference speed.
"""

from __future__ import annotations

import glob
import math
import os
import subprocess
import sys
import time
from collections.abc import Callable, Iterable, Sequence

__all__ = [
    "BUSY_SHARE",
    "P_NOMINAL_S",
    "P_SPAWN_NOMINAL_S",
    "Prober",
    "ServerBusy",
    "cpu_seconds",
    "kernel",
    "pin_to_one_cpu",
    "scale",
    "spawn",
]

#: A probe's time at reference speed (seconds).  A constant: it only
#: fixes the unit in which scaled times are reported.
P_NOMINAL_S = 0.010

#: A :func:`spawn` probe's time at reference speed (seconds).
P_SPAWN_NOMINAL_S = 0.010

#: Kernel runs per probe; the probe is their median, so one run hit by
#: a host hiccup does not skew the scale of the units around it.
KERNEL_RUNS = 3

#: A probe counts only if the watched processes used at most this share
#: of its wall time on the CPU.
BUSY_SHARE = 0.10

#: Busy probes retried before the run is declared to have a busy server.
PROBE_ATTEMPTS = 40

_CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class ServerBusy(RuntimeError):
    """The server-side processes never went idle for a probe."""


class _Point:
    __slots__ = ("x", "y", "tag")

    def __init__(self, x: float, y: float, tag: str) -> None:
        self.x = x
        self.y = y
        self.tag = tag

    def shifted(self, dx: float) -> "_Point":
        return _Point(self.x + dx, self.y * 0.5 + dx, self.tag)


def kernel(rounds: int = 70) -> float:
    """A fixed mix of interpreter work: calls, attribute reads, dicts,
    lists, floats, string formatting and sorting — the operations the
    system under test spends its time on.  Returns a checksum so the
    work cannot be skipped."""
    total = 0.0
    for r in range(rounds):
        points = [_Point(i * 0.5, math.sin(i + r), "p%d" % (i % 7)) for i in range(60)]
        table: dict[str, float] = {}
        for p in points:
            q = p.shifted(0.25)
            table[q.tag] = table.get(q.tag, 0.0) + q.x * q.y
        ordered = sorted(points, key=lambda p: (p.y, p.tag))
        total += sum(table.values()) + ordered[0].x + len("|".join(table))
        total += math.log1p(abs(total) % 97.0)
    return total


def spawn() -> None:
    """Start a bare interpreter (no ``site``) and wait for it to exit:
    the reference for set-up units."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it spawns later) to one CPU:
    the highest-numbered one it may use.  Returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cpu_seconds(pids: Iterable[int]) -> float:
    """CPU time used so far by every thread of ``pids``.

    Read from ``/proc/<pid>/task/<tid>/schedstat`` (nanoseconds); where
    that file is missing, from ``/proc/<pid>/stat`` (clock ticks).  A
    process that has exited counts 0.
    """
    total = 0.0
    for pid in pids:
        stats = glob.glob(f"/proc/{pid}/task/*/schedstat")
        if stats:
            for path in stats:
                try:
                    with open(path) as fh:
                        total += int(fh.read().split()[0]) / 1e9
                except (OSError, ValueError, IndexError):
                    pass
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # Fields 14 and 15 (utime, stime); the split drops the first two.
        total += (int(fields[11]) + int(fields[12])) * _CLOCK_TICK_S
    return total


def scale(
    raw_s: float, before_s: float, after_s: float, nominal_s: float = P_NOMINAL_S
) -> float:
    """``raw_s`` at reference speed, given the probes adjacent to it and
    the probe's time at reference speed."""
    return raw_s * nominal_s / ((before_s + after_s) / 2.0)


class Prober:
    """Times a reference (``work``: :func:`kernel` or :func:`spawn`)
    between units and checks that the watched processes stayed idle
    while it ran.

    ``probes`` keeps every attempt — counted or not — as ``(monotonic
    time, probe seconds, watched CPU seconds, counted)``, for the run's
    output file.  A probe's seconds are the median of ``KERNEL_RUNS``
    runs of ``work``; the idle check covers all of them.
    """

    def __init__(
        self,
        pids: Sequence[int] = (),
        attempts: int = PROBE_ATTEMPTS,
        work: Callable[[], object] = kernel,
    ) -> None:
        self.pids = list(pids)
        self.attempts = attempts
        self.work = work
        self.probes: list[tuple[float, float, float, bool]] = []

    def probe(self) -> float:
        """One counted probe's time in seconds; raises :class:`ServerBusy`
        when no attempt finds the watched processes idle."""
        for _ in range(self.attempts):
            used_before = cpu_seconds(self.pids) if self.pids else 0.0
            start = time.perf_counter()
            runs = []
            for _ in range(KERNEL_RUNS):
                began = time.perf_counter()
                self.work()
                runs.append(time.perf_counter() - began)
            wall = time.perf_counter() - start
            used = (cpu_seconds(self.pids) - used_before) if self.pids else 0.0
            counted = used <= BUSY_SHARE * wall
            elapsed = sorted(runs)[KERNEL_RUNS // 2]
            self.probes.append((start, elapsed, used, counted))
            if counted:
                return elapsed
        raise ServerBusy(
            f"processes {self.pids} stayed busy through {self.attempts} "
            f"probes (last used {used:.4f}s of CPU in {elapsed:.4f}s)"
        )

    def counted(self) -> list[float]:
        return [p[1] for p in self.probes if p[3]]

    def drift(self) -> dict[str, float]:
        """Raw probe spread over the run: min, median and max seconds and
        max/min — how much the host's speed moved."""
        values = sorted(self.counted())
        if not values:
            return {"count": 0}
        return {
            "count": len(values),
            "min_s": values[0],
            "median_s": values[len(values) // 2],
            "max_s": values[-1],
            "max_over_min": values[-1] / values[0],
        }
