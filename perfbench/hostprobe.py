"""The host-speed probe: fixed work that does not touch pwerpi.

On a shared host, busy neighbours slow the same code by up to 2x for seconds
to minutes at a time. The benchmark times this probe after every call and
divides the calls' wall time by the probe's mean wall-time slowdown, and
their CPU time by its CPU-time slowdown, both weighted by call time, so that
the end-to-end metrics compare the program, not the host's load at the
moment. Set-up time is divided by the same wall-time slowdown.

The probe mixes what the program spends its time on: interpreter loops and
numpy calls on small arrays. It runs as wide as the calls do: calls that
keep two pool workers busy are probed by two forked processes at once, so
that the probe also sees a core taken away, not only a slower one.
PROBE_NOMINAL_S is about one probe unit's time on a lightly loaded 2-vCPU
Xeon (2.0 GHz) VM; on another host the normalised metrics scale by a
constant.
"""

from __future__ import annotations

import os
import struct
import time

import numpy as np

PROBE_NOMINAL_S = 0.008
# Share of each call's wall time spent probing after it.
PROBE_SHARE = 0.05

_rng = np.random.default_rng(0)
_SMALL = _rng.random(4000)
_SPD = _rng.random((6, 6)) @ _rng.random((6, 6)).T + 6.0 * np.eye(6)


def probe_once() -> tuple[float, float]:
    """Wall and CPU seconds one unit of probe work takes now."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    s = 0.0
    for i in range(35000):
        s += (i * 0.5) % 7.0
    for _ in range(130):
        np.sort(_SMALL)
        np.linalg.cholesky(_SPD)
        np.exp(_SMALL[:100]).sum()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def _mean_probe(reps: int) -> tuple[float, float]:
    times = [probe_once() for _ in range(reps)]
    return sum(w for w, _ in times) / reps, sum(c for _, c in times) / reps


def _mean_probe_forked(reps: int, width: int) -> tuple[float, float]:
    """Mean wall and CPU time of a probe unit over `width` forked processes probing at once."""
    children = []
    for _ in range(width):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, struct.pack("dd", *_mean_probe(reps)))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as fh:
            times.append(struct.unpack("dd", fh.read(16)))
        os.waitpid(pid, 0)
    return sum(w for w, _ in times) / width, sum(c for _, c in times) / width


def slowdown(wall_s: float, width: int = 1) -> tuple[float, float]:
    """The host's (wall, CPU) slowdown against nominal, probed `width` wide for
    PROBE_SHARE of `wall_s` (1 to 20 units per process)."""
    reps = min(max(round(PROBE_SHARE * wall_s / PROBE_NOMINAL_S), 1), 20)
    wall, cpu = _mean_probe(reps) if width == 1 else _mean_probe_forked(reps, width)
    return wall / PROBE_NOMINAL_S, cpu / PROBE_NOMINAL_S
