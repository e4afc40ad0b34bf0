"""The calibration kernel: a fixed stdlib-only loop that tracks VM speed.

Shared VMs drift: on a 2-vCPU VM the kernel's median time over 2 s
windows swings by +-20% within a minute, and the same code on the same
input can run at half speed an hour later.  Bracketing a 10 s phase with
one sample before and one after did not follow that (a fixed-input phase
still spread by 30% across runs), so the timed work is calibrated while
it runs: a :class:`Pacer` hooked into the work runs one short kernel pass
every ``INTERVAL_S`` of wall time, in the process doing the work, and
the phase is credited with its wall time minus those passes.  Its
calibrated rate is the raw rate times the mean pass time over the
reference pass time, i.e. the rate at the reference speed.

The kernel imports nothing from ``repro`` and is never edited by a change
that claims a gain: it is allocation- and dict-heavy (tuple keys, small
dicts, sorting, string formatting), like the simulator's step path and
the service's frame codec, so it slows down when they do.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from pathlib import Path

#: Kernel rounds of one pass: about 3 ms on a 2-vCPU VM.
PASS_ROUNDS = 12
#: Seconds of one pass at the reference speed.  Calibrated metrics read
#: as "what this run would measure where one pass takes REFERENCE_S";
#: only ratios between runs matter.
REFERENCE_S = 0.003
#: Wall time between two passes of a pacer (about 6% of the work).
INTERVAL_S = 0.05


def kernel(rounds: int = PASS_ROUNDS) -> int:
    """One kernel pass; returns a checksum so no step can be skipped.

    The cyclic collector is off during a pass: its collections scan the
    whole heap, so a pass inside a large exploration would otherwise time
    the exploration's heap instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel(rounds)
    finally:
        if enabled:
            gc.enable()


def _kernel(rounds: int) -> int:
    acc = 0
    for r in range(rounds):
        table: dict[tuple[int, int], dict[str, object]] = {}
        for i in range(160):
            key = ((i * 7919 + r) % 211, i & 7)
            row = table.get(key)
            if row is None:
                row = table[key] = {"n": 0, "tag": f"p{i % 5}", "seen": []}
            row["n"] = row["n"] + 1
            row["seen"].append((r, i))
        ordered = sorted(table.items(), key=lambda kv: (kv[1]["tag"], kv[0]))
        merged = {k: (v["n"], len(v["seen"]), v["tag"]) for k, v in ordered}
        acc += sum(n + m for n, m, _ in merged.values()) + len(ordered)
    return acc


def timed_pass() -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class Pacer:
    """Kernel passes interleaved with timed work.

    :meth:`tick` is called from hooks inside the work (often: every
    simulator step, every expansion, every lock op) and runs a pass when
    ``INTERVAL_S`` has passed since the last one.  A forked worker has
    its own copy; it reports with :meth:`dump` and the parent adds the
    files with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.passes = 0
        self._next = 0.0
        self._pid = os.getpid()

    def reset(self) -> None:
        self.kernel_s, self.passes, self._next = 0.0, 0, 0.0

    def adopt(self) -> None:
        """In a forked worker: drop the counts inherited from the parent
        (once per process)."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            self.reset()

    def tick(self) -> None:
        now = time.perf_counter()
        if now < self._next:
            return
        kernel()
        end = time.perf_counter()
        self.kernel_s += end - now
        self.passes += 1
        self._next = end + INTERVAL_S

    def force(self) -> None:
        """A pass now, whatever the interval."""
        self._next = 0.0
        self.tick()

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps([self.kernel_s, self.passes]))

    def merge(self, path: str | Path) -> None:
        kernel_s, passes = json.loads(Path(path).read_text())
        self.kernel_s += kernel_s
        self.passes += passes

    @property
    def pass_s(self) -> float:
        return self.kernel_s / self.passes


class Calibration:
    """The mean pass of every paced phase of one run, for
    ``bench.calibration_s``."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def add(self, pacer: Pacer) -> float:
        """Record a pacer's mean pass; returns it."""
        self.samples.append(pacer.pass_s)
        return pacer.pass_s

    @property
    def median(self) -> float:
        return statistics.median(self.samples) if self.samples else 0.0


def scale_rate(raw: float, pass_s: float) -> float:
    """A rate taken while one pass took ``pass_s``, at the reference speed."""
    return raw * pass_s / REFERENCE_S


def scale_time(raw: float, pass_s: float) -> float:
    """A duration, restated at the reference speed."""
    return raw * REFERENCE_S / pass_s
