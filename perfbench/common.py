"""Shared pieces of the benchmark: sample statistics, the span recorder,
correctness bookkeeping, the memory high-water mark, the host-speed
probe and the host record.

Spans are recorded by the benchmark around calls into the program's
public API; the program's own phase timers (``phase_seconds``) are read
back from the public result objects and attached as child spans.  A
span's self time is its duration minus its children's, and that self
time is reported as the span's explicit unattributed remainder, so at
every level ``sum(children) + unattributed == parent``.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


TREE_LIMIT = 3
"""Spans of one name kept per level in the recorded span tree."""


class BenchFailure(Exception):
    """A correctness or determinism check failed: the run is invalid."""


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchFailure("no samples")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile ``p`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise BenchFailure("no samples")
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (k - lo))


def tail(values, p: float) -> float:
    """The workload's fixed tail percentile; ``p == 100`` is the maximum."""
    return float(max(values)) if p >= 100 else percentile(values, p)


# ----------------------------------------------------------------------
# Span recorder
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float | None = None
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(c.seconds for c in self.children)


class Tracer:
    """In-memory span tree.  Disabled, every call is a no-op and
    :meth:`span` yields ``None``."""

    # Phase timers may read a few microseconds past the span that holds
    # them (each timer has its own clock reads); more than this fails.
    SLACK_S = 2e-3

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(name=name, layer=layer, start=time.perf_counter(), parent=parent)
        (parent.children if parent else self.roots).append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, layer: str, start: float, end: float,
               parent: Span | None = None) -> Span:
        """Add a span whose times were taken elsewhere (a program phase
        timer, or a served request's timestamps)."""
        sp = Span(name=name, layer=layer, start=start, end=end, parent=parent)
        (parent.children if parent else self.roots).append(sp)
        return sp

    def attach(self, parent: Span | None, timers: dict[str, tuple[str, float]]) -> None:
        """Hang program phase timers under ``parent`` as derived children:
        ``timers`` maps child name to ``(layer, seconds)``."""
        if parent is None:
            return
        t = parent.start
        for name, (layer, secs) in timers.items():
            self.record(name, layer, t, t + secs, parent)
            t += secs

    def check(self) -> None:
        """Every level must account for its parent: no remainder below
        ``-SLACK_S``."""
        for sp in self.walk():
            if sp.children and sp.self_seconds < -self.SLACK_S:
                raise BenchFailure(
                    f"span {sp.name}: children sum to "
                    f"{sum(c.seconds for c in sp.children):.6f}s, more than "
                    f"the span's {sp.seconds:.6f}s"
                )

    def walk(self):
        todo = list(self.roots)
        while todo:
            sp = todo.pop()
            yield sp
            todo.extend(sp.children)

    def tree(self) -> list[dict]:
        """JSON view: the first ``TREE_LIMIT`` spans of each name at
        each level, with duration and unattributed remainder in ms."""

        def view(sp: Span) -> dict:
            out = {
                "name": sp.name,
                "layer": sp.layer,
                "ms": round(sp.seconds * 1e3, 4),
            }
            if sp.children:
                out["unattributed_ms"] = round(sp.self_seconds * 1e3, 4)
                out["children"] = trimmed(sp.children)
            return out

        def trimmed(spans: list[Span]) -> list[dict]:
            seen: dict[str, int] = {}
            out = []
            for sp in spans:
                seen[sp.name] = seen.get(sp.name, 0) + 1
                if seen[sp.name] <= TREE_LIMIT:
                    out.append(view(sp))
            return out

        return trimmed(self.roots)


# ----------------------------------------------------------------------
# Result of one run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def on_reference_clock(self, probe: "HostProbe") -> None:
        """Scale every time metric by ``probe.scale()``, keeping the raw
        wall-clock values in the record (``raw_metrics``)."""
        self.details["raw_metrics"] = {k: v for k, (v, _) in self.metrics.items()}
        scale = probe.scale()
        for name, (value, unit) in self.metrics.items():
            if unit in ("s", "ms"):
                self.metrics[name] = (value * scale, unit)


# ----------------------------------------------------------------------
# Memory, host speed and the host record
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark from its
    current resident set (Linux ``clear_refs``), so the next
    :func:`peak_rss_mb` covers only the work done from here on."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchFailure("no VmHWM in /proc/self/status")


def host_record() -> dict:
    """Where the numbers were taken: ``benchtrack.host_info()`` plus the
    numpy version and the usable cpu count (``nproc``)."""
    import numpy as np

    from repro.runner.benchtrack import host_info

    return {
        **host_info(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class HostProbe:
    """How fast this host was while the run measured.

    A worker process (``probe.py``) times two fixed numpy kernels (one
    memory bound, one call-overhead bound) whenever :meth:`tick` asks,
    while the benchmark waits for the answer.  The worker calls no program
    code and shares no memory with the program, so nothing the program
    does to its own process moves the probe.

    On a shared host the speed of everything drifts by ±20% over
    minutes, and the program's times drift with the probe's.
    :meth:`scale` is the factor that puts a run's times on the
    reference host: ``REF_MS`` over the probe's median.
    """

    REF_MS = 40.0
    """The probe's median on the host the bounds were set on (2-core
    x86-64 Xeon, numpy 2.4)."""

    EVERY_S = 1.0
    """Least time between two probes unless a probe is forced."""

    def __init__(self) -> None:
        import subprocess
        import sys
        from pathlib import Path

        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )
        self.samples: list[float] = []
        self._last = -1e9
        self._ask()  # the first kernel run faults its pages in

    def _ask(self) -> float:
        self._proc.stdin.write("\n")
        line = self._proc.stdout.readline()
        if not line:
            raise BenchFailure("host probe worker exited")
        return float(line)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last < self.EVERY_S:
            return
        self.samples.append(self._ask())
        self._last = time.perf_counter()

    def close(self) -> None:
        """End the worker and wait for it."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except Exception:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def median_ms(self) -> float:
        return median(self.samples)

    def scale(self) -> float:
        return self.REF_MS / self.median_ms()

