"""The in-process read: what ``query_colors`` (64 nodes) plus
``query_palette`` (one node) compute in the daemon, done through the
public methods of :class:`repro.dynamic.DynamicColoring`."""

from __future__ import annotations

import time

import numpy as np

READ_NODES = 64


def read_plan(rng: np.random.Generator, n: int, count: int):
    """``count`` reads: 64 node ids to look up plus one palette node."""
    return [
        (rng.integers(0, n, size=READ_NODES), int(rng.integers(0, n)))
        for _ in range(count)
    ]


def read_once(engine, nodes, node) -> bool:
    """One read; True when the reply is consistent: the colouring reads
    proper and complete, and ``node``'s colour is in its free palette."""
    colors = engine.colors[nodes]
    proper = engine.is_proper()
    complete = engine.is_complete()
    num_colors = engine.net.delta + 1
    held = engine.colors[engine.net.neighbors(node)]
    held = held[(held >= 0) & (held < num_colors)]
    free = np.setdiff1d(np.arange(num_colors, dtype=np.int64), held)
    return bool(proper and complete and colors.min() >= 0 and engine.colors[node] in free)


def timed_reads(engine, plan) -> tuple[list[float], int]:
    """Run ``plan``; returns (latencies in ms, failed reads)."""
    lat, failed = [], 0
    for nodes, node in plan:
        t0 = time.perf_counter()
        ok = read_once(engine, nodes, node)
        lat.append((time.perf_counter() - t0) * 1e3)
        failed += not ok
    return lat, failed
