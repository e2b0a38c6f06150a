"""``static-sparse`` and ``static-dense``: colour graphs from scratch with
:class:`repro.core.algorithm.BroadcastColoring`, again and again.

A seed names a few graphs of one family (the per-graph counts vary with
the graph, and averaging over several keeps them steady from seed to
seed).  One write is ``BroadcastColoring(graph, cfg).run()``: the
constructor, which builds the :class:`BroadcastNetwork`, is set-up;
``.run()`` is the write.  Graphs are coloured in turn until the time is
spent.  Colouring the same graph with the same config again must return
the same colours, rounds, bits and colour count; the first colouring of
each graph is audited once the timed loop is over.
"""

from __future__ import annotations

import time

import numpy as np

import layers
from common import BenchFailure, Outcome, Tracer, median, peak_rss_mb, reset_peak_rss, tail

SPECS = {
    "static-sparse": {"family": "geometric", "n": 30_000, "avg_degree": 20.0, "graphs": 2},
    "static-dense": {"family": "planted", "n": 5_000, "avg_degree": 40.0, "graphs": 5},
}
MIN_PASSES = 2
"""Every graph is coloured at least this often per run (once per half
in a traced run), so every run checks a repetition."""
WRITE_TAIL_P = 75.0
"""With 15-25 writes a run no percentile has 10 samples beyond it.  At
p90 (2 samples beyond) the static-dense tail moved by 19% between two
ten-seed sets; p75 keeps 4-6 samples beyond it."""


def _counts(res) -> tuple:
    return (int(res.rounds_total), int(res.total_bits), int(res.max_message_bits),
            int(res.num_colors_used))


class _Graph:
    """One input graph with its config and its first colouring."""

    def __init__(self, spec: dict, seed: int):
        from repro.config import ColoringConfig
        from repro.graphs.families import make_graph

        t0 = time.perf_counter()
        self.graph = make_graph(spec["family"], spec["n"], spec["avg_degree"], seed)
        self.generate_s = time.perf_counter() - t0
        self.cfg = ColoringConfig.practical(seed=seed)
        self.colors: np.ndarray | None = None
        self.counts: tuple | None = None

    def check(self, res) -> None:
        """The program's own verdict, and equality with the first
        colouring of this graph."""
        if not (res.proper and res.complete):
            raise BenchFailure("static colouring reports itself improper or incomplete")
        if self.colors is None:
            self.colors, self.counts = res.colors.copy(), _counts(res)
        elif not (np.array_equal(res.colors, self.colors) and _counts(res) == self.counts):
            raise BenchFailure("repeated colouring of one seed differs")

    def audit(self) -> dict:
        """The first colouring against the graph, with an audit network
        built here and dropped on return."""
        from repro.analysis.verify import verify_coloring
        from repro.simulator.network import BroadcastNetwork

        net = BroadcastNetwork(self.graph)
        audit = verify_coloring(net, self.colors, net.delta + 1)
        if not (audit["proper"] and audit["complete"] and audit["within_palette"]):
            raise BenchFailure(f"static colouring fails the audit: {audit}")
        return {"n": int(net.n), "m": int(net.m), "delta": int(net.delta),
                "rounds": self.counts[0], "colors": self.counts[3]}


def _colour_loop(graphs, budget_s, min_passes, tracer, probe) -> list[dict]:
    """Colour the graphs in turn until ``budget_s`` is spent and each
    graph was coloured ``min_passes`` times."""
    from repro.core.algorithm import BroadcastColoring

    rows = []
    deadline = time.perf_counter() + budget_s
    passes = 0
    while passes < min_passes or time.perf_counter() < deadline:
        for g in graphs:
            with tracer.span("static.op", "bench") as op:
                with tracer.span("simulator.build", "simulator"):
                    t0 = time.perf_counter()
                    algo = BroadcastColoring(g.graph, g.cfg)
                    t1 = time.perf_counter()
                with tracer.span("core.run", "core") as run_span:
                    res = algo.run()
                    t2 = time.perf_counter()
                del algo
                tracer.attach(run_span, layers.colour_timers(res.phase_seconds))
                g.check(res)
            row = {"setup_s": t1 - t0, "write_s": t2 - t1}
            if op is not None:
                row["layers"] = {
                    "simulator.build_s": t1 - t0,
                    **layers.colour_layers(res.phase_seconds, res.phase_rounds,
                                           run_span.self_seconds),
                }
            rows.append(row)
            del res
            probe.tick(force=True)
        passes += 1
    return rows


def run(name: str, seed: int, seconds: float, trace: bool, probe) -> Outcome:
    spec = SPECS[name]
    graphs = [_Graph(spec, seed * 100 + k) for k in range(spec["graphs"])]

    out = Outcome()
    if trace:
        tracer = Tracer(True)
        plain = _colour_loop(graphs, seconds / 2, 1, Tracer(False), probe)
        rows = _colour_loop(graphs, seconds / 2, 1, tracer, probe)
        tracer.check()
        out.details["trace"] = tracer.tree()
    else:
        reset_peak_rss()
        rows = _colour_loop(graphs, seconds, MIN_PASSES, Tracer(False), probe)
        peak_mb = peak_rss_mb()

    writes = [r["write_s"] for r in rows]
    out.attempted = len(rows) + (len(plain) if trace else 0)
    out.details.update(
        graphs=[g.audit() for g in graphs],
        samples={"writes": len(writes)},
        write_tail_percentile=WRITE_TAIL_P,
    )
    firsts = [g.counts for g in graphs]
    if not trace:
        out.put("setup_s", median(r["setup_s"] for r in rows), "s")
        out.put("write_p50_ms", median(writes) * 1e3, "ms")
        out.put("write_tail_ms", tail(writes, WRITE_TAIL_P) * 1e3, "ms")
        out.put("rounds", float(np.mean([c[0] for c in firsts])), "count")
        out.put("total_mbits", median(c[1] for c in firsts) / 1e6, "Mbit")
        out.put("max_message_bits", max(c[2] for c in firsts), "bits")
        out.put("colors_used", float(np.mean([c[3] for c in firsts])), "count")
        out.put("peak_rss_mb", peak_mb, "MB")
        out.on_reference_clock(probe)
        return out

    per_layer = {name: 0.0 for name in layers.PER_LAYER}
    per_layer["graphs.generate_s"] = median(g.generate_s for g in graphs)
    for key in rows[0]["layers"]:
        per_layer[key] = median(r["layers"][key] for r in rows)
    plain_w = median(r["write_s"] for r in plain)
    per_layer["bench.trace_overhead_pct"] = (median(writes) - plain_w) / plain_w * 100
    for key, value in per_layer.items():
        out.put(key, value, layers.PER_LAYER[key])
    return out
