"""``churn-1pct``: keep a colouring proper in process while 1% of the
edges change per batch.

Set-up is ``DynamicColoring`` on the initial graph (network build plus
the initial colouring).  One write is one ``apply_batch``; the stream is
50 batches of 1% each (``inputs.ChurnStream``).  After each write the
reader queries the maintained colouring three times.  Engines are set up
from the same seed and fed the whole stream, one after another, until
the time is spent; their reports and final colours must agree batch for
batch.  The reads are measured per layer only (``dynamic.read_*``).
The traced run also drives ``repro serve`` on the same graph
(``served``) for the serve layer's metrics.
"""

from __future__ import annotations

import time

import numpy as np

import engine as eng
import layers
import served
from common import BenchFailure, Outcome, Tracer, median, peak_rss_mb, reset_peak_rss, tail
from inputs import ChurnStream, rng_for
from reads import read_plan, timed_reads

SPEC = {"family": "geometric", "n": 20_000, "avg_degree": 10.0,
        "batches": 50, "total_fraction": 0.5}
MIN_ENGINES = 3
READS_PER_WRITE = 3
WRITE_TAIL_P = 90.0
READ_TAIL_P = 90.0


def _row(rep) -> tuple:
    return (rep.mode, rep.conflicts, rep.recolored, rep.rounds, rep.total_bits,
            rep.colors_used, rep.delta)


def _engine_run(stream, cfg, tracer, rng, probe) -> dict:
    """Set up one engine and feed it the whole stream."""
    engine, setup_s, init_layers = eng.setup(stream.initial, cfg, tracer)
    rec = {"setup_s": setup_s, "init_layers": init_layers, "writes": [],
           "reads": [], "bad": 0, "reports": [], "rows": [], "engine": engine}
    for i in range(stream.chunks):
        rep, seconds, row = eng.apply(engine, stream.batch(i), tracer)
        if not (rep.proper and rep.complete and rep.colors_used <= rep.delta + 1):
            raise BenchFailure(f"batch {rep.index} breaks the invariant: {rep.as_dict()}")
        rec["writes"].append(seconds)
        rec["reports"].append(rep)
        if row is not None:
            rec["rows"].append(row)
        with tracer.span("dynamic.reads", "dynamic"):
            lat, bad = timed_reads(engine, read_plan(rng, engine.n, READS_PER_WRITE))
        rec["reads"] += lat
        rec["bad"] += bad
        probe.tick()
    rec["max_bits"] = eng.max_batch_bits(engine)
    rec["colors"] = engine.colors.copy()
    return rec


def _engines(stream, cfg, budget_s, least, tracer, rng, probe) -> list[dict]:
    deadline = time.perf_counter() + budget_s
    recs = []
    while len(recs) < least or time.perf_counter() < deadline:
        if recs:
            del recs[-1]["engine"]  # keep one engine alive at a time
        recs.append(_engine_run(stream, cfg, tracer, rng, probe))
    return recs


def _check(stream, recs) -> None:
    """Audit every final colouring against the edge set rebuilt from the
    stream alone; engines from one seed must agree batch for batch."""
    from repro.analysis.verify import verify_coloring
    from repro.simulator.network import BroadcastNetwork

    ref = BroadcastNetwork(stream.graph_after(stream.chunks))
    base = recs[0]
    for rec in recs:
        audit = verify_coloring(ref, rec["colors"], ref.delta + 1)
        if not (audit["proper"] and audit["complete"] and audit["within_palette"]):
            raise BenchFailure(f"final churn colouring fails the audit: {audit}")
        if ([_row(r) for r in rec["reports"]] != [_row(r) for r in base["reports"]]
                or rec["max_bits"] != base["max_bits"]
                or not np.array_equal(rec["colors"], base["colors"])):
            raise BenchFailure("repeated churn runs of one seed differ")


def run(name: str, seed: int, seconds: float, trace: bool, probe) -> Outcome:
    from repro.config import ColoringConfig

    t0 = time.perf_counter()
    stream = ChurnStream(SPEC["family"], SPEC["n"], SPEC["avg_degree"], seed,
                         SPEC["batches"], SPEC["total_fraction"])
    generate_s = time.perf_counter() - t0
    cfg = ColoringConfig.practical(seed=seed)
    rng = rng_for(seed, "reads")

    if trace:
        tracer = Tracer(True)
        plain = _engines(stream, cfg, seconds / 2, 1, Tracer(False), rng, probe)
        traced = _engines(stream, cfg, seconds / 2, 1, tracer, rng, probe)
        serve_values, serve_details = served.served_layers(seed, seconds, tracer)
        tracer.check()
        recs = plain + traced
    else:
        reset_peak_rss()
        recs = _engines(stream, cfg, seconds, MIN_ENGINES, Tracer(False), rng, probe)
        peak_mb = peak_rss_mb()
    _check(stream, recs)

    out = Outcome()
    out.attempted = sum(len(r["writes"]) + len(r["reads"]) for r in recs)
    out.failed = sum(r["bad"] for r in recs)
    counted = recs[0]["reports"]
    writes = [w for r in recs for w in r["writes"]]
    reads = [x for r in recs for x in r["reads"]]
    net = recs[-1]["engine"].net
    out.details.update(
        graph={"n": int(net.n), "m": int(net.m), "delta": int(net.delta)},
        batch_edges=int(len(stream.ins[0]) + len(stream.dele[0])),
        samples={"engines": len(recs), "writes": len(writes), "reads": len(reads)},
        write_tail_percentile=WRITE_TAIL_P,
        fallbacks=sum(r.mode == "fallback" for rec in recs for r in rec["reports"]),
    )
    if not trace:
        out.put("setup_s", median(r["setup_s"] for r in recs), "s")
        out.put("write_p50_ms", median(writes) * 1e3, "ms")
        out.put("write_tail_ms", tail(writes, WRITE_TAIL_P) * 1e3, "ms")
        out.put("rounds", float(np.mean([r.rounds for r in counted])), "count")
        out.put("total_mbits", median(r.total_bits for r in counted) / 1e6, "Mbit")
        out.put("max_message_bits", recs[0]["max_bits"], "bits")
        out.put("colors_used", max(r.colors_used for r in counted), "count")
        out.put("peak_rss_mb", peak_mb, "MB")
        out.on_reference_clock(probe)
        return out

    out.details["trace"] = tracer.tree()
    out.details["served"] = serve_details
    out.attempted += serve_details["requests"]
    per_layer = {name: 0.0 for name in layers.PER_LAYER}
    per_layer.update(serve_values)
    per_layer["graphs.generate_s"] = generate_s
    for key in traced[0]["init_layers"]:
        per_layer[key] = median(r["init_layers"][key] for r in traced)
    per_layer.update(eng.batch_layers([row for r in traced for row in r["rows"]],
                                      [rep for r in traced for rep in r["reports"]]))
    per_layer["dynamic.is_proper_ms"] = eng.is_proper_ms(traced[-1]["engine"])
    traced_reads = [x for r in traced for x in r["reads"]]
    per_layer["dynamic.read_p50_ms"] = median(traced_reads)
    per_layer["dynamic.read_tail_ms"] = tail(traced_reads, READ_TAIL_P)
    plain_w = median(w for r in plain for w in r["writes"])
    traced_w = median(w for r in traced for w in r["writes"])
    per_layer["bench.trace_overhead_pct"] = (traced_w - plain_w) / plain_w * 100
    for key, value in per_layer.items():
        out.put(key, value, layers.PER_LAYER[key])
    return out
