"""Set-up and batch application of the in-process dynamic engine, with
the per-layer breakdown read from its phase timers (shared by
``churn-1pct`` and the in-process baseline of the served mix)."""

from __future__ import annotations

import time

import layers
from common import median

IS_PROPER_CALLS = 30


def setup(initial, cfg, tracer):
    """``BroadcastNetwork`` plus ``DynamicColoring`` (network build and
    initial colouring).  Returns ``(engine, seconds, layer values or
    None when not tracing)``."""
    from repro.dynamic.engine import DynamicColoring
    from repro.simulator.network import BroadcastNetwork

    with tracer.span("engine.setup", "bench"):
        t0 = time.perf_counter()
        with tracer.span("simulator.build", "simulator") as build_span:
            net = BroadcastNetwork(initial)
        with tracer.span("dynamic.init", "dynamic") as init_span:
            engine = DynamicColoring(net, cfg)
        seconds = time.perf_counter() - t0
    if init_span is None:
        return engine, seconds, None
    tracer.attach(init_span, layers.colour_timers(net.metrics.phase_seconds))
    values = {
        "simulator.build_s": build_span.seconds,
        **layers.colour_layers(
            net.metrics.phase_seconds,
            {k: v.rounds for k, v in net.metrics.phases.items() if k != "total"},
            init_span.self_seconds,
        ),
    }
    return engine, seconds, values


def apply(engine, batch, tracer):
    """One ``apply_batch``.  Returns ``(report, seconds, breakdown or
    None when not tracing)``."""
    metrics = engine.net.metrics
    if tracer.enabled:
        before = dict(metrics.phase_seconds)
        repair_before = metrics.phases["dynamic/repair"].rounds
    with tracer.span("dynamic.apply_batch", "dynamic") as sp:
        t0 = time.perf_counter()
        rep = engine.apply_batch(batch)
        seconds = time.perf_counter() - t0
    if sp is None:
        return rep, seconds, None
    timers = {
        name: ("simulator" if name == "dynamic/delta" else "dynamic",
               metrics.phase_seconds[name] - before.get(name, 0.0))
        for name in layers.BATCH_PHASE_METRIC
        if metrics.phase_seconds.get(name, 0.0) != before.get(name, 0.0)
    }
    tracer.attach(sp, timers)
    row = {layers.BATCH_PHASE_METRIC[k]: v for k, (_, v) in timers.items()}
    row["dynamic.apply_batch_s"] = sp.seconds
    row["dynamic.unattributed_s"] = sp.self_seconds
    row["repair_rounds"] = metrics.phases["dynamic/repair"].rounds - repair_before
    return rep, seconds, row


def max_batch_bits(engine) -> int:
    """Largest broadcast of any batch so far (the dynamic phases only,
    not the initial colouring)."""
    return max(
        (st.max_message_bits for name, st in engine.net.metrics.phases.items()
         if name.startswith("dynamic/")),
        default=0,
    )


def is_proper_ms(engine) -> float:
    """Median time of the public ``is_proper`` on the engine's graph."""
    samples = []
    for _ in range(IS_PROPER_CALLS):
        t = time.perf_counter()
        engine.is_proper()
        samples.append((time.perf_counter() - t) * 1e3)
    return median(samples)


def batch_layers(rows, reports) -> dict[str, float]:
    """Per-batch dynamic layer values from traced ``apply`` calls."""
    out = {
        key: median(row.get(key, 0.0) for row in rows)
        for key in ("dynamic.apply_batch_s", "dynamic.unattributed_s",
                    *layers.BATCH_PHASE_METRIC.values())
    }
    conflicts = sum(r.conflicts for r in reports)
    recolored = sum(r.recolored for r in reports)
    out["dynamic.conflicts"] = conflicts / len(reports)
    out["dynamic.recolored"] = recolored / len(reports)
    out["dynamic.repair_rounds"] = sum(row["repair_rounds"] for row in rows) / len(rows)
    out["dynamic.fallbacks"] = float(sum(r.mode == "fallback" for r in reports))
    out["dynamic.recolored_per_conflict"] = recolored / max(conflicts, 1)
    out["dynamic.recolored_frac"] = sum(r.recolored / max(r.active, 1) for r in reports) / len(reports)
    return out
