"""Per-layer metric names and how program phase timers map onto them.

Layers are ``src/repro`` modules.  Every workload reports every name;
a layer the workload never calls reads 0.  Times are seconds (or ms /
µs where the name says so) per operation: per full colouring for the
static pipeline layers (for ``churn-1pct`` that is the initial
colouring inside set-up), per update batch for the dynamic and delta
layers.
"""

from __future__ import annotations

# Static pipeline phase timer -> per-layer metric.
PHASE_METRIC = {
    "acd/sketch": "hashing.sketch_s",
    "setup": "decomposition.acd_s",
    "sparse": "core.multitrial_s",
    "outliers": "core.multitrial_s",
    "inliers": "core.multitrial_s",
    "sct": "core.sct_s",
    "putaside-select": "core.putaside_s",
    "putaside": "core.putaside_s",
    "slack": "core.slack_s",
    "matching": "core.matching_s",
    "cleanup": "core.cleanup_s",
}
OTHER_PHASES = "core.other_phases_s"

# Dynamic engine phase timer -> per-layer metric.
BATCH_PHASE_METRIC = {
    "dynamic/delta": "simulator.apply_delta_s",
    "dynamic/detect": "dynamic.detect_s",
    "dynamic/repair": "dynamic.repair_s",
    "dynamic/fallback": "dynamic.fallback_s",
}

# Round counts are reported per phase of Algorithm 1; sub-phase rounds
# ("sct/permute", "acd/repair", "setup/aggregate") fold into their phase,
# except the sketch exchange, which is the hashing layer's own.
ROUND_PHASES = (
    "acd/sketch", "setup", "slack", "matching", "putaside-select", "sparse",
    "outliers", "sct", "inliers", "putaside", "cleanup", "other",
)


def round_phase(phase: str) -> str:
    if phase in ROUND_PHASES:
        return phase
    head = phase.split("/")[0]
    head = "setup" if head == "acd" else head
    return head if head in ROUND_PHASES else "other"


def round_metric(phase: str) -> str:
    return "core.rounds." + phase.replace("/", "_").replace("-", "_")


# name -> unit, in report order.
PER_LAYER: dict[str, str] = {
    "graphs.generate_s": "s",
    "simulator.build_s": "s",
    "simulator.apply_delta_s": "s",
    "hashing.sketch_s": "s",
    "decomposition.acd_s": "s",
    "core.multitrial_s": "s",
    "core.sct_s": "s",
    "core.putaside_s": "s",
    "core.slack_s": "s",
    "core.matching_s": "s",
    "core.cleanup_s": "s",
    OTHER_PHASES: "s",
    "core.unattributed_s": "s",
    **{round_metric(p): "count" for p in ROUND_PHASES},
    "dynamic.apply_batch_s": "s",
    "dynamic.detect_s": "s",
    "dynamic.repair_s": "s",
    "dynamic.fallback_s": "s",
    "dynamic.unattributed_s": "s",
    "dynamic.is_proper_ms": "ms",
    "dynamic.read_p50_ms": "ms",
    "dynamic.read_tail_ms": "ms",
    "dynamic.conflicts": "count",
    "dynamic.recolored": "count",
    "dynamic.repair_rounds": "count",
    "dynamic.fallbacks": "count",
    "dynamic.recolored_per_conflict": "ratio",
    "dynamic.recolored_frac": "ratio",
    "serve.setup_s": "s",
    "serve.write_p50_ms": "ms",
    "serve.write_tail_ms": "ms",
    "serve.read_p50_ms": "ms",
    "serve.read_tail_ms": "ms",
    "serve.engine_apply_ms": "ms",
    "serve.overhead_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.encode_us": "us",
    "serve.decode_us": "us",
    "serve.coalesce_ratio": "ratio",
    "serve.queue_high_water": "count",
    "serve.rejected": "count",
    "serve.generator_lag_ms": "ms",
    "serve.max_rate_rps": "1/s",
    "bench.trace_overhead_pct": "%",
    "bench.host_probe_ms": "ms",
}


def colour_timers(phase_seconds: dict[str, float]) -> dict[str, tuple[str, float]]:
    """Phase timers of one colouring as ``{phase: (layer, seconds)}``."""
    out = {}
    for phase, secs in phase_seconds.items():
        metric = PHASE_METRIC.get(phase, OTHER_PHASES)
        out[phase] = (metric.split(".")[0], float(secs))
    return out


def colour_layers(phase_seconds, phase_rounds, unattributed_s) -> dict[str, float]:
    """Per-layer values of one full colouring."""
    out = {name: 0.0 for name in PER_LAYER if name.split(".")[0] in ("hashing", "decomposition", "core")}
    for phase, secs in phase_seconds.items():
        out[PHASE_METRIC.get(phase, OTHER_PHASES)] += float(secs)
    for phase, rounds in phase_rounds.items():
        out[round_metric(round_phase(phase))] += float(rounds)
    out["core.unattributed_s"] = float(unattributed_s)
    return out
