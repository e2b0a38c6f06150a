"""E3b — the ACD sketch pipeline as a hot path (DESIGN.md §4).

Lemma 2.5's sketch layer is pure throughput: T b-bit minwise samples per
node, then a per-edge collision rate.  This bench tracks the bit-packed
SWAR engine against the unpacked (T × m) reference on the dense workload
the decomposition ISSUE profiles (n=4000, avg_degree=120) and appends the
measurement to ``BENCH_acd.json`` at the repo root.

Measurement protocol (matching ``bench_multitrial``): each rep is a fresh
network + full sketch-phase run; minima over reps are recorded.  The
tracked ``speedup`` compares the *similarity-estimation stage* — the part
the ``acd_sketch_engine`` knob controls; fingerprint hashing is shared by
both engines (one degree-sorted, sample-at-a-time kernel, see
``minwise_fingerprints``), so its seconds are recorded alongside,
together with the full ``acd/sketch`` phase wall-clock per engine.

Quick mode: ``REPRO_BENCH_ACD_N`` / ``REPRO_BENCH_ACD_DEG`` /
``REPRO_BENCH_ACD_REPS`` shrink the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

from _common import print_table
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.graphs.generators import gnp_graph
from repro.runner.benchtrack import append_entry
from repro.simulator.network import BroadcastNetwork

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO_ROOT / "BENCH_acd.json"

SAMPLES = 256
BITS = 2


def sketch_once(graph, engine: str, salt: int = 1):
    """One fresh sketch-phase run; returns (compute_s, estimate_s, est)."""
    net = BroadcastNetwork(graph)
    t0 = time.perf_counter()
    sketch = compute_sketches(net, SAMPLES, BITS, salt=salt, engine=engine)
    t1 = time.perf_counter()
    est = estimate_edge_similarity(net, sketch)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, est


@pytest.mark.benchmark(group="E3b-acd-sketch")
def test_e3b_sketch_engine_speedup_tracked(benchmark):
    """The tracked perf baseline for the ACD sketch phase: packed SWAR
    engine vs the unpacked (T × m) reference at n=4000, avg_degree=120.
    Appends fingerprint/estimate/phase seconds and the engine speedup to
    ``BENCH_acd.json``; CI re-measures, uploads the file, and fails when
    the benchmarked path fell back to the unpacked engine."""
    n = int(os.environ.get("REPRO_BENCH_ACD_N", "4000"))
    deg = float(os.environ.get("REPRO_BENCH_ACD_DEG", "120"))
    reps = int(os.environ.get("REPRO_BENCH_ACD_REPS", "3"))
    graph = gnp_graph(n, deg / n, seed=7)

    runs = {eng: [sketch_once(graph, eng) for _ in range(reps)] for eng in
            ("unpacked", "packed")}
    est_unpacked = runs["unpacked"][0][2]
    est_packed = runs["packed"][0][2]
    fp_s = {e: min(r[0] for r in runs[e]) for e in runs}
    est_s = {e: min(r[1] for r in runs[e]) for e in runs}
    phase_s = {e: min(r[0] + r[1] for r in runs[e]) for e in runs}
    speedup = est_s["unpacked"] / max(est_s["packed"], 1e-9)
    phase_speedup = phase_s["unpacked"] / max(phase_s["packed"], 1e-9)

    rows = [
        ("fingerprints+exchange (shared kernel)", f"{fp_s['packed']:.3f}"),
        ("estimate, unpacked (T×m reference)", f"{est_s['unpacked']:.3f}"),
        ("estimate, packed (SWAR words)", f"{est_s['packed']:.4f}"),
        ("estimate-stage speedup", f"{speedup:.1f}x"),
        ("full acd/sketch phase speedup", f"{phase_speedup:.1f}x"),
    ]
    print_table(
        f"E3b ACD sketch engines (n={n}, avg_degree={deg:g}, T={SAMPLES}, b={BITS})",
        ["path", "seconds"],
        rows,
    )

    identical = bool(np.array_equal(est_unpacked, est_packed))
    assert identical, "engines disagree — the SWAR reduction is broken"
    append_entry(
        TRAJECTORY,
        {
            "n": n,
            "avg_degree": deg,
            "family": "gnp",
            "samples": SAMPLES,
            "bits": BITS,
            "engine": "packed",
            "identical_estimates": identical,
            "fingerprint_s": round(fp_s["packed"], 4),
            "unpacked_estimate_s": round(est_s["unpacked"], 4),
            "packed_estimate_s": round(est_s["packed"], 4),
            "unpacked_phase_s": round(phase_s["unpacked"], 4),
            "packed_phase_s": round(phase_s["packed"], 4),
            "speedup": round(speedup, 2),
            "phase_speedup": round(phase_speedup, 2),
        },
        label=f"acd-sketch-n{n}-d{deg:g}",
    )
    # Generous sanity floor (CI hardware varies); the tracked trajectory
    # carries the real number — locally the estimate stage measures >10x.
    assert speedup >= 3.0
    benchmark.pedantic(
        lambda: sketch_once(graph, "packed"), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="E3b-acd-sketch")
def test_e3b_packed_advantage_grows_with_density(benchmark):
    """The packed engine's edge is per-edge work: ⌈T/32⌉ words instead of
    T fingerprint comparisons, so the gap widens as the graph densifies —
    the regime the ISSUE calls untouchable for the unpacked engine."""
    n = int(os.environ.get("REPRO_BENCH_ACD_N", "4000")) // 2
    rows = []
    speedups = []
    for deg in (20.0, 60.0, 120.0):
        graph = gnp_graph(n, deg / n, seed=3)
        eu = min(sketch_once(graph, "unpacked")[1] for _ in range(2))
        ep = min(sketch_once(graph, "packed")[1] for _ in range(2))
        speedups.append(eu / max(ep, 1e-9))
        rows.append((f"{deg:g}", f"{eu:.4f}", f"{ep:.4f}", f"{speedups[-1]:.1f}x"))
    print_table(
        f"E3b estimate seconds vs density (n={n})",
        ["avg_degree", "unpacked", "packed", "speedup"],
        rows,
    )
    assert speedups[-1] >= 2.0
    benchmark.pedantic(
        lambda: sketch_once(gnp_graph(n, 60.0 / n, seed=3), "packed"),
        rounds=1,
        iterations=1,
    )
