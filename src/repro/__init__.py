"""repro — a reproduction of "Coloring Fast with Broadcasts" (SPAA 2023).

A (Δ+1)-coloring library for the BCONGEST model (every node broadcasts
one O(log n)-bit message per round) built around a round-accurate
simulator.  Quickstart:

>>> from repro import BroadcastColoring
>>> from repro.graphs import gnp_graph
>>> result = BroadcastColoring(gnp_graph(1000, 0.02, seed=7)).run()
>>> assert result.proper and result.complete
>>> result.rounds_total  # doctest: +SKIP

Public surface:

* :class:`repro.BroadcastColoring` / :class:`repro.ColoringResult` — the
  paper's algorithm (Theorem 1).
* :func:`repro.bcstream.bcstream_coloring` — the streaming variant
  (Theorem 2).
* :class:`repro.ColoringConfig` — every constant of the paper,
  ``paper()`` and ``practical()`` presets.
* :mod:`repro.dynamic` — churn workloads + the incremental recoloring
  engine (maintain a (Δ+1)-coloring while the graph changes).
* :mod:`repro.shard` — partitioned coloring: k shard workers + cut
  reconciliation.
* :mod:`repro.serve` — the streaming coloring service: ``repro serve``
  daemon, wire protocol (docs/PROTOCOL.md), snapshots, client.
* :mod:`repro.obs` — the unified telemetry plane: span tracer, metrics
  registry, Prometheus exposition and Perfetto trace export.
* :mod:`repro.graphs` — workload generators.
* :mod:`repro.baselines` — greedy / Johansson / Luby comparators.
* :mod:`repro.decomposition` — the ε-almost-clique decomposition.
* :mod:`repro.analysis` — verification and growth-shape fitting.
"""

from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring, ColoringResult
from repro.core.state import ColoringState
from repro.dynamic import ChurnSchedule, DynamicColoring, UpdateBatch
from repro.simulator.network import BroadcastNetwork

__version__ = "1.5.0"

__all__ = [
    "BroadcastColoring",
    "ColoringResult",
    "ColoringConfig",
    "ColoringState",
    "BroadcastNetwork",
    "ChurnSchedule",
    "DynamicColoring",
    "UpdateBatch",
    "__version__",
]
