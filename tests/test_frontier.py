"""Frontier-scoped round kernels and delta-scoped conflict detection.

Every per-round kernel gathers only its frontier's CSR rows
(:meth:`BroadcastNetwork.frontier_edges`), and the dynamic engine checks
only a batch's inserted edges for new conflicts.  These tests pin both
against full-scan references kept here as oracles: the frontier helper
against the masked edge arrays, delta-scoped detection against
:func:`conflict_victims` on the whole CSR, ``adopt``'s error message
against the full-scan propriety check, the warm-start precondition, and
the memory locality of a small repair on a large graph.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import greedy_coloring
from repro.config import ColoringConfig
from repro.core.state import ColoringState, ImproperColoring
from repro.dynamic import DynamicColoring, UpdateBatch, conflict_victims
from repro.dynamic.engine import _palette_sizes, conflict_repair
from repro.graphs.families import make_churn, make_graph
from repro.serve.snapshot import restore_engine, save_snapshot
from repro.shard.engine import ShardedColoring
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


@st.composite
def graphs(draw, max_n=40):
    """Random graphs with isolated nodes and, optionally, a hub adjacent
    to every other node."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return BroadcastNetwork((n, np.empty((0, 2), dtype=np.int64)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    if draw(st.booleans()):
        hub = draw(st.integers(0, n - 1))
        edges += [(hub, v) for v in range(n) if v != hub]
    return BroadcastNetwork((n, edges))


def frontier_reference(net, nodes):
    mask = np.zeros(net.n, dtype=bool)
    mask[nodes] = True
    k = mask[net.edge_src]
    return net.edge_src[k], net.indices[k]


# ----------------------------------------------------------------------
# BroadcastNetwork.frontier_edges
# ----------------------------------------------------------------------
class TestFrontierEdges:
    @settings(max_examples=60, deadline=None)
    @given(net=graphs(), data=st.data())
    def test_equals_masked_edge_arrays(self, net, data):
        pick = data.draw(
            st.sampled_from(["empty", "all", "random"]), label="frontier"
        )
        if pick == "empty":
            nodes = np.empty(0, dtype=np.int64)
        elif pick == "all":
            nodes = np.arange(net.n, dtype=np.int64)
        else:
            flags = data.draw(st.lists(st.booleans(), min_size=net.n, max_size=net.n))
            nodes = np.flatnonzero(np.asarray(flags, dtype=bool)).astype(np.int64)
        src, dst = net.frontier_edges(nodes)
        ref_src, ref_dst = frontier_reference(net, nodes)
        assert src.dtype == np.int64 and dst.dtype == np.int64
        np.testing.assert_array_equal(src, ref_src)
        np.testing.assert_array_equal(dst, ref_dst)

    def test_isolated_nodes_and_hub(self):
        # Node 0 is a hub, 5 and 6 are isolated.
        net = BroadcastNetwork((7, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]))
        src, dst = net.frontier_edges(np.array([0, 5, 6]))
        assert src.tolist() == [0, 0, 0, 0]
        assert dst.tolist() == [1, 2, 3, 4]
        src, dst = net.frontier_edges(np.array([5, 6]))
        assert src.size == 0 and dst.size == 0


# ----------------------------------------------------------------------
# Delta-scoped conflict detection
# ----------------------------------------------------------------------
def full_scan_conflicts(engine, num_colors):
    """The reference detector: victims of every monochromatic edge of the
    whole CSR plus the out-of-palette vector."""
    ref = conflict_victims(
        engine.net,
        engine.colors,
        policy=engine.cfg.conflict_victim,
        num_colors=num_colors,
    )
    return ref | (engine.active & (engine.colors >= num_colors))


@st.composite
def batch_streams(draw, n, steps):
    """Per step: raw random inserts/deletes plus arrival/departure draws
    (resolved against the live active set when the batch is built)."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    out = []
    for _ in range(steps):
        out.append(
            (
                draw(st.lists(pair, max_size=8)),
                draw(st.lists(pair, max_size=8)),
                draw(st.lists(st.integers(0, n - 1), max_size=3)),
                draw(st.lists(st.integers(0, n - 1), max_size=3)),
            )
        )
    return out


class TestDeltaScopedDetection:
    @pytest.mark.parametrize("policy", ["id", "slack"])
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(6, 30),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_equals_full_scan(self, policy, n, seed, data):
        rng = np.random.default_rng(seed)
        und = rng.integers(0, n, size=(2 * n, 2))
        net = BroadcastNetwork((n, und))
        cfg = ColoringConfig.practical(seed=seed, conflict_victim=policy)
        engine = DynamicColoring(
            (n, net.undirected_edges()), cfg,
            initial_colors=greedy_coloring(net),
        )
        checked = []
        detect = engine._detect_conflicts

        def detect_and_compare(batch, num_colors):
            got = detect(batch, num_colors)
            np.testing.assert_array_equal(got, full_scan_conflicts(engine, num_colors))
            checked.append(int(got.sum()))
            return got

        engine._detect_conflicts = detect_and_compare
        for ins, dels, arr, dep in data.draw(batch_streams(n, 4)):
            active = engine.active
            arrivals = [v for v in arr if not active[v]]
            departures = [v for v in dep if active[v] and v not in arrivals]
            report = engine.apply_batch(
                UpdateBatch(
                    insert_edges=np.asarray(ins, dtype=np.int64).reshape(-1, 2),
                    delete_edges=np.asarray(dels, dtype=np.int64).reshape(-1, 2),
                    arrivals=arrivals,
                    departures=departures,
                )
            )
            assert report.proper
        assert len(checked) == 4

    @pytest.mark.parametrize("policy", ["id", "slack"])
    def test_equals_full_scan_on_mobile_churn(self, policy):
        """Departures, arrivals and Δ swings from a real churn family."""
        sched = make_churn("mobile", 300, 10.0, seed=4, batches=8)
        cfg = ColoringConfig.practical(seed=2, conflict_victim=policy)
        engine = DynamicColoring(sched, cfg)
        detect = engine._detect_conflicts
        seen = []

        def detect_and_compare(batch, num_colors):
            got = detect(batch, num_colors)
            np.testing.assert_array_equal(got, full_scan_conflicts(engine, num_colors))
            seen.append(int(got.sum()))
            return got

        engine._detect_conflicts = detect_and_compare
        engine.run(sched)
        assert len(seen) == 8 and sum(seen) > 0

    def test_palette_sizes_scoped_to_endpoints(self):
        net = BroadcastNetwork(make_graph("gnp", 300, 10.0, seed=5))
        colors = greedy_coloring(net)
        colors[::7] = -1
        num_colors = net.delta + 1
        state = ColoringState(net, num_colors=num_colors)
        state.colors = colors
        full = state.palette_sizes()
        np.testing.assert_array_equal(
            _palette_sizes(net, colors, num_colors, only=np.arange(net.n)), full
        )
        only = np.array([0, 3, 17, 150, 299])
        scoped = _palette_sizes(net, colors, num_colors, only=only)
        np.testing.assert_array_equal(scoped[only], full[only])


# ----------------------------------------------------------------------
# ColoringState.adopt over the batch's own rows
# ----------------------------------------------------------------------
def adopt_reference_error(state, nodes, new_colors):
    """The full-scan propriety check (every directed edge whose source is
    in the batch, in CSR order): the message ``adopt`` must raise, or
    None when the batch is proper."""
    proposal = state.colors.copy()
    proposal[nodes] = new_colors
    touched = np.zeros(state.n, dtype=bool)
    touched[nodes] = True
    src, dst = state.net.edge_src, state.net.indices
    bad = touched[src] & (proposal[src] >= 0) & (proposal[src] == proposal[dst])
    if not bad.any():
        return None
    k = int(np.flatnonzero(bad)[0])
    return (
        f"edge ({src[k]}, {dst[k]}) would be monochromatic "
        f"(color {proposal[src[k]]})"
    )


class TestAdoptFrontier:
    @settings(max_examples=80, deadline=None)
    @given(net=graphs(max_n=30), data=st.data())
    def test_message_matches_full_scan(self, net, data):
        if net.n == 0:
            return
        state = ColoringState(net)
        colored = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=net.n, max_size=net.n))
        )
        base = greedy_coloring(net)
        state.colors = np.where(colored, base, -1)
        free = np.flatnonzero(~colored)
        if not free.size:
            return
        perm = data.draw(st.permutations(free.tolist()))
        size = data.draw(st.integers(1, len(perm)))
        nodes = np.asarray(perm[:size], dtype=np.int64)  # unsorted
        new_colors = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, state.num_colors - 1),
                    min_size=size,
                    max_size=size,
                )
            ),
            dtype=np.int64,
        )
        expected = adopt_reference_error(state, nodes, new_colors)
        before = state.colors.copy()
        if expected is None:
            state.adopt(nodes, new_colors)
            assert state.colors[nodes].tolist() == new_colors.tolist()
        else:
            with pytest.raises(ImproperColoring) as exc:
                state.adopt(nodes, new_colors)
            assert str(exc.value) == expected
            np.testing.assert_array_equal(state.colors, before)

    def test_unsorted_batch_reports_first_edge_in_csr_order(self):
        net = BroadcastNetwork((4, [(0, 1), (2, 3)]))
        state = ColoringState(net)
        with pytest.raises(ImproperColoring, match=r"edge \(0, 1\)"):
            state.adopt(np.array([3, 2, 1, 0]), np.array([1, 1, 0, 0]))


# ----------------------------------------------------------------------
# Warm-start precondition
# ----------------------------------------------------------------------
class TestWarmStartCheck:
    def setup_graph(self):
        net = BroadcastNetwork(make_graph("gnp", 120, 8.0, seed=3))
        return (net.n, net.undirected_edges()), net, greedy_coloring(net)

    def test_proper_warm_start_accepted(self):
        graph, _, colors = self.setup_graph()
        engine = DynamicColoring(graph, initial_colors=colors)
        np.testing.assert_array_equal(engine.colors, colors)

    def test_improper_raises(self):
        graph, net, colors = self.setup_graph()
        u, v = net.undirected_edges()[0]
        colors[v] = colors[u]
        with pytest.raises(ValueError, match="not proper"):
            DynamicColoring(graph, initial_colors=colors)

    @pytest.mark.parametrize("bad", [-1, "delta+1"])
    def test_active_node_outside_palette_raises(self, bad):
        graph, net, colors = self.setup_graph()
        node = int(np.argmin(net.degrees))
        colors[node] = net.delta + 1 if bad == "delta+1" else -1
        with pytest.raises(ValueError, match="outside"):
            DynamicColoring(graph, initial_colors=colors)
        # The same node is fine once it is inactive.
        active = np.ones(net.n, dtype=bool)
        active[node] = False
        DynamicColoring(graph, initial_colors=colors, active=active)

    @pytest.mark.parametrize("iters", [0, 1])
    def test_unreconciled_sharded_start_uses_pipeline(self, iters):
        """ShardedColoring stopped at shard_reconcile_max_iters leaves cut
        conflicts, so the warm-start check would refuse its result; serve's
        ``initial: "sharded"`` load then colors through the pipeline
        (tests/test_serve.py::test_sharded_initial_and_palette)."""
        graph = make_graph("gnp", 300, 10.0, seed=6)
        cfg = ColoringConfig.practical(
            seed=6, shard_k=3, shard_reconcile_max_iters=iters
        )
        res = ShardedColoring(graph, cfg).run()
        assert not res.proper and res.unresolved_conflicts > 0
        with pytest.raises(ValueError, match="not proper"):
            DynamicColoring(graph, cfg, initial_colors=res.colors)

    def test_improper_snapshot_falls_back_a_generation(self, tmp_path, capsys):
        sched = make_churn("gnp-churn", 200, 6.0, seed=3, batches=3,
                           churn_fraction=0.1)
        cfg = ColoringConfig.practical(seed=3)
        engine = DynamicColoring(sched.initial, cfg)
        snap = tmp_path / "s.npz"
        for batch in sched.batches:
            engine.apply_batch(batch)
            save_snapshot(engine, snap, keep=3)
        # Rewrite the two newest generations readable but improper.
        for gen in (snap, tmp_path / "s.npz.1"):
            with np.load(gen) as z:
                arrays = {k: z[k] for k in z.files}
            u, v = arrays["edges"][0]
            arrays["colors"][v] = arrays["colors"][u]
            with open(gen, "wb") as f:  # a path would gain ".npz"
                np.savez_compressed(f, **arrays)
        with pytest.raises(ValueError, match="not proper"):
            restore_engine(snap, fallback=False)
        capsys.readouterr()
        restored = restore_engine(snap)
        assert restored.batch_index == 1
        # Only the generation actually restored is logged.
        err = capsys.readouterr().err
        assert "s.npz.2 (batch_index=1)" in err and "s.npz.1" not in err
        for batch in sched.batches[1:]:
            restored.apply_batch(batch)
        np.testing.assert_array_equal(restored.colors, engine.colors)


# ----------------------------------------------------------------------
# Locality: a tiny repair on a big graph allocates O(n), not O(m)
# ----------------------------------------------------------------------
def test_small_repair_allocates_below_four_bytes_per_edge():
    net = BroadcastNetwork(make_graph("geometric", 50_000, 40.0, seed=1))
    colors = greedy_coloring(net)
    rng = np.random.default_rng(0)
    victims = np.sort(rng.choice(net.n, size=20, replace=False))
    colors[victims] = -1
    cfg = ColoringConfig.practical(seed=1)
    tracemalloc.start()
    try:
        out, done, _ = conflict_repair(
            net, colors, victims, net.delta + 1, cfg, SeedSequencer(1)
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert done and (out[victims] >= 0).all()
    directed = net.indices.size
    assert peak < 4 * directed, (peak, directed)
