"""Tests for the bit-packed SWAR sketch engine (DESIGN.md §4).

Covers the three contracts the `acd_sketch_engine` knob rests on:

1. packed and unpacked similarity estimates agree *exactly* (property
   test over graphs, fingerprint widths, and sample counts crossing word
   boundaries);
2. both engines converge to the brute-force Jaccard similarity of closed
   neighborhoods on small random graphs;
3. the packing layout, the round accounting, and the `acd/sketch` phase
   timing behave as documented.

It also pins the fingerprint kernel underneath both engines to its
per-sample definition and bounds its traced memory.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hashing.fingerprints as fingerprints_mod
from repro.config import ColoringConfig
from repro.decomposition.acd import decompose_distributed
from repro.decomposition.minhash import (
    SKETCH_ENGINES,
    SimilaritySketch,
    compute_sketches,
    estimate_edge_similarity,
)
from repro.graphs.families import make_graph
from repro.hashing.fingerprints import (
    _column_layout,
    hash_array_u64,
    minwise_fingerprints,
    pack_fingerprints,
    packed_words_per_node,
)
from repro.graphs.generators import (
    complete_graph,
    gnp_graph,
    planted_acd_graph,
    ring_graph,
)
from repro.simulator.network import BroadcastNetwork


def sketch_pair(net, samples, bits, salt=0):
    """(packed estimate, unpacked estimate) for one workload."""
    ests = []
    for engine in SKETCH_ENGINES:
        fresh = BroadcastNetwork((net.n, net.undirected_edges()))
        sk = compute_sketches(fresh, samples, bits, salt=salt, engine=engine)
        ests.append(estimate_edge_similarity(fresh, sk))
    return ests


class TestEngineEquivalence:
    """Packed and unpacked estimators must agree bit for bit."""

    GRAPHS = {
        "gnp-dense": lambda: gnp_graph(80, 0.4, seed=3),
        "gnp-sparse": lambda: gnp_graph(120, 0.03, seed=4),
        "planted": lambda: planted_acd_graph(3, 24, 0.1, sparse_nodes=30, seed=5),
        "complete": lambda: complete_graph(25),
        "ring": lambda: ring_graph(40),
        "star": lambda: (60, [(0, i) for i in range(1, 60)]),
        "empty": lambda: (10, []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("bits,samples", [(1, 64), (2, 256), (3, 40), (16, 7)])
    def test_bit_identical_estimates(self, name, bits, samples):
        net = BroadcastNetwork(self.GRAPHS[name]())
        packed, unpacked = sketch_pair(net, samples, bits, salt=2)
        assert np.array_equal(packed, unpacked)

    @given(
        n=st.integers(min_value=2, max_value=24),
        edges=st.lists(
            st.tuples(st.integers(0, 23), st.integers(0, 23)), max_size=60
        ),
        bits=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 11, 16]),
        samples=st.integers(min_value=1, max_value=70),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_property(self, n, edges, bits, samples):
        edges = [(u % n, v % n) for u, v in edges]
        net = BroadcastNetwork((n, edges))
        packed, unpacked = sketch_pair(net, samples, bits, salt=1)
        assert np.array_equal(packed, unpacked)

    def test_decomposition_identical_across_engines(self):
        g = planted_acd_graph(4, 30, 0.1, sparse_nodes=40, seed=9)
        labels = []
        for engine in SKETCH_ENGINES:
            cfg = ColoringConfig.practical(acd_sketch_engine=engine)
            net = BroadcastNetwork(g, bandwidth_bits=cfg.bandwidth_bits(g[0]))
            labels.append(decompose_distributed(net, cfg).labels)
        assert np.array_equal(labels[0], labels[1])

    def test_unknown_engine_rejected(self):
        net = BroadcastNetwork((4, [(0, 1)]))
        with pytest.raises(ValueError, match="sketch engine"):
            compute_sketches(net, 8, 2, salt=0, engine="simd")

    def test_padded_and_reduceat_paths_agree(self, monkeypatch):
        """The column/tail split inside minwise_fingerprints is an
        internal choice; forcing every neighbour through the columns, or
        all but the least degree through the reduceat tail, must not
        change a bit."""
        g = gnp_graph(64, 0.2, seed=6)
        net = BroadcastNetwork(g)
        default = minwise_fingerprints(net.indptr, net.indices, net.n, 50, 3, salt=4)
        for cut in (net.n + 1, 1):
            monkeypatch.setattr(fingerprints_mod, "_TAIL_FRACTION", cut)
            forced = minwise_fingerprints(
                net.indptr, net.indices, net.n, 50, 3, salt=4
            )
            assert np.array_equal(default, forced)

    def test_skewed_graph_uses_reduceat_fallback(self):
        # A star's hub would need Δ = n-1 columns; the layout must stop at
        # one column and hand the hub's other neighbours to the tail.
        net = BroadcastNetwork((4000, [(0, i) for i in range(1, 4000)]))
        order, columns, tail, tail_starts = _column_layout(net.indptr, net.indices)
        assert order[0] == 0 and len(columns) == 1
        assert tail_starts.tolist() == [0] and tail.size == 3998


def naive_fingerprints(net, samples, bits, salt):
    """The definition, one sample and one node at a time: fingerprint[j, v]
    is the low b bits of the least 32-bit hash over N[v]."""
    ids = np.arange(net.n, dtype=np.int64)
    out = np.empty((samples, net.n), dtype=np.uint16)
    for j in range(samples):
        h = hash_array_u64(ids, salt=salt * samples + j) >> np.uint64(32)
        for v in range(net.n):
            closed = np.append(net.neighbors(v), v)
            out[j, v] = int(h[closed].min()) & ((1 << bits) - 1)
    return out


@st.composite
def random_graphs(draw):
    n = draw(st.integers(0, 70))
    edges = draw(
        st.lists(st.tuples(st.integers(0, 69), st.integers(0, 69)), max_size=150)
    )
    return n, [(u % n, v % n) for u, v in edges if n and u % n != v % n]


@st.composite
def hub_graphs(draw):
    """A hub over ``spokes`` nodes, a matching among the spokes and
    isolated nodes past them: the hub's degree exceeds every other
    node's, and n > 32 puts it past the column cut into the reduceat
    tail."""
    n = draw(st.integers(33, 90))
    spokes = draw(st.integers(3, n - 1))
    edges = [(0, s) for s in range(1, spokes + 1)]
    pairs = draw(st.integers(0, spokes // 2))
    edges += [(2 * i + 1, 2 * i + 2) for i in range(pairs)]
    return n, edges


class TestFingerprintKernel:
    """minwise_fingerprints against its per-sample definition, and its
    memory footprint."""

    @given(
        graph=st.one_of(random_graphs(), hub_graphs()),
        samples=st.integers(0, 12),
        bits=st.sampled_from([1, 2, 3, 5, 8, 16]),
        salt=st.integers(0, 2**20),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_sample_definition(self, graph, samples, bits, salt):
        net = BroadcastNetwork(graph)
        got = minwise_fingerprints(
            net.indptr, net.indices, net.n, samples, bits, salt=salt
        )
        assert got.shape == (samples, net.n) and got.dtype == np.uint16
        assert np.array_equal(got, naive_fingerprints(net, samples, bits, salt))

    def test_sketch_memory_stays_linear(self):
        """The sketch's traced peak, packing included, stays under twice
        the (T, n) uint16 fingerprints plus the CSR indices."""
        net = BroadcastNetwork(make_graph("geometric", 20_000, 20, 0))
        tracemalloc.start()
        try:
            sk = compute_sketches(net, 256, 2, salt=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (sk.fingerprints.nbytes + net.indices.nbytes)


class TestJaccardConvergence:
    """Estimates from either engine converge to the brute-force Jaccard
    similarity of closed neighborhoods."""

    @staticmethod
    def brute_force(net):
        edges = net.undirected_edges()
        out = np.empty(edges.shape[0])
        closed = [
            set(net.neighbors(v).tolist()) | {v} for v in range(net.n)
        ]
        for i, (u, v) in enumerate(edges):
            a, b = closed[int(u)], closed[int(v)]
            out[i] = len(a & b) / len(a | b)
        return out

    @pytest.mark.parametrize("engine", SKETCH_ENGINES)
    @pytest.mark.parametrize("seed,p", [(0, 0.15), (1, 0.35)])
    def test_converges_on_gnp(self, engine, seed, p):
        net = BroadcastNetwork(gnp_graph(60, p, seed=seed))
        sk = compute_sketches(net, 2048, 4, salt=seed, engine=engine)
        est = estimate_edge_similarity(net, sk)
        true = self.brute_force(net)
        err = np.abs(est - true)
        assert err.max() < 0.12
        assert err.mean() < 0.03

    @pytest.mark.parametrize("engine", SKETCH_ENGINES)
    def test_clique_estimates_one(self, engine):
        net = BroadcastNetwork(complete_graph(16))
        sk = compute_sketches(net, 512, 2, salt=3, engine=engine)
        est = estimate_edge_similarity(net, sk)
        assert est.min() > 0.95


class TestPacking:
    def test_layout_field_positions(self):
        # 3 samples, b=4 → 16 fields/word: sample j at bit offset 4j.
        fps = np.array([[5], [9], [3]], dtype=np.uint16)
        packed = pack_fingerprints(fps, 4)
        assert packed.shape == (1, 1)
        assert int(packed[0, 0]) == 5 | (9 << 4) | (3 << 8)

    def test_word_boundary(self):
        # b=2 → 32 fields/word; 33 samples need 2 words, tail zero-padded.
        fps = np.full((33, 2), 3, dtype=np.uint16)
        packed = pack_fingerprints(fps, 2)
        assert packed.shape == (2, 2)
        assert int(packed[0, 0]) == (1 << 64) - 1
        assert int(packed[0, 1]) == 3  # single sample in field 0
        assert packed_words_per_node(33, 2) == 2

    def test_node_major_rows(self):
        fps = np.array([[1, 2], [3, 0]], dtype=np.uint16)
        packed = pack_fingerprints(fps, 2)
        assert packed.shape == (2, 1)
        assert int(packed[0, 0]) == 1 | (3 << 2)
        assert int(packed[1, 0]) == 2

    def test_rejects_overwide_values(self):
        fps = np.array([[4]], dtype=np.uint16)
        with pytest.raises(ValueError, match="exceeds"):
            pack_fingerprints(fps, 2)

    def test_lazy_packing_cached(self):
        fps = np.zeros((8, 3), dtype=np.uint16)
        sk = SimilaritySketch(
            fingerprints=fps, bits_per_sample=2, samples=8, rounds_used=0
        )
        assert sk.packed is sk.packed

    @given(
        n=st.integers(1, 6),
        samples=st.integers(1, 40),
        bits=st.sampled_from([1, 2, 3, 5, 8, 13, 16]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_pack_roundtrip(self, n, samples, bits, seed):
        rng = np.random.default_rng(seed)
        fps = rng.integers(0, 1 << bits, size=(samples, n), dtype=np.uint16)
        packed = pack_fingerprints(fps, bits)
        fields = 64 // bits
        mask = np.uint64((1 << bits) - 1)
        for j in range(samples):
            w, f = divmod(j, fields)
            got = (packed[:, w] >> np.uint64(f * bits)) & mask
            assert np.array_equal(got.astype(np.uint16), fps[j])


class TestAccountingAndTiming:
    def test_closed_form_matches_per_round_loop(self):
        # 100 samples, 48-bit budget, b=2 → 24/round → 4 full + 1 partial.
        net = BroadcastNetwork(ring_graph(12), bandwidth_bits=48)
        compute_sketches(net, 100, 2, salt=0)
        stats = net.metrics.phases["acd/sketch"]
        assert stats.rounds == 5
        assert stats.messages == 5 * 12
        assert stats.total_bits == 12 * 100 * 2  # every sample shipped once
        assert stats.max_message_bits == 48

    def test_exact_multiple_no_partial_round(self):
        net = BroadcastNetwork(ring_graph(8), bandwidth_bits=32)
        sk = compute_sketches(net, 64, 2, salt=0)
        assert sk.rounds_used == 4
        assert net.metrics.phases["acd/sketch"].rounds == 4

    def test_sketch_phase_seconds_recorded(self):
        net = BroadcastNetwork(gnp_graph(80, 0.2, seed=0))
        net.metrics.begin_phase("setup")
        sk = compute_sketches(net, 64, 2, salt=0)
        estimate_edge_similarity(net, sk)
        net.metrics.stop_timer()
        assert net.metrics.phase_seconds["acd/sketch"] > 0
        # the nested timing was carved out of "setup", not double-counted
        assert "setup" in net.metrics.phase_seconds
