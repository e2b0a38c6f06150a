"""Tests for the pseudorandomness substrate (repro.hashing)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.fingerprints import (
    hash_array_u64,
    hash_u64,
    minwise_fingerprints,
)
from repro.hashing.prg import RepresentativeSampler, expand_colors, expand_indices
from repro.simulator.network import BroadcastNetwork
from repro.graphs.generators import complete_graph


class TestSplitmix:
    def test_scalar_deterministic(self):
        assert hash_u64(42, salt=1) == hash_u64(42, salt=1)

    def test_salt_matters(self):
        assert hash_u64(42, salt=1) != hash_u64(42, salt=2)

    def test_vector_matches_scalar(self):
        vals = np.array([0, 1, 7, 123456], dtype=np.int64)
        out = hash_array_u64(vals, salt=3)
        for v, h in zip(vals, out):
            assert int(h) == hash_u64(int(v), salt=3)

    def test_range_is_64bit(self):
        h = hash_array_u64(np.arange(100), salt=0)
        assert h.dtype == np.uint64

    def test_avalanche_rough(self):
        # Adjacent inputs should differ in ~half the bits on average.
        h = hash_array_u64(np.arange(1000), salt=0)
        diffs = np.bitwise_xor(h[:-1], h[1:])
        popcounts = np.array([bin(int(d)).count("1") for d in diffs])
        assert 24 < popcounts.mean() < 40


class TestExpand:
    def test_deterministic(self):
        assert np.array_equal(expand_indices(9, 10, 100), expand_indices(9, 10, 100))

    def test_seed_matters(self):
        assert not np.array_equal(expand_indices(9, 20, 100), expand_indices(10, 20, 100))

    def test_within_universe(self):
        out = expand_indices(5, 50, 7)
        assert out.min() >= 0 and out.max() < 7

    def test_empty_cases(self):
        assert expand_indices(1, 0, 10).size == 0
        assert expand_indices(1, 5, 0).size == 0
        assert expand_colors(1, 5, []).size == 0

    def test_expand_colors_maps_through_list(self):
        colors = np.array([10, 20, 30])
        out = expand_colors(3, 8, colors)
        assert set(out.tolist()) <= {10, 20, 30}

    @given(st.integers(0, 2**62), st.integers(1, 64), st.integers(1, 1000))
    @settings(max_examples=30, deadline=None)
    def test_length_property(self, seed, k, universe):
        assert expand_indices(seed, k, universe).size == k

    def test_sampler_roundtrip(self):
        rng = np.random.default_rng(0)
        s = RepresentativeSampler(rng)
        seed = s.draw_seed()
        a = s.expand(seed, 5, [1, 2, 3])
        b = RepresentativeSampler.expand(seed, 5, [1, 2, 3])
        assert np.array_equal(a, b)


class TestMinwise:
    def test_identical_neighborhoods_identical_fingerprints(self):
        # In a clique all closed neighborhoods coincide.
        net = BroadcastNetwork(complete_graph(8))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 16, bits=4, salt=0)
        assert (fps == fps[:, :1]).all()

    def test_disjoint_neighborhoods_mostly_differ(self):
        # Two disjoint cliques: collision rate ≈ 2^-b.
        edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        edges += [(i, j) for i in range(6, 12) for j in range(i + 1, 12)]
        net = BroadcastNetwork((12, edges))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 256, bits=4, salt=1)
        rate = (fps[:, 0] == fps[:, 6]).mean()
        assert rate < 0.25  # 2^-4 = 0.0625 plus noise

    def test_shape_and_dtype(self):
        net = BroadcastNetwork((4, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 10, bits=2)
        assert fps.shape == (10, 4)
        assert fps.dtype == np.uint16

    def test_bits_bound_respected(self):
        net = BroadcastNetwork((4, [(0, 1), (2, 3)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 30, bits=3)
        assert fps.max() < 8

    def test_invalid_bits_raises(self):
        import pytest

        net = BroadcastNetwork((2, [(0, 1)]))
        with pytest.raises(ValueError):
            minwise_fingerprints(net.indptr, net.indices, net.n, 4, bits=0)

    def test_batched_matches_naive_per_sample(self):
        """The fingerprint kernel must equal the definition: per sample,
        fingerprint[v] = (min over N[v] of the 32-bit hash) & mask."""
        net = BroadcastNetwork((9, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 5), (7, 8)]))
        T, bits, salt = 37, 3, 5
        got = minwise_fingerprints(net.indptr, net.indices, net.n, T, bits, salt=salt)
        ids = np.arange(net.n, dtype=np.int64)
        for j in range(T):
            h = (hash_array_u64(ids, salt=salt * T + j) >> np.uint64(32)).astype(
                np.uint32
            )
            for v in range(net.n):
                closed = np.append(net.neighbors(v), v)
                expect = int(h[closed].min()) & ((1 << bits) - 1)
                assert int(got[j, v]) == expect

    def test_isolated_node_fingerprint_is_own_hash(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        fps = minwise_fingerprints(net.indptr, net.indices, net.n, 8, bits=4, salt=2)
        ids = np.arange(3, dtype=np.int64)
        for j in range(8):
            h = (hash_array_u64(ids, salt=2 * 8 + j) >> np.uint64(32)).astype(np.uint32)
            assert int(fps[j, 2]) == int(h[2]) & 0xF
