"""The dense-clique endgame kernels against their per-node oracles.

Put-aside CompressTry and finish (``repro.core.putaside``), LearnPalette
(``repro.core.learn_palette``) and the SCT proposals (``repro.core.sct``)
run as array kernels; the per-node loops they replaced live in
``tests/oracles/dense_endgame.py``.  On random clique-blob and planted
graphs both must produce the same colors, the same report fields, the
same ``known_free`` and the same rounds and bits per phase.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bcstream.pipeline import _phase_memory_audit
from repro.config import ColoringConfig
from repro.core.algorithm import BroadcastColoring
from repro.core.cliques import compute_clique_info
from repro.core.learn_palette import learn_palette
from repro.core.putaside import color_putaside_sets, compress_try, select_putaside_sets
from repro.core.sct import synchronized_color_trial
from repro.core.state import ColoringState
from repro.decomposition.acd import AlmostCliqueDecomposition
from repro.graphs.families import make_graph
from repro.graphs.generators import clique_blob_graph, planted_acd_graph
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_id, bits_for_int
from tests.oracles.dense_endgame import (
    anti_neighbor_colors_reference,
    clique_palette_reference,
    color_putaside_sets_reference,
    compress_try_reference,
    learn_palette_reference,
    synchronized_color_trial_reference,
)

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _graph(family: str, num: int, size: int, noise: int, seed: int):
    """A graph with its ground-truth clique labels (sparse nodes −1)."""
    if family == "blobs":
        graph = clique_blob_graph(num, size, noise, max(1, noise // 2), seed=seed)
        labels = np.arange(graph[0]) // size
    else:
        graph = planted_acd_graph(num, size, 0.05 * noise, sparse_nodes=size, seed=seed)
        labels = np.arange(graph[0]) // size
        labels[labels >= num] = -1
    return graph, labels


def _setup(graph, labels, cfg, bandwidth, palette_share=1.0):
    """Network, state and clique info; ``bandwidth`` caps the rounds
    charged after the clique aggregation, and a ``palette_share`` below 1
    shrinks [Δ+1] so that lists run empty."""
    net = BroadcastNetwork(graph)
    acd = AlmostCliqueDecomposition(labels=labels, eps=cfg.eps)
    state = ColoringState(net, num_colors=max(1, round(palette_share * (net.delta + 1))))
    info = compute_clique_info(net, acd, cfg, num_colors=state.num_colors)
    net.bandwidth_bits = bandwidth
    return net, state, info


def _precolor(state, skip, frac, seed):
    """Give a random share of the nodes outside ``skip`` a random free
    color, one node at a time (a stand-in for the earlier phases)."""
    rng = np.random.default_rng(seed)
    for v in rng.permutation(state.n).tolist():
        if skip[v] or rng.random() >= frac:
            continue
        pal = state.palette(v)
        if pal.size:
            state.adopt(np.array([v]), pal[rng.integers(pal.size)][None])


def _phases(net):
    return {name: stats.as_dict() for name, stats in net.metrics.phases.items()}


def _aside_mask(n, aside):
    mask = np.zeros(n, dtype=bool)
    for nodes in aside.values():
        mask[nodes] = True
    return mask


def _putaside_pair(family, num, size, noise, seed, frac, cfg, bandwidth, share=1.0):
    """Kernel and oracle runs of color_putaside_sets on twin setups."""
    graph, labels = _graph(family, num, size, noise, seed)
    runs = []
    for colour in (color_putaside_sets, color_putaside_sets_reference):
        net, state, info = _setup(graph, labels, cfg, bandwidth, share)
        aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(seed))
        _precolor(state, _aside_mask(net.n, aside), frac, seed)
        rep = colour(state, info, aside, cfg, SeedSequencer(seed + 1))
        runs.append((net, state, aside, rep))
    return runs


putaside_cases = st.tuples(
    st.sampled_from(["blobs", "planted"]),
    st.integers(2, 4),  # cliques
    st.integers(16, 40),  # clique size
    st.integers(0, 6),  # anti edges (blobs) / ε·20 (planted)
    st.integers(0, 10_000),  # seed
    st.sampled_from([0.0, 0.5, 0.9, 1.0]),  # precolored share
    st.integers(0, 8),  # compress_try_colors
    st.integers(1, 4),  # compress_try_repeats
    st.sampled_from([0.05, 0.3, 1.0]),  # c_log: which side of a_K the threshold falls
    st.sampled_from([None, 8, 24]),  # bandwidth; small values force waves
    st.sampled_from([1.0, 1.0, 0.6]),  # share of [Δ+1]: 0.6 empties lists
)


class TestPutAsideKernel:
    def _check(self, case):
        family, num, size, noise, seed, frac, k, reps, c_log, bw, share = case
        cfg = ColoringConfig.practical(
            compress_try_colors=k, compress_try_repeats=reps, c_log=c_log
        )
        (net_a, st_a, aside, rep_a), (net_b, st_b, _, rep_b) = _putaside_pair(
            family, num, size, noise, seed, frac, cfg, bw, share
        )
        assert np.array_equal(st_a.colors, st_b.colors)
        assert rep_a.as_dict() == rep_b.as_dict()
        assert _phases(net_a) == _phases(net_b)
        st_a.verify()
        return aside, rep_a

    @SETTINGS
    @given(putaside_cases)
    def test_matches_oracle(self, case):
        self._check(case)

    # Fixed cases that pin each path the random ones may miss.
    def test_single_stage_path(self):
        # Low c_log: a_K ≥ C log n, so Ψ(K) alone is the list.
        aside, rep = self._check(("blobs", 3, 32, 6, 5, 0.9, 8, 4, 0.05, None, 1.0))
        assert aside and rep.compress_rounds == 2

    def test_two_stage_path(self):
        # a_K < C log n: the second stage with augmented lists runs.
        aside, rep = self._check(("blobs", 3, 32, 2, 6, 1.0, 1, 1, 1.0, None, 1.0))
        assert aside and rep.compress_rounds == 4

    def test_finish_with_leftovers(self):
        # One sample, one instance, everything else colored: CompressTry
        # leaves nodes for the finish greedy.
        aside, rep = self._check(("blobs", 4, 40, 3, 11, 1.0, 1, 1, 1.0, None, 1.0))
        assert aside and rep.finish_rounds > 0

    def test_bandwidth_forces_waves(self):
        aside, rep = self._check(("planted", 3, 32, 2, 3, 0.9, 8, 4, 1.0, 8, 1.0))
        assert aside and rep.compress_rounds > 4

    def test_empty_usable_lists(self):
        # A palette of 0.6·(Δ+1) colors with everything else colored:
        # Ψ(K) ∩ Ψ(v) is empty for some put-aside node v.
        case = ("blobs", 3, 24, 2, 17, 1.0, 8, 4, 1.0, None, 0.6)
        cfg = ColoringConfig.practical()
        graph, labels = _graph(*case[:5])
        net, state, info = _setup(graph, labels, cfg, None, 0.6)
        aside, _ = select_putaside_sets(state, info, cfg, SeedSequencer(17))
        _precolor(state, _aside_mask(net.n, aside), 1.0, 17)
        empty = [
            int(v)
            for c, nodes in aside.items()
            for v in nodes
            if np.intersect1d(
                clique_palette_reference(state, info.members(c)), state.palette(int(v))
            ).size == 0
        ]
        assert empty
        self._check(case)

    @SETTINGS
    @given(putaside_cases)
    def test_augmented_list_meets_palette_in_palette(self, case):
        # (Ψ(K) ∪ C(K∖N(v))) ∩ Ψ(v) = Ψ(v) for every uncolored v: why the
        # second stage and the finish draw from Ψ(v) itself.
        family, num, size, noise, seed, frac, *_, share = case
        cfg = ColoringConfig.practical()
        graph, labels = _graph(family, num, size, noise, seed)
        net, state, info = _setup(graph, labels, cfg, None, share)
        _precolor(state, np.zeros(net.n, dtype=bool), frac * 0.9, seed)
        for c in range(info.num_cliques):
            members = info.members(c)
            psi_k = clique_palette_reference(state, members)
            for v in members[state.colors[members] < 0].tolist():
                lv = np.union1d(psi_k, anti_neighbor_colors_reference(state, members, v))
                pal = state.palette(v)
                assert np.array_equal(np.intersect1d(lv, pal), pal)

    @SETTINGS
    @given(
        st.integers(0, 10_000),
        st.integers(0, 8),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from(["all", "range", "one", "empty", "mixed"]),
    )
    def test_compress_try_matches_oracle(self, seed, k, frac, lists_kind):
        cfg = ColoringConfig.practical(compress_try_colors=k)
        graph, labels = _graph("blobs", 2, 24, 3, seed)
        net, state, info = _setup(graph, labels, cfg, None)
        s_nodes = info.members(0)[::2]
        skip = np.zeros(net.n, dtype=bool)
        skip[s_nodes] = True
        _precolor(state, skip, frac, seed)
        rng = np.random.default_rng(seed)
        nc = state.num_colors
        make = {
            "all": lambda: np.arange(nc),
            "range": lambda: np.arange(rng.integers(nc), nc),
            "one": lambda: np.array([rng.integers(nc)]),
            "empty": lambda: np.empty(0, dtype=np.int64),
            "mixed": lambda: rng.integers(-2, nc + 2, size=rng.integers(0, 6)),
        }[lists_kind]
        lists = {int(v): make() for v in s_nodes if rng.random() < 0.9}
        tag = (int(seed) % 7, 1, 2)
        got = compress_try(state, s_nodes, lists, cfg, SeedSequencer(seed), tag=tag)
        want = compress_try_reference(state, s_nodes, lists, cfg, SeedSequencer(seed), tag=tag)
        assert got == want


class TestCompressTryBits:
    def test_zero_colors_still_charges_one_index(self):
        # A node always sends at least one sample; k ≤ 0 must not charge
        # zero sample bits.
        runs = {}
        for k in (0, 1):
            cfg = ColoringConfig.practical(compress_try_colors=k, compress_try_repeats=1)
            net, state, *_ = _putaside_pair("blobs", 3, 32, 2, 6, 1.0, cfg, None)[0]
            runs[k] = (state.colors, _phases(net))
        stats = runs[0][1]["putaside"]
        assert stats["max_message_bits"] >= bits_for_int(2) + bits_for_id(3 * 32)
        assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]

    def test_bcstream_putaside_words_count_one_sample(self):
        zero = _phase_memory_audit(ColoringConfig.practical(compress_try_colors=0), 1000, 40)
        one = _phase_memory_audit(ColoringConfig.practical(compress_try_colors=1), 1000, 40)
        assert zero["putaside"] == one["putaside"]


# ---------------------------------------------------------------------------
# LearnPalette and the SCT
# ---------------------------------------------------------------------------


class TestLearnPaletteKernel:
    @SETTINGS
    @given(
        st.sampled_from(["blobs", "planted"]),
        st.integers(8, 40),
        st.integers(0, 8),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.3, 0.8, 1.0]),
        st.booleans(),
    )
    def test_matches_oracle(self, family, size, noise, seed, frac, shuffle):
        cfg = ColoringConfig.practical()
        graph, labels = _graph(family, 2, size, noise, seed)
        out = []
        for learn in (learn_palette, learn_palette_reference):
            net, state, info = _setup(graph, labels, cfg, cfg.bandwidth_bits(graph[0]))
            _precolor(state, np.zeros(net.n, dtype=bool), frac, seed)
            members = info.members(1)
            if shuffle:
                members = np.random.default_rng(seed).permutation(members)
            out.append((learn(state, members, cfg, SeedSequencer(seed), phase="lp", tag=1), net))
        (a, net_a), (b, net_b) = out
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.known_free, b.known_free)
        assert np.array_equal(a.true_free, b.true_free)
        assert (a.complete, a.incomplete_members) == (b.complete, b.incomplete_members)
        assert _phases(net_a) == _phases(net_b)


class TestSCTKernel:
    @SETTINGS
    @given(
        st.sampled_from(["blobs", "planted"]),
        st.integers(2, 4),
        st.integers(16, 40),
        st.integers(0, 8),
        st.integers(0, 10_000),
        st.sampled_from([0.0, 0.3, 0.7]),
        st.booleans(),
        st.sampled_from([0.02, 1.0, 4.0]),
    )
    def test_matches_oracle(self, family, num, size, noise, seed, frac, with_aside, x_full):
        cfg = ColoringConfig.practical(x_full_factor=x_full)
        graph, labels = _graph(family, num, size, noise, seed)
        out = []
        for trial in (synchronized_color_trial, synchronized_color_trial_reference):
            net, state, info = _setup(graph, labels, cfg, cfg.bandwidth_bits(graph[0]))
            aside = (
                select_putaside_sets(state, info, cfg, SeedSequencer(seed))[0]
                if with_aside
                else {}
            )
            _precolor(state, _aside_mask(net.n, aside), frac, seed)
            rep = trial(state, info, aside, cfg, SeedSequencer(seed + 1))
            out.append((rep, state, net))
        (a, st_a, net_a), (b, st_b, net_b) = out
        assert np.array_equal(st_a.colors, st_b.colors)
        assert a.as_dict() == b.as_dict()
        assert a.leftover_by_clique == b.leftover_by_clique
        assert _phases(net_a) == _phases(net_b)


# ---------------------------------------------------------------------------
# Golden digests: stream keys and draw order stay put
# ---------------------------------------------------------------------------


def _digest(family: str, n: int, avg_degree: float, seed: int) -> str:
    res = BroadcastColoring(
        make_graph(family, n, avg_degree, seed), ColoringConfig.practical(seed=seed)
    ).run()
    h = hashlib.sha256(np.ascontiguousarray(res.colors, dtype=np.int64).tobytes())
    h.update(
        json.dumps(
            [int(res.rounds_total), int(res.total_bits), sorted(res.phase_rounds.items())]
        ).encode()
    )
    return h.hexdigest()


@pytest.mark.parametrize(
    "family, n, avg_degree, seed, digest",
    [
        (
            "planted", 600, 30.0, 3,
            "ab52cca957c628738faf1a44cd2cd2076b58c024563eb4c6c4a4a9bc2942aaae",
        ),
        (
            "blobs", 800, 60.0, 4,
            "6564f96108bc264413fe97aad89b77071eb949a3d1421a6db344dd368a265055",
        ),
    ],
)
def test_golden_digest(family, n, avg_degree, seed, digest):
    """Colors, rounds, bits and per-phase rounds of two dense runs that go
    through put-aside and the SCT, pinned before the endgame kernels
    replaced the per-node loops."""
    assert _digest(family, n, avg_degree, seed) == digest
