"""Put-aside sets: creation (Lemma 3.4), reduction (Lemma 3.12/3.13,
Algorithm 6) and the O(1)-round finish (Lemma 3.10).

Very dense ("full") cliques generate too little permanent slack for
MultiTrial's ℓ = Θ(log^{1.1} n) requirement.  The fix (Challenge 3 of
§1.2, after [HKNT22]): park Θ(ℓ) *inliers* per full clique — the put-aside
set P_K — uncolored until the very end; their uncolored presence hands
every other member ℓ of temporary slack.  Selection guarantees **no edges
between put-aside sets of different cliques**, so at the end each P_K can
be colored purely inside K:

1. ``CompressTry`` (Algorithm 6): every node pre-samples k colors from a
   publicly known list and ships them all at once (Many-to-All,
   Claim 3.11); everyone then *locally* replays the sequential greedy in
   ID order — k TryColor iterations compressed into O(1) rounds.
2. Once |P̂_K| = O(log n / log log n), nodes broadcast entire candidate
   lists using O(log log n)-bit color indices and finish by simulating the
   greedy with no further communication (Lemma 3.10).

Execution.  Because no edge joins two put-aside sets, one clique's
adoptions never change another clique's palettes, lists or pending set,
so :func:`color_putaside_sets` runs each stage for the pending nodes of
every full clique at once, on arrays with one row per pending node
(grouped by clique, ID order within a clique):

* Ψ(K) of every clique is one ``bincount`` over the members' colors and
  Ψ(v) one gather of the pending rows (:meth:`BroadcastNetwork.row_edges`),
  once per stage — Ψ(v) cannot change between the log log n instances.
* The augmented lists of the second stage and of the finish never have
  to be built: a color free at v that some member holds is held by a
  non-neighbor, so (Ψ(K) ∪ C(K∖N(v))) ∩ Ψ(v) = Ψ(v).  Only the list
  *length* enters (the bit accounting), and |C(K∖N(v))| is the number of
  colors c with cnt_K(c) > cnt_{N(v)∩K}(c).
* An instance draws every node's k samples first, each from the node's
  own stream (the keys a node would use; one stream construction per
  node and instance is the floor of this kernel), then replays the
  ID-order greedy over the drawn samples.

The per-node forms live in ``tests/oracles/dense_endgame.py``; the
equivalence tests hold the kernels to them color for color and bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.state import ColoringState
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_id, bits_for_int
from repro.util.mathx import poly_log

__all__ = [
    "PutAsideReport",
    "select_putaside_sets",
    "compress_try",
    "compress_try_k",
    "color_putaside_sets",
]


@dataclass
class PutAsideReport:
    cliques_with_sets: int = 0
    total_selected: int = 0
    undersized_cliques: int = 0  # couldn't reach the target size
    compress_rounds: int = 0
    finish_rounds: int = 0
    colored: int = 0
    left_uncolored: int = 0

    def as_dict(self) -> dict:
        return {
            "cliques_with_sets": self.cliques_with_sets,
            "total_selected": self.total_selected,
            "undersized_cliques": self.undersized_cliques,
            "compress_rounds": self.compress_rounds,
            "finish_rounds": self.finish_rounds,
            "colored": self.colored,
            "left_uncolored": self.left_uncolored,
        }


# ---------------------------------------------------------------------------
# Selection (Lemma 3.4)
# ---------------------------------------------------------------------------


def select_putaside_sets(
    state: ColoringState,
    info: CliqueInfo,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "setup/putaside",
) -> tuple[dict[int, np.ndarray], PutAsideReport]:
    """Pick P_K ⊆ I_K of size ~cfg.putaside_size(n) in every *full* clique
    such that no edge joins two different put-aside sets.

    Protocol (O(1) rounds): inliers of full cliques volunteer with
    probability tuned to oversample 3×; volunteers broadcast a flag;
    volunteers adjacent to a volunteer of *another* full clique withdraw
    (both sides do — symmetric, so survivors are pairwise edge-free across
    cliques); each clique keeps its lowest-ID survivors up to the target.
    """
    net = state.net
    report = PutAsideReport()
    target = cfg.putaside_size(net.n)
    rng = seq.shared_stream("putaside-volunteer")

    full = [c for c in range(info.num_cliques) if info.kind[c] == "full"]
    volunteer_mask = np.zeros(net.n, dtype=bool)
    clique_of = info.labels
    candidates_by_clique: dict[int, np.ndarray] = {}
    for c in full:
        members = info.members(c)
        inliers = members[
            (state.colors[members] < 0) & (~info.outlier_mask[members])
        ]
        if inliers.size == 0:
            continue
        p = min(1.0, 3.0 * target / inliers.size)
        chosen = inliers[rng.random(inliers.size) < p]
        volunteer_mask[chosen] = True
        candidates_by_clique[c] = chosen

    # Withdraw on cross-clique volunteer adjacency (volunteers' rows only).
    src, dst = net.frontier_edges(np.flatnonzero(volunteer_mask))
    cross = volunteer_mask[dst] & (clique_of[src] != clique_of[dst])
    withdraw = np.zeros(net.n, dtype=bool)
    withdraw[src[cross]] = True

    result: dict[int, np.ndarray] = {}
    for c, chosen in candidates_by_clique.items():
        survivors = np.sort(chosen[~withdraw[chosen]])
        picked = survivors[:target]
        if picked.size:
            result[c] = picked.astype(np.int64)
            report.cliques_with_sets += 1
            report.total_selected += int(picked.size)
            if picked.size < target:
                report.undersized_cliques += 1

    # Rounds: volunteer flag, withdraw flag (1 bit each).
    net.account_vector_round(int(volunteer_mask.sum()), 1, phase=phase)
    net.account_vector_round(int(withdraw.sum()), 1, phase=phase)
    return result, report


# ---------------------------------------------------------------------------
# CompressTry (Algorithm 6)
# ---------------------------------------------------------------------------


def compress_try_k(cfg: ColoringConfig) -> int:
    """k: the colors every CompressTry node samples, sends and is charged
    for — at least one, whatever ``cfg.compress_try_colors`` says."""
    return max(1, cfg.compress_try_colors)


def _palettes(state: ColoringState, nodes: np.ndarray) -> np.ndarray:
    """Ψ(v) (Definition 2.10) of each of the distinct ``nodes``, as the
    rows of a ``(len(nodes), num_colors)`` bool matrix."""
    rows, dst = state.net.row_edges(nodes)
    cols = state.colors[dst]
    held = cols >= 0
    free = np.ones((nodes.size, state.num_colors), dtype=bool)
    free[rows[held], cols[held]] = False
    return free


def _flat_lists(usable: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a bool matrix as sorted color lists in CSR form:
    row i's list is ``values[offsets[i]:offsets[i + 1]]``."""
    offsets = np.zeros(usable.shape[0] + 1, dtype=np.int64)
    np.cumsum(usable.sum(axis=1), out=offsets[1:])
    return np.nonzero(usable)[1].astype(np.int64), offsets


def _presample(
    nodes: list[int],
    values: np.ndarray,
    offsets: np.ndarray,
    k: int,
    seq: SeedSequencer,
    tags: list[object],
) -> np.ndarray:
    """Every node's k samples, uniform with replacement from its usable
    list ``values[offsets[i]:offsets[i + 1]]``; −1 rows where the list is
    empty (such a node draws and sends nothing).  Node i draws from its
    own stream, keyed ``("compress-try", nodes[i], tags[i])``."""
    sizes = np.diff(offsets)
    samples = np.full((len(nodes), k), -1, dtype=np.int64)
    live = np.flatnonzero(sizes)
    draws = np.empty((live.size, k), dtype=np.int64)
    for j, (i, size) in enumerate(zip(live.tolist(), sizes[live].tolist())):
        rng = seq.node_stream("compress-try", nodes[i], tags[i])
        draws[j] = rng.integers(0, size, size=k)
    samples[live] = values[offsets[live, None] + draws]
    return samples


def _greedy(groups: list[int], candidates: np.ndarray) -> tuple[list[int], list[int]]:
    """The sequential greedy every node replays locally: rows in ID order
    within each group (clique), each takes its first candidate color that
    no earlier row of its group took (−1 ends a row's candidates).
    Returns the picking rows and colors."""
    taken: dict[int, set[int]] = {}
    rows_out: list[int] = []
    colors_out: list[int] = []
    for i, (g, row) in enumerate(zip(groups, candidates.tolist())):
        seen = taken.setdefault(g, set())
        for c in row:
            if c < 0:
                break
            if c not in seen:
                seen.add(c)
                rows_out.append(i)
                colors_out.append(c)
                break
    return rows_out, colors_out


def compress_try(
    state: ColoringState,
    s_nodes: np.ndarray,
    lists: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    tag: object = 0,
) -> tuple[list[int], list[int]]:
    """One CompressTry instance over the distinct ``s_nodes``: returns
    (nodes, colors) the sequential ID-order greedy would color.  Nothing
    is adopted here — :func:`color_putaside_sets` composes instances (the
    §3.3 log log n parallel repetitions) and adopts the best outcome.

    Every node v pre-samples k colors from L(v) ∩ Ψ(v); in ID order, v
    takes its first sample not already taken by a smaller-ID node of S.
    """
    order = np.sort(np.asarray(s_nodes, dtype=np.int64))
    allowed = np.zeros((order.size, state.num_colors), dtype=bool)
    for i, v in enumerate(order.tolist()):
        lv = lists.get(v)
        if lv is not None:
            lv = np.asarray(lv, dtype=np.int64)
            allowed[i, lv[(lv >= 0) & (lv < state.num_colors)]] = True
    values, offsets = _flat_lists(allowed & _palettes(state, order))
    nodes = order.tolist()
    samples = _presample(nodes, values, offsets, compress_try_k(cfg), seq, [tag] * len(nodes))
    rows, colors = _greedy([0] * len(nodes), samples)
    return [nodes[i] for i in rows], colors


# ---------------------------------------------------------------------------
# Coloring the put-aside sets (Lemmas 3.10, 3.13)
# ---------------------------------------------------------------------------


def _waves(msg_bits: int, budget: int | None) -> tuple[int, int]:
    """(waves, bits per wave) to ship ``msg_bits`` under the bandwidth."""
    if budget is not None and msg_bits > budget:
        return int(np.ceil(msg_bits / budget)), budget
    return 1, msg_bits


def color_putaside_sets(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "putaside",
) -> PutAsideReport:
    """Color every put-aside set.  Put-aside sets have no cross edges
    (Lemma 3.4), so the cliques run simultaneously, in model time and in
    the arrays: each stage handles the pending nodes of every clique."""
    net = state.net
    report = PutAsideReport()
    keys: list = []  # the putaside keys, as given: they enter stream keys
    pend: list[np.ndarray] = []
    for c, p_nodes in putaside.items():
        pending = np.sort(p_nodes[state.colors[p_nodes] < 0]).astype(np.int64)
        if pending.size:
            keys.append(c)
            pend.append(pending)
    if keys:
        report.compress_rounds, report.finish_rounds = _color_pending(
            state, info, keys, pend, cfg, seq, phase, report
        )
    report.left_uncolored = sum(
        int((state.colors[p_nodes] < 0).sum()) for p_nodes in putaside.values()
    )
    return report


def _color_pending(
    state: ColoringState,
    info: CliqueInfo,
    keys: list,
    pend: list[np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str,
    report: PutAsideReport,
) -> tuple[int, int]:
    """The CompressTry stages and the finish for the non-empty pending
    sets ``pend`` of the cliques ``keys``; returns (compress, finish)
    rounds.  Row r is node ``nodes[r]`` of clique slot ``group[r]``."""
    net = state.net
    nc = state.num_colors
    num = len(keys)
    k = compress_try_k(cfg)
    repeats = max(1, cfg.compress_try_repeats)
    clique_ids = np.asarray(keys, dtype=np.int64)
    nodes = np.concatenate(pend)
    group = np.repeat(np.arange(num), [p.size for p in pend])
    starts = np.concatenate(([0], np.cumsum([p.size for p in pend])[:-1]))

    # Member color counts cnt_K(c) of every clique: Ψ(K) = {c : cnt_K(c) = 0}.
    members = [info.members(c) for c in keys]
    slot = np.repeat(np.arange(num), [m.size for m in members])
    mcols = state.colors[np.concatenate(members)]
    held = mcols >= 0
    cnt_k = np.bincount(
        slot[held] * nc + mcols[held], minlength=num * nc
    ).reshape(num, nc)
    distinct_k = (cnt_k > 0).sum(axis=1)

    # Stage 0 lists Ψ(K) (first case of Lemma 3.13).  Cliques whose
    # colorful matching left a_K below the threshold get a second stage
    # with lists Ψ(K) ∪ C(K∖N(v)), fixed now.  By the identity of the
    # module docstring the second stage's usable lists are Ψ(v), and only
    # the list length |Ψ(K)| + max_v |C(K∖N(v))| is needed.
    two_stage = ~(info.a_k[clique_ids] >= cfg.log_threshold(net.n))
    list_sizes = [nc - distinct_k]
    if two_stage.any():
        rows_e, dst = net.row_edges(nodes)
        cols_e = state.colors[dst]
        inside = (cols_e >= 0) & (info.labels[dst] == clique_ids[group[rows_e]])
        pairs, cnt_nk = np.unique(
            rows_e[inside] * nc + cols_e[inside], return_counts=True
        )
        prow, pcol = pairs // nc, pairs % nc
        covered = np.bincount(
            prow[cnt_nk == cnt_k[group[prow], pcol]], minlength=nodes.size
        )
        anti = distinct_k[group] - covered
        list_sizes.append(list_sizes[0] + np.maximum.reduceat(anti, starts))

    id_bits = bits_for_id(net.n)
    rounds = np.zeros(num, dtype=np.int64)
    total_part, bit_level = 0, 0
    for stage, list_size in enumerate(list_sizes):
        rows = np.flatnonzero(state.colors[nodes] < 0)
        if stage:
            rows = rows[two_stage[group[rows]]]
        if rows.size == 0:
            break
        g = group[rows]
        usable = _palettes(state, nodes[rows])
        if stage == 0:
            usable &= cnt_k[g] == 0
        values, offsets = _flat_lists(usable)
        node_list, g_list = nodes[rows].tolist(), g.tolist()
        # log log n independent instances in parallel; each clique adopts
        # its first instance with the most colored nodes.
        best_n = np.zeros(num, dtype=np.int64)
        best_rep = np.full(num, -1, dtype=np.int64)
        pick_rows, pick_cols, pick_rep = [], [], []
        for rep in range(repeats):
            tags = [(keys[s], stage, rep) for s in g_list]
            samples = _presample(node_list, values, offsets, k, seq, tags)
            prow, pcol = _greedy(g_list, samples)
            n_rep = np.bincount(g[prow], minlength=num)
            better = n_rep > best_n
            best_n[better] = n_rep[better]
            best_rep[better] = rep
            pick_rows += prow
            pick_cols += pcol
            pick_rep += [rep] * len(prow)
        win = best_rep[g[pick_rows]] == np.asarray(pick_rep, dtype=np.int64)
        if win.any():
            state.adopt(
                nodes[rows][np.asarray(pick_rows)[win]],
                np.asarray(pick_cols, dtype=np.int64)[win],
            )
            report.colored += int(win.sum())
        # Bits: k color indices per instance, all instances in one
        # Many-to-All wave (2 rounds) per bandwidth-sized chunk.
        part = np.bincount(g, minlength=num)
        for s in np.flatnonzero(part).tolist():
            msg_bits = k * repeats * bits_for_int(max(int(list_size[s]), 2)) + id_bits
            waves, msg_bits = _waves(msg_bits, net.bandwidth_bits)
            total_part += int(part[s])
            bit_level = max(bit_level, msg_bits)
            rounds[s] += 2 * waves
    compress_rounds = int(rounds.max())
    for _ in range(compress_rounds):
        net.account_vector_round(total_part, bit_level, phase=phase)

    # Finish (Lemma 3.10): lists are broadcast, and every node simulates
    # the greedy — in ID order, v takes the smallest color of its list ∩
    # Ψ(v) = Ψ(v) that no smaller-ID node of its clique took.
    rows = np.flatnonzero(state.colors[nodes] < 0)
    if rows.size == 0:
        return compress_rounds, 0
    ascending = np.where(_palettes(state, nodes[rows]), np.arange(nc), nc)
    ascending.sort(axis=1)
    ascending[ascending == nc] = -1
    fin_rows, fin_cols = _greedy(group[rows].tolist(), ascending)
    if fin_rows:
        state.adopt(nodes[rows][fin_rows], np.asarray(fin_cols, dtype=np.int64))
        report.colored += len(fin_rows)
    # Bits: |P̂_K|+1 colors of O(log log n) bits each.
    color_code_bits = bits_for_int(max(int(poly_log(net.n, 3.0, 1.0)), 2))
    part = np.bincount(group[rows], minlength=num)
    finish_rounds, bit_level = 0, 0
    for s in np.flatnonzero(part).tolist():
        waves, msg_bits = _waves(
            (int(part[s]) + 1) * max(1, color_code_bits // 2), net.bandwidth_bits
        )
        bit_level = max(bit_level, msg_bits)
        finish_rounds = max(finish_rounds, 2 * waves)
    for _ in range(finish_rounds):
        net.account_vector_round(int(rows.size), bit_level, phase=phase)
    return compress_rounds, finish_rounds
