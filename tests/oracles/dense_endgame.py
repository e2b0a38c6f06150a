"""Per-node reference forms of the dense-clique endgame kernels.

These are the loops the runtime kernels in ``repro.core.putaside``,
``repro.core.learn_palette`` and ``repro.core.sct`` replaced: one
``state.palette(v)`` and one ``intersect1d`` per node and instance in
CompressTry, explicit anti-neighbour colour sets, the list-by-list
finish greedy, per-member bitmap loops in LearnPalette and one
``flatnonzero`` per S-node in the SCT.  They draw from the same streams
with the same keys, so on any input the kernels must agree with them
colour for colour, report field for report field, and round for round.
"""

from __future__ import annotations

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.learn_palette import PaletteKnowledge
from repro.core.permute import sample_permutation
from repro.core.putaside import PutAsideReport
from repro.core.sct import SCTReport
from repro.core.state import ColoringState
from repro.core.trycolor import palette_interval_sampler, resolve_proposals, try_color_round
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color, bits_for_id, bits_for_int
from repro.util.mathx import poly_log


# ---------------------------------------------------------------------------
# Put-aside sets (Algorithm 6, Lemmas 3.10 / 3.13)
# ---------------------------------------------------------------------------


def compress_try_reference(
    state: ColoringState,
    s_nodes: np.ndarray,
    lists: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    tag: object = 0,
) -> tuple[list[int], list[int]]:
    """One CompressTry instance, node by node in ID order."""
    k = max(1, cfg.compress_try_colors)
    order = np.sort(np.asarray(s_nodes, dtype=np.int64))
    taken: set[int] = set()
    nodes_out: list[int] = []
    colors_out: list[int] = []
    for v in order:
        v = int(v)
        lv = lists.get(v)
        if lv is None or lv.size == 0:
            continue
        pal = state.palette(v)
        usable = np.intersect1d(lv, pal, assume_unique=False)
        if usable.size == 0:
            continue
        rng = seq.node_stream("compress-try", v, tag)
        samples = usable[rng.integers(0, usable.size, size=k)]
        for c in samples:
            c = int(c)
            if c not in taken:
                taken.add(c)
                nodes_out.append(v)
                colors_out.append(c)
                break
    return nodes_out, colors_out


def clique_palette_reference(state: ColoringState, members: np.ndarray) -> np.ndarray:
    """Ψ(K) = [Δ+1] \\ C(K) (Definition 2.7)."""
    used = np.zeros(state.num_colors, dtype=bool)
    mc = state.colors[members]
    used[mc[mc >= 0]] = True
    return np.flatnonzero(~used).astype(np.int64)


def anti_neighbor_colors_reference(
    state: ColoringState, members: np.ndarray, v: int
) -> np.ndarray:
    """C(K \\ N(v)): colours of v's anti-neighbours inside K."""
    nbrs = set(int(u) for u in state.net.neighbors(v))
    anti = [int(u) for u in members if int(u) != v and int(u) not in nbrs]
    cols = (
        state.colors[np.asarray(anti, dtype=np.int64)]
        if anti
        else np.empty(0, dtype=np.int64)
    )
    return np.unique(cols[cols >= 0]).astype(np.int64)


def color_putaside_sets_reference(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "putaside",
) -> PutAsideReport:
    """Clique by clique: the CompressTry stages, then the finish greedy."""
    net = state.net
    report = PutAsideReport()
    log_thr = cfg.log_threshold(net.n)
    k = max(1, cfg.compress_try_colors)

    max_compress_rounds = 0
    max_finish_rounds = 0
    compress_msgs: list[tuple[int, int]] = []
    finish_msgs: list[tuple[int, int]] = []
    for c, p_nodes in putaside.items():
        members = info.members(c)
        pending = p_nodes[state.colors[p_nodes] < 0]
        if pending.size == 0:
            continue

        stages: list[dict[int, np.ndarray]] = []
        psi_k = clique_palette_reference(state, members)
        stages.append({int(v): psi_k for v in pending})
        if not info.a_k[c] >= log_thr:
            stages.append(
                {
                    int(v): np.union1d(
                        psi_k, anti_neighbor_colors_reference(state, members, int(v))
                    )
                    for v in pending
                }
            )

        rounds_here = 0
        for stage_idx, lists in enumerate(stages):
            pending = pending[state.colors[pending] < 0]
            if pending.size == 0:
                break
            best: tuple[list[int], list[int]] = ([], [])
            for rep in range(max(1, cfg.compress_try_repeats)):
                nodes_out, colors_out = compress_try_reference(
                    state, pending, lists, cfg, seq, tag=(c, stage_idx, rep)
                )
                if len(nodes_out) > len(best[0]):
                    best = (nodes_out, colors_out)
            if best[0]:
                state.adopt(
                    np.asarray(best[0], dtype=np.int64),
                    np.asarray(best[1], dtype=np.int64),
                )
                report.colored += len(best[0])
            list_size = max((arr.size for arr in lists.values()), default=1)
            msg_bits = (
                k * max(1, cfg.compress_try_repeats) * bits_for_int(max(list_size, 2))
                + bits_for_id(net.n)
            )
            waves = 1
            budget = net.bandwidth_bits
            if budget is not None and msg_bits > budget:
                waves = int(np.ceil(msg_bits / budget))
                msg_bits = budget
            compress_msgs.append((int(pending.size), msg_bits))
            rounds_here += 2 * waves
        max_compress_rounds = max(max_compress_rounds, rounds_here)

        pending = p_nodes[state.colors[p_nodes] < 0]
        if pending.size:
            psi_k = clique_palette_reference(state, members)
            nodes_fin: list[int] = []
            cols_fin: list[int] = []
            taken: set[int] = set()
            for v in np.sort(pending):
                v = int(v)
                lv = np.union1d(psi_k, anti_neighbor_colors_reference(state, members, v))
                pal = state.palette(v)
                usable = np.setdiff1d(
                    np.intersect1d(lv, pal), np.asarray(sorted(taken), dtype=np.int64)
                )
                if usable.size:
                    cchoice = int(usable[0])
                    taken.add(cchoice)
                    nodes_fin.append(v)
                    cols_fin.append(cchoice)
            if nodes_fin:
                state.adopt(
                    np.asarray(nodes_fin, dtype=np.int64),
                    np.asarray(cols_fin, dtype=np.int64),
                )
                report.colored += len(nodes_fin)
            color_code_bits = bits_for_int(max(int(poly_log(net.n, 3.0, 1.0)), 2))
            msg_bits = (pending.size + 1) * max(1, color_code_bits // 2)
            budget = net.bandwidth_bits
            waves = 1
            if budget is not None and msg_bits > budget:
                waves = int(np.ceil(msg_bits / budget))
                msg_bits = budget
            finish_msgs.append((int(pending.size), msg_bits))
            max_finish_rounds = max(max_finish_rounds, 2 * waves)

    if compress_msgs:
        total_part = sum(p for p, _ in compress_msgs)
        bit_level = max(b for _, b in compress_msgs)
        for _ in range(max_compress_rounds):
            net.account_vector_round(total_part, bit_level, phase=phase)
    if finish_msgs:
        total_part = sum(p for p, _ in finish_msgs)
        bit_level = max(b for _, b in finish_msgs)
        for _ in range(max_finish_rounds):
            net.account_vector_round(total_part, bit_level, phase=phase)

    report.compress_rounds = max_compress_rounds
    report.finish_rounds = max_finish_rounds
    report.left_uncolored = sum(
        int((state.colors[p_nodes] < 0).sum()) for p_nodes in putaside.values()
    )
    return report


# ---------------------------------------------------------------------------
# LearnPalette (Algorithm 2) and the SCT proposals (§3.2)
# ---------------------------------------------------------------------------


def learn_palette_reference(
    state: ColoringState,
    members: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/learn-palette",
    tag: object = 0,
    account: bool = True,
) -> PaletteKnowledge:
    """Algorithm 2 with one bitmap loop and one OR loop over the members."""
    net = state.net
    members = np.asarray(members, dtype=np.int64)
    num_colors = state.num_colors
    size = members.size

    k = max(1, int(net.delta // max(cfg.log_threshold(net.n), 1.0)))
    k = min(k, max(size, 1))
    bounds = np.linspace(0, num_colors, k + 1).astype(np.int64)

    rng = seq.stream("learn-palette", phase, tag)
    t = rng.integers(0, k, size=size)

    member_row = {int(v): i for i, v in enumerate(members)}
    in_clique = np.zeros(net.n, dtype=bool)
    in_clique[members] = True

    bitmaps = np.zeros((size, num_colors), dtype=bool)
    for i, v in enumerate(members):
        lo, hi = int(bounds[t[i]]), int(bounds[t[i] + 1])
        nbrs = net.neighbors(int(v))
        nbrs = nbrs[in_clique[nbrs]]
        cols = state.colors[nbrs]
        cols = cols[(cols >= lo) & (cols < hi)]
        bitmaps[i, cols] = True

    known_used = np.zeros((size, num_colors), dtype=bool)
    for i, v in enumerate(members):
        nbrs = net.neighbors(int(v))
        nbrs = nbrs[in_clique[nbrs]]
        rows = np.array([member_row[int(u)] for u in nbrs], dtype=np.int64)
        if rows.size:
            known_used[i] = bitmaps[rows].any(axis=0)
        cols = state.colors[nbrs]
        known_used[i, cols[cols >= 0]] = True
        if state.colors[members[i]] >= 0:
            known_used[i, state.colors[members[i]]] = True

    true_used = np.zeros(num_colors, dtype=bool)
    mc = state.colors[members]
    true_used[mc[mc >= 0]] = True

    missed = (~known_used & true_used[None, :]).any(axis=1)
    incomplete = int(missed.sum())

    range_len = int((bounds[1:] - bounds[:-1]).max()) if k else num_colors
    if account:
        net.account_vector_round(size, range_len + bits_for_int(k), phase=phase)

    return PaletteKnowledge(
        members=members,
        known_free=~known_used,
        true_free=~true_used,
        complete=incomplete == 0,
        incomplete_members=incomplete,
    )


def synchronized_color_trial_reference(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct",
) -> SCTReport:
    """The SCT with Python-set S-nodes and one ``flatnonzero`` per proposal."""
    net = state.net
    report = SCTReport()
    proposals = np.full(state.n, -1, dtype=np.int64)

    permute_rounds = 0
    lp_messages = 0
    for c in range(info.num_cliques):
        members = info.members(c)
        aside = set(int(v) for v in putaside.get(c, np.empty(0, dtype=np.int64)))
        unc = members[state.colors[members] < 0]
        s_nodes = np.array([v for v in unc if int(v) not in aside], dtype=np.int64)
        if s_nodes.size == 0:
            continue
        report.cliques += 1

        knowledge = learn_palette_reference(
            state, members, cfg, seq, phase=f"{phase}/learn-palette", tag=c, account=False
        )
        lp_messages += members.size
        if not knowledge.complete:
            report.learn_palette_incomplete += 1

        perm = sample_permutation(
            net, members, s_nodes, cfg, seq, phase=f"{phase}/permute", tag=c, account=False
        )
        permute_rounds = max(permute_rounds, perm.rounds)

        x_k = int(info.x_k[c])
        row_of = {int(v): i for i, v in enumerate(knowledge.members)}
        available_true = int((np.flatnonzero(knowledge.true_free) >= x_k).sum())
        if available_true < s_nodes.size:
            report.palette_deficits += 1

        for v, p in zip(perm.nodes, perm.pi):
            v = int(v)
            learned = knowledge.learned_palette(row_of[v])
            learned = learned[learned >= x_k]
            if p < learned.size:
                proposals[v] = int(learned[p])
                report.tried += 1

    if report.cliques:
        net.account_vector_round(
            lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/learn-palette"
        )
        for _ in range(permute_rounds):
            net.account_vector_round(
                lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/permute"
            )
    report.permute_rounds_max = permute_rounds

    report.colored = resolve_proposals(
        state, proposals, phase=f"{phase}/trial", bits=bits_for_color(state.delta)
    )

    for c in range(info.num_cliques):
        members = info.members(c)
        aside = set(int(v) for v in putaside.get(c, np.empty(0, dtype=np.int64)))
        unc = [v for v in members[state.colors[members] < 0] if int(v) not in aside]
        report.leftover_by_clique[c] = len(unc)

    open_cliques = info.cliques_of_kind("open")
    if open_cliques:
        open_nodes_mask = np.zeros(state.n, dtype=bool)
        for c in open_cliques:
            open_nodes_mask[info.members(c)] = True
        sampler = palette_interval_sampler(state, info.x_node, state.num_colors)
        for r in range(cfg.sct_extra_trycolor_rounds):
            participants = np.flatnonzero(open_nodes_mask & (state.colors < 0))
            if participants.size == 0:
                break
            report.colored += try_color_round(
                state, participants, sampler, seq, phase=f"{phase}/open-trycolor", round_tag=r
            )
            report.extra_trycolor_rounds += 1

    return report
