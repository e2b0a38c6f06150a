"""Synchronized Color Trial (§3.2, Lemma 3.5, §4).

The dense-node engine (Challenge 2 of §1.2): inside each almost-clique K,
distribute the colors of the clique palette Ψ(K)\\[x(K)] bijectively to the
uncolored members via a random permutation — no two members can collide,
so a member only fails because of *external* neighbors.  Lemma 3.5: w.h.p.
at most O(e_K + log n) members per clique stay uncolored.

Pipeline per clique (all cliques run in parallel; rounds are charged as
the maximum over cliques, messages as the sum):

1. LearnPalette (Algorithm 2) — everyone learns Ψ(K), O(1) rounds;
2. Permute (Algorithm 5 by default) — a near-uniform π of S = K̂\\P_K;
3. node with position p tries the p-th color of Ψ(K)\\[x(K)];
4. global conflict resolution (colored neighbors, smaller-ID ties) and
   adoption;
5. open cliques only: O(1) extra TryColor rounds restricted to
   Ψ(v)\\[x(v)] (proof of Lemma 3.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import ColoringConfig
from repro.core.cliques import CliqueInfo
from repro.core.learn_palette import learn_palette
from repro.core.permute import sample_permutation
from repro.core.state import ColoringState
from repro.core.trycolor import palette_interval_sampler, resolve_proposals, try_color_round
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_color

__all__ = ["SCTReport", "synchronized_color_trial"]


@dataclass
class SCTReport:
    tried: int = 0
    colored: int = 0
    cliques: int = 0
    permute_rounds_max: int = 0
    learn_palette_incomplete: int = 0
    palette_deficits: int = 0  # cliques where |Ψ(K)\[x]| < |S| (Lemma 3.6 check)
    leftover_by_clique: dict[int, int] = field(default_factory=dict)
    extra_trycolor_rounds: int = 0

    def as_dict(self) -> dict:
        return {
            "tried": self.tried,
            "colored": self.colored,
            "cliques": self.cliques,
            "permute_rounds_max": self.permute_rounds_max,
            "learn_palette_incomplete": self.learn_palette_incomplete,
            "palette_deficits": self.palette_deficits,
            "extra_trycolor_rounds": self.extra_trycolor_rounds,
        }


def synchronized_color_trial(
    state: ColoringState,
    info: CliqueInfo,
    putaside: dict[int, np.ndarray],
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct",
) -> SCTReport:
    """Run the SCT in every almost-clique simultaneously."""
    net = state.net
    report = SCTReport()
    proposals = np.full(state.n, -1, dtype=np.int64)

    aside_mask = np.zeros(state.n, dtype=bool)
    for nodes in putaside.values():
        aside_mask[nodes] = True

    permute_rounds = 0
    lp_messages = 0
    for c in range(info.num_cliques):
        members = info.members(c)
        s_nodes = members[(state.colors[members] < 0) & ~aside_mask[members]]
        if s_nodes.size == 0:
            continue
        report.cliques += 1

        knowledge = learn_palette(
            state, members, cfg, seq, phase=f"{phase}/learn-palette", tag=c, account=False
        )
        lp_messages += members.size
        if not knowledge.complete:
            report.learn_palette_incomplete += 1

        perm = sample_permutation(
            net,
            members,
            s_nodes,
            cfg,
            seq,
            phase=f"{phase}/permute",
            tag=c,
            account=False,
        )
        permute_rounds = max(permute_rounds, perm.rounds)

        # Lemma 3.6 feasibility diagnostic: enough colors above the prefix?
        x_k = int(info.x_k[c])
        if int(knowledge.true_free[x_k:].sum()) < s_nodes.size:
            report.palette_deficits += 1

        # The node at position p proposes the p-th color ≥ x(K) of its
        # learned palette: the first column whose running count passes p.
        nodes = np.asarray(perm.nodes, dtype=np.int64)
        pi = np.asarray(perm.pi, dtype=np.int64)
        learned = knowledge.known_free[np.searchsorted(members, nodes), x_k:]
        rank = np.cumsum(learned, axis=1)
        if rank.shape[1]:
            ok = pi < rank[:, -1]
            proposals[nodes[ok]] = x_k + (rank[ok] <= pi[ok, None]).sum(axis=1)
            report.tried += int(ok.sum())

    # Charge the parallel LearnPalette round(s) and the max permute rounds.
    if report.cliques:
        net.account_vector_round(
            lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/learn-palette"
        )
        for _ in range(permute_rounds):
            net.account_vector_round(
                lp_messages, net.bandwidth_bits or 64, phase=f"{phase}/permute"
            )
    report.permute_rounds_max = permute_rounds

    # The trial itself: one simultaneous proposal round, globally resolved.
    report.colored = resolve_proposals(
        state, proposals, phase=f"{phase}/trial", bits=bits_for_color(state.delta)
    )

    # Leftovers per clique (the Lemma 3.5 / Claim 3.8 measurement).
    left = (info.labels >= 0) & (state.colors < 0) & ~aside_mask
    counts = np.bincount(info.labels[left], minlength=info.num_cliques)
    report.leftover_by_clique = dict(enumerate(counts.tolist()))

    # Open cliques: extra TryColor rounds from Ψ(v)\[x(v)] (Lemma 3.7).
    open_cliques = info.cliques_of_kind("open")
    if open_cliques:
        open_nodes_mask = np.zeros(state.n, dtype=bool)
        for c in open_cliques:
            members = info.members(c)
            open_nodes_mask[members] = True
        sampler = palette_interval_sampler(state, info.x_node, state.num_colors)
        for r in range(cfg.sct_extra_trycolor_rounds):
            participants = np.flatnonzero(open_nodes_mask & (state.colors < 0))
            if participants.size == 0:
                break
            colored = try_color_round(
                state,
                participants,
                sampler,
                seq,
                phase=f"{phase}/open-trycolor",
                round_tag=r,
            )
            report.colored += colored
            report.extra_trycolor_rounds += 1

    return report
