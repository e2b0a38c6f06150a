"""LearnPalette (Algorithm 2): every member of an almost-clique learns the
clique palette Ψ(K) in O(1) rounds.

The color space [Δ+1] is split into k = ⌊Δ/(C log n)⌋ contiguous ranges
R_1..R_k.  Every member picks a random range index t(v); the set
T_i = {v : t(v) = i} 2-hop connects K w.h.p. (Lemma 4.1).  Each v
broadcasts a C·log n-bit bitmap of R_{t(v)} ∩ C(N(v) ∩ K) — the colors of
its in-clique neighbors falling in its range — and every u ∈ K recovers
R_i ∩ C(K) by OR-ing the bitmaps received from its neighbors in T_i
(Lemma 4.2: any used color c ∈ R_i with holder w is seen because T_i
contains a common neighbor of u and w).

The implementation runs the actual protocol (random ranges, per-node
bitmaps, OR over in-clique neighbors) and reports per-node completeness,
so the w.h.p. statement of Lemma 4.2 is measurable.  It runs as one
array kernel per clique: the in-clique edges come from one gather of the
members' rows, the bitmaps are scattered from them, and every member's
OR over its in-clique neighbors is one adjacency product
``known_used = A_K·(bitmaps ∨ onehot(colors)) ∨ own color``, taken over the
columns of C(K) only — every color a member can learn is held by a
member, and while the SCT runs most of K is uncolored.  The per-member
loops are kept as test oracles in ``tests/oracles/dense_endgame.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ColoringConfig
from repro.core.state import ColoringState
from repro.simulator.rng import SeedSequencer
from repro.util.bitio import bits_for_int

__all__ = ["PaletteKnowledge", "learn_palette"]


@dataclass
class PaletteKnowledge:
    """What LearnPalette produced for one clique."""

    members: np.ndarray  # clique members, aligned with rows of `known_free`
    known_free: np.ndarray  # (|K|, num_colors) bool: v's view of Ψ(K)
    true_free: np.ndarray  # (num_colors,) bool: the actual Ψ(K)
    complete: bool  # every member learned exactly C(K)
    incomplete_members: int

    def learned_palette(self, row: int) -> np.ndarray:
        """The clique palette as node ``members[row]`` believes it to be."""
        return np.flatnonzero(self.known_free[row]).astype(np.int64)


def learn_palette(
    state: ColoringState,
    members: np.ndarray,
    cfg: ColoringConfig,
    seq: SeedSequencer,
    phase: str = "sct/learn-palette",
    tag: object = 0,
    account: bool = True,
) -> PaletteKnowledge:
    """Run Algorithm 2 in the clique with the given ``members``."""
    net = state.net
    members = np.asarray(members, dtype=np.int64)
    num_colors = state.num_colors
    size = members.size

    # Number of ranges: k = ⌊Δ/(C log n)⌋, at least 1 (Algorithm 2).
    k = max(1, int(net.delta // max(cfg.log_threshold(net.n), 1.0)))
    k = min(k, max(size, 1))
    bounds = np.linspace(0, num_colors, k + 1).astype(np.int64)

    rng = seq.stream("learn-palette", phase, tag)
    t = rng.integers(0, k, size=size)

    # In-clique edges (row → row) from the members' own CSR rows.
    src_row, dst = net.row_edges(members)
    order = np.argsort(members, kind="stable")
    pos = np.minimum(np.searchsorted(members[order], dst), size - 1)
    inside = members[order][pos] == dst
    src_row, dst_row = src_row[inside], order[pos[inside]]
    nbr_cols = state.colors[dst[inside]]

    # Only colors of C(K) can be learned: the kernel works on its columns.
    own = state.colors[members]
    colored = np.flatnonzero(own >= 0)
    true_used = np.zeros(num_colors, dtype=bool)
    true_used[own[colored]] = True
    column = np.cumsum(true_used) - 1  # color → column of C(K)

    # Step 1: per-member bitmap of its range ∩ colors of in-clique
    # neighbors; the sender's own color rides along as a one-hot column.
    lo, hi = bounds[t], bounds[t + 1]
    in_range = (nbr_cols >= lo[src_row]) & (nbr_cols < hi[src_row])
    sent = np.zeros((size, int(true_used.sum())), dtype=np.float32)
    sent[src_row[in_range], column[nbr_cols[in_range]]] = 1.0
    sent[colored, column[own[colored]]] = 1.0

    # Step 2: each member ORs the bitmaps of its in-clique neighbors
    # (grouped by range via t, which travels with the bitmap), so it also
    # knows its neighbors' own colors — one product with the in-clique
    # adjacency A_K — and it knows its own color.
    adj = np.zeros((size, size), dtype=np.float32)
    adj[src_row, dst_row] = 1.0
    learned = (adj @ sent) > 0
    learned[colored, column[own[colored]]] = True
    known_used = np.zeros((size, num_colors), dtype=bool)
    known_used[:, true_used] = learned

    # Completeness: over-approximation is impossible (bitmaps only carry
    # genuinely used colors); count members that *missed* colors.
    incomplete = int((~learned).any(axis=1).sum())

    # One broadcast round: bitmap (range length bits) + the range index.
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
