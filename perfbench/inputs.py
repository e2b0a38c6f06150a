"""Seeded inputs, made from ``repro.graphs`` before any timer starts.

Every workload's inputs are a pure function of ``--seed``: the graph
comes from ``make_graph``/``make_churn`` with that seed, and the
benchmark's own choices (chunk order, nodes read) use a numpy generator
seeded from it.  Inputs are made once per invocation and never cached
on disk.

A churn stream is one ``make_churn`` sliding-window batch that replaces
``total_fraction`` of the edges, shuffled and cut into ``chunks`` equal
batches, or into batches of ``chunk_edges`` changes each.  The deleted
and the inserted edges are disjoint, so every prefix of the cut batches
is a valid stream.  Generating it costs one ``make_churn`` batch, where
``make_churn`` with one batch per step re-sorts the whole edge set for
every step (about five times the cost of applying the step).
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.events import UpdateBatch
from repro.graphs.families import make_churn


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """The benchmark's own generator for ``purpose`` under ``seed``."""
    tag = sum(ord(ch) * 131 ** i for i, ch in enumerate(purpose)) % (1 << 31)
    return np.random.default_rng([int(seed), tag])


def _keys(edges: np.ndarray, n: int) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * n + hi


class ChurnStream:
    """Batches cut from one sliding-window batch, applied in order.

    ``batch(i)`` is the i-th update; ``graph_after(i, skipped)`` is the
    edge set after updates ``0..i-1`` minus the ones in ``skipped``
    (refused by the daemon), rebuilt from the batches alone — the
    reference a final colouring is verified against.
    """

    def __init__(self, family, n, avg_degree, seed, chunks, total_fraction,
                 chunk_edges=None):
        sched = make_churn(
            family, n, avg_degree, seed, batches=1, churn_fraction=total_fraction
        )
        self.initial = sched.initial
        self.n = int(sched.initial[0])
        big = sched.batches[0]
        rng = rng_for(seed, "chunks")
        ins = big.insert_edges[rng.permutation(len(big.insert_edges))]
        dele = big.delete_edges[rng.permutation(len(big.delete_edges))]
        if chunk_edges is None:
            cuts_i = np.linspace(0, len(ins), chunks + 1).astype(int)
            cuts_d = np.linspace(0, len(dele), chunks + 1).astype(int)
        else:
            half = chunk_edges // 2
            if half * chunks > min(len(ins), len(dele)):
                raise ValueError("churn batch too small for the requested chunks")
            cuts_i = cuts_d = np.arange(chunks + 1) * half
        self.ins = [ins[a:b] for a, b in zip(cuts_i[:-1], cuts_i[1:])]
        self.dele = [dele[a:b] for a, b in zip(cuts_d[:-1], cuts_d[1:])]
        self.chunks = chunks

    def batch(self, i: int) -> UpdateBatch:
        return UpdateBatch(insert_edges=self.ins[i], delete_edges=self.dele[i])

    def graph_after(self, i: int, skipped=()) -> tuple[int, np.ndarray]:
        n, skip = self.n, set(skipped)
        keep = [k for k in range(i) if k not in skip]
        keys = _keys(self.initial[1], n)
        if keep:
            gone = np.concatenate([_keys(self.dele[k], n) for k in keep])
            new = np.concatenate([_keys(self.ins[k], n) for k in keep])
            keys = np.union1d(np.setdiff1d(keys, gone), new)
        return n, np.stack([keys // n, keys % n], axis=1)
