"""Integer hash families and b-bit minwise fingerprints.

The BCONGEST almost-clique decomposition (Lemma 2.5, implemented per
[FGH+23]'s strategy) needs every pair of adjacent nodes to estimate the
similarity of their neighborhoods from broadcast-size sketches.  We use
b-bit minwise hashing: per sample ``j`` a shared hash ``h_j`` (the top 32
bits of splitmix64) orders the vertex universe; each node's fingerprint is
the low ``b`` bits of the minimum hash over its closed neighborhood.
:func:`minwise_fingerprints` computes them one sample at a time over a
degree-sorted column layout of the adjacency, so each sample costs
O(n + m) gathers and the working set stays O(n + m).
:func:`pack_fingerprints` packs the samples ⌊64/b⌋ per uint64 word for the
SWAR similarity estimator.  Two nodes' fingerprints agree
with probability ``J + (1-J)·2^{-b}`` where ``J`` is the Jaccard similarity
of the closed neighborhoods — the standard estimator, which
:func:`repro.decomposition.minhash.estimate_edge_similarity` inverts.

Since ``b`` is constant, ``Θ(log n)`` samples fit into one ``O(log n)``-bit
broadcast, giving the O(ε⁻⁴) round count of Lemma 2.5.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hash_u64",
    "hash_array_u64",
    "mix_u64",
    "minwise_fingerprints",
    "pack_fingerprints",
    "packed_words_per_node",
]

_MASK64 = (1 << 64) - 1
# splitmix64 constants — a well-tested 64-bit mixer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# The fingerprint kernel folds neighbour columns while at least
# 1/_TAIL_FRACTION of the rows still have a neighbour left; past that cut
# the few high-degree rows finish with one reduceat per sample.
_TAIL_FRACTION = 32


def hash_u64(value: int, salt: int = 0) -> int:
    """Deterministic 64-bit hash (splitmix64 finalizer) of ``value`` under
    ``salt``.  Pure-python scalar version of :func:`hash_array_u64`."""
    z = (int(value) + _GAMMA * (int(salt) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_u64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over an (any-shape) uint64 array, applied
    in place: ``z`` is overwritten and returned.  The building block
    shared by :func:`hash_array_u64` and the counter-mode batch expansion
    in :mod:`repro.hashing.prg`.  Array arithmetic wraps mod 2⁶⁴ without
    overflow warnings."""
    t = np.empty_like(z)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(mul)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def hash_array_u64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized splitmix64 over an int array (returns uint64)."""
    z = values.astype(np.uint64)
    z += np.uint64((_GAMMA * (int(salt) + 1)) & _MASK64)
    return mix_u64(z)


def _column_layout(
    indptr: np.ndarray, indices: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Degree-sorted column layout of the CSR ``(indptr, indices)``.

    Returns ``(order, columns, tail, tail_starts)``.  ``order`` sorts the
    rows by decreasing degree (stable); column ``c`` holds the c-th
    neighbour of every row with degree > c, so each column is a prefix of
    that order.  Columns stop once fewer than R/_TAIL_FRACTION rows
    remain; the remaining neighbours of those first ``tail_starts.size``
    rows lie in ``tail``, segmented at ``tail_starts`` for one
    ``minimum.reduceat``, so a star needs O(1) columns rather than O(Δ).
    """
    rows = indptr.size - 1
    indices = np.asarray(indices, dtype=np.intp)
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    sdeg = deg[order]
    starts = indptr[:-1][order]
    # Column width: the degree of the ⌈R/_TAIL_FRACTION⌉-th row.
    width = int(sdeg[-(-rows // _TAIL_FRACTION) - 1])
    lengths = np.searchsorted(-sdeg, -np.arange(width + 1), side="left")
    columns = [indices[starts[:L] + c] for c, L in enumerate(lengths[:-1])]
    tail_rows = int(lengths[-1])
    tail_deg = sdeg[:tail_rows] - width
    tail_starts = np.cumsum(tail_deg) - tail_deg
    tail = indices[
        np.arange(int(tail_deg.sum()))
        + np.repeat(starts[:tail_rows] + width - tail_starts, tail_deg)
    ]
    return order, columns, tail, tail_starts


def _closed_minima(
    indptr: np.ndarray,
    indices: np.ndarray,
    num_samples: int,
    bits: int,
    salt: int,
) -> np.ndarray:
    """``(T, R)`` b-bit minwise fingerprints of the closed neighbourhoods
    of the R rows of the CSR ``(indptr, indices)``.  Sample ``j`` hashes
    the node ids ``0..R-1`` under salt ``salt*T + j``.

    Over the layout of :func:`_column_layout`, each column folds into the
    running minimum with one contiguous ``np.minimum`` and the tail rows
    finish with one ``minimum.reduceat`` per sample.
    """
    rows = indptr.size - 1
    fps = np.empty((num_samples, rows), dtype=np.uint16)
    if rows == 0 or num_samples == 0:
        return fps
    order, columns, tail, tail_starts = _column_layout(indptr, indices)
    tail_rows = tail_starts.size
    ids = np.arange(rows)
    unsort = np.argsort(order)
    mask = np.uint32((1 << bits) - 1)
    base = int(salt) * int(num_samples)
    buf = np.empty(rows, dtype=np.uint32)
    for j in range(num_samples):
        h = (hash_array_u64(ids, base + j) >> np.uint64(32)).astype(np.uint32)
        m = h.take(order)
        for col in columns:
            # Every index is in range, so mode="wrap" changes nothing but
            # skips the copy numpy buffers ``out`` through under "raise".
            head = m[: col.size]
            np.minimum(head, h.take(col, out=buf[: col.size], mode="wrap"), out=head)
        if tail_rows:
            head = m[:tail_rows]
            np.minimum(head, np.minimum.reduceat(h.take(tail), tail_starts), out=head)
        m &= mask
        fps[j] = m.take(unsort)
    return fps


def minwise_fingerprints(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    num_samples: int,
    bits: int,
    salt: int = 0,
) -> np.ndarray:
    """b-bit minwise fingerprints of the *closed* neighborhoods.

    One sample at a time: hash the n node ids (one splitmix64 pass, top
    32 bits), seed a running minimum with each node's own hash, and fold
    the neighbours in column by column over a degree-sorted layout built
    once per call (see :func:`_closed_minima`).  Every sample gathers
    exactly n + nnz hashes; the layout is one copy of the CSR indices and
    the per-sample buffers are O(n), so memory stays O(n + nnz) beside
    the ``(T, n)`` output.

    Hashes are the top 32 bits of splitmix64: halving the lane width
    halves gather traffic through the hot path, and at simulable n the
    probability that a 32-bit tie involves two distinct neighborhood
    members in any sample is ≈ |N[u] ∪ N[v]|²/2³³ — negligible against
    the 2^{-b} collision floor the estimator already debiases.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency of the graph.
    num_samples:
        Number of independent hash functions (T).
    bits:
        Fingerprint width b (1..16).
    salt:
        Base salt; sample j uses ``salt*num_samples + j``.

    Returns
    -------
    ``(T, n)`` uint16 array of fingerprints.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    return _closed_minima(indptr[: n + 1], indices, num_samples, bits, salt)


def packed_words_per_node(num_samples: int, bits: int) -> int:
    """Words per node of the packed layout: ⌈T / ⌊64/b⌋⌉."""
    fields = 64 // bits
    return -(-int(num_samples) // fields)


def pack_fingerprints(fps: np.ndarray, bits: int) -> np.ndarray:
    """Pack a ``(T, n)`` b-bit fingerprint matrix into ``(n, words)``
    uint64 words, ⌊64/b⌋ samples per word, node-major so each node's row
    is contiguous (per-edge XOR in the SWAR estimator streams two rows).

    Sample j lands in word ``j // fields`` at bit offset
    ``(j % fields) * bits``; unused tail fields (and the ``64 % b``
    leftover bits when b ∤ 64) stay zero, so XOR-ing two packed rows
    yields zero in every non-sample field.  Each sample's row is OR-ed
    into a ``(words, n)`` accumulator, transposed once at the end.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    num_samples, n = fps.shape
    fields = 64 // bits
    if fps.size and int(fps.max()) >> bits:
        raise ValueError(f"fingerprint value exceeds {bits} bits")
    acc = np.zeros((packed_words_per_node(num_samples, bits), n), dtype=np.uint64)
    for j in range(num_samples):
        word, field = divmod(j, fields)
        acc[word] |= fps[j].astype(np.uint64) << np.uint64(field * bits)
    return np.ascontiguousarray(acc.T)
