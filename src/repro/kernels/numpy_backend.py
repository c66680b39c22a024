"""Pure-numpy kernel backend — the baseline every backend is pinned to.

These are the previous in-tree implementations of the registry kernels
(see :mod:`repro.kernels.signatures` for the contract), extracted from
``repro.core.distance`` / ``repro.core.search`` /
``repro.core.hypervector`` so they can be swapped against the compiled
``native`` backend.  The module is deliberately self-contained: numpy
plus :func:`repro.parallel.chunking.chunk_spans` only, and **no imports
from repro.core** — core dispatches *into* this package, never the
reverse.

The streaming merge machinery (:func:`topk_rows`, :func:`merge_topk`,
:data:`_EMPTY`) lives here too because the tile kernels are built on it;
``repro.core.search`` re-exports :func:`topk_rows` as public API.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.parallel.chunking import chunk_spans

# Running top-k slots start at this value so any real distance displaces
# them; all real Hamming distances are <= 64 * words << _EMPTY.
_EMPTY = np.iinfo(np.int64).max


# ----------------------------------------------------------------------
# Dense-row selection + streaming merge (shared by the tile kernels)
# ----------------------------------------------------------------------
def topk_rows(D: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k smallest entries per row of a dense distance matrix.

    Selection uses ``np.argpartition`` plus a vectorised boundary-tie
    repair, then a stable in-slice sort of just the k selected entries —
    never a full row sort.  Ties resolve to the lowest column index, and
    each returned row is sorted ascending by ``(value, column)``: exactly
    the first k columns of ``np.argsort(D, kind="stable")``.

    Returns ``(values, columns)``, each of shape ``(m, k)``.
    """
    D = np.asarray(D)
    if D.ndim != 2:
        raise ValueError(f"D must be 2-d, got shape {D.shape}")
    m, n = D.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if k == n:
        # Selecting every column *is* a sort; keep the stable contract.
        idx = np.argsort(D, axis=1, kind="stable")
        return np.take_along_axis(D, idx, axis=1), idx
    part = np.argpartition(D, k - 1, axis=1)[:, :k]
    kth = np.take_along_axis(D, part, axis=1).max(axis=1, keepdims=True)
    # argpartition picks *some* k smallest; among entries equal to the
    # k-th value it may keep arbitrary columns.  Rebuild the selection
    # deterministically: everything strictly below the k-th value, then
    # the lowest-index columns equal to it until k slots are filled.
    below = D < kth
    at_kth = D == kth
    need = k - below.sum(axis=1, keepdims=True)
    keep_at_kth = at_kth & (np.cumsum(at_kth, axis=1) <= need)
    cols = np.nonzero(below | keep_at_kth)[1].reshape(m, k)
    vals = np.take_along_axis(D, cols, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")  # in-slice, k elements
    return np.take_along_axis(vals, order, axis=1), np.take_along_axis(
        cols, order, axis=1
    )


def merge_topk(
    best_d: np.ndarray,
    best_i: np.ndarray,
    block: np.ndarray,
    col_start: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge one distance block into the running per-query top-k state.

    ``best_d`` / ``best_i`` are ``(q, k)`` rows sorted by ``(distance,
    index)``; ``block`` is ``(q, t)`` with global candidate indices
    ``col_start .. col_start + t``.  Candidate tiles must arrive in
    ascending global-index order: every index in ``block`` then exceeds
    every index already held, so the position-based tie-break of
    :func:`topk_rows` coincides with the global lowest-index contract.
    """
    q, k = best_d.shape
    if k == 1:
        # Running minimum: strict '<' keeps the earlier (lower) index.
        pos = block.argmin(axis=1)
        d = block[np.arange(q), pos]
        better = d < best_d[:, 0]
        best_d[better, 0] = d[better]
        best_i[better, 0] = pos[better] + col_start
        return best_d, best_i
    cand_d = np.concatenate([best_d, block], axis=1)
    vals, pos = topk_rows(cand_d, min(k, cand_d.shape[1]))
    cand_i = np.concatenate(
        [
            best_i,
            np.broadcast_to(
                np.arange(col_start, col_start + block.shape[1], dtype=np.int64),
                (q, block.shape[1]),
            ),
        ],
        axis=1,
    )
    return vals, np.take_along_axis(cand_i, pos, axis=1)


# ----------------------------------------------------------------------
# Registry kernels (canonical signatures: repro.kernels.signatures)
# ----------------------------------------------------------------------
def hamming_block(
    A: np.ndarray, B: np.ndarray, *, word_chunk: Optional[int] = None
) -> np.ndarray:
    """Dense ``(m, n)`` Hamming block between two packed batches.

    The default evaluates ``popcount(A[:, None] ^ B[None, :])`` in one
    shot, materialising an ``m * n * words``-word XOR temporary.  With
    ``word_chunk`` set, the popcount instead accumulates over slices of
    ``word_chunk`` words, capping the temporary at ``m * n * word_chunk``
    words so modest tiles stay cache-resident.
    """
    A = np.asarray(A, dtype=np.uint64)
    B = np.asarray(B, dtype=np.uint64)
    words = A.shape[-1]
    if word_chunk is None or word_chunk >= words:
        # (m, 1, w) ^ (1, n, w) -> (m, n, w) -> popcount-sum -> (m, n)
        return np.bitwise_count(A[:, None, :] ^ B[None, :, :]).sum(
            axis=-1, dtype=np.int64
        )
    out = np.zeros((A.shape[0], B.shape[0]), dtype=np.int64)
    for start in range(0, words, word_chunk):
        stop = min(start + word_chunk, words)
        out += np.bitwise_count(
            A[:, None, start:stop] ^ B[None, :, start:stop]
        ).sum(axis=-1, dtype=np.int64)
    return out


def topk_hamming_tile(
    Q: np.ndarray, X: np.ndarray, k: int, *, tile_cols: int = 1024, word_chunk: int = 32
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest candidates of ``X`` per row of query tile ``Q``, streamed.

    Peak memory is one ``(len(Q), tile_cols)`` distance block plus the
    ``(len(Q), k)`` running state; candidate tiles arrive in ascending
    index order so the merge preserves the lowest-index tie-break.
    """
    q = Q.shape[0]
    best_d = np.full((q, k), _EMPTY, dtype=np.int64)
    best_i = np.full((q, k), -1, dtype=np.int64)
    for c0, c1 in chunk_spans(X.shape[0], tile_cols):
        block = hamming_block(Q, X[c0:c1], word_chunk=word_chunk)
        best_d, best_i = merge_topk(best_d, best_i, block, c0)
    return best_d, best_i


def loo_topk_hamming_tile(
    X: np.ndarray,
    start: int,
    stop: int,
    k: int,
    *,
    tile_cols: int = 1024,
    word_chunk: int = 32,
) -> Tuple[np.ndarray, np.ndarray]:
    """k nearest *other* rows of ``X`` for rows ``start:stop``.

    Streams candidate tiles exactly like :func:`topk_hamming_tile`; tiles
    overlapping the query span mask their self-distances with the int64
    sentinel ``64 * words + 1`` (greater than any true distance, so with
    ``k <= len(X) - 1`` a self-match can never survive the merge).
    """
    words = X.shape[-1]
    sentinel = np.int64(64 * words + 1)
    Qt = X[start:stop]
    q = Qt.shape[0]
    best_d = np.full((q, k), _EMPTY, dtype=np.int64)
    best_i = np.full((q, k), -1, dtype=np.int64)
    for c0, c1 in chunk_spans(X.shape[0], tile_cols):
        block = hamming_block(Qt, X[c0:c1], word_chunk=word_chunk)
        lo = max(start, c0)
        hi = min(stop, c1)
        if lo < hi:  # this candidate tile contains some of our own rows
            rows = np.arange(lo - start, hi - start)
            block[rows, rows + (start - c0)] = sentinel
        best_d, best_i = merge_topk(best_d, best_i, block, c0)
    return best_d, best_i


def add_bits_into(packed: np.ndarray, dim: int, out: np.ndarray) -> np.ndarray:
    """Add the unpacked 0/1 bits of ``packed`` into accumulator ``out`` in place.

    Self-contained little-endian unpack (the same layout as
    :func:`repro.core.hypervector.unpack_bits`) followed by one
    ``np.add``; ``casting="unsafe"`` keeps narrow accumulators (int16)
    without a widened copy.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    bytes_view = np.ascontiguousarray(packed).view(np.uint8)
    bits = np.unpackbits(bytes_view, axis=-1, bitorder="little", count=dim)
    np.add(out, bits, out=out, casting="unsafe")
    return out


def majority_vote_counts(
    packed_stack: np.ndarray, dim: int, out: np.ndarray
) -> np.ndarray:
    """Accumulate per-bit vote counts ``(n, m, words) -> out (n, dim)`` in place.

    Column by column across the feature axis: each feature's ``(n,
    words)`` slice is unpacked and added on its own, so peak memory is
    ``O(n * dim)`` regardless of ``m``.
    """
    m = packed_stack.shape[1]
    for j in range(m):
        add_bits_into(packed_stack[:, j, :], dim, out)
    return out
