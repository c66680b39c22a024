"""Majority-vote bundling (S3) — §II-B's record combination step.

Feature hypervectors are combined into one patient hypervector by bitwise
majority: each output bit is the most common bit across the feature
vectors, with ties (even feature counts) resolved to 1 by default, exactly
the paper's rule.  Alternative tie rules (0, random) are exposed for the
A2 ablation.

Implementation: the fused pipeline splits bundling into two primitives —
:func:`majority_vote_counts`, which accumulates per-bit vote counts
*column by column across features* (one feature's packed batch is unpacked
at a time, so an ``(n, m)`` batch never materialises the full
``(n, m, dim)`` dense tensor), and :func:`majority_from_counts`, which
thresholds a counts matrix into packed majority bits under the paper's tie
rule.  :func:`majority_vote_batch` composes the two; the record encoder's
chunked fast path calls them directly so vote counts can be built
incrementally from gathered level-table rows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.hypervector import n_words, pack_bits, unpack_bits
from repro.kernels import get_backend
from repro.obs import span
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_positive_int

_TIE_RULES = ("one", "zero", "random")


def majority_dense(
    bits: np.ndarray,
    *,
    tie: str = "one",
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Majority vote over axis 0 of a dense 0/1 array ``(m, dim)``.

    Returns a dense uint8 vector of length ``dim``.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ValueError(f"bits must be (m, dim), got shape {bits.shape}")
    m = bits.shape[0]
    if m == 0:
        raise ValueError("cannot take a majority over zero vectors")
    if tie not in _TIE_RULES:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    counts = bits.sum(axis=0, dtype=np.int64)
    double = 2 * counts
    out = (double > m).astype(np.uint8)
    if m % 2 == 0:
        tied = double == m
        if tie == "one":
            out[tied] = 1
        elif tie == "zero":
            out[tied] = 0
        else:
            gen = rng if rng is not None else as_generator(None)
            out[tied] = gen.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
    return out


def majority_vote(
    packed: np.ndarray,
    dim: int,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Majority-bundle ``m`` packed hypervectors ``(m, words)`` into one.

    Parameters
    ----------
    packed : (m, words) uint64
        The feature hypervectors of one record.
    dim:
        Bit dimensionality (needed to ignore padding bits).
    tie:
        ``"one"`` (paper default), ``"zero"``, or ``"random"``.
    seed:
        Only used by the random tie rule.

    Returns
    -------
    (words,) uint64 — the bundled record hypervector.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError(f"packed must be (m, words), got shape {packed.shape}")
    dense = unpack_bits(packed, dim)
    rng = as_generator(seed) if tie == "random" else None
    voted = majority_dense(dense, tie=tie, rng=rng)
    return pack_bits(voted[None, :], dim)[0]


def vote_count_dtype(m: int) -> np.dtype:
    """Smallest signed accumulator dtype that can hold counts up to ``m``."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return np.dtype(np.int16) if m <= np.iinfo(np.int16).max else np.dtype(np.int64)


def majority_vote_counts(
    packed_stack: np.ndarray,
    dim: int,
    *,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-bit vote counts of a packed batch: ``(n, m, words) -> (n, dim)``.

    Accumulates column by column across the feature axis — each feature's
    ``(n, words)`` slice is unpacked and added on its own, so peak memory
    is ``O(n * dim)`` regardless of ``m`` (the naive dense route needs
    ``O(n * m * dim)``).  Pass ``out`` (an integer ``(n, dim)`` array,
    zero-filled by the caller or reused across calls) to accumulate into
    existing counts; otherwise a fresh accumulator is allocated with
    :func:`vote_count_dtype`.
    """
    packed_stack = np.asarray(packed_stack, dtype=np.uint64)
    if packed_stack.ndim != 3:
        raise ValueError(
            f"packed_stack must be (n, m, words), got shape {packed_stack.shape}"
        )
    check_positive_int(dim, "dim")
    n, m, words = packed_stack.shape
    if words != n_words(dim):
        raise ValueError(f"packed_stack has {words} words; dim {dim} needs {n_words(dim)}")
    if out is None:
        out = np.zeros((n, dim), dtype=vote_count_dtype(m))
    elif out.shape != (n, dim):
        raise ValueError(f"out shape {out.shape} != ({n}, {dim})")
    elif not np.issubdtype(out.dtype, np.integer):
        raise ValueError(f"out must be an integer accumulator, got {out.dtype}")
    backend = get_backend()
    with span("bundle.vote_counts", rows=n, features=m, dim=dim, kernel=backend.name):
        backend.majority_vote_counts(packed_stack, dim, out)
    return out


def majority_from_counts(
    counts: np.ndarray,
    m: int,
    dim: int,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Threshold per-bit vote counts into packed majority bits.

    ``counts`` is an ``(n, dim)`` integer matrix of ones-votes out of ``m``
    voters; the result is the packed ``(n, words)`` majority bundle under
    the given tie rule.  Exactly the decision step of
    :func:`majority_vote_batch`, split out so the fused record encoder can
    build counts incrementally.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != dim:
        raise ValueError(f"counts must be (n, {dim}), got shape {counts.shape}")
    if m < 1:
        raise ValueError("cannot take a majority over zero vectors")
    if tie not in _TIE_RULES:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    # 2*c > m  <=>  c > m // 2 for integer counts: threshold in the native
    # accumulator dtype so no doubled int64 copy is ever materialised.
    half = m // 2
    out = counts > half
    if m % 2 == 0:
        tied = counts == half
        if tie == "one":
            out |= tied
        elif tie == "random":
            rng = as_generator(seed)
            out[tied] = rng.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
        # tie == "zero": already 0
    return pack_bits(out, dim)


def majority_vote_batch(
    packed_stack: np.ndarray,
    dim: int,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Majority-bundle a batch: ``(n, m, words) -> (n, words)``.

    This is the hot path of record encoding (n patients x m features);
    vote counts are accumulated feature-by-feature with
    :func:`majority_vote_counts` and thresholded by
    :func:`majority_from_counts`.
    """
    check_positive_int(dim, "dim")
    packed_stack = np.asarray(packed_stack, dtype=np.uint64)
    if packed_stack.ndim != 3:
        raise ValueError(
            f"packed_stack must be (n, m, words), got shape {packed_stack.shape}"
        )
    _, m, _ = packed_stack.shape
    if m == 0:
        raise ValueError("cannot take a majority over zero vectors")
    counts = majority_vote_counts(packed_stack, dim)
    return majority_from_counts(counts, m, dim, tie=tie, seed=seed)


def weighted_majority(
    packed: np.ndarray,
    dim: int,
    weights: np.ndarray,
    *,
    tie: str = "one",
    seed: SeedLike = None,
) -> np.ndarray:
    """Weighted majority bundle (extension beyond the paper).

    Each feature vector votes with a non-negative weight; a bit is set when
    the weighted sum of ones exceeds half the total weight.  With unit
    weights this reduces exactly to :func:`majority_vote`.  Exposed so the
    encoding ablation can emphasise clinically-dominant features (e.g.
    glucose) without changing the pipeline.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    weights = np.asarray(weights, dtype=np.float64)
    if packed.ndim != 2:
        raise ValueError("packed must be (m, words)")
    if weights.shape != (packed.shape[0],):
        raise ValueError(
            f"weights shape {weights.shape} != ({packed.shape[0]},)"
        )
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and non-negative")
    total = weights.sum()
    if total == 0:
        raise ValueError("at least one weight must be positive")
    dense = unpack_bits(packed, dim).astype(np.float64)
    score = weights @ dense  # (dim,)
    out = (score > total / 2).astype(np.uint8)
    tied = np.isclose(score, total / 2)
    if tie == "one":
        out[tied] = 1
    elif tie == "zero":
        out[tied] = 0
    elif tie == "random":
        rng = as_generator(seed)
        out[tied] = rng.integers(0, 2, size=int(tied.sum()), dtype=np.uint8)
    else:
        raise ValueError(f"tie must be one of {_TIE_RULES}, got {tie!r}")
    return pack_bits(out[None, :], dim)[0]
