"""Cross-validation and splitting (S12) — the paper's three protocols.

* **Leave-one-out** for the pure Hamming model (§II-C): implemented
  *without* n refits — streamed through the triangular top-k engine
  (:func:`repro.core.search.loo_topk_hamming`), which computes each
  symmetric tile once and never materialises the ``n x n`` matrix.  This
  is the paper's point about HDC's algorithmic advantage: LOOCV on
  392-768 patients takes milliseconds, and memory stays O(tile) at any n.
* **(Stratified) k-fold** for the ML grid (§III-A, 10-fold).
* **70/15/15 train/val/test split** for the Sequential NN (§II-D) and
  **90/10 split** for Tables IV/V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.search import loo_topk_hamming, loo_topk_hamming_reference, vote_counts
from repro.eval.metrics import classification_report
from repro.ml.base import clone
from repro.obs import span
from repro.parallel import parallel_map
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_consistent_length, check_positive_int, column_or_1d


# ----------------------------------------------------------------------
# Splitters
# ----------------------------------------------------------------------
def train_test_split(
    *arrays,
    test_size: float = 0.25,
    stratify: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """Shuffle-split each array into train/test parts.

    Returns ``[a_train, a_test, b_train, b_test, ...]``; with ``stratify``
    the class proportions are preserved in both parts (per-class
    round-half counts, matching sklearn's behaviour closely).
    """
    if not arrays:
        raise ValueError("at least one array required")
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    check_consistent_length(*arrays)
    n = np.asarray(arrays[0]).shape[0]
    rng = as_generator(seed)
    if stratify is None:
        perm = rng.permutation(n)
        n_test = max(1, int(round(test_size * n)))
        test_idx, train_idx = perm[:n_test], perm[n_test:]
    else:
        strat = column_or_1d(stratify, name="stratify")
        if strat.shape[0] != n:
            raise ValueError("stratify length mismatch")
        test_parts = []
        train_parts = []
        for cls in np.unique(strat):
            members = np.flatnonzero(strat == cls)
            members = rng.permutation(members)
            n_test_c = max(1, int(round(test_size * members.size)))
            test_parts.append(members[:n_test_c])
            train_parts.append(members[n_test_c:])
        test_idx = rng.permutation(np.concatenate(test_parts))
        train_idx = rng.permutation(np.concatenate(train_parts))
    out: List[np.ndarray] = []
    for arr in arrays:
        arr = np.asarray(arr)
        out.append(arr[train_idx])
        out.append(arr[test_idx])
    return out


def train_val_test_split(
    *arrays,
    val_size: float = 0.15,
    test_size: float = 0.15,
    stratify: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """The paper's 70/15/15 protocol; returns triplets per array.

    Split is computed on an index array so every input (and the optional
    stratify labels) is partitioned identically, then the test slice is
    peeled first and the validation slice second.
    """
    if val_size + test_size >= 1.0:
        raise ValueError("val_size + test_size must be < 1")
    if not arrays:
        raise ValueError("at least one array required")
    check_consistent_length(*arrays)
    n = np.asarray(arrays[0]).shape[0]
    rng = as_generator(seed)
    indices = np.arange(n)
    rest_idx, test_idx = train_test_split(
        indices, test_size=test_size, stratify=stratify, seed=rng
    )
    strat_rest = None if stratify is None else np.asarray(stratify)[rest_idx]
    rel_val = val_size / (1.0 - test_size)
    train_idx, val_idx = train_test_split(
        rest_idx, test_size=rel_val, stratify=strat_rest, seed=rng
    )
    out: List[np.ndarray] = []
    for arr in arrays:
        arr = np.asarray(arr)
        out.extend([arr[train_idx], arr[val_idx], arr[test_idx]])
    return out


@dataclass(frozen=True)
class KFold:
    """Plain k-fold splitter over shuffled indices."""

    n_splits: int = 10
    shuffle: bool = True
    seed: SeedLike = None

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        check_positive_int(self.n_splits, "n_splits", minimum=2)
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        idx = np.arange(n_samples)
        if self.shuffle:
            idx = as_generator(self.seed).permutation(n_samples)
        folds = np.array_split(idx, self.n_splits)
        for i in range(self.n_splits):
            test = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, test


@dataclass(frozen=True)
class StratifiedKFold:
    """K-fold preserving class proportions in every fold."""

    n_splits: int = 10
    shuffle: bool = True
    seed: SeedLike = None

    def split(self, y: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        check_positive_int(self.n_splits, "n_splits", minimum=2)
        y = column_or_1d(y)
        rng = as_generator(self.seed)
        fold_bins: List[List[np.ndarray]] = [[] for _ in range(self.n_splits)]
        for cls in np.unique(y):
            members = np.flatnonzero(y == cls)
            if members.size < self.n_splits and members.size > 0:
                # Still distribute what exists; folds may miss rare classes.
                pass
            if self.shuffle:
                members = rng.permutation(members)
            for i, part in enumerate(np.array_split(members, self.n_splits)):
                fold_bins[i].append(part)
        folds = [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64) for parts in fold_bins]
        for i in range(self.n_splits):
            if folds[i].size == 0:
                raise ValueError("a fold came out empty; reduce n_splits")
            test = np.sort(folds[i])
            train = np.sort(np.concatenate([folds[j] for j in range(self.n_splits) if j != i]))
            yield train, test


# ----------------------------------------------------------------------
# Model-agnostic CV driver
# ----------------------------------------------------------------------
@dataclass
class CVResult:
    """Per-fold scores from :func:`cross_validate`."""

    train_scores: np.ndarray
    test_scores: np.ndarray

    @property
    def mean_train(self) -> float:
        return float(self.train_scores.mean())

    @property
    def mean_test(self) -> float:
        return float(self.test_scores.mean())


def cross_validate(
    estimator,
    X,
    y,
    *,
    n_splits: int = 10,
    stratified: bool = True,
    seed: SeedLike = 0,
    n_jobs: Optional[int] = 1,
) -> CVResult:
    """Fit a fresh clone per fold; record train and test accuracy.

    The paper's Table III reports *training* accuracy under 10-fold CV
    (following the Kaggle reference it normalises against), which is why
    both scores are kept.
    """
    X = np.asarray(X)
    y = column_or_1d(y)
    check_consistent_length(X, y, names=("X", "y"))
    splitter = (
        StratifiedKFold(n_splits=n_splits, seed=seed)
        if stratified
        else KFold(n_splits=n_splits, seed=seed)
    )
    splits = list(splitter.split(y) if stratified else splitter.split(X.shape[0]))

    def run_fold(split: Tuple[np.ndarray, np.ndarray]) -> Tuple[float, float]:
        train, test = split
        with span("eval.fold", train=train.size, test=test.size):
            model = clone(estimator)
            model.fit(X[train], y[train])
            return model.score(X[train], y[train]), model.score(X[test], y[test])

    with span("eval.crossval", folds=len(splits), rows=X.shape[0]):
        scores = parallel_map(run_fold, splits, n_jobs=n_jobs)
    tr, te = zip(*scores)
    return CVResult(np.asarray(tr), np.asarray(te))


# ----------------------------------------------------------------------
# Leave-one-out for the Hamming model
# ----------------------------------------------------------------------
@dataclass
class LOOResult:
    """Predictions and report from matrix-based leave-one-out."""

    y_true: np.ndarray
    y_pred: np.ndarray
    report: dict

    @property
    def accuracy(self) -> float:
        return self.report["accuracy"]


def _loo_validate(packed: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    y = column_or_1d(y)
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.shape[0] != y.shape[0]:
        raise ValueError("packed and y length mismatch")
    if packed.shape[0] < 2:
        raise ValueError("leave-one-out needs at least 2 records")
    return packed, y


def _loo_result(
    neighbors: np.ndarray, y: np.ndarray, positive
) -> LOOResult:
    """Map an ``(n, k)`` non-self neighbour matrix to voted predictions."""
    classes, y_idx = np.unique(y, return_inverse=True)
    if neighbors.shape[1] == 1:
        pred_idx = y_idx[neighbors[:, 0]]
    else:
        counts = vote_counts(y_idx[neighbors], classes.size)
        pred_idx = np.argmax(counts, axis=1)
    y_pred = classes[pred_idx]
    report = classification_report(y, y_pred, positive=positive)
    return LOOResult(y_true=y.copy(), y_pred=y_pred, report=report)


def leave_one_out_hamming(
    packed: np.ndarray,
    y: np.ndarray,
    *,
    n_neighbors: int = 1,
    positive=1,
    chunk_rows: int = 128,
    n_jobs: Optional[int] = 1,
) -> LOOResult:
    """§II-C's validation: each record classified by its nearest *other* record.

    Streams through :func:`repro.core.search.loo_topk_hamming`: only
    upper-triangle tiles are computed (each block serves both its row and
    column tile), the diagonal is masked with an int64 sentinel, and no
    ``n x n`` matrix is ever materialised — peak memory is the tile blocks
    in flight plus the ``(n, k)`` running top-k state.  With
    ``n_neighbors > 1`` the k nearest non-self records vote.  Predictions
    are bit-identical to :func:`leave_one_out_hamming_reference` (ties to
    the lowest record index); ``chunk_rows``/``n_jobs`` only change the
    tile geometry and dispatch, never the result.
    """
    packed, y = _loo_validate(packed, y)
    k = min(n_neighbors, packed.shape[0] - 1)
    with span("eval.loo", records=packed.shape[0], k=k):
        _, neighbors = loo_topk_hamming(packed, k, chunk_rows=chunk_rows, n_jobs=n_jobs)
        return _loo_result(neighbors, y, positive)


def leave_one_out_hamming_reference(
    packed: np.ndarray,
    y: np.ndarray,
    *,
    n_neighbors: int = 1,
    positive=1,
    chunk_rows: int = 128,
) -> LOOResult:
    """Dense-matrix reference for :func:`leave_one_out_hamming`.

    One full ``n x n`` int64 matrix with the diagonal masked by the int64
    sentinel ``64 * words + 1`` (no float upcast — the previous float64
    masking doubled peak memory just to write ``np.inf``), then a stable
    full sort per row.  Kept as the differential-test oracle.
    """
    packed, y = _loo_validate(packed, y)
    k = min(n_neighbors, packed.shape[0] - 1)
    _, neighbors = loo_topk_hamming_reference(packed, k, chunk_rows=chunk_rows)
    return _loo_result(neighbors, y, positive)
