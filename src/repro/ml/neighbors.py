"""K-nearest-neighbours classifier (S8) — brute-force, fully vectorised.

Distances are computed with the expansion ``|a-b|^2 = |a|^2 + |b|^2 - 2ab``
so the hot path is one GEMM, which NumPy dispatches to BLAS — the standard
HPC trick for pairwise Euclidean distances.  On 0/1 hypervector input the
squared Euclidean distance coincides with Hamming distance, making this
estimator consistent with :class:`repro.core.HammingClassifier` up to tie
handling.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, validate_fit_args
from repro.parallel.chunking import chunk_spans
from repro.utils.validation import check_array, check_positive_int


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Majority vote over the ``n_neighbors`` nearest training samples.

    Parameters
    ----------
    n_neighbors:
        Neighbourhood size (the paper's reference notebook uses the
        sklearn default, 5).
    weights:
        ``"uniform"`` (each neighbour votes once) or ``"distance"``
        (votes weighted by inverse distance; exact matches dominate).
    metric:
        ``"euclidean"`` (default) or ``"manhattan"``.
    chunk_rows:
        Query rows per distance block, bounding peak memory for wide
        hypervector matrices.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "uniform",
        metric: str = "euclidean",
        chunk_rows: int = 256,
    ) -> None:
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.metric = metric
        self.chunk_rows = chunk_rows

    def fit(self, X, y) -> "KNeighborsClassifier":
        check_positive_int(self.n_neighbors, "n_neighbors")
        if self.weights not in ("uniform", "distance"):
            raise ValueError(
                f"weights must be 'uniform' or 'distance', got {self.weights!r}"
            )
        if self.metric not in ("euclidean", "manhattan"):
            raise ValueError(
                f"metric must be 'euclidean' or 'manhattan', got {self.metric!r}"
            )
        X, y = validate_fit_args(X, y)
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds training size {X.shape[0]}"
            )
        self.y_train_ = self._encode_labels(y)
        self.X_train_ = X
        self._train_sq_norms_ = np.einsum("ij,ij->i", X, X)
        self.n_features_in_ = X.shape[1]
        return self

    def _distance_block(self, Q: np.ndarray) -> np.ndarray:
        if self.metric == "euclidean":
            # GEMM expansion; clamp tiny negatives from cancellation.
            sq = (
                np.einsum("ij,ij->i", Q, Q)[:, None]
                + self._train_sq_norms_[None, :]
                - 2.0 * (Q @ self.X_train_.T)
            )
            return np.sqrt(np.maximum(sq, 0.0))
        # Manhattan: blocked broadcast (no GEMM identity available).
        return np.abs(Q[:, None, :] - self.X_train_[None, :, :]).sum(axis=2)

    def _neighbor_votes(self, X) -> np.ndarray:
        self._check_fitted("X_train_")
        X = check_array(X, name="X")
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, model fitted with {self.n_features_in_}"
            )
        n_classes = self.classes_.size
        votes = np.empty((X.shape[0], n_classes), dtype=np.float64)
        k = self.n_neighbors
        for start, stop in chunk_spans(X.shape[0], self.chunk_rows):
            D = self._distance_block(X[start:stop])
            # argpartition for the k smallest, then stable ordering inside.
            part = np.argpartition(D, k - 1, axis=1)[:, :k]
            rows = np.arange(D.shape[0])[:, None]
            dists = D[rows, part]
            labels = self.y_train_[part]
            if self.weights == "uniform":
                w = np.ones_like(dists)
            else:
                w = 1.0 / np.maximum(dists, 1e-12)
            block_votes = np.zeros((D.shape[0], n_classes), dtype=np.float64)
            for c in range(n_classes):
                block_votes[:, c] = np.where(labels == c, w, 0.0).sum(axis=1)
            votes[start:stop] = block_votes
        return votes

    def predict_proba(self, X) -> np.ndarray:
        votes = self._neighbor_votes(X)
        return votes / votes.sum(axis=1, keepdims=True)

    def kneighbors(self, X, n_neighbors: Optional[int] = None):
        """Indices and distances of the nearest training samples."""
        self._check_fitted("X_train_")
        k = n_neighbors or self.n_neighbors
        if k > self.X_train_.shape[0]:
            raise ValueError("n_neighbors exceeds training size")
        X = check_array(X, name="X")
        D = self._distance_block(X)
        order = np.argsort(D, axis=1, kind="stable")[:, :k]
        rows = np.arange(X.shape[0])[:, None]
        return D[rows, order], order
