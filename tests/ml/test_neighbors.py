"""Tests for the KNN classifier."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.neighbors import KNeighborsClassifier


class TestKNN:
    def test_one_nn_training_perfect(self, toy_binary_problem):
        X, y = toy_binary_problem
        knn = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert knn.score(X, y) == 1.0

    def test_generalises(self, toy_holdout):
        (X, y), (Xt, yt) = toy_holdout
        knn = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        assert knn.score(Xt, yt) > 0.8

    def test_distance_block_matches_bruteforce(self, rng):
        X = rng.normal(size=(40, 5))
        Q = rng.normal(size=(9, 5))
        knn = KNeighborsClassifier().fit(X, np.arange(40) % 2)
        D = knn._distance_block(Q)
        ref = np.sqrt(((Q[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        assert np.allclose(D, ref, atol=1e-8)

    def test_manhattan_metric(self, rng):
        X = rng.normal(size=(40, 5))
        Q = rng.normal(size=(5, 5))
        knn = KNeighborsClassifier(metric="manhattan").fit(X, np.arange(40) % 2)
        D = knn._distance_block(Q)
        ref = np.abs(Q[:, None, :] - X[None, :, :]).sum(axis=2)
        assert np.allclose(D, ref)

    def test_block_rows_invariance(self, toy_binary_problem):
        X, y = toy_binary_problem
        big = KNeighborsClassifier(chunk_rows=1000).fit(X, y).predict(X)
        small = KNeighborsClassifier(chunk_rows=7).fit(X, y).predict(X)
        assert np.array_equal(big, small)

    def test_distance_weights_exact_match_dominates(self, rng):
        X = np.array([[0.0], [1.0], [1.01], [1.02]])
        y = np.array([0, 1, 1, 1])
        knn = KNeighborsClassifier(n_neighbors=4, weights="distance").fit(X, y)
        # query exactly on the class-0 point: inverse distance is huge
        assert knn.predict(np.array([[0.0]]))[0] == 0

    def test_uniform_vs_distance_differ(self, rng):
        X = np.vstack([rng.normal(0, 1, (30, 2)), rng.normal(2.0, 1, (70, 2))])
        y = np.array([0] * 30 + [1] * 70)
        q = rng.normal(1.0, 1, (50, 2))
        u = KNeighborsClassifier(n_neighbors=9, weights="uniform").fit(X, y).predict(q)
        d = KNeighborsClassifier(n_neighbors=9, weights="distance").fit(X, y).predict(q)
        assert not np.array_equal(u, d)

    def test_proba_sums_to_one(self, toy_binary_problem):
        X, y = toy_binary_problem
        p = KNeighborsClassifier(n_neighbors=7).fit(X, y).predict_proba(X)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_kneighbors_output(self, toy_binary_problem):
        X, y = toy_binary_problem
        knn = KNeighborsClassifier(n_neighbors=3).fit(X, y)
        d, idx = knn.kneighbors(X[:5])
        assert d.shape == (5, 3) and idx.shape == (5, 3)
        # self is nearest (GEMM cancellation leaves ~1e-6 residue)
        assert np.allclose(d[:, 0], 0.0, atol=1e-5)
        assert np.all(np.diff(d, axis=1) >= -1e-9)  # sorted

    def test_kneighbors_too_many(self, toy_binary_problem):
        X, y = toy_binary_problem
        knn = KNeighborsClassifier().fit(X, y)
        with pytest.raises(ValueError, match="exceeds"):
            knn.kneighbors(X[:2], n_neighbors=10_000)

    def test_n_neighbors_exceeds_training(self):
        with pytest.raises(ValueError, match="exceeds"):
            KNeighborsClassifier(n_neighbors=10).fit(np.zeros((5, 2)), [0, 1, 0, 1, 0])

    def test_bad_weights(self, toy_binary_problem):
        X, y = toy_binary_problem
        with pytest.raises(ValueError, match="weights"):
            KNeighborsClassifier(weights="gaussian").fit(X, y)

    def test_bad_metric(self, toy_binary_problem):
        X, y = toy_binary_problem
        with pytest.raises(ValueError, match="metric"):
            KNeighborsClassifier(metric="cosine").fit(X, y)

    def test_unfitted(self, toy_binary_problem):
        X, _ = toy_binary_problem
        with pytest.raises(NotFittedError):
            KNeighborsClassifier().predict(X)

    def test_feature_mismatch(self, toy_binary_problem):
        X, y = toy_binary_problem
        knn = KNeighborsClassifier().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            knn.predict(X[:, :2])

    def test_hypervector_input_matches_hamming_1nn(self, rng):
        """On 0/1 input, Euclidean 1-NN ranks identically to Hamming 1-NN."""
        from repro.core.classifier import HammingClassifier

        dense = (rng.random((80, 512)) < 0.5).astype(float)
        y = (dense[:, 0] > 0).astype(int)
        tr, te = np.arange(60), np.arange(60, 80)
        knn = KNeighborsClassifier(n_neighbors=1).fit(dense[tr], y[tr])
        ham = HammingClassifier(dim=512).fit(dense[tr].astype(np.uint8), y[tr])
        assert np.array_equal(
            knn.predict(dense[te]), ham.predict(dense[te].astype(np.uint8))
        )
