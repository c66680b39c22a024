"""Tests for splitting and cross-validation."""

import numpy as np
import pytest

from repro.core.records import RecordEncoder
from repro.eval.crossval import (
    KFold,
    StratifiedKFold,
    cross_validate,
    leave_one_out_hamming,
    train_test_split,
    train_val_test_split,
)
from repro.ml.tree import DecisionTreeClassifier


class TestTrainTestSplit:
    def test_sizes(self, rng):
        X = rng.normal(size=(100, 3))
        X_tr, X_te = train_test_split(X, test_size=0.25, seed=0)
        assert X_te.shape[0] == 25 and X_tr.shape[0] == 75

    def test_multiple_arrays_aligned(self, rng):
        X = rng.normal(size=(60, 2))
        y = np.arange(60)
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.2, seed=0)
        # rows stay paired: X row i was built from index y value
        assert X_tr.shape[0] == y_tr.shape[0]
        assert set(y_tr).isdisjoint(y_te)
        assert len(set(y_tr) | set(y_te)) == 60

    def test_stratified_preserves_ratio(self, rng):
        y = np.array([0] * 80 + [1] * 20)
        _, y_te = train_test_split(y, test_size=0.25, stratify=y, seed=0)
        assert abs(y_te.mean() - 0.2) < 0.05

    def test_stratified_includes_both_classes(self, rng):
        y = np.array([0] * 95 + [1] * 5)
        _, y_te = train_test_split(y, test_size=0.1, stratify=y, seed=0)
        assert set(np.unique(y_te)) == {0, 1}

    def test_reproducible(self, rng):
        X = rng.normal(size=(50, 2))
        a = train_test_split(X, seed=3)
        b = train_test_split(X, seed=3)
        assert np.array_equal(a[0], b[0])

    def test_invalid_test_size(self, rng):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((10, 1)), test_size=1.5)

    def test_no_arrays(self):
        with pytest.raises(ValueError):
            train_test_split()


class TestTrainValTestSplit:
    def test_paper_70_15_15(self, rng):
        X = rng.normal(size=(200, 2))
        y = (rng.random(200) < 0.4).astype(int)
        X_tr, X_val, X_te, y_tr, y_val, y_te = train_val_test_split(
            X, y, val_size=0.15, test_size=0.15, stratify=y, seed=0
        )
        assert X_te.shape[0] == pytest.approx(30, abs=2)
        assert X_val.shape[0] == pytest.approx(30, abs=2)
        assert X_tr.shape[0] + X_val.shape[0] + X_te.shape[0] == 200

    def test_partitions_disjoint(self, rng):
        idx = np.arange(120)
        tr, val, te = train_val_test_split(idx, seed=1)
        assert set(tr).isdisjoint(val) and set(tr).isdisjoint(te) and set(val).isdisjoint(te)
        assert len(tr) + len(val) + len(te) == 120

    def test_invalid_fractions(self, rng):
        with pytest.raises(ValueError):
            train_val_test_split(np.zeros((10, 1)), val_size=0.6, test_size=0.5)


class TestKFold:
    def test_partition_property(self):
        kf = KFold(n_splits=5, seed=0)
        seen = []
        for train, test in kf.split(53):
            assert set(train).isdisjoint(test)
            assert len(train) + len(test) == 53
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(53))

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="folds"):
            list(KFold(n_splits=10).split(5))

    def test_no_shuffle_contiguous(self):
        kf = KFold(n_splits=2, shuffle=False)
        (train, test), _ = list(kf.split(10))
        assert test.tolist() == [0, 1, 2, 3, 4]


class TestStratifiedKFold:
    def test_fold_class_ratios(self):
        y = np.array([0] * 70 + [1] * 30)
        skf = StratifiedKFold(n_splits=10, seed=0)
        for train, test in skf.split(y):
            assert abs(y[test].mean() - 0.3) < 0.11

    def test_partition_property(self):
        y = np.array([0, 1] * 25)
        seen = []
        for train, test in StratifiedKFold(n_splits=5, seed=1).split(y):
            assert set(train).isdisjoint(test)
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(50))

    def test_deterministic(self):
        y = np.array([0, 1] * 30)
        a = [t.tolist() for _, t in StratifiedKFold(5, seed=2).split(y)]
        b = [t.tolist() for _, t in StratifiedKFold(5, seed=2).split(y)]
        assert a == b


class TestCrossValidate:
    def test_scores_shape_and_range(self, toy_binary_problem):
        X, y = toy_binary_problem
        res = cross_validate(
            DecisionTreeClassifier(max_depth=3), X, y, n_splits=5, seed=0
        )
        assert res.train_scores.shape == (5,)
        assert res.test_scores.shape == (5,)
        assert 0.5 < res.mean_test <= 1.0
        assert res.mean_train >= res.mean_test - 0.05

    def test_estimator_not_mutated(self, toy_binary_problem):
        X, y = toy_binary_problem
        template = DecisionTreeClassifier(max_depth=3)
        cross_validate(template, X, y, n_splits=3, seed=0)
        assert not hasattr(template, "tree_")

    def test_parallel_matches_serial(self, toy_binary_problem):
        X, y = toy_binary_problem
        est = DecisionTreeClassifier(max_depth=3, random_state=0)
        a = cross_validate(est, X, y, n_splits=4, seed=1, n_jobs=1)
        b = cross_validate(est, X, y, n_splits=4, seed=1, n_jobs=3)
        assert np.array_equal(a.test_scores, b.test_scores)

    def test_unstratified_option(self, toy_binary_problem):
        X, y = toy_binary_problem
        res = cross_validate(
            DecisionTreeClassifier(max_depth=3), X, y, n_splits=4, stratified=False, seed=0
        )
        assert res.test_scores.shape == (4,)


class TestLeaveOneOutHamming:
    @pytest.fixture
    def encoded(self, rng):
        X = rng.normal(size=(90, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        enc = RecordEncoder(dim=2048, seed=0).fit(X)
        return enc.transform(X), y

    def test_accuracy_above_chance(self, encoded):
        packed, y = encoded
        res = leave_one_out_hamming(packed, y)
        assert res.accuracy > 0.65

    def test_never_self_matches(self, rng):
        """A duplicated record must be matched to its twin, not itself."""
        from repro.core.hypervector import random_packed

        packed = random_packed(10, 512, seed=0)
        packed[1] = packed[0]  # twin pair with different labels
        y = np.zeros(10, dtype=int)
        y[0] = 1
        y[1] = 0
        res = leave_one_out_hamming(packed, y)
        # record 0's nearest non-self neighbour is record 1 (distance 0)
        assert res.y_pred[0] == 0

    def test_report_fields(self, encoded):
        packed, y = encoded
        res = leave_one_out_hamming(packed, y)
        for key in ("precision", "recall", "specificity", "f1", "accuracy"):
            assert 0.0 <= res.report[key] <= 1.0

    def test_knn_variant(self, encoded):
        packed, y = encoded
        res = leave_one_out_hamming(packed, y, n_neighbors=5)
        assert res.accuracy > 0.6

    def test_block_invariance(self, encoded):
        packed, y = encoded
        a = leave_one_out_hamming(packed, y, chunk_rows=7)
        b = leave_one_out_hamming(packed, y, chunk_rows=128)
        assert np.array_equal(a.y_pred, b.y_pred)

    def test_length_mismatch(self, encoded):
        packed, y = encoded
        with pytest.raises(ValueError, match="mismatch"):
            leave_one_out_hamming(packed, y[:-1])

    def test_needs_two_records(self, encoded):
        packed, y = encoded
        with pytest.raises(ValueError, match="at least 2"):
            leave_one_out_hamming(packed[:1], y[:1])
