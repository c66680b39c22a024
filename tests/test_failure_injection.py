"""Failure-injection tests: garbage in, loud errors out.

Systematically feeds malformed input to every public entry point and
asserts a *specific* exception type — never a silent wrong answer, never
an opaque NumPy broadcast error from deep inside a kernel.
"""

import numpy as np
import pytest

from repro.core import (
    BinaryEncoder,
    HammingClassifier,
    Hypervector,
    ItemMemory,
    LevelEncoder,
    PrototypeClassifier,
    RecordEncoder,
    majority_vote,
    pack_bits,
    pairwise_hamming,
    unpack_bits,
)
from repro.data.datasets import Dataset
from repro.core.records import FeatureSpec
from repro.eval import (
    StratifiedKFold,
    cross_validate,
    leave_one_out_hamming,
    train_test_split,
)
from repro.ml import DecisionTreeClassifier, LogisticRegression


class TestHypervectorEdges:
    def test_empty_bit_axis(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((3, 0), dtype=np.uint8))

    def test_unpack_negative_dim(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros((1, 1), dtype=np.uint64), 0)

    def test_pairwise_on_1d(self):
        with pytest.raises(ValueError):
            pairwise_hamming(np.zeros(3, dtype=np.uint64))

    def test_hypervector_zero_dim(self):
        with pytest.raises(ValueError):
            Hypervector.zeros(0)

    def test_majority_wrong_word_count(self):
        packed = np.zeros((3, 2), dtype=np.uint64)
        with pytest.raises(ValueError):
            majority_vote(packed, 300)  # 300 bits need 5 words, not 2


class TestEncoderEdges:
    def test_level_encoder_inf(self):
        with pytest.raises(ValueError):
            LevelEncoder(dim=64).fit([0.0, np.inf])

    def test_level_encoder_single_value_then_encode_other(self):
        enc = LevelEncoder(dim=64, seed=0).fit([5.0])
        # degenerate range: every value maps to the seed, never crashes
        assert np.array_equal(enc.encode(5.0), enc.encode(-3.0))

    def test_binary_encoder_none_value(self):
        enc = BinaryEncoder(dim=64, seed=0).fit()
        with pytest.raises((ValueError, TypeError)):
            enc.encode(None)

    def test_record_encoder_empty_matrix(self):
        with pytest.raises(ValueError):
            RecordEncoder(dim=64).fit(np.zeros((0, 3)))

    def test_record_encoder_nan(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(ValueError):
            RecordEncoder(dim=64).fit(X)

    def test_record_encoder_object_dtype(self):
        X = np.array([["a", "b"], ["c", "d"]], dtype=object)
        with pytest.raises((ValueError, TypeError)):
            RecordEncoder(dim=64).fit(X)


class TestClassifierEdges:
    def test_hamming_classifier_3d_input(self):
        with pytest.raises(ValueError):
            HammingClassifier(dim=64).fit(np.zeros((2, 1, 1), dtype=np.uint64), [0, 1])

    def test_hamming_classifier_garbage_dense(self, rng):
        X = rng.normal(size=(4, 64))  # right width, wrong values
        with pytest.raises(ValueError, match="0/1"):
            HammingClassifier(dim=64).fit(X, [0, 1, 0, 1])

    def test_online_classifier_float_labels_ok_but_unseen_rejected(self, rng):
        packed = pack_bits((rng.random((6, 64)) < 0.5).astype(np.uint8))
        clf = PrototypeClassifier(dim=64).fit(packed, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            clf.partial_fit(packed[:1], [2.0])


class TestEvalEdges:
    def test_loocv_on_empty(self):
        with pytest.raises(ValueError):
            leave_one_out_hamming(np.zeros((0, 1), dtype=np.uint64), [])

    def test_split_test_size_one(self, rng):
        with pytest.raises(ValueError):
            train_test_split(rng.normal(size=(10, 2)), test_size=1.0)

    def test_stratified_kfold_more_splits_than_samples(self):
        with pytest.raises(ValueError):
            list(StratifiedKFold(n_splits=10).split(np.array([0, 1])))

    def test_cross_validate_length_mismatch(self, rng):
        X = rng.normal(size=(20, 2))
        with pytest.raises(ValueError):
            cross_validate(DecisionTreeClassifier(), X, np.zeros(19), n_splits=2)


class TestModelEdges:
    def test_tree_empty_X(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), [])

    def test_tree_inf_feature(self, rng):
        X = rng.normal(size=(10, 2))
        X[3, 1] = np.inf
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(X, np.arange(10) % 2)

    def test_logreg_predict_transposed(self, rng):
        X = rng.normal(size=(30, 4))
        y = (X[:, 0] > 0).astype(int)
        lr = LogisticRegression().fit(X, y)
        with pytest.raises(ValueError):
            lr.predict(X.T)

    def test_extreme_magnitudes_do_not_overflow(self, rng):
        """1e12-scale features must not produce NaN/inf probabilities."""
        X = rng.normal(size=(50, 3)) * 1e12
        y = (X[:, 0] > 0).astype(int)
        lr = LogisticRegression(max_iter=50).fit(X, y)
        p = lr.predict_proba(X)
        assert np.all(np.isfinite(p))

    def test_duplicate_rows_conflicting_labels(self):
        """Identical rows with opposite labels: models must cope, not loop."""
        X = np.ones((10, 2))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        p = tree.predict_proba(X)
        assert np.allclose(p, 0.5)


class TestDatasetEdges:
    def test_dataset_with_nonnumeric_y(self):
        ds = Dataset(
            name="d",
            X=np.zeros((2, 1)),
            y=np.array([0, 1]),
            feature_names=["a"],
            specs=[FeatureSpec("a")],
        )
        assert ds.n_positive == 1

    def test_subset_out_of_range(self):
        ds = Dataset(
            name="d",
            X=np.zeros((2, 1)),
            y=np.array([0, 1]),
            feature_names=["a"],
            specs=[FeatureSpec("a")],
        )
        with pytest.raises(IndexError):
            ds.subset(np.array([5]))
