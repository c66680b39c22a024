"""Cross-component consistency checks.

These tests pin down equivalences that hold *by construction* between
different code paths, so a refactor that silently breaks one path gets
caught by the other.
"""

import numpy as np
import pytest

from repro.core import (
    HammingClassifier,
    PrototypeClassifier,
    RecordEncoder,
    majority_vote_batch,
    pairwise_hamming,
)
from repro.eval.crossval import leave_one_out_hamming


@pytest.fixture(scope="module")
def small_encoded():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    y = (X[:, 0] > 0).astype(int)
    enc = RecordEncoder(dim=1024, seed=2).fit(X)
    return enc, X, enc.transform(X), y


class TestLoocvEquivalence:
    def test_matrix_loocv_equals_explicit_refits(self, small_encoded):
        """The masked-diagonal LOOCV must equal literally leaving each
        record out and classifying it with a freshly 'fitted' model."""
        _, _, packed, y = small_encoded
        fast = leave_one_out_hamming(packed, y)
        slow_preds = []
        n = len(y)
        for i in range(n):
            mask = np.arange(n) != i
            clf = HammingClassifier(dim=1024).fit(packed[mask], y[mask])
            slow_preds.append(clf.predict(packed[i : i + 1])[0])
        assert np.array_equal(fast.y_pred, np.array(slow_preds))

    def test_loocv_knn_equals_classifier_knn(self, small_encoded):
        _, _, packed, y = small_encoded
        fast = leave_one_out_hamming(packed, y, n_neighbors=3)
        slow_preds = []
        n = len(y)
        for i in range(n):
            mask = np.arange(n) != i
            clf = HammingClassifier(dim=1024, n_neighbors=3).fit(packed[mask], y[mask])
            slow_preds.append(clf.predict(packed[i : i + 1])[0])
        assert np.array_equal(fast.y_pred, np.array(slow_preds))


class TestEncoderIdentities:
    def test_single_feature_record_equals_feature_encoding(self, rng):
        """Bundling one feature hypervector is the identity."""
        X = rng.uniform(0, 10, size=(25, 1))
        enc = RecordEncoder(dim=512, seed=4).fit(X)
        records = enc.transform(X)
        features = enc.encode_features(X)[:, 0, :]
        assert np.array_equal(records, features)

    def test_batch_transform_equals_rowwise(self, small_encoded):
        enc, X, packed, _ = small_encoded
        rowwise = np.vstack([enc.transform(X[i : i + 1]) for i in range(len(X))])
        assert np.array_equal(packed, rowwise)

    def test_feature_layer_rebundles_to_records(self, small_encoded):
        enc, X, packed, _ = small_encoded
        feats = enc.encode_features(X)
        rebundled = majority_vote_batch(feats, enc.dim, tie=enc.tie)
        assert np.array_equal(rebundled, packed)


class TestPrototypeEquivalences:
    def test_online_fit_equals_batch_prototype(self, small_encoded):
        _, _, packed, y = small_encoded
        online = PrototypeClassifier(dim=1024).fit(packed[:20], y[:20])
        online.partial_fit(packed[20:], y[20:])
        batch = PrototypeClassifier(dim=1024).fit(packed, y)
        assert np.array_equal(online.prototypes_, batch.prototypes_)
        assert np.array_equal(online.predict(packed), batch.predict(packed))

    def test_prototype_is_classwise_majority(self, small_encoded):
        _, _, packed, y = small_encoded
        proto = PrototypeClassifier(dim=1024).fit(packed, y)
        for c_idx, cls in enumerate(proto.classes_):
            members = packed[y == cls]
            manual = majority_vote_batch(members[None, :, :], 1024)[0]
            assert np.array_equal(proto.prototypes_[c_idx], manual)


class TestDistanceConsistency:
    def test_hamming_classifier_uses_pairwise_kernel(self, small_encoded):
        _, _, packed, y = small_encoded
        clf = HammingClassifier(dim=1024).fit(packed, y)
        D_clf = clf.decision_distances(packed[:5])
        D_raw = pairwise_hamming(packed[:5], packed)
        assert np.array_equal(D_clf, D_raw)

    def test_score_equals_manual_accuracy(self, small_encoded):
        _, _, packed, y = small_encoded
        clf = HammingClassifier(dim=1024, n_neighbors=3).fit(packed, y)
        pred = clf.predict(packed)
        assert clf.score(packed, y) == pytest.approx(np.mean(pred == y))
