"""Tests for PrototypeClassifier's incremental accumulator API.

``partial_fit`` / ``retrain`` / ``class_counts_`` and the accumulator
state; the batch-classifier contract lives in ``test_classifier.py``.
"""

import hashlib

import numpy as np
import pytest

from repro.core.bundling import majority_vote
from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.base import NotFittedError


@pytest.fixture
def encoded_problem(rng):
    n = 150
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    enc = RecordEncoder(dim=2048, seed=0).fit(X)
    return enc.transform(X), y


class TestBatchEquivalence:
    def test_fit_matches_prototype_classifier(self, encoded_problem):
        """Each prototype is exactly its class's ``majority_vote`` bundle."""
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        for c, cls in enumerate(clf.classes_):
            expected = majority_vote(packed[y == cls], 2048)
            assert np.array_equal(clf.prototypes_[c], expected)

    def test_incremental_equals_batch(self, encoded_problem):
        """fit(a)+partial_fit(b) == fit(a+b)."""
        packed, y = encoded_problem
        half = len(y) // 2
        inc = PrototypeClassifier(dim=2048).fit(packed[:half], y[:half])
        inc.partial_fit(packed[half:], y[half:])
        full = PrototypeClassifier(dim=2048).fit(packed, y)
        assert np.array_equal(inc.predict(packed), full.predict(packed))

    def test_order_invariance(self, encoded_problem):
        packed, y = encoded_problem
        perm = np.random.default_rng(1).permutation(len(y))
        a = PrototypeClassifier(dim=2048).fit(packed, y)
        b = PrototypeClassifier(dim=2048).fit(packed[perm], y[perm])
        assert np.array_equal(a.predict(packed), b.predict(packed))


class TestIncrementalBehaviour:
    def test_partial_fit_requires_fit(self, encoded_problem):
        packed, y = encoded_problem
        with pytest.raises(NotFittedError):
            PrototypeClassifier(dim=2048).partial_fit(packed, y)

    def test_unseen_label_rejected(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        with pytest.raises(ValueError, match="not present"):
            clf.partial_fit(packed[:3], np.array([7, 7, 7]))

    def test_unseen_label_leaves_state_unchanged(self, encoded_problem):
        """A batch mixing known and unseen labels is rejected whole."""
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        before = clf.get_state()
        counts, n = before["counts"].copy(), before["n"].copy()
        pred = clf.predict(packed)
        with pytest.raises(ValueError, match="not present"):
            clf.partial_fit(packed[:3], np.array([0, 1, 7]))
        after = clf.get_state()
        assert np.array_equal(after["counts"], counts)
        assert np.array_equal(after["n"], n)
        assert np.array_equal(clf.predict(packed), pred)

    def test_class_counts_track(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        counts = clf.class_counts_
        assert counts.sum() == len(y)
        assert counts[clf.classes_.tolist().index(1)] == int(y.sum())

    def test_prototype_requires_all_classes_seen(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).set_state({
            "params": {"dim": 2048, "tie": "one"},
            "classes": np.array([0, 1]),
            "counts": np.zeros((2, 2048), dtype=np.int64),
            "n": np.zeros(2, dtype=np.int64),
        })
        clf.partial_fit(packed[y == 1], y[y == 1])
        with pytest.raises(NotFittedError, match="no records"):
            clf.predict(packed)

    def test_proba_valid(self, encoded_problem):
        packed, y = encoded_problem
        p = PrototypeClassifier(dim=2048).fit(packed, y).predict_proba(packed)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all((p >= 0) & (p <= 1))


class TestRetraining:
    def test_retrain_reduces_training_errors(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        before = clf.score(packed, y)
        clf.retrain(packed, y, epochs=8)
        after = clf.score(packed, y)
        assert after >= before
        # error log must be non-increasing overall
        assert clf.retrain_errors_[-1] <= clf.retrain_errors_[0]

    def test_retrain_stops_when_clean(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        clf.retrain(packed, y, epochs=50)
        if clf.retrain_errors_[-1] == 0:
            assert len(clf.retrain_errors_) <= 50

    @pytest.mark.parametrize(
        "seed, k, dim, noise, errors, digest, n",
        [
            (12345, 2, 2048, 0.0, [16, 10, 3, 1, 2, 2, 1, 3],
             "4662f9c25eed5fb43593f657c1e414b666b6ad9dc5d0a1a7fa75c6cf1fc98c54",
             [83, 67]),
            (3, 3, 512, 0.2, [55, 86, 74, 57, 62, 58, 55, 56],
             "0c80a2df01e1489a21bf362a843dec054ea461c3123dbf40c39e7688cb517db5",
             [43, 52, 55]),
        ],
        ids=["two-class-2048", "three-class-noisy-512"],
    )
    def test_retrain_is_pinned(self, seed, k, dim, noise, errors, digest, n):
        """Batched retraining reproduces the per-record perceptron loop.

        Error log, accumulator digest and record counts were recorded
        from the sequential one-record-at-a-time update on these seeded
        problems.
        """
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(150, 4))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        if k == 3:
            y = y + (X[:, 2] > 0.8)
        y = np.where(rng.random(150) < noise, (y + 1) % k, y)
        packed = RecordEncoder(dim=dim, seed=0).fit(X).transform(X)
        clf = PrototypeClassifier(dim=dim).fit(packed, y).retrain(packed, y, epochs=8)
        state = clf.get_state()
        assert clf.retrain_errors_ == errors
        assert hashlib.sha256(state["counts"].tobytes()).hexdigest() == digest
        assert state["n"].tolist() == n

    def test_retrain_validation(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        with pytest.raises(ValueError, match="mismatch"):
            clf.retrain(packed, y[:-1])

    def test_retrain_epochs_positive(self, encoded_problem):
        packed, y = encoded_problem
        clf = PrototypeClassifier(dim=2048).fit(packed, y)
        with pytest.raises(ValueError):
            clf.retrain(packed, y, epochs=0)


class TestValidation:
    def test_tie_rule_validated(self):
        with pytest.raises(ValueError, match="tie"):
            PrototypeClassifier(dim=64, tie="coin")

    def test_single_class_rejected(self, encoded_problem):
        packed, _ = encoded_problem
        with pytest.raises(ValueError, match="classes"):
            PrototypeClassifier(dim=2048).fit(packed, np.zeros(packed.shape[0]))

    def test_length_mismatch(self, encoded_problem):
        packed, y = encoded_problem
        with pytest.raises(ValueError, match="rows"):
            PrototypeClassifier(dim=2048).fit(packed, y[:-1])
