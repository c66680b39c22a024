"""FollowUpTrainer: labelled follow-ups become a servable candidate.

The continual-learning loop of DESIGN.md §13: rows buffer until the
online accumulator has seen two classes, every later feedback call is
one ``partial_fit``, and ``build_candidate`` snapshots the accumulator
as a normal artifact (with the follow-up population's centroid persisted
as the drift reference).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.records import RecordEncoder
from repro.lifecycle import FollowUpTrainer
from repro.persist import artifact_extras, load_artifact

DIM = 256


@pytest.fixture(scope="module")
def fitted_encoder(pima_r):
    return RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7).fit(pima_r.X)


@pytest.fixture()
def trainer(fitted_encoder):
    return FollowUpTrainer(fitted_encoder)


def _rows_for(pima_r, label, n):
    return pima_r.X[pima_r.y == label][:n]


def test_unfitted_encoder_is_rejected(pima_r):
    with pytest.raises(ValueError, match="fitted"):
        FollowUpTrainer(RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7))


def test_rows_buffer_until_two_classes(trainer, pima_r):
    rows = _rows_for(pima_r, 0, 4)
    total = trainer.add(rows, np.zeros(4))
    assert total == 4
    assert trainer.ready is False
    out = trainer.describe()
    assert out["buffered"] == 4
    assert "classes" not in out


def test_second_class_fits_the_accumulator(trainer, pima_r):
    trainer.add(_rows_for(pima_r, 0, 4), np.zeros(4))
    trainer.add(_rows_for(pima_r, 1, 3), np.ones(3))
    assert trainer.ready is True
    out = trainer.describe()
    assert out["classes"] == [0.0, 1.0]
    assert out["buffered"] == 0  # buffer consumed by the first fit
    assert out["rows"] == 7
    # Post-fit feedback goes straight through partial_fit.
    assert trainer.add(_rows_for(pima_r, 0, 2), np.zeros(2)) == 9


def test_length_mismatch_and_bad_shapes_are_rejected(trainer, pima_r):
    with pytest.raises(ValueError, match="mismatch"):
        trainer.add(_rows_for(pima_r, 0, 3), np.zeros(2))
    with pytest.raises(ValueError, match="2-d"):
        trainer.add(pima_r.X[0], np.zeros(1))


def test_unseen_label_after_fit_is_rejected(trainer, pima_r):
    trainer.add(_rows_for(pima_r, 0, 3), np.zeros(3))
    trainer.add(_rows_for(pima_r, 1, 3), np.ones(3))
    with pytest.raises(ValueError, match="not present at fit time"):
        trainer.add(_rows_for(pima_r, 0, 2), np.array([0, 7]))
    # Rejected whole: the accumulator stays in step with the row count.
    assert trainer.describe()["rows"] == 6
    assert trainer._clf.class_counts_.sum() == 6


def test_build_candidate_requires_two_classes(trainer, pima_r, tmp_path):
    trainer.add(_rows_for(pima_r, 0, 3), np.zeros(3))
    with pytest.raises(RuntimeError, match="two classes"):
        trainer.build_candidate(tmp_path / "candidate")


def test_built_candidate_round_trips_and_predicts(trainer, pima_r, tmp_path):
    trainer.add(_rows_for(pima_r, 0, 24), np.zeros(24))
    trainer.add(_rows_for(pima_r, 1, 24), np.ones(24))
    path = trainer.build_candidate(tmp_path / "candidate")
    loaded = load_artifact(path)
    labels = loaded.predict(pima_r.X[:8])
    assert labels.shape == (8,)
    assert set(np.unique(labels)).issubset({0.0, 1.0})
    # The follow-up population's centroid re-arms drift on promotion.
    extras = artifact_extras(path)
    assert extras["train_centroid"].shape == (DIM // 64,)
    assert extras["train_centroid"].dtype == np.uint64


def test_snapshot_is_isolated_from_later_feedback(trainer, pima_r, tmp_path):
    trainer.add(_rows_for(pima_r, 0, 8), np.zeros(8))
    trainer.add(_rows_for(pima_r, 1, 8), np.ones(8))
    path = trainer.build_candidate(tmp_path / "candidate")
    frozen = load_artifact(path).predict(pima_r.X[:16])
    # Feedback after the snapshot must not change the saved artifact.
    trainer.add(_rows_for(pima_r, 0, 32), np.zeros(32))
    np.testing.assert_array_equal(load_artifact(path).predict(pima_r.X[:16]), frozen)
