"""Artifact store: round-trips, tamper evidence, schema gating, no pickle."""

from __future__ import annotations

import importlib.abc
import json
import sys

import numpy as np
import pytest

import repro
from repro.core.classifier import HammingClassifier, PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.core.search import HDIndex
from repro.lifecycle import FollowUpTrainer
from repro.ml import LogisticRegression
from repro.ml.base import BaseEstimator
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    artifact_info,
    load_artifact,
    save_artifact,
)

DIM = 1024


@pytest.fixture(scope="module")
def fitted_encoder(pima_r):
    return RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7).fit(pima_r.X)


def _pipeline(pima, estimator):
    encoder = RecordEncoder(specs=pima.specs, dim=DIM, seed=7)
    return HDCFeaturePipeline(encoder, estimator).fit(pima.X, pima.y)


# Module-scoped pima_r comes from tests/conftest.py (session scope).


# -- round trips -------------------------------------------------------


def test_encoder_round_trip_bit_identical(tmp_path, pima_r, fitted_encoder):
    save_artifact(fitted_encoder, tmp_path / "enc")
    loaded = load_artifact(tmp_path / "enc")
    assert isinstance(loaded, RecordEncoder)
    original = fitted_encoder.transform(pima_r.X)
    restored = loaded.transform(pima_r.X)
    assert original.dtype == np.uint64
    np.testing.assert_array_equal(original, restored)


@pytest.mark.parametrize(
    "estimator_factory",
    [
        lambda: HammingClassifier(dim=DIM),
        lambda: PrototypeClassifier(dim=DIM),
    ],
    ids=["hamming-1nn", "prototype"],
)
def test_hdc_pipeline_round_trip(tmp_path, pima_r, estimator_factory):
    pipe = _pipeline(pima_r, estimator_factory())
    save_artifact(pipe, tmp_path / "model")
    loaded = load_artifact(tmp_path / "model")
    np.testing.assert_array_equal(pipe.predict(pima_r.X), loaded.predict(pima_r.X))
    np.testing.assert_array_equal(loaded.classes_, pipe.classes_)
    assert loaded.n_features_in_ == pipe.n_features_in_


def test_artifact_with_removed_shards_param_still_loads(
    tmp_path, pima_r, fitted_encoder
):
    """Artifacts written while HammingClassifier took ``shards`` load unchanged."""
    packed = fitted_encoder.transform(pima_r.X)
    clf = HammingClassifier(dim=DIM).fit(packed, pima_r.y)
    path = save_artifact(clf, tmp_path / "hamming")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["state"]["state"]["items"]["params"]["items"]["shards"] = 2
    manifest_path.write_text(json.dumps(manifest))
    loaded = load_artifact(path)
    assert "shards" not in loaded.get_params()
    np.testing.assert_array_equal(loaded.predict(packed), clf.predict(packed))


def test_prototype_artifact_without_accumulators_still_loads(
    tmp_path, pima_r, fitted_encoder, monkeypatch
):
    """Artifacts that stored only ``classes_`` + packed ``prototypes_`` load
    with the prototypes unchanged (seeded as one-record accumulators)."""
    packed = fitted_encoder.transform(pima_r.X)
    clf = PrototypeClassifier(dim=DIM).fit(packed, pima_r.y)
    with monkeypatch.context() as m:
        m.setattr(PrototypeClassifier, "get_state", BaseEstimator.get_state)
        path = save_artifact(clf, tmp_path / "prototype")
    state = json.loads((path / MANIFEST_NAME).read_text())["state"]["state"]
    assert set(state["items"]["fitted"]["items"]) == {"classes_", "prototypes_"}
    loaded = load_artifact(path)
    np.testing.assert_array_equal(loaded.prototypes_, clf.prototypes_)
    np.testing.assert_array_equal(loaded.predict(packed), clf.predict(packed))
    np.testing.assert_array_equal(loaded.predict_proba(packed), clf.predict_proba(packed))
    assert loaded.class_counts_.tolist() == [1, 1]


def _rename_class(node, old, new):
    if isinstance(node, dict):
        if node.get("class") == old:
            node["class"] = new
        for value in node.values():
            _rename_class(value, old, new)
    elif isinstance(node, list):
        for value in node:
            _rename_class(value, old, new)


def test_follow_up_candidate_under_the_online_class_name_still_loads(
    tmp_path, pima_r, fitted_encoder
):
    """Follow-up candidates saved under ``core.online.OnlineHDClassifier``
    (the same accumulator state) load as PrototypeClassifier."""
    trainer = FollowUpTrainer(fitted_encoder)
    trainer.add(pima_r.X[:64], pima_r.y[:64])
    path = trainer.build_candidate(tmp_path / "candidate")
    expected = load_artifact(path)
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    _rename_class(
        manifest, "core.classifier.PrototypeClassifier", "core.online.OnlineHDClassifier"
    )
    assert "core.online.OnlineHDClassifier" in json.dumps(manifest)
    manifest_path.write_text(json.dumps(manifest))
    loaded = load_artifact(path)
    assert isinstance(loaded.estimator_, PrototypeClassifier)
    np.testing.assert_array_equal(loaded.predict(pima_r.X), expected.predict(pima_r.X))
    np.testing.assert_array_equal(
        loaded.estimator_.class_counts_, expected.estimator_.class_counts_
    )


def test_hybrid_pipeline_round_trip(tmp_path, pima_r):
    pipe = _pipeline(pima_r, LogisticRegression(max_iter=200))
    save_artifact(pipe, tmp_path / "hybrid")
    loaded = load_artifact(tmp_path / "hybrid")
    np.testing.assert_array_equal(pipe.predict(pima_r.X), loaded.predict(pima_r.X))
    np.testing.assert_allclose(
        pipe.predict_proba(pima_r.X), loaded.predict_proba(pima_r.X)
    )


def test_hd_index_round_trip(tmp_path, pima_r, fitted_encoder):
    packed = fitted_encoder.transform(pima_r.X)
    index = HDIndex(dim=DIM)
    index.add_batch(list(range(len(packed))), packed)
    save_artifact(index, tmp_path / "index")
    loaded = load_artifact(tmp_path / "index")
    assert loaded.keys == index.keys
    queries = packed[:5]
    keys_a, dist_a = index.query_argmin(queries)
    keys_b, dist_b = loaded.query_argmin(queries)
    assert keys_a == keys_b
    np.testing.assert_array_equal(dist_a, dist_b)


def test_payloads_bit_identical_on_disk(tmp_path, fitted_encoder):
    """Saving the same fitted object twice produces identical payload bytes."""
    a = save_artifact(fitted_encoder, tmp_path / "a")
    b = save_artifact(fitted_encoder, tmp_path / "b")
    payloads_a = sorted((a / "payloads").glob("*.npy"))
    payloads_b = sorted((b / "payloads").glob("*.npy"))
    assert payloads_a and len(payloads_a) == len(payloads_b)
    for pa, pb in zip(payloads_a, payloads_b):
        assert pa.read_bytes() == pb.read_bytes()


# -- manifest metadata -------------------------------------------------


def test_manifest_stamps_versions_and_meta(tmp_path, fitted_encoder):
    save_artifact(
        fitted_encoder, tmp_path / "enc", meta={"dataset": "pima_r", "acc": 0.74}
    )
    info = artifact_info(tmp_path / "enc")
    assert info["schema_version"] == SCHEMA_VERSION
    assert info["repro_version"] == repro.__version__
    assert info["kind"].endswith("RecordEncoder")
    assert info["meta"] == {"dataset": "pima_r", "acc": 0.74}
    assert info["n_payloads"] >= 1
    assert info["payload_bytes"] > 0


def test_refuses_to_clobber_without_overwrite(tmp_path, fitted_encoder):
    save_artifact(fitted_encoder, tmp_path / "enc")
    with pytest.raises(ArtifactError, match="overwrite=True"):
        save_artifact(fitted_encoder, tmp_path / "enc")
    save_artifact(fitted_encoder, tmp_path / "enc", overwrite=True)  # allowed


# -- tamper evidence ---------------------------------------------------


def test_tampered_payload_fails_loudly_naming_the_file(tmp_path, fitted_encoder):
    path = save_artifact(fitted_encoder, tmp_path / "enc")
    victim = sorted((path / "payloads").glob("*.npy"))[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01  # flip one bit of array data
    victim.write_bytes(bytes(blob))
    with pytest.raises(ArtifactIntegrityError) as excinfo:
        load_artifact(path)
    assert victim.name in str(excinfo.value)
    assert "checksum" in str(excinfo.value)


def test_missing_payload_fails_loudly_naming_the_file(tmp_path, fitted_encoder):
    path = save_artifact(fitted_encoder, tmp_path / "enc")
    victim = sorted((path / "payloads").glob("*.npy"))[0]
    victim.unlink()
    with pytest.raises(ArtifactIntegrityError, match=victim.name):
        load_artifact(path)


# -- schema gating -----------------------------------------------------


def test_future_schema_version_rejected(tmp_path, fitted_encoder):
    path = save_artifact(fitted_encoder, tmp_path / "enc")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ArtifactSchemaError, match="not.*supported"):
        load_artifact(path)


def test_non_artifact_directory_rejected(tmp_path):
    with pytest.raises(ArtifactError, match="manifest"):
        load_artifact(tmp_path)


# -- no pickle on the load path ----------------------------------------


class _PickleBlocker(importlib.abc.MetaPathFinder):
    """Meta-path hook that fails any fresh import of a pickle-family module."""

    BLOCKED = {"pickle", "cPickle", "_pickle", "dill", "joblib", "shelve"}

    def find_spec(self, fullname, path=None, target=None):
        if fullname.split(".")[0] in self.BLOCKED:
            raise ImportError(f"import of {fullname!r} blocked by test")
        return None


def test_load_never_imports_pickle(tmp_path, pima_r):
    """load_artifact works with pickle-family imports hard-blocked.

    numpy itself binds pickle at import time, so already-loaded modules
    are left alone; the blocker guarantees the *artifact path* never
    triggers a fresh pickle-family import.
    """
    pipe = _pipeline(pima_r, PrototypeClassifier(dim=DIM))
    path = save_artifact(pipe, tmp_path / "model")

    blocker = _PickleBlocker()
    saved = {
        name: sys.modules.pop(name)
        for name in list(sys.modules)
        if name.split(".")[0] in _PickleBlocker.BLOCKED
    }
    sys.meta_path.insert(0, blocker)
    try:
        with pytest.raises(ImportError):
            import pickle  # noqa: F401 — proves the blocker is armed
        loaded = load_artifact(path)
    finally:
        sys.meta_path.remove(blocker)
        sys.modules.update(saved)
    np.testing.assert_array_equal(pipe.predict(pima_r.X), loaded.predict(pima_r.X))
