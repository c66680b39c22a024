"""Continual learning: labelled follow-ups → the next candidate artifact.

The paper's clinical loop — models that "feed from the data they
process" — closes here: :class:`FollowUpTrainer` shares the *serving*
model's fitted encoder, absorbs labelled follow-up rows into the
per-class bit-count accumulators of
:class:`~repro.core.classifier.PrototypeClassifier` (one ``partial_fit``
per feedback call, counted by the vote-count kernel), and can
snapshot its current state as a full :mod:`repro.persist` artifact at
any point.  That artifact is a normal candidate: mount it shadow/A-B,
watch the agreement metrics, promote it when it earns the traffic.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.core.classifier import PrototypeClassifier
from repro.lifecycle.drift import centroid_from_counts
from repro.lifecycle.metrics import record_follow_ups


class FollowUpTrainer:
    """Accumulate labelled follow-ups into an online HDC candidate.

    Parameters
    ----------
    encoder:
        The *fitted* :class:`~repro.core.records.RecordEncoder` shared
        with the serving model — follow-ups and live traffic must agree
        on the feature space or the candidate is meaningless.
    tie:
        Majority tie rule for the accumulator's prototypes.

    Notes
    -----
    :class:`~repro.core.classifier.PrototypeClassifier` needs every
    class present at ``fit`` time, so rows buffer until at least two
    labels have been seen; after the first fit, each feedback call is one
    ``partial_fit``.  Labels never seen before the first fit are
    rejected before any state changes (the class set is fixed at fit
    time).
    """

    def __init__(self, encoder: Any, *, tie: str = "one") -> None:
        if not getattr(encoder, "_fitted", False):
            raise ValueError("FollowUpTrainer needs a fitted RecordEncoder")
        self.encoder = encoder
        self.dim = int(encoder.dim)
        self._clf = PrototypeClassifier(dim=self.dim, tie=tie)
        # Guards the buffer/fitted flag/row count: feedback arrives on
        # HTTP handler threads while build_candidate snapshots state.
        self._lock = threading.Lock()
        self._buffer_packed: List[np.ndarray] = []
        self._buffer_y: List[np.ndarray] = []
        self._fitted = False
        self._n_rows = 0

    # -- feedback ------------------------------------------------------
    def add(self, rows: Any, labels: Any) -> int:
        """Absorb labelled follow-up rows; returns rows accepted so far."""
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("rows must be a non-empty 2-d matrix")
        y = np.asarray(labels).reshape(-1)
        if y.shape[0] != X.shape[0]:
            raise ValueError(
                f"rows/labels length mismatch: {X.shape[0]} vs {y.shape[0]}"
            )
        packed = self.encoder.transform(X)
        with self._lock:
            if self._fitted:
                self._clf.partial_fit(packed, y)
            else:
                self._buffer_packed.append(packed)
                self._buffer_y.append(y)
                buffered_y = np.concatenate(self._buffer_y)
                if np.unique(buffered_y).size >= 2:
                    self._clf.fit(np.vstack(self._buffer_packed), buffered_y)
                    self._fitted = True
                    self._buffer_packed = []
                    self._buffer_y = []
            self._n_rows += int(X.shape[0])
            total = self._n_rows
        record_follow_ups(int(X.shape[0]))
        return total

    # -- introspection -------------------------------------------------
    @property
    def ready(self) -> bool:
        """True once the accumulator has seen at least two classes."""
        with self._lock:
            return self._fitted

    @property
    def n_rows(self) -> int:
        with self._lock:
            return self._n_rows

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            fitted = self._fitted
            n_rows = self._n_rows
            buffered = sum(int(y.shape[0]) for y in self._buffer_y)
        out: Dict[str, Any] = {
            "ready": fitted,
            "rows": n_rows,
            "buffered": buffered,
            "dim": self.dim,
        }
        if fitted:
            out["classes"] = np.asarray(self._clf.classes_).tolist()
        return out

    # -- candidate snapshot --------------------------------------------
    def build_candidate(
        self,
        path: Union[str, Path],
        *,
        meta: Optional[Dict[str, Any]] = None,
        overwrite: bool = True,
    ) -> Path:
        """Persist the current accumulator as a servable candidate artifact.

        The artifact is a normal :class:`~repro.ml.pipeline.
        HDCFeaturePipeline` (shared encoder + the accumulator classifier) with
        the follow-up population's centroid saved as the drift reference,
        so a promoted candidate re-arms drift detection against the data
        it was actually trained on.
        """
        from repro.ml.pipeline import HDCFeaturePipeline
        from repro.persist import save_artifact

        with self._lock:
            if not self._fitted:
                raise RuntimeError(
                    "trainer has not seen two classes yet; cannot build a candidate"
                )
            # Snapshot under the lock: set_state copies the accumulators,
            # so a concurrent partial_fit cannot shear the saved state.
            clf = PrototypeClassifier(dim=self.dim).set_state(self._clf.get_state())
            n_rows = self._n_rows
        pipeline = HDCFeaturePipeline(self.encoder, clf, dense=False)
        pipeline.encoder_ = self.encoder
        pipeline.estimator_ = clf
        pipeline.classes_ = clf.classes_
        pipeline.n_features_in_ = len(self.encoder.specs_)
        pipeline._dense_ = False
        state = clf.get_state()
        extras = {
            "train_centroid": centroid_from_counts(
                state["counts"].sum(axis=0), int(state["n"].sum()), self.dim
            )
        }
        info = {"follow_up_rows": n_rows, "dim": self.dim}
        if meta:
            info.update(meta)
        return save_artifact(
            pipeline, path, meta=info, extras=extras, overwrite=overwrite
        )


__all__ = ["FollowUpTrainer"]
