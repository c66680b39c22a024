"""HDC-native input-drift detection: traffic centroid vs training centroid.

The detector is nearly free because it *is* HDC: bundle every encoded
record the service sees into a streaming bit-count accumulator, threshold
it to a majority centroid, and compare that centroid to the training
set's persisted centroid with one Hamming distance.  A population whose
feature distribution shifts drags its bundle away from the training
bundle bit by bit, so the normalised distance is a direct, cheap drift
score — no windowed KS tests, no per-feature statistics.  Bits are
counted by the vote-count kernel
(:func:`~repro.core.bundling.majority_vote_counts` on a ``(1, n,
words)`` stack) and thresholded by
:func:`~repro.core.bundling.majority_from_counts` — the same two
primitives that bundle records and train class prototypes.

:func:`training_centroid` computes the reference at artifact-build time
(persisted through ``save_artifact(..., extras=...)``);
:class:`DriftMonitor` accumulates serving traffic and exports
``lifecycle.drift_distance`` / ``lifecycle.drift_alert`` gauges, surfaced
by ``GET /readyz``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

import numpy as np

from repro.core.bundling import majority_from_counts, majority_vote_counts
from repro.core.distance import hamming_block
from repro.core.hypervector import n_words
from repro.lifecycle.metrics import record_drift


def centroid_from_counts(counts: np.ndarray, rows: int, dim: int) -> np.ndarray:
    """Majority-threshold an int bit-count accumulator to a packed centroid.

    Matches the paper's bundling rule: bit ``j`` is 1 when more than half
    the bundled records set it, ties resolve to 1 (``tie="one"``).
    Returns a 1-d packed ``uint64`` vector of ``ceil(dim / 64)`` words.
    """
    if rows <= 0:
        raise ValueError("cannot threshold a centroid over zero rows")
    return majority_from_counts(np.asarray(counts)[None], rows, dim)[0]


def _column_counts(packed: np.ndarray, dim: int) -> np.ndarray:
    """Per-column set-bit counts of a packed ``(n, words)`` batch, as int64.

    One vote-count kernel call over the batch as a single ``(1, n,
    words)`` stack: no ``(n, dim)`` matrix is ever materialised.
    """
    out = np.zeros((1, dim), dtype=np.int64)
    return majority_vote_counts(np.asarray(packed)[None], dim, out=out)[0]


def training_centroid(encoder: Any, X: np.ndarray) -> np.ndarray:
    """Packed majority centroid of the training matrix under ``encoder``.

    One fused encoding pass over ``X`` (the encoder must be fitted),
    counted by the vote-count kernel and bundled with the majority rule.
    This is the reference the serving side persists next to the model
    (``extras={"train_centroid": ...}``) and hands to
    :class:`DriftMonitor`.
    """
    packed = encoder.transform(np.asarray(X, dtype=np.float64))
    dim = int(encoder.dim)
    return centroid_from_counts(_column_counts(packed, dim), int(packed.shape[0]), dim)


class DriftMonitor:
    """Streaming traffic-centroid accumulator with a Hamming drift score.

    Parameters
    ----------
    dim:
        Hypervector dimensionality of the encoded traffic.
    reference:
        Packed training centroid (1-d ``uint64``); ``None`` arms the
        accumulator without a reference — observations are folded in but
        no distance is reported until :meth:`set_reference`.
    threshold:
        Normalised-distance alert bound; ``distance > threshold`` sets
        the ``lifecycle.drift_alert`` gauge and the ``/readyz`` drift
        block's ``alert`` flag (informational — drift never 503s a
        healthy pool).
    window:
        Soft window size: once ``2 * window`` rows accumulate, counts and
        row total are halved, so the centroid tracks roughly the last
        ``window``-to-``2 * window`` rows instead of all history.
    """

    def __init__(
        self,
        dim: int,
        *,
        reference: Optional[np.ndarray] = None,
        threshold: float = 0.25,
        window: int = 2048,
    ) -> None:
        if dim < 2:
            raise ValueError(f"dim must be >= 2, got {dim}")
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._dim = int(dim)
        self._threshold = float(threshold)
        self._window = int(window)
        # Guards the accumulator, the reference and the last distance:
        # observe() runs on batcher flushes while /readyz and reloads
        # read/replace the reference from HTTP handler threads.
        self._lock = threading.Lock()
        self._reference = self._prepare_reference(reference, dim)
        self._counts = np.zeros(self._dim, dtype=np.int64)
        self._rows = 0
        self._distance: Optional[float] = None

    @staticmethod
    def _prepare_reference(
        reference: Optional[np.ndarray], dim: int
    ) -> Optional[np.ndarray]:
        if reference is None:
            return None
        ref = np.ascontiguousarray(np.asarray(reference, dtype=np.uint64)).reshape(1, -1)
        words = (dim + 63) // 64
        if ref.shape[1] != words:
            raise ValueError(
                f"reference centroid has {ref.shape[1]} words; dim {dim} "
                f"needs {words}"
            )
        return ref

    # -- reference management ------------------------------------------
    def set_reference(
        self, reference: Optional[np.ndarray], *, dim: Optional[int] = None
    ) -> None:
        """Swap the training centroid (hot-swap / promotion path).

        A *changed* reference resets the traffic accumulator: bit counts
        are only comparable within one encoder basis, and a new centroid
        means a new build (new basis hypervectors, or a new width) — old
        counts would score phantom drift against it.  Re-applying the
        same centroid (an in-place reload of the served artifact) keeps
        the warm accumulator.
        """
        with self._lock:
            reset = dim is not None and int(dim) != self._dim
            if reset:
                self._dim = int(dim)
            prepared = self._prepare_reference(reference, self._dim)
            if not reset:
                old, new = self._reference, prepared
                reset = (
                    (old is None) != (new is None)
                    or (old is not None and not np.array_equal(old, new))
                )
            if reset:
                self._counts = np.zeros(self._dim, dtype=np.int64)
                self._rows = 0
            self._reference = prepared
            self._distance = None

    # -- accumulation --------------------------------------------------
    def observe(self, features: np.ndarray, dense: bool) -> None:
        """Fold one encoded batch into the traffic centroid.

        ``features`` is whatever the serving pipeline computed: a packed
        ``(n, words)`` ``uint64`` batch (``dense=False``) or the dense
        0/1 ``(n, dim)`` matrix (``dense=True``).  A packed batch is
        counted by the vote-count kernel, a dense one by one column sum.
        """
        features = np.asarray(features)
        if features.ndim != 2 or features.shape[0] == 0:
            return
        n = int(features.shape[0])
        with self._lock:
            dim = self._dim
        # The count runs outside the lock on purpose (it is the whole
        # cost of the update); a dim-changing swap racing it is caught
        # by the shape checks and the stale delta dropped.
        if dense:
            delta = features.astype(np.int64, copy=False).sum(axis=0)
        elif features.shape[1] != n_words(dim):
            return  # packed under the previous encoder width
        else:
            delta = _column_counts(features, dim)
        with self._lock:
            if delta.shape[0] != self._counts.shape[0]:
                return  # stale flush racing a dim-changing swap; drop it
            self._counts += delta
            self._rows += n
            if self._rows >= 2 * self._window:
                self._counts //= 2
                self._rows = max(self._rows // 2, 1)
            reference = self._reference
            if reference is None:
                return
            centroid = centroid_from_counts(self._counts, self._rows, self._dim)
            raw = hamming_block(centroid[None, :], reference)
            distance = float(raw[0, 0]) / float(self._dim)
            self._distance = distance
            alert = distance > self._threshold
        record_drift(n, distance, alert)

    # -- introspection -------------------------------------------------
    @property
    def distance(self) -> Optional[float]:
        with self._lock:
            return self._distance

    def status(self) -> Dict[str, Any]:
        """The ``drift`` block of ``GET /readyz`` / admin status."""
        with self._lock:
            distance = self._distance
            rows = self._rows
            armed = self._reference is not None
        return {
            "armed": armed,
            "rows": rows,
            "distance": distance,
            "threshold": self._threshold,
            "window": self._window,
            "alert": bool(distance is not None and distance > self._threshold),
        }


__all__ = ["DriftMonitor", "centroid_from_counts", "training_centroid"]
