"""Live model lifecycle: hot-swap, shadow/A-B candidates, drift, continual learning.

The serving layer (:mod:`repro.serve`) stays in charge of sockets and
batching; this package owns everything about *which model* is serving:

* :class:`ModelLifecycle` / :class:`ModelHandle` — atomic primary/candidate
  reference swaps (the hot-swap core; loading happens outside the lock);
* :class:`ShadowRunner` — async mirrored-traffic candidate evaluation;
* :class:`DriftMonitor` + :func:`training_centroid` — HDC-native input
  drift via traffic-vs-training centroid Hamming distance;
* :class:`FollowUpTrainer` — labelled follow-ups → the next candidate
  artifact through :class:`~repro.core.classifier.PrototypeClassifier`'s
  ``partial_fit``;
* :class:`ArtifactWatcher` — poll-based ``--watch-artifact`` reloads.

Metrics all land in ``lifecycle.*`` (see :mod:`repro.lifecycle.metrics`)
and merge through the same registry machinery as ``serve.*``.
"""

from repro.lifecycle.continual import FollowUpTrainer
from repro.lifecycle.drift import DriftMonitor, centroid_from_counts, training_centroid
from repro.lifecycle.manager import CandidateState, ModelHandle, ModelLifecycle
from repro.lifecycle.shadow import ShadowRunner
from repro.lifecycle.watch import ArtifactWatcher

__all__ = [
    "ArtifactWatcher",
    "CandidateState",
    "DriftMonitor",
    "FollowUpTrainer",
    "ModelHandle",
    "ModelLifecycle",
    "ShadowRunner",
    "centroid_from_counts",
    "training_centroid",
]
