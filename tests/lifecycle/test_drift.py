"""Drift detection: centroid math plus the streaming DriftMonitor.

The detector's claim is that drift scoring is free because it *is* HDC:
the traffic centroid comes out of the same bit counts the encoder
already produced, and the score is one normalised Hamming distance to
the persisted training centroid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.hypervector import pack_bits, unpack_bits
from repro.core.records import RecordEncoder
from repro.lifecycle import DriftMonitor, centroid_from_counts, training_centroid

DIM = 512


@pytest.fixture(scope="module")
def fitted_encoder(pima_r):
    return RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7).fit(pima_r.X)


# -- centroid_from_counts ----------------------------------------------


def test_centroid_majority_rule_with_tie_to_one():
    # 4 rows, dim 4: counts 3 (majority), 2 (exact tie -> 1), 0, 1.
    counts = np.array([3, 2, 0, 1])
    packed = centroid_from_counts(counts, rows=4, dim=4)
    assert packed.ndim == 1
    bits = unpack_bits(packed[None, :], 4)[0]
    np.testing.assert_array_equal(bits, [1, 1, 0, 0])


def test_centroid_rejects_zero_rows():
    with pytest.raises(ValueError, match="zero rows"):
        centroid_from_counts(np.zeros(4, dtype=np.int64), rows=0, dim=4)


def test_centroid_matches_pack_bits_shape():
    counts = np.arange(130)
    packed = centroid_from_counts(counts, rows=100, dim=130)
    assert packed.shape == ((130 + 63) // 64,)
    assert packed.dtype == np.uint64


# -- training_centroid -------------------------------------------------


def test_training_centroid_matches_manual_bundling(fitted_encoder, pima_r):
    reference = training_centroid(fitted_encoder, pima_r.X)
    packed = fitted_encoder.transform(pima_r.X)
    counts = unpack_bits(packed, DIM).astype(np.int64).sum(axis=0)
    expected = centroid_from_counts(counts, packed.shape[0], DIM)
    np.testing.assert_array_equal(reference, expected)
    assert reference.shape == (DIM // 64,)


# -- DriftMonitor ------------------------------------------------------


def _pattern(dim: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=dim).astype(np.uint8)


def test_constructor_validation():
    ref = pack_bits(_pattern(128)[None, :], 128)[0]
    with pytest.raises(ValueError, match="dim"):
        DriftMonitor(1)
    with pytest.raises(ValueError, match="threshold"):
        DriftMonitor(128, threshold=1.5)
    with pytest.raises(ValueError, match="window"):
        DriftMonitor(128, window=0)
    with pytest.raises(ValueError, match="words"):
        DriftMonitor(256, reference=ref)  # 128-bit reference, 256-bit dim


def test_identical_traffic_scores_zero_distance():
    bits = _pattern(128)
    rows = np.tile(bits, (10, 1))
    monitor = DriftMonitor(
        128, reference=pack_bits(bits[None, :], 128)[0], threshold=0.1
    )
    monitor.observe(pack_bits(rows, 128), dense=False)
    assert monitor.distance == 0.0
    status = monitor.status()
    assert status["armed"] is True
    assert status["rows"] == 10
    assert status["alert"] is False


def test_dense_and_packed_paths_agree():
    bits = _pattern(128, seed=5)
    rows = np.tile(bits, (6, 1))
    ref = pack_bits(_pattern(128, seed=9)[None, :], 128)[0]
    packed_monitor = DriftMonitor(128, reference=ref)
    dense_monitor = DriftMonitor(128, reference=ref)
    packed_monitor.observe(pack_bits(rows, 128), dense=False)
    dense_monitor.observe(rows, dense=True)
    assert packed_monitor.distance == dense_monitor.distance
    assert packed_monitor.distance is not None


def test_shifted_population_raises_the_alert():
    bits = _pattern(128)
    monitor = DriftMonitor(
        128, reference=pack_bits(bits[None, :], 128)[0], threshold=0.25
    )
    # Traffic is the exact complement of the training centroid: every
    # bit disagrees, so the normalised distance saturates at 1.0.
    flipped = (1 - bits).astype(np.uint8)
    monitor.observe(np.tile(flipped, (8, 1)), dense=True)
    assert monitor.distance == 1.0
    assert monitor.status()["alert"] is True


def test_unarmed_monitor_accumulates_but_reports_no_distance():
    monitor = DriftMonitor(128)
    monitor.observe(np.tile(_pattern(128), (4, 1)), dense=True)
    status = monitor.status()
    assert status["armed"] is False
    assert status["rows"] == 4
    assert status["distance"] is None
    assert status["alert"] is False


def test_soft_window_halves_the_accumulator():
    bits = _pattern(128)
    monitor = DriftMonitor(
        128, reference=pack_bits(bits[None, :], 128)[0], window=4
    )
    monitor.observe(np.tile(bits, (8, 1)), dense=True)  # hits 2 * window
    status = monitor.status()
    assert status["rows"] == 4
    # Halving counts and rows together preserves the majority centroid.
    assert monitor.distance == 0.0


def test_set_reference_with_new_dim_resets_the_accumulator():
    monitor = DriftMonitor(128, reference=pack_bits(_pattern(128)[None, :], 128)[0])
    monitor.observe(np.tile(_pattern(128), (4, 1)), dense=True)
    assert monitor.status()["rows"] == 4
    new_bits = _pattern(256, seed=11)
    monitor.set_reference(pack_bits(new_bits[None, :], 256)[0], dim=256)
    status = monitor.status()
    assert status["rows"] == 0
    assert status["distance"] is None  # warms back up from live traffic


def test_changed_reference_at_same_dim_resets_the_accumulator():
    # A hot-swap to a different encoder seed keeps dim but changes the
    # basis: old traffic counts would score phantom drift against the
    # new centroid, so they must be discarded.
    monitor = DriftMonitor(128, reference=pack_bits(_pattern(128)[None, :], 128)[0])
    monitor.observe(np.tile(_pattern(128), (4, 1)), dense=True)
    assert monitor.status()["rows"] == 4
    monitor.set_reference(pack_bits(_pattern(128, seed=21)[None, :], 128)[0])
    assert monitor.status()["rows"] == 0
    assert monitor.distance is None


def test_reapplying_the_same_reference_keeps_the_warm_accumulator():
    # An in-place reload of the served artifact re-arms with the same
    # centroid: the traffic window must survive.
    ref = pack_bits(_pattern(128)[None, :], 128)[0]
    monitor = DriftMonitor(128, reference=ref)
    monitor.observe(np.tile(_pattern(128), (4, 1)), dense=True)
    monitor.set_reference(ref.copy())
    assert monitor.status()["rows"] == 4


def test_stale_flush_from_the_old_dim_is_dropped():
    monitor = DriftMonitor(128, reference=pack_bits(_pattern(128)[None, :], 128)[0])
    new_bits = _pattern(256, seed=11)
    monitor.set_reference(pack_bits(new_bits[None, :], 256)[0], dim=256)
    # A flush encoded under the old 128-bit model races the swap: its
    # delta no longer fits the accumulator and must be dropped, not mixed.
    monitor.observe(np.tile(_pattern(128), (4, 1)), dense=True)
    assert monitor.status()["rows"] == 0
    monitor.observe(np.tile(new_bits, (4, 1)), dense=True)
    assert monitor.status()["rows"] == 4
    assert monitor.distance == 0.0


def test_stale_packed_flush_from_the_old_dim_is_dropped():
    monitor = DriftMonitor(128, reference=pack_bits(_pattern(128)[None, :], 128)[0])
    new_bits = _pattern(256, seed=11)
    monitor.set_reference(pack_bits(new_bits[None, :], 256)[0], dim=256)
    monitor.observe(pack_bits(np.tile(_pattern(128), (4, 1)), 128), dense=False)
    assert monitor.status()["rows"] == 0
    monitor.observe(pack_bits(np.tile(new_bits, (4, 1)), 256), dense=False)
    assert monitor.status()["rows"] == 4
    assert monitor.distance == 0.0


def test_empty_or_malformed_batches_are_ignored():
    monitor = DriftMonitor(128)
    monitor.observe(np.zeros((0, 128)), dense=True)
    monitor.observe(np.zeros(128), dense=True)  # 1-d: not a batch
    assert monitor.status()["rows"] == 0
