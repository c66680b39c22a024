"""Unit tests for the Hamming kernels."""

import numpy as np
import pytest

from repro.core.distance import (
    available_metrics,
    cosine_on_bits,
    euclidean_on_bits,
    hamming_rowwise,
    normalized_pairwise_hamming,
    pairwise_distance,
    pairwise_hamming,
)
from repro.core.hypervector import pack_bits


def dense_hamming(a, b):
    return (a[:, None, :] != b[None, :, :]).sum(axis=2)


@pytest.fixture
def bits_pair(rng):
    a = (rng.random((9, 230)) < 0.5).astype(np.uint8)
    b = (rng.random((7, 230)) < 0.4).astype(np.uint8)
    return a, b


class TestPairwiseHamming:
    def test_matches_dense_reference(self, bits_pair):
        a, b = bits_pair
        D = pairwise_hamming(pack_bits(a), pack_bits(b))
        assert np.array_equal(D, dense_hamming(a, b))

    def test_self_distance_zero_diagonal(self, bits_pair):
        a, _ = bits_pair
        D = pairwise_hamming(pack_bits(a))
        assert np.array_equal(np.diag(D), np.zeros(len(a), dtype=np.int64))

    def test_symmetric_for_self(self, bits_pair):
        a, _ = bits_pair
        D = pairwise_hamming(pack_bits(a))
        assert np.array_equal(D, D.T)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 100])
    def test_blocking_invariance(self, bits_pair, chunk_rows):
        a, b = bits_pair
        ref = pairwise_hamming(pack_bits(a), pack_bits(b), chunk_rows=64)
        D = pairwise_hamming(pack_bits(a), pack_bits(b), chunk_rows=chunk_rows)
        assert np.array_equal(D, ref)

    def test_parallel_blocks_match_serial(self, bits_pair):
        a, b = bits_pair
        ref = pairwise_hamming(pack_bits(a), pack_bits(b), n_jobs=1)
        par = pairwise_hamming(pack_bits(a), pack_bits(b), chunk_rows=2, n_jobs=3)
        assert np.array_equal(ref, par)

    def test_empty_left_operand(self):
        A = np.zeros((0, 2), dtype=np.uint64)
        B = np.zeros((5, 2), dtype=np.uint64)
        assert pairwise_hamming(A, B).shape == (0, 5)

    def test_word_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            pairwise_hamming(
                np.zeros((2, 2), dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64)
            )

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            pairwise_hamming(np.zeros(4, dtype=np.uint64))

    def test_triangle_inequality(self, bits_pair):
        a, _ = bits_pair
        D = pairwise_hamming(pack_bits(a))
        n = D.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert D[i, j] <= D[i, k] + D[k, j]


class TestRowwise:
    def test_matches_pairwise_diagonal(self, bits_pair):
        a, _ = bits_pair
        pa = pack_bits(a)
        row = hamming_rowwise(pa, pa[::-1])
        full = pairwise_hamming(pa, pa[::-1])
        assert np.array_equal(row, np.diag(full))

    def test_broadcasting_single_query(self, bits_pair):
        a, _ = bits_pair
        pa = pack_bits(a)
        d = hamming_rowwise(pa[0][None, :], pa)
        assert np.array_equal(d, pairwise_hamming(pa[0:1], pa)[0])


class TestOtherMetrics:
    def test_normalized_range(self, bits_pair):
        a, b = bits_pair
        D = normalized_pairwise_hamming(pack_bits(a), pack_bits(b), dim=230)
        assert np.all((D >= 0) & (D <= 1))

    def test_normalized_requires_positive_dim(self, bits_pair):
        a, _ = bits_pair
        with pytest.raises(ValueError):
            normalized_pairwise_hamming(pack_bits(a), dim=0)

    def test_euclidean_is_sqrt_hamming(self, bits_pair):
        a, b = bits_pair
        pa, pb = pack_bits(a), pack_bits(b)
        assert np.allclose(
            euclidean_on_bits(pa, pb, dim=230),
            np.sqrt(pairwise_hamming(pa, pb)),
        )

    def test_cosine_reference(self, bits_pair):
        a, b = bits_pair
        got = cosine_on_bits(pack_bits(a), pack_bits(b), dim=230)
        af, bf = a.astype(float), b.astype(float)
        dot = af @ bf.T
        ref = 1 - dot / (np.linalg.norm(af, axis=1)[:, None] * np.linalg.norm(bf, axis=1)[None, :])
        assert np.allclose(got, ref)

    def test_cosine_identical_vectors(self, bits_pair):
        a, _ = bits_pair
        pa = pack_bits(a)
        assert np.allclose(np.diag(cosine_on_bits(pa, dim=230)), 0.0, atol=1e-12)

    def test_dispatch_all_metrics(self, bits_pair):
        a, b = bits_pair
        pa, pb = pack_bits(a), pack_bits(b)
        for metric in available_metrics():
            D = pairwise_distance(pa, pb, dim=230, metric=metric)
            assert D.shape == (9, 7)

    def test_dispatch_unknown_metric(self, bits_pair):
        a, _ = bits_pair
        with pytest.raises(ValueError, match="unknown metric"):
            pairwise_distance(pack_bits(a), dim=230, metric="chebyshev")

    def test_hamming_and_normalized_consistent(self, bits_pair):
        a, b = bits_pair
        pa, pb = pack_bits(a), pack_bits(b)
        raw = pairwise_distance(pa, pb, dim=230, metric="hamming")
        norm = pairwise_distance(pa, pb, dim=230, metric="normalized_hamming")
        assert np.allclose(raw / 230.0, norm)
