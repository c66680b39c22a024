"""Env-var round-trip tests: REPRO_WORKERS / REPRO_BACKEND → kernels.

Every dispatcher resolves its ``n_jobs``/``backend`` through
``repro.parallel.pool.resolve_config``, so passing ``n_jobs=None`` to a
kernel must honour the environment overrides — including the processes
backend, which requires every dispatched callable to be picklable (the
historical failure mode: lambdas in the block dispatch).
"""

import numpy as np
import pytest

from repro.core.distance import pairwise_hamming
from repro.core.records import RecordEncoder
from repro.core.hypervector import random_packed
from repro.parallel import chunked_pairwise, resolve_config


@pytest.fixture
def packed():
    return random_packed(40, 300, seed=0)


def _dot_kernel(A, B):
    return A.astype(np.float64) @ B.astype(np.float64).T


class TestResolveConfig:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        cfg = resolve_config(2, "threads")
        assert (cfg.workers, cfg.backend) == (2, "threads")

    def test_none_defers_to_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        cfg = resolve_config(None, None)
        assert (cfg.workers, cfg.backend) == (3, "serial")

    def test_zero_treated_like_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_config(0).workers == 5

    def test_invalid_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        with pytest.raises(ValueError, match="backend"):
            resolve_config(None)

    def test_invalid_env_workers_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_config(None)


class TestPairwiseHammingEnvRoundTrip:
    def test_env_workers_same_result(self, monkeypatch, packed):
        serial = pairwise_hamming(packed, chunk_rows=8, n_jobs=1)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert np.array_equal(
            pairwise_hamming(packed, chunk_rows=8, n_jobs=None), serial
        )

    def test_env_serial_backend(self, monkeypatch, packed):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        serial = pairwise_hamming(packed, chunk_rows=8, n_jobs=1)
        assert np.array_equal(
            pairwise_hamming(packed, chunk_rows=8, n_jobs=None), serial
        )

    def test_env_processes_backend_picklable(self, monkeypatch, packed):
        """The block dispatch must survive pickling under processes."""
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        serial = pairwise_hamming(packed, chunk_rows=16, n_jobs=1)
        assert np.array_equal(
            pairwise_hamming(packed, chunk_rows=16, n_jobs=None), serial
        )

    def test_invalid_env_workers_propagates(self, monkeypatch, packed):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            pairwise_hamming(packed, n_jobs=None)


class TestChunkedPairwiseEnvRoundTrip:
    def test_env_processes_backend(self, monkeypatch, rng):
        A = rng.normal(size=(30, 5))
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        out = chunked_pairwise(_dot_kernel, A, chunk=7, n_jobs=None)
        assert np.allclose(out, A @ A.T)


class TestRecordEncoderEnvRoundTrip:
    def test_transform_n_jobs_none_uses_env(self, monkeypatch, rng):
        X = rng.normal(size=(50, 3))
        enc = RecordEncoder(dim=130, seed=1).fit(X)
        serial = enc.transform(X, n_jobs=1)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        assert np.array_equal(
            enc.transform(X, n_jobs=None, chunk_rows=8), serial
        )

    def test_transform_env_processes_backend(self, monkeypatch, rng):
        X = rng.normal(size=(40, 3))
        enc = RecordEncoder(dim=130, seed=2).fit(X)
        serial = enc.transform(X, n_jobs=1)
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert np.array_equal(
            enc.transform(X, n_jobs=None, chunk_rows=16), serial
        )
