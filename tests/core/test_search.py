"""Differential tests: streaming top-k search engine vs the dense reference.

The engine (`repro.core.search`) must be *bit-identical* to the dense
reference path (full pairwise matrix + ``np.argsort(kind="stable")``) for
every batch shape, word count, k, tile geometry and tie pattern — any
deviation is a correctness bug, not a tolerance issue.  Low-entropy words
are used throughout so distance ties are common and the lowest-index
tie-break contract is genuinely exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classifier import HammingClassifier, PrototypeClassifier
from repro.core.hypervector import Hypervector, pack_bits
from repro.core.itemmemory import ItemMemory
from repro.core.search import (
    HDIndex,
    argmin_hamming,
    loo_topk_hamming,
    loo_topk_hamming_reference,
    topk_hamming,
    topk_hamming_reference,
    topk_rows,
    vote_counts,
)
from repro.eval.crossval import leave_one_out_hamming, leave_one_out_hamming_reference


def _tied_batch(rng, n, words, vocab=4):
    """Packed batch drawn from a tiny word vocabulary — ties everywhere."""
    return rng.integers(0, vocab, (n, words)).astype(np.uint64)


def _duplicate_store(rng):
    """Store of 300 rows drawn from 40 distinct ones, plus exact-hit queries."""
    base = rng.integers(0, 2**64, size=(40, 8), dtype=np.uint64)
    X = base[rng.integers(0, 40, size=300)]
    Q = rng.integers(0, 2**64, size=(17, 8), dtype=np.uint64)
    Q[:5] = X[:5]  # distance-0 ties against duplicated rows
    return Q, X


def _stable_topk(D, k):
    idx = np.argsort(D, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(D, idx, axis=1), idx


# ----------------------------------------------------------------------
# topk_rows — dense selection primitive
# ----------------------------------------------------------------------
class TestTopkRows:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_stable_argsort(self, dtype):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, n = int(rng.integers(1, 12)), int(rng.integers(1, 25))
            k = int(rng.integers(1, n + 1))
            D = rng.integers(0, 4, (m, n)).astype(dtype)
            vals, cols = topk_rows(D, k)
            ref_vals, ref_cols = _stable_topk(D, k)
            assert np.array_equal(cols, ref_cols)
            assert np.array_equal(vals, ref_vals)

    def test_all_equal_row_selects_lowest_columns(self):
        D = np.zeros((3, 7), dtype=np.int64)
        _, cols = topk_rows(D, 4)
        assert np.array_equal(cols, np.tile(np.arange(4), (3, 1)))

    def test_k_out_of_range(self):
        D = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ValueError):
            topk_rows(D, 0)
        with pytest.raises(ValueError):
            topk_rows(D, 4)


class TestVoteCounts:
    def test_matches_per_row_bincount(self):
        rng = np.random.default_rng(1)
        votes = rng.integers(0, 5, (40, 7))
        ref = np.apply_along_axis(np.bincount, 1, votes, minlength=5)
        assert np.array_equal(vote_counts(votes, 5), ref)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            vote_counts(np.array([[0, 3]]), 3)


# ----------------------------------------------------------------------
# topk_hamming / argmin_hamming vs dense reference
# ----------------------------------------------------------------------
class TestTopkHamming:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n, m = int(rng.integers(1, 50)), int(rng.integers(1, 20))
            words = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 2))  # may exceed n: clamped
            Q = _tied_batch(rng, m, words)
            X = _tied_batch(rng, n, words)
            d, i = topk_hamming(
                Q,
                X,
                k,
                chunk_rows=int(rng.integers(1, 8)),
                tile_cols=int(rng.integers(1, 8)),
                word_chunk=int(rng.integers(1, 4)),
            )
            rd, ri = topk_hamming_reference(Q, X, k)
            assert np.array_equal(d, rd)
            assert np.array_equal(i, ri)
        Q, X = _duplicate_store(rng)
        for k in (1, 3, 17):
            d, i = topk_hamming(Q, X, k)
            rd, ri = topk_hamming_reference(Q, X, k)
            assert np.array_equal(d, rd)
            assert np.array_equal(i, ri)

    def test_geometry_invariance(self):
        rng = np.random.default_rng(3)
        Q, X = _tied_batch(rng, 17, 3), _tied_batch(rng, 41, 3)
        base = topk_hamming(Q, X, 5)
        for tr, tc, wc in [(1, 1, 1), (4, 7, 2), (64, 64, 8), (17, 41, 3)]:
            d, i = topk_hamming(Q, X, 5, chunk_rows=tr, tile_cols=tc, word_chunk=wc)
            assert np.array_equal(d, base[0]) and np.array_equal(i, base[1])

    def test_n_jobs_invariance(self):
        rng = np.random.default_rng(4)
        Q, X = _tied_batch(rng, 23, 2), _tied_batch(rng, 31, 2)
        d1, i1 = topk_hamming(Q, X, 3, chunk_rows=4, n_jobs=1)
        d2, i2 = topk_hamming(Q, X, 3, chunk_rows=4, n_jobs=3)
        assert np.array_equal(d1, d2) and np.array_equal(i1, i2)

    def test_argmin_matches_topk_first_column(self):
        rng = np.random.default_rng(5)
        Q, X = _tied_batch(rng, 9, 2), _tied_batch(rng, 33, 2)
        d, i = argmin_hamming(Q, X, chunk_rows=3, tile_cols=5)
        rd, ri = topk_hamming_reference(Q, X, 1)
        assert np.array_equal(d, rd[:, 0]) and np.array_equal(i, ri[:, 0])

    def test_empty_query_batch(self):
        X = np.ones((4, 1), dtype=np.uint64)
        d, i = topk_hamming(np.empty((0, 1), dtype=np.uint64), X, 2)
        assert d.shape == (0, 2) and i.shape == (0, 2)

    def test_rejects_empty_store_and_bad_k(self):
        Q = np.ones((2, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            topk_hamming(Q, np.empty((0, 1), dtype=np.uint64), 1)
        with pytest.raises(ValueError):
            topk_hamming(Q, Q, 0)
        with pytest.raises(ValueError):
            topk_hamming(Q, np.ones((2, 2), dtype=np.uint64), 1)

    @given(
        n=st.integers(1, 40),
        m=st.integers(1, 12),
        words=st.integers(1, 3),
        k=st.integers(1, 40),
        vocab=st.integers(1, 8),
        chunk_rows=st.integers(1, 9),
        tile_cols=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bit_identical(
        self, n, m, words, k, vocab, chunk_rows, tile_cols, seed
    ):
        rng = np.random.default_rng(seed)
        Q = _tied_batch(rng, m, words, vocab)
        X = _tied_batch(rng, n, words, vocab)
        d, i = topk_hamming(Q, X, k, chunk_rows=chunk_rows, tile_cols=tile_cols)
        rd, ri = topk_hamming_reference(Q, X, k)
        assert np.array_equal(d, rd)
        assert np.array_equal(i, ri)


# ----------------------------------------------------------------------
# Triangular leave-one-out path
# ----------------------------------------------------------------------
class TestLooTopkHamming:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            words = int(rng.integers(1, 4))
            k = int(rng.integers(1, n + 1))  # may exceed n-1: clamped
            X = _tied_batch(rng, n, words)
            d, i = loo_topk_hamming(
                X, k, chunk_rows=int(rng.integers(1, 10)), word_chunk=int(rng.integers(1, 4))
            )
            rd, ri = loo_topk_hamming_reference(X, k)
            assert np.array_equal(d, rd)
            assert np.array_equal(i, ri)

    def test_never_returns_self(self):
        rng = np.random.default_rng(9)
        X = _tied_batch(rng, 35, 2)
        _, i = loo_topk_hamming(X, 34, chunk_rows=6)
        assert not np.any(i == np.arange(35)[:, None])

    def test_n_jobs_and_tile_invariance(self):
        rng = np.random.default_rng(10)
        X = _tied_batch(rng, 47, 3)
        base = loo_topk_hamming(X, 4)
        for tile, n_jobs in [(1, 1), (5, 2), (16, 3), (64, 1)]:
            d, i = loo_topk_hamming(X, 4, chunk_rows=tile, n_jobs=n_jobs)
            assert np.array_equal(d, base[0]) and np.array_equal(i, base[1])

    def test_reference_keeps_integer_dtype(self):
        rng = np.random.default_rng(11)
        X = _tied_batch(rng, 10, 2)
        d, _ = loo_topk_hamming_reference(X, 3)
        assert d.dtype == np.int64

    @given(
        n=st.integers(2, 40),
        words=st.integers(1, 3),
        k=st.integers(1, 6),
        vocab=st.integers(1, 8),
        chunk_rows=st.integers(1, 11),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_bit_identical(self, n, words, k, vocab, chunk_rows, seed):
        rng = np.random.default_rng(seed)
        X = _tied_batch(rng, n, words, vocab)
        d, i = loo_topk_hamming(X, k, chunk_rows=chunk_rows)
        rd, ri = loo_topk_hamming_reference(X, k)
        assert np.array_equal(d, rd)
        assert np.array_equal(i, ri)


# ----------------------------------------------------------------------
# HDIndex
# ----------------------------------------------------------------------
class TestHDIndex:
    def _brute(self, index, Q, k):
        P = index.packed_matrix
        D = np.bitwise_count(Q[:, None, :] ^ P[None, :, :]).sum(-1, dtype=np.int64)
        idx = np.argsort(D, axis=1, kind="stable")[:, :k]
        keys = [[index.keys[int(j)] for j in row] for row in idx]
        return keys, np.take_along_axis(D, idx, axis=1)

    def test_add_query_roundtrip(self):
        rng = np.random.default_rng(0)
        index = HDIndex(dim=128, chunk_rows=3, tile_cols=4)
        vecs = _tied_batch(rng, 12, 2)
        index.add_batch([f"k{i}" for i in range(12)], vecs)
        assert len(index) == 12 and "k3" in index
        Q = _tied_batch(rng, 5, 2)
        keys, dists = index.query_topk(Q, 4)
        ref_keys, ref_d = self._brute(index, Q, 4)
        assert keys == ref_keys
        assert np.array_equal(dists, ref_d)

    def test_query_argmin_matches_topk(self):
        rng = np.random.default_rng(1)
        index = HDIndex(dim=64)
        index.add_batch(list(range(20)), _tied_batch(rng, 20, 1))
        Q = _tied_batch(rng, 7, 1)
        keys1, d1 = index.query_argmin(Q)
        keys2, d2 = index.query_topk(Q, 1)
        assert keys1 == [row[0] for row in keys2]
        assert np.array_equal(d1, d2[:, 0])

    def test_remove_swaps_last_into_slot(self):
        rng = np.random.default_rng(2)
        index = HDIndex(dim=64)
        vecs = _tied_batch(rng, 6, 1)
        index.add_batch(list("abcdef"), vecs)
        index.remove("b")
        assert len(index) == 5 and "b" not in index
        assert index.keys == ["a", "f", "c", "d", "e"]
        assert np.array_equal(index.get("f").packed, vecs[5])
        # queries still consistent with brute force over the live store
        Q = _tied_batch(rng, 3, 1)
        keys, dists = index.query_topk(Q, 5)
        ref_keys, ref_d = self._brute(index, Q, 5)
        assert keys == ref_keys and np.array_equal(dists, ref_d)

    def test_remove_unknown_raises(self):
        index = HDIndex(dim=64)
        with pytest.raises(KeyError):
            index.remove("nope")

    def test_add_overwrites_existing_key(self):
        index = HDIndex(dim=64)
        a = Hypervector.random(64, seed=1)
        b = Hypervector.random(64, seed=2)
        index.add("x", a)
        index.add("x", b)
        assert len(index) == 1
        assert np.array_equal(index.get("x").packed, b.packed)

    def test_query_empty_raises(self):
        index = HDIndex(dim=64)
        with pytest.raises(ValueError):
            index.query_argmin(np.zeros((1, 1), dtype=np.uint64))

    def test_accepts_dense_queries(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((4, 64)) < 0.5).astype(np.uint8)
        index = HDIndex(dim=64)
        index.add_batch(range(4), pack_bits(dense, 64))
        keys, dists = index.query_argmin(dense)
        assert keys == [0, 1, 2, 3]
        assert np.array_equal(dists, np.zeros(4, dtype=np.int64))

    def test_interleaved_add_remove_stress(self):
        rng = np.random.default_rng(4)
        index = HDIndex(dim=64, chunk_rows=2, tile_cols=3)
        live = {}
        for step in range(200):
            if live and rng.random() < 0.3:
                key = list(live)[int(rng.integers(len(live)))]
                index.remove(key)
                del live[key]
            else:
                key = int(rng.integers(50))
                vec = _tied_batch(rng, 1, 1)[0]
                index.add(key, vec)
                live[key] = vec
        assert len(index) == len(live)
        for key, vec in live.items():
            assert np.array_equal(index.get(key).packed, vec)
        if live:
            Q = _tied_batch(rng, 4, 1)
            k = min(3, len(live))
            keys, dists = index.query_topk(Q, k)
            ref_keys, ref_d = self._brute(index, Q, k)
            assert keys == ref_keys and np.array_equal(dists, ref_d)

    @staticmethod
    def _state(packed):
        state = HDIndex(dim=512).get_state()
        state["keys"] = list(range(len(packed)))
        state["packed"] = packed
        return state

    def test_set_state_adopts_store_without_copy(self, rng):
        packed = rng.integers(0, 2**64, size=(20, 8), dtype=np.uint64)
        index = HDIndex(dim=512).set_state(self._state(packed))
        assert index._buf is packed  # adopted, not copied
        keys, _ = index.query_argmin(packed[3:4])
        assert keys == [3]

    def test_adopted_readonly_store_promotes_on_write(self, rng):
        packed = rng.integers(0, 2**64, size=(20, 8), dtype=np.uint64)
        packed.setflags(write=False)
        index = HDIndex(dim=512).set_state(self._state(packed))
        assert not index._buf.flags.writeable
        index.add(99, np.zeros(8, dtype=np.uint64))  # must not raise
        assert index._buf.flags.writeable
        assert len(index) == 21
        # The adopted source array is untouched by the private copy.
        assert not packed.flags.writeable
        assert 99 in index


# ----------------------------------------------------------------------
# Rewired consumers stay bit-identical to their dense references
# ----------------------------------------------------------------------
class TestRewiredConsumers:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_hamming_classifier_matches_reference(self, k):
        rng = np.random.default_rng(k)
        dim = 128
        X_train = _tied_batch(rng, 40, 2)
        y = rng.integers(0, 3, 40)
        Q = _tied_batch(rng, 15, 2)
        clf = HammingClassifier(
            dim=dim, n_neighbors=k, chunk_rows=7, tile_cols=5
        ).fit(X_train, y)
        assert np.array_equal(clf.predict(Q), clf.predict_reference(Q))
        assert np.array_equal(clf.predict_proba(Q), clf.predict_proba_reference(Q))

    def test_hamming_classifier_other_metric_unchanged(self):
        rng = np.random.default_rng(8)
        X_train = _tied_batch(rng, 30, 2)
        y = rng.integers(0, 2, 30)
        Q = _tied_batch(rng, 9, 2)
        clf = HammingClassifier(dim=128, n_neighbors=4, metric="euclidean").fit(
            X_train, y
        )
        assert np.array_equal(clf.predict(Q), clf.predict_reference(Q))
        assert np.array_equal(clf.predict_proba(Q), clf.predict_proba_reference(Q))

    def test_prototype_classifier_predict(self):
        rng = np.random.default_rng(12)
        dense = (rng.random((60, 100)) < 0.5).astype(np.uint8)
        y = rng.integers(0, 2, 60)
        clf = PrototypeClassifier(dim=100).fit(pack_bits(dense, 100), y)
        pred = clf.predict(pack_bits(dense, 100))
        proba = clf.predict_proba(pack_bits(dense, 100))
        assert np.array_equal(pred, clf.classes_[np.argmax(proba, axis=1)])

    def test_itemmemory_nearest_matches_stable_sort(self):
        rng = np.random.default_rng(13)
        mem = ItemMemory(dim=64)
        vecs = _tied_batch(rng, 15, 1)
        mem.store_batch([f"i{j}" for j in range(15)], vecs)
        query = vecs[4]
        got = mem.nearest(query, k=6)
        D = np.bitwise_count(query[None, :] ^ vecs).sum(-1, dtype=np.int64)
        order = np.argsort(D, kind="stable")[:6]
        assert got == [(f"i{int(j)}", int(D[j])) for j in order]

    def test_itemmemory_cleanup_batch_matches_cleanup(self):
        rng = np.random.default_rng(14)
        mem = ItemMemory(dim=64)
        vecs = _tied_batch(rng, 20, 1)
        mem.store_batch(list(range(20)), vecs)
        Q = _tied_batch(rng, 8, 1)
        keys, dists = mem.cleanup_batch(Q)
        singles = [mem.cleanup(Q[i]) for i in range(8)]
        assert keys == [s[0] for s in singles]
        assert dists.tolist() == [s[1] for s in singles]

    def test_leave_one_out_matches_reference(self):
        rng = np.random.default_rng(15)
        X = _tied_batch(rng, 50, 2)
        y = rng.integers(0, 2, 50)
        for k in (1, 5):
            fast = leave_one_out_hamming(X, y, n_neighbors=k, chunk_rows=9)
            ref = leave_one_out_hamming_reference(X, y, n_neighbors=k)
            assert np.array_equal(fast.y_pred, ref.y_pred)
            assert fast.report == ref.report


# ----------------------------------------------------------------------
# Paper-table equivalence: the engine must not move the seeded goldens
# ----------------------------------------------------------------------
class TestPaperTableEquivalence:
    @pytest.fixture(scope="class")
    def pima_packed(self):
        from repro.eval import experiments as xp

        config = xp.ExperimentConfig.fast()
        datasets = xp.default_datasets(config)
        ds = datasets["pima_r"]
        packed, _, _ = xp.encode_dataset(ds, config)
        return packed, ds.y

    def test_engine_and_reference_agree_on_paper_data(self, pima_packed):
        packed, y = pima_packed
        fast = leave_one_out_hamming(packed, y)
        ref = leave_one_out_hamming_reference(packed, y)
        assert np.array_equal(fast.y_pred, ref.y_pred)
        assert fast.accuracy == ref.accuracy

    def test_loo_accuracy_matches_checked_in_golden(self, pima_packed):
        from tests.eval.test_paper_tables_golden import GOLDEN

        packed, y = pima_packed
        acc = leave_one_out_hamming(packed, y).accuracy
        assert acc == pytest.approx(GOLDEN["pima_r"][1], abs=1e-12)
