"""Fixture: span-instrumented streaming path collecting parallel_map blocks.

Regression corpus for the HD003 parallel_map exemption — the merge loop
below iterates O(n_chunks) dispatched blocks, not O(n) records, and the
span instrumentation (decorator + context manager) must not trip any rule.
"""

import numpy as np

from repro.obs import span
from repro.parallel import parallel_map
from repro.utils.contracts import checks_packed


def _tile_sorted(args):
    X, start, stop = args
    return np.sort(X[start:stop], axis=1)


@checks_packed("X")
def topk_tiles(X, k, *, chunk_rows=128, n_jobs=1):
    tiles = [
        (start, min(start + chunk_rows, X.shape[0]))
        for start in range(0, X.shape[0], chunk_rows)
    ]
    with span("search.topk_tiles", rows=X.shape[0], k=k):
        blocks = parallel_map(
            _tile_sorted, [(X, a, b) for a, b in tiles], n_jobs=n_jobs
        )
        out = np.empty((X.shape[0], k), dtype=np.int64)
        for i in range(len(blocks)):
            a, b = tiles[i]
            out[a:b] = blocks[i][:, :k]
        return out
