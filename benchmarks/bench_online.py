"""O1 — online-learning extension: prequential accuracy and throughput.

Not a paper table — this benchmarks the §III-B-motivated extension
(incremental class accumulators + perceptron retraining) so regressions
in the streaming path are caught:

* prequential (test-then-train) accuracy over the Sylhet stream must stay
  near the batch model's level;
* ``partial_fit`` must be cheap — absorbing a batch is a vector add, not
  a refit;
* ``retrain`` must not reduce training accuracy.
"""

import numpy as np
import pytest

from repro.core.classifier import PrototypeClassifier
from repro.eval.experiments import encode_dataset


@pytest.fixture(scope="module")
def stream(config, datasets):
    ds = datasets["sylhet"]
    packed, _, _ = encode_dataset(ds, config)
    rng = np.random.default_rng(0)
    order = rng.permutation(ds.n_samples)
    return packed[order], ds.y[order]


def test_prequential_stream(benchmark, config, stream):
    H, y = stream
    n_init = len(y) // 3
    batch = 40

    def run():
        clf = PrototypeClassifier(dim=config.dim).fit(H[:n_init], y[:n_init])
        accs = []
        for start in range(n_init, len(y), batch):
            stop = min(start + batch, len(y))
            accs.append(clf.score(H[start:stop], y[start:stop]))
            clf.partial_fit(H[start:stop], y[start:stop])
        return clf, float(np.mean(accs))

    clf, prequential = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nprequential accuracy: {prequential:.1%}")
    assert prequential > 0.75
    # All records absorbed.
    assert clf.class_counts_.sum() == len(y)


def test_partial_fit_throughput(benchmark, config, stream):
    H, y = stream
    clf = PrototypeClassifier(dim=config.dim).fit(H[:100], y[:100])
    chunk = H[100:200], y[100:200]
    benchmark(lambda: clf.partial_fit(*chunk))


def test_retraining_gain(benchmark, config, stream):
    H, y = stream

    def run():
        clf = PrototypeClassifier(dim=config.dim).fit(H, y)
        before = clf.score(H, y)
        clf.retrain(H, y, epochs=8)
        return before, clf.score(H, y)

    before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nprototype acc {before:.1%} -> retrained {after:.1%}")
    assert after >= before
