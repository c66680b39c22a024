#!/usr/bin/env python
"""Online learning across clinic visits — the paper's "self-improving" loop.

The introduction singles out models that are "self-improving and
self-sustainable by feeding from the data they process" as the ones that
reach deployment.  HDC supports this naturally: class hypervectors are
*sums*, so absorbing a new confirmed case is one vector addition — no
refit.  This example:

1. bootstraps a :class:`PrototypeClassifier` from a small initial cohort
   (first 40% of the synthetic Sylhet data, simulating an early clinic);
2. streams the remaining patients in monthly batches, measuring accuracy
   on each *incoming* batch before absorbing it (prequential evaluation);
3. runs perceptron-style ``retrain`` at the end and reports the gain.

Run:  python examples/online_followup.py
"""

import os

import numpy as np

from repro.core import PrototypeClassifier, RecordEncoder
from repro.data import load_sylhet

FAST = bool(os.environ.get("REPRO_EXAMPLE_FAST"))
DIM = 1024 if FAST else 10_000
SEED = 7
BATCH = 48  # one "month" of clinic visits


def main() -> None:
    ds = load_sylhet(seed=2023)
    rng = np.random.default_rng(SEED)
    order = rng.permutation(ds.n_samples)
    X, y = ds.X[order], ds.y[order]

    encoder = RecordEncoder(specs=ds.specs, dim=DIM, seed=SEED).fit(X)
    H = encoder.transform(X)

    n_init = int(0.4 * ds.n_samples)
    clf = PrototypeClassifier(dim=DIM).fit(H[:n_init], y[:n_init])
    print(
        f"Bootstrapped on {n_init} patients "
        f"({int(y[:n_init].sum())} positive); streaming the rest in "
        f"batches of {BATCH}.\n"
    )

    print(f"{'batch':>5s}  {'incoming acc':>12s}  {'cumulative n':>12s}")
    seen = n_init
    prequential = []
    for start in range(n_init, ds.n_samples, BATCH):
        stop = min(start + BATCH, ds.n_samples)
        acc = clf.score(H[start:stop], y[start:stop])  # test-then-train
        prequential.append(acc)
        clf.partial_fit(H[start:stop], y[start:stop])
        seen = stop
        print(f"{len(prequential):5d}  {acc:12.1%}  {seen:12d}")

    print(f"\nMean prequential accuracy: {np.mean(prequential):.1%}")

    before = clf.score(H, y)
    clf.retrain(H, y, epochs=10)
    after = clf.score(H, y)
    print(
        f"Perceptron retraining: {before:.1%} -> {after:.1%} "
        f"(errors per epoch: {clf.retrain_errors_})"
    )


if __name__ == "__main__":
    main()
