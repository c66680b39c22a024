"""The blessed public surface: repro.api resolution.

Every symbol in ``repro.api.__all__`` imports, and is the *same object*
as in its defining module (so signatures cannot drift).
"""

import importlib

import pytest

import repro.api as api


class TestSurface:
    def test_star_import_exposes_all(self):
        ns = {}
        exec("from repro.api import *", ns)
        missing = [n for n in api.__all__ if n not in ns]
        assert missing == []

    def test_every_export_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    @pytest.mark.parametrize(
        "name,module",
        [
            ("RecordEncoder", "repro.core.records"),
            ("FeatureSpec", "repro.core.records"),
            ("infer_feature_specs", "repro.core.records"),
            ("topk_hamming", "repro.core.search"),
            ("loo_topk_hamming", "repro.core.search"),
            ("argmin_hamming", "repro.core.search"),
            ("HDIndex", "repro.core.search"),
            ("HammingClassifier", "repro.core.classifier"),
            ("ItemMemory", "repro.core.itemmemory"),
            ("pairwise_hamming", "repro.core.distance"),
            ("cross_validate", "repro.eval.crossval"),
            ("leave_one_out_hamming", "repro.eval.crossval"),
            ("run_table2", "repro.eval.experiments"),
            ("SequentialNN", "repro.ml.neural"),
            ("KNeighborsClassifier", "repro.ml.neighbors"),
            ("parallel_map", "repro.parallel.pool"),
        ],
    )
    def test_identity_with_defining_module(self, name, module):
        # Same object => same signature; HD007 checks resolution statically,
        # this pins it dynamically.
        mod = importlib.import_module(module)
        assert getattr(api, name) is getattr(mod, name)

    def test_obs_namespace_exported(self):
        assert api.obs.span is not None
        assert api.obs.REGISTRY is not None

