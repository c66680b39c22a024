"""Blessed public surface of the repro package (PR 4).

Everything an end user needs to reproduce the paper — encoding, search,
classification, evaluation, data loading, and observability — re-exported
from one flat namespace with unified keyword spellings:

* ``n_jobs``     — worker count for parallel dispatch (``None``/``0`` defers
  to ``REPRO_WORKERS``);
* ``chunk_rows`` — rows per block/tile on the row-chunked axis;
* ``tile_cols``  — candidate columns per tile in the streaming search engine.

Import from here rather than from submodules: the lint rule HD007 and
``tests/api/test_facade.py`` pin this surface, so symbols listed in
``__all__`` are guaranteed to resolve and to be the same objects as their
defining modules'.
"""

from __future__ import annotations

# --- core: hypervectors, encoding, bundling -----------------------------
from repro.core.hypervector import (
    Hypervector,
    n_words,
    pack_bits,
    popcount,
    random_packed,
    unpack_bits,
    xor_packed,
)
from repro.core.encoding import (
    BinaryEncoder,
    CategoricalEncoder,
    EncoderNotFittedError,
    LevelEncoder,
)
from repro.core.bundling import (
    majority_from_counts,
    majority_vote,
    majority_vote_batch,
    majority_vote_counts,
    weighted_majority,
)
from repro.core.records import FeatureSpec, RecordEncoder, infer_feature_specs

# --- core: distance, search, classification -----------------------------
from repro.core.distance import (
    hamming_block,
    hamming_rowwise,
    normalized_pairwise_hamming,
    pairwise_distance,
    pairwise_hamming,
)
from repro.core.search import (
    HDIndex,
    argmin_hamming,
    loo_topk_hamming,
    topk_hamming,
)
from repro.core.classifier import HammingClassifier, PrototypeClassifier
from repro.core.itemmemory import ItemMemory

# --- ml: the paper's comparison models ----------------------------------
from repro.ml import (
    CatBoostClassifier,
    DecisionTreeClassifier,
    KNeighborsClassifier,
    LGBMClassifier,
    LogisticRegression,
    RandomForestClassifier,
    SGDClassifier,
    SVC,
    SequentialNN,
    XGBClassifier,
    clone,
)

# --- eval: protocols, metrics, experiment entry points ------------------
from repro.eval.metrics import classification_report
from repro.eval.crossval import (
    KFold,
    StratifiedKFold,
    cross_validate,
    leave_one_out_hamming,
    train_test_split,
    train_val_test_split,
)
from repro.eval.experiments import (
    ExperimentConfig,
    default_datasets,
    encode_dataset,
    run_dimension_ablation,
    run_encoding_ablation,
    run_runtime_study,
    run_table2,
    run_table3,
    run_table45,
)

# --- data: the paper's three datasets -----------------------------------
from repro.data import (
    Dataset,
    generate_binarized_images,
    generate_pima,
    generate_sylhet,
    load_pima_m,
    load_pima_r,
    load_sylhet,
    pima_feature_specs,
    sylhet_feature_specs,
)

# --- pipelines, persistence, serving ------------------------------------
from repro.ml.pipeline import HDCFeaturePipeline, ScaledClassifier
from repro.persist import (
    artifact_extras,
    artifact_info,
    artifact_sha,
    load_artifact,
    save_artifact,
    verify_artifact,
)
from repro.serve import (
    InferenceService,
    ModelServer,
    PredictFailedError,
    ReloadError,
    ServeConfig,
    ServePool,
    resolve_serve_config,
)

# --- lifecycle: hot-swap, shadow/A-B routing, drift ----------------------
from repro.lifecycle import (
    ArtifactWatcher,
    DriftMonitor,
    FollowUpTrainer,
    ModelHandle,
    ModelLifecycle,
    ShadowRunner,
    centroid_from_counts,
    training_centroid,
)

# --- scenarios: declarative workloads + load harness ---------------------
from repro.scenarios import (
    LoadReport,
    ScenarioError,
    ScenarioSpec,
    apply_preset,
    find_saturation,
    load_bench,
    load_scenario,
    run_load,
    run_rollout,
    run_scenario,
)

# --- parallel + observability + kernels ---------------------------------
from repro.parallel import parallel_map
from repro import obs
from repro import kernels
from repro.kernels import active_backend, available_backends

__all__ = [
    # hypervectors / encoding / bundling
    "Hypervector",
    "n_words",
    "pack_bits",
    "popcount",
    "random_packed",
    "unpack_bits",
    "xor_packed",
    "BinaryEncoder",
    "CategoricalEncoder",
    "EncoderNotFittedError",
    "LevelEncoder",
    "majority_from_counts",
    "majority_vote",
    "majority_vote_batch",
    "majority_vote_counts",
    "weighted_majority",
    "FeatureSpec",
    "RecordEncoder",
    "infer_feature_specs",
    # distance / search / classification
    "hamming_block",
    "hamming_rowwise",
    "normalized_pairwise_hamming",
    "pairwise_distance",
    "pairwise_hamming",
    "HDIndex",
    "argmin_hamming",
    "loo_topk_hamming",
    "topk_hamming",
    "HammingClassifier",
    "PrototypeClassifier",
    "ItemMemory",
    # ml models
    "CatBoostClassifier",
    "DecisionTreeClassifier",
    "KNeighborsClassifier",
    "LGBMClassifier",
    "LogisticRegression",
    "RandomForestClassifier",
    "SGDClassifier",
    "SVC",
    "SequentialNN",
    "XGBClassifier",
    "clone",
    # eval
    "classification_report",
    "KFold",
    "StratifiedKFold",
    "cross_validate",
    "leave_one_out_hamming",
    "train_test_split",
    "train_val_test_split",
    "ExperimentConfig",
    "default_datasets",
    "encode_dataset",
    "run_dimension_ablation",
    "run_encoding_ablation",
    "run_runtime_study",
    "run_table2",
    "run_table3",
    "run_table45",
    # data
    "Dataset",
    "generate_binarized_images",
    "generate_pima",
    "generate_sylhet",
    "load_pima_m",
    "load_pima_r",
    "load_sylhet",
    "pima_feature_specs",
    "sylhet_feature_specs",
    # pipelines / persistence / serving
    "HDCFeaturePipeline",
    "ScaledClassifier",
    "artifact_extras",
    "artifact_info",
    "artifact_sha",
    "load_artifact",
    "save_artifact",
    "verify_artifact",
    "InferenceService",
    "ModelServer",
    "PredictFailedError",
    "ReloadError",
    "ServeConfig",
    "ServePool",
    "resolve_serve_config",
    # lifecycle
    "ArtifactWatcher",
    "DriftMonitor",
    "FollowUpTrainer",
    "ModelHandle",
    "ModelLifecycle",
    "ShadowRunner",
    "centroid_from_counts",
    "training_centroid",
    # scenarios / load harness
    "LoadReport",
    "ScenarioError",
    "ScenarioSpec",
    "apply_preset",
    "find_saturation",
    "load_bench",
    "load_scenario",
    "run_load",
    "run_rollout",
    "run_scenario",
    # parallel + observability + kernels
    "parallel_map",
    "obs",
    "kernels",
    "active_backend",
    "available_backends",
]
