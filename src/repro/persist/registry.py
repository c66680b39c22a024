"""Explicit class registry for the artifact codec.

Artifacts name classes by a short registry key (``core.records.
RecordEncoder``); loading resolves the key through this table only —
there is **no** dynamic import of dotted paths from the manifest, so a
hand-edited artifact cannot make the loader import or execute anything.
Unknown keys fail with :class:`~repro.persist.errors.StateError`.

Default protocol: a registered class supplies ``get_state()`` (a codec-
encodable tree) and ``set_state(state)`` (rebuild in place); loading
allocates with ``cls.__new__`` and calls ``set_state``.  Classes that do
not own the protocol (dataclasses, internal layers) register explicit
``to_state`` / ``from_state`` functions instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Type

import numpy as np


@dataclass(frozen=True)
class RegistryEntry:
    name: str
    cls: Type[Any]
    to_state: Callable[[Any], Any]
    from_state: Callable[[Any], Any]


_BY_NAME: Dict[str, RegistryEntry] = {}
_BY_CLASS: Dict[Type[Any], RegistryEntry] = {}


def registry_name(cls: Type[Any]) -> str:
    """Canonical key: module path with the ``repro.`` prefix stripped."""
    module = cls.__module__
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}.{cls.__qualname__}"


def register(
    cls: Type[Any],
    *,
    to_state: Optional[Callable[[Any], Any]] = None,
    from_state: Optional[Callable[[Any], Any]] = None,
) -> Type[Any]:
    """Register ``cls`` for persistence; idempotent per class."""
    if to_state is None:
        to_state = lambda obj: obj.get_state()  # noqa: E731
    if from_state is None:
        def from_state(state: Any, _cls: Type[Any] = cls) -> Any:
            obj = _cls.__new__(_cls)
            obj.set_state(state)
            return obj

    entry = RegistryEntry(registry_name(cls), cls, to_state, from_state)
    _BY_NAME[entry.name] = entry
    _BY_CLASS[cls] = entry
    return cls


def lookup_class(cls: Type[Any]) -> Optional[RegistryEntry]:
    return _BY_CLASS.get(cls)


def lookup_name(name: Any) -> Optional[RegistryEntry]:
    if not isinstance(name, str):
        return None
    return _BY_NAME.get(name)


def registered_names() -> list:
    return sorted(_BY_NAME)


# ----------------------------------------------------------------------
# Catalogue.  Registration is explicit — a class joins the artifact
# format only when its round-trip is covered by tests/persist.
# ----------------------------------------------------------------------
def _register_catalogue() -> None:
    from repro.core.classifier import HammingClassifier, PrototypeClassifier
    from repro.core.encoding import BinaryEncoder, CategoricalEncoder, LevelEncoder
    from repro.core.records import FeatureSpec, RecordEncoder
    from repro.core.search import HDIndex
    from repro.ml.linear import LogisticRegression, SGDClassifier
    from repro.ml.neighbors import KNeighborsClassifier
    from repro.ml.neural import Dense, SequentialNN
    from repro.ml.pipeline import HDCFeaturePipeline, ScaledClassifier
    from repro.ml.preprocessing import MinMaxScaler, StandardScaler
    from repro.ml.svm import SVC

    for cls in (
        LevelEncoder,
        BinaryEncoder,
        CategoricalEncoder,
        RecordEncoder,
        HammingClassifier,
        PrototypeClassifier,
        HDIndex,
        LogisticRegression,
        SGDClassifier,
        KNeighborsClassifier,
        SequentialNN,
        SVC,
        StandardScaler,
        MinMaxScaler,
        ScaledClassifier,
        HDCFeaturePipeline,
    ):
        register(cls)
    # Load-only name: follow-up candidates saved while the accumulator
    # classifier was a separate class carry it; the state is the same.
    _BY_NAME["core.online.OnlineHDClassifier"] = _BY_CLASS[PrototypeClassifier]

    register(
        FeatureSpec,
        to_state=lambda s: {"name": s.name, "kind": s.kind, "levels": s.levels},
        from_state=lambda st: FeatureSpec(**st),
    )

    def dense_to_state(layer: Dense) -> Dict[str, Any]:
        # Inference state only: the Adam moments and backprop scratch are
        # training-time artifacts and are re-zeroed on load.
        return {"W": layer.W, "b": layer.b, "relu": bool(layer.relu)}

    def dense_from_state(state: Dict[str, Any]) -> Dense:
        layer = Dense.__new__(Dense)
        layer.W = np.asarray(state["W"], dtype=np.float64)
        layer.b = np.asarray(state["b"], dtype=np.float64)
        layer.relu = bool(state["relu"])
        layer.mW = np.zeros_like(layer.W)
        layer.vW = np.zeros_like(layer.W)
        layer.mb = np.zeros_like(layer.b)
        layer.vb = np.zeros_like(layer.b)
        return layer

    register(Dense, to_state=dense_to_state, from_state=dense_from_state)


_register_catalogue()

__all__ = [
    "RegistryEntry",
    "lookup_class",
    "lookup_name",
    "register",
    "registered_names",
    "registry_name",
]
