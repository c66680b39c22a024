"""ServeConfig pool knobs: env resolution and validation."""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig, resolve_serve_config


def test_defaults_are_single_process():
    config = ServeConfig()
    assert config.workers == 1
    assert config.mmap is False


@pytest.mark.parametrize("field,value", [("workers", 0)])
def test_pool_knobs_validate(field, value):
    with pytest.raises(ValueError):
        ServeConfig(**{field: value})


def test_env_defaults_apply(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
    monkeypatch.setenv("REPRO_SERVE_MMAP", "true")
    config = resolve_serve_config()
    assert config.workers == 4
    assert config.mmap is True


def test_explicit_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "4")
    monkeypatch.setenv("REPRO_SERVE_MMAP", "on")
    config = resolve_serve_config(workers=2, mmap=False)
    assert config.workers == 2
    assert config.mmap is False


@pytest.mark.parametrize("value", ["0", "false", "no", "off"])
def test_env_bool_falsy_spellings(monkeypatch, value):
    monkeypatch.setenv("REPRO_SERVE_MMAP", value)
    assert resolve_serve_config().mmap is False


def test_env_garbage_raises(monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_SERVE_WORKERS"):
        resolve_serve_config()
    monkeypatch.delenv("REPRO_SERVE_WORKERS")
    monkeypatch.setenv("REPRO_SERVE_MMAP", "maybe")
    with pytest.raises(ValueError, match="REPRO_SERVE_MMAP"):
        resolve_serve_config()


def test_other_fields_pass_through():
    config = resolve_serve_config(workers=2, port=8123, max_batch=16)
    assert config.port == 8123
    assert config.max_batch == 16
    assert config.workers == 2


def test_facade_re_exports_pool_surface():
    import repro.api as api

    for name in (
        "resolve_serve_config",
        "ServePool",
        "verify_artifact",
        "artifact_sha",
    ):
        assert hasattr(api, name), f"repro.api is missing {name}"
        assert name in api.__all__
