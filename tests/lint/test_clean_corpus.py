"""The real tree must lint clean — the same gate CI enforces.

The hot-path engine files are asserted individually (and asserted to
contain no suppression comments at all: the acceptance bar is that
``core`` hot paths are clean on merit, not via escapes), then the whole
``src/`` tree is linted exactly as ``repro-lint src`` would.
"""

from pathlib import Path

import pytest

from repro.lint import lint_file, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"

HOT_PATH_FILES = [
    "repro/core/search.py",
    "repro/core/hypervector.py",
    "repro/core/distance.py",
    "repro/core/bundling.py",
]

#: The packages HD009–HD012 police hardest: clean on merit, no escapes.
PROJECT_RULE_HOT_PATHS = [
    "repro/serve/batcher.py",
    "repro/serve/http.py",
    "repro/serve/pool.py",
    "repro/serve/service.py",
    "repro/lifecycle/manager.py",
    "repro/lifecycle/drift.py",
    "repro/lifecycle/shadow.py",
    "repro/lifecycle/watch.py",
    "repro/scenarios/load.py",
    "repro/parallel/pool.py",
]


@pytest.mark.parametrize("rel", HOT_PATH_FILES + PROJECT_RULE_HOT_PATHS)
def test_hot_path_file_lints_clean(rel):
    findings = lint_file(SRC / rel)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize("rel", HOT_PATH_FILES + PROJECT_RULE_HOT_PATHS)
def test_hot_path_file_has_no_suppressions(rel):
    source = (SRC / rel).read_text(encoding="utf-8")
    assert "hdlint:" not in source


def test_whole_src_tree_lints_clean():
    findings = lint_paths([SRC])
    assert findings == [], [f.render() for f in findings]


def test_src_and_tests_lint_clean_with_project_rules():
    # The exact invocation CI runs (`repro-lint src tests`): the test
    # modules join the project index, which arms HD011's corpus clause.
    findings = lint_paths([SRC, TESTS])
    assert findings == [], [f.render() for f in findings]
