"""Every repository path and every ``repro.…`` name the docs cite must exist.

README.md, CONTRIBUTING.md and the sources under ``src/`` point readers at
files (``benchmarks/...``, ``tests/...``, ``examples/...``, ``src/...``) and
at top-level ``*.md`` documents.  A pointer that outlives its target sends
the reader nowhere, so deleting or renaming a file must update its mentions
in the same change.  The same goes for a backticked dotted name such as
``repro.scp.pool.ProcessPool`` in README.md / CONTRIBUTING.md: it must still
resolve by import + ``getattr``.
"""

from __future__ import annotations

import glob
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: ``benchmarks/bench_*.py``-style mentions are globs and need one match.
PATH_PATTERN = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|examples|src)/[\w./*-]+")

#: ``README.md`` on its own, not the tail of ``benchmarks/e2e/README.md``.
TOP_LEVEL_MD_PATTERN = re.compile(r"(?<![\w/.-])[A-Za-z][\w-]*\.md\b")

#: A backticked ``repro.a.b`` name, with or without a call's argument list.
DOTTED_NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: Deliberate placeholders: CONTRIBUTING's "add a lint rule" recipe names
#: the fixture file a contributor is about to create.
PLACEHOLDERS = {"tests/lintlab_fixtures/rplxxx_bad.py"}


def _mentions(text: str):
    for match in PATH_PATTERN.finditer(text):
        yield match.group().rstrip(".")
    yield from TOP_LEVEL_MD_PATTERN.findall(text)


@pytest.mark.parametrize("where", ["README.md", "CONTRIBUTING.md", "src"])
def test_every_named_path_exists(where):
    target = ROOT / where
    documents = sorted(target.rglob("*.py")) if target.is_dir() else [target]
    missing = sorted({f"{document.relative_to(ROOT)}: {mention}"
                      for document in documents
                      for mention in _mentions(document.read_text("utf-8"))
                      if mention not in PLACEHOLDERS
                      and not glob.glob(str(ROOT / mention))})
    assert not missing, f"paths named in the docs do not exist: {missing}"


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``, ``getattr`` the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("document", ["README.md", "CONTRIBUTING.md"])
def test_every_named_symbol_resolves(document):
    names = set(DOTTED_NAME_PATTERN.findall((ROOT / document).read_text("utf-8")))
    assert names, f"{document} cites no repro.* name: has the pattern rotted?"
    dangling = sorted(name for name in names if not _resolves(name))
    assert not dangling, f"{document} names symbols that do not exist: {dangling}"
