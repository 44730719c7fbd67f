"""Every repository path and every ``repro.…`` name the docs cite must exist.

README.md, CONTRIBUTING.md and the sources under ``src/`` point readers at
files (``benchmarks/...``, ``tests/...``, ``examples/...``, ``src/...``) and
at top-level ``*.md`` documents.  A pointer that outlives its target sends
the reader nowhere, so deleting or renaming a file must update its mentions
in the same change.  The same goes for a backticked dotted name such as
``repro.scp.pool.ProcessPool`` in README.md / CONTRIBUTING.md: it must still
resolve by import + ``getattr``; and for a backticked ``--flag`` there: it
must still parse on the ``repro-fusion`` command it is given to.  In a
``src/`` docstring, every Sphinx role naming an absolute ``repro.…`` target
(``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:attr:``) must resolve the
same way.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import glob
import importlib
import re
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent

#: ``benchmarks/bench_*.py``-style mentions are globs and need one match.
PATH_PATTERN = re.compile(r"(?<![\w/.-])(?:benchmarks|tests|examples|src)/[\w./*-]+")

#: ``README.md`` on its own, not the tail of ``benchmarks/e2e/README.md``.
TOP_LEVEL_MD_PATTERN = re.compile(r"(?<![\w/.-])[A-Za-z][\w-]*\.md\b")

#: A backticked ``repro.a.b`` name, with or without a call's argument list.
DOTTED_NAME_PATTERN = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: A Sphinx role on an absolute ``repro.…`` target; a target may wrap lines.
ROLE_PATTERN = re.compile(
    r":(?:class|func|meth|mod|attr):`~?(repro(?:\.\s*[A-Za-z_]\w*)+)(?:\(\))?`")

#: A backticked span, and a ``--flag`` in it.
SPAN_PATTERN = re.compile(r"`([^`\n]+)`")
FLAG_PATTERN = re.compile(r"(?<![\w-])--[a-z][\w-]*")

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


def _member(owner, name: str):
    """``getattr``, which also finds a dataclass field without a class-level
    default."""
    if dataclasses.is_dataclass(owner) and any(
            field.name == name for field in dataclasses.fields(owner)):
        return getattr(owner, name, None)
    return getattr(owner, name)


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
                target = _member(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def _docstrings(path: Path):
    """The module, class and function docstrings of one source file."""
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def test_every_docstring_role_resolves():
    references = {(str(path.relative_to(ROOT)), re.sub(r"\s+", "", target))
                  for path in sorted((ROOT / "src").rglob("*.py"))
                  for docstring in _docstrings(path)
                  for target in ROLE_PATTERN.findall(docstring)}
    assert len(references) > 100, "few roles found: has the pattern rotted?"
    dangling = sorted(f"{path}: {name}" for path, name in references
                      if not _resolves(name))
    assert not dangling, f"docstrings name symbols that do not exist: {dangling}"


def _commands(parser: argparse.ArgumentParser, words=()):
    """``(command words, flags)`` for the CLI and each (sub)command; a
    subcommand accepts its parents' flags too."""
    flags = {option for action in parser._actions
             for option in action.option_strings}
    yield words, flags
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for sub_words, sub_flags in _commands(sub, words + (name,)):
                    yield sub_words, flags | sub_flags


@pytest.mark.parametrize("document", ["README.md", "CONTRIBUTING.md"])
def test_every_named_cli_flag_parses(document):
    """A ``repro-fusion ...`` span is checked against its subcommand, a bare
    ``--flag`` against every command; spans that start with another program
    (``pytest --cov``, ``run.py --smoke``) are that program's business."""
    commands = dict(_commands(_build_parser()))
    any_command = set().union(*commands.values())
    unknown, checked = [], 0
    for span in SPAN_PATTERN.findall((ROOT / document).read_text("utf-8")):
        words = span.split()
        if words[0] == "repro-fusion":
            path = tuple(words[1:])
            while path not in commands:
                path = path[:-1]
            known = commands[path]
        elif words[0].startswith("--"):
            known = any_command
        else:
            continue
        for flag in FLAG_PATTERN.findall(span):
            checked += 1
            if flag not in known:
                unknown.append(f"{flag} in `{span}`")
    assert checked, f"{document} cites no repro-fusion flag: has the pattern rotted?"
    assert not unknown, f"{document} names flags the CLI does not parse: {unknown}"


@pytest.mark.parametrize("document", ["README.md", "CONTRIBUTING.md"])
def test_every_named_symbol_resolves(document):
    names = set(DOTTED_NAME_PATTERN.findall((ROOT / document).read_text("utf-8")))
    assert names, f"{document} cites no repro.* name: has the pattern rotted?"
    dangling = sorted(name for name in names if not _resolves(name))
    assert not dangling, f"{document} names symbols that do not exist: {dangling}"
