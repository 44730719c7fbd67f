"""The strict typing gate of the public surface.

``pyproject.toml``'s ``[tool.mypy].files`` list *is* the typed surface:
CI runs ``mypy`` (config-driven ``--strict``) over it in the
static-analysis job.  mypy is not importable in every environment this
suite runs in, so the gate is layered:

* the configuration itself is asserted here (strict on, the required
  packages listed, mypy declared in the ``dev`` extra), and
* an AST sweep enforces *complete* parameter/return annotation coverage
  on exactly the configured files -- the strict check mypy would fail
  first -- so an unannotated def on the typed surface fails this suite
  even without mypy installed.  The real mypy run executes whenever it
  is available.
"""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path
from typing import List

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"

#: Modules ISSUE/README promise are under the strict gate; the pyproject
#: files list may grow beyond this but never drop one of these.
REQUIRED_SURFACE = (
    "src/repro/config.py",
    "src/repro/registry.py",
    "src/repro/scp/registry.py",
    "src/repro/data/shared.py",
    "src/repro/api",
    "src/repro/paritylab",
    "src/repro/lintlab",
)


def mypy_config() -> dict:
    return tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["tool"]["mypy"]


def typed_files() -> List[Path]:
    """The concrete .py files the configured surface expands to."""
    paths: List[Path] = []
    for entry in mypy_config()["files"]:
        target = REPO_ROOT / entry
        assert target.exists(), f"[tool.mypy].files entry missing: {entry}"
        if target.is_dir():
            paths.extend(sorted(target.rglob("*.py")))
        else:
            paths.append(target)
    return paths


def test_strict_gate_is_configured():
    config = mypy_config()
    assert config["strict"] is True
    for entry in REQUIRED_SURFACE:
        assert entry in config["files"], (
            f"{entry} dropped from the strict typing surface")


def test_mypy_is_a_dev_dependency():
    data = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    dev = data["project"]["optional-dependencies"]["dev"]
    assert any(spec.startswith("mypy") for spec in dev)


def _annotation_gaps(path: Path) -> List[str]:
    """Every def parameter/return on the typed surface must be annotated.

    This is the first check ``--strict`` applies
    (``disallow_untyped_defs``/``disallow_incomplete_defs``), reproduced
    with the stdlib so the gate bites even where mypy is not installed.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    gaps: List[str] = []
    relative = path.relative_to(REPO_ROOT)

    class Sweep(ast.NodeVisitor):
        def _function(self, node):
            args = node.args
            params = (list(args.posonlyargs) + list(args.args)
                      + list(args.kwonlyargs))
            skip_first = bool(params) and params[0].arg in ("self", "cls")
            for index, param in enumerate(params):
                if skip_first and index == 0:
                    continue
                if param.annotation is None:
                    gaps.append(f"{relative}:{node.lineno} {node.name}() "
                                f"parameter {param.arg!r} unannotated")
            for star in (args.vararg, args.kwarg):
                if star is not None and star.annotation is None:
                    gaps.append(f"{relative}:{node.lineno} {node.name}() "
                                f"star parameter {star.arg!r} unannotated")
            if node.returns is None and node.name != "__init__":
                gaps.append(f"{relative}:{node.lineno} {node.name}() "
                            f"return unannotated")
            self.generic_visit(node)

        visit_FunctionDef = _function
        visit_AsyncFunctionDef = _function

    Sweep().visit(tree)
    return gaps


def test_typed_surface_is_fully_annotated():
    files = typed_files()
    assert len(files) >= 15, "typed surface unexpectedly small"
    gaps = [gap for path in files for gap in _annotation_gaps(path)]
    assert gaps == [], "unannotated defs on the strict surface:\n" + \
        "\n".join(gaps)


def test_mypy_strict_passes_when_available():
    pytest.importorskip("mypy", reason="mypy not installed in this "
                        "environment; CI's static-analysis job runs it")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", str(PYPROJECT)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
