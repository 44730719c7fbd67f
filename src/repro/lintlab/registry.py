"""Rule registry: named lint rules behind one tiny protocol.

Mirrors the engine/backend registries (:mod:`repro.api.engines`,
:mod:`repro.scp.registry`): a rule is registered by decorating its class,
and the runner, the CLI ``--list-rules`` table and the README rule table
are all driven from the same registry -- adding a rule is one decorated
class, no CLI surgery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterator, List, Type, TypeVar

from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .findings import Finding


@dataclass
class LintContext:
    """Everything a rule sees for one file.

    ``module`` is the forward-slash form of the path; rules scope
    themselves by suffix/substring on it (e.g. RPL001's sanctioned
    allocation site is ``repro/data/shared.py``), so a file's *role* in
    the tree -- not its absolute location -- decides which invariants
    apply.  Tests lint fixture snippets under a ``virtual_path`` to plant
    violations inside any role.
    """

    path: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def from_source(cls, source: str, path: str,
                    virtual_path: "str | None" = None) -> "LintContext":
        module = PurePosixPath((virtual_path or path).replace("\\", "/")).as_posix()
        return cls(path=path, module=module, source=source,
                   tree=ast.parse(source), lines=source.splitlines())

    def in_module(self, *suffixes: str) -> bool:
        """Whether this file plays one of the named module roles."""
        return any(self.module.endswith(suffix) for suffix in suffixes)

    def under_package(self, *prefixes: str) -> bool:
        """Whether this file lives under one of the named package dirs."""
        return any(f"{prefix.rstrip('/')}/" in f"/{self.module}"
                   for prefix in prefixes)


class Rule:
    """Base class of every lint rule.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`~repro.lintlab.findings.Finding` objects.  ``code``
    is the stable identifier suppressions name (``# repro:
    allow[RPL004]``); ``rationale`` is the one-line justification the
    README rule table renders, citing the PR that motivated the rule.
    """

    code: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: LintContext) -> "Iterator[Finding]":
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, ctx: LintContext, node: ast.AST,
                message: "str | None" = None) -> "Finding":
        from .findings import Finding

        return Finding(code=self.code, message=message or self.summary,
                       path=ctx.path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0))


_RULES: Registry[Type[Rule]] = Registry("lint rule", plural="rules")

R = TypeVar("R", bound=Type[Rule])


def register_rule(cls: R) -> R:
    """Class decorator registering a :class:`Rule` under its ``code``."""
    code = getattr(cls, "code", "")
    if not code:
        raise ValueError(f"rule class {cls.__name__} defines no code")
    _RULES.add(code, cls)
    return cls


def rule_codes() -> List[str]:
    """Sorted codes of every registered rule."""
    _ensure_builtin_rules()
    return _RULES.names()


def all_rules() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    _ensure_builtin_rules()
    return [_RULES.get(code)() for code in _RULES.names()]


def get_rule(code: str) -> Rule:
    """Instantiate the rule registered under ``code``.

    Raises a :class:`ValueError` listing the registered codes when
    ``code`` is unknown, matching the engine/backend registry behaviour.
    """
    _ensure_builtin_rules()
    return _RULES.get(code)()


def _ensure_builtin_rules() -> None:
    # Imported lazily so `from repro.lintlab.registry import register_rule`
    # works while rules.py itself is still initialising.
    from . import rules  # noqa: F401


__all__ = ["LintContext", "Rule", "register_rule", "rule_codes",
           "all_rules", "get_rule"]
