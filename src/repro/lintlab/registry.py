"""The lint-rule protocol: what every rule is and sees.

:class:`Rule` is the base class of a rule, :class:`LintContext` the one
file it checks.  The rules themselves, and the lookups the runner and the
CLI ``--list-rules`` table use, are the closed tuple in
:mod:`repro.lintlab.rules` -- adding a rule is one class plus one tuple
entry, no CLI surgery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Iterator, List

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


__all__ = ["LintContext", "Rule"]
