"""Lint driver: walk files, run every rule, apply suppressions, render.

:func:`lint_paths` is what the ``repro-fusion lint`` subcommand calls;
:func:`lint_source` is the single-snippet form the fixture tests use
(with a ``virtual_path`` to plant a snippet into any module role).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from .findings import Finding, Suppression
from .registry import LintContext, Rule
from .rules import all_rules
from .suppressions import scan_suppressions

#: Pseudo-rule code of files the parser rejects; not suppressible.
PARSE_ERROR_CODE = "RPL000"

#: Directories never descended into when walking a tree.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "venv", "build", "dist",
              ".mypy_cache", ".ruff_cache", ".pytest_cache"}


@dataclass
class LintReport:
    """Outcome of one lint run.

    ``findings`` are the active violations (the exit-code drivers);
    ``suppressed`` the ones silenced by an ``allow`` directive (kept so
    the CLI can show what the suppressions are holding back); and
    ``suppressions`` every directive with its used/dead state, so dead
    suppressions can be pruned once the code they covered is gone.
    """

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    suppressions: List[Suppression] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def dead_suppressions(self) -> List[Suppression]:
        return [record for record in self.suppressions if not record.used]

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    def suppressed_counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.suppressed:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return counts

    # ------------------------------------------------------------- rendering
    def render_text(self, *, show_suppressed: bool = False) -> str:
        lines: List[str] = []
        for finding in self.findings:
            lines.append(finding.describe())
        if show_suppressed:
            for finding in self.suppressed:
                lines.append(f"{finding.describe()} "
                             f"[suppressed at line {finding.suppressed_by}]")
        for record in self.dead_suppressions:
            lines.append(f"{record.path}:{record.line}: warning: dead "
                         f"suppression of {record.code} "
                         f"({record.directive}) -- nothing left to allow")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"{self.files_checked} file(s) checked",
                 f"{len(self.findings)} finding(s)"]
        if self.findings:
            by_code = ", ".join(f"{code}: {count}" for code, count
                                in sorted(self.counts_by_code().items()))
            parts[-1] += f" ({by_code})"
        if self.suppressed:
            by_code = ", ".join(f"{code}: {count}" for code, count in sorted(
                self.suppressed_counts_by_code().items()))
            parts.append(f"{len(self.suppressed)} suppressed ({by_code})")
        dead = self.dead_suppressions
        if dead:
            parts.append(f"{len(dead)} dead suppression(s)")
        return "; ".join(parts)

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro-fusion/lint-report/v1",
            "files_checked": self.files_checked,
            "findings": [finding.to_json() for finding in self.findings],
            "suppressed": [finding.to_json() for finding in self.suppressed],
            "suppressions": [record.to_json() for record in self.suppressions],
            "ok": self.ok,
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


def lint_source(source: str, path: str = "<string>", *,
                virtual_path: Optional[str] = None,
                rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint one source string as if it lived at ``virtual_path``."""
    report = LintReport(files_checked=1)
    _lint_one(source, path, virtual_path, rules or all_rules(), report)
    return report


def lint_paths(paths: Iterable["str | Path"], *,
               rules: Optional[Sequence[Rule]] = None) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` (files or directories)."""
    active_rules = list(rules) if rules is not None else all_rules()
    report = LintReport()
    for file_path in _collect_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            report.findings.append(Finding(
                code=PARSE_ERROR_CODE, message=f"cannot read file: {err}",
                path=str(file_path), line=1))
            continue
        report.files_checked += 1
        _lint_one(source, str(file_path), None, active_rules, report)
    return report


def _collect_files(paths: Iterable["str | Path"]) -> List[Path]:
    files: List[Path] = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts))
        elif path.suffix == ".py" or path.is_file():
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            key = str(candidate)
            if key not in seen:
                seen.add(key)
                files.append(candidate)
    return files


def _lint_one(source: str, path: str, virtual_path: Optional[str],
              rules: Sequence[Rule], report: LintReport) -> None:
    try:
        ctx = LintContext.from_source(source, path, virtual_path)
    except SyntaxError as err:
        report.findings.append(Finding(
            code=PARSE_ERROR_CODE,
            message=f"file does not parse: {err.msg}",
            path=path, line=err.lineno or 1, col=(err.offset or 1) - 1))
        return
    sheet = scan_suppressions(source, path)
    for rule in rules:
        for finding in rule.check(ctx):
            if sheet.covers(finding.code, finding.line):
                directive_line = sheet.directive_line(finding.code, finding.line)
                report.suppressed.append(Finding(
                    code=finding.code, message=finding.message,
                    path=finding.path, line=finding.line, col=finding.col,
                    suppressed_by=directive_line))
            else:
                report.findings.append(finding)
    report.suppressions.extend(sheet.records())
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))


__all__ = ["LintReport", "lint_paths", "lint_source", "PARSE_ERROR_CODE"]
