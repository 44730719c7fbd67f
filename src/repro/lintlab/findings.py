"""Value objects of the lint subsystem: findings and suppressions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is the file as given to the runner (repo-relative when the
    CLI is invoked from the repo root), ``line``/``col`` are 1-based /
    0-based exactly as :mod:`ast` reports them, so the rendered location
    (``path:line:col``) is directly clickable in editors and CI logs.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    #: Line of the suppression directive that silenced this finding
    #: (``None`` for active findings).
    suppressed_by: Optional[int] = None

    def describe(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }
        if self.suppressed_by is not None:
            payload["suppressed_by"] = self.suppressed_by
        return payload


@dataclass(frozen=True)
class Suppression:
    """One ``# repro: allow[RPLxxx]`` directive found in a file.

    ``used`` is filled in by the runner: a directive that silenced at
    least one finding is *used*; the rest are *dead* and reported so they
    can be pruned once the code they covered is gone.
    """

    code: str
    path: str
    line: int
    #: The raw directive text (diagnostics; ``# repro: ordered`` sugar
    #: shows up here as written, not as the allow it expands to).
    directive: str = ""
    used: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "directive": self.directive,
            "used": self.used,
        }


__all__ = ["Finding", "Suppression"]
