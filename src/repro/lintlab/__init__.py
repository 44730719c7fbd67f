"""``repro-fusion lint``: the fusion stack's concurrency invariant checker.

PRs 3-6 each paid real debugging time to the same class of process-parallel
hazards: SIGKILL-leaked queue locks, unregistered ``/dev/shm`` segments,
torn pickle frames, racy wall-clock deadlines, reduction-order drift
breaking bit-parity.  The invariants that came out of that debugging are
machine-checked here, at lint time, so they hold *before* the crash matrix
and the parity fuzzer (:mod:`repro.paritylab`) ever run.

The subsystem mirrors the shape of the other CLI labs:

* :mod:`repro.lintlab.registry` -- the :class:`Rule` base class: a rule
  is one class with a ``code``, a one-line rationale naming the PR that
  motivated it, and an AST ``check``.
* :mod:`repro.lintlab.rules` -- the built-in rules RPL001-RPL006 and the
  closed ``RULES`` tuple every lookup reads.
* :mod:`repro.lintlab.suppressions` -- ``# repro: allow[RPL004]`` comment
  handling, including the used/dead accounting the CLI reports so stale
  suppressions can be pruned.
* :mod:`repro.lintlab.runner` -- file walking, per-finding source
  locations, text/JSON rendering; :func:`lint_paths` is the entry point
  the ``repro-fusion lint`` subcommand drives.

Lint a tree programmatically::

    from repro.lintlab import lint_paths
    report = lint_paths(["src"])
    assert report.ok, report.render_text()
"""

from .findings import Finding, Suppression
from .registry import Rule
from .rules import all_rules, get_rule, rule_codes
from .runner import LintReport, lint_paths, lint_source

__all__ = [
    "Finding",
    "Suppression",
    "Rule",
    "all_rules",
    "get_rule",
    "rule_codes",
    "LintReport",
    "lint_paths",
    "lint_source",
]
