"""Tests of the repro-fusion lint subsystem (rules, suppressions, runner, CLI).

The per-rule contract is fixture-driven: every rule has a ``*_bad.py``
snippet with ``# planted`` markers on exactly the lines it must flag, and
a ``*_good.py`` clean twin it must stay silent on.  Fixtures carry their
module *role* in a ``# virtual-path:`` header, so a snippet can be
planted inside any scoped location (a parity kernel, a sanctioned
module) regardless of where the fixture file itself lives.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lintlab import (Finding, Rule, all_rules, get_rule, lint_paths,
                           lint_source, rule_codes)
from repro.lintlab.rules import BUILTIN_RULES, RULES
from repro.lintlab.runner import PARSE_ERROR_CODE

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "lintlab_fixtures"


def load_fixture(name):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    header = source.splitlines()[0]
    assert header.startswith("# virtual-path:"), name
    return source, header.split(":", 1)[1].strip()


def planted_lines(source):
    return [number for number, line in enumerate(source.splitlines(), start=1)
            if "# planted" in line]


# ---------------------------------------------------------------------------
# Per-rule fixture pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("code", BUILTIN_RULES)
def test_rule_fires_exactly_at_planted_lines(code):
    source, virtual_path = load_fixture(f"{code.lower()}_bad.py")
    planted = planted_lines(source)
    assert planted, f"{code} bad fixture plants no violations"
    report = lint_source(source, path=f"{code.lower()}_bad.py",
                         virtual_path=virtual_path)
    fired = sorted(finding.line for finding in report.findings
                   if finding.code == code)
    assert fired == planted
    # The planted violations are the only findings: no cross-rule noise.
    assert all(finding.code == code for finding in report.findings)
    assert not report.ok


@pytest.mark.parametrize("code", BUILTIN_RULES)
def test_rule_silent_on_clean_twin(code):
    source, virtual_path = load_fixture(f"{code.lower()}_good.py")
    report = lint_source(source, path=f"{code.lower()}_good.py",
                         virtual_path=virtual_path)
    assert report.findings == []
    assert report.ok


def test_findings_carry_source_locations():
    source, virtual_path = load_fixture("rpl004_bad.py")
    report = lint_source(source, path="rpl004_bad.py",
                         virtual_path=virtual_path)
    finding = report.findings[0]
    assert finding.path == "rpl004_bad.py"
    assert finding.line >= 1 and finding.col >= 0
    assert finding.describe().startswith(
        f"rpl004_bad.py:{finding.line}:{finding.col}: RPL004")


# ---------------------------------------------------------------------------
# Role scoping: the same source, different module roles
# ---------------------------------------------------------------------------

def test_rpl001_sanctioned_inside_shared_module():
    source, _ = load_fixture("rpl001_bad.py")
    report = lint_source(source, virtual_path="src/repro/data/shared.py")
    assert [f for f in report.findings if f.code == "RPL001"] == []


def test_rpl002_sanctioned_inside_mailbox_modules():
    # One module builds queues -- the pool, whose every queue is a slot inbox
    # only its owner writes; the backend and the transports build none.
    source, _ = load_fixture("rpl002_bad.py")
    pool = lint_source(source, virtual_path="src/repro/scp/pool.py")
    assert [f for f in pool.findings if f.code == "RPL002"] == []
    for role in ("src/repro/scp/process_backend.py", "src/repro/scp/transport.py"):
        report = lint_source(source, virtual_path=role)
        assert [f for f in report.findings if f.code == "RPL002"]


def test_rpl006_only_fires_in_parity_critical_modules():
    source, _ = load_fixture("rpl006_bad.py")
    outside = lint_source(source, virtual_path="src/repro/analysis/report.py")
    assert [f for f in outside.findings if f.code == "RPL006"] == []
    inside = lint_source(source, virtual_path="src/repro/core/streaming.py")
    assert [f for f in inside.findings if f.code == "RPL006"]


# ---------------------------------------------------------------------------
# Suppressions: honored, counted, reported
# ---------------------------------------------------------------------------

SUPPRESSED_SNIPPET = '''\
import time


def wait(poll, timeout):
    deadline = time.time() + timeout  # repro: allow[RPL004] sim clock only
    while not poll():
        if time.time() > deadline:
            return False
    return True
'''


def test_trailing_suppression_is_honored_and_counted():
    report = lint_source(SUPPRESSED_SNIPPET, path="snippet.py")
    # Line 5 is allowed, line 7 still fires.
    assert [f.line for f in report.findings if f.code == "RPL004"] == [7]
    assert [f.line for f in report.suppressed] == [5]
    assert report.suppressed[0].suppressed_by == 5
    assert report.suppressed_counts_by_code() == {"RPL004": 1}
    [record] = report.suppressions
    assert record.used and record.code == "RPL004" and record.line == 5


def test_comment_line_suppression_covers_next_line():
    snippet = (
        "import time\n"
        "\n"
        "def arm(t):\n"
        "    # repro: allow[RPL004] virtual clock, never compared to host time\n"
        "    deadline = time.time() + t\n"
        "    return deadline\n")
    report = lint_source(snippet, path="snippet.py")
    assert report.findings == []
    assert [f.line for f in report.suppressed] == [5]
    assert report.suppressed[0].suppressed_by == 4


def test_multi_code_suppression():
    snippet = (
        "import time, threading\n"
        "# repro: allow[RPL003, RPL004] fixture exercising both\n"
        "lock_until = threading.Lock() if time.time() - 5 > 0 else None\n")
    report = lint_source(snippet, path="snippet.py")
    assert report.findings == []
    assert {f.code for f in report.suppressed} >= {"RPL004"}


def test_dead_suppressions_are_reported_not_fatal():
    snippet = (
        "import time\n"
        "\n"
        "stamp = time.time()  # repro: allow[RPL004] nothing to allow here\n")
    report = lint_source(snippet, path="snippet.py")
    assert report.ok  # dead suppressions do not fail the lint by default
    [record] = report.dead_suppressions
    assert record.code == "RPL004" and record.line == 3 and not record.used
    assert "dead suppression" in report.render_text()


def test_ordered_annotation_is_rpl006_suppression():
    snippet = (
        "def total(parts):\n"
        "    acc = 0.0\n"
        "    # repro: ordered: keyed by partition index, inserted in order\n"
        "    for v in parts.values():\n"
        "        acc += v\n"
        "    return acc\n")
    report = lint_source(snippet, path="kernel.py",
                         virtual_path="src/repro/core/steps/kernel.py")
    assert report.findings == []
    [record] = report.suppressions
    assert record.code == "RPL006" and record.used
    assert "ordered" in record.directive


def test_directive_mentions_inside_doc_comments_are_not_directives():
    snippet = (
        "import time\n"
        "#: documentation quoting ``# repro: allow[RPL004]`` mid-comment\n"
        "deadline = time.time() + 1\n")
    report = lint_source(snippet, path="snippet.py")
    assert [f.code for f in report.findings] == ["RPL004"]
    assert report.suppressions == []


def test_suppression_of_other_code_does_not_silence():
    snippet = (
        "import time\n"
        "\n"
        "deadline = time.time() + 5  # repro: allow[RPL005] wrong code\n")
    report = lint_source(snippet, path="snippet.py")
    assert [f.code for f in report.findings] == ["RPL004"]
    [record] = report.dead_suppressions
    assert record.code == "RPL005"


# ---------------------------------------------------------------------------
# Rule table
# ---------------------------------------------------------------------------

def test_rule_codes_cover_the_documented_set():
    assert set(BUILTIN_RULES) <= set(rule_codes())
    for rule in all_rules():
        assert rule.code and rule.summary and rule.rationale
        assert rule.rationale.startswith("PR"), (
            f"{rule.code} rationale must cite the motivating PR")


def test_get_rule_unknown_code_lists_registered():
    with pytest.raises(ValueError, match="RPL001"):
        get_rule("RPL999")


def test_rule_table_holds_each_documented_rule_once():
    # The table is closed: six rules, one code each, nothing else.
    assert BUILTIN_RULES == ("RPL001", "RPL002", "RPL003", "RPL004",
                             "RPL005", "RPL006")
    assert rule_codes() == sorted(BUILTIN_RULES)
    assert all(issubclass(rule, Rule) for rule in RULES)
    assert [rule.code for rule in all_rules()] == rule_codes()


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def test_parse_error_becomes_unsuppressible_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = lint_paths([bad])
    [finding] = report.findings
    assert finding.code == PARSE_ERROR_CODE
    assert "does not parse" in finding.message
    assert not report.ok


def test_lint_paths_walks_directories_and_dedupes(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(
        "import time\ndeadline = time.time() + 1\n", encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text(
        "import time\ndeadline = time.time() + 1\n", encoding="utf-8")
    report = lint_paths([tmp_path, tmp_path / "pkg" / "mod.py"])
    assert report.files_checked == 1  # pycache skipped, explicit file deduped
    assert [f.code for f in report.findings] == ["RPL004"]


def test_report_json_schema():
    source, virtual_path = load_fixture("rpl005_bad.py")
    payload = lint_source(source, path="x.py",
                          virtual_path=virtual_path).to_json()
    assert payload["schema"] == "repro-fusion/lint-report/v1"
    assert payload["ok"] is False
    assert all({"code", "message", "path", "line", "col"} <= set(f)
               for f in payload["findings"])


def test_finding_is_frozen_value_object():
    finding = Finding(code="RPL004", message="m", path="p.py", line=3)
    with pytest.raises(AttributeError):
        finding.line = 4


# ---------------------------------------------------------------------------
# Repo-wide self-check: the codebase obeys its own invariants
# ---------------------------------------------------------------------------

def test_repo_lint_is_clean_in_process():
    report = lint_paths([REPO_ROOT / "src"])
    assert report.ok, "\n" + report.render_text()
    # The in-repo suppressions must all be *used* (no rot) and every
    # planted-fixture rule must still be registered to produce them.
    assert report.dead_suppressions == [], "\n" + report.render_text()
    assert report.files_checked > 50


def test_repo_lint_cli_exits_zero():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "lint", "src"],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout


def test_cli_lint_fails_on_findings(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\ndeadline = time.time() + 1\n",
                   encoding="utf-8")
    assert cli_main(["lint", str(bad)]) == 1
    good = tmp_path / "good.py"
    good.write_text("import time\ndeadline = time.monotonic() + 1\n",
                    encoding="utf-8")
    assert cli_main(["lint", str(good)]) == 0


def test_cli_fail_dead_suppressions_gate(tmp_path):
    stale = tmp_path / "stale.py"
    stale.write_text("x = 1  # repro: allow[RPL004] long fixed\n",
                     encoding="utf-8")
    assert cli_main(["lint", str(stale)]) == 0
    assert cli_main(["lint", str(stale), "--fail-dead-suppressions"]) == 1


def test_cli_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in BUILTIN_RULES:
        assert code in out
