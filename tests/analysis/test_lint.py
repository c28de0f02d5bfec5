"""The determinism analyzer: golden findings, self-check, baseline."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import (Baseline, BaselineEntry,
                                     load_baseline, write_baseline)
from repro.analysis.lint import (default_baseline_path, default_root,
                                 lint_tree, main)
from repro.analysis.lintmodel import SourceFile

FIXTURES = Path(__file__).parent / "fixtures" / "badtree"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: every violation seeded in the fixture tree: (rule, path, line)
GOLDEN = {
    ("REPRO001", "vm/bad_nondet.py", 8),     # time.time()
    ("REPRO001", "vm/bad_nondet.py", 12),    # random.random()
    ("REPRO001", "vm/bad_nondet.py", 16),    # unseeded random.Random()
    ("REPRO001", "vm/bad_nondet.py", 29),    # set-literal iteration
    ("REPRO001", "vm/bad_nondet.py", 31),    # set(...) iteration
    ("REPRO001", "vm/bad_nondet.py", 39),    # time.strftime()
    ("REPRO002", "exec/bad_store.py", 8),    # open(..., "w")
    ("REPRO002", "exec/bad_store.py", 9),    # json.dump
    ("REPRO002", "exec/bad_store.py", 13),   # bare write_text
    ("REPRO002", "harness/bad_codecache.py", 6),  # codecache-v2 marker
    ("REPRO003", "sampling/bad_volatile.py", 7),   # canonical dict key
    ("REPRO003", "sampling/bad_volatile.py", 12),  # bare subscript store
    ("REPRO004", "mem/bad_dynamic.py", 5),   # compile()
    ("REPRO004", "mem/bad_dynamic.py", 6),   # exec()
    ("REPRO004", "mem/bad_dynamic.py", 10),  # eval()
    ("REPRO004", "mem/bad_dynamic.py", 15),  # marshal.loads()
}


# ----------------------------------------------------------------------
# golden fixtures


def test_fixture_tree_findings_match_golden():
    report = lint_tree(FIXTURES)
    got = {(f.rule, f.path, f.line) for f in report.findings}
    assert got == GOLDEN
    assert not report.ok


def test_findings_are_sorted_and_formatted():
    report = lint_tree(FIXTURES)
    keys = [f.sort_key for f in report.findings]
    assert keys == sorted(keys)
    first = report.findings[0]
    text = first.format("X/")
    assert text.startswith(f"X/{first.path}:{first.line}:")
    assert first.rule in text


def test_escape_hatches_suppress():
    """The fixtures carry blessed lines next to each violation kind;
    none of them may appear in the findings."""
    report = lint_tree(FIXTURES)
    lines = {(f.path, f.line) for f in report.findings}
    nondet = (FIXTURES / "vm" / "bad_nondet.py").read_text().splitlines()
    annotated = [i for i, line in enumerate(nondet, start=1)
                 if "repro: volatile" in line]
    assert annotated  # the fixture really has an escape hatch
    for line in annotated:
        assert ("vm/bad_nondet.py", line) not in lines
    store = (FIXTURES / "exec" / "bad_store.py").read_text().splitlines()
    blessed = [i for i, line in enumerate(store, start=1)
               if "repro: store-ok" in line]
    assert blessed
    for line in blessed:  # directive covers its own and the next line
        assert ("exec/bad_store.py", line) not in lines
        assert ("exec/bad_store.py", line + 1) not in lines


def test_directive_parsing():
    source = SourceFile(
        Path("x.py"), "vm/x.py",
        "import time\n"
        "a = time.time()  # repro: volatile reason here\n"
        "b = 1\n")
    assert source.directives[2] == ("volatile", "reason here")
    assert source.suppressed(2, "volatile")
    assert source.suppressed(3, "volatile")  # line below the comment
    assert not source.suppressed(2, "store-ok")  # wrong directive
    assert not source.suppressed(1, "volatile")


# ----------------------------------------------------------------------
# shipped tree + committed baseline


def test_shipped_tree_is_clean():
    root = default_root()
    baseline = load_baseline(default_baseline_path(root))
    report = lint_tree(root, baseline)
    assert report.ok, "\n".join(
        f.format() for f in report.new)


def test_committed_baseline_parses_and_matches():
    """Guard: the committed baseline file stays loadable and carries
    no stale entries (the tree didn't get cleaner than it records)."""
    path = REPO_ROOT / "lint-baseline.json"
    assert path.exists()
    raw = json.loads(path.read_text())
    assert raw.get("version") == 1
    baseline = load_baseline(path)
    report = lint_tree(default_root(), baseline)
    assert report.ok
    assert not report.stale, [entry.to_dict() for entry in report.stale]


# ----------------------------------------------------------------------
# baseline mechanics


def test_baseline_absorbs_and_reports_stale(tmp_path):
    findings = lint_tree(FIXTURES).findings
    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path)
    baseline = load_baseline(baseline_path)
    new, stale = baseline.match(findings)
    assert not new and not stale
    # drop one finding -> its entry goes stale; add nothing -> no new
    new, stale = baseline.match(findings[1:])
    assert not new
    assert sum(entry.count for entry in stale) == 1


def test_baseline_counts_duplicate_lines():
    finding = lint_tree(FIXTURES).findings[0]
    entry = BaselineEntry(finding.rule, finding.path, finding.snippet,
                          count=2)
    baseline = Baseline([entry])
    new, stale = baseline.match([finding, finding, finding])
    assert len(new) == 1  # third copy exceeds the budget
    assert not stale


def test_missing_baseline_is_empty_and_malformed_raises(tmp_path):
    assert load_baseline(tmp_path / "absent.json").entries == []
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    with pytest.raises(ValueError):
        load_baseline(bad)


# ----------------------------------------------------------------------
# CLI


def test_cli_exit_codes_and_output(tmp_path):
    out = io.StringIO()
    code = main(["--root", str(FIXTURES), "--no-baseline"], stdout=out)
    assert code == 1
    text = out.getvalue()
    assert "REPRO001" in text and "REPRO004" in text
    assert "bad_nondet.py:8:" in text
    assert "lint FAILED" in text

    out = io.StringIO()
    code = main(["--root", str(default_root())], stdout=out)
    assert code == 0
    assert "lint OK" in out.getvalue()


def test_cli_fix_baseline_roundtrip(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    code = main(["--root", str(FIXTURES),
                 "--baseline", str(baseline_path), "--fix-baseline"],
                stdout=io.StringIO())
    assert code == 0
    assert baseline_path.exists()
    # with the regenerated baseline the same tree now passes
    out = io.StringIO()
    code = main(["--root", str(FIXTURES),
                 "--baseline", str(baseline_path)], stdout=out)
    assert code == 0
    assert f"{len(GOLDEN)} baselined" in out.getvalue()


def test_cli_json_report(tmp_path):
    out = io.StringIO()
    report_path = tmp_path / "findings.json"
    code = main(["--root", str(FIXTURES), "--no-baseline", "--json",
                 "--out", str(report_path)], stdout=out)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["ok"] is False
    assert len(payload["new"]) == len(GOLDEN)
    assert json.loads(report_path.read_text()) == payload


def test_cli_malformed_baseline_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["--root", str(FIXTURES), "--baseline", str(bad)],
                stdout=io.StringIO())
    assert code == 2


def test_telemetry_modules_are_covered_by_rules():
    """Coverage self-check for the observability modules: the
    telemetry/profiler/history files are opted into REPRO001/REPRO003
    by name, the telemetry writer falls under REPRO002 via its store
    marker, and each opted-in file genuinely contains wall-clock reads
    that only pass because they carry `# repro: volatile` escapes."""
    from repro.analysis.rules import ALL_RULES, TELEMETRY_FILES

    src_root = default_root()
    by_id = {rule.id: rule for rule in ALL_RULES}
    assert set(TELEMETRY_FILES) == {"obs/telemetry.py",
                                    "obs/profiler.py",
                                    "harness/history.py"}
    for rel in TELEMETRY_FILES:
        path = src_root / rel
        assert path.exists(), f"TELEMETRY_FILES names a ghost: {rel}"
        source = SourceFile.load(path, rel)
        assert by_id["REPRO001"].applies_to(source), rel
        assert by_id["REPRO003"].applies_to(source), rel
        # the escapes are load-bearing: scrub the directives and the
        # nondeterminism rule must fire on the naked host-state reads
        scrubbed = SourceFile(path, rel,
                              path.read_text().replace(
                                  "repro: volatile", "scrubbed"))
        assert by_id["REPRO001"].check(scrubbed), (
            f"{rel}: no annotated nondeterminism sources — either the "
            "volatile reads moved or the opt-in is vacuous")

    telemetry_source = SourceFile.load(src_root / "obs/telemetry.py",
                                       "obs/telemetry.py")
    assert by_id["REPRO002"].applies_to(telemetry_source)


def test_code_cache_is_the_one_sanctioned_unmarshaller():
    """REPRO004 flags ``marshal.loads`` everywhere except the code
    cache, which is sanctioned by name and really unmarshals code; its
    directory name marks a module as store code for REPRO002."""
    from repro.analysis.rules import (ALL_RULES, SANCTIONED_DYNAMIC_CODE,
                                      StoreDisciplineRule)

    by_id = {rule.id: rule for rule in ALL_RULES}
    rel = "exec/codecache.py"
    assert rel in SANCTIONED_DYNAMIC_CODE
    shipped = SourceFile.load(default_root() / rel, rel)
    assert not by_id["REPRO004"].applies_to(shipped)
    # the sanction is load-bearing: under any other name the same
    # source is a finding
    moved = SourceFile(shipped.path, "exec/elsewhere.py", shipped.text)
    assert by_id["REPRO004"].applies_to(moved)
    assert [f.rule for f in by_id["REPRO004"].check(moved)] == ["REPRO004"]
    assert "codecache-v2" in StoreDisciplineRule.STORE_MARKERS
    outside = SourceFile(Path("x.py"), "harness/x.py",
                         'DIR = "codecache-v2"\n')
    assert by_id["REPRO002"].applies_to(outside)
