"""The escape-hatch audit (`lint --annotations`) and baseline
robustness: duplicate-entry merging and stale-entry warnings."""

import io
import json

from repro.analysis.baseline import (Baseline, BaselineEntry,
                                     load_baseline, merge_entries,
                                     write_baseline)
from repro.analysis.lint import (audit_annotations, default_root,
                                 lint_tree, main)

#: the shipped tree's escape-hatch population.  This pin is the audit:
#: adding a new `# repro:` suppression must be a conscious act that
#: updates this number alongside a justification in the comment.
EXPECTED_ANNOTATIONS = 22


# ----------------------------------------------------------------------
# --annotations audit


def test_audit_pins_current_escape_hatch_count():
    rows = audit_annotations(default_root())
    assert len(rows) == EXPECTED_ANNOTATIONS
    assert all(row["directive"] in ("volatile", "store-ok")
               for row in rows)


def test_every_shipped_annotation_is_justified():
    for row in audit_annotations(default_root()):
        assert row["justification"], (
            f"{row['path']}:{row['line']}: {row['directive']} "
            "escape hatch has no justification")


def test_cli_annotations_text_output():
    out = io.StringIO()
    code = main(["--annotations"], stdout=out)
    text = out.getvalue()
    assert code == 0
    assert f"{EXPECTED_ANNOTATIONS} escape hatch(es)" in text
    assert "0 unjustified" in text
    # one clickable file:line row per annotation, plus the summary
    assert text.count(":") >= EXPECTED_ANNOTATIONS


def test_cli_annotations_json_output():
    out = io.StringIO()
    code = main(["--annotations", "--json"], stdout=out)
    payload = json.loads(out.getvalue())
    assert code == 0
    assert payload["ok"] is True
    assert len(payload["annotations"]) == EXPECTED_ANNOTATIONS
    assert payload["unjustified"] == 0
    assert sum(payload["by_directive"].values()) == EXPECTED_ANNOTATIONS


def test_unjustified_annotation_fails_audit(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "mod.py").write_text(
        "import time\n"
        "start = time.perf_counter()  # repro: volatile\n")
    rows = audit_annotations(tree)
    assert rows == [{"path": "mod.py", "line": 2,
                     "directive": "volatile", "justification": ""}]
    out = io.StringIO()
    code = main(["--annotations", "--root", str(tree)], stdout=out)
    assert code == 1
    assert "MISSING JUSTIFICATION" in out.getvalue()


# ----------------------------------------------------------------------
# baseline robustness


def test_duplicate_baseline_entries_merge_counts(tmp_path):
    # two identical single-count entries must budget exactly like one
    # entry with count=2 (hand-merged baselines carry such duplicates)
    entry = BaselineEntry("REPRO001", "a.py", "time.time()", 1)
    merged = merge_entries([entry, entry])
    assert merged == [BaselineEntry("REPRO001", "a.py",
                                    "time.time()", 2)]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({
        "version": 1,
        "entries": [entry.to_dict(), entry.to_dict()]}))
    baseline = load_baseline(path)
    assert len(baseline.entries) == 1
    assert baseline.entries[0].count == 2


def test_fix_baseline_warns_about_dropped_stale_entries(tmp_path):
    findings = lint_tree(default_root()).findings
    baseline_path = tmp_path / "baseline.json"
    stale = BaselineEntry("REPRO001", "gone.py", "time.time()", 2)
    baseline = Baseline(list(write_baseline(findings,
                                            baseline_path).entries))
    baseline.entries.append(stale)
    baseline_path.write_text(json.dumps(baseline.to_dict()))

    out = io.StringIO()
    code = main(["--root", str(default_root()),
                 "--baseline", str(baseline_path), "--fix-baseline"],
                stdout=out)
    text = out.getvalue()
    assert code == 0
    assert "dropping stale baseline entry" in text
    assert "gone.py x2" in text
    # the regenerated file no longer carries the stale entry
    regenerated = load_baseline(baseline_path)
    assert all(entry.path != "gone.py" for entry in regenerated.entries)


def test_fix_baseline_quiet_when_nothing_stale(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    main(["--root", str(default_root()),
          "--baseline", str(baseline_path), "--fix-baseline"],
         stdout=io.StringIO())
    out = io.StringIO()
    code = main(["--root", str(default_root()),
                 "--baseline", str(baseline_path), "--fix-baseline"],
                stdout=out)
    assert code == 0
    assert "stale" not in out.getvalue()
