"""Analysis: result aggregation + the determinism & safety analyzer.

Two halves share this package:

* result analysis — aggregate metrics, Pareto frontier, text rendering
  (:mod:`.metrics`, :mod:`.pareto`, :mod:`.reporting`);
* static analysis — the custom AST lint engine enforcing the
  determinism invariants (:mod:`.lint`, :mod:`.rules`,
  :mod:`.baseline`) and the generated-superblock sanitizer
  (:mod:`.sanitizer`), which checks the bytecode of every block the
  translator compiles before it runs.
"""

from .baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from .lint import LintReport, lint_tree
from .lintmodel import Finding, SourceFile
from .metrics import (PolicySummary, decision_series, harmonic_mean,
                      summarize_policy, trigger_rate)
from .pareto import dominates, pareto_frontier
from .reporting import (ascii_scatter, ascii_series, format_run_summary,
                        format_speedup, format_table)
from .rules import ALL_RULES, Rule
from .sanitizer import (SanitizerError, sanitize_block_source,
                        sanitizer_enabled)

__all__ = [
    "PolicySummary", "harmonic_mean", "summarize_policy",
    "decision_series", "trigger_rate",
    "dominates", "pareto_frontier",
    "ascii_scatter", "ascii_series", "format_run_summary",
    "format_speedup", "format_table",
    "ALL_RULES", "Rule", "Finding", "SourceFile",
    "Baseline", "BaselineEntry", "load_baseline", "write_baseline",
    "LintReport", "lint_tree",
    "SanitizerError", "sanitize_block_source", "sanitizer_enabled",
]
