"""The invariant catalog: rule visitors for the determinism analyzer.

Each rule statically enforces one of the invariants the reproduction's
equivalence contracts rest on (fused fast path vs slow-path oracles,
warm-vs-cold checkpoint restore, serial-vs-process-pool backend parity).
The runtime differential tests sample a handful of configurations; the
rules check every line of the tree on every CI run.

* **REPRO001** — no nondeterminism sources inside the deterministic
  core (``vm/``, ``timing/``, ``mem/``, ``kernel/``, ``sampling/``,
  ``isa/``) or the telemetry modules (``TELEMETRY_FILES``): wall-clock
  reads, unseeded RNGs, ``os.urandom``, UUIDs, and iteration over
  unordered ``set``/``frozenset`` values.  Escape hatch:
  ``# repro: volatile`` + justification, for values that feed
  telemetry (``extra[...]``, obs metrics) and never canonical results.
  The telemetry modules are *made of* wall-clock reads — opting them
  in forces every one of those reads to carry a visible justification
  instead of silently growing new ones.
* **REPRO002** — every result-store / checkpoint-store write must
  follow the tmp-then-rename + ``FileLock`` discipline: bare
  ``open(..., "w")``, ``json.dump``, and ``write_text``/``write_bytes``
  on non-temp paths are flagged in store modules.  Escape hatch:
  ``# repro: store-ok`` (e.g. idempotent one-shot markers).
* **REPRO003** — volatile (host-dependent) fields may only live under
  ``extra``/``meta`` containers, never be written into canonical or
  fingerprinted dicts.
* **REPRO004** — ``compile``/``exec``/``eval`` (and ``marshal.loads``,
  which materializes code objects) only in the sanctioned
  codegen/translator/code-cache modules; everywhere else dynamic code
  execution is a determinism and safety hazard.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Tuple

from .lintmodel import Finding, SourceFile, dotted_name

__all__ = ["Rule", "ALL_RULES", "CORE_DIRS", "TELEMETRY_FILES",
           "NondeterminismRule", "StoreDisciplineRule",
           "VolatileFieldRule", "DynamicCodeRule"]

#: package-relative prefixes of the deterministic core
CORE_DIRS: Tuple[str, ...] = ("vm/", "timing/", "mem/", "kernel/",
                              "sampling/", "isa/")

#: observability modules opted into REPRO001/REPRO003 by name: they
#: exist to hold volatile data, so every wall-clock read in them must
#: carry an explicit `# repro: volatile` justification
TELEMETRY_FILES: Tuple[str, ...] = ("obs/telemetry.py",
                                    "obs/profiler.py",
                                    "harness/history.py")

#: modules allowed to call compile()/exec(): the DBT is the one
#: sanctioned JIT; every code object it compiles is vetted by the
#: superblock sanitizer (repro.analysis.sanitizer, a bytecode check)
#: before it runs.  The megablock tier's chain compiler (exit-stub
#: emission) lives in vm/chain.py and compiles through the translator,
#: so the same sanitizer vets its chained-dispatch calls.  The
#: persistent code cache unmarshals code objects the sanitizer vetted
#: in an earlier process, checking each entry's digest first.
SANCTIONED_DYNAMIC_CODE: FrozenSet[str] = frozenset({
    "vm/translator.py",
    "vm/chain.py",
    "exec/codecache.py",
})


class Rule:
    """One invariant check over a parsed source file."""

    id = "REPRO000"
    title = "abstract rule"

    def applies_to(self, source: SourceFile) -> bool:
        raise NotImplementedError

    def check(self, source: SourceFile) -> List[Finding]:
        raise NotImplementedError


def _in_core(source: SourceFile) -> bool:
    return source.rel.startswith(CORE_DIRS)


# ----------------------------------------------------------------------
# REPRO001


class NondeterminismRule(Rule):
    """No nondeterminism sources inside the deterministic core."""

    id = "REPRO001"
    title = "nondeterminism source in deterministic core"
    directive = "volatile"

    #: exact dotted calls that read host state (the ``time`` formatters
    #: read the clock unless they are given a time)
    BANNED_CALLS: FrozenSet[str] = frozenset({
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.strftime", "time.localtime", "time.gmtime", "time.ctime",
        "os.urandom", "os.getrandom",
        "uuid.uuid1", "uuid.uuid4",
        "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.date.today",
    })

    #: RNG constructors that are fine *when explicitly seeded*
    SEEDED_OK: FrozenSet[str] = frozenset({
        "random.Random", "np.random.default_rng",
        "numpy.random.default_rng", "random.default_rng",
    })

    def applies_to(self, source: SourceFile) -> bool:
        return _in_core(source) or source.rel in TELEMETRY_FILES

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                self._check_call(source, node, findings)
            elif isinstance(node, (ast.For, ast.comprehension)):
                self._check_iteration(source, node, findings)
        return findings

    def _flag(self, source: SourceFile, node: ast.AST, message: str,
              findings: List[Finding]) -> None:
        line = getattr(node, "lineno", 0)
        if not source.suppressed(line, self.directive):
            findings.append(source.finding(self.id, node, message))

    def _check_call(self, source: SourceFile, node: ast.Call,
                    findings: List[Finding]) -> None:
        name = dotted_name(node.func)
        if name is None:
            return
        if name in self.BANNED_CALLS:
            self._flag(source, node,
                       f"call to {name}() reads host state; results "
                       "must not depend on it (annotate telemetry "
                       "with '# repro: volatile <why>')", findings)
            return
        if name in self.SEEDED_OK:
            if not (node.args or node.keywords):
                self._flag(source, node,
                           f"{name}() without an explicit seed is "
                           "nondeterministic", findings)
            return
        root = name.split(".", 1)[0]
        if root == "random" or name.startswith(("np.random.",
                                                "numpy.random.")):
            # any other random-module function draws from global,
            # unseeded (or process-shared) RNG state
            self._flag(source, node,
                       f"{name}() draws from shared RNG state; use an "
                       "explicitly seeded generator", findings)

    def _check_iteration(self, source: SourceFile, node: ast.AST,
                         findings: List[Finding]) -> None:
        iterable = node.iter
        unordered = isinstance(iterable, ast.Set)
        if isinstance(iterable, ast.Call):
            callee = dotted_name(iterable.func)
            unordered = callee in ("set", "frozenset")
        if unordered:
            self._flag(source, node,
                       "iteration over an unordered set; wrap in "
                       "sorted() so downstream state is "
                       "order-independent", findings)


# ----------------------------------------------------------------------
# REPRO002


class StoreDisciplineRule(Rule):
    """Store writes must be tmp-then-rename under the file lock."""

    id = "REPRO002"
    title = "store write outside the tmp-then-rename discipline"
    directive = "store-ok"

    #: substrings marking a module as store code
    STORE_MARKERS: Tuple[str, ...] = ("results-v2", "checkpoints-v1",
                                      "telemetry-v1", "codecache-v1")

    def applies_to(self, source: SourceFile) -> bool:
        if source.rel.startswith("exec/"):
            return True
        return any(marker in source.text
                   for marker in self.STORE_MARKERS)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name == "open":
                self._check_open(source, node, findings)
            elif name == "json.dump":
                self._flag(source, node,
                           "json.dump() writes a store file in place; "
                           "serialise with json.dumps and go through "
                           "the atomic tmp-then-rename writer", findings)
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("write_text", "write_bytes")):
                self._check_path_write(source, node, findings)
        return findings

    def _flag(self, source: SourceFile, node: ast.AST, message: str,
              findings: List[Finding]) -> None:
        line = getattr(node, "lineno", 0)
        if not source.suppressed(line, self.directive):
            findings.append(source.finding(self.id, node, message))

    @staticmethod
    def _is_temp_target(node: ast.AST) -> bool:
        """A write target is blessed when it is visibly a temp file."""
        name = dotted_name(node)
        return name is not None and "tmp" in name.lower()

    def _check_open(self, source: SourceFile, node: ast.Call,
                    findings: List[Finding]) -> None:
        mode = ""
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            mode = str(node.args[1].value)
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value,
                                                    ast.Constant):
                mode = str(keyword.value.value)
        if not any(flag in mode for flag in ("w", "a", "x", "+")):
            return  # read-only open
        if node.args and self._is_temp_target(node.args[0]):
            return
        self._flag(source, node,
                   f"open(..., {mode!r}) writes in place; store files "
                   "must land via a temp file + os.replace under the "
                   "FileLock", findings)

    def _check_path_write(self, source: SourceFile, node: ast.Call,
                          findings: List[Finding]) -> None:
        target = node.func.value  # type: ignore[attr-defined]
        if self._is_temp_target(target):
            return
        attr = node.func.attr  # type: ignore[attr-defined]
        self._flag(source, node,
                   f".{attr}() writes in place; store files must land "
                   "via a temp file + os.replace under the FileLock",
                   findings)


# ----------------------------------------------------------------------
# REPRO003


class VolatileFieldRule(Rule):
    """Volatile fields live under ``extra``/``meta``, nowhere else."""

    id = "REPRO003"
    title = "volatile field outside extra/meta containers"
    directive = "volatile"

    VOLATILE_KEYS: FrozenSet[str] = frozenset({
        "wall_seconds", "wall_seconds_by_mode", "checkpoints",
        "wall", "host_seconds", "elapsed_seconds", "hostname", "pid",
        "timestamp",
    })

    #: substrings that bless a destination container for volatile data
    BLESSED: Tuple[str, ...] = ("extra", "meta", "telemetry", "volatile",
                                "breakdown", "stats")

    def applies_to(self, source: SourceFile) -> bool:
        return (_in_core(source) or source.rel.startswith("exec/")
                or source.rel in TELEMETRY_FILES)

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    self._check_store(source, target, findings)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                lowered = node.name.lower()
                if "canonical" in lowered or "fingerprint" in lowered:
                    self._check_canonical(source, node, findings)
        return findings

    def _flag(self, source: SourceFile, node: ast.AST, message: str,
              findings: List[Finding]) -> None:
        line = getattr(node, "lineno", 0)
        if not source.suppressed(line, self.directive):
            findings.append(source.finding(self.id, node, message))

    def _blessed_base(self, node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        terminal = name.rsplit(".", 1)[-1].lower()
        return any(marker in terminal for marker in self.BLESSED)

    def _check_store(self, source: SourceFile, target: ast.AST,
                     findings: List[Finding]) -> None:
        if not isinstance(target, ast.Subscript):
            return
        key = target.slice
        if not (isinstance(key, ast.Constant)
                and key.value in self.VOLATILE_KEYS):
            return
        if self._blessed_base(target.value):
            return
        self._flag(source, target,
                   f"volatile field {key.value!r} written outside an "
                   "extra/meta container; canonical dicts must stay "
                   "host-independent", findings)

    def _check_canonical(self, source: SourceFile,
                         function: ast.AST,
                         findings: List[Finding]) -> None:
        for node in ast.walk(function):
            if not isinstance(node, ast.Dict):
                continue
            for key in node.keys:
                if (isinstance(key, ast.Constant)
                        and key.value in self.VOLATILE_KEYS):
                    self._flag(source, key,
                               f"volatile field {key.value!r} in a "
                               "canonical/fingerprint dict; two runs "
                               "of the same job must agree on it "
                               "bit-for-bit", findings)


# ----------------------------------------------------------------------
# REPRO004


class DynamicCodeRule(Rule):
    """compile()/exec()/eval() only in the sanctioned translator."""

    id = "REPRO004"
    title = "dynamic code execution outside sanctioned modules"

    #: callee names as written; the dotted ones turn bytes into code
    #: objects
    BANNED = frozenset({"compile", "exec", "eval", "__import__",
                        "marshal.load", "marshal.loads"})

    def applies_to(self, source: SourceFile) -> bool:
        return source.rel not in SANCTIONED_DYNAMIC_CODE

    def check(self, source: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in self.BANNED:
                findings.append(source.finding(
                    self.id, node,
                    f"{name}() outside the sanctioned "
                    "codegen/translator modules (see "
                    "SANCTIONED_DYNAMIC_CODE)"))
        return findings


ALL_RULES: Tuple[Rule, ...] = (NondeterminismRule(),
                               StoreDisciplineRule(),
                               VolatileFieldRule(),
                               DynamicCodeRule())
