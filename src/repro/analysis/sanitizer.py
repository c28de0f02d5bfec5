"""Generated-superblock sanitizer: AST verification before compile().

The translator (:mod:`repro.vm.translator`) and the fused codegens
(:mod:`repro.timing.codegen`) emit Python source for every guest basic
block and hand it to ``compile()``/``exec()`` — the one sanctioned JIT
in the tree (rule REPRO004).  The equivalence contract between the
fused fast path and its slow-path oracles only holds if that generated
code touches nothing but guest/machine/timing state; a codegen bug that
reached for an import, a file, or a foreign object would be invisible
to the differential tests unless they happened to execute the broken
block.

This module closes that gap at runtime: before a block source is
compiled, :func:`sanitize_block_source` parses it and walks the AST
against a whitelist —

* module shape: exactly one ``def _block(state, budget)``;
* no imports, ``global``/``nonlocal``, nested defs/lambdas/classes,
  comprehensions, ``with``, ``del``, ``await``/``yield``, or walrus;
* every name read resolves to a block local, the translator/codegen
  environment, or a tiny builtin set (``abs``/``float``/``int``/
  ``len``); no dunder attribute access anywhere;
* attribute and subscript writes only land on the machine/timing state
  roots the environment provides (``state``, ``CORE``, ``WS``, the
  predictor/cache objects, ...) or on block locals;
* calls only target environment helpers, the builtin whitelist, block
  locals (the event sink), or list mutators on locals;
* ``raise`` only constructs environment trap types or re-raises a
  local.

The check is one walk over the tree (see "the one-pass checker"
below) and returns the tree, so the translator compiles what was
vetted without parsing it again.  It runs once per *unique* block: the
translator's host code cache skips it on hits, and the persistent code
cache (:mod:`repro.exec.codecache`) skips blocks an earlier process
vetted.  It is on by default; ``REPRO_SANITIZE=0`` disables it (escape
hatch for perf experiments).  Accept/reject
counters are kept module-locally (:func:`stats`) and mirrored into the
:mod:`repro.obs` metrics registry as ``sanitizer.checked`` /
``sanitizer.rejected``.
"""

from __future__ import annotations

import ast
import os
from typing import (Callable, Collection, Dict, FrozenSet, List,
                    Optional, Set, Tuple, Union)

__all__ = ["SanitizerError", "sanitize_block_source",
           "sanitizer_enabled", "stats", "reset_stats",
           "mirror_check_metrics"]

#: builtins generated code may call (value producers only, no I/O)
ALLOWED_BUILTINS: FrozenSet[str] = frozenset(
    {"abs", "float", "int", "len"})

#: mutating list/deque methods allowed on block locals (LRU ways)
LIST_MUTATORS: FrozenSet[str] = frozenset(
    {"insert", "remove", "pop", "append", "clear"})

#: statement/expression node types generated code never contains;
#: their presence means the codegen (or an injected source) went rogue
FORBIDDEN_NODES = (
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.ClassDef,
    ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith, ast.With,
    ast.Delete, ast.Lambda, ast.Await, ast.Yield, ast.YieldFrom,
    ast.NamedExpr, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.Starred, ast.JoinedStr,
)


class SanitizerError(ValueError):
    """A generated block source violated the whitelist."""

    def __init__(self, reasons: List[str], source: str) -> None:
        self.reasons = list(reasons)
        self.source = source
        preview = "\n".join(source.splitlines()[:8])
        super().__init__(
            "generated superblock rejected by the sanitizer:\n  - "
            + "\n  - ".join(self.reasons)
            + f"\nsource head:\n{preview}")


_CHECKED = 0
_REJECTED = 0


def stats() -> dict:
    """Process-local accept/reject counters (tests, CI evidence)."""
    return {"checked": _CHECKED, "rejected": _REJECTED}


def reset_stats() -> None:
    global _CHECKED, _REJECTED
    _CHECKED = 0
    _REJECTED = 0


def sanitizer_enabled() -> bool:
    """On unless ``REPRO_SANITIZE=0`` (results never depend on it —
    the sanitizer only vets source, it cannot alter it)."""
    return os.environ.get("REPRO_SANITIZE", "1").strip().lower() \
        not in ("0", "false", "no", "off")


# ----------------------------------------------------------------------
# the one-pass checker
#
# One explicit-stack walk over the ``_block`` body, pre-order in field
# order (the order ``ast.NodeVisitor`` visits).  Each node type's check
# is looked up in ``_HANDLERS``; a handler appends findings and returns
# whether the walk descends into the node.  Block locals are collected
# during the same walk, so a check that needs the *full* set of locals
# (a local may be read before the line that assigns it) is tried
# against the locals seen so far and, if that fails, appended as a
# deferred ``(check, node)`` pair and tried again once the walk is
# done.  Findings keep walk order, so the reasons read top to bottom.

_Findings = List[Union[str, Tuple[Callable, ast.AST]]]


def _reason(node: ast.AST, why: str) -> str:
    return f"line {getattr(node, 'lineno', '?')}: {why}"


def _known(name: str, env: FrozenSet[str], local_names: Set[str]) -> bool:
    return (name in local_names or name in env
            or name in ALLOWED_BUILTINS)


# -- checks that need every block local: (node, env, locals) -> reason --

def _check_read(node: ast.Name, env: FrozenSet[str],
                local_names: Set[str]) -> Optional[str]:
    if _known(node.id, env, local_names):
        return None
    return _reason(node, f"read of unknown name {node.id!r}")


def _check_call(node: ast.Call, env: FrozenSet[str],
                local_names: Set[str]) -> Optional[str]:
    name = node.func.id
    if _known(name, env, local_names):
        return None
    return _reason(node, f"call to unknown name {name}()")


def _check_method_call(node: ast.Call, env: FrozenSet[str],
                       local_names: Set[str]) -> Optional[str]:
    func = node.func
    base = func.value
    if (isinstance(base, ast.Name) and base.id in local_names
            and func.attr in LIST_MUTATORS):
        return None
    return _reason(node, f"method call {ast.unparse(func)}() is not a "
                   "list mutator on a block local")


def _check_subscript_write(node: ast.Subscript, env: FrozenSet[str],
                           local_names: Set[str]) -> Optional[str]:
    base = node.value
    if isinstance(base, ast.Name) and (base.id in local_names
                                       or base.id in env):
        return None
    return _reason(node, f"subscript write to {ast.unparse(node)!r} "
                   "outside block locals / environment arrays")


def _check_reraise(node: ast.Raise, env: FrozenSet[str],
                   local_names: Set[str]) -> Optional[str]:
    if node.exc.id in local_names:
        return None
    return _reason(node, "raise of a non-environment exception")


def _now_or_later(check: Callable, node: ast.AST, env: FrozenSet[str],
                  local_names: Set[str], findings: _Findings) -> None:
    if check(node, env, local_names) is not None:
        findings.append((check, node))


# -- handlers: (node, env, locals, findings) -> descend? ----------------

def _on_name(node: ast.Name, env: FrozenSet[str], local_names: Set[str],
             findings: _Findings) -> bool:
    if type(node.ctx) is ast.Load:
        # the hottest check, so _check_read's test is inlined here
        if not _known(node.id, env, local_names):
            findings.append((_check_read, node))
    else:
        local_names.add(node.id)
    return False


def _on_attribute(node: ast.Attribute, env: FrozenSet[str],
                  local_names: Set[str], findings: _Findings) -> bool:
    if node.attr.startswith("__"):
        findings.append(_reason(node, f"dunder attribute {node.attr!r}"))
    if type(node.ctx) is not ast.Load:
        base = node.value
        if not (isinstance(base, ast.Name)
                and (base.id == "state" or base.id in env)):
            findings.append(_reason(
                node, f"attribute write to {ast.unparse(node)!r} "
                "outside machine/timing state roots"))
    return True


def _on_subscript(node: ast.Subscript, env: FrozenSet[str],
                  local_names: Set[str], findings: _Findings) -> bool:
    if type(node.ctx) is not ast.Load:
        _now_or_later(_check_subscript_write, node, env, local_names,
                      findings)
    return True


def _on_call(node: ast.Call, env: FrozenSet[str], local_names: Set[str],
             findings: _Findings) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        _now_or_later(_check_call, node, env, local_names, findings)
    elif isinstance(func, ast.Attribute):
        _now_or_later(_check_method_call, node, env, local_names,
                      findings)
    else:
        findings.append(_reason(node, "call through "
                                f"{type(func).__name__} expression"))
    return True


def _on_raise(node: ast.Raise, env: FrozenSet[str], local_names: Set[str],
              findings: _Findings) -> bool:
    exc = node.exc
    if isinstance(exc, ast.Name):                # re-raise a held fault
        _now_or_later(_check_reraise, node, env, local_names, findings)
    elif not (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
              and exc.func.id in env):           # guest trap types
        findings.append(_reason(node,
                                "raise of a non-environment exception"))
    return True


def _on_except_handler(node: ast.ExceptHandler, env: FrozenSet[str],
                       local_names: Set[str], findings: _Findings) -> bool:
    if node.name:
        local_names.add(node.name)
    kinds: list = []
    if isinstance(node.type, ast.Name):
        kinds = [node.type]
    elif isinstance(node.type, ast.Tuple):
        kinds = list(node.type.elts)
    for kind in kinds:
        if not (isinstance(kind, ast.Name) and kind.id in env):
            findings.append(_reason(node, "except clause over a "
                                    "non-environment exception type"))
    return True


def _on_nested_def(node: ast.FunctionDef, env: FrozenSet[str],
                   local_names: Set[str], findings: _Findings) -> bool:
    findings.append(_reason(node, "nested function definition"))
    return False  # its body is not block code; nothing below is walked


def _on_forbidden(node: ast.AST, env: FrozenSet[str],
                  local_names: Set[str], findings: _Findings) -> bool:
    findings.append(_reason(node, f"{type(node).__name__} is not allowed "
                            "in generated block code"))
    return True


_HANDLERS: Dict[type, Callable[..., bool]] = {
    ast.Name: _on_name,
    ast.Attribute: _on_attribute,
    ast.Subscript: _on_subscript,
    ast.Call: _on_call,
    ast.Raise: _on_raise,
    ast.ExceptHandler: _on_except_handler,
    ast.FunctionDef: _on_nested_def,
    **{kind: _on_forbidden for kind in FORBIDDEN_NODES},
}

#: fields never holding a node the checker looks at: expression
#: contexts and operator singletons
_SKIPPED_FIELDS = frozenset({"ctx", "op", "ops"})

#: per node type, its child fields in reverse order (so popping the
#: walk stack visits them in field order); the commonest types are
#: pre-seeded without their plain-string and constant fields
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    ast.Name: (), ast.Constant: (),
    ast.Attribute: ("value",), ast.keyword: ("value",),
}


def _child_fields(kind: type) -> Tuple[str, ...]:
    fields = tuple(reversed([name for name in getattr(kind, "_fields", ())
                             if name not in _SKIPPED_FIELDS]))
    _CHILD_FIELDS[kind] = fields
    return fields


def _check_body(function: ast.FunctionDef,
                env: FrozenSet[str]) -> List[str]:
    """Reasons ``function``'s body violates the whitelist (one walk)."""
    local_names: Set[str] = {arg.arg for arg in function.args.args}
    findings: _Findings = []
    handlers = _HANDLERS
    child_fields = _CHILD_FIELDS
    stack: list = list(reversed(function.body))
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        kind = type(node)
        handler = handlers.get(kind)
        if handler is not None and not handler(node, env, local_names,
                                               findings):
            continue
        fields = child_fields.get(kind)
        if fields is None:
            fields = _child_fields(kind)
        for name in fields:
            value = getattr(node, name)
            if type(value) is list:
                extend(reversed(value))
            elif isinstance(value, ast.AST):
                push(value)
    reasons: List[str] = []
    for item in findings:
        if isinstance(item, str):
            reasons.append(item)
        else:
            check, node = item
            reason = check(node, env, local_names)
            if reason:
                reasons.append(reason)
    return reasons


def sanitize_block_source(source: str,
                          env_names: Collection[str],
                          flavor: str = "fast") -> ast.Module:
    """Verify one generated block source; raise :class:`SanitizerError`.

    ``env_names`` is the set of globals the translator will ``exec``
    the compiled code against (semantic helpers, memory accessors,
    trap types, and — for fused flavours — the codegen environment).
    Anything outside that set, the block's own locals, and a tiny
    builtin whitelist is a violation.

    Returns the parsed module, so the caller can ``compile()`` the
    tree it vetted instead of parsing the source a second time.
    """
    global _CHECKED, _REJECTED
    _CHECKED += 1
    reasons: List[str] = []
    tree: Optional[ast.Module]
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        reasons.append(f"not parseable: {exc}")
        tree = None
    if tree is not None:
        body = tree.body
        if (len(body) != 1 or not isinstance(body[0], ast.FunctionDef)
                or body[0].name != "_block"):
            reasons.append("module must be exactly one "
                           "'def _block(state, budget)'")
        else:
            function = body[0]
            args = function.args
            if ([arg.arg for arg in args.args] != ["state", "budget"]
                    or args.posonlyargs or args.kwonlyargs
                    or args.vararg or args.kwarg or args.defaults
                    or function.decorator_list):
                reasons.append("_block signature must be exactly "
                               "(state, budget) with no decorators")
            reasons.extend(_check_body(function, frozenset(env_names)))
    if reasons:
        _REJECTED += 1
        mirror_check_metrics("sanitizer", rejected=True)
        raise SanitizerError(reasons, source)
    mirror_check_metrics("sanitizer", rejected=False)
    return tree


def mirror_check_metrics(prefix: str, rejected: bool) -> None:
    """Mirror one accept/reject decision into the obs registry as
    ``{prefix}.checked`` / ``{prefix}.rejected`` (no-op unless metrics
    are enabled — see :mod:`repro.obs.registry`).  Shared by this
    sanitizer and the symbolic verifier (:mod:`.symexec`) so both
    gates report under the same counter conventions."""
    from repro.obs import get_registry  # lazy: keep import cost off
    registry = get_registry()           # the non-instrumented path
    registry.counter(f"{prefix}.checked").inc()
    if rejected:
        registry.counter(f"{prefix}.rejected").inc()
