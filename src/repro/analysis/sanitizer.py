"""Generated-superblock sanitizer: bytecode verification before exec().

The translator (:mod:`repro.vm.translator`) and the fused codegens
(:mod:`repro.timing.codegen`) emit Python source for every guest basic
block and hand it to ``compile()``/``exec()`` — the one sanctioned JIT
in the tree (rule REPRO004).  The equivalence contract between the
fused fast path and its slow-path oracles only holds if that generated
code touches nothing but guest/machine/timing state; a codegen bug that
reached for an import, a file, or a foreign object would be invisible
to the differential tests unless they happened to execute the broken
block.

This module closes that gap at runtime.  The translator compiles each
new block source once and, before the code object is ever executed,
:func:`sanitize_block_source` checks the *compiled code* against a
whitelist:

* module shape: exactly one ``def _block(state, budget)`` — no
  defaults, decorators or annotations, no ``*args``/``**kwargs`` or
  keyword-only arguments, no generator/coroutine flags, no free or
  cell variables and no nested code constants (nested defs, lambdas,
  comprehensions and generator expressions all compile to one);
* opcodes: the function's opcodes are checked against a per-version
  whitelist with one C-speed ``bytes.translate``, which rejects
  imports, ``STORE_GLOBAL``/``DELETE_GLOBAL``, ``with``, f-strings,
  star-unpacking, ``yield``, ``for`` loops and inlined comprehensions;
* names: no dunder in ``co_names`` or ``co_varnames``, and every
  ``LOAD_GLOBAL`` resolves to the translator/codegen environment or a
  tiny builtin set (``abs``/``float``/``int``/``len``);
* operands: one linear pass with an abstract stack that records where
  each value came from (see "the operand pass" below) checks that
  attribute writes only land on ``state`` or an environment root,
  subscript writes only on block locals or environment objects, calls
  only target environment helpers, the builtin whitelist, block locals
  or list mutators on locals, ``raise`` only raises an environment
  trap constructor or a local, ``except`` only names environment
  types, ``DELETE_FAST`` only appears in the compiler's cleanup of an
  ``except ... as`` name, and no assignment expression is used.

Every reason carries the line number the code object maps its
instruction to (``co_lines()``).  The check runs once per *unique*
block: the translator's host code cache skips it on hits, and the
persistent code cache (:mod:`repro.exec.codecache`) skips blocks an
earlier process vetted.  It is on by default; ``REPRO_SANITIZE=0``
disables it (escape hatch for perf experiments).  Accept/reject
counters are kept module-locally (:func:`stats`) and mirrored into the
:mod:`repro.obs` metrics registry as ``sanitizer.checked`` /
``sanitizer.rejected``.
"""

from __future__ import annotations

import os
import sys
from opcode import opmap
from types import CodeType
from typing import Collection, Dict, FrozenSet, List, Optional, Tuple

__all__ = ["SanitizerError", "sanitize_block_source",
           "sanitizer_enabled", "stats", "reset_stats",
           "mirror_check_metrics"]

#: builtins generated code may call (value producers only, no I/O)
ALLOWED_BUILTINS: FrozenSet[str] = frozenset(
    {"abs", "float", "int", "len"})

#: mutating list/deque methods allowed on block locals (LRU ways)
LIST_MUTATORS: FrozenSet[str] = frozenset(
    {"insert", "remove", "pop", "append", "clear"})


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
    the sanitizer only vets code, it cannot alter it)."""
    return os.environ.get("REPRO_SANITIZE", "1").strip().lower() \
        not in ("0", "false", "no", "off")


# ----------------------------------------------------------------------
# the opcode tables
#
# Each allowed opcode maps to its kind in the operand pass: a
# ``(pops, pushes)`` pair for opcodes whose results carry no provenance
# the checks care about, or the name of a case of the pass.  Opcode
# numbers and stack layouts change between CPython versions, so there
# is one table per supported version; any other version rejects every
# block.

_COMMON: Dict[str, object] = {
    "CACHE": (0, 0), "NOP": (0, 0), "RESUME": (0, 0),
    "EXTENDED_ARG": (0, 0),
    "POP_TOP": (1, 0), "PUSH_NULL": "push_null_before",
    "LOAD_FAST": "load_fast", "LOAD_CONST": "load_const",
    "STORE_FAST": "store_fast", "DELETE_FAST": "delete_fast",
    "LOAD_GLOBAL": "load_global", "LOAD_ATTR": "load_attr",
    "STORE_ATTR": "store_attr", "STORE_SUBSCR": "store_subscr",
    "BINARY_OP": (2, 1), "BINARY_SUBSCR": (2, 1), "COMPARE_OP": (2, 1),
    "CONTAINS_OP": (2, 1), "IS_OP": (2, 1), "UNARY_NEGATIVE": (1, 1),
    "UNARY_INVERT": (1, 1), "UNARY_NOT": (1, 1),
    "COPY": "copy", "SWAP": "swap", "UNPACK_SEQUENCE": "unpack",
    "BUILD_TUPLE": "build_tuple", "BUILD_LIST": "build",
    "BUILD_SET": "build", "BUILD_SLICE": "build",
    "BUILD_MAP": "build_map", "BUILD_CONST_KEY_MAP": "build_const_map",
    "LIST_EXTEND": "extend", "SET_UPDATE": "extend",
    "CALL": "call", "RAISE_VARARGS": "raise",
    "RETURN_VALUE": "stop", "RERAISE": "stop",
    "PUSH_EXC_INFO": "push_exc_info", "POP_EXCEPT": (1, 0),
    "CHECK_EXC_MATCH": "check_exc_match",
    "JUMP_FORWARD": "jump", "JUMP_BACKWARD": "jump_back",
    "JUMP_BACKWARD_NO_INTERRUPT": "jump_back",
}

_OPCODE_TABLES: Dict[Tuple[int, int], Dict[str, object]] = {
    (3, 11): {
        **_COMMON,
        "LOAD_ATTR": "load_attr_311", "LOAD_METHOD": "load_method",
        "PRECALL": (0, 0), "KW_NAMES": (0, 0),
        "POP_JUMP_FORWARD_IF_FALSE": "pop_jump",
        "POP_JUMP_FORWARD_IF_TRUE": "pop_jump",
        "POP_JUMP_FORWARD_IF_NONE": "pop_jump",
        "POP_JUMP_FORWARD_IF_NOT_NONE": "pop_jump",
        "POP_JUMP_BACKWARD_IF_FALSE": "pop_jump_back",
        "POP_JUMP_BACKWARD_IF_TRUE": "pop_jump_back",
        "POP_JUMP_BACKWARD_IF_NONE": "pop_jump_back",
        "POP_JUMP_BACKWARD_IF_NOT_NONE": "pop_jump_back",
        "JUMP_IF_FALSE_OR_POP": "jump_or_pop",
        "JUMP_IF_TRUE_OR_POP": "jump_or_pop",
    },
    (3, 12): {
        **_COMMON,
        "LOAD_FAST_CHECK": "load_fast", "KW_NAMES": (0, 0),
        "RETURN_CONST": "stop",
        "BINARY_SLICE": (3, 1), "STORE_SLICE": "store_slice",
        "POP_JUMP_IF_FALSE": "pop_jump", "POP_JUMP_IF_TRUE": "pop_jump",
        "POP_JUMP_IF_NONE": "pop_jump",
        "POP_JUMP_IF_NOT_NONE": "pop_jump",
    },
    (3, 13): {
        **_COMMON,
        "LOAD_FAST_CHECK": "load_fast",
        "LOAD_FAST_LOAD_FAST": "load_fast_load_fast",
        "STORE_FAST_LOAD_FAST": "store_fast_load_fast",
        "STORE_FAST_STORE_FAST": "store_fast_store_fast",
        "CALL_KW": "call_kw", "TO_BOOL": (1, 1),
        "PUSH_NULL": "push_null",
        "RETURN_CONST": "stop",
        "BINARY_SLICE": (3, 1), "STORE_SLICE": "store_slice",
        "POP_JUMP_IF_FALSE": "pop_jump", "POP_JUMP_IF_TRUE": "pop_jump",
        "POP_JUMP_IF_NONE": "pop_jump",
        "POP_JUMP_IF_NOT_NONE": "pop_jump",
    },
}

#: opcodes the ``<module>`` code of one plain ``def _block`` consists of
_MODULE_OPCODES = ("CACHE", "NOP", "RESUME", "LOAD_CONST", "MAKE_FUNCTION",
                   "STORE_NAME", "RETURN_VALUE", "RETURN_CONST")

#: the construct a forbidden opcode compiles from, for its reason
_CONSTRUCTS: Dict[str, str] = {
    **dict.fromkeys(("IMPORT_NAME", "IMPORT_FROM", "IMPORT_STAR"),
                    "Import"),
    **dict.fromkeys(("STORE_GLOBAL", "DELETE_GLOBAL"), "global write"),
    **dict.fromkeys(("BEFORE_WITH", "BEFORE_ASYNC_WITH"), "With"),
    **dict.fromkeys(("FORMAT_VALUE", "BUILD_STRING", "FORMAT_SIMPLE",
                     "FORMAT_WITH_SPEC", "CONVERT_VALUE"),
                    "JoinedStr (f-string)"),
    **dict.fromkeys(("UNPACK_EX", "CALL_FUNCTION_EX", "DICT_MERGE",
                     "DICT_UPDATE", "LIST_TO_TUPLE"), "Starred"),
    **dict.fromkeys(("YIELD_VALUE", "GET_YIELD_FROM_ITER", "SEND",
                     "RETURN_GENERATOR"), "Yield"),
    **dict.fromkeys(("DELETE_ATTR", "DELETE_SUBSCR", "DELETE_NAME",
                     "DELETE_DEREF"), "Delete"),
    **dict.fromkeys(("LOAD_FAST_AND_CLEAR", "LIST_APPEND", "SET_ADD",
                     "MAP_ADD"), "comprehension"),
    **dict.fromkeys(("GET_ITER", "FOR_ITER", "END_FOR"), "For loop"),
    **dict.fromkeys(("LOAD_DEREF", "STORE_DEREF", "LOAD_CLOSURE",
                     "MAKE_CELL", "COPY_FREE_VARS"), "closure variable"),
    "MAKE_FUNCTION": "nested function definition",
    "LOAD_BUILD_CLASS": "ClassDef",
    "LOAD_ASSERTION_ERROR": "Assert",
}

#: the construct a nested code object compiles from, by its ``co_name``
_NESTED: Dict[str, str] = {
    "<lambda>": "Lambda", "<listcomp>": "ListComp",
    "<setcomp>": "SetComp", "<dictcomp>": "DictComp",
    "<genexpr>": "GeneratorExp",
}

#: co_flags bits a plain function never sets (see :mod:`inspect`):
#: VARARGS, VARKEYWORDS, GENERATOR, COROUTINE, ITERABLE_COROUTINE and
#: ASYNC_GENERATOR
_FORBIDDEN_FLAGS = 0x04 | 0x08 | 0x20 | 0x80 | 0x100 | 0x200
_GENERATOR_FLAGS = 0x20 | 0x200

_VERSION = sys.version_info[:2]


def _build_tables() -> Tuple[Optional[tuple], bytes, bytes]:
    """(per-opcode kinds, allowed function opcodes, allowed module
    opcodes) for the running interpreter; kinds is None when this
    version has no table."""
    table = _OPCODE_TABLES.get(_VERSION)
    if table is None:
        return None, b"", b""
    kinds: List[object] = [None] * 256
    for name, kind in table.items():
        kinds[opmap[name]] = kind
    allowed = bytes(op for op in range(256) if kinds[op] is not None)
    module = bytes(sorted(opmap[name] for name in _MODULE_OPCODES
                          if name in opmap))
    return tuple(kinds), allowed, module


_KINDS, _ALLOWED, _MODULE_ALLOWED = _build_tables()
_OPNAME = {number: name for name, number in opmap.items()}
_EXTENDED_ARG = opmap["EXTENDED_ARG"]
_COPY = opmap.get("COPY")  # absent before 3.11, which never runs the pass
_COPY_OR_PREFIX = (_COPY, _EXTENDED_ARG)
_LOAD_CONST = opmap["LOAD_CONST"]
_STORE_FAST = opmap["STORE_FAST"]
_LOAD_FAST = {opmap[name] for name in ("LOAD_FAST", "LOAD_FAST_CHECK",
                                       "LOAD_FAST_LOAD_FAST")
              if name in opmap}
_MAKE_FUNCTION = opmap["MAKE_FUNCTION"]


# ----------------------------------------------------------------------
# the operand pass
#
# One linear pass over the instructions of ``_block`` with an abstract
# stack whose entries are provenance tags: where a value came from.
# Tags are tuples whose first item is the kind ("local", "env", "attr",
# "method", "call", ...).  Forward jumps record the stack at their
# target; an instruction reached both by fall-through and by a jump
# sees the two stacks merged, and a merged value is never trusted
# (the AST equivalent is a conditional expression, which no check
# accepts as a write target, callee or raised exception).
# An instruction reached neither way is an exception handler entry:
# its stack starts empty, and popping an empty stack yields nothing
# the checks trust, so handler code is checked conservatively without
# reading the exception table.  Loop heads are statement boundaries,
# so a back edge must not carry a trusted value.

_OTHER = ("other",)
_NULL = ("null",)        # the NULL half of a call's callable pair
_NULL_LOCAL = ("null-local",)  # PUSH_NULL right before a local callee
_NULL_EXPR = ("null-expr",)  # PUSH_NULL before any other callee
_SELF = ("self",)        # the self half of a method load
_CONST = ("const",)
_EXC = ("exc",)          # the exception an ``except`` clause matched
_ENV_TUPLE = ("env-tuple",)

#: tag kinds a check may accept; everything else is never trusted
_TRUSTED = frozenset({"local", "env", "builtin", "callee", "method",
                      "call", "exc", "env-tuple"})


def _describe(tag: tuple) -> str:
    kind = tag[0]
    if kind in ("local", "env", "builtin", "unknown"):
        return tag[1]
    if kind == "callee":
        return _describe(tag[1])
    if kind in ("attr", "method"):
        return f"{_describe(tag[1])}.{tag[2]}"
    if kind == "call":
        return f"{_describe(tag[1])}(...)"
    return "<expression>"


def _merge(first: list, second: list) -> list:
    """The stack where two paths meet: every value is the result of a
    conditional expression, so none is trusted."""
    return [_OTHER] * min(len(first), len(second))


def _operand_pass(function: CodeType, env: FrozenSet[str],
                  findings: List[Tuple[int, str]]) -> None:
    """Append ``(offset, reason)`` for every operand-rule violation."""
    code = function.co_code
    kinds = _KINDS
    names = function.co_names
    consts = function.co_consts
    local_tags = [("local", name) for name in function.co_varnames]
    state_tag = local_tags[0] if local_tags else None
    global_tags = [("env", name) if name in env
                   else ("builtin", name) if name in ALLOWED_BUILTINS
                   else ("unknown", name) for name in names]
    handler_names = set()
    pending: Dict[int, list] = {}
    stack: list = []
    live = True
    ext = skip = 0
    end = len(code)
    for offset in range(0, end, 2):
        op = code[offset]
        if not op or offset < skip:             # CACHE, or consumed
            continue
        arg = code[offset + 1] | ext
        if op == _EXTENDED_ARG:
            ext = arg << 8
            continue
        ext = 0
        if offset in pending:
            recorded = pending.pop(offset)
            stack = _merge(stack, recorded) if live else recorded
        elif not live:
            stack = []
        live = True
        kind = kinds[op]
        if kind == "load_fast":
            stack.append(local_tags[arg])
        elif kind == "load_const":
            stack.append(_CONST)
        elif kind.__class__ is tuple:
            pops, pushes = kind
            if pops:
                del stack[-pops:]
            if pushes:
                stack.append(_OTHER)
        elif kind == "store_fast" or kind == "store_fast_load_fast":
            first = arg >> 4 if kind == "store_fast_load_fast" else arg
            if (code[offset - 2] in _COPY_OR_PREFIX
                    and _instr_before(code, offset)[:2] == (_COPY, 1)):
                findings.append((offset, "NamedExpr (assignment "
                                 "expression) is not allowed"))
            if stack and stack.pop() is _EXC:
                handler_names.add(first)
            if kind == "store_fast_load_fast":
                stack.append(local_tags[arg & 15])
        elif kind == "pop_jump":
            del stack[-1:]
            target = _next_offset(code, offset) + 2 * arg
            _record(pending, target, stack)
        elif kind == "load_global":
            tag = global_tags[arg >> 1]
            if tag[0] == "unknown":
                findings.append((offset, f"read of unknown name "
                                 f"{tag[1]!r}"))
            if arg & 1:
                stack.append(_NULL)
            stack.append(tag)
        elif kind == "jump":
            _record(pending, _next_offset(code, offset) + 2 * arg, stack)
            live = False
        elif kind == "store_subscr" or kind == "store_slice":
            depth = 3 if kind == "store_subscr" else 4
            base = stack[-depth + 1] if len(stack) >= depth else _OTHER
            del stack[-depth:]
            if base[0] not in ("local", "env"):
                findings.append((offset, f"subscript write to "
                                 f"'{_describe(base)}[...]' outside block "
                                 "locals / environment arrays"))
        elif kind == "load_attr" or kind == "load_attr_311" \
                or kind == "load_method":
            owner = stack.pop() if stack else _OTHER
            if kind == "load_attr_311":
                stack.append(("attr", owner, names[arg]))
            elif kind == "load_method" or arg & 1:
                name = names[arg if kind == "load_method" else arg >> 1]
                stack.append(("method", owner, name))
                stack.append(_SELF)
            else:
                stack.append(("attr", owner, names[arg >> 1]))
        elif kind == "store_attr":
            owner = stack[-1] if stack else _OTHER
            del stack[-2:]
            if owner is not state_tag and owner[0] != "env":
                findings.append((offset, f"attribute write to "
                                 f"'{_describe(owner)}.{names[arg]}' "
                                 "outside machine/timing state roots"))
        elif kind == "call" or kind == "call_kw":
            depth = arg + (3 if kind == "call_kw" else 2)
            pair = stack[len(stack) - depth:len(stack) - depth + 2] \
                if len(stack) >= depth else [_OTHER, _OTHER]
            del stack[-depth:]
            callee = _callee(pair)
            reason = _check_call(callee)
            if reason:
                findings.append((offset, reason))
            stack.append(("call", callee))
        elif kind == "copy":
            stack.append(stack[-arg] if len(stack) >= arg else _OTHER)
        elif kind == "swap":
            if len(stack) >= arg:
                stack[-1], stack[-arg] = stack[-arg], stack[-1]
            else:
                stack = [_OTHER] * len(stack)
        elif kind == "push_null_before":
            # before 3.13 a NULL precedes a callee that is neither a
            # global nor a method: only a local loaded right after it
            # is a trusted callee, never the result of an expression
            following = offset + 2
            if code[following] in _LOAD_FAST and following not in pending:
                stack.append(_NULL_LOCAL)
                stack.append(("callee", local_tags[code[following + 1]]))
                skip = following + 2
            else:
                stack.append(_NULL_EXPR)
        elif kind == "push_null":
            # from 3.13 the NULL follows the callee: trusted only right
            # after a local's load, never after an expression
            loaded = _instr_before(code, offset)[0]
            stack.append(_NULL if loaded in _LOAD_FAST else _NULL_EXPR)
        elif kind == "stop":
            live = False
        elif kind == "build_tuple":
            items = stack[-arg:] if arg and len(stack) >= arg else None
            if arg:
                del stack[-arg:]
            stack.append(_ENV_TUPLE if items and all(
                item[0] == "env" for item in items) else _OTHER)
        elif kind == "build" or kind == "build_map" \
                or kind == "build_const_map":
            pops = (2 * arg if kind == "build_map" else
                    arg + 1 if kind == "build_const_map" else arg)
            if pops:
                del stack[-pops:]
            stack.append(_OTHER)
        elif kind == "unpack":
            del stack[-1:]
            stack.extend([_OTHER] * arg)
        elif kind == "load_fast_load_fast":
            stack.append(local_tags[arg >> 4])
            stack.append(local_tags[arg & 15])
        elif kind == "store_fast_store_fast":
            if _instr_before(code, offset)[:2] == (_COPY, 1):
                findings.append((offset, "NamedExpr (assignment "
                                 "expression) is not allowed"))
            del stack[-2:]
        elif kind == "raise":
            exc = stack[-1] if stack else _OTHER
            if not (arg == 1 and (
                    exc[0] == "local"
                    or (exc[0] == "call" and exc[1][0] == "env"))):
                findings.append((offset, "raise of a non-environment "
                                 "exception"))
            live = False
        elif kind == "check_exc_match":
            kind_tag = stack.pop() if stack else _OTHER
            stack.append(_OTHER)
            if kind_tag[0] != "env" and kind_tag is not _ENV_TUPLE:
                findings.append((offset, "except clause over a "
                                 "non-environment exception type"))
        elif kind == "push_exc_info":
            del stack[-1:]
            stack.append(_OTHER)
            stack.append(_EXC)
        elif kind == "delete_fast":
            # the compiler clears an ``except ... as name`` binding
            # with ``name = None; del name``
            store_op, store_arg, start = _instr_before(code, offset)
            const_op, const_arg, _ = _instr_before(code, start)
            if not (arg in handler_names and store_op == _STORE_FAST
                    and store_arg == arg and const_op == _LOAD_CONST
                    and consts[const_arg] is None):
                findings.append((offset, "Delete is not allowed in "
                                 "generated block code"))
        elif kind == "extend":
            if (stack[-1] if stack else _OTHER) is not _CONST:
                findings.append((offset, "Starred is not allowed in "
                                 "generated block code"))
            del stack[-1:]
        elif kind == "jump_or_pop":
            _record(pending, _next_offset(code, offset) + 2 * arg, stack)
            del stack[-1:]
        elif kind == "jump_back" or kind == "pop_jump_back":
            if kind == "pop_jump_back":
                del stack[-1:]
            else:
                live = False
            if any(tag[0] in _TRUSTED for tag in stack):
                findings.append((offset, "backward jump carries a live "
                                 "operand"))
        else:                                   # a forbidden opcode
            stack = []


def _next_offset(code: bytes, offset: int) -> int:
    """Offset of the instruction after the one at ``offset``: jumps
    are relative to it, past the inline CACHE entries (opcode 0)."""
    offset += 2
    while code[offset] == 0:
        offset += 2
    return offset


def _instr_before(code: bytes, offset: int) -> Tuple[int, int, int]:
    """``(opcode, arg, offset)`` of the instruction before the one at
    ``offset`` (opcode 0 if a CACHE entry precedes it)."""
    start = offset - 2
    while start > 0 and code[start] == _EXTENDED_ARG:
        start -= 2                      # the prefix of the one at offset
    op, arg = code[start], code[start + 1]
    shift, prefix = 8, start - 2
    while prefix >= 0 and code[prefix] == _EXTENDED_ARG:
        arg |= code[prefix + 1] << shift
        shift += 8
        prefix -= 2
    return op, arg, start


def _record(pending: Dict[int, list], target: int, stack: list) -> None:
    recorded = pending.get(target)
    pending[target] = list(stack) if recorded is None \
        else _merge(recorded, stack)


def _callee(pair: list) -> tuple:
    """The callable of a call from the two slots below its arguments
    (NULL/callable, callable/NULL or method/self, by version)."""
    low, high = pair
    if low is _NULL:
        return high
    if low is _NULL_LOCAL:
        return high[1] if high[0] == "callee" else _OTHER
    if high is _NULL or high is _SELF:
        return low
    return _OTHER


def _check_call(callee: tuple) -> Optional[str]:
    kind = callee[0]
    if kind in ("local", "env", "builtin"):
        return None
    if kind == "unknown":
        return f"call to unknown name {callee[1]}()"
    if kind == "method":
        if callee[1][0] == "local" and callee[2] in LIST_MUTATORS:
            return None
        return (f"method call {_describe(callee)}() is not a list "
                "mutator on a block local")
    return "call through an expression"


# ----------------------------------------------------------------------
# shape, opcode and name checks


def _line(code: CodeType, offset: int) -> object:
    for start, stop, line in code.co_lines():
        if start <= offset < stop:
            return line if line is not None else "?"
    return "?"


def _function_of(module: CodeType) -> Optional[CodeType]:
    """The ``_block`` code of a module that is exactly one plain
    ``def _block``, else None."""
    if (module.co_names != ("_block",)
            or module.co_code[::2].translate(None, _MODULE_ALLOWED)):
        return None
    functions = [const for const in module.co_consts
                 if isinstance(const, CodeType)]
    if len(functions) != 1 or len(module.co_consts) != 2 \
            or None not in module.co_consts \
            or functions[0].co_name != "_block":
        return None
    code = module.co_code
    for offset in range(0, len(code), 2):
        if code[offset] == _MAKE_FUNCTION and code[offset + 1]:
            return None                  # defaults/annotations/closure
    return functions[0]


def _shape_reasons(function: CodeType) -> List[str]:
    reasons = []
    line = function.co_firstlineno
    if (function.co_argcount != 2
            or function.co_varnames[:2] != ("state", "budget")
            or function.co_posonlyargcount or function.co_kwonlyargcount
            or function.co_flags & _FORBIDDEN_FLAGS):
        reasons.append(f"line {line}: _block signature must be exactly "
                       "(state, budget) with no decorators")
    if function.co_flags & _GENERATOR_FLAGS:
        reasons.append(f"line {line}: Yield is not allowed in generated "
                       "block code")
    if function.co_freevars or function.co_cellvars:
        reasons.append(f"line {line}: closure variable is not allowed in "
                       "generated block code")
    for const in function.co_consts:
        if isinstance(const, CodeType):
            construct = _NESTED.get(const.co_name,
                                    "nested function definition")
            reasons.append(f"line {const.co_firstlineno}: {construct} is "
                           "not allowed in generated block code")
    return reasons


def _opcode_findings(function: CodeType, forbidden: bytes,
                     findings: List[Tuple[int, str]]) -> None:
    code = function.co_code
    for offset in range(0, len(code), 2):
        op = code[offset]
        if op in forbidden:
            name = _OPNAME.get(op, str(op))
            construct = _CONSTRUCTS.get(name, name)
            findings.append((offset, f"{construct} is not allowed in "
                             f"generated block code ({name})"))


def _name_findings(function: CodeType,
                   findings: List[Tuple[int, str]]) -> None:
    dunders = [name for name in function.co_names + function.co_varnames
               if name.startswith("__")]
    if not dunders:
        return
    import dis  # only on rejection: get_instructions is slow per block
    uses: Dict[str, int] = {}
    for instr in dis.get_instructions(function):
        used = instr.argval if isinstance(instr.argval, tuple) \
            else (instr.argval,)
        for name in used:
            if name in dunders:
                uses.setdefault(name, instr.offset)
    for name in dunders:
        findings.append((uses.get(name, 0), f"dunder name {name!r}"))


def _check(module: CodeType, env: FrozenSet[str]) -> List[str]:
    """Reasons ``module`` violates the whitelist, in code order."""
    if _KINDS is None:
        return ["Python %d.%d has no sanitizer opcode table (supported: "
                "3.11, 3.12, 3.13)" % _VERSION]
    function = _function_of(module)
    if function is None:
        return ["line 1: module must be exactly one "
                "'def _block(state, budget)'"]
    reasons = _shape_reasons(function)
    findings: List[Tuple[int, str]] = []
    forbidden = function.co_code[::2].translate(None, _ALLOWED)
    if forbidden:
        _opcode_findings(function, forbidden, findings)
    _name_findings(function, findings)
    _operand_pass(function, env, findings)
    findings.sort(key=lambda item: item[0])
    reasons.extend(f"line {_line(function, offset)}: {why}"
                   for offset, why in findings)
    return reasons


def sanitize_block_source(code: CodeType, env_names: Collection[str],
                          flavor: str = "fast", source: str = "") -> None:
    """Verify one compiled block; raise :class:`SanitizerError`.

    ``code`` is ``compile(source, filename, "exec")`` of one generated
    block source.  ``env_names`` is the set of globals the translator
    will ``exec`` it against (semantic helpers, memory accessors, trap
    types, and — for fused flavours — the codegen environment).
    Anything outside that set, the block's own locals, and a tiny
    builtin whitelist is a violation.  ``source`` only feeds the
    error message.
    """
    global _CHECKED, _REJECTED
    _CHECKED += 1
    reasons = _check(code, frozenset(env_names))
    if reasons:
        _REJECTED += 1
        mirror_check_metrics("sanitizer", rejected=True)
        raise SanitizerError(reasons, source)
    mirror_check_metrics("sanitizer", rejected=False)


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
