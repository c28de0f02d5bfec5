"""Abstract domain of the symbolic codegen verifier.

Terms are hashable tuples (plus Python scalars for concrete values).
The constructors below fold constants through the *real* ISA arithmetic
helpers (:mod:`repro.vm.semantics`) and canonicalize linear integer
combinations, so the two sides of the verifier — the abstract
interpreter over generated superblock ASTs (:mod:`.symexec`) and the
reference semantics derived from decoded instructions (:mod:`.refsem`)
— produce structurally identical terms whenever the generated code is
equivalent to the ISA.  The grammar:

``int | float | bool | None``
    concrete values (folded eagerly through the semantics helpers)
``("sym", name)`` / ``("fsym", name)``
    free integer / float symbols (registers after havoc, ``budget``,
    ``icount0``, loop trip counts, ...)
``("env", name)``
    an object from the translation environment (``CORE``, ``IRQ``,
    ``GEN``, ...) — opaque timing/machine state, never architectural
``("opaque", name, serial)``
    an unknown value read *from* environment state; every read is
    fresh (serial), and :func:`strip_ids` erases the serials before
    summaries are compared so both sides align structurally
``("lin", const, ((term, coeff), ...))``
    canonical integer linear combination (sorted by term repr); sums
    and differences of ``icount``/``budget``/trip-count symbols cancel
    exactly here, which is what lets accounting identities fold
``("mask64", t)``, ``("band"|"bor"|"bxor"|"lshift"|"rshift"|"mul"|
"floordiv"|"mod", a, b)``
    bitwise/arithmetic operations that stay symbolic
``("eq"|"ne"|"lt"|"le"|"gt"|"ge", a, b)``, ``("not", t)``,
``("or"|"and", atoms...)``, ``("in"|"notin", a, b)``
    conditions; ``eq``/``ne`` additionally fold on structural equality
    of non-float terms (values of equal terms are equal)
``("ifexp", c, a, b)``
    a pure conditional expression (never forked)
``("s64"|"sx8"|...|"f2i"|"float"|"fabs"|"fneg"|"fadd"|..., args...)``
    semantic-helper and float operations
``("ld", size, addr, seq)``
    a guest memory load; ``seq`` is the state's memory-operation
    sequence number, shared with fault terms so both sides agree on
    *which* access faulted
``("trap", name, pc)``, ``("fault", seq)``
    exception values
``("tuple", items...)``, ``("regs",)``, ``("fregs",)``, ``("sinkfn",)``
    structural helpers for the executor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.vm.semantics import (MASK64, f2i, fdiv, fmax2, fmin2, fsqrt,
                                idiv, irem, s64, sx8, sx16, sx32)

Term = Any

__all__ = [
    "Term", "MASK64", "is_concrete", "is_floatish", "fresh_opaque",
    "t_add", "t_sub", "t_neg", "t_mul", "t_floordiv", "t_mod",
    "t_lshift", "t_rshift", "t_band", "t_bor", "t_bxor", "t_mask64",
    "t_cmp", "t_not", "t_or", "t_and", "t_ifexp", "t_call",
    "strip_ids", "render", "SymState", "entry_state", "ExitSummary",
    "summarize", "compare_exits",
]

_OPAQUE_SERIAL = itertools.count(1)

#: helper names whose concrete folding goes through the real semantics
_HELPER_FOLD: Dict[str, Callable[..., Any]] = {
    "s64": s64, "sx8": sx8, "sx16": sx16, "sx32": sx32,
    "idiv": idiv, "irem": irem, "fdiv": fdiv, "fsqrt": fsqrt,
    "fmin2": fmin2, "fmax2": fmax2, "f2i": f2i,
    "float": float, "fabs": abs,
}

#: term tags whose value is a float
_FLOAT_OPS = frozenset({
    "fadd", "fsub", "fmul", "fdiv", "fneg", "fabs", "fsqrt",
    "fmin2", "fmax2", "float", "fsym",
})


def is_concrete(term: Term) -> bool:
    return not isinstance(term, tuple)


def is_floatish(term: Term) -> bool:
    """Whether a term is float-valued (drives fadd-vs-lin selection)."""
    if isinstance(term, float):
        return True
    if isinstance(term, tuple):
        tag = term[0]
        if tag in _FLOAT_OPS:
            return True
        if tag == "ld":
            return term[1] == "f"
        if tag == "ifexp":
            return is_floatish(term[2]) or is_floatish(term[3])
    return False


def fresh_opaque(name: str) -> Term:
    """A fresh unknown read from opaque environment state."""
    return ("opaque", name, next(_OPAQUE_SERIAL))


# ----------------------------------------------------------------------
# linear integer combinations

def _as_lin(term: Term) -> Tuple[int, Tuple[Tuple[Term, int], ...]]:
    if isinstance(term, bool):
        return int(term), ()
    if isinstance(term, int):
        return term, ()
    if isinstance(term, tuple) and term[0] == "lin":
        return term[1], term[2]
    return 0, ((term, 1),)


def _mk_lin(const: int, items: Iterable[Tuple[Term, int]]) -> Term:
    kept = tuple((t, k) for t, k in items if k != 0)
    if not kept:
        return const
    if const == 0 and len(kept) == 1 and kept[0][1] == 1:
        return kept[0][0]
    kept = tuple(sorted(kept, key=lambda item: repr(item[0])))
    return ("lin", const, kept)


def _lin_merge(a: Term, b: Term, sign: int) -> Term:
    ca, ia = _as_lin(a)
    cb, ib = _as_lin(b)
    merged: Dict[Term, int] = {}
    for term, coeff in ia:
        merged[term] = merged.get(term, 0) + coeff
    for term, coeff in ib:
        merged[term] = merged.get(term, 0) + sign * coeff
    return _mk_lin(ca + sign * cb, merged.items())


def t_add(a: Term, b: Term) -> Term:
    if is_floatish(a) or is_floatish(b):
        if is_concrete(a) and is_concrete(b):
            return a + b
        return ("fadd", a, b)
    if is_concrete(a) and is_concrete(b):
        return a + b
    return _lin_merge(a, b, 1)


def t_sub(a: Term, b: Term) -> Term:
    if is_floatish(a) or is_floatish(b):
        if is_concrete(a) and is_concrete(b):
            return a - b
        return ("fsub", a, b)
    if is_concrete(a) and is_concrete(b):
        return a - b
    return _lin_merge(a, b, -1)


def t_neg(a: Term) -> Term:
    if is_concrete(a):
        return -a
    if is_floatish(a):
        return ("fneg", a)
    const, items = _as_lin(a)
    return _mk_lin(-const, ((t, -k) for t, k in items))


def t_mul(a: Term, b: Term) -> Term:
    if is_floatish(a) or is_floatish(b):
        if is_concrete(a) and is_concrete(b):
            return a * b
        return ("fmul", a, b)
    if is_concrete(a) and is_concrete(b):
        return a * b
    if is_concrete(a):
        a, b = b, a
    if is_concrete(b):
        if b == 0:
            return 0
        const, items = _as_lin(a)
        return _mk_lin(const * b, ((t, k * b) for t, k in items))
    return ("mul", a, b)


def t_floordiv(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b) and b != 0:
        return a // b
    if is_concrete(b) and isinstance(b, int) and b > 0:
        # exact division distributes over the linear form: every addend
        # divisible means sum = b * (sum/b) with no remainder mixing
        const, items = _as_lin(a)
        if const % b == 0 and all(k % b == 0 for _, k in items):
            return _mk_lin(const // b, ((t, k // b) for t, k in items))
    return ("floordiv", a, b)


def t_mod(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b) and b != 0:
        return a % b
    return ("mod", a, b)


def t_lshift(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return a << b
    return ("lshift", a, b)


def t_rshift(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return a >> b
    return ("rshift", a, b)


def t_mask64(a: Term) -> Term:
    if is_concrete(a):
        return a & MASK64
    if isinstance(a, tuple) and a[0] == "mask64":
        return a
    return ("mask64", a)


def t_band(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return a & b
    if b == MASK64:
        return t_mask64(a)
    if a == MASK64:
        return t_mask64(b)
    return ("band", a, b)


def t_bor(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return a | b
    return ("bor", a, b)


def t_bxor(a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return a ^ b
    return ("bxor", a, b)


_CMP_FOLD: Dict[str, Callable[[Any, Any], bool]] = {
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
}


def t_cmp(op: str, a: Term, b: Term) -> Term:
    if is_concrete(a) and is_concrete(b):
        return _CMP_FOLD[op](a, b)
    if not (is_floatish(a) or is_floatish(b)):
        # integer difference folding: if a - b collapses to a constant
        # the comparison is decided; structural eq/ne never folds for
        # floats (NaN != NaN even for structurally equal terms)
        diff = t_sub(a, b)
        if isinstance(diff, int) and not isinstance(diff, bool):
            return _CMP_FOLD[op](diff, 0)
        if op in ("eq", "ne") and a == b:
            return op == "eq"
    return (op, a, b)


def t_not(a: Term) -> Term:
    if is_concrete(a):
        return not a
    return ("not", a)


def t_or(atoms: List[Term]) -> Term:
    """Boolean-context ``or`` preserving evaluation order: concrete
    falsy atoms drop, a concrete truthy atom decides the whole term."""
    kept: List[Term] = []
    for atom in atoms:
        if is_concrete(atom):
            if atom:
                return True
            continue
        kept.append(atom)
    if not kept:
        return False
    if len(kept) == 1:
        return kept[0]
    return ("or",) + tuple(kept)


def t_and(atoms: List[Term]) -> Term:
    kept: List[Term] = []
    for atom in atoms:
        if is_concrete(atom):
            if not atom:
                return False
            continue
        kept.append(atom)
    if not kept:
        return True
    if len(kept) == 1:
        return kept[0]
    return ("and",) + tuple(kept)


def t_ifexp(cond: Term, a: Term, b: Term) -> Term:
    if is_concrete(cond):
        return a if cond else b
    return ("ifexp", cond, a, b)


def t_call(name: str, args: List[Term]) -> Term:
    """Apply a semantic helper: fold concretely through the real
    implementation, otherwise build the tagged term."""
    tag = "fabs" if name == "abs" else name
    fold = _HELPER_FOLD.get(tag)
    if fold is not None and all(is_concrete(arg) for arg in args):
        try:
            return fold(*args)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return (tag,) + tuple(args)


# ----------------------------------------------------------------------
# normalization and rendering

def strip_ids(term: Term) -> Term:
    """Erase opaque-read serial numbers so independently generated
    summaries (executor vs reference) become structurally comparable."""
    if not isinstance(term, tuple):
        return term
    if term[0] == "opaque":
        return ("opaque", term[1])
    if term[0] == "lin":
        # re-canonicalize: stripping may merge items that differed only
        # in their serials
        merged: Dict[Term, int] = {}
        for item, coeff in term[2]:
            stripped = strip_ids(item)
            merged[stripped] = merged.get(stripped, 0) + coeff
        return _mk_lin(term[1], merged.items())
    return tuple(strip_ids(item) for item in term)


def render(term: Term) -> str:
    """Compact human-readable form for diff messages."""
    if not isinstance(term, tuple):
        return repr(term)
    tag = term[0]
    if tag in ("sym", "fsym", "env"):
        return str(term[1])
    if tag == "opaque":
        return f"?{term[1]}"
    if tag == "lin":
        parts = [str(term[1])] if term[1] else []
        for item, coeff in term[2]:
            parts.append(render(item) if coeff == 1
                         else f"{coeff}*{render(item)}")
        return "(" + " + ".join(parts) + ")"
    if tag == "ld":
        return f"ld[{term[1]}]({render(term[2])})@{term[3]}"
    if tag in _CMP_FOLD:
        sign = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                "gt": ">", "ge": ">="}[tag]
        return f"({render(term[1])} {sign} {render(term[2])})"
    inner = ", ".join(render(item) for item in term[1:])
    return f"{tag}({inner})"


# ----------------------------------------------------------------------
# symbolic machine state

#: ``state`` attributes every summary reports explicitly
KNOWN_ATTRS = ("pc", "halted", "icount", "cycles", "block_progress")

_LD_SIZES = {"ld1": 1, "ld2": 2, "ld4": 4, "ld8": 8, "ldf": "f"}
_ST_SIZES = {"st1": 1, "st2": 2, "st4": 4, "st8": 8, "stf": "f"}


class SymState:
    """One symbolic execution path's machine + local state."""

    __slots__ = ("regs", "fregs", "epoch", "attrs", "locs", "vs",
                 "stores", "events", "conds", "nmem", "trace")

    def __init__(self) -> None:
        self.regs: Dict[int, Term] = {}
        self.fregs: Dict[int, Term] = {}
        #: register havoc generation; default symbols embed it so a
        #: havoc invalidates every stale read at once
        self.epoch = 0
        self.attrs: Dict[str, Term] = {}
        self.locs: Dict[str, Term] = {}
        self.vs: Dict[str, Term] = {}
        self.stores: List[Tuple[Any, Term, Term]] = []
        self.events: List[Tuple[Term, ...]] = []
        self.conds: List[Tuple[Term, bool]] = []
        #: memory-operation sequence counter (loads AND stores), shared
        #: with fault terms so both sides name the faulting access
        self.nmem = 0
        self.trace: List[Tuple[int, str]] = []

    def clone(self) -> "SymState":
        dup = SymState.__new__(SymState)
        dup.regs = dict(self.regs)
        dup.fregs = dict(self.fregs)
        dup.epoch = self.epoch
        dup.attrs = dict(self.attrs)
        dup.locs = dict(self.locs)
        dup.vs = dict(self.vs)
        dup.stores = list(self.stores)
        dup.events = list(self.events)
        dup.conds = list(self.conds)
        dup.nmem = self.nmem
        dup.trace = list(self.trace)
        return dup

    # -- registers ------------------------------------------------------

    def reg_default(self, index: int) -> Term:
        return ("sym", f"r{index}@{self.epoch}")

    def freg_default(self, index: int) -> Term:
        return ("fsym", f"f{index}@{self.epoch}")

    def read_reg(self, index: int) -> Term:
        if index == 0:
            return 0
        value = self.regs.get(index)
        if value is None:
            value = self.reg_default(index)
            self.regs[index] = value
        return value

    def write_reg(self, index: int, value: Term) -> None:
        self.regs[index] = value

    def read_freg(self, index: int) -> Term:
        value = self.fregs.get(index)
        if value is None:
            value = self.freg_default(index)
            self.fregs[index] = value
        return value

    def write_freg(self, index: int, value: Term) -> None:
        self.fregs[index] = value

    def havoc_registers(self) -> None:
        """Forget every register value (a fragment call or loop havoc)."""
        self.epoch += 1
        self.regs.clear()
        self.fregs.clear()

    # -- machine attributes / VM statistics -----------------------------

    def read_attr(self, name: str) -> Term:
        value = self.attrs.get(name)
        if value is None:
            value = ("sym", f"state.{name}@0")
            self.attrs[name] = value
        return value

    def write_attr(self, name: str, value: Term) -> None:
        self.attrs[name] = value

    def read_vs(self, name: str) -> Term:
        value = self.vs.get(name)
        if value is None:
            value = ("sym", f"vs0.{name}")
            self.vs[name] = value
        return value

    def write_vs(self, name: str, value: Term) -> None:
        self.vs[name] = value

    # -- guest memory ---------------------------------------------------

    def mem_read(self, size: Any,
                 addr: Term) -> Tuple[Term, Tuple["SymState", Term]]:
        """One load attempt: returns ``(value, fault_fork)`` where the
        fork is the pre-effect state paired with its fault term."""
        self.nmem += 1
        fault = (self.clone(), ("fault", self.nmem))
        return ("ld", size, addr, self.nmem), fault

    def mem_write(self, size: Any, addr: Term,
                  value: Term) -> Tuple["SymState", Term]:
        self.nmem += 1
        fault = (self.clone(), ("fault", self.nmem))
        self.stores.append((size, addr, value))
        return fault


def entry_state(pc0: int) -> SymState:
    """The state every ``_block(state, budget)`` call begins from."""
    st = SymState()
    st.attrs.update({
        "pc": pc0,
        "halted": False,
        "block_progress": 0,
        "icount": ("sym", "icount0"),
        "cycles": ("sym", "cycles0"),
    })
    st.locs["budget"] = ("sym", "budget")
    return st


# ----------------------------------------------------------------------
# exit summaries

@dataclass(frozen=True)
class ExitSummary:
    """The observable effect of one execution path.

    Two paths are equivalent iff their summaries are equal after
    :func:`strip_ids` normalization; :func:`summarize` applies it.
    ``kind`` is ``"return"``, ``"raise"`` or ``"backedge"`` (a loop
    iteration boundary — compared so per-iteration effects match, with
    ``invars`` carrying the loop-tracked locals).
    """

    kind: str
    conds: Tuple[Tuple[Term, bool], ...]
    pc: Term
    halted: Term
    regs: Tuple[Tuple[int, Term], ...]
    fregs: Tuple[Tuple[int, Term], ...]
    attrs_extra: Tuple[Tuple[str, Term], ...]
    executed: Term
    exc: Term
    progress: Term
    icount_delta: Term
    vs: Tuple[Tuple[str, Term], ...]
    stores: Term
    events: Term
    invars: Tuple[Tuple[str, Term], ...] = ()

    def describe(self) -> str:
        bits = [self.kind]
        if self.conds:
            bits.append("if " + " and ".join(
                (render(t) if flag else f"not {render(t)}")
                for t, flag in self.conds))
        bits.append(f"pc={render(self.pc)}")
        if self.exc is not None:
            bits.append(f"exc={render(self.exc)}")
        if self.executed is not None:
            bits.append(f"executed={render(self.executed)}")
        return " ".join(bits)


_FIELDS = ("conds", "pc", "halted", "regs", "fregs", "attrs_extra",
           "executed", "exc", "progress", "icount_delta", "vs",
           "stores", "events", "invars")


def summarize(st: SymState, kind: str, executed: Optional[Term] = None,
              exc: Optional[Term] = None, *,
              tracked_locals: Tuple[str, ...] = ()) -> ExitSummary:
    """Normalize one finished path into a comparable summary."""
    regs = tuple(sorted(
        (i, strip_ids(v)) for i, v in st.regs.items()
        if i == 0 or v != st.reg_default(i)))
    fregs = tuple(sorted(
        (i, strip_ids(v)) for i, v in st.fregs.items()
        if v != st.freg_default(i)))
    extra = tuple(sorted(
        (name, strip_ids(value)) for name, value in st.attrs.items()
        if name not in KNOWN_ATTRS
        and value != ("sym", f"state.{name}@0")))
    vs = []
    for name, value in sorted(st.vs.items()):
        delta = strip_ids(t_sub(value, ("sym", f"vs0.{name}")))
        if delta != 0:
            vs.append((name, delta))
    icount_delta = strip_ids(
        t_sub(st.attrs.get("icount", ("sym", "icount0")),
              ("sym", "icount0")))
    invars: Tuple[Tuple[str, Term], ...] = ()
    if kind == "backedge":
        invars = tuple((name, strip_ids(st.locs.get(name)))
                       for name in tracked_locals)
    return ExitSummary(
        kind=kind,
        conds=tuple((strip_ids(t), flag) for t, flag in st.conds),
        pc=strip_ids(st.attrs.get("pc")),
        halted=strip_ids(st.attrs.get("halted")),
        regs=regs,
        fregs=fregs,
        attrs_extra=extra,
        executed=strip_ids(executed) if executed is not None else None,
        exc=strip_ids(exc) if exc is not None else None,
        progress=(strip_ids(st.attrs.get("block_progress"))
                  if exc is not None else None),
        icount_delta=icount_delta,
        vs=tuple(vs),
        stores=tuple((size, strip_ids(addr), strip_ids(value))
                     for size, addr, value in st.stores),
        events=tuple(tuple(strip_ids(f) for f in event)
                     for event in st.events),
        invars=invars,
    )


@dataclass
class ExitDiff:
    """One divergence between generated code and the reference."""

    message: str
    trace: Tuple[Tuple[int, str], ...] = field(default_factory=tuple)

    def format(self) -> str:
        out = [self.message]
        for lineno, text in self.trace:
            out.append(f"    L{lineno}: {text}")
        return "\n".join(out)


def _field_diffs(actual: ExitSummary, expected: ExitSummary) -> List[str]:
    out = []
    for name in _FIELDS:
        a, e = getattr(actual, name), getattr(expected, name)
        if a != e:
            out.append(f"{name}: generated={_short(a)} "
                       f"reference={_short(e)}")
    return out


def _short(value: Any) -> str:
    if isinstance(value, tuple) and (
            not value or not isinstance(value[0], str)):
        return "(" + ", ".join(_short(item) for item in value) + ")"
    if isinstance(value, tuple):
        return render(value)
    return repr(value)


def compare_exits(actual: List[Tuple[ExitSummary,
                                     Tuple[Tuple[int, str], ...]]],
                  expected: List[ExitSummary]) -> List[ExitDiff]:
    """Multiset comparison of path summaries.

    Exact matches cancel; leftovers are paired greedily by field
    proximity so the diff names the field that diverged rather than
    dumping two whole summaries.
    """
    remaining = list(expected)
    unmatched: List[Tuple[ExitSummary, Tuple[Tuple[int, str], ...]]] = []
    for summary, trace in actual:
        if summary in remaining:
            remaining.remove(summary)
        else:
            unmatched.append((summary, trace))
    diffs: List[ExitDiff] = []
    for summary, trace in unmatched:
        if not remaining:
            diffs.append(ExitDiff(
                "extra generated exit with no reference counterpart: "
                + summary.describe(), trace))
            continue
        best = max(remaining, key=lambda cand: sum(
            getattr(summary, name) == getattr(cand, name)
            for name in _FIELDS) - (summary.kind != cand.kind) * 100)
        remaining.remove(best)
        fields = _field_diffs(summary, best)
        diffs.append(ExitDiff(
            f"exit mismatch on {summary.kind} path "
            f"[{summary.describe()}]:\n  "
            + "\n  ".join(fields), trace))
    for summary in remaining:
        diffs.append(ExitDiff(
            "missing exit: the reference semantics require a path the "
            "generated code never takes: " + summary.describe()))
    return diffs
