"""The generated-superblock sanitizer: rejections and live coverage.

The sanitizer vets the code object ``compile(source)`` returns, so
every case compiles its source first, as the translator does."""

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError, sanitize_block_source

ENV = frozenset({
    "M", "ld8", "st8", "SINK", "SyscallTrap", "GuestFault", "CORE",
})


def check(source, env=ENV):
    sanitize_block_source(compile(source, "<block>", "exec"), env,
                          source=source)


def reasons_of(source, env=ENV):
    with pytest.raises(SanitizerError) as excinfo:
        check(source, env)
    return "\n".join(excinfo.value.reasons)


# ----------------------------------------------------------------------
# accepted shapes


def test_accepts_representative_block():
    check("""
def _block(state, budget):
    r = state.regs
    r[3] = M(r[1] + r[2])
    ea = M(r[3] + 16)
    r[4] = ld8(state, ea)
    st8(state, ea, r[4])
    CORE.cycle = CORE.cycle + 1
    state.pc = 4096
    state.icount = state.icount + 5
    return 5
""")


def test_accepts_trap_raise_and_env_except():
    check("""
def _block(state, budget):
    try:
        raise SyscallTrap(state.pc)
    except GuestFault:
        state.pc = 0
    return 1
""")


def test_accepts_local_list_mutators():
    check("""
def _block(state, budget):
    ways = state.ways
    way = ways.pop()
    ways.append(way)
    ways.insert(0, way)
    return len(ways)
""")


# ----------------------------------------------------------------------
# rejected shapes


def test_rejects_import():
    assert "Import" in reasons_of("""
def _block(state, budget):
    import os
    return 0
""")


def test_rejects_open_call():
    assert "open" in reasons_of("""
def _block(state, budget):
    handle = open("/etc/passwd")
    return 0
""")


def test_rejects_foreign_attribute_write():
    text = reasons_of("""
def _block(state, budget):
    budget.limit.inner = 0
    return 0
""")
    assert "attribute write" in text


def test_rejects_unknown_name_read():
    assert "unknown name" in reasons_of("""
def _block(state, budget):
    return secret_global + 1
""")


def test_rejects_dunder_access():
    assert "dunder" in reasons_of("""
def _block(state, budget):
    return state.__dict__
""")


def test_rejects_wrong_module_shape():
    assert "exactly one" in reasons_of("x = 1\n")
    assert "exactly one" in reasons_of("""
def _block(state, budget):
    return 0

def _other():
    return 1
""")
    assert "signature" in reasons_of("""
def _block(state, budget, extra):
    return 0
""")


def test_rejects_nested_def_and_lambda():
    assert "nested function" in reasons_of("""
def _block(state, budget):
    def inner():
        return 0
    return inner()
""")
    assert "Lambda" in reasons_of("""
def _block(state, budget):
    f = lambda: 0
    return 0
""")


def test_rejects_foreign_raise():
    assert "raise" in reasons_of("""
def _block(state, budget):
    raise ValueError("nope")
""")


def test_rejects_conditional_expression_targets():
    # a value computed on two paths is never trusted, even when the
    # compiler copies the rest of the statement into both of them
    assert "attribute write" in reasons_of("""
def _block(state, budget):
    (budget if state.pc else state).pc = 1
    return 0
""")
    assert "call through" in reasons_of("""
def _block(state, budget):
    v = M
    return (v if v.pc else v)(0)
""")
    assert "call through" in reasons_of("""
def _block(state, budget):
    state.pc = 1
    k = (M if state.pc else M)(0)
    return 1
""")


def test_unsupported_python_rejects_every_block(monkeypatch):
    # opcode numbers and stack layouts are per version: without a table
    # for the running interpreter nothing can be vetted
    monkeypatch.setattr(sanitizer, "_KINDS", None)
    monkeypatch.setattr(sanitizer, "_VERSION", (3, 99))
    reasons = reasons_of("def _block(state, budget):\n    return 0\n")
    assert reasons == ("Python 3.99 has no sanitizer opcode table "
                       "(supported: 3.11, 3.12, 3.13)")


def test_rejects_syntax_error(monkeypatch, tmp_path):
    """A source that does not compile never reaches the sanitizer: the
    translator's one ``compile()`` raises, and nothing is persisted."""
    from repro.vm import translator as translator_module

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    sanitizer.reset_stats()
    with pytest.raises(SyntaxError):
        translator_module.compile_block(
            ("syntax-error-test",), lambda: "def _block(state budget:\n",
            {}, "<block>", "fast", lambda source: None, 0, "fast")
    assert sanitizer.stats() == {"checked": 0, "rejected": 0}
    assert not (tmp_path / "codecache-v1").exists()


# ----------------------------------------------------------------------
# one-pass design: locals are collected during the same walk, so checks
# that depend on them must not trip on a use that precedes, in source
# order, the assignment that makes the name a local


def test_accepts_read_before_assignment_in_source_order():
    check("""
def _block(state, budget):
    n = 0
    while 1:
        if n:
            return acc
        acc = n
        n = n + 1
""")


def test_accepts_subscript_write_before_assignment_in_source_order():
    check("""
def _block(state, budget):
    n = 0
    while 1:
        if n:
            ways[0] = n
            return 1
        ways = [0, 0]
        n = 1
""")


def test_accepts_list_mutator_before_assignment_in_source_order():
    check("""
def _block(state, budget):
    n = 0
    while 1:
        if n:
            ways.append(n)
            return len(ways)
        ways = []
        n = 1
""")


def test_accepts_reraise_of_handler_name_bound_later_in_source():
    check("""
def _block(state, budget):
    n = 0
    while 1:
        if n:
            raise held
        try:
            return ld8(state, 0)
        except GuestFault as held:
            n = 1
""")


def test_late_checks_still_reject_names_never_bound():
    text = reasons_of("""
def _block(state, budget):
    ghost[0] = 1
    spook.append(1)
    raise phantom
""")
    assert "subscript write" in text
    assert "list mutator" in text
    assert "raise" in text
    assert "unknown name 'ghost'" in text


def test_rejects_nested_def_that_assigns_a_name():
    assert "nested function" in reasons_of("""
def _block(state, budget):
    def inner():
        hidden = 1
        return hidden
    return 0
""")


def test_reasons_keep_source_order():
    reasons = reasons_of("""
def _block(state, budget):
    a = first
    import os
    c = third
    return 0
""").splitlines()
    assert [line.split(":")[0] for line in reasons] == [
        "line 3", "line 4", "line 5"]


def test_returned_tree_compiles_to_identical_code(monkeypatch, tmp_path):
    """Over a real tiny run, every persisted code-cache entry holds
    exactly ``marshal.dumps(compile(source))`` of the vetted source."""
    import marshal

    from repro.exec import codecache
    from repro.vm import translator as translator_module
    from repro.workloads import load_benchmark

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    vetted = []
    real = sanitizer.sanitize_block_source

    def recording(code, env_names, flavor="fast", source=""):
        vetted.append((code.co_filename, frozenset(env_names), source))
        return real(code, env_names, flavor, source)

    monkeypatch.setattr(sanitizer, "sanitize_block_source", recording)
    load_benchmark("gzip", size="tiny").boot().run_to_completion()
    assert len(vetted) > 10
    for filename, env_names, source in vetted:
        key = codecache.entry_key(filename, env_names, source)
        with open(codecache.entry_path(key), "rb") as handle:
            entry = handle.read()
        assert entry[:32] == key
        assert entry[64:] == marshal.dumps(
            compile(source, filename, "exec", dont_inherit=True))


# ----------------------------------------------------------------------
# counters + kill switch


def test_stats_count_checks_and_rejections():
    sanitizer.reset_stats()
    check("def _block(state, budget):\n    return 0\n")
    with pytest.raises(SanitizerError):
        check("import os\n")
    stats = sanitizer.stats()
    assert stats == {"checked": 2, "rejected": 1}
    sanitizer.reset_stats()


def test_enabled_env_switch(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitizer.sanitizer_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitizer.sanitizer_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer.sanitizer_enabled()


# ----------------------------------------------------------------------
# live coverage: every block a real run compiles must pass


def test_every_superblock_of_a_real_run_passes(monkeypatch, tmp_path):
    """Boot a guest workload, run it through the fused fast path, and
    require the sanitizer to have vetted every freshly generated
    superblock with zero rejections."""
    from repro.vm import translator as translator_module
    from repro.workloads import load_benchmark

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    # an empty code cache: a warm one would serve vetted code and the
    # count below would not prove this run vetted anything
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    sanitizer.reset_stats()
    system = load_benchmark("gzip", size="tiny").boot()
    system.run_to_completion()
    stats = sanitizer.stats()
    assert stats["rejected"] == 0
    assert stats["checked"] > 10  # the run really generated blocks
    sanitizer.reset_stats()
