"""Sanitizer coverage for megablock sources, taken from a live 2-core
SMP run.

Every megablock is an inline-fused chain: the constituents' fused
bodies spliced into one function whose exit stubs read the linker's
``IRQ``/``GEN`` bindings.  These tests feed the sanitizer the real
chain sources a two-hart machine builds, rather than hand-written
fixtures, and check that the exact environment the linker binds is
both sufficient and necessary.
"""

import pytest

from repro.analysis import symexec
from repro.analysis.sanitizer import (SanitizerError,
                                      sanitize_block_source)
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen
from repro.vm import MODE_EVENT
from repro.vm import translator as translator_module
from repro.workloads import SUITE_MACHINE_KWARGS, build_parallel

#: the names the chain linker binds beside the translator and codegen
#: environments
LINKER_NAMES = frozenset({"GuestFault", "VS", "IRQ", "GEN"})


@pytest.fixture(scope="module")
def smp_chains():
    """(sources, environment) of the inline chains a 2-core run
    builds."""
    translator_module._CODE_CACHE.clear()
    system = build_parallel("lockcnt", size="tiny").boot(
        n_cores=2, **SUITE_MACHINE_KWARGS)
    machine = system.machine
    sinks = []
    env = set(LINKER_NAMES)
    for core in machine.cores:
        sink = OutOfOrderCore(TimingConfig.small())
        codegen = TimedBlockCodegen(sink)
        core.register_fast_sink(sink, codegen)
        core.fast_promote_threshold = 2
        sinks.append(sink)
        env.update(core.translator._env_base)
        env.update(codegen.env())
    machine.mega_promote_threshold = 4
    with symexec.capture() as captured:
        system.run(12_000, mode=MODE_EVENT, sink=sinks)
    translator_module._CODE_CACHE.clear()
    sources = [item.source for item in captured
               if item.form == "chain-inline"]
    assert sources, "SMP run built no chains"
    return sources, frozenset(env)


def test_smp_chain_sources_sanitize_clean(smp_chains):
    sources, env = smp_chains
    for source in sources:
        sanitize_block_source(source, env, "mega")


def test_chain_guards_need_linker_binding(smp_chains):
    # the exit stubs read IRQ and GEN only because the linker bound
    # them; outside that environment they are unknown-name rejections
    sources, env = smp_chains
    with pytest.raises(SanitizerError) as excinfo:
        sanitize_block_source(sources[0], env - {"IRQ", "GEN"}, "mega")
    reasons = "\n".join(excinfo.value.reasons)
    assert "'IRQ'" in reasons and "'GEN'" in reasons


@pytest.mark.parametrize("mangle", [
    ("    _gen = GEN\n", "    _gen = GEN\n    import os\n"),
    ("    _gen = GEN\n", "    _gen = GEN.__class__\n"),
    ("raise _flt", "raise GEN"),
    ("VS.block_dispatches = VS", "VS.block_dispatches = len.__self__"),
])
def test_malformed_chained_dispatch_rejected(smp_chains, mangle):
    sources, env = smp_chains
    old, new = mangle
    source = sources[0]
    assert old in source
    with pytest.raises(SanitizerError):
        sanitize_block_source(source.replace(old, new), env, "mega")
