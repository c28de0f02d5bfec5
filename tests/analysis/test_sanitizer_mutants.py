"""The sanitizer over real generated blocks of every tier, and mutants.

Real blocks come from tiny runs: the fast and event translations, the
fused tier and the inline-fused megablocks of a single-core guest, and
the blocks of a 2-core guest.  Every original must be accepted.  Each
forbidden construct is then injected into each of them, at the top of
the body and, where the block has one, inside its first nested
statement block (a loop, branch or ``try`` body), and every mutant
must be rejected.
"""

import re

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError
from repro.exec.worker import execute_spec
from repro.harness.experiments import make_spec
from repro.vm import translator as translator_module

#: (construct, statement lines); ``{local}`` is a block local that is
#: not ``state``, ``{env}`` an environment name the block uses
MUTANTS = {
    "import": ["import os"],
    "open": ["_h = open('/etc/passwd')"],
    "dunder": ["_d = state.__dict__"],
    "foreign attribute write": ["{local}.limit = 0"],
    "unknown global": ["_u = secret_global + 1"],
    "nested def": ["def _inner():", "    return 0"],
    "lambda": ["_f = lambda: 0"],
    "comprehension": ["_c = [_x for _x in {local}]"],
    "with": ["with state:", "    _q = 0"],
    "global write": ["global _gw", "_gw = 1"],
    "f-string": ["_s = f'{{state}}'"],
    "starred": ["_t = len(*{local})"],
    "del of a plain local": ["_z = None", "del _z"],
    "walrus": ["_w2 = (_w1 := 5) + 1"],
    "foreign raise": ["raise ValueError('x')"],
    "foreign except": ["try:", "    _e = state.pc",
                       "except ValueError:", "    _e = 0"],
    "call through an expression": ["_k = {local}[0](1)"],
    "method call on a non-local": ["{env}.append(1)"],
    "yield": ["yield 1"],
}

_SIMPLE = re.compile(r"\s*(return|raise|continue|break|else|elif)\b")


def _capture(monkeypatch, tmp_path, runs):
    """{(source, env): flavor} of every block the runs vet."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    blocks = {}
    real = sanitizer.sanitize_block_source

    def recording(code, env_names, flavor="fast", source=""):
        blocks.setdefault((source, frozenset(env_names)), flavor)
        return real(code, env_names, flavor, source)

    monkeypatch.setattr(sanitizer, "sanitize_block_source", recording)
    for benchmark, policy, cores in runs:
        translator_module._CODE_CACHE.clear()
        execute_spec(make_spec(benchmark, policy, "tiny", cores=cores))
    translator_module._CODE_CACHE.clear()
    return blocks


@pytest.fixture(scope="module")
def real_blocks(tmp_path_factory):
    """A few real blocks per tier: (label, source, env)."""
    monkeypatch = pytest.MonkeyPatch()
    try:
        single = _capture(monkeypatch, tmp_path_factory.mktemp("c1"),
                          [("gzip", "full", None),
                           ("art", "CPU-300-1M-inf", None)])
        smp = _capture(monkeypatch, tmp_path_factory.mktemp("c2"),
                       [("lockcnt", "full", 2)])
    finally:
        monkeypatch.undo()
    tiers = {"c1-fast": [], "c1-event": [], "c1-fused": [], "c1-mega": []}
    for key, flavor in single.items():
        # fused blocks are event-flavoured and bind the timing model
        if flavor == "event" and "L1D" in key[1]:
            flavor = "fused"
        tiers[f"c1-{flavor}"].append(key)
    tiers["c2"] = list(smp)
    picked = []
    for label, keys in tiers.items():
        keys = sorted(keys, key=lambda key: len(key[0]))
        assert keys, f"the tiny runs built no {label} blocks"
        for key in {keys[0], keys[len(keys) // 2], keys[-1]}:
            picked.append((label, key[0], key[1]))
    return picked


def _vet(source, env):
    sanitizer.sanitize_block_source(
        compile(source, "<block>", "exec"), env, source=source)


def _insertion_points(lines):
    """(index, indent): after the first body line, and after the
    first simple statement nested deeper than the body."""
    points = [(1, "    ")]
    for index in range(2, len(lines)):
        line = lines[index]
        indent = line[:len(line) - len(line.lstrip())]
        if (len(indent) > 4 and not line.rstrip().endswith(":")
                and not _SIMPLE.match(line)
                and not lines[index + 1:index + 2] == [""]):
            points.append((index + 1, indent))
            break
    return points


def _mutants(source, env):
    lines = source.splitlines()
    names = [name for name in sorted(env)
             if re.search(rf"\b{re.escape(name)}\b", source)
             and name[0].isupper()]
    env_name = names[0] if names else "M"
    for construct, statement in MUTANTS.items():
        for index, indent in _insertion_points(lines):
            new = [indent + text.format(local="r", env=env_name)
                   for text in statement]
            yield construct, "\n".join(lines[:index] + new
                                       + lines[index:]) + "\n"


def test_real_blocks_of_every_tier_are_accepted(real_blocks):
    labels = {label for label, _, _ in real_blocks}
    assert labels == {"c1-fast", "c1-event", "c1-mega", "c1-fused", "c2"}
    for _label, source, env in real_blocks:
        _vet(source, env)


def test_every_mutant_of_every_tier_is_rejected(real_blocks):
    accepted = []
    count = 0
    for label, source, env in real_blocks:
        for construct, mutant in _mutants(source, env):
            count += 1
            try:
                _vet(mutant, env)
            except SanitizerError:
                continue
            accepted.append((label, construct))
    assert count >= len(real_blocks) * len(MUTANTS)
    assert not accepted
