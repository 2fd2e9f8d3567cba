"""Shared helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.asm import assemble_and_link
from repro.eval.common import set_trace_cache_dir
from repro.lang import compile_program
from repro.sim import Machine, MachineConfig, run_native
from repro.softcache import SoftCacheConfig, SoftCacheSystem


@pytest.fixture(autouse=True, scope="session")
def _hermetic_trace_cache(tmp_path_factory):
    """Keep the persistent trace cache out of the repo during tests."""
    set_trace_cache_dir(tmp_path_factory.mktemp("traces"))
    yield
    set_trace_cache_dir(None)


def served_reply(*chunks):
    """A stand-in for the reply ``mc.serve_batch`` returns: one
    ``(chunk, payload)`` per ``(orig, payload_bytes)``, demand first,
    for handing to a channel's ``batch_exchange``."""
    return [(SimpleNamespace(orig=orig, payload_bytes=size), bytes(size))
            for orig, size in chunks]


def run_asm(source: str, max_instructions: int = 5_000_000) -> Machine:
    """Assemble, link and run *source* natively; return the machine."""
    image = assemble_and_link(source, "test")
    machine = Machine(image)
    machine.run(max_instructions)
    return machine


def run_minc(source: str, max_instructions: int = 20_000_000,
             **compile_kwargs) -> Machine:
    """Compile and natively run a MinC program."""
    image = compile_program(source, "test", **compile_kwargs)
    machine = Machine(image)
    machine.run(max_instructions)
    return machine


def run_both(image, config: SoftCacheConfig | None = None,
             max_instructions: int = 20_000_000):
    """Run *image* natively and under a SoftCache; return both."""
    native = run_native(image, max_instructions=max_instructions)
    config = config or SoftCacheConfig(debug_poison=True)
    system = SoftCacheSystem(image, config)
    report = system.run(max_instructions)
    return native, report, system


def assert_equivalent(image, config: SoftCacheConfig,
                      max_instructions: int = 20_000_000):
    """Assert SoftCache execution is architecturally identical to
    native: same output, same exit code."""
    native, report, system = run_both(image, config, max_instructions)
    assert report.output == native.output_text, (
        f"output diverged under {config}")
    assert report.exit_code == (native.cpu.exit_code or 0)
    return native, report, system


@pytest.fixture
def tiny_loop_image():
    """A small program with a loop, calls and branches."""
    src = r"""
int helper(int x) { return x * 3 + 1; }

int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 25; i++) {
        if (i % 3 == 0) acc += helper(i);
        else acc -= i;
    }
    __putint(acc);
    __putchar(10);
    return 0;
}
"""
    return compile_program(src, "tiny_loop")
