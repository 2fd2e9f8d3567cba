"""The SPARC-style (block/EBB) cache controller: behavior, patching,
eviction, invalidation, steady-state guarantees."""

import pytest

from repro.lang import compile_program
from repro.sim import run_native
from repro.softcache import (
    SoftCacheConfig,
    SoftCacheError,
    SoftCacheSystem,
    run_softcache,
)

from conftest import assert_equivalent

LOOP_SRC = r"""
int work(int x) { return x * 2 + 1; }

int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 100; i++) acc += work(i);
    __putint(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_image():
    return compile_program(LOOP_SRC, "loop")


def test_basic_equivalence(loop_image):
    assert_equivalent(loop_image,
                      SoftCacheConfig(tcache_size=8192,
                                      debug_poison=True))


def test_steady_state_no_retranslation(loop_image):
    """Once the loop's blocks are chained, no further misses occur:
    the paper's zero-tag-check steady state."""
    config = SoftCacheConfig(tcache_size=16384, debug_poison=True)
    report, system = run_softcache(loop_image, config)
    stats = system.stats
    # every chunk translated exactly once (no eviction, no rework)
    assert stats.evictions == 0 and stats.flushes == 0
    assert stats.translations == system.mc.stats.chunks_built
    # trap counts are bounded by translations (each site patched once)
    assert stats.branch_miss_traps <= stats.translations * 2


def test_translations_bounded_by_static_blocks(loop_image):
    from repro.cfg import build_cfg
    config = SoftCacheConfig(tcache_size=16384)
    _, system = run_softcache(loop_image, config)
    cfg = build_cfg(loop_image)
    # without eviction, cannot translate more chunks than blocks exist
    assert system.stats.translations <= len(cfg.blocks)


def test_infinite_cache_one_miss_per_block(loop_image):
    config = SoftCacheConfig(tcache_size=64 * 1024)
    report, system = run_softcache(loop_image, config)
    # every miss trap translates at most one chunk, plus the entry
    assert system.stats.translations <= system.stats.miss_traps + 1


def test_jr_hash_fallback_counts():
    src = r"""
int f1(int x) { return x + 1; }
int f2(int x) { return x + 2; }
int main(void) {
    int i;
    int acc = 0;
    int fp;
    for (i = 0; i < 20; i++) {
        if (i & 1) fp = &f1;
        else fp = &f2;
        acc += fp(i);
    }
    __putint(acc);
    return 0;
}
"""
    image = compile_program(src, "indirect")
    native, report, system = assert_equivalent(
        image, SoftCacheConfig(tcache_size=16384, debug_poison=True))
    # every indirect call pays the hash lookup: >= 20 lookups
    assert system.stats.jr_lookups >= 20


def test_switch_jump_table_under_softcache():
    src = r"""
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 32; i++) {
        switch (i % 8) {
        case 0: acc += 1; break;
        case 1: acc += 2; break;
        case 2: acc += 3; break;
        case 3: acc += 5; break;
        case 4: acc += 7; break;
        case 5: acc += 11; break;
        case 6: acc += 13; break;
        default: acc += 17; break;
        }
    }
    __putint(acc);
    return 0;
}
"""
    image = compile_program(src, "switchy")
    native, report, system = assert_equivalent(
        image, SoftCacheConfig(tcache_size=16384, debug_poison=True))
    # 28 of 32 iterations go through the jump table (4 hit default)
    assert system.stats.jr_lookups == 28


@pytest.mark.parametrize("granularity", ["block", "ebb"])
@pytest.mark.parametrize("policy", ["fifo", "flush"])
@pytest.mark.parametrize("size", [160, 256, 1024])
def test_tiny_tcache_equivalence(loop_image, granularity, policy, size):
    """Thrash-mode correctness across the config matrix."""
    config = SoftCacheConfig(tcache_size=size, granularity=granularity,
                             policy=policy, debug_poison=True)
    assert_equivalent(loop_image, config)


def test_recursion_deep_stack_eviction():
    """Deep recursion plants many return addresses on the stack; a
    thrashing tcache must fix all of them on each eviction."""
    src = r"""
int sum(int n) {
    if (n == 0) return 0;
    return n + sum(n - 1);
}
int main(void) {
    __putint(sum(200));
    return 0;
}
"""
    image = compile_program(src, "recur")
    for policy in ("fifo", "flush"):
        config = SoftCacheConfig(tcache_size=256, policy=policy,
                                 debug_poison=True)
        native, report, system = assert_equivalent(image, config)
        assert system.stats.stack_slots_fixed > 0


def test_extra_instructions_per_block(loop_image):
    """§2.2: the block chunker adds ~1-2 instructions per translated
    block; the EBB chunker optimizes them away."""
    block_cfg = SoftCacheConfig(tcache_size=32768, granularity="block")
    ebb_cfg = SoftCacheConfig(tcache_size=32768, granularity="ebb")
    _, sys_block = run_softcache(loop_image, block_cfg)
    _, sys_ebb = run_softcache(loop_image, ebb_cfg)
    assert sys_block.stats.extra_instructions_per_translation() > 0.3
    assert sys_ebb.stats.extra_instructions_per_translation() < 0.1


def test_ebb_faster_than_block(loop_image):
    native = run_native(loop_image)
    _, sys_block = run_softcache(
        loop_image, SoftCacheConfig(tcache_size=32768,
                                    granularity="block"))
    _, sys_ebb = run_softcache(
        loop_image, SoftCacheConfig(tcache_size=32768, granularity="ebb"))
    assert sys_ebb.machine.cpu.cycles < sys_block.machine.cpu.cycles


def test_fetch_can_never_escape_tcache(loop_image):
    """Remote text is non-executable under the SoftCache."""
    system = SoftCacheSystem(loop_image, SoftCacheConfig())
    assert not system.machine.mem.region_named("text").executable


def test_run_report_fields(loop_image):
    report, system = run_softcache(loop_image, SoftCacheConfig())
    assert report.exit_code == 0
    assert report.instructions > 0
    assert report.cycles >= report.instructions
    assert report.seconds == pytest.approx(
        report.cycles / system.config.costs.cpu_hz)


def test_local_memory_accounting(loop_image):
    _, system = run_softcache(loop_image,
                              SoftCacheConfig(tcache_size=4096))
    usage = system.local_memory_in_use
    assert usage["tcache_capacity"] == 4096
    assert 0 < usage["tcache_used"] <= 4096
    assert usage["map_bytes"] == 8 * system.cc.tcache.resident_blocks


def test_link_traffic_accounted(loop_image):
    _, system = run_softcache(loop_image, SoftCacheConfig())
    stats = system.link_stats
    assert stats.exchanges == system.stats.translations
    assert stats.overhead_per_exchange() == 60.0
    assert stats.payload_bytes == system.mc.stats.bytes_served


def test_guest_invalidate_flushes(loop_image):
    src = r"""
int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 10; i++) acc += i;
    __invalidate(0, 4096);
    for (i = 0; i < 10; i++) acc += i;
    __putint(acc);
    return 0;
}
"""
    image = compile_program(src, "inval")
    config = SoftCacheConfig(tcache_size=16384, debug_poison=True)
    native, report, system = assert_equivalent(image, config)
    assert system.stats.guest_invalidations == 1


def test_stub_exhaustion_raises_helpfully(loop_image):
    config = SoftCacheConfig(tcache_size=8192, stub_capacity=4,
                             policy="fifo")
    with pytest.raises(SoftCacheError, match="stub"):
        run_softcache(loop_image, config)


#: The valid range each sized knob's error must state.
_CONFIG_BOUNDS = {
    "tcache_size": ">= 1 (an int)",
    "prefetch_depth": ">= 0 (an int)",
    "stub_capacity": ">= 0 (an int or None)",
    "redirector_capacity": ">= 0 (an int or None)",
    "pinned_capacity": ">= 0 (an int)",
}


@pytest.mark.parametrize("field,value", [
    ("tcache_size", 0), ("tcache_size", -64), ("tcache_size", 1024.0),
    ("prefetch_depth", -1), ("prefetch_depth", 2.5),
    ("stub_capacity", -4), ("redirector_capacity", -1),
    ("pinned_capacity", -8), ("pinned_capacity", None),
])
def test_config_rejects_bad_values_at_construction(field, value):
    """A bad knob fails when the config is built, with an error that
    names the field, the value and the valid range, not at the first
    miss or when an area runs out."""
    with pytest.raises(ValueError) as exc:
        SoftCacheConfig(**{field: value})
    assert str(exc.value) == (
        f"{field} must be {_CONFIG_BOUNDS[field]}; got {value!r}")


def test_chunk_larger_than_tcache():
    from repro.softcache import TCacheFull
    image = compile_program(LOOP_SRC, "loop2")
    with pytest.raises(TCacheFull):
        run_softcache(image, SoftCacheConfig(tcache_size=16,
                                             granularity="block"))
