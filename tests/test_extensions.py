"""§4 novel capabilities: chunk pinning and memory-bank power gating."""

import pytest

from repro.eval import native_trace
from repro.lang import compile_program
from repro.net import LOCAL_LINK, FaultPlan, RetryPolicy
from repro.power import StrongARMPower, bank_power_analysis, power_sweep
from repro.sim import run_native
from repro.softcache import SoftCacheConfig, SoftCacheError, SoftCacheSystem
from repro.softcache.tcache import TCacheFull
from repro.workloads import build_workload

PIN_SRC = r"""
int irq_count = 0;

int irq_handler(int cause) {
    irq_count += cause;
    return irq_count;
}

int churn(int n) {
    int i; int acc = 0;
    for (i = 0; i < n; i++) acc += (i * 7) % 13;
    return acc;
}

int main(void) {
    int i;
    int acc = 0;
    for (i = 0; i < 40; i++) {
        acc += churn(20);
        acc += irq_handler(i & 3);
    }
    __putint(acc);
    return 0;
}
"""


def pinned_system(policy="fifo", tcache=320):
    image = compile_program(PIN_SRC, "pin", indirect_ok=False)
    config = SoftCacheConfig(
        tcache_size=tcache, granularity="proc", policy=policy,
        pinned_capacity=1024, link=LOCAL_LINK, debug_poison=True)
    system = SoftCacheSystem(image, config)
    system.pin("irq_handler")
    return image, system


@pytest.mark.parametrize("policy", ["fifo", "flush"])
def test_pinned_chunk_survives_thrashing(policy):
    image, system = pinned_system(policy)
    native = run_native(image)
    report = system.run()
    assert report.output == native.output_text
    # the cache thrashed ...
    assert system.stats.evictions + system.stats.blocks_flushed > 0
    # ... but the pinned handler was translated exactly once
    handler = system.cc.tcache.lookup(image.symbols["irq_handler"])
    assert handler is not None and handler.pinned and handler.alive
    assert handler in system.cc.tcache.pinned_blocks


def test_pinned_counts_in_memory_accounting():
    image, system = pinned_system()
    usage = system.local_memory_in_use
    assert usage["pinned_bytes"] > 0
    system.run()
    assert system.local_memory_in_use["pinned_bytes"] == \
        usage["pinned_bytes"]


def test_pin_requires_capacity():
    image = compile_program(PIN_SRC, "pin2", indirect_ok=False)
    config = SoftCacheConfig(tcache_size=2048, granularity="proc",
                             pinned_capacity=0)
    system = SoftCacheSystem(image, config)
    with pytest.raises(TCacheFull, match="pinned"):
        system.pin("irq_handler")


def test_pin_after_translation_rejected():
    image = compile_program(PIN_SRC, "pin3", indirect_ok=False)
    config = SoftCacheConfig(tcache_size=8192, granularity="proc",
                             pinned_capacity=1024, link=LOCAL_LINK)
    system = SoftCacheSystem(image, config)
    system.run()
    with pytest.raises(SoftCacheError, match="already resident"):
        system.pin("irq_handler")


def test_pin_by_address_and_idempotent():
    image = compile_program(PIN_SRC, "pin4", indirect_ok=False)
    config = SoftCacheConfig(tcache_size=2048, granularity="proc",
                             pinned_capacity=1024, link=LOCAL_LINK)
    system = SoftCacheSystem(image, config)
    addr = image.symbols["irq_handler"]
    system.pin(addr)
    before = system.stats.translations
    system.pin(addr)  # idempotent
    assert system.stats.translations == before


def test_pinning_block_granularity():
    from repro.cfg import build_cfg
    image = compile_program(PIN_SRC, "pin5")
    native = run_native(image)
    # barely larger than the biggest chunk: guaranteed flush churn
    biggest = max(b.size for b in build_cfg(image).blocks.values())
    config = SoftCacheConfig(tcache_size=biggest + 48,
                             granularity="block",
                             policy="flush", pinned_capacity=1024,
                             link=LOCAL_LINK, debug_poison=True)
    system = SoftCacheSystem(image, config)
    system.pin("irq_handler")  # pins the handler's entry chunk
    report = system.run()
    assert report.output == native.output_text
    assert system.stats.flushes > 0
    handler = system.cc.tcache.lookup(image.symbols["irq_handler"])
    assert handler is not None and handler.pinned


@pytest.mark.parametrize("plan", [None, "partition=0:4"])
def test_pin_fetches_one_chunk_and_counts_its_rewriting_words(plan):
    """A pin is a batch of one even under prefetch, also when its
    fetch is replayed after a link-down, and its rewriting-added words
    count toward extra_instructions_per_translation."""
    image = build_workload("sensor", 0.05)
    config = SoftCacheConfig(
        tcache_size=2048, granularity="block", prefetch_depth=2,
        pinned_capacity=1024,
        fault_plan=FaultPlan.parse(plan) if plan else None,
        retry_policy=RetryPolicy(max_attempts=4))
    system = SoftCacheSystem(image, config)
    system.pin("mode_init")
    block = system.cc.tcache.lookup(image.symbols["mode_init"])
    stats = system.stats
    assert block.pinned and block.extra_words == 1
    assert stats.translations == 1
    assert stats.extra_words_installed == 1
    assert stats.extra_instructions_per_translation() == 1.0
    assert stats.prefetch_installs == 0
    assert system.mc.stats.batch_requests == 0
    assert system.channel.stats.batched_chunks == 0
    assert stats.pending_miss_replays == (1 if plan else 0)


# -- bank power gating -------------------------------------------------------


@pytest.fixture(scope="module")
def sensor_trace():
    return native_trace("sensor", 0.1)


def test_duty_cycle_bounds(sensor_trace):
    result = bank_power_analysis(sensor_trace.image, sensor_trace.trace,
                                 8192, bank_size=1024)
    assert 0.0 < result.mean_duty <= 1.0
    assert len(result.bank_duty) == 8
    assert all(0.0 <= d <= 1.0 for d in result.bank_duty)
    assert result.instructions == sensor_trace.trace.size


def test_small_working_set_lights_few_banks(sensor_trace):
    """Provisioning more memory than the working set costs nothing
    with bank gating: extra banks stay asleep."""
    result = bank_power_analysis(sensor_trace.image, sensor_trace.trace,
                                 32768, bank_size=1024)
    lit = sum(1 for d in result.bank_duty if d > 0.01)
    assert lit < result.nbanks / 2
    assert result.icache_power_saving_fraction > 0.1


def test_duty_decreases_with_size(sensor_trace):
    results = power_sweep(sensor_trace.image, sensor_trace.trace,
                          [2048, 8192, 32768], bank_size=1024)
    duties = [r.mean_duty for r in results]
    assert duties[0] >= duties[1] >= duties[2]
    # absolute powered bytes stabilize at the working set
    powered = [r.mean_duty * r.tcache_size for r in results]
    assert powered[2] < 2.5 * powered[0]


def test_wakeups_bounded_without_thrash(sensor_trace):
    result = bank_power_analysis(sensor_trace.image, sensor_trace.trace,
                                 32768, bank_size=1024)
    # steady working set: each lit bank wakes once
    assert result.wakeups <= result.nbanks


def test_strongarm_fractions():
    power = StrongARMPower()
    assert power.cache_total_fraction == pytest.approx(0.45)


def test_bank_size_validation(sensor_trace):
    with pytest.raises(ValueError):
        bank_power_analysis(sensor_trace.image, sensor_trace.trace,
                            3000, bank_size=1024)
