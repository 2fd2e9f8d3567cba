"""Batched miss delivery and successor prefetch (`prefetch_depth`)."""

import pytest

from repro.lang import compile_program
from repro.net import LinkModel
from repro.sim import run_native
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.softcache.mc import MemoryController
from repro.workloads import build_workload

CHAIN_SRC = r"""
int f1(int x) { return x * 3 + 1; }
int f2(int x) { if (x & 1) return f1(x); return x - 2; }
int f3(int n) {
    int i; int acc = 0;
    for (i = 0; i < n; i++) acc += f2(i);
    return acc;
}
int main(void) {
    int round;
    int acc = 0;
    for (round = 0; round < 8; round++) acc += f3(12 + round);
    __putint(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def chain_image():
    return compile_program(CHAIN_SRC, "chain")


@pytest.fixture(scope="module")
def sensor_image():
    return build_workload("sensor", 0.05)


# -- the static chunk-successor graph ---------------------------------


def test_successor_graph_well_formed(chain_image):
    mc = MemoryController(chain_image, granularity="block")
    [(chunk, _)] = mc.serve_batch(chain_image.entry, 0, None)
    succs = chunk.successors
    assert succs == mc.successors_of(chain_image.entry)
    assert chunk.orig not in succs          # no self edges
    assert len(set(succs)) == len(succs)    # deduplicated
    for succ in succs:                      # every edge is chunkable
        assert mc.serve_batch(succ, 0, None)[0][0].orig == succ


def test_serve_batch_demand_first_and_depth_cap(chain_image):
    mc = MemoryController(chain_image, granularity="block")
    for depth in (1, 2, 4, 16):
        batch = mc.serve_batch(chain_image.entry, depth,
                               lambda orig: False)
        assert batch[0][0].orig == chain_image.entry
        assert len(batch) <= depth + 1
        origs = [chunk.orig for chunk, _ in batch]
        assert len(set(origs)) == len(origs)
        for chunk, payload in batch:
            # the encoded body; exit records add 4B each on the wire
            assert len(payload) == chunk.size


def test_serve_batch_skips_resident_successors(chain_image):
    mc = MemoryController(chain_image, granularity="block")
    entry = chain_image.entry
    # everything except the demanded chunk is already resident: the
    # reply degenerates to the plain one-chunk protocol
    batch = mc.serve_batch(entry, 8, lambda orig: orig != entry)
    assert [chunk.orig for chunk, _ in batch] == [entry]


def test_serve_batch_counts_prefetch_traffic(chain_image):
    mc = MemoryController(chain_image, granularity="block")
    batch = mc.serve_batch(chain_image.entry, 4, lambda orig: False)
    assert mc.stats.batch_requests == 1
    assert mc.stats.prefetch_chunks_sent == len(batch) - 1
    assert mc.stats.prefetch_bytes_served == sum(
        chunk.payload_bytes for chunk, _ in batch[1:])


# -- end-to-end behaviour ---------------------------------------------


def run_depth(image, depth, tcache=2048, granularity="block",
              max_instructions=50_000_000):
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=tcache, granularity=granularity,
        prefetch_depth=depth, link=LinkModel(),
        record_timeline=False, debug_poison=True))
    report = system.run(max_instructions)
    return system, report


def test_prefetch_preserves_correctness(chain_image):
    native = run_native(chain_image)
    for depth in (1, 4):
        system, report = run_depth(chain_image, depth, tcache=512)
        assert report.output == native.output_text


def test_prefetch_stats_partition_translations(sensor_image):
    system, report = run_depth(sensor_image, 4)
    s = system.stats
    assert s.prefetch_installs > 0
    assert s.demand_translations + s.prefetch_installs == s.translations
    assert s.prefetch_hits <= s.prefetch_installs
    link = system.link_stats
    assert link.batch_exchanges > 0
    assert link.batched_chunks > link.batch_exchanges  # >1 chunk/batch


def test_prefetch_reduces_miss_service_time(sensor_image):
    base_sys, base = run_depth(sensor_image, 0)
    deep_sys, deep = run_depth(sensor_image, 4)
    assert deep.output == base.output
    assert deep_sys.stats.miss_service_cycles < \
        base_sys.stats.miss_service_cycles
    assert deep_sys.link_stats.exchanges < base_sys.link_stats.exchanges
    assert deep.cycles < base.cycles


def test_depth_zero_is_bitwise_baseline(sensor_image):
    """`prefetch_depth=0` must be indistinguishable from the seed
    protocol: no batches, no prefetch stats, same cycles as default."""
    default_sys, default = run_depth(sensor_image, 0)
    s = default_sys.stats
    assert s.prefetch_installs == s.prefetch_hits == s.prefetch_drops == 0
    assert s.wasted_prefetch_bytes == 0
    assert s.demand_translations == s.translations
    assert default_sys.link_stats.batch_exchanges == 0
    assert default_sys.mc.stats.batch_requests == 0


def test_prefetch_never_evicts_for_speculation(sensor_image):
    """Under a thrashing tcache, speculation is dropped rather than
    admitted at the expense of resident code."""
    system, report = run_depth(sensor_image, 4, tcache=768)
    s = system.stats
    assert s.prefetch_drops > 0
    assert s.prefetch_dropped_bytes > 0
    # wasted bytes: prefetched blocks evicted before first use
    assert s.wasted_prefetch_bytes >= 0
    native = run_native(sensor_image)
    assert report.output == native.output_text


def test_negative_depth_rejected(chain_image):
    with pytest.raises(ValueError):
        SoftCacheSystem(chain_image,
                        SoftCacheConfig(prefetch_depth=-1))


# -- bookkeeping audits (softcache.debug) -----------------------------


def test_consistency_after_prefetch_install(sensor_image):
    """Speculatively installed blocks must be fully linked into the
    CC graph: audit the whole tcache after a comfortable prefetching
    run (installs, no eviction pressure)."""
    from repro.softcache.debug import check_consistency
    system, _ = run_depth(sensor_image, 4, tcache=8192)
    assert system.stats.prefetch_installs > 0
    assert system.stats.evictions == 0
    assert check_consistency(system.cc) > 0


def test_consistency_after_prefetch_eviction(sensor_image):
    """Evicting prefetched-but-never-entered blocks (and the demand
    blocks around them) must leave no dangling stubs or links; the
    thrashing tcache exercises both install and eviction paths, with
    debug_poison making any stale pointer fault loudly."""
    from repro.softcache.debug import check_consistency
    system, _ = run_depth(sensor_image, 4, tcache=768)
    assert system.stats.prefetch_installs > 0
    assert system.stats.prefetch_drops > 0
    assert system.stats.evictions > 0
    assert check_consistency(system.cc) > 0
