"""The multilevel (hub/L2) chunk cache."""

import pytest

from repro.net import HubChannel, LinkModel, with_hub
from repro.sim import run_native
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def image():
    return build_workload("sensor", 0.05)


@pytest.fixture(scope="module")
def native(image):
    return run_native(image)


def hub_system(image, tcache=768, capacity=64 * 1024, far=None):
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=tcache, policy="fifo"))
    hub = with_hub(system, far=far, capacity_bytes=capacity)
    return system, hub


def test_correctness_preserved(image, native):
    system, hub = hub_system(image)
    report = system.run()
    assert report.output == native.output_text


def test_hub_absorbs_refetches(image, native):
    """A thrashing client re-requests evicted chunks; the hub serves
    them without touching the origin."""
    system, hub = hub_system(image)
    system.run()
    stats = hub.hub_stats
    assert stats.requests > 2 * stats.origin_fetches
    assert stats.hit_rate > 0.5
    # the origin saw each distinct chunk once
    assert stats.origin_fetches == system.mc.stats.chunks_built


def test_no_thrash_no_hub_value(image, native):
    """With a roomy client cache every chunk is requested once, so the
    hub cannot hit."""
    system, hub = hub_system(image, tcache=64 * 1024)
    system.run()
    assert hub.hub_stats.hit_rate == 0.0


def test_small_hub_evicts(image, native):
    system, hub = hub_system(image, capacity=512)
    system.run()
    assert hub.hub_stats.evictions > 0
    # still correct and still some hits
    assert hub.hub_stats.requests > 0


def test_hub_reduces_miss_time(image, native):
    """Cycles with a hub in front of a slow origin must beat cycles
    with every miss crossing the slow origin link."""
    slow_far = LinkModel(bandwidth_bps=1e6, latency_s=10e-3)

    system_hub, hub = hub_system(image, far=slow_far)
    report_hub = system_hub.run()

    # same topology but a hub too small to ever hit
    system_nohub, _ = hub_system(image, capacity=0, far=slow_far)
    report_nohub = system_nohub.run()

    assert report_hub.output == report_nohub.output
    assert report_hub.cycles < report_nohub.cycles


def test_data_traffic_bypasses_hub_cache(image):
    hub = HubChannel(LinkModel(), LinkModel())
    t = hub.exchange("data", 64)
    assert hub.hub_stats.requests == 0
    assert t > 0


def test_far_hop_recorded_in_link_stats():
    """Hub misses traverse the far link; its seconds/bytes must land
    in LinkStats, not only in the returned time."""
    near = LinkModel()
    far = LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
    hub = HubChannel(near, far)

    hub.next_keys = [0x1000]
    t_miss = hub.batch_exchange("chunk", [100])
    assert t_miss == pytest.approx(
        near.exchange_time(100) + far.exchange_time(100))
    stats = hub.stats
    assert stats.busy_seconds == pytest.approx(t_miss)
    assert stats.payload_bytes == 200          # both hops carried it
    assert stats.overhead_bytes == 60 + 60
    assert stats.exchanges == 1                # one logical RPC
    # §2.4 metric stays the near-hop per-exchange overhead
    assert stats.overhead_per_exchange() == pytest.approx(60.0)

    # a hub hit pays (and records) the near hop only
    hub.next_keys = [0x1000]
    t_hit = hub.batch_exchange("chunk", [100])
    assert t_hit == pytest.approx(near.exchange_time(100))
    assert stats.busy_seconds == pytest.approx(t_miss + t_hit)
    assert stats.payload_bytes == 300


def test_non_chunk_pass_through_records_both_hops():
    near = LinkModel()
    far = LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
    hub = HubChannel(near, far)
    t = hub.exchange("data", 64)
    assert t == pytest.approx(
        near.exchange_time(64) + far.exchange_time(64))
    assert hub.stats.busy_seconds == pytest.approx(t)
    assert hub.stats.payload_bytes == 128


def test_batch_populates_hub_with_every_chunk():
    near = LinkModel()
    far = LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
    hub = HubChannel(near, far)
    hub.next_keys = [0x100, 0x200, 0x300]
    hub.batch_exchange("chunk", [40, 60, 80])
    assert hub.hub_stats.origin_fetches == 3
    # a later demand for a chunk that arrived only as batch cargo hits
    hub.next_keys = [0x300]
    t = hub.batch_exchange("chunk", [80])
    assert hub.hub_stats.hub_hits == 1
    assert t == pytest.approx(near.exchange_time(80))


def test_batch_forwards_only_missing_chunks_upstream():
    near = LinkModel()
    far = LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
    hub = HubChannel(near, far)
    hub.next_keys = [0x100]
    hub.batch_exchange("chunk", [40])      # warm one chunk
    hub.next_keys = [0x100, 0x200, 0x300]
    t = hub.batch_exchange("chunk", [40, 60, 80])
    assert hub.hub_stats.hub_hits == 1
    # far leg carried only the two missing chunks
    assert t == pytest.approx(near.batch_exchange_time([40, 60, 80]) +
                              far.batch_exchange_time([60, 80]))


def test_replayed_batch_of_one_reinserts_a_chunk_larger_than_the_hub():
    """A replayed chunk RPC re-inserts every key it carries, a batch
    of one included.  A chunk larger than the hub is evicted by its
    own insert, so the retry finds it absent, pays the far hop again
    and evicts it a second time."""
    near = LinkModel()
    far = LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
    hub = HubChannel(near, far, capacity_bytes=64)
    hub.next_keys = [0x100]
    first = hub.batch_exchange("chunk", [100])
    assert 0x100 not in hub._cache
    assert hub.hub_stats.evictions == 1
    hub.next_keys = [0x100]
    hub.replaying = True
    replay = hub.batch_exchange("chunk", [100])
    assert replay == first == pytest.approx(11068.0e-6)
    stats = hub.hub_stats
    assert stats.evictions == 2
    assert (stats.requests, stats.replayed_requests) == (1, 1)
    assert stats.replayed_far_bytes == 100
    assert hub.stats.payload_bytes == 400     # two attempts, two hops
    assert 0x100 not in hub._cache


def test_second_client_hits_hub_on_prefetched_chunk(image):
    """The fleet scenario: client A's prefetch warms the shared hub,
    so client B's *demand* miss for that chunk never reaches the
    origin."""
    config = SoftCacheConfig(tcache_size=8 * 1024, prefetch_depth=4,
                             record_timeline=False)
    sys_a = SoftCacheSystem(image, config)
    hub = with_hub(sys_a)
    sys_a.cc.start()           # one batched demand miss at the entry
    assert sys_a.stats.prefetch_installs > 0
    prefetched = [b for b in sys_a.cc.tcache.order if b.prefetched]
    assert prefetched          # chunks A holds but never executed
    target = prefetched[0].orig

    sys_b = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=8 * 1024, prefetch_depth=0,
        record_timeline=False), shared_mc=sys_a.mc)
    assert with_hub(sys_b, hub=hub) is hub
    before = hub.hub_stats.origin_fetches
    hits_before = hub.hub_stats.hub_hits
    block = sys_b.cc.ensure_translated(target)
    assert block.alive and not block.prefetched
    assert hub.hub_stats.hub_hits == hits_before + 1
    assert hub.hub_stats.origin_fetches == before
