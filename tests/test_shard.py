"""Consistent-hash ring and sharded MC tier (docs/FLEET.md)."""

import pytest

from repro.fleet import (
    ConsistentHashRing,
    ShardedMemoryController,
    aggregate_mc_stats,
)
from repro.softcache import MemoryController, SoftCacheConfig, SoftCacheSystem
from repro.softcache.debug import architectural_state
from repro.workloads import build_workload

KEYS = [i * 0x40 for i in range(2000)]


def test_ownership_is_deterministic():
    """Same shards, same keys → same owners, across ring instances
    (the hash is content-keyed, never salted by process state)."""
    a = ConsistentHashRing(range(4))
    b = ConsistentHashRing(range(4))
    assert [a.owner(k) for k in KEYS] == [b.owner(k) for k in KEYS]


def test_single_shard_owns_everything():
    ring = ConsistentHashRing([0])
    assert all(ring.owner(k) == 0 for k in KEYS)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_balance(n):
    """With 64 vnodes per shard, no shard owns more than ~2x its fair
    share of a uniform key population."""
    ring = ConsistentHashRing(range(n))
    counts = {i: 0 for i in range(n)}
    for k in KEYS:
        counts[ring.owner(k)] += 1
    fair = len(KEYS) / n
    assert min(counts.values()) > 0
    assert max(counts.values()) <= 2.0 * fair


def test_add_shard_remaps_at_most_fair_share():
    """Growing N-1 → N moves only keys the new shard now owns — at
    most ~K/N of them; every moved key lands on the new shard."""
    n = 4
    before = ConsistentHashRing(range(n - 1))
    owners = {k: before.owner(k) for k in KEYS}
    before.add_shard(n - 1)
    moved = [k for k in KEYS if before.owner(k) != owners[k]]
    assert 0 < len(moved) <= 1.5 * len(KEYS) / n
    assert all(before.owner(k) == n - 1 for k in moved)


def test_remove_shard_remaps_only_its_keys():
    n = 4
    ring = ConsistentHashRing(range(n))
    owners = {k: ring.owner(k) for k in KEYS}
    ring.remove_shard(2)
    for k in KEYS:
        if owners[k] != 2:
            assert ring.owner(k) == owners[k]
        else:
            assert ring.owner(k) != 2


def test_last_shard_cannot_be_removed():
    ring = ConsistentHashRing([0])
    with pytest.raises(ValueError):
        ring.remove_shard(0)


@pytest.mark.parametrize("depth", [0, 2])
def test_sharded_mc_serves_like_one_mc(depth):
    """A solo client against the sharded tier reaches the same
    architectural state as against one MC, and the shard stats sum
    to the monolithic counters.  At depth 2 the sharded batch walk
    must pick the same prefetched chunks as the MC's."""
    image = build_workload("sensor", 0.05)
    config = SoftCacheConfig(tcache_size=8192, prefetch_depth=depth)

    mono_mc = MemoryController(image)
    mono = SoftCacheSystem(image, config, shared_mc=mono_mc)
    mono.run()

    sharded_mc = ShardedMemoryController(image, 4)
    system = SoftCacheSystem(image, config, shared_mc=sharded_mc)
    system.run()

    assert architectural_state(system) == architectural_state(mono)
    agg = sharded_mc.stats
    assert agg.requests == mono_mc.stats.requests
    assert agg.chunks_built == mono_mc.stats.chunks_built
    assert agg.bytes_served == mono_mc.stats.bytes_served
    assert agg.prefetch_chunks_sent == mono_mc.stats.prefetch_chunks_sent
    assert agg.batch_requests == mono_mc.stats.batch_requests
    assert system.stats.prefetch_installs == mono.stats.prefetch_installs
    if depth:
        assert agg.prefetch_chunks_sent > 0
    assert aggregate_mc_stats(
        [s.stats for s in sharded_mc.shards]).requests == agg.requests
    # the ring actually spread the chunk population
    building = [s for s in sharded_mc.shards if s.stats.chunks_built]
    assert len(building) > 1
