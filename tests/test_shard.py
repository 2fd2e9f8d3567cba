"""Consistent-hash ring and sharded MC tier (docs/FLEET.md)."""

from dataclasses import asdict

import pytest

from repro.asm import assemble_and_link
from repro.fleet import (
    ConsistentHashRing,
    ShardedMemoryController,
    aggregate_mc_stats,
)
from repro.softcache import MemoryController, SoftCacheConfig, SoftCacheSystem
from repro.softcache.debug import architectural_state
from repro.softcache.update import derive_patched_image
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
    assert asdict(agg) == asdict(mono_mc.stats)
    assert system.stats.prefetch_installs == mono.stats.prefetch_installs
    if depth:
        assert agg.prefetch_chunks_sent > 0
    assert aggregate_mc_stats(
        [s.stats for s in sharded_mc.shards]).requests == agg.requests
    # the ring actually spread the chunk population
    building = [s for s in sharded_mc.shards if s.stats.chunks_built]
    assert len(building) > 1


def _never_resident(orig):
    return False


def _serve_on_both(mono, tier, orig, depth):
    """Serve *orig* on both tiers; the replies must carry the same
    chunks and bytes, and the tier's aggregate must equal the single
    MC's counters."""
    replies = []
    for mc in (mono, tier):
        batch = mc.serve_batch(orig, depth, _never_resident)
        replies.append([(c.orig, p) for c, p in batch])
    assert replies[0] == replies[1]
    assert asdict(tier.stats) == asdict(mono.stats)
    return replies[0]


def test_lagging_client_batch_is_served_alike_on_both_tiers():
    """A client still on epoch 0 after a publish: both tiers walk the
    epoch-0 graph, ship the same chunks, bill the batch's prefetch
    counters and its retained-epoch rewrites the same way and build
    no current-epoch chunk for it.  Publishes, no-ops, rollbacks and
    restarts are tier-wide events, counted once by the sharded
    aggregate."""
    image = build_workload("sensor", 0.05)
    patched = derive_patched_image(image)
    mono = MemoryController(image)
    tier = ShardedMemoryController(image, 4)
    for mc in (mono, tier):
        mc.publish(patched)
        mc.client_epoch = 0
    assert _serve_on_both(mono, tier, image.entry, 0)
    reply = _serve_on_both(mono, tier, image.entry, 2)
    assert len(reply) == 3
    assert mono.stats.prefetch_chunks_sent == 2
    # the epoch-0 server's three rewrites are billed to its owner ...
    assert mono.stats.chunks_built == tier.stats.chunks_built == 3
    # ... and no current-epoch chunk was built
    assert not mono._chunk_cache
    assert not any(shard._chunk_cache for shard in tier.shards)
    assert mono.stats.stale_serves == 2
    for mc in (mono, tier):
        mc.publish(patched)  # no-op: already current
        mc.publish(derive_patched_image(image, seed=2), durable=False)
        mc.restart()  # rolls the non-durable epoch back
    assert asdict(tier.stats) == asdict(mono.stats)
    st = mono.stats
    assert (st.publishes, st.publish_noops, st.publish_rollbacks,
            st.restarts) == (2, 1, 1, 1)


def test_tier_image_follows_a_rollback():
    """The tier names the image its shards serve: a restart that
    rolls back a non-durable publish takes the facade back too."""
    image = build_workload("sensor", 0.05)
    tier = ShardedMemoryController(image, 2)
    tier.publish(derive_patched_image(image, seed=2), durable=False)
    assert tier.image is tier.shards[0].image is not image
    tier.restart()
    assert tier.image is tier.shards[0].image is image
    assert tier.image.name == "sensor"


UNCHUNKABLE_SRC = """
    .global main
    .proc main
main:
    jal  good
    jal  bad
    ret
    .global good
    .proc good
good:
    li   a0, 1
    ret
    .global bad
    .proc bad
bad:
    jr   t5
"""


def test_unchunkable_successor_is_skipped_and_forgotten():
    """A successor that fails to chunk (an indirect jump under proc
    granularity) is left out of the batch and remembered by the MC
    that owns it; invalidation, a publish and a restart each forget
    it.  One MC and a 4-shard tier agree throughout."""
    image = assemble_and_link(UNCHUNKABLE_SRC)
    main, good, bad = (image.symbols[n] for n in ("main", "good", "bad"))
    mono = MemoryController(image, granularity="proc")
    tier = ShardedMemoryController(image, 4, granularity="proc")
    owners = {mono: mono, tier: tier.shard_for(bad)}

    def remembered():
        return [bad in owners[mc]._unchunkable for mc in (mono, tier)]

    def serve():
        reply = _serve_on_both(mono, tier, main, 2)
        assert [orig for orig, _ in reply] == [main, good]
        assert remembered() == [True, True]

    serve()
    assert mono.stats.prefetch_chunks_sent == 1
    for mc in (mono, tier):
        mc.invalidate_chunks(bad, 4)
    assert remembered() == [False, False]
    serve()
    relinked = assemble_and_link(
        UNCHUNKABLE_SRC.replace("li   a0, 1", "li   a0, 2"))
    for mc in (mono, tier):
        mc.publish(relinked)
    assert remembered() == [False, False]
    serve()
    for mc in (mono, tier):
        mc.restart()
    assert remembered() == [False, False]
    serve()
