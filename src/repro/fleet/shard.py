"""Consistent-hash sharded MC tier: the fleet's origin servers.

One :class:`~repro.softcache.mc.MemoryController` per shard, with
chunk ownership decided by a consistent-hash ring over original
addresses (Open-CAS keeps per-core cache statistics the same way:
each worker owns a stable slice of the key space and reports its own
counters).  The :class:`ShardedMemoryController` is a drop-in for a
single ``MemoryController``: the cache controller and fault layer see
the usual ``serve_batch`` / ``checksum_of`` surface, while every
request lands on the shard that owns the chunk and is accounted in
that shard's :class:`~repro.softcache.mc.MCStats`.  There is one batch
walk, :meth:`MemoryController.serve_batch`: the tier enters it at the
demanded chunk's owner and hands it the ring, so each prefetched chunk
is produced and billed by its own owner.

Rewriting is deterministic and chunks are keyed by original address,
so sharding is architecturally invisible: a sharded fleet run reaches
the same digest and the same simulated seconds as an unsharded one
(tests pin this).  What sharding changes is *load*: the event-driven
scheduler (:mod:`repro.fleet.sched`) models each shard as its own
queueing server, so shard imbalance shows up as emergent queueing
delay instead of a post-hoc estimate.
"""

from __future__ import annotations

import dataclasses
import hashlib
from bisect import bisect_right
from typing import Callable, Iterable

from ..asm.image import Image
from ..softcache.chunks import Chunk, ChunkError
from ..softcache.mc import MCStats, MemoryController


def _ring_hash(data: bytes) -> int:
    """Stable 64-bit point on the ring (host-hash-salt independent)."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """A classic consistent-hash ring with virtual nodes.

    Each shard id contributes *vnodes* points; a key is owned by the
    first point clockwise from its hash.  Adding or removing a shard
    moves only the keys that point's arcs covered — on average K/N of
    K keys for a removal, K/(N+1) for an addition — which is the whole
    reason to prefer it over ``key % N`` for an origin tier that may
    be resized while clients hold warm caches.
    """

    def __init__(self, shard_ids: Iterable[int] | int, *,
                 vnodes: int = 64):
        if isinstance(shard_ids, int):
            shard_ids = range(shard_ids)
        self.vnodes = vnodes
        self._shards: set[int] = set()
        self._points: list[tuple[int, int]] = []  # (hash, shard id)
        for sid in shard_ids:
            self.add_shard(sid)
        if not self._shards:
            raise ValueError("ring needs at least one shard")

    def __len__(self) -> int:
        return len(self._shards)

    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._shards))

    def _rebuild(self) -> None:
        self._points = sorted(
            (_ring_hash(f"shard:{sid}:{r}".encode()), sid)
            for sid in self._shards for r in range(self.vnodes))
        self._hashes = [h for h, _ in self._points]

    def add_shard(self, sid: int) -> None:
        if sid in self._shards:
            raise ValueError(f"shard {sid} already on the ring")
        self._shards.add(sid)
        self._rebuild()

    def remove_shard(self, sid: int) -> None:
        if sid not in self._shards:
            raise ValueError(f"shard {sid} not on the ring")
        if len(self._shards) == 1:
            raise ValueError("cannot remove the last shard")
        self._shards.discard(sid)
        self._rebuild()

    def owner(self, key: int) -> int:
        """The shard owning *key* (an original chunk address)."""
        h = _ring_hash(key.to_bytes(8, "little", signed=False))
        i = bisect_right(self._hashes, h)
        if i == len(self._points):
            i = 0  # wrap: first point clockwise from the top
        return self._points[i][1]


#: Tier-wide events: publishes and restarts fan out to every shard,
#: so the shards count each one in lockstep and the tier counts it once.
TIER_WIDE = frozenset({"publishes", "publish_noops", "publish_rollbacks",
                       "restarts"})


def aggregate_mc_stats(parts: Iterable[MCStats]) -> MCStats:
    """One fleet-wide MCStats: per-shard service counters summed,
    each :data:`TIER_WIDE` event counted once."""
    parts = list(parts)
    total = MCStats()
    for f in dataclasses.fields(MCStats):
        if f.name in TIER_WIDE:
            value = getattr(parts[0], f.name) if parts else 0
        else:
            value = sum(getattr(part, f.name) for part in parts)
        setattr(total, f.name, value)
    return total


class ShardedMemoryController:
    """N origin shards behind one MemoryController-shaped facade.

    A chunk request is forwarded to the consistent-hash owner of the
    demanded address, whose batch walk asks the ring for the owner of
    every prefetched chunk (each is produced — and billed — by its
    own owner, which also remembers the addresses that fail to
    chunk).  ``invalidate_chunks`` and
    ``restart`` fan out to every shard: guest invalidation is a
    correctness broadcast, and the fault layer's MC crash models a
    correlated origin outage (per-shard fault plans are a fleet-level
    concern, not a server-side one).
    """

    def __init__(self, image: Image, n_shards: int,
                 granularity: str = "block", *, vnodes: int = 64):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.image = image
        self.granularity = granularity
        self.shards = [MemoryController(image, granularity=granularity)
                       for _ in range(n_shards)]
        self.ring = ConsistentHashRing(n_shards, vnodes=vnodes)
        #: Epoch that produced the bytes of the most recent serve
        #: (mirrors the owning shard's value; the hub keys entries
        #: with it).
        self.last_served_epoch = 0

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- MemoryController facade ---------------------------------------

    @property
    def stats(self) -> MCStats:
        """Fleet-wide aggregate of the per-shard counters."""
        return aggregate_mc_stats(s.stats for s in self.shards)

    @property
    def tracer(self):
        return self.shards[0].tracer

    @tracer.setter
    def tracer(self, value) -> None:
        for shard in self.shards:
            shard.tracer = value

    @property
    def data_rewriter(self):
        return self.shards[0].data_rewriter

    @data_rewriter.setter
    def data_rewriter(self, value) -> None:
        for shard in self.shards:
            shard.data_rewriter = value

    # -- live code update (versioned image) ----------------------------
    # Every shard sees the same publish sequence, so shard epochs stay
    # in lockstep; version queries delegate to shard 0 and publishes
    # fan out.

    @property
    def epoch(self) -> int:
        return self.shards[0].epoch

    @property
    def image_digest(self) -> str:
        return self.shards[0].image_digest

    @property
    def group(self) -> str:
        return self.shards[0].group

    @property
    def client_epoch(self):
        return self.shards[0].client_epoch

    @client_epoch.setter
    def client_epoch(self, value) -> None:
        for shard in self.shards:
            shard.client_epoch = value

    def knows_image(self, image: Image) -> bool:
        return self.shards[0].knows_image(image)

    def publish(self, new_image: Image, *, durable: bool = True) -> int:
        """Publish *new_image* on every shard (one logical epoch bump)."""
        epochs = {s.publish(new_image, durable=durable)
                  for s in self.shards}
        if len(epochs) != 1:
            raise ChunkError(f"shard epochs diverged on publish: "
                             f"{sorted(epochs)}")
        self.image = self.shards[0].image
        return epochs.pop()

    def dirty_spans_between(self, a: int, b: int):
        return self.shards[0].dirty_spans_between(a, b)

    def image_at(self, epoch: int) -> Image:
        return self.shards[0].image_at(epoch)

    def epoch_of_digest(self, digest: str):
        return self.shards[0].epoch_of_digest(digest)

    def epoch_servable(self, epoch: int) -> bool:
        return self.shards[0].epoch_servable(epoch)

    def version_info(self) -> dict:
        return self.shards[0].version_info()

    # -- routing -------------------------------------------------------

    def owner_of(self, orig_addr: int) -> int:
        return self.ring.owner(orig_addr)

    def shard_for(self, orig_addr: int) -> MemoryController:
        return self.shards[self.ring.owner(orig_addr)]

    # -- miss service --------------------------------------------------

    def checksum_of(self, chunk: Chunk) -> int:
        return self.shard_for(chunk.orig).checksum_of(chunk)

    def serve_batch(self, orig_addr: int, depth: int,
                    is_resident: Callable[[int], bool]
                    ) -> list[tuple[Chunk, bytes]]:
        """Forward the miss to the demanded chunk's owner, which runs
        :meth:`MemoryController.serve_batch` with the ring as its
        *owner*: the same walk, the same chunks, billed per owner."""
        shard = self.shard_for(orig_addr)
        batch = shard.serve_batch(orig_addr, depth, is_resident,
                                  self.shard_for)
        self.last_served_epoch = shard.last_served_epoch
        return batch

    # -- invalidation / faults -----------------------------------------

    def invalidate_chunks(self, addr: int, length: int) -> int:
        return sum(s.invalidate_chunks(addr, length)
                   for s in self.shards)

    def restart(self) -> None:
        """Correlated origin restart (the fault layer's MC crash)."""
        for shard in self.shards:
            shard.restart()

    # -- replication accounting ----------------------------------------

    def credit_replicated(self, shard_demands: dict[int, int]) -> None:
        """Account a replicated client's demand fetches as per-shard
        chunk-cache hits (the server did the rewriting once; a
        replicated client would have been served from each owner's
        chunk cache)."""
        for sid, n in shard_demands.items():
            stats = self.shards[sid if 0 <= sid < len(self.shards)
                                else 0].stats
            stats.requests += n
            stats.chunk_cache_hits += n
