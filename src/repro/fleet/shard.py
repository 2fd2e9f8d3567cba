"""Consistent-hash sharded MC tier: the fleet's origin servers.

One :class:`~repro.softcache.mc.MemoryController` per shard, with
chunk ownership decided by a consistent-hash ring over original
addresses (Open-CAS keeps per-core cache statistics the same way:
each worker owns a stable slice of the key space and reports its own
counters).  The :class:`ShardedMemoryController` is a drop-in for a
single ``MemoryController``: the cache controller and fault layer see
the usual ``serve_batch`` / ``payload_of`` surface, while every
request lands on the shard that owns the chunk and is accounted in
that shard's :class:`~repro.softcache.mc.MCStats`.

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


def aggregate_mc_stats(parts: Iterable[MCStats]) -> MCStats:
    """Sum per-shard server counters into one fleet-wide MCStats."""
    total = MCStats()
    for part in parts:
        for f in dataclasses.fields(MCStats):
            setattr(total, f.name,
                    getattr(total, f.name) + getattr(part, f.name))
    return total


class ShardedMemoryController:
    """N origin shards behind one MemoryController-shaped facade.

    Chunk requests route to the consistent-hash owner of the original
    address; batched prefetch assembly walks the shared successor
    graph across shards (each prefetched chunk is produced — and
    billed — by its own owner).  ``invalidate_chunks`` and
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
        #: Successor addresses that failed to chunk, shared across
        #: shards so a batch walk skips them regardless of owner.
        self._unchunkable: set[int] = set()
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
        """Publish *new_image* on every shard (one logical epoch bump).

        The successor graph changes with the image, so the shared
        unchunkable set is dropped along with the per-shard caches.
        """
        epochs = {s.publish(new_image, durable=durable)
                  for s in self.shards}
        if len(epochs) != 1:
            raise ChunkError(f"shard epochs diverged on publish: "
                             f"{sorted(epochs)}")
        self._unchunkable.clear()
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

    def payload_of(self, chunk: Chunk) -> bytes:
        return self.shard_for(chunk.orig).payload_of(chunk)

    def checksum_of(self, chunk: Chunk) -> int:
        return self.shard_for(chunk.orig).checksum_of(chunk)

    def successors_of(self, orig_addr: int) -> tuple[int, ...]:
        return self.shard_for(orig_addr).successors_of(orig_addr)

    def serve_batch(self, orig_addr: int, depth: int,
                    is_resident: Callable[[int], bool]
                    ) -> list[tuple[Chunk, bytes]]:
        """The MemoryController batch walk, routed per chunk owner.

        The BFS order and residency checks are identical to the
        single-MC :meth:`~repro.softcache.mc.MemoryController.
        serve_batch`, so a sharded batch reply carries exactly the
        same chunks; only the serving (and billing) shard differs.
        """
        demand_shard = self.shard_for(orig_addr)
        demand = demand_shard.serve_chunk(orig_addr)
        self.last_served_epoch = demand_shard.last_served_epoch
        batch = [(demand, demand_shard.payload_of(demand))]
        if depth <= 0:
            return batch
        demand_shard.stats.batch_requests += 1
        picked = {orig_addr}
        frontier = list(demand.successors)
        seen = set(frontier) | picked
        while frontier and len(batch) <= depth:
            addr = frontier.pop(0)
            if addr in self._unchunkable:
                continue
            shard = self.shard_for(addr)
            if not is_resident(addr):
                try:
                    batch.append(shard.prefetch_one(addr))
                except ChunkError:
                    self._unchunkable.add(addr)
                    continue
                picked.add(addr)
            try:
                successors = shard.successors_of(addr)
            except ChunkError:
                self._unchunkable.add(addr)
                continue
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        if demand_shard.tracer is not None:
            demand_shard.tracer.emit(
                "mc.batch", "mc", orig=orig_addr, chunks=len(batch),
                prefetch_bytes=sum(c.payload_bytes
                                   for c, _ in batch[1:]))
        return batch

    # -- data path (full-system mode) ----------------------------------

    def serve_data(self, addr: int, length: int) -> bytes:
        return self.shard_for(addr).serve_data(addr, length)

    def accept_writeback(self, addr: int, data: bytes) -> None:
        self.shard_for(addr).accept_writeback(addr, data)

    # -- invalidation / faults -----------------------------------------

    def invalidate_chunks(self, addr: int, length: int) -> int:
        self._unchunkable.clear()
        return sum(s.invalidate_chunks(addr, length)
                   for s in self.shards)

    def restart(self) -> None:
        """Correlated origin restart (the fault layer's MC crash)."""
        self._unchunkable.clear()
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
