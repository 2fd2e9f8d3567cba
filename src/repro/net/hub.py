"""A mid-tier chunk cache: the paper's multilevel-caching remark.

"Software caching may be used to implement a particular level in a
multilevel caching system" (§1).  In the cell-phone scenario the cell
tower can keep a chunk cache so that most misses are served one fast
hop away instead of across the backhaul to the origin server.

:class:`HubChannel` wraps the CC's channel: a chunk RPC first costs
the near link; on a hub miss the far link is traversed too and the
chunk (keyed by original address) is cached at the hub with LRU
replacement.  Every chunk RPC is a batch (a plain miss is a batch of
one), and a reply populates the hub with every chunk it carries, so
one client's prefetch warms the hub for the whole fleet.

Only ``chunk`` traffic is cached.  Every other kind (data refills,
writebacks, invalidations) is a deliberate **pass-through**: the hub
holds immutable rewritten code, not data, so non-chunk exchanges
always pay both hops end to end.  Both hops are recorded in
:class:`~repro.net.link.LinkStats` — ``busy_seconds``,
``payload_bytes`` and ``overhead_bytes`` count the near *and* far legs
of every origin round trip, while ``exchanges`` counts logical RPCs
(one per client request) and ``exchange_overhead_bytes`` keeps the
near-hop §2.4 per-exchange metric.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from .link import Channel, LinkModel


@dataclass
class HubStats:
    requests: int = 0
    hub_hits: int = 0
    origin_fetches: int = 0
    hub_bytes: int = 0
    origin_bytes: int = 0
    evictions: int = 0
    #: Chunk requests that were link-layer retries of an exchange the
    #: hub already served once.  Counted here instead of ``requests``
    #: / ``hub_hits`` — a replayed request would otherwise always hit
    #: (the first attempt populated the cache) and inflate the rate.
    replayed_requests: int = 0
    #: Far-hop payload bytes moved on behalf of replayed requests.
    replayed_far_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hub_hits / self.requests if self.requests else 0.0


class LruChunkCache:
    """A byte-capacity LRU over chunk keys.

    Keys are original addresses for a single-version MC, and
    ``(group, epoch, orig)`` tuples once an MC is versioned or serves
    a non-default tenant group (see :func:`hub_key`) — entries from
    different image versions or different programs can then never
    alias each other while sharing one hub's byte budget.

    The storage half of a hub: used in-line by :class:`HubChannel`
    (per-exchange, blocking semantics) and by the fleet's event-driven
    scheduler as the shared edge hub in the edge-hub → origin-shard
    topology (:mod:`repro.fleet.sched`), so both tiers evict the same
    way.  ``capacity_bytes == 0`` disables caching entirely: nothing
    is ever held, every lookup misses.

    ``entries`` is part of the interface: an ``OrderedDict`` mapping
    each held key to its payload bytes, least recently used first.
    A caller may serve a hit itself by reading it and moving a key
    to the back (``entries.move_to_end``), which is all :meth:`admit`
    does for a held key of the same size.  Adding or dropping a key
    goes through :meth:`insert` or :meth:`admit`, which keep
    ``cached_bytes`` in step.
    """

    __slots__ = ("capacity", "cached_bytes", "evictions", "entries")

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self.cached_bytes = 0
        self.evictions = 0
        self.entries: OrderedDict = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def touch(self, key) -> None:
        """Mark *key* most recently used."""
        self.entries.move_to_end(key)

    def insert(self, key, payload_bytes: int) -> None:
        if self.capacity <= 0:
            return
        if key in self.entries:
            self.cached_bytes -= self.entries.pop(key)
        self.cached_bytes += payload_bytes
        self.entries[key] = payload_bytes
        while self.cached_bytes > self.capacity and self.entries:
            _, evicted = self.entries.popitem(last=False)
            self.cached_bytes -= evicted
            self.evictions += 1

    def admit(self, keys) -> bool:
        """One chunk RPC's whole hub step; returns whether the demand
        key (``keys[0]``) was already held.

        Every ``(key, payload_bytes)`` the reply carried is then
        re-inserted in order, demand key first, which is also what
        refreshes it.  A same-size re-insert of a held key is just a
        move to the back: ``cached_bytes`` never exceeds the capacity
        between calls, so nothing could be evicted.  At zero capacity
        nothing is held, so the probe misses and :meth:`insert` drops
        every key.
        """
        entries = self.entries
        hit = bool(keys) and keys[0][0] in entries
        for key, size in keys:
            if entries.get(key) == size:
                entries.move_to_end(key)
            else:
                self.insert(key, size)
        return hit


def hub_key(mc, orig_addr: int):
    """The hub-cache key for a chunk just served by *mc*.

    A plain original address while the MC is unversioned (epoch 0)
    and serving the default tenant group — byte-identical behaviour
    with pre-update hubs.  Once an image has been republished (or the
    MC serves a named group), keys become ``(group, epoch, orig)``:
    the *serving* epoch tags the entry, so a lagging client drawing a
    stale version and an updated client drawing the current one can
    never hand each other's bytes through the hub.
    """
    epoch = getattr(mc, "last_served_epoch", 0)
    group = getattr(mc, "group", "default")
    if epoch or group != "default":
        return (group, epoch, orig_addr)
    return orig_addr


class HubChannel(Channel):
    """A two-hop channel with an LRU chunk cache at the near hop.

    Drop-in replacement for :class:`~repro.net.Channel`: the
    SoftCacheSystem is constructed normally and its ``channel`` is
    swapped for a HubChannel (see ``with_hub``).  A chunk RPC is a
    keyed :meth:`batch_exchange` (a demand miss at depth 0 is a batch
    of one); :meth:`exchange` and any unkeyed batch are the
    pass-through, both hops paid and recorded.
    """

    def __init__(self, near: LinkModel, far: LinkModel,
                 capacity_bytes: int = 64 * 1024):
        super().__init__(near)
        self.far = far
        self.capacity = capacity_bytes
        self.hub_stats = HubStats()
        self._cache = LruChunkCache(capacity_bytes)
        #: set per-batch by the MC wrapper; one key per batched chunk,
        #: demanded chunk first.
        self.next_keys: list[int] | None = None
        #: set by the fault layer before re-traversing this channel
        #: for an exchange the hub already saw (a link-layer retry);
        #: replayed requests keep their wire accounting but are kept
        #: out of the hub hit-rate denominator.
        self.replaying = False

    # -- far-hop accounting -------------------------------------------

    def _record_far_batch(self, payload_sizes: Sequence[int], *,
                          replay: bool = False) -> float:
        """Traverse the far link for one RPC carrying *payload_sizes*.

        The far leg is real traffic: its seconds and bytes land in the
        channel's LinkStats.  ``exchanges`` is not bumped (the client
        made one logical RPC), and ``exchange_overhead_bytes`` keeps
        the near-hop §2.4 per-exchange metric.  A batch of one costs
        exactly ``far.exchange_time``.  *replay* marks a retried
        exchange: the wire cost is real and recorded, but the bytes
        are tallied as :attr:`HubStats.replayed_far_bytes` instead of
        fresh origin traffic.
        """
        seconds = self.far.batch_exchange_time(payload_sizes)
        stats = self.stats
        stats.busy_seconds += seconds
        stats.payload_bytes += sum(payload_sizes)
        stats.overhead_bytes += self.far.batch_overhead_bytes(
            len(payload_sizes))
        if replay:
            self.hub_stats.replayed_far_bytes += sum(payload_sizes)
        if self.tracer is not None:
            self.tracer.emit("hub.far", "hub",
                             bytes=sum(payload_sizes), seconds=seconds)
        return seconds

    # -- cache management ---------------------------------------------

    def _cache_insert(self, key: int, payload_bytes: int) -> None:
        self._cache.insert(key, payload_bytes)
        self.hub_stats.evictions = self._cache.evictions

    # -- exchanges ----------------------------------------------------

    def exchange(self, kind: str, payload_bytes: int) -> float:
        """The pass-through: the hub caches code only, so both hops
        are always paid (and recorded)."""
        replay = self.replaying
        self.replaying = False
        seconds = super().exchange(kind, payload_bytes)
        return seconds + self._record_far_batch((payload_bytes,),
                                                replay=replay)

    def batch_exchange(self, kind: str,
                       payload_sizes: Sequence[int]) -> float:
        """One chunk RPC through the hub.

        The hub forwards one far-link batch for the chunks it lacks
        and serves the rest from its cache; **every** chunk in the
        reply is keyed into the hub cache, so chunks a client merely
        prefetched are hub hits for the next client's demand miss.
        """
        replay = self.replaying
        self.replaying = False
        keys = self.next_keys
        self.next_keys = None
        # the near hop: a batch of one is a plain exchange, as in
        # Channel.batch_exchange, but not through the pass-through
        # exchange() above, which would pay the far hop too
        if len(payload_sizes) <= 1:
            seconds = super().exchange(kind, sum(payload_sizes))
        else:
            seconds = super().batch_exchange(kind, payload_sizes)
        if kind != "chunk" or keys is None or \
                len(keys) != len(payload_sizes):
            # unkeyed: a pass-through like exchange()
            return seconds + self._record_far_batch(payload_sizes,
                                                    replay=replay)
        stats = self.hub_stats
        missing: list[int] = []
        for key, size in zip(keys, payload_sizes):
            if replay:
                # link-layer retry of a request this hub already
                # served: pay the wire again, but keep it out of the
                # hit rate (the first attempt cached the chunk, so
                # counting the replay would manufacture a hit out of
                # packet loss)
                stats.replayed_requests += 1
                if key in self._cache:
                    self._cache.touch(key)
                else:
                    missing.append(size)
                continue
            stats.requests += 1
            if key in self._cache:
                self._cache.touch(key)
                stats.hub_hits += 1
                stats.hub_bytes += size
                if self.tracer is not None:
                    self.tracer.emit("hub.hit", "hub", key=key,
                                     bytes=size)
            else:
                stats.origin_fetches += 1
                stats.origin_bytes += size
                missing.append(size)
        if missing:
            seconds += self._record_far_batch(missing, replay=replay)
        for key, size in zip(keys, payload_sizes):
            self._cache_insert(key, size)
        return seconds


def with_hub(system, near: LinkModel | None = None,
             far: LinkModel | None = None,
             capacity_bytes: int = 64 * 1024,
             hub: HubChannel | None = None) -> HubChannel:
    """Insert a hub cache between *system*'s CC and its MC.

    Wraps the MC's ``serve_batch``, the CC's only way to fetch a
    chunk, so that each served reply hands the hub its keys (one per
    chunk, demanded chunk first) for the ``batch_exchange`` that
    follows.  Returns the installed :class:`HubChannel` (whose
    ``hub_stats`` report hit rates).  Call before ``system.run()``.
    Pass an existing *hub* to share one mid-tier cache between several
    client systems (the cell-tower scenario: systems built with a
    ``shared_mc`` and one hub see each other's chunks).
    """
    if hub is None:
        near = near or LinkModel()
        far = far or LinkModel(bandwidth_bps=2e6, latency_s=5e-3)
        hub = HubChannel(near, far, capacity_bytes)
    if hub.tracer is None:
        # inherit the flight recorder the system wired into the
        # channel this hub replaces
        hub.tracer = system.channel.tracer
    system.channel = hub
    system.cc.channel = hub

    mc = system.mc
    if getattr(mc, "_hub_wrapped", None) is hub:
        return hub  # shared MC already feeds this hub's key plumbing

    original_batch = mc.serve_batch

    def serving_batch(orig_addr: int, depth: int, is_resident):
        # key AFTER serving: the serve resolves which epoch this
        # client is drawing from (mc.last_served_epoch), and the key
        # must carry the epoch that produced the bytes
        batch = original_batch(orig_addr, depth, is_resident)
        hub.next_keys = [hub_key(mc, chunk.orig) for chunk, _ in batch]
        return batch

    mc.serve_batch = serving_batch
    mc._hub_wrapped = hub
    return hub
