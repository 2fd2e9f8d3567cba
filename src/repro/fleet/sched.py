"""Discrete-event fleet scheduler: capture once, contend live.

The fleet's clients are blocking-RPC state machines: resident code
runs locally and the only points where a client touches the shared
world are its CC miss-path exchanges.  Queueing delay on a shared
uplink therefore *shifts a client's timeline without changing its
architectural execution* — the reply bytes are the same whether they
arrive late or on time.  That invariant is what makes a 10k-client
fleet tractable, and this module exploits it in two phases:

**Capture.**  A small number of *distinct* clients actually execute
under a :class:`~repro.softcache.SoftCacheSystem` (sharing the MC
chunk cache, the content-keyed superblock compile cache and the
decode memos — see docs/FLEET.md).  A :class:`WireTap` wraps the
client's channel and records every RPC as an :class:`RpcRecord`: the
client-clock cycle at which it was issued, the wire occupancy of
every real traversal (fault-layer retries traverse the inner wire
channel once per delivered attempt, so retry storms are captured as
extra occupancy, not estimated), and, read from the served reply the
chunk RPC carries, the consistent-hash owner of the demanded chunk
and the :func:`~repro.net.hub.hub_key` of every chunk.

**Replay.**  Every fleet client is then a resumable state machine
over a captured timeline, advanced by one event queue on a single
simulated clock (:func:`run_event_sim`): a heap, whose arrived events
are served in sorted rounds while the uplink is saturated.  Each RPC
queues FIFO on the shared uplink, then — for chunk traffic — on its
origin shard, unless the shared edge hub (an
:class:`~repro.net.hub.LruChunkCache`) already holds the chunk; every
queueing wait pushes the client's subsequent arrivals later, so
contention feeds back into the arrival process instead of being
reconstructed after the fact.  Arrival times are computed as
``boot + cycles_to_seconds(start_cycles) + accumulated_wait`` — one
expression from the captured integer cycle counts — so a 1-client
fleet reproduces the solo run's simulated seconds *bit-identically*.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter

from ..net.hub import LruChunkCache, hub_key

#: Consecutive events that must find the uplink busy before the
#: replay tries a round, and the fewest arrived events a try must find
#: to serve them as one (see :func:`run_event_sim`).
ROUND = 256


@dataclass(slots=True)
class RpcRecord:
    """One captured blocking RPC on a client's wire timeline."""

    #: Client cycle counter when the RPC was issued.
    start_cycles: int
    kind: str
    #: Shared-medium occupancy (serialization seconds) summed over
    #: every real wire traversal, retries included.
    wire_s: float
    wire_bytes: int
    #: Real wire trips (> 1 when the fault layer retried).
    traversals: int
    #: Consistent-hash owner of the demanded chunk, -1 for non-chunk
    #: traffic (which never visits the origin-shard tier).
    shard: int
    #: ``(hub_key, payload_bytes)`` per chunk the reply carried
    #: (demand first); the edge hub is warmed and probed with these.
    #: A key is the plain original address at epoch 0 and
    #: ``(group, epoch, orig)`` once an image has been republished.
    keys: tuple


@dataclass
class ClientTrace:
    """A distinct client's captured run, replayable N times."""

    records: list[RpcRecord]
    #: Total cycles of the run (the report's cycle count).
    total_cycles: int
    #: Demand chunk fetches per owning shard (for crediting the
    #: server when this trace is replayed for a replicated client).
    shard_demands: dict[int, int] = field(default_factory=dict)
    #: Link-layer retries the capture run performed.
    retries: int = 0


class WireTap:
    """Brackets every RPC of one capture client into RpcRecords.

    Wraps the system's outer channel (the :class:`FaultyChannel` when
    faults are installed, else the plain :class:`Channel`) to mark RPC
    boundaries at the client clock, and the inner wire channel to
    accumulate per-traversal occupancy — so a retried exchange records
    one RPC with several traversals.  A chunk RPC's owner shard and
    keys are read from the reply it carries; the MC must offer
    ``owner_of`` (the fleet's
    :class:`~repro.fleet.shard.ShardedMemoryController` does).  Pure
    observation: the wrapped methods are called unchanged, so a tapped
    run is bit-identical to an untapped one.
    """

    def __init__(self, system):
        self.records: list[RpcRecord] = []
        self._cpu = system.machine.cpu
        outer = system.channel
        inner = getattr(outer, "inner", outer)
        self.link = inner.link
        self._depth = 0
        self._start = 0
        self._wire_s = 0.0
        self._wire_bytes = 0
        self._traversals = 0
        # wire wrappers go on first: when faults are off, inner IS
        # outer and the bracket must wrap the wire accounting (the
        # bracket resets the traversal accumulators on entry)
        self._wrap_wire(inner)
        self._wrap_bracket(outer)

    # -- wrapping ------------------------------------------------------

    def _wrap_bracket(self, chan) -> None:
        orig_ex = chan.exchange
        orig_batch = chan.batch_exchange
        orig_send = chan.send

        def exchange(kind, payload_bytes):
            with self._rpc(kind):
                return orig_ex(kind, payload_bytes)

        def batch_exchange(mc, pairs):
            with self._rpc("chunk", mc, pairs):
                return orig_batch(mc, pairs)

        def send(kind, payload_bytes):
            with self._rpc(kind):
                return orig_send(kind, payload_bytes)

        chan.exchange = exchange
        chan.batch_exchange = batch_exchange
        chan.send = send

    def _wrap_wire(self, chan) -> None:
        # NB: when faults are off the bracket and wire wrappers stack
        # on the same channel object; the bracket's depth guard keeps
        # nested calls (Channel.batch_exchange of a single chunk
        # delegates to .exchange) inside one record.
        link = chan.link
        orig_ex = chan.exchange
        orig_batch = chan.batch_exchange
        orig_send = chan.send

        def exchange(kind, payload_bytes):
            self._traverse(payload_bytes + link.exchange_overhead_bytes)
            return orig_ex(kind, payload_bytes)

        def batch_exchange(mc, pairs):
            if len(pairs) > 1:
                self._traverse(sum(c.payload_bytes for c, _ in pairs) +
                               link.batch_overhead_bytes(len(pairs)))
            # a batch of one delegates to .exchange, which accounts
            return orig_batch(mc, pairs)

        def send(kind, payload_bytes):
            self._traverse(payload_bytes + link.request_bytes)
            return orig_send(kind, payload_bytes)

        chan.exchange = exchange
        chan.batch_exchange = batch_exchange
        chan.send = send

    # -- recording -----------------------------------------------------

    def _traverse(self, total_bytes: int) -> None:
        self._wire_bytes += total_bytes
        self._wire_s += self.link.wire_time(total_bytes)
        self._traversals += 1

    @contextmanager
    def _rpc(self, kind: str, mc=None, pairs=()):
        if self._depth:
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
            return
        self._depth = 1
        self._start = self._cpu.cycles
        self._wire_s = 0.0
        self._wire_bytes = 0
        self._traversals = 0
        shard, keys = -1, ()
        if pairs:
            shard = mc.owner_of(pairs[0][0].orig)
            keys = tuple((hub_key(mc, chunk.orig), chunk.payload_bytes)
                         for chunk, _ in pairs)
        try:
            # a LinkDown mid-RPC still closes the record: traversals
            # that reached the wire are real load, and the degraded-
            # mode replays arrive as fresh records of their own
            yield
        finally:
            self._depth = 0
            self.records.append(RpcRecord(
                start_cycles=self._start, kind=kind,
                wire_s=self._wire_s, wire_bytes=self._wire_bytes,
                traversals=self._traversals, shard=shard, keys=keys))

    # -- trace assembly ------------------------------------------------

    def to_trace(self, total_cycles: int, retries: int = 0
                 ) -> ClientTrace:
        demands: dict[int, int] = {}
        for r in self.records:
            if r.shard >= 0:
                demands[r.shard] = demands.get(r.shard, 0) + 1
        return ClientTrace(records=self.records,
                           total_cycles=total_cycles,
                           shard_demands=demands, retries=retries)


@dataclass
class SimOutcome:
    """What one fleet replay (:func:`run_event_sim`) produced."""

    #: Per-client total queueing wait (uplink + shard), seconds.
    waits: list[float]
    #: Per-client completion time on the shared clock, seconds.
    ends: list[float]
    #: Total shared-medium occupancy scheduled, seconds.
    uplink_busy_s: float
    #: Instant the uplink last went idle.
    busy_until: float
    mean_queue_delay_s: float
    max_queue_delay_s: float
    delayed_requests: int
    #: Demand chunk RPCs routed to each origin shard.
    shard_requests: list[int]
    #: Origin service occupancy per shard, seconds.
    shard_busy_s: list[float]
    mean_shard_delay_s: float = 0.0
    max_shard_delay_s: float = 0.0
    hub_requests: int = 0
    hub_hits: int = 0


def run_event_sim(traces, boots, *, costs, n_shards: int = 1,
                  origin_service_s: float = 0.0,
                  hub_capacity: int = 0, recorder=None) -> SimOutcome:
    """Advance every client's state machine on one simulated clock.

    *traces* holds each client's :class:`ClientTrace` (replicated
    clients share trace objects), *boots* its boot offset.  Pending
    events are served in ``(arrival, seq)`` order: each queues FIFO on
    the shared uplink and — for chunk traffic that misses the shared
    edge hub — on its origin shard, and the waits incurred shift all
    of that client's later arrivals.

    Each distinct trace is flattened once into per-record columns, and
    a pending entry ``(arrival, seq, client, record, wait, columns)``
    carries the client's whole replay state.  *seq* is unique and
    increases with every scheduled arrival, so equal arrivals are
    served in the order they were scheduled and tuple comparison
    never looks past it.

    The pending list is a heap, and a single event costs one
    ``heapreplace`` (a ``heappop`` when the client finishes).  Once
    ``ROUND`` consecutive events found the uplink busy, the loop
    tries a *round*: it sorts the list (a sorted list is still a
    heap), and every event that has arrived by the time the uplink
    frees is served from the sorted prefix with no heap operation.
    The arrivals those events schedule take the served slots, and one
    sort restores the heap.  The order is the heap's: an arrival
    scheduled in a round is at least the uplink's free time when the
    round began (start cycles never decrease), so it sorts after
    every event of the round, and the round stops early at one that
    would not (rounding, or a hand-built trace).
    A try that finds fewer than ``ROUND`` arrived events doubles the
    run the next try waits for.

    A single-key edge-hub hit is served inline, by reading the hub's
    ``entries`` and moving the key to the back; every other hub step
    calls :meth:`~repro.net.hub.LruChunkCache.admit`.
    """
    n = len(traces)
    cts = costs.cycles_to_seconds
    hz = costs.cpu_hz
    waits = [0.0] * n
    ends = [0.0] * n
    flat: dict[int, tuple] = {}
    pending: list[tuple] = []
    seq = 0
    for c in range(n):
        trace = traces[c]
        cols = flat.get(id(trace))
        if cols is None:
            recs = trace.records
            cols = flat[id(trace)] = (
                [cts(r.start_cycles) for r in recs],
                [r.wire_s for r in recs],
                # -1 (non-chunk traffic) survives the fold
                [r.shard if r.shard < n_shards else 0 for r in recs],
                # the (key, size) of a single-key reply, else None
                [r.keys[0] if len(r.keys) == 1 else None for r in recs],
                [r.keys for r in recs],
                len(recs), cts(trace.total_cycles), trace)
        if cols[5]:
            pending.append((boots[c] + cols[0][0], seq, c, 0, 0.0, cols))
            seq += 1
        else:
            ends[c] = boots[c] + cols[6]
    heapq.heapify(pending)

    uplink_free = 0.0
    uplink_busy = 0.0
    shard_free = [0.0] * n_shards
    shard_busy = [0.0] * n_shards
    shard_req = [0] * n_shards
    if hub_capacity > 0:
        hub = LruChunkCache(hub_capacity)
        admit = hub.admit
        # a single-key hit is admit's whole work: a move to the back
        held = hub.entries.get
        refresh = hub.entries.move_to_end
    else:
        admit = None
    hub_requests = 0
    hub_hits = 0
    q_total = 0.0
    q_max = 0.0
    q_n = 0
    delayed = 0
    s_total = 0.0
    s_max = 0.0

    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    arrival = itemgetter(0)
    run = 0             # consecutive events that found the uplink busy
    trigger = ROUND
    k = m = 0           # next and end index of the round being served
    w = 0               # served slots refilled with scheduled arrivals
    last = 0.0          # the round's last arrival
    while True:
        if k < m:
            t, _, c, i, acc, cols = pending[k]
            k += 1
        else:
            if m or run >= trigger:
                # drop the served slots no arrival refilled; the sort
                # puts the arrivals the last round scheduled in order
                del pending[w:k]
                pending.sort()
                k = m = w = 0
                if run >= trigger:
                    m = bisect_right(pending, uplink_free, key=arrival)
                    if m >= ROUND:
                        last = pending[m - 1][0]
                        continue
                    m = run = 0
                    trigger *= 2
            if not pending:
                break
            t, _, c, i, acc, cols = pending[0]
        offsets, wires, sids, singles, keys, n_recs, end, trace = cols
        wire = wires[i]
        if t >= uplink_free:
            begin = t
            run = 0
        else:
            begin = uplink_free
            run += 1
        du = begin - t
        uplink_free = begin + wire
        uplink_busy += wire
        ds = 0.0
        sid = sids[i]
        if sid >= 0:
            if admit is not None:
                hub_requests += 1
                one = singles[i]
                if one is not None and held(one[0]) == one[1]:
                    refresh(one[0])
                    at_hub = True
                else:
                    at_hub = admit(keys[i])
                if at_hub:
                    hub_hits += 1
            else:
                at_hub = False
            if not at_hub:
                shard_req[sid] += 1
                if origin_service_s > 0.0:
                    arrive = uplink_free
                    sbegin = (arrive if arrive >= shard_free[sid]
                              else shard_free[sid])
                    ds = sbegin - arrive
                    shard_free[sid] = sbegin + origin_service_s
                    shard_busy[sid] += origin_service_s
                    s_total += ds
                    if ds > s_max:
                        s_max = ds
        wait = du + ds
        q_n += 1
        q_total += wait
        if wait > q_max:
            q_max = wait
        if wait > 0:
            delayed += 1
            if recorder is not None:
                # the event names the captured (unfolded) owner shard
                where = ("uplink" if ds == 0.0 else
                         f"shard{trace.records[i].shard}")
                recorder.emit("fleet.queue", "fleet",
                              cycles=int(t * hz), dur=int(wait * hz),
                              where=where, arrival_s=t, delay_s=wait,
                              service_s=wire)
        acc += wait
        i += 1
        if i < n_recs:
            t = boots[c] + offsets[i] + acc
            if m:
                pending[w] = (t, seq, c, i, acc, cols)
                w += 1
                if t < last:
                    m = k       # it sorts before the round's last event
            else:
                heapreplace(pending, (t, seq, c, i, acc, cols))
            seq += 1
        else:
            if not m:
                heappop(pending)
            waits[c] = acc
            ends[c] = boots[c] + end + acc

    chunk_visits = sum(shard_req)
    return SimOutcome(
        waits=waits, ends=ends, uplink_busy_s=uplink_busy,
        busy_until=uplink_free,
        mean_queue_delay_s=(q_total / q_n) if q_n else 0.0,
        max_queue_delay_s=q_max, delayed_requests=delayed,
        shard_requests=shard_req, shard_busy_s=shard_busy,
        mean_shard_delay_s=(s_total / chunk_visits)
        if chunk_visits else 0.0,
        max_shard_delay_s=s_max,
        hub_requests=hub_requests, hub_hits=hub_hits)
