"""Network link model between the embedded client (CC) and server (MC).

The paper's ARM prototype ran over 10 Mbps Ethernet with TCP/IP and
measured **60 application bytes of protocol overhead per code chunk
exchanged** (Section 2.4).  This model reproduces exactly those
parameters: a bandwidth term, a fixed per-message latency, and
per-message protocol overhead bytes, with the request/reply header
sizes chosen so one miss exchange costs 60 bytes beyond the payload.

No queueing is modeled — the client blocks on each miss (RPC
semantics), matching the prototypes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence


@dataclass(frozen=True)
class LinkModel:
    """Timing/overhead parameters of the CC<->MC interconnect."""

    #: Raw link bandwidth in bits per second (10 Mbps Ethernet).
    bandwidth_bps: float = 10e6
    #: One-way message latency in seconds (LAN + protocol stack).
    latency_s: float = 150e-6
    #: Application-level header bytes on a request message.
    request_bytes: int = 24
    #: Application-level header bytes on a reply message.
    reply_header_bytes: int = 36
    #: Sub-header bytes per *additional* chunk in a batched reply
    #: (original address + size + exit count).  The demanded chunk
    #: rides under the main reply header, so a batch of one costs
    #: exactly :meth:`exchange_time`.
    batch_subheader_bytes: int = 12

    @property
    def exchange_overhead_bytes(self) -> int:
        """Protocol bytes per request/reply exchange beyond the payload.

        24 + 36 = 60, the paper's measured per-chunk overhead.
        """
        return self.request_bytes + self.reply_header_bytes

    def exchange_time(self, payload_bytes: int) -> float:
        """Seconds for one blocking RPC carrying *payload_bytes* back."""
        total_bytes = self.exchange_overhead_bytes + payload_bytes
        return 2 * self.latency_s + total_bytes * 8 / self.bandwidth_bps

    def batch_overhead_bytes(self, nchunks: int) -> int:
        """Protocol bytes for a batched reply carrying *nchunks* chunks:
        one request header, one reply header, one sub-header per extra
        chunk.  This is what amortizes the paper's 60-byte-per-exchange
        overhead across a prefetch batch."""
        return (self.exchange_overhead_bytes +
                self.batch_subheader_bytes * max(0, nchunks - 1))

    def batch_exchange_time(self, payload_sizes: Sequence[int]) -> float:
        """Seconds for one RPC returning several chunks in one reply.

        One latency pair regardless of batch size; the wire carries the
        shared headers plus every chunk back to back.  Degenerates to
        :meth:`exchange_time` for a single chunk.
        """
        total_bytes = (self.batch_overhead_bytes(len(payload_sizes)) +
                       sum(payload_sizes))
        return 2 * self.latency_s + total_bytes * 8 / self.bandwidth_bps

    def wire_time(self, total_bytes: int) -> float:
        """Seconds *total_bytes* occupy the shared medium.

        Pure serialization time — no latency term.  This is the
        occupancy one message contributes to a shared uplink: while
        its bytes are on the wire nobody else can transmit, whereas
        propagation latency overlaps freely.  The fleet's queueing
        models (event-driven and legacy) both charge exactly this per
        exchange, which is what lets them converge at low load.
        """
        return total_bytes * 8 / self.bandwidth_bps

    def one_way_time(self, payload_bytes: int) -> float:
        """Seconds for a one-way message (writebacks, invalidations)."""
        total_bytes = self.request_bytes + payload_bytes
        return self.latency_s + total_bytes * 8 / self.bandwidth_bps


@dataclass
class LinkStats:
    """Traffic accounting for one CC<->MC channel."""

    exchanges: int = 0
    one_way_messages: int = 0
    payload_bytes: int = 0
    overhead_bytes: int = 0
    #: Base request/reply header bytes of RPC exchanges only (the
    #: §2.4 per-exchange overhead; batch sub-headers excluded so
    #: :meth:`overhead_per_exchange` stays the paper's metric).
    exchange_overhead_bytes: int = 0
    busy_seconds: float = 0.0
    #: Exchanges whose reply carried more than one chunk.
    batch_exchanges: int = 0
    #: Chunks delivered inside batched replies (demand + prefetch).
    batched_chunks: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes + self.overhead_bytes

    def overhead_per_exchange(self) -> float:
        """Mean protocol overhead per RPC exchange (the 60-byte
        result of §2.4); one-way messages are excluded."""
        if not self.exchanges:
            return 0.0
        return self.exchange_overhead_bytes / self.exchanges


#: The SPARC-prototype configuration: MC and CC are one program on one
#: machine ("communication ... is accomplished by jumping back and
#: forth", §2.1), so transfers cost no wire time; only the cost-model
#: cycle charges (MC service, install, patch) remain.
LOCAL_LINK = LinkModel(bandwidth_bps=1e15, latency_s=0.0,
                       request_bytes=24, reply_header_bytes=36)


class Channel:
    """A blocking RPC channel with traffic and time accounting.

    ``exchange`` returns the simulated transfer time in seconds; the
    caller (the CC) converts it to client cycles via the cost model
    and charges the CPU.
    """

    def __init__(self, link: LinkModel | None = None):
        self.link = link or LinkModel()
        self.stats = LinkStats()
        #: Flight recorder (repro.obs), attached by the system.
        self.tracer = None

    def exchange(self, kind: str, payload_bytes: int) -> float:
        """One request/reply RPC returning *payload_bytes* of payload."""
        link = self.link
        seconds = link.exchange_time(payload_bytes)
        stats = self.stats
        stats.exchanges += 1
        stats.payload_bytes += payload_bytes
        stats.overhead_bytes += link.exchange_overhead_bytes
        stats.exchange_overhead_bytes += link.exchange_overhead_bytes
        stats.busy_seconds += seconds
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if self.tracer is not None:
            self.tracer.emit("link.exchange", "link", kind=kind,
                             payload=payload_bytes,
                             overhead=link.exchange_overhead_bytes,
                             seconds=seconds)
        return seconds

    def batch_exchange(self, kind: str,
                       payload_sizes: Sequence[int]) -> float:
        """One chunk RPC: the CC's only way to fetch chunks.

        A reply of several chunks is a prefetch batch.  A batch of
        one, every miss at ``prefetch_depth=0`` and every pin, goes
        through ``self.exchange``, so it is accounted exactly as the
        paper's one-chunk RPC (and a wrapper of ``exchange`` sees it).
        """
        if len(payload_sizes) <= 1:
            return self.exchange(kind, sum(payload_sizes))
        link = self.link
        seconds = link.batch_exchange_time(payload_sizes)
        stats = self.stats
        stats.exchanges += 1
        stats.batch_exchanges += 1
        stats.batched_chunks += len(payload_sizes)
        stats.payload_bytes += sum(payload_sizes)
        stats.overhead_bytes += link.batch_overhead_bytes(
            len(payload_sizes))
        stats.exchange_overhead_bytes += link.exchange_overhead_bytes
        stats.busy_seconds += seconds
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if self.tracer is not None:
            self.tracer.emit("link.batch", "link", kind=kind,
                             chunks=len(payload_sizes),
                             payload=sum(payload_sizes),
                             seconds=seconds)
        return seconds

    def send(self, kind: str, payload_bytes: int) -> float:
        """One one-way message carrying *payload_bytes*."""
        link = self.link
        seconds = link.one_way_time(payload_bytes)
        stats = self.stats
        stats.one_way_messages += 1
        stats.payload_bytes += payload_bytes
        stats.overhead_bytes += link.request_bytes
        stats.busy_seconds += seconds
        stats.by_kind[kind] = stats.by_kind.get(kind, 0) + 1
        if self.tracer is not None:
            self.tracer.emit("link.send", "link", kind=kind,
                             payload=payload_bytes, seconds=seconds)
        return seconds
