"""The memory controller (MC): the server half of the SoftCache.

The MC owns the full program image — it *is* the lower level of the
memory hierarchy — and services misses: given an original address it
chunks, rewrites and ships the code.  All heavy lifting (scanning,
rewriting) happens here, on the unconstrained server, shifting cost
away from the embedded client exactly as the paper argues.

Chunks are cached MC-side so repeated misses on the same address (after
eviction) are served from the MC's table; the paper notes the MC's
lookup/preparation time "could easily be reduced to near zero by more
powerful MC systems", so the cost model charges a small fixed
``mc_service_cycles`` per request either way.  Alongside each chunk the
MC caches its **pre-encoded payload bytes** (the position-independent
body as it crosses the wire), so re-serving an evicted chunk is a dict
hit plus a buffer handoff, and the CC can install with one patch pass
over a local ``bytearray``.

The MC also maintains a **static chunk-successor graph** (fallthrough,
taken-branch and call targets, recorded as chunks are built).  With
``prefetch_depth > 0`` the CC asks for a *batch*: the demanded chunk
plus up to N non-resident successors shipped in one reply, amortizing
the per-exchange protocol overhead — the standard instruction-prefetch
lever applied to the paper's "could easily be reduced to near zero"
miss-service cost.  :meth:`MemoryController.serve_batch` is the one
walk: a plain miss is a batch of one, a lagging client's batch walks
its own epoch's graph, and a sharded tier enters it at the demanded
chunk's owner and names the owner of every other chunk.  Its reply,
``[(chunk, payload), ...]``, is the argument of the CC's chunk RPC
(``channel.batch_exchange(mc, pairs)``): the link, hub and fault
layers read the sizes, hub keys and payload bytes from it, so nothing
wraps the MC to see a reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..asm.image import Image
from .chunks import (
    BasicBlockChunker,
    Chunk,
    ChunkError,
    EBBChunker,
    ProcedureChunker,
)
from .update import image_digest


@dataclass
class MCStats:
    """Server-side service counters."""

    requests: int = 0
    chunks_built: int = 0
    chunk_cache_hits: int = 0
    bytes_served: int = 0
    #: Batched (prefetching) requests serviced.
    batch_requests: int = 0
    #: Chunks shipped speculatively inside batched replies.
    prefetch_chunks_sent: int = 0
    #: Payload bytes of those speculative chunks.
    prefetch_bytes_served: int = 0
    #: Crash-restart epochs survived (fault injection): each one wipes
    #: the server-side chunk/payload caches and the successor graph.
    restarts: int = 0
    #: Image epochs published (live code update).
    publishes: int = 0
    #: Publishes that were idempotent no-ops (same content digest).
    publish_noops: int = 0
    #: Non-durable epochs rolled back by a crash-restart.
    publish_rollbacks: int = 0
    #: Requests resolved against a retired epoch (a client whose
    #: update gate has not opened yet, see UpdateSchedule).
    stale_serves: int = 0


@dataclass(frozen=True)
class ImageVersion:
    """One published image epoch."""

    epoch: int
    image: Image
    digest: str
    durable: bool = True
    #: Word-aligned ``[start, end)`` original-address spans whose text
    #: differs from the *previous* epoch; empty for the boot epoch.
    dirty_spans: tuple[tuple[int, int], ...] = ()

    @property
    def dirty_bytes(self) -> int:
        return sum(end - start for start, end in self.dirty_spans)


def _text_dirty_spans(old: Image,
                      new: Image) -> tuple[tuple[int, int], ...]:
    """Coalesced word spans where the two texts differ."""
    spans: list[list[int]] = []
    old_t, new_t, base = old.text, new.text, new.text_base
    for off in range(0, len(new_t), 4):
        if old_t[off:off + 4] != new_t[off:off + 4]:
            addr = base + off
            if spans and spans[-1][1] == addr:
                spans[-1][1] = addr + 4
            else:
                spans.append([addr, addr + 4])
    return tuple((s, e) for s, e in spans)


class MemoryController:
    """Server-side miss service: chunking + dynamic binary rewriting."""

    def __init__(self, image: Image, granularity: str = "block",
                 group: str = "default"):
        self.chunker = self._make_chunker(image, granularity)
        self.image = image
        self.granularity = granularity
        #: Tenant label: one MC/hub tier can serve several image
        #: groups; hub entries are keyed by (group, epoch, chunk).
        self.group = group
        #: Current image epoch; bumped by :meth:`publish`.
        self.epoch = 0
        #: Content digest of the current image (idempotence identity).
        self.image_digest = image_digest(image)
        self._versions: dict[int, ImageVersion] = {
            0: ImageVersion(0, image, self.image_digest, True, ())}
        #: Epoch the requesting client still runs at (reply resolution
        #: happens at ``min`` semantics client-side; ``None`` = current).
        #: Set by the CC before each serve.
        self.client_epoch: int | None = None
        #: Epoch the last serve actually resolved against (the reply
        #: header's version tag; the hub keys entries with it).
        self.last_served_epoch = 0
        self._stale_mc: dict[int, "MemoryController"] = {}
        self.stats = MCStats()
        #: Flight recorder (repro.obs), attached by the system; the
        #: fleet rebinds it per simulated client (runs are sequential).
        self.tracer = None
        self._chunk_cache: dict[int, Chunk] = {}
        #: Pre-encoded body bytes per chunk (what the CC installs).
        self._payload_cache: dict[int, bytes] = {}
        #: Static successor graph: orig -> successor origs, recorded as
        #: chunks are built (chunk content is static, so is the graph).
        self._successors: dict[int, tuple[int, ...]] = {}
        #: Successor addresses that failed to chunk (mid-procedure
        #: entries under proc granularity, targets outside text);
        #: remembered so batches do not retry them on every miss.
        self._unchunkable: set[int] = set()
        #: Optional data-access rewriter (full-system mode, §3).
        self.data_rewriter = None

    @staticmethod
    def _make_chunker(image: Image, granularity: str):
        if granularity == "block":
            return BasicBlockChunker(image)
        if granularity == "ebb":
            return EBBChunker(image)
        if granularity == "proc":
            return ProcedureChunker(image)
        raise ValueError(f"unknown granularity {granularity!r}")

    # -- live code update ---------------------------------------------

    def knows_image(self, image: Image) -> bool:
        """True if *image* is some published version of this MC's
        program (identity or content match) — the shared-MC sanity
        check a client system runs at boot."""
        if image is self.image:
            return True
        digest = image_digest(image)
        return any(v.digest == digest for v in self._versions.values())

    def publish(self, new_image: Image, *, durable: bool = True) -> int:
        """Publish a new image epoch; returns the (possibly unchanged)
        current epoch.

        Idempotent by content digest: republishing the image already
        current is a no-op, so any number of per-client update
        schedules can assert the same publish against a shared MC.
        The update is a *hot patch*: layout must be preserved (same
        text base/size, data segment, entry point) because resident
        stubs and continuations hold original addresses.  A
        non-durable publish is rolled back by :meth:`restart` to the
        latest durable epoch.
        """
        digest = image_digest(new_image)
        if digest == self.image_digest:
            self.stats.publish_noops += 1
            return self.epoch
        old = self.image
        if (new_image.text_base != old.text_base
                or len(new_image.text) != len(old.text)
                or new_image.data_base != old.data_base
                or new_image.data != old.data
                or new_image.bss_size != old.bss_size
                or new_image.entry != old.entry):
            raise ValueError(
                "publish requires a layout-preserving image: same text "
                "base/size, data segment, bss size and entry point")
        spans = _text_dirty_spans(old, new_image)
        self.epoch += 1
        version = ImageVersion(self.epoch, new_image, digest,
                               durable, spans)
        self._versions[self.epoch] = version
        self.image = new_image
        self.image_digest = digest
        self.chunker = self._make_chunker(new_image, self.granularity)
        self._chunk_cache.clear()
        self._payload_cache.clear()
        self._successors.clear()
        self._unchunkable.clear()
        self.stats.publishes += 1
        if self.tracer is not None:
            self.tracer.emit("mc.publish", "mc", epoch=self.epoch,
                             digest=digest[:12],
                             dirty_chunks=len(spans),
                             dirty_bytes=version.dirty_bytes,
                             durable=durable)
        return self.epoch

    def dirty_spans_between(self, a: int,
                            b: int) -> tuple[tuple[int, int], ...]:
        """Union of text spans that changed between epochs *a* and *b*
        (order-independent).  Falls back to the whole text segment if
        an intermediate version is no longer known (rolled back), so
        invalidation is conservative, never incomplete."""
        lo, hi = (a, b) if a <= b else (b, a)
        spans: list[tuple[int, int]] = []
        for epoch in range(lo + 1, hi + 1):
            version = self._versions.get(epoch)
            if version is None:
                img = self.image
                return ((img.text_base, img.text_end),)
            spans.extend(version.dirty_spans)
        return tuple(spans)

    def image_at(self, epoch: int) -> Image:
        """The image of a retained epoch (the update barrier patches
        the client text mirror from it)."""
        version = self._versions.get(epoch)
        if version is None:
            raise ChunkError(f"epoch {epoch} is not servable (retired)")
        return version.image

    def epoch_of_digest(self, digest: str) -> int | None:
        """Latest retained epoch whose image has *digest*, or None.

        Update schedules check this before publishing: on a shared MC
        a lagging client asserting a version some other client already
        published must *observe* that epoch, not re-publish it (which
        would roll the whole fleet back to the old image).
        """
        found = None
        for epoch, version in self._versions.items():
            if version.digest == digest and (found is None
                                             or epoch > found):
                found = epoch
        return found

    def epoch_servable(self, epoch: int) -> bool:
        """Can a request pinned at *epoch* still be resolved?"""
        return epoch == self.epoch or epoch in self._versions

    def version_info(self) -> dict:
        """Version store snapshot (``/inspect/images``)."""
        return {
            "group": self.group,
            "epoch": self.epoch,
            "image": self.image.name,
            "digest": self.image_digest,
            "versions": [
                {"epoch": v.epoch, "image": v.image.name,
                 "digest": v.digest, "durable": v.durable,
                 "dirty_spans": len(v.dirty_spans),
                 "dirty_bytes": v.dirty_bytes}
                for _, v in sorted(self._versions.items())],
        }

    def _stale_for_client(self) -> "MemoryController | None":
        """The serving MC for the requesting client's epoch: ``None``
        when the client is current (hot path), else a lazily built
        server over the retained older version.  The retained server
        bills its rewrites to this MC's ``stats`` (``chunks_built``
        is the only counter it bumps) and has no tracer of its own."""
        epoch = self.client_epoch
        if epoch is None or epoch == self.epoch:
            self.last_served_epoch = self.epoch
            return None
        self.last_served_epoch = epoch
        server = self._stale_mc.get(epoch)
        if server is None:
            version = self._versions.get(epoch)
            if version is None:
                raise ChunkError(
                    f"epoch {epoch} is not servable (retired)")
            server = MemoryController(version.image, self.granularity,
                                      group=self.group)
            server.stats = self.stats
            server.data_rewriter = self.data_rewriter
            self._stale_mc[epoch] = server
        return server

    # -- chunk production ---------------------------------------------

    def _obtain(self, orig_addr: int) -> Chunk:
        """Chunk-cache lookup/build without request accounting."""
        chunk = self._chunk_cache.get(orig_addr)
        if chunk is None:
            chunk = self.chunker.chunk_at(orig_addr)
            if self.data_rewriter is not None:
                chunk = self.data_rewriter.transform(chunk)
            self._chunk_cache[orig_addr] = chunk
            self._successors[orig_addr] = chunk.successors
            self.stats.chunks_built += 1
            if self.tracer is not None:
                self.tracer.emit("mc.rewrite", "mc", orig=orig_addr,
                                 words=len(chunk.words),
                                 exits=len(chunk.exits))
        return chunk

    def payload_of(self, chunk: Chunk) -> bytes:
        """The chunk's pre-encoded body bytes (cached server-side)."""
        payload = self._payload_cache.get(chunk.orig)
        if payload is None:
            payload = b"".join(
                w.to_bytes(4, "little") for w in chunk.words)
            self._payload_cache[chunk.orig] = payload
        return payload

    def successors_of(self, orig_addr: int) -> tuple[int, ...]:
        """Static successors of the chunk at *orig_addr* (builds the
        chunk if the graph has no node for it yet)."""
        succ = self._successors.get(orig_addr)
        if succ is None:
            succ = self._obtain(orig_addr).successors
        return succ

    # -- miss service -------------------------------------------------

    def serve_batch(self, orig_addr: int, depth: int,
                    is_resident: Callable[[int], bool],
                    owner: Callable[[int], "MemoryController"]
                    | None = None) -> list[tuple[Chunk, bytes]]:
        """Service one instruction miss: one reply, demand chunk first.

        Returns ``[(chunk, payload_bytes), ...]`` — the demanded chunk,
        then up to *depth* more chunks found by a breadth-first walk of
        the successor graph, skipping anything *is_resident* reports the
        client already holds.  The CC fetches every chunk this way, a
        plain miss as a batch of one (``depth == 0``).

        The client's epoch is resolved once and the walk runs over that
        epoch's graph.  *owner* maps an address to the MC that produces
        and bills its chunk (a sharded tier passes its ring's
        ``shard_for``); by default that is this MC.  Each owner the
        walk visits produces its chunks at the client's epoch too.
        """
        stale = self._stale_for_client()
        server = stale or self
        st = self.stats
        st.requests += 1
        cached = orig_addr in server._chunk_cache
        demand = server._obtain(orig_addr)
        st.bytes_served += demand.payload_bytes
        if stale is not None:
            st.stale_serves += 1
        else:
            if cached:
                st.chunk_cache_hits += 1
            if self.tracer is not None:
                self.tracer.emit("mc.serve", "mc", orig=orig_addr,
                                 bytes=demand.payload_bytes,
                                 cached=cached)
        batch = [(demand, server.payload_of(demand))]
        if depth <= 0:
            return batch
        st.batch_requests += 1
        servers = {self: server}  # owner -> its server at this epoch
        frontier = list(demand.successors)
        seen = {orig_addr, *frontier}
        while frontier and len(batch) <= depth:
            addr = frontier.pop(0)
            mc = self if owner is None else owner(addr)
            src = servers.get(mc)
            if src is None:
                src = servers[mc] = mc._stale_for_client() or mc
            if addr in src._unchunkable:
                continue
            try:
                if is_resident(addr):
                    successors = src.successors_of(addr)
                else:
                    chunk = src._obtain(addr)
                    batch.append((chunk, src.payload_of(chunk)))
                    mst = mc.stats
                    mst.prefetch_chunks_sent += 1
                    mst.prefetch_bytes_served += chunk.payload_bytes
                    mst.bytes_served += chunk.payload_bytes
                    successors = chunk.successors
            except ChunkError:
                src._unchunkable.add(addr)
                continue
            for succ in successors:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        if self.tracer is not None:
            self.tracer.emit(
                "mc.batch", "mc", orig=orig_addr, chunks=len(batch),
                prefetch_bytes=sum(c.payload_bytes
                                   for c, _ in batch[1:]))
        return batch

    def invalidate_chunks(self, addr: int, length: int) -> int:
        """Drop cached chunks overlapping [addr, addr+length).

        Called when the client declares code rewritten (the explicit
        self-modifying-code contract of §2.1).  Returns the number of
        chunks dropped.
        """
        stale = [orig for orig, chunk in self._chunk_cache.items()
                 if orig < addr + length and addr < orig + chunk.orig_size]
        for orig in stale:
            del self._chunk_cache[orig]
            self._payload_cache.pop(orig, None)
            self._successors.pop(orig, None)
        self._unchunkable.clear()
        for server in self._stale_mc.values():
            server.invalidate_chunks(addr, length)
        return len(stale)

    def restart(self) -> None:
        """Simulate an MC crash-restart (fault injection).

        Durable image versions survive but every server-side cache
        comes back cold: chunks, payloads, the successor graph and the
        unchunkable set are all rebuilt on demand.
        Rewriting is deterministic, so the rebuilt chunks are
        byte-identical — the client only pays extra service time,
        never sees different code.  Non-durable published epochs are
        rolled back: the MC comes back serving its latest *durable*
        epoch (clients above it re-assert their schedules or barrier
        back down).
        """
        dropped = [e for e, v in self._versions.items()
                   if not v.durable]
        for epoch in dropped:
            del self._versions[epoch]
        latest = max(self._versions)
        if latest != self.epoch:
            version = self._versions[latest]
            self.epoch = latest
            self.image = version.image
            self.image_digest = version.digest
            self.chunker = self._make_chunker(version.image,
                                              self.granularity)
            self.stats.publish_rollbacks += 1
        self._stale_mc.clear()
        self._chunk_cache.clear()
        self._payload_cache.clear()
        self._successors.clear()
        self._unchunkable.clear()
        self.stats.restarts += 1
        if self.tracer is not None:
            self.tracer.emit("mc.restart", "mc")
