"""The cache controller (CC): the client half of the SoftCache.

The CC owns the translation cache in the embedded client's local RAM.
It fields the miss traps that rewritten code executes, requests chunks
from the memory controller over the network link, installs them,
backpatches the branch words that pointed at miss stubs ("eventually,
if used, again rewritten to point to other blocks in the tcache",
Fig 3), and maintains the invalidation bookkeeping: incoming-pointer
links for every patched word plus the stack walk that fixes return
addresses when a block with live continuations is evicted.

Two controllers mirror the two prototypes:

* :class:`BlockCacheController` — SPARC style (§2.1): basic-block or
  extended-basic-block chunks, branch stubs, return-continuation
  slots, hash-table fallback for computed jumps, stack walking at
  invalidation time.
* :class:`ProcCacheController` — ARM style (§2.3): whole-procedure
  chunks, permanent per-call-site *redirectors* so that no return
  address ever points into evictable memory, no indirect jumps.

All CC work is charged to the simulated CPU through the cost model, and
link transfer time is converted to client cycles, so the paper's
time-shaped results (Figures 5 and 8) fall out of `cpu.cycles`.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from ..isa import Insn, Op, Trap, encode, patch_branch_disp, patch_jump_target
from ..isa.registers import FP, RA
from ..layout import FP_SENTINEL
from ..net import Channel
from ..net.faults import LinkDown
from ..sim.machine import Machine
from .mc import MemoryController
from .chunks import Chunk, ExitKind
from .policy import FLUSH, make_policy
from .records import ContSlot, JRSite, Link, Redirector, SiteKind, Stub, TBlock
from .stats import SoftCacheStats
from .tcache import TCache, TCacheFull, TCacheGeometry


class SoftCacheError(Exception):
    """Internal invariant violation or unrecoverable configuration."""


class _StubExhausted(Exception):
    """Stub area full; caller flushes and retries."""


_BREAK_WORD = encode(Insn(Op.BREAK, imm=0xDEAD))

#: (trap code, operand) -> encoded TRAP word, and (op, imm) -> encoded
#: J/JAL word.  Stub/slot ids recycle and tcache targets repeat under
#: eviction churn, so the same words are re-encoded constantly on the
#: miss path; both operand spaces are 20-bit, keeping the memos small.
_TRAP_WORD_MEMO: dict[tuple[int, int], int] = {}
_JUMP_WORD_MEMO: dict[tuple[Op, int], int] = {}


def _trap_word(code, imm: int) -> int:
    word = _TRAP_WORD_MEMO.get((code, imm))
    if word is None:
        word = encode(Insn(Op.TRAP, rd=code, imm=imm))
        _TRAP_WORD_MEMO[(code, imm)] = word
    return word


def _jump_word(op: Op, imm: int) -> int:
    word = _JUMP_WORD_MEMO.get((op, imm))
    if word is None:
        word = encode(Insn(op, imm=imm))
        _JUMP_WORD_MEMO[(op, imm)] = word
    return word

_LITTLE_ENDIAN_HOST = sys.byteorder == "little"


class _BEWords:
    """Word view over a bytearray for big-endian hosts (fallback for
    the ``memoryview.cast("I")`` bulk-install fast path)."""

    __slots__ = ("_buf",)

    def __init__(self, buf: bytearray):
        self._buf = buf

    def __getitem__(self, i: int) -> int:
        return int.from_bytes(self._buf[4 * i:4 * i + 4], "little")

    def __setitem__(self, i: int, word: int) -> None:
        self._buf[4 * i:4 * i + 4] = word.to_bytes(4, "little")


def _word_view(buf: bytearray):
    if _LITTLE_ENDIAN_HOST:
        return memoryview(buf).cast("I")
    return _BEWords(buf)


class _IdAlloc:
    """20-bit id allocator with reuse (TRAP operand space)."""

    def __init__(self, limit: int = 1 << 20):
        self._next = 0
        self._free: list[int] = []
        self._limit = limit

    def alloc(self) -> int:
        if self._free:
            return self._free.pop()
        if self._next >= self._limit:
            raise SoftCacheError("trap id space exhausted")
        value = self._next
        self._next += 1
        return value

    def free(self, value: int) -> None:
        self._free.append(value)

    def reset(self) -> None:
        self._next = 0
        self._free.clear()


class BaseCacheController:
    """Machinery shared by both prototype styles."""

    def __init__(self, machine: Machine, mc: MemoryController,
                 channel: Channel, geometry: TCacheGeometry, *,
                 policy="fifo", record_timeline: bool = True,
                 debug_poison: bool = False, prefetch_depth: int = 0,
                 recorder=None):
        self.machine = machine
        self.cpu = machine.cpu
        self.mem = machine.mem
        self.costs = machine.config.costs
        self.mc = mc
        self.channel = channel
        self.tcache = TCache(geometry)
        self._set_policy(policy)
        self.prefetch_depth = prefetch_depth
        self.record_timeline = record_timeline
        self.debug_poison = debug_poison
        self.stats = SoftCacheStats()
        #: Flight recorder (repro.obs), or None; every emission site is
        #: behind one ``is not None`` check so disabled tracing costs
        #: nothing on the miss path.
        self.tracer = (recorder if recorder is not None
                       and recorder.enabled else None)
        if self.tracer is not None:
            metrics = self.tracer.metrics
            self._miss_latency = metrics.histogram(
                "cc.miss_latency_cycles")
            self._patch_distance = metrics.histogram(
                "cc.patch_distance_bytes")
        else:
            self._miss_latency = None
            self._patch_distance = None
        self.cpu.trap_hook = self._on_trap
        machine.invalidate_hook = self.invalidate_original_range
        #: extra trap dispatchers (the D-cache plugs in here).
        self.extra_trap_handlers: dict[int, object] = {}
        #: Misses stranded by a LinkDown trap, replayed at reconnect.
        #: Blocking RPC semantics mean at most one is outstanding, but
        #: the list form is what check_consistency audits.
        self.pending_misses: list[int] = []
        #: Fault layer's payload-staging hook (install_faults rebinds
        #: this); None on a fault-free channel, keeping the miss path
        #: free of checksum work.
        self._stager = getattr(channel, "stage_payloads", None)
        #: Ops-plane control queue (:class:`repro.obs.server.
        #: ControlPlane`), or None.  Admin commands posted over HTTP
        #: are applied at the next miss boundary — the only safe
        #: point: no placed-but-uncommitted block, no mid-install
        #: pointer state.  Unattached (the default) the miss path
        #: pays one ``is not None`` comparison, nothing else.
        self._control = None
        #: Live code update (:mod:`repro.softcache.update`): the image
        #: epoch this client's resident code belongs to, the optional
        #: per-client publish schedule, and the epoch each parked miss
        #: was pending under (audited by ``check_consistency``).
        self._epoch = getattr(mc, "epoch", 0)
        self._update_schedule = None
        self.pending_miss_epochs: dict[int, int] = {}
        #: (cycles, epoch) per crossed update barrier — the client's
        #: leg of the fleet rollout wavefront.
        self.epoch_transitions: list[tuple[int, int]] = []

    # -- replacement policy -------------------------------------------------

    def _set_policy(self, policy) -> None:
        """Build/bind the replacement policy (constructor + admin set).

        ``self.policy`` stays the plain name string the rest of the
        system (inspect snapshots, fleet metadata, tests) reads.
        """
        obj = make_policy(policy)
        obj.bind(self)
        self._policy = obj
        self.policy = obj.name
        self._rebuild_batch_filter()

    def _rebuild_batch_filter(self) -> None:
        """Choose the predicate handed to ``mc.serve_batch``.

        A policy that never rejects admission gets the raw residency
        bound method — the exact seed fast path, zero indirection.  A
        filtering policy gets a wrapper that reports non-resident,
        policy-rejected candidates as "resident" so the MC skips
        shipping them (the link bytes are the savings), counting and
        tracing each rejection.
        """
        policy = self._policy
        if not policy.filters_prefetch:
            self._batch_filter = self._is_resident
            return

        def batch_filter(orig: int) -> bool:
            if self._is_resident(orig):
                return True
            if policy.admit_prefetch(orig):
                return False
            self.stats.policy_prefetch_rejects += 1
            if self.tracer is not None:
                self.tracer.emit("cc.policy_reject", "cc", orig=orig,
                                 policy=policy.name)
            return True

        self._batch_filter = batch_filter

    # -- live code update ---------------------------------------------------

    def set_update_schedule(self, schedule) -> None:
        """Attach a per-client :class:`~repro.softcache.update.
        UpdateSchedule`.  The schedule gates the observed epoch
        (``min(mc.epoch, cap)``), so a client attached to a shared MC
        that other clients already updated starts from the oldest
        version its own clock allows — the rollout wavefront."""
        self._update_schedule = schedule
        self._epoch = min(self._epoch,
                          schedule.poll(self.cpu.cycles, self.mc))

    def _sync_epoch(self) -> None:
        """Observe the MC's epoch at a miss boundary, crossing the
        update barrier if it moved, and route the serves that follow:
        ``mc.client_epoch`` makes the MC resolve them at the epoch
        this client observed, not at the MC's own head."""
        mc = self.mc
        sched = self._update_schedule
        if sched is not None:
            observed = min(getattr(mc, "epoch", 0),
                           sched.poll(self.cpu.cycles, mc))
        else:
            observed = getattr(mc, "epoch", 0)
        if observed != self._epoch:
            self._update_barrier(observed)
        mc.client_epoch = observed

    def _update_barrier(self, new_epoch: int) -> None:
        """Cross to image epoch *new_epoch* at a miss boundary — the
        only safe point (no placed-but-uncommitted block, no
        mid-install pointer state).

        Exactly the resident blocks whose original span intersects
        text the publish changed are invalidated through the normal
        unlink machinery (prefetched-but-unexecuted ones are dropped
        and counted); every surviving block, stub and parked miss is
        re-stamped to the new epoch; the client's text mirror is
        rewritten with the new bytes (the flash write a real update
        agent performs — it also kills any decoded closure over those
        words through the memory code-write hooks); and the JIT
        artifact namespace rolls to the new image's content digest so
        a persistent ``.sbc`` artifact can never resurrect old code.
        Refetching is lazy: untouched hot code keeps running and dirty
        chunks fault back in on their next use.  Runs symmetrically
        for a *downgrade* (an MC crash-restart rolled back a
        non-durable publish).
        """
        stats = self.stats
        prev = self._epoch
        mc = self.mc
        spans = mc.dirty_spans_between(prev, new_epoch)

        def dirty(orig: int, size: int) -> bool:
            for start, end in spans:
                if orig < end and start < orig + size:
                    return True
            return False

        for block in self.tcache.pinned_blocks:
            if dirty(block.orig, block.orig_size):
                raise SoftCacheError(
                    f"publish (epoch {new_epoch}) rewrites pinned "
                    f"chunk {block.orig:#x}; pinned code cannot be "
                    f"hot-patched")
        victims = [b for b in self.tcache.order
                   if dirty(b.orig, b.orig_size)]
        invalidated = 0
        dropped_prefetch = 0
        try:
            for block in victims:
                if block.prefetched:
                    dropped_prefetch += 1
                self.tcache.retire(block)
                self._unlink_block(block)
                if self.debug_poison:
                    self.mem.write_bytes(
                        block.addr, _BREAK_WORD.to_bytes(4, "little")
                        * (block.size // 4))
                invalidated += 1
        except _StubExhausted:
            raise SoftCacheError(
                "stub area exhausted while repairing pointers during "
                "an update barrier; increase stub_capacity") from None
        self._charge(self.costs.evict_per_block_cycles * invalidated)
        # untouched old-epoch code stays resident: re-stamp it (and
        # the stubs/parked misses, which hold original addresses and
        # so stay valid across a layout-preserving publish)
        restamped = 0
        for block in self.tcache.order:
            if block.epoch != new_epoch:
                block.epoch = new_epoch
                restamped += 1
        for block in self.tcache.pinned_blocks:
            block.epoch = new_epoch
        stubs = getattr(self, "stubs", None)
        if stubs:
            for stub in stubs.values():
                stub.epoch = new_epoch
        for orig in self.pending_misses:
            self.pending_miss_epochs[orig] = new_epoch
        # the program can read its own text as data, and the update
        # convergence proof hashes the text mirror
        patched_words = 0
        new_image = mc.image_at(new_epoch)
        mem = self.mem
        base = new_image.text_base
        for start, end in spans:
            mem.write_bytes(start,
                            new_image.text[start - base:end - base])
            patched_words += (end - start) // 4
        if hasattr(self.cpu, "image_tag"):
            from .update import image_digest
            self.cpu.image_tag = image_digest(new_image)[:8]
        self._epoch = new_epoch
        self.epoch_transitions.append((self.cpu.cycles, new_epoch))
        stats.update_barriers += 1
        stats.update_invalidated_blocks += invalidated
        stats.update_restamped_blocks += restamped
        stats.update_prefetch_dropped += dropped_prefetch
        stats.update_text_patched_words += patched_words
        trc = self.tracer
        if trc is not None:
            trc.emit("cc.epoch_observed", "cc", epoch=new_epoch,
                     prev=prev)
            trc.emit("cc.update_barrier", "cc", epoch=new_epoch,
                     prev=prev, invalidated=invalidated,
                     restamped=restamped,
                     dropped_prefetch=dropped_prefetch)

    # -- cost charging -----------------------------------------------------

    def _charge(self, cycles: int) -> None:
        self.cpu.add_cycles(cycles)

    def _charge_link(self, seconds: float) -> int:
        cycles = int(seconds * self.costs.cpu_hz)
        self.cpu.add_cycles(cycles)
        return cycles

    # -- trap dispatch ------------------------------------------------------

    def _on_trap(self, cpu, code: int, operand: int, pc: int) -> int:
        if code == Trap.MISS_BRANCH:
            return self._miss_branch(operand)
        if code == Trap.MISS_RET:
            return self._miss_ret(operand)
        if code == Trap.MISS_JR:
            return self._miss_jr(operand)
        if code == Trap.MISS_CALL:
            return self._miss_call(operand)
        if code == Trap.RET_LAND:
            return self._ret_land(operand)
        handler = self.extra_trap_handlers.get(code)
        if handler is not None:
            return handler(cpu, code, operand, pc)
        raise SoftCacheError(f"unhandled trap code {code} at {pc:#x}")

    def _miss_branch(self, operand: int) -> int:
        raise SoftCacheError("MISS_BRANCH trap in this controller mode")

    def _miss_ret(self, operand: int) -> int:
        raise SoftCacheError("MISS_RET trap in this controller mode")

    def _miss_jr(self, operand: int) -> int:
        raise SoftCacheError("MISS_JR trap in this controller mode")

    def _miss_call(self, operand: int) -> int:
        raise SoftCacheError("MISS_CALL trap in this controller mode")

    def _ret_land(self, operand: int) -> int:
        raise SoftCacheError("RET_LAND trap in this controller mode")

    # -- translation ----------------------------------------------------------

    def start(self) -> None:
        """Translate the entry chunk and point the CPU at it."""
        block = self.ensure_translated(self.machine.image.entry)
        self.cpu.pc = block.addr

    def ensure_translated(self, orig: int) -> TBlock:
        """Return the resident block for *orig*, translating on miss.

        A miss is one chunk RPC: ``mc.serve_batch`` returns the
        demanded chunk plus up to ``prefetch_depth`` non-resident
        successors, and one ``batch_exchange`` carries them.  At depth
        0 that is a batch of one, the paper's one-chunk exchange; any
        prefetched chunks are installed speculatively after the demand
        install.
        """
        stats = self.stats
        self._charge(self.costs.map_lookup_cycles)
        block = self.tcache.lookup(orig)
        if block is not None and block.alive:
            stats.map_hits += 1
            if block.prefetched:
                block.prefetched = False
                stats.prefetch_hits += 1
            self._policy.on_hit(block)
            return block
        ctl = self._control
        if ctl is not None and ctl.pending:
            self._apply_admin(ctl)
        self._sync_epoch()
        trc = self.tracer
        miss_start = self.cpu.cycles if trc is not None else 0
        t0 = perf_counter()
        # NOTE: chunk/payload are re-bound from the exchange result —
        # an outage replay re-serves them, and if a publish landed
        # mid-outage the replayed pairs are the *new* version's;
        # installing the pre-exchange capture would be a torn write.
        depth = self.prefetch_depth
        batch = self.mc.serve_batch(orig, depth, self._batch_filter)
        stats.miss_serve_host_s += perf_counter() - t0
        seconds, batch = self._exchange_chunk(orig, batch, depth)
        chunk, payload = batch[0]
        stats.miss_link_cycles += self._charge_link(seconds)
        self._charge(self.costs.mc_service_cycles)
        stats.miss_serve_cycles += self.costs.mc_service_cycles
        t0 = perf_counter()
        for attempt in (0, 1):
            try:
                self._make_space(chunk.size)
                addr = self.tcache.place(chunk.size)
                block = TBlock(orig=orig, addr=addr, size=chunk.size,
                               orig_size=chunk.orig_size,
                               extra_words=chunk.extra_words,
                               name=chunk.name, epoch=self._epoch)
                self._install(block, chunk, payload)
                self.tcache.commit(block)
                self._policy.on_install(block, prefetched=False)
                if self.debug_poison:
                    self.tcache.assert_invariants()
                break
            except _StubExhausted:
                if attempt:
                    raise SoftCacheError(
                        "stub area exhausted even after a flush; "
                        "increase stub_capacity")
                self.flush()
        stats.translations += 1
        if self.record_timeline:
            stats.translation_timestamps.append(self.cpu.cycles)
        stats.words_installed += len(chunk.words)
        stats.extra_words_installed += chunk.extra_words
        install_cycles = (self.costs.install_fixed_cycles +
                          self.costs.install_per_word_cycles
                          * len(chunk.words))
        self._charge(install_cycles)
        stats.miss_install_cycles += install_cycles
        stats.miss_install_host_s += perf_counter() - t0
        if trc is not None:
            dur = self.cpu.cycles - miss_start
            trc.emit("cc.miss", "cc", miss_start, dur=dur, orig=orig,
                     name=chunk.name, size=chunk.size, batch=len(batch))
            self._miss_latency.observe(dur)
        for extra_chunk, extra_payload in batch[1:]:
            self._install_prefetched(extra_chunk, extra_payload)
        return block

    def _is_resident(self, orig: int) -> bool:
        block = self.tcache.lookup(orig)
        return block is not None and block.alive

    # -- miss exchange / degraded resident mode ---------------------------

    def _exchange_chunk(self, orig: int, pairs,
                        depth: int) -> tuple[float, list]:
        """One chunk RPC, fault-aware.

        *pairs* is what ``mc.serve_batch(orig, depth, ...)`` returned:
        ``[(chunk, payload), ...]``, demanded chunk first.  On a
        fault-free channel this is one ``batch_exchange``; with faults
        installed the reply payloads and their header checksums are
        staged first (so corruption is detected on real bytes), and an
        exhausted retry budget drops into degraded resident mode, which
        re-serves at the same *depth*.

        Returns ``(link seconds, delivered pairs)``.  The delivered
        pairs are what the caller must install: an outage replay
        re-serves them, and when a publish lands mid-outage the fresh
        pairs belong to the epoch the client crossed to — installing
        the pre-outage capture would be a torn version.
        """
        sizes = [c.payload_bytes for c, _ in pairs]
        if self._stager is not None:
            mc = self.mc
            self._stager([(p, mc.checksum_of(c)) for c, p in pairs])
        try:
            return self.channel.batch_exchange("chunk", sizes), pairs
        except LinkDown as down:
            seconds, pairs = self._replay_after_reconnect(orig, depth)
            return down.seconds + seconds, pairs

    def _replay_after_reconnect(self, orig: int,
                                depth: int) -> tuple[float, list]:
        """Degraded resident mode: the link is down mid-miss.

        Resident chunks would keep executing — it is only this miss
        that cannot make progress — so the blocking-RPC model shows the
        outage as a recorded stall: the miss is parked on
        ``pending_misses``, reconnect epochs are waited out (charged as
        ``degraded_stall_cycles``, not link time), and the miss is
        replayed — re-served by the MC (which may have crash-restarted;
        rewriting is deterministic, so the replayed chunks are
        byte-identical) and re-exchanged until it lands.  Returns the
        link seconds of the replay attempts and the pairs the last,
        successful exchange actually delivered.
        """
        stats = self.stats
        stats.link_down_traps += 1
        stats.link_down_by_chunk[orig] = \
            stats.link_down_by_chunk.get(orig, 0) + 1
        stats.degraded_entries += 1
        self.pending_misses.append(orig)
        self.pending_miss_epochs[orig] = self._epoch
        trc = self.tracer
        if trc is not None:
            trc.emit("cc.degraded_enter", "cc", orig=orig,
                     pending=len(self.pending_misses))
        channel = self.channel
        costs = self.costs
        seconds = 0.0
        stall_cycles = 0
        for _ in range(1000):
            stall_s = channel.wait_reconnect()
            cycles = int(stall_s * costs.cpu_hz)
            self._charge(cycles)
            stats.degraded_stall_cycles += cycles
            stall_cycles += cycles
            # a publish (or an MC crash-restart rolling one back) may
            # have landed during the outage: cross the barrier before
            # re-serving, so the replay resolves to exactly one
            # version — the one this client is at when it installs
            self._sync_epoch()
            if self.debug_poison:
                from .debug import check_consistency
                check_consistency(self)
            # re-issue the request: re-serve from the MC (re-priming
            # any hub key plumbing) and re-stage the reply payloads
            pairs = self.mc.serve_batch(orig, depth, self._batch_filter)
            sizes = [c.payload_bytes for c, _ in pairs]
            if self._stager is not None:
                mc = self.mc
                self._stager([(p, mc.checksum_of(c)) for c, p in pairs])
            try:
                seconds += channel.batch_exchange("chunk", sizes)
            except LinkDown as down:
                seconds += down.seconds
                continue
            self.pending_misses.remove(orig)
            self.pending_miss_epochs.pop(orig, None)
            stats.pending_miss_replays += 1
            if trc is not None:
                trc.emit("cc.degraded_exit", "cc", orig=orig,
                         stall_cycles=stall_cycles)
            return seconds, pairs
        raise SoftCacheError(
            f"miss on {orig:#x} never delivered across 1000 reconnect "
            f"epochs; the fault plan cannot make progress")

    def _install_prefetched(self, chunk: Chunk, payload: bytes) -> None:
        """Install a speculative chunk from a batched reply.

        Prefetch never evicts resident code and never triggers a
        flush: if the chunk does not fit — tcache space or stub /
        redirector headroom — it is dropped on the floor (the bytes
        were already paid for on the link; that is the wasted-prefetch
        risk the depth knob trades against).
        """
        stats = self.stats
        trc = self.tracer
        existing = self.tcache.lookup(chunk.orig)
        if existing is not None and existing.alive:
            return  # became resident while the batch installed
        try:
            fits = not self.tcache.needs_eviction(chunk.size)
        except TCacheFull:
            fits = False  # larger than the whole tcache
        if not fits or not self._prefetch_headroom(chunk):
            stats.prefetch_drops += 1
            stats.prefetch_dropped_bytes += chunk.payload_bytes
            if trc is not None:
                trc.emit("cc.prefetch_drop", "cc", orig=chunk.orig,
                         size=chunk.size,
                         reason="nospace" if not fits else "headroom")
            return
        t0 = perf_counter()
        addr = self.tcache.place(chunk.size)
        block = TBlock(orig=chunk.orig, addr=addr, size=chunk.size,
                       orig_size=chunk.orig_size,
                       extra_words=chunk.extra_words,
                       name=chunk.name, prefetched=True,
                       epoch=self._epoch)
        self._install(block, chunk, payload)
        self.tcache.commit(block)
        self._policy.on_install(block, prefetched=True)
        if self.debug_poison:
            self.tcache.assert_invariants()
        stats.translations += 1
        stats.prefetch_installs += 1
        if self.record_timeline:
            stats.translation_timestamps.append(self.cpu.cycles)
        stats.words_installed += len(chunk.words)
        stats.extra_words_installed += chunk.extra_words
        install_cycles = (self.costs.install_fixed_cycles +
                          self.costs.install_per_word_cycles
                          * len(chunk.words))
        self._charge(install_cycles)
        stats.miss_install_cycles += install_cycles
        stats.miss_install_host_s += perf_counter() - t0
        if trc is not None:
            trc.emit("cc.prefetch_install", "cc", orig=chunk.orig,
                     name=chunk.name, size=chunk.size)

    def _prefetch_headroom(self, chunk: Chunk) -> bool:
        """Whether installing *chunk* cannot exhaust fixed areas."""
        return True

    def _make_space(self, nbytes: int) -> None:
        tcache = self.tcache
        if not tcache.needs_eviction(nbytes):
            return
        policy = self._policy
        while True:
            if policy.on_evict_candidate(tcache.oldest()) == FLUSH:
                self.flush()
                return
            self._evict_oldest()
            if not tcache.needs_eviction(nbytes):
                return

    def pin_original(self, orig: int) -> TBlock:
        """Translate the chunk at *orig* into the permanent pinned
        area (§4: pinning without wasting space).  Must be called
        before the address is translated normally — typically right
        after construction, for interrupt handlers and similar
        latency-critical code.
        """
        existing = self.tcache.lookup(orig)
        if existing is not None:
            if existing.pinned:
                return existing
            raise SoftCacheError(
                f"{orig:#x} is already resident unpinned; pin before "
                f"running")
        self._sync_epoch()
        # a pin fetches its chunk alone, whatever prefetch_depth is
        pairs = self.mc.serve_batch(orig, 0, self._batch_filter)
        seconds, pairs = self._exchange_chunk(orig, pairs, 0)
        chunk, payload = pairs[0]
        self._charge_link(seconds)
        self._charge(self.costs.mc_service_cycles)
        addr = self.tcache.place_pinned(chunk.size)
        block = TBlock(orig=orig, addr=addr, size=chunk.size,
                       orig_size=chunk.orig_size,
                       extra_words=chunk.extra_words, name=chunk.name,
                       epoch=self._epoch)
        self._install(block, chunk, payload)
        self.tcache.commit_pinned(block)
        self.stats.translations += 1
        self.stats.words_installed += len(chunk.words)
        self.stats.extra_words_installed += chunk.extra_words
        self._charge(self.costs.install_fixed_cycles +
                     self.costs.install_per_word_cycles
                     * len(chunk.words))
        if self.tracer is not None:
            self.tracer.emit("cc.pin", "cc", orig=orig, size=chunk.size)
        return block

    def _install(self, block: TBlock, chunk: Chunk,
                 payload: bytes) -> None:
        raise NotImplementedError

    # -- eviction / flush -------------------------------------------------------

    def _evict_oldest(self) -> None:
        block = self.tcache.retire_oldest()
        if self.tracer is not None:
            self.tracer.emit("cc.evict", "cc", orig=block.orig,
                             addr=block.addr, size=block.size,
                             wasted=block.prefetched)
        self._unlink_block(block)
        if self.debug_poison:
            self.mem.write_bytes(
                block.addr, _BREAK_WORD.to_bytes(4, "little")
                * (block.size // 4))
        self.stats.evictions += 1
        if self.record_timeline:
            self.stats.eviction_timestamps.append(self.cpu.cycles)
        self._charge(self.costs.evict_per_block_cycles)

    def flush(self) -> None:
        """Drop the entire tcache and repair every live code pointer."""
        raise NotImplementedError

    def _unlink_block(self, block: TBlock) -> None:
        raise NotImplementedError

    # -- word patching ------------------------------------------------------------

    def _patch_site(self, site_addr: int, kind: SiteKind,
                    target: int) -> None:
        """Repoint the control-transfer word at *site_addr* to *target*."""
        t0 = perf_counter()
        mem = self.mem
        if kind is SiteKind.BRANCH:
            word = mem.read_word(site_addr)
            mem.write_word(site_addr,
                           patch_branch_disp(word, site_addr, target))
        elif kind in (SiteKind.JUMP, SiteKind.CALL):
            word = mem.read_word(site_addr)
            mem.write_word(site_addr, patch_jump_target(word, target))
        elif kind is SiteKind.CONTJ:
            mem.write_word(site_addr, _jump_word(Op.J, target >> 2))
        else:  # pragma: no cover
            raise SoftCacheError(f"cannot patch site kind {kind}")
        self.stats.patches += 1
        self.stats.miss_patch_cycles += self.costs.patch_cycles
        self._charge(self.costs.patch_cycles)
        self.stats.miss_patch_host_s += perf_counter() - t0
        if self.tracer is not None:
            self._trace_patch(site_addr, target, kind)

    def _trace_patch(self, site_addr: int, target: int,
                     kind: SiteKind) -> None:
        """Emit the backpatch event + patch-distance observation."""
        distance = abs(target - site_addr)
        self.tracer.emit("cc.patch", "cc", site=site_addr,
                         target=target, kind=kind.value,
                         distance=distance)
        self._patch_distance.observe(distance)

    # -- guest-visible invalidation -------------------------------------------------

    def invalidate_original_range(self, addr: int, length: int) -> None:
        """Guest declared code in [addr, addr+length) rewritten (§2.1).

        Like the fast simulators the paper cites, we invalidate the
        tcache in its entirety (infrequent by contract) and drop the
        MC's cached chunks for the range.
        """
        self.stats.guest_invalidations += 1
        if self.tracer is not None:
            self.tracer.emit("cc.guest_invalidate", "cc", addr=addr,
                             length=length)
        self.mc.invalidate_chunks(addr, length)
        overlaps = any(
            b.orig < addr + length and addr < b.orig + b.orig_size
            for b in self.tcache.order)
        if overlaps:
            self.flush()

    # -- ops-plane control (applied at miss boundaries) --------------------

    def _apply_admin(self, ctl) -> None:
        """Drain the control queue at a miss boundary.

        Each command is billed one MC service round trip of simulated
        time: a real CC would learn about the command from its server
        on the exchange it is already making.
        """
        for cmd in ctl.drain():
            self._charge(self.costs.mc_service_cycles)
            self.stats.admin_commands += 1
            try:
                result = self._admin_dispatch(cmd.verb, cmd.args)
            except (ValueError, TypeError, TCacheFull,
                    SoftCacheError) as exc:
                cmd.fail(str(exc))
            else:
                ctl.applied += 1
                cmd.complete(result)

    def _admin_dispatch(self, verb: str, args: dict) -> dict:
        """Apply one verb; a field the verb does not take is a command
        error naming the field, like a bad value."""
        handler = {"flush": self.admin_flush, "set": self.admin_set,
                   "resize": self.admin_resize,
                   "publish": self.admin_publish}.get(verb)
        if handler is None:
            raise ValueError(f"unknown admin verb {verb!r}")
        fields = inspect.signature(handler).parameters
        unknown = [name for name in args if name not in fields]
        if unknown:
            raise ValueError(f"admin {verb}: unknown field "
                             f"{', '.join(map(repr, unknown))}")
        return handler(**args)

    def admin_flush(self) -> dict:
        """casadm-style ``flush``: drop every unpinned block now."""
        dropped = self.tcache.resident_blocks
        self.flush()
        return {"verb": "flush", "blocks_dropped": dropped}

    def admin_set(self, *, prefetch_depth: int | None = None,
                  policy: str | None = None) -> dict:
        """Retune the runtime knobs that are safe to flip mid-run.

        ``prefetch_depth`` shapes the *next* miss exchange (the check
        site runs before the serve path reads it); ``policy`` swaps the
        replacement policy (fresh metadata).
        """
        from .system import check_int
        # validate every field before applying any, so a rejected
        # command changes nothing
        if policy is None and prefetch_depth is None:
            raise ValueError("admin set: no knob given")
        if prefetch_depth is not None:
            check_int("prefetch_depth", prefetch_depth, 0)
        new_policy = None if policy is None else make_policy(policy)
        applied: dict = {"verb": "set"}
        if new_policy is not None:
            self._set_policy(new_policy)
            applied["policy"] = self.policy
        if prefetch_depth is not None:
            self.prefetch_depth = prefetch_depth
            applied["prefetch_depth"] = prefetch_depth
        return applied

    def admin_publish(self, *, image: str) -> dict:
        """Hot-patch: load an image file and publish it to this
        client's MC.  The epoch bump is observed at this very miss
        boundary (``_sync_epoch`` runs right after the admin drain),
        so the update barrier crosses before the miss is served."""
        from .update import image_digest, load_image
        try:
            new_image = load_image(image)
        except OSError as exc:
            raise ValueError(str(exc)) from None
        epoch = self.mc.publish(new_image)
        return {"verb": "publish", "epoch": epoch,
                "digest": image_digest(new_image)}

    def admin_resize(self, *, tcache_size: int) -> dict:
        """Resize the effective block area within the boot geometry.

        The flush is mandatory — resident blocks are pinned in place
        by every patched word that targets them — and is billed to
        simulated time like any flush, so a resize shows up in the
        figures as the miss storm it would really cause.
        """
        new_size = int(tcache_size)
        old_size = self.tcache.size
        # validate before flushing so a rejected resize is a no-op
        if not 0 < new_size <= self.tcache.geom.size:
            raise ValueError(
                f"tcache size must be in (0, {self.tcache.geom.size}] "
                f"bytes (boot geometry is the hardware ceiling); "
                f"got {new_size}")
        self.flush()
        self.tcache.resize(new_size)
        # the geometry changed under the policy: clear *all* metadata,
        # including per-address history an ordinary flush preserves
        self._policy.reset()
        return {"verb": "resize", "tcache_size": new_size,
                "previous_size": old_size}

    # -- reporting --------------------------------------------------------------------

    @property
    def local_memory_in_use(self) -> dict[str, int]:
        """Byte accounting of the CC's local memory areas."""
        tc = self.tcache
        return {
            "tcache_capacity": tc.size,
            "tcache_used": tc.used_bytes,
            "stub_bytes": tc.stub_bytes_in_use,
            "redirector_bytes": tc.redirector_bytes_in_use,
            "pinned_bytes": tc.pinned_bytes_in_use,
            "map_bytes": tc.map_bytes,
        }


class BlockCacheController(BaseCacheController):
    """SPARC-prototype CC: block/EBB chunks with full invalidation."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stubs: dict[int, Stub] = {}
        self.cont_slots: dict[int, ContSlot] = {}
        self.jr_sites: dict[int, JRSite] = {}
        self._stub_ids = _IdAlloc()
        self._cont_ids = _IdAlloc()
        self._jr_ids = _IdAlloc()
        #: CONTJ links of *standalone* slots, for garbage collection.
        self._contj_links: dict[int, Link] = {}

    # -- install ---------------------------------------------------------------

    _SITE_KIND = {ExitKind.TAKEN: SiteKind.BRANCH,
                  ExitKind.JUMP: SiteKind.JUMP,
                  ExitKind.CALL: SiteKind.CALL}

    def _install(self, block: TBlock, chunk: Chunk,
                 payload: bytes) -> None:
        # one patch pass over a local bytearray of the pre-encoded
        # payload, then a single write into the tcache: the install is
        # O(exits) word stores plus one memcpy instead of a per-word
        # re-encode (the bulk-install fast lane).
        buf = bytearray(payload)
        words = _word_view(buf)
        addr = block.addr
        for ex in chunk.exits:
            site = addr + 4 * ex.index
            kind = ex.kind
            if kind in self._SITE_KIND:
                site_kind = self._SITE_KIND[kind]
                if ex.target == chunk.orig:
                    dst = block  # tight self-loop: chain immediately
                else:
                    dst = self.tcache.lookup(ex.target)
                if dst is not None and dst.alive:
                    words[ex.index] = self._retarget_word(
                        words[ex.index], site_kind, site, dst.addr)
                    link = Link(site, site_kind, block, dst, ex.target)
                    block.outgoing.add(link)
                    dst.incoming.add(link)
                else:
                    stub = self._new_stub(ex.target, site, site_kind, block)
                    block.stubs.add(stub)
                    words[ex.index] = self._retarget_word(
                        words[ex.index], site_kind, site, stub.addr)
            elif kind is ExitKind.CONT:
                slot = self._new_cont_slot(site, ex.target, block, "trap")
                words[ex.index] = _trap_word(Trap.MISS_RET, slot.slot_id)
            elif kind is ExitKind.CONT_INLINE:
                self._new_cont_slot(site, ex.target, block, "inline")
                # the continuation code itself sits here; word untouched
            elif kind in (ExitKind.JR, ExitKind.JALR):
                jr_id = self._jr_ids.alloc()
                cont_addr = site + 4 if kind is ExitKind.JALR else 0
                rec = JRSite(jr_id, ex.rs1, ex.rd, cont_addr, block)
                self.jr_sites[jr_id] = rec
                block.jr_sites.append(rec)
                words[ex.index] = _trap_word(Trap.MISS_JR, jr_id)
            else:  # pragma: no cover
                raise SoftCacheError(f"unexpected exit kind {kind}")
        self.mem.write_bytes(addr, bytes(buf))

    def _prefetch_headroom(self, chunk: Chunk) -> bool:
        # worst case every patchable exit whose target is neither
        # resident nor the chunk itself needs a fresh stub word; the
        # admission check is conservative (standalone-slot GC could
        # free more) because a prefetch must never trigger the
        # flush-and-retry path a demand miss is allowed.
        needed = 0
        for ex in chunk.exits:
            if ex.kind in self._SITE_KIND and ex.target != chunk.orig:
                dst = self.tcache.lookup(ex.target)
                if dst is None or not dst.alive:
                    needed += 1
        return needed <= self.tcache.free_stub_slots

    @staticmethod
    def _retarget_word(word: int, kind: SiteKind, site: int,
                       target: int) -> int:
        if kind is SiteKind.BRANCH:
            return patch_branch_disp(word, site, target)
        return patch_jump_target(word, target)

    # -- stub / slot management -----------------------------------------------------

    def _alloc_stub_slot(self) -> int:
        """Allocate a stub word, garbage-collecting unreferenced
        standalone return slots under pressure."""
        addr = self.tcache.alloc_stub()
        if addr is None:
            self._gc_standalone_slots()
            addr = self.tcache.alloc_stub()
            if addr is None:
                raise _StubExhausted
        return addr

    def _gc_standalone_slots(self) -> None:
        """Free standalone return slots no live return address holds.

        Standalone slots are reachable only through ra values (that is
        their whole purpose), so one stack walk identifies the live
        set; everything else is reclaimed.
        """
        live_values = {value for _, _, value
                       in self._collect_ra_holders()}
        for slot in list(self.cont_slots.values()):
            if (slot.block is not None or not slot.live
                    or slot.addr in live_values):
                continue
            link = self._contj_links.pop(slot.slot_id, None)
            if link is not None and link.dst.alive:
                link.dst.incoming.discard(link)
            self._free_cont_slot(slot)

    def _new_stub(self, orig_target: int, site_addr: int,
                  site_kind: SiteKind, src: TBlock | None) -> Stub:
        slot_addr = self._alloc_stub_slot()
        stub_id = self._stub_ids.alloc()
        stub = Stub(stub_id, slot_addr, orig_target, site_addr,
                    site_kind, src, epoch=self._epoch)
        self.stubs[stub_id] = stub
        self.mem.write_word(slot_addr,
                            _trap_word(Trap.MISS_BRANCH, stub_id))
        self.stats.stubs_created += 1
        self.stats.stubs_peak_bytes = max(
            self.stats.stubs_peak_bytes, self.tcache.stub_bytes_in_use)
        return stub

    def _free_stub(self, stub: Stub) -> None:
        if not stub.live:
            return
        stub.live = False
        self.stubs.pop(stub.stub_id, None)
        self._stub_ids.free(stub.stub_id)
        self.tcache.free_stub(stub.addr)
        if stub.src is not None:
            stub.src.stubs.discard(stub)

    def _new_cont_slot(self, addr: int, orig_target: int,
                       block: TBlock | None, state: str) -> ContSlot:
        slot_id = self._cont_ids.alloc()
        slot = ContSlot(slot_id, addr, orig_target, block, state)
        self.cont_slots[slot_id] = slot
        if block is not None:
            block.cont_slots.append(slot)
        return slot

    def _new_standalone_slot(self, orig_target: int) -> ContSlot:
        """A return stub in the stub area (created by stack fixing)."""
        addr = self._alloc_stub_slot()
        slot = self._new_cont_slot(addr, orig_target, None, "trap")
        self.mem.write_word(addr, _trap_word(Trap.MISS_RET, slot.slot_id))
        self.stats.stubs_created += 1
        return slot

    def _free_cont_slot(self, slot: ContSlot) -> None:
        if not slot.live:
            return
        slot.live = False
        self.cont_slots.pop(slot.slot_id, None)
        self._contj_links.pop(slot.slot_id, None)
        self._cont_ids.free(slot.slot_id)
        if slot.block is None:
            self.tcache.free_stub(slot.addr)

    # -- miss handlers ----------------------------------------------------------------

    def _miss_branch(self, operand: int) -> int:
        stub = self.stubs.get(operand)
        if stub is None or not stub.live:
            raise SoftCacheError(f"trap on dead stub id {operand}")
        self.stats.branch_miss_traps += 1
        if self.tracer is not None:
            self.tracer.emit("cc.trap", "cc", kind="branch", id=operand)
        self._charge(self.costs.trap_overhead_cycles)
        target = self.ensure_translated(stub.orig_target)
        # the source block may have been evicted while we translated
        if stub.live and (stub.src is None or stub.src.alive):
            self._patch_site(stub.site_addr, stub.site_kind, target.addr)
            link = Link(stub.site_addr, stub.site_kind, stub.src, target,
                        stub.orig_target)
            if stub.src is not None:
                stub.src.outgoing.add(link)
            target.incoming.add(link)
            self._free_stub(stub)
        return target.addr

    def _miss_ret(self, operand: int) -> int:
        slot = self.cont_slots.get(operand)
        if slot is None or not slot.live:
            raise SoftCacheError(f"return to dead cont slot {operand}")
        self.stats.ret_miss_traps += 1
        if self.tracer is not None:
            self.tracer.emit("cc.trap", "cc", kind="ret", id=operand)
        self._charge(self.costs.trap_overhead_cycles)
        target = self.ensure_translated(slot.orig_target)
        if slot.live and (slot.block is None or slot.block.alive):
            self.mem.write_word(slot.addr, _jump_word(Op.J, target.addr >> 2))
            slot.state = "jump"
            link = Link(slot.addr, SiteKind.CONTJ, slot.block, target,
                        slot.orig_target, aux=slot)
            if slot.block is not None:
                slot.block.outgoing.add(link)
            else:
                self._contj_links[slot.slot_id] = link
            target.incoming.add(link)
            self.stats.patches += 1
            self.stats.miss_patch_cycles += self.costs.patch_cycles
            self._charge(self.costs.patch_cycles)
            if self.tracer is not None:
                self._trace_patch(slot.addr, target.addr, SiteKind.CONTJ)
        return target.addr

    def _miss_jr(self, operand: int) -> int:
        site = self.jr_sites.get(operand)
        if site is None or not site.live:
            raise SoftCacheError(f"trap on dead jr site {operand}")
        self.stats.jr_lookups += 1
        self._charge(self.costs.trap_overhead_cycles +
                     self.costs.map_lookup_cycles)
        value = self.cpu.regs[site.rs1]
        if self.tcache.in_tcache_range(value):
            target_addr = value
        else:
            # only non-resident computed jumps are trace-worthy: the
            # resident fast path runs once per jr execution and would
            # flood the recorder with uninformative events
            if self.tracer is not None:
                self.tracer.emit("cc.trap", "cc", kind="jr", id=operand)
            target_addr = self.ensure_translated(value).addr
        if site.rd:
            # jalr: the link register receives the continuation slot
            self.cpu.set_reg(site.rd, site.cont_addr)
        return target_addr

    # -- invalidation --------------------------------------------------------------------

    def _unlink_block(self, block: TBlock) -> None:
        if block.prefetched:
            block.prefetched = False
            self.stats.wasted_prefetch_bytes += block.size
        # 1. incoming pointers: repoint at fresh miss stubs / traps
        # (iterate a snapshot: stub allocation may GC standalone slots,
        # which mutates incoming indexes)
        for link in list(block.incoming):
            if link.src is block:
                continue  # self-link dies with the block
            if link.kind is SiteKind.CONTJ:
                slot: ContSlot = link.aux  # type: ignore[assignment]
                if slot.live and (slot.block is None or slot.block.alive):
                    self.mem.write_word(
                        slot.addr,
                        _trap_word(Trap.MISS_RET, slot.slot_id))
                    slot.state = "trap"
                    if slot.block is None:
                        self._contj_links.pop(slot.slot_id, None)
                    if link.src is not None and link.src.alive:
                        link.src.outgoing.discard(link)
            elif link.src is not None and link.src.alive:
                stub = self._new_stub(link.orig_target, link.site_addr,
                                      link.kind, link.src)
                link.src.stubs.add(stub)
                self._patch_site(link.site_addr, link.kind, stub.addr)
                link.src.outgoing.discard(link)
        block.incoming.clear()
        # 2. outgoing pointers: drop reverse registrations
        for link in block.outgoing:
            if link.dst.alive:
                link.dst.incoming.discard(link)
        block.outgoing.clear()
        # 3. unresolved stubs and jr sites owned by the block
        for stub in list(block.stubs):
            self._free_stub(stub)
        for site in block.jr_sites:
            site.live = False
            self.jr_sites.pop(site.site_id, None)
            self._jr_ids.free(site.site_id)
        block.jr_sites.clear()
        # 4. return addresses pointing into the block (stack walk)
        if block.cont_slots:
            self._fix_ra_holders_for(block)
            for slot in block.cont_slots:
                self._free_cont_slot(slot)
            block.cont_slots.clear()

    def _fix_ra_holders_for(self, block: TBlock) -> None:
        slot_by_addr = {s.addr: s for s in block.cont_slots if s.live}
        fresh_by_value: dict[int, ContSlot] = {}
        for kind, loc, value in self._collect_ra_holders():
            if not block.contains(value):
                continue
            slot = slot_by_addr.get(value)
            if slot is None:
                raise SoftCacheError(
                    f"return address {value:#x} points into block "
                    f"{block.orig:#x} but matches no continuation slot")
            fresh = fresh_by_value.get(value)
            if fresh is None:
                fresh = self._new_standalone_slot(slot.orig_target)
                fresh_by_value[value] = fresh
            self._write_ra_holder(kind, loc, fresh.addr)

    def _collect_ra_holders(self) -> list[tuple[str, int, int]]:
        """Find every live location holding a tcache code pointer.

        By the programming-model contract (§2.1) these are exactly the
        ``ra`` register and the per-frame return-address slot at
        ``fp - 4``, with frames linked through ``fp - 8`` down to the
        crt0 sentinel.
        """
        out: list[tuple[str, int, int]] = []
        regs = self.cpu.regs
        value = regs[RA]
        if self.tcache.in_tcache_range(value):
            out.append(("reg", RA, value))
        fp = regs[FP]
        mem = self.mem
        walk_cost = self.costs.stack_walk_per_frame_cycles
        guard = 0
        while fp != FP_SENTINEL and guard < 1_000_000:
            try:
                slot_value = mem.read_word(fp - 4)
                next_fp = mem.read_word(fp - 8)
            except Exception:
                break  # fp chain left the stack: stop defensively
            if self.tcache.in_tcache_range(slot_value):
                out.append(("mem", fp - 4, slot_value))
            self._charge(walk_cost)
            fp = next_fp
            guard += 1
        return out

    def _write_ra_holder(self, kind: str, loc: int, value: int) -> None:
        if kind == "reg":
            self.cpu.set_reg(loc, value)
        else:
            self.mem.write_word(loc, value)
        self.stats.stack_slots_fixed += 1

    def flush(self) -> None:
        """Drop every unpinned block; pinned blocks, standalone return
        stubs and redirector-free bookkeeping survive."""
        self.stats.flushes += 1
        blocks = self.tcache.retire_all()
        if self.tracer is not None:
            self.tracer.emit("cc.flush", "cc", blocks=len(blocks))
        self.stats.blocks_flushed += len(blocks)
        if self.record_timeline:
            now = self.cpu.cycles
            self.stats.eviction_timestamps.extend([now] * len(blocks))
        try:
            for block in blocks:
                self._unlink_block(block)
        except _StubExhausted:
            raise SoftCacheError(
                "stub area exhausted while repairing pointers during a "
                "flush; increase stub_capacity") from None
        self.cpu.invalidate_all_decoded()
        self._charge(self.costs.evict_per_block_cycles * len(blocks))


class ProcCacheController(BaseCacheController):
    """ARM-prototype CC: procedure chunks + permanent redirectors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.redirectors: dict[int, Redirector] = {}
        self._redirector_by_site: dict[tuple[int, int], Redirector] = {}
        self._rid_alloc = _IdAlloc()

    # -- install -----------------------------------------------------------

    def _install(self, block: TBlock, chunk: Chunk,
                 payload: bytes) -> None:
        buf = bytearray(payload)
        words = _word_view(buf)
        addr = block.addr
        for ex in chunk.exits:
            if ex.kind is ExitKind.INTERNAL:
                # intra-procedure absolute jump: rebase onto placement
                words[ex.index] = patch_jump_target(
                    words[ex.index], addr + ex.target)
            elif ex.kind is ExitKind.CALLSITE:
                redir = self._redirector_for(chunk.orig, ex)
                words[ex.index] = patch_jump_target(
                    words[ex.index], redir.addr)
                # the permanent landing now returns into this placement
                ret_target = addr + ex.ret_offset
                self.mem.write_word(redir.addr + 4,
                                    _jump_word(Op.J, ret_target >> 2))
                link = Link(redir.addr + 4, SiteKind.LANDING, None,
                            block, ex.target, aux=redir)
                block.incoming.add(link)
            else:  # pragma: no cover - chunker emits only these kinds
                raise SoftCacheError(f"unexpected exit kind {ex.kind}")
        self.mem.write_bytes(addr, bytes(buf))

    def _prefetch_headroom(self, chunk: Chunk) -> bool:
        # every call site without an existing redirector needs one
        # permanent two-word slot; a prefetched procedure must not be
        # the one that exhausts the area (that raises for demand
        # misses, which actually need the code).
        needed = sum(
            1 for ex in chunk.exits
            if ex.kind is ExitKind.CALLSITE
            and (chunk.orig, ex.index) not in self._redirector_by_site)
        return needed <= self.tcache.free_redirector_slots

    def _redirector_for(self, caller_orig: int, ex) -> Redirector:
        key = (caller_orig, ex.index)
        redir = self._redirector_by_site.get(key)
        if redir is not None:
            return redir
        addr = self.tcache.alloc_redirector()
        if addr is None:
            raise SoftCacheError(
                "redirector area full; increase redirector_capacity")
        rid = self._rid_alloc.alloc()
        redir = Redirector(rid, addr, caller_orig, ex.target,
                           ex.ret_offset)
        self.redirectors[rid] = redir
        self._redirector_by_site[key] = redir
        self.mem.write_word(addr, _trap_word(Trap.MISS_CALL, rid))
        self.mem.write_word(addr + 4, _trap_word(Trap.RET_LAND, rid))
        return redir

    # -- miss handlers --------------------------------------------------------

    def _miss_call(self, operand: int) -> int:
        redir = self.redirectors[operand]
        self.stats.call_miss_traps += 1
        if self.tracer is not None:
            self.tracer.emit("cc.trap", "cc", kind="call", id=operand)
        self._charge(self.costs.trap_overhead_cycles)
        callee = self.ensure_translated(redir.callee_orig)
        self.mem.write_word(redir.addr,
                            _jump_word(Op.JAL, callee.addr >> 2))
        callee.incoming.add(Link(redir.addr, SiteKind.RCALL, None,
                                 callee, redir.callee_orig, aux=redir))
        self.stats.patches += 1
        self.stats.miss_patch_cycles += self.costs.patch_cycles
        self._charge(self.costs.patch_cycles)
        if self.tracer is not None:
            self._trace_patch(redir.addr, callee.addr, SiteKind.RCALL)
        # emulate the jal the redirector now performs
        self.cpu.set_reg(RA, redir.addr + 4)
        return callee.addr

    def _ret_land(self, operand: int) -> int:
        redir = self.redirectors[operand]
        self.stats.landing_miss_traps += 1
        if self.tracer is not None:
            self.tracer.emit("cc.trap", "cc", kind="landing", id=operand)
        self._charge(self.costs.trap_overhead_cycles)
        caller = self.ensure_translated(redir.caller_orig)
        # installing the caller re-patched this landing already
        return caller.addr + redir.ret_offset

    # -- invalidation -------------------------------------------------------------

    def _unlink_block(self, block: TBlock) -> None:
        if block.prefetched:
            block.prefetched = False
            self.stats.wasted_prefetch_bytes += block.size
        for link in block.incoming:
            redir: Redirector = link.aux  # type: ignore[assignment]
            if link.kind is SiteKind.RCALL:
                self.mem.write_word(redir.addr,
                                    _trap_word(Trap.MISS_CALL, redir.rid))
            elif link.kind is SiteKind.LANDING:
                self.mem.write_word(redir.addr + 4,
                                    _trap_word(Trap.RET_LAND, redir.rid))
            else:  # pragma: no cover
                raise SoftCacheError(
                    f"unexpected incoming link kind {link.kind}")
        block.incoming.clear()
        # procedure blocks have no outgoing links, stubs or cont slots:
        # all inter-procedure control flows through redirectors.

    def flush(self) -> None:
        self.stats.flushes += 1
        blocks = self.tcache.retire_all()
        if self.tracer is not None:
            self.tracer.emit("cc.flush", "cc", blocks=len(blocks))
        self.stats.blocks_flushed += len(blocks)
        if self.record_timeline:
            now = self.cpu.cycles
            self.stats.eviction_timestamps.extend([now] * len(blocks))
        # revert the redirector words that pointed into dropped blocks;
        # redirectors serving pinned procedures stay patched
        for block in blocks:
            self._unlink_block(block)
        self.cpu.invalidate_all_decoded()
        self._charge(self.costs.evict_per_block_cycles * len(blocks))
