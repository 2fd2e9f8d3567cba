"""The repro RISC CPU: a closure-caching, superblock-threading interpreter.

Each instruction word is decoded once into a specialized Python closure.
The closure factory of every fusable opcode is generated from its row
of the op table (:data:`repro.sim.jit.OPS`, the same rows the JIT
template is generated from) and compiled once at import with the row's
expression inlined; only TRAP/SYSCALL/BREAK/HALT are written by hand.
Closures depend only on their word (branch targets and link addresses
come from the runtime pc), so one per-CPU ``word -> closure`` memo
serves every address the word appears at, and a per-address decode
cache maps pcs onto it.  On top of that sits a **superblock layer**: at
first dispatch of a pc, the straight-line run of instructions starting
there (up to the next control transfer) is fused into one dispatch
entry; the run loop is then ``pc = blocks[pc](pc)``.  Traced runs,
:meth:`CPU.step` and TRAP/SYSCALL/BREAK/HALT words always use the
per-instruction closures, so hook-visible state is exact at those
boundaries.

Every fused block runs as code from the template JIT
(:mod:`repro.sim.jit`), bound at the block's first dispatch: guest
registers as Python locals, constants folded, batched cycle
accounting.  Code is compiled per block *shape* — the words with the
terminator's target field cleared — and bound per content key with
that key's exit target, so the copies of a block that the SoftCache
re-patches to other targets share one compile.  Compiled artifacts
persist in the trace-cache directory (:mod:`repro.sim.jitcache`) keyed
by shape + codegen version, so a warm process binds blocks without
running codegen.  That leaves two execution paths, both generated from
the op table: per-instruction dispatch (``superblocks=False``, the
reference) and the JIT.  They are cycle-identical: fusion only changes
host speed, never simulated counters.

A write that changes bytes of an executable region (dynamic binary
rewriting by the SoftCache) drops the per-address closures and
single-word dispatch entries of the written words *and every fused
block overlapping them*, so patched branch words and ``debug_poison``
BREAK words take effect exactly like they would on real hardware with
coherent fetch.  A write that stores the bytes already there is no
code write (:class:`~repro.sim.memory.Memory` calls no hook), so it
costs nothing.  A store executed from inside a fused block re-checks a
code-generation counter so even self-modifying stores fall back to
fresh decode mid-block.

The CPU knows nothing about caching.  The SoftCache hooks in through
two narrow interfaces:

* ``trap_hook(cpu, code, operand, pc) -> next_pc`` — invoked by TRAP
  instructions (miss stubs, dcache ops);
* the executable-region permissions — in SoftCache mode only local RAM
  is executable, so any escape from the translation cache raises
  :class:`~repro.sim.errors.FetchFault` instead of silently running
  untranslated code.

Cycle accounting: every closure bumps an (instruction, cycle) stats
cell by its opcode's cost (TRAP/SYSCALL/HALT charge 1, BREAK nothing;
see :attr:`~repro.sim.costs.CostModel.op_cycles`); runtime components
charge additional cycles through :meth:`CPU.add_cycles`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

from ..isa import Fmt, Op, Trap
from ..isa.registers import RA
from .costs import DEFAULT_COSTS, CostModel
from .errors import (
    BreakHit,
    CycleLimitExceeded,
    FetchFault,
    IllegalInstruction,
    SimError,
)
from .jit import (
    OPS,
    JitStats,
    OpSem,
    _HELPER_FNS,
    _SB_STRAIGHT_OPS,
    _SB_TERM_OPS,
    _WIDTHS,
    _decode_word,
    fill,
    jit_codegen,
    split_target,
)
from . import jitcache
from .memory import Memory

MASK32 = 0xFFFFFFFF


class HaltExecution(Exception):
    """Raised internally to unwind the run loop on HALT/exit."""


TrapHook = Callable[["CPU", int, int, int], int]
SysHook = Callable[["CPU", int, int], int]

#: Word -> fusion class (0 = straight-line, 1 = terminator, 2 = not
#: fusable / undecodable).  The block scanner consults this instead of
#: decoding, so retranslation churn (tcache thrash) classifies each
#: word with one dict hit.
_WORD_CLASS: dict[int, int] = {}

#: Max instructions fused into one superblock (prefix + terminator).
FUSE_LIMIT = 64

#: Bucket granularity of the block cover map: block spans are indexed
#: by 64-byte bucket, not by word, so registering/killing a block costs
#: O(span / 64B) dict operations instead of O(span / 4B).
_COVER_SHIFT = 6
#: Dispatches per instruction-limit check in the fast loop.
_CHUNK = 16384
#: With every fused block bounded by FUSE_LIMIT instructions, a chunk
#: of _CHUNK dispatches can execute at most this many instructions, so
#: the fast loop cannot overshoot the cap while more than this remains.
_SAFE_MARGIN = _CHUNK * FUSE_LIMIT


def _classify_word(word: int) -> int:
    """Decode *word* once and memoize its fusion class (and the Insn)."""
    try:
        op = _decode_word(word).op
    except Exception:
        _WORD_CLASS[word] = 2
        return 2
    cls = 0 if op in _SB_STRAIGHT_OPS else 1 if op in _SB_TERM_OPS else 2
    _WORD_CLASS[word] = cls
    return cls


def _exit_target(start: int, key: tuple[int, ...]) -> int | None:
    """Absolute exit address bound as ``T`` for the block *key* at
    *start*: the taken target of a conditional branch, the target of
    ``J``/``JAL``, None for other terminators or none."""
    target = split_target(key)[1]
    if target is not None and _decode_word(key[-1]).fmt is Fmt.B:
        return start + target
    return target


@dataclass
class SuperblockStats:
    """Fusion and invalidation counters for the superblock layer."""

    #: Superblocks fused (>= 2 instructions in one dispatch entry).
    fused_blocks: int = 0
    #: Total instructions covered by those superblocks.
    fused_instructions: int = 0
    #: Dispatch entries that stayed single per-instruction closures
    #: (TRAP/SYSCALL/BREAK/HALT words, lone control transfers).
    single_closures: int = 0
    #: Fused blocks killed because a code write changed a byte of
    #: their span.
    invalidated_blocks: int = 0
    #: Whole-cache flushes (tcache flush / invalidate_all_decoded).
    flushes: int = 0
    #: Executable-region writes that changed a byte (hook calls).
    code_writes: int = 0

    @property
    def mean_block_length(self) -> float:
        """Mean fused instructions per superblock."""
        if not self.fused_blocks:
            return 0.0
        return self.fused_instructions / self.fused_blocks


class CPU:
    """A single in-order core executing the repro ISA."""

    def __init__(self, memory: Memory, costs: CostModel = DEFAULT_COSTS,
                 superblocks: bool = True):
        self.mem = memory
        self.costs = costs
        self.regs: list[int] = [0] * 32
        self.pc = 0
        self.exit_code: int | None = None
        #: [instructions executed, cycles consumed]
        self.stats = [0, 0]
        self.trap_hook: TrapHook | None = None
        self.sys_hook: SysHook | None = None
        #: Fuse straight-line code into superblocks in :meth:`run`.
        self.superblocks = superblocks
        #: Content tag of the image this CPU executes (live code
        #: update): part of the in-process and persistent JIT cache
        #: keys, so artifacts from one image version can never be
        #: resurrected for another.  "" (native/unversioned runs)
        #: keeps legacy keys and filenames.
        self.image_tag = ""
        self.jit_stats = JitStats()
        self.sb_stats = SuperblockStats()
        #: Flight-recorder hook: ``hook(kind, pc, n)`` with kind one of
        #: "fuse" (superblock fused, n = fused instructions),
        #: "jit_compile" / "jit_load" (a block's shape was compiled or
        #: loaded from the store, n = its instructions),
        #: "sb_invalidate" (a code write killed the fused block at pc) or
        #: "flush" (whole decode/superblock cache dropped).  None keeps
        #: the hot paths hook-free.
        self.trace_hook: Callable[[str, int, int], None] | None = None
        #: Per-address decode cache: pc -> per-instruction closure.
        self._decoded: dict[int, Callable[[int], int]] = {}
        #: Word -> per-instruction closure.  Closures depend only on
        #: their word, so every address holding a word shares one
        #: closure; never invalidated.
        self._word_fns: dict[int, Callable[[int], int]] = {}
        #: Dispatch table: block-start pc -> closure, for live fused
        #: blocks and single-word entries alike.
        self._blocks: dict[int, Callable[[int], int]] = {}
        #: Fused block start -> end address (exclusive) of its span.
        self._block_span: dict[int, int] = {}
        #: 64-byte bucket (addr >> _COVER_SHIFT) -> set of fused block
        #: starts whose span touches the bucket; consumers filter
        #: candidates through ``_block_span`` for word precision.
        self._block_cover: dict[int, set[int]] = {}
        #: Generation counter cell, bumped on every code write; fused
        #: blocks re-check it after stores to catch self-modification.
        self._code_gen = [0]
        #: Precise pc of a fault raised from inside a fused block.
        self._fault_pc: int | None = None
        #: Reusable ``exec`` namespace for JIT binding (built lazily;
        #: generated code captures everything through default
        #: arguments, so one dict serves every bind).
        self._sb_exec_ns: dict | None = None
        #: Content key -> bound JIT function for this CPU: identical
        #: word runs reuse one binding across evict/flush/retranslate
        #: cycles.
        self._sb_jit_fns: dict[tuple[int, ...], Callable[[int], int]] = {}
        #: Fused block start -> content key of the block registered
        #: there (introspection).
        self._block_key: dict[int, tuple[int, ...]] = {}
        #: Interned id of this CPU's per-op cost table; part of the
        #: module-level codegen cache key (costs are baked into the
        #: generated source as literals).
        sig = tuple(sorted((op.value, c) for op, c in
                           costs.op_cycles.items()))
        self._sb_cost_sig = sig
        self._sb_cost_tag = _COST_TAGS.setdefault(sig, len(_COST_TAGS))
        memory.code_write_hooks.append(self._invalidate_decoded)

    # -- public accounting ------------------------------------------------

    @property
    def icount(self) -> int:
        """Instructions executed so far."""
        return self.stats[0]

    @property
    def cycles(self) -> int:
        """Cycles consumed so far (instructions + runtime charges)."""
        return self.stats[1]

    def add_cycles(self, n: int) -> None:
        """Charge *n* runtime cycles (CC/MC work, link transfer time)."""
        self.stats[1] += n

    def halt(self, exit_code: int = 0) -> None:
        """Stop execution at the end of the current instruction."""
        self.exit_code = exit_code
        raise HaltExecution

    # -- register helpers (used by the SoftCache runtime) -----------------

    def get_reg(self, num: int) -> int:
        return self.regs[num]

    def set_reg(self, num: int, value: int) -> None:
        if num != 0:
            self.regs[num] = value & MASK32

    # -- decode cache -------------------------------------------------------

    def _invalidate_decoded(self, addr: int, length: int) -> None:
        """Code-write hook: drop what a write that changed bytes in
        ``[addr, addr + length)`` made stale.

        The closures and single-word dispatch entries of the written
        words go.  Every fused block whose span merely *overlaps* the
        write is killed, not just the block starting there, so
        backpatched branch words and ``debug_poison`` BREAK words in
        the middle of a fused run take effect on the next dispatch.
        """
        self._code_gen[0] += 1
        self.sb_stats.code_writes += 1
        lo = addr & ~3
        hi = addr + length
        pop = self._decoded.pop
        drop = self._blocks.pop
        for a in range(lo, hi, 4):
            pop(a, None)
            drop(a, None)
        cover_get = self._block_cover.get
        span = self._block_span
        kill = self._kill_block
        for bucket in range(lo >> _COVER_SHIFT,
                            ((hi - 1) >> _COVER_SHIFT) + 1):
            starts = cover_get(bucket)
            if starts:
                for start in tuple(starts):
                    end = span[start]
                    if start < hi and end > lo:
                        kill(start)

    def _kill_block(self, start: int) -> None:
        self._blocks.pop(start, None)
        self._block_key.pop(start)
        end = self._block_span.pop(start)
        self.sb_stats.invalidated_blocks += 1
        if self.trace_hook is not None:
            self.trace_hook("sb_invalidate", start, 0)
        cover = self._block_cover
        for bucket in range(start >> _COVER_SHIFT,
                            ((end - 1) >> _COVER_SHIFT) + 1):
            starts = cover.get(bucket)
            if starts is not None:
                starts.discard(start)
                if not starts:
                    del cover[bucket]

    def invalidate_all_decoded(self) -> None:
        """Drop every cached closure and superblock (tcache flush)."""
        self._decoded.clear()
        self._blocks.clear()
        self._block_span.clear()
        self._block_cover.clear()
        self._block_key.clear()
        self._code_gen[0] += 1
        self.sb_stats.flushes += 1
        if self.trace_hook is not None:
            self.trace_hook("flush", 0, 0)

    def _decode_at(self, pc: int) -> Callable[[int], int]:
        region = self.mem.region_at(pc)  # raises MemoryFault if unmapped
        if not region.executable:
            raise FetchFault(pc, f"region '{region.name}' not executable")
        if pc & 3:
            raise FetchFault(pc, "misaligned pc")
        off = pc - region.base
        word = int.from_bytes(region.buf[off:off + 4], "little")
        fn = self._word_fns.get(word)
        if fn is None:
            fn = self._closure(word, pc)
        self._decoded[pc] = fn
        return fn

    def _closure(self, word: int, pc: int) -> Callable[[int], int]:
        """Build and memoize the closure for *word*; *pc* only labels
        the :class:`IllegalInstruction` raised when it does not
        decode."""
        try:
            ins = _decode_word(word)
        except Exception as exc:
            raise IllegalInstruction(pc, word) from exc
        factory = _FACTORIES.get(ins.op)
        if factory is None:  # pragma: no cover - table is exhaustive
            raise IllegalInstruction(pc, word)
        fn = self._word_fns[word] = factory(self, ins)
        return fn

    # -- superblock construction ------------------------------------------

    def _build_block(self, pc: int) -> Callable[[int], int]:
        """Make the dispatch entry for *pc*.

        The word at *pc* is classified first: a control transfer or a
        trap-class word gets its per-instruction closure as a single
        entry, as does a straight-line word that fusion would leave
        alone.  Otherwise the straight-line run from *pc* (up to the
        next control transfer, which it includes) is fused and bound to
        JIT code for its content.  Decode problems *inside* the run
        just end the block early; the offending word raises with exact
        pc/stats when (and only when) it is reached.
        """
        mem = self.mem
        region = mem.region_at(pc)  # raises MemoryFault if unmapped
        if pc & 3 or not region.executable:
            return self._decode_at(pc)  # raises the precise FetchFault
        view = region.view32
        i0 = (pc - region.base) >> 2
        first = view[i0] if view is not None else mem.read_word(pc)
        classify = _WORD_CLASS.get
        cls = classify(first)
        if cls is None:
            cls = _classify_word(first)
        words = [first]
        if not cls:
            # the rest of the run, in one batched fetch: at most
            # FUSE_LIMIT words in all
            limit = min(FUSE_LIMIT, (region.end_addr - pc) >> 2)
            if view is not None:
                rest = view[i0 + 1:i0 + limit].tolist()
            else:
                rest = [mem.read_word(a)
                        for a in range(pc + 4, pc + 4 * limit, 4)]
            for word in rest:
                cls = classify(word)
                if cls is None:
                    cls = _classify_word(word)
                if cls == 2:  # TRAP/SYSCALL/BREAK/HALT or undecodable
                    break
                words.append(word)
                if cls:
                    break
        if len(words) < 2:
            fn = self._word_fns.get(first)
            if fn is None:
                fn = self._closure(first, pc)
            self._blocks[pc] = self._decoded[pc] = fn
            self.sb_stats.single_closures += 1
            return fn
        key = tuple(words)
        fn = self._blocks[pc] = self._jit_for_key(key, pc)
        self._block_key[pc] = key
        end = self._block_span[pc] = pc + 4 * len(words)
        cover = self._block_cover
        for bucket in range(pc >> _COVER_SHIFT,
                            ((end - 1) >> _COVER_SHIFT) + 1):
            starts = cover.get(bucket)
            if starts is None:
                cover[bucket] = {pc}
            else:
                starts.add(pc)
        stats = self.sb_stats
        stats.fused_blocks += 1
        stats.fused_instructions += len(words)
        if self.trace_hook is not None:
            self.trace_hook("fuse", pc, len(words))
        return fn

    # -- the template-JIT binding -----------------------------------------

    def _insns_for_key(self, key: tuple[int, ...]):
        """Re-derive the relative ``(offset, Insn)`` list (and optional
        terminator) from a content key.  The fuser only ever places a
        control transfer last, so the split is unambiguous."""
        insns: list[tuple[int, object]] = []
        term: tuple[int, object] | None = None
        last = len(key) - 1
        for i, word in enumerate(key):
            ins = _decode_word(word)
            if i == last and ins.op in _SB_TERM_OPS:
                term = (4 * i, ins)
            else:
                insns.append((4 * i, ins))
        return insns, term

    def _jit_for_key(self, key: tuple[int, ...], pc: int
                     ) -> Callable[[int], int]:
        """Bind the JIT function for a content key: per-CPU cache,
        else the code compiled for the key's shape — from the
        in-process compiled cache, then the persistent artifact store,
        then (cold) codegen + store — bound with the key's own exit
        target.  The only path that runs ``compile()`` or ``exec`` for
        a fused block."""
        jfn = self._sb_jit_fns.get(key)
        if jfn is not None:
            return jfn
        js = self.jit_stats
        shape, target = split_target(key)
        cache_key = (self._sb_cost_tag, self.image_tag, shape)
        cached = _SB_JIT_COMPILED.get(cache_key)
        kind = None
        if cached is not None:
            js.jit_mem_hits += 1
        else:
            digest = jitcache.artifact_key(self._sb_cost_sig, shape,
                                           self.image_tag)
            cached = jitcache.load(digest)
            if cached is not None:
                js.jit_disk_hits += 1
                kind = "jit_load"
            else:
                insns, term = self._insns_for_key(shape)
                cached = jit_codegen(self.costs.op_cycles, insns, term)
                js.jit_codegen += 1
                kind = "jit_compile"
                if jitcache.store(digest, *cached):
                    js.jit_disk_stores += 1
            _SB_JIT_COMPILED[cache_key] = cached
        jfn = _bind_superblock(self, cached[0], cached[1], target)
        self._sb_jit_fns[key] = jfn
        js.jit_blocks += 1
        js.jit_instructions += len(key)
        if kind is not None and self.trace_hook is not None:
            self.trace_hook(kind, pc, len(key))
        return jfn

    def superblock_info(self, pc: int) -> list[dict]:
        """Describe every live dispatch entry that covers *pc* (for
        ``repro debug --dump-superblock``), by start: start/end, tier
        ("jit" for a fused block, "single" for the per-instruction
        closure of the word holding *pc*), instruction count, the exit
        ``target`` (see
        :func:`_exit_target`) and, for fused blocks, the words and the
        generated source."""
        span = self._block_span
        out: list[dict] = []
        for start in sorted(
                s for s in self._block_cover.get(pc >> _COVER_SHIFT, ())
                if s <= pc < span[s]):
            key = self._block_key[start]
            cached = _SB_JIT_COMPILED.get(
                (self._sb_cost_tag, self.image_tag, split_target(key)[0]))
            out.append({
                "start": start, "end": span[start], "tier": "jit",
                "instructions": len(key),
                "target": _exit_target(start, key),
                "source": cached[2] if cached is not None else None,
                "words": list(key),
            })
        single = pc & ~3
        if single in self._blocks and single not in span:
            out.append({"start": single, "end": single + 4,
                        "tier": "single", "instructions": 1,
                        "target": None, "source": None, "words": None})
        return out

    def superblock_census(self, top: int = 10) -> dict:
        """Tier counts + longest blocks over every live dispatch entry.

        The ops plane's ``/inspect/superblocks`` snapshot: how many
        live entries are fused JIT blocks ("jit") and how many single
        per-instruction closures ("single"), the codegen count, and
        the *top* longest fused blocks by instruction count (ties by
        start address).  Read-only over the dispatch tables.
        """
        blocks = len(self._blocks)
        fused = sorted(self._block_key.items(),
                       key=lambda e: (-len(e[1]), e[0]))
        return {
            "blocks": blocks,
            "tiers": {"jit": len(fused), "single": blocks - len(fused)},
            "jit_codegen": self.jit_stats.jit_codegen,
            "longest": [
                {"start": s, "end": s + 4 * len(k),
                 "instructions": len(k), "target": _exit_target(s, k)}
                for s, k in fused[:top]],
        }

    # -- execution ---------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000_000) -> int:
        """Run until HALT/exit; returns the exit code.

        Raises :class:`CycleLimitExceeded` once *max_instructions* have
        executed without halting (runaway-loop guard for tests).  The
        guard is exact at dispatch granularity: no new block is entered
        once the limit is reached, so a run can only exceed the cap by
        the tail of the final superblock (< ``FUSE_LIMIT``), and never
        at all with ``superblocks=False``.
        """
        if not self.superblocks:
            return self._run_per_instruction(max_instructions)
        lookup = self._blocks.get
        build = self._build_block
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                if remaining > _SAFE_MARGIN:
                    for _ in range(_CHUNK):
                        fn = lookup(pc)
                        if fn is None:
                            fn = build(pc)
                        pc = fn(pc)
                else:
                    while stats[0] < max_instructions:
                        fn = lookup(pc)
                        if fn is None:
                            fn = build(pc)
                        pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            fault_pc = self._fault_pc
            self._fault_pc = None
            self.pc = pc if fault_pc is None else fault_pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def _run_per_instruction(self, max_instructions: int) -> int:
        """Per-instruction dispatch loop (exact instruction cap)."""
        lookup = self._decoded.get
        decode_at = self._decode_at
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                for _ in range(_CHUNK if remaining > _CHUNK else remaining):
                    fn = lookup(pc)
                    if fn is None:
                        fn = decode_at(pc)
                    pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            self.pc = pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def run_traced(self, trace: array,
                   max_instructions: int = 2_000_000_000) -> int:
        """Like :meth:`run` but appends every executed pc to *trace*.

        *trace* should be ``array('I')``; it becomes the instruction
        fetch trace consumed by the hardware-cache simulator (Fig 6)
        and the block-trace extractor (Fig 7).  Always runs with
        per-instruction dispatch so the trace is complete, and enforces
        *max_instructions* exactly.
        """
        decoded = self._decoded
        decode_at = self._decode_at
        append = trace.append
        stats = self.stats
        pc = self.pc
        try:
            while True:
                remaining = max_instructions - stats[0]
                if remaining <= 0:
                    self.pc = pc
                    raise CycleLimitExceeded(max_instructions)
                for _ in range(_CHUNK if remaining > _CHUNK else remaining):
                    fn = decoded.get(pc)
                    if fn is None:
                        fn = decode_at(pc)
                    append(pc)
                    pc = fn(pc)
        except HaltExecution:
            self.pc = pc
        except Exception:
            self.pc = pc
            raise
        return self.exit_code if self.exit_code is not None else 0

    def step(self) -> None:
        """Execute exactly one instruction (debugger granularity)."""
        fn = self._decoded.get(self.pc)
        if fn is None:
            fn = self._decode_at(self.pc)
        try:
            self.pc = fn(self.pc)
        except HaltExecution:
            pass


# ---------------------------------------------------------------------------
# Closure factories, one per opcode.  Each returns ``fn(pc) -> next_pc``
# depending only on the instruction word: pc-relative targets and link
# addresses are computed from the runtime pc.  Every op-table opcode's
# factory is generated from its row (:data:`repro.sim.jit.OPS`) and
# compiled once at import with the row's expression inlined; the
# immediate fold runs once per closure, when it is built.  A row that
# writes ``rd`` gets a second body for ``rd == zero`` that drops the
# write and keeps every other effect (a load still reads, so it can
# fault).  TRAP/SYSCALL/BREAK/HALT never fuse and are written by hand.
# ---------------------------------------------------------------------------

_Factory = Callable[["CPU", object], Callable[[int], int]]


def _closure_source(sem: OpSem) -> str:
    """Source of ``make(cpu, ins)``, the closure factory of one op-table
    row (``OP`` names the opcode in its namespace)."""
    text = fill(sem.expr, *(f"r[{RA if role == 'ra' else role}]"
                            for role in sem.reads), i="i")
    addr = f"(r[rs1] + i) & {MASK32}"
    step = "return pc + 4"
    bare = None  # body when the written register is zero
    if sem.kind == "alu":
        body, bare = [f"r[rd] = {text}", step], [step]
    elif sem.kind == "load":
        body = [f"v = acc({addr})", f"r[rd] = {text}", step]
        bare = [f"acc({addr})", step]
    elif sem.kind == "store":
        body = [f"acc({addr}, {text})", step]
    elif sem.kind == "branch":
        body = [f"return pc + i if {text} else pc + 4"]
    elif sem.write:
        body = [f"v = {text}", f"r[{RA if sem.write == 'ra' else 'rd'}] "
                f"= pc + 4", "return v"]
        bare = [f"return {text}"] if sem.write == "rd" else None
    else:
        body = [f"return {text}"]
    lines = ["def make(cpu, ins):",
             "    st, r = cpu.stats, cpu.regs",
             "    cost = cpu.costs.op_cycles[OP]",
             "    rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2",
             f"    i = {fill(sem.imm, i='ins.imm')}"]
    if sem.width:
        verb = "read" if sem.kind == "load" else "write"
        lines.append(f"    acc = cpu.mem.{verb}_{_WIDTHS[sem.width][0]}")

    def closure(stmts: list[str], pad: str) -> list[str]:
        return [f"{pad}def ex(pc):", f"{pad}    st[0] += 1",
                f"{pad}    st[1] += cost",
                *(f"{pad}    {stmt}" for stmt in stmts), f"{pad}return ex"]
    if bare is not None:
        lines += ["    if not rd:", *closure(bare, "        ")]
    lines += closure(body, "    ")
    return "\n".join(lines) + "\n"


_FACTORIES: dict[Op, _Factory] = {}
for _op, _sem in OPS.items():
    _ns = {"OP": _op, **_HELPER_FNS}
    exec(compile(_closure_source(_sem), f"<op {_op.name}>", "exec"), _ns)
    _FACTORIES[_op] = _ns["make"]


def _register(op: Op):
    def deco(fn: _Factory) -> _Factory:
        _FACTORIES[op] = fn
        return fn
    return deco


@_register(Op.TRAP)
def _f_trap(cpu: CPU, ins):
    st = cpu.stats
    code, operand = ins.rd, ins.imm

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += 1
        hook = cpu.trap_hook
        if hook is None:
            raise SimError(
                f"TRAP {Trap(code).name if code in Trap._value2member_map_ else code} "
                f"at pc={pc:#x} with no handler installed")
        return hook(cpu, code, operand, pc)
    return ex


@_register(Op.SYSCALL)
def _f_syscall(cpu: CPU, ins):
    st = cpu.stats
    service = ins.imm

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += 1
        hook = cpu.sys_hook
        if hook is None:
            raise SimError(f"SYSCALL {service} with no handler installed")
        return hook(cpu, service, pc)
    return ex


@_register(Op.BREAK)
def _f_break(cpu: CPU, ins):
    code = ins.imm

    def ex(pc: int) -> int:
        raise BreakHit(pc, code)
    return ex


@_register(Op.HALT)
def _f_halt(cpu: CPU, ins):
    def ex(pc: int) -> int:
        cpu.stats[0] += 1
        cpu.stats[1] += 1
        cpu.halt(cpu.exit_code if cpu.exit_code is not None else 0)
        return pc  # pragma: no cover - halt() raises
    return ex


#: (cost tag, image tag, shape) -> the ``(code, fixups, src)`` triple
#: produced by :func:`jit_codegen` (or loaded from the persistent store
#: in :mod:`repro.sim.jitcache`).  Keyed by shape (:func:`split_target`),
#: so every exit target of a block — and a fresh CPU (new benchmark
#: round, new client system) under the same cost model and image —
#: binds one compiled code object without codegen; only the per-block
#: ``exec`` binding runs.
_SB_JIT_COMPILED: dict[tuple, tuple[object, dict, str]] = {}

#: Cost-table signature -> small interned tag (see CPU._sb_cost_tag).
_COST_TAGS: dict[tuple, int] = {}


def _bind_superblock(cpu: CPU, code, fixups, target):
    """``exec`` a JIT-generated superblock code object against this
    CPU's registers/stats/memory and the block's exit *target* (its
    ``T``; None when the shape has no bound target) and return the
    bound function.

    The namespace dict is built once per CPU and reused for every
    bind: generated functions capture their bindings as default
    arguments at ``exec`` time, so mutating ``_F`` and ``_T`` between
    binds cannot affect already-bound blocks."""
    ns = cpu._sb_exec_ns
    if ns is None:
        mem = cpu.mem
        # the JIT template's inline memory fast path binds one region:
        # the largest plain-RAM mapping (readable, writable, never
        # executable — so in-bounds stores cannot rewrite code and the
        # views can be indexed without permission checks).  Everything
        # else takes the accessor slow path.  With no candidate, the
        # empty interval [1, 0) routes every access to the accessors.
        fast = None
        for region in mem.regions:
            if (region.readable and region.writable
                    and not region.executable
                    and region.view32 is not None
                    and region.view16 is not None
                    and (fast is None or region.size > fast.size)):
                fast = region
        ns = cpu._sb_exec_ns = {
            "_r": cpu.regs, "_st": cpu.stats, "_cw": cpu._code_gen,
            "_C": cpu, "_F": fixups, "_rw": mem.read_word,
            "_rh": mem.read_half, "_rb": mem.read_byte,
            "_ww": mem.write_word, "_wh": mem.write_half,
            "_wb": mem.write_byte,
            **{"_" + name: fn for name, fn in _HELPER_FNS.items()},
            "_fB": fast.base if fast else 1,
            "_fE": fast.end_addr if fast else 0,
            "_fV": fast.view32 if fast else None,
            "_fH": fast.view16 if fast else None,
            "_fBUF": fast.buf if fast else None,
        }
    else:
        ns["_F"] = fixups
    ns["_T"] = target
    exec(code, ns)
    return ns["_sb"]
