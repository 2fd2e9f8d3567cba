"""The repro RISC CPU: a closure-caching, superblock-threading interpreter.

Each instruction word is decoded once into a specialized Python closure.
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

A fused block runs at one of two tiers:

* **tier 0** — the tuple of the block's per-instruction closures, run
  in order by one generic loop: threaded code with no codegen and no
  ``exec``, so cold code costs only its decode;
* **JIT** — the template JIT (:mod:`repro.sim.jit`), the only
  superblock compiler: guest registers as Python locals, constants
  folded, batched cycle accounting.  Code is compiled per block
  *shape* — the words with the terminator's target field cleared — and
  bound per content key with that key's exit target, so the copies of
  a block that the SoftCache re-patches to other targets share one
  compile.  Under ``jit="hot"`` (the default) a block's content is
  compiled once it has executed ``jit_threshold`` times on this CPU;
  content whose shape already has compiled code in this process binds
  it at first dispatch.  ``jit="all"`` compiles every fused block at
  first dispatch and ``jit="off"`` keeps tier 0 only.  Compiled
  artifacts persist in the trace-cache directory
  (:mod:`repro.sim.jitcache`) keyed by shape + codegen version, so a
  warm process binds JIT blocks without running codegen.

All tiers are cycle-identical: tiering only changes host speed, never
simulated counters.

Writes into executable regions (i.e. dynamic binary rewriting by the
SoftCache) invalidate the affected decode-cache entries *and every
superblock overlapping the written words*, so patched branch words and
``debug_poison`` BREAK words take effect exactly like they would on
real hardware with coherent fetch.  A store executed from inside a
fused block re-checks a code-generation counter so even self-modifying
stores fall back to fresh decode mid-block.

The CPU knows nothing about caching.  The SoftCache hooks in through
two narrow interfaces:

* ``trap_hook(cpu, code, operand, pc) -> next_pc`` — invoked by TRAP
  instructions (miss stubs, dcache ops);
* the executable-region permissions — in SoftCache mode only local RAM
  is executable, so any escape from the translation cache raises
  :class:`~repro.sim.errors.FetchFault` instead of silently running
  untranslated code.

Cycle accounting: every closure bumps an (instruction, cycle) stats
cell; runtime components charge additional cycles through
:meth:`CPU.add_cycles`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

from ..isa import Fmt, Op, Trap, to_signed32
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
    JitStats,
    _DECODE_MEMO,
    _SB_STORES,
    _SB_STRAIGHT_OPS,
    _SB_TERM_OPS,
    _decode_word,
    _sdiv,
    _srem,
    jit_codegen,
    split_target,
    validate_jit,
)
from . import jitcache
from .memory import Memory

MASK32 = 0xFFFFFFFF
_SIGN_FLIP = 0x80000000


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
    #: Blocks killed because a code write overlapped their span.
    invalidated_blocks: int = 0
    #: Whole-cache flushes (tcache flush / invalidate_all_decoded).
    flushes: int = 0
    #: Executable-region write events seen by the invalidation hook.
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
                 superblocks: bool = True, jit: str = "hot",
                 jit_threshold: int = 16):
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
        validate_jit(jit, jit_threshold)
        #: Template-JIT tier policy: "off" keeps every fused block at
        #: tier 0, "hot" promotes a block's content after
        #: ``jit_threshold`` executions, "all" JIT-compiles every fused
        #: block at first dispatch.
        self.jit = jit
        self.jit_threshold = jit_threshold
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
        #: "sb_invalidate" (a code write killed the block at pc) or
        #: "flush" (whole decode/superblock cache dropped).  None keeps
        #: the hot paths hook-free.
        self.trace_hook: Callable[[str, int, int], None] | None = None
        #: Per-address decode cache: pc -> per-instruction closure.
        self._decoded: dict[int, Callable[[int], int]] = {}
        #: Word -> per-instruction closure.  Closures depend only on
        #: their word, so every address (and every tier-0 block) holding
        #: a word shares one closure; never invalidated.
        self._word_fns: dict[int, Callable[[int], int]] = {}
        #: Superblock dispatch table: block-start pc -> closure.
        self._blocks: dict[int, Callable[[int], int]] = {}
        #: Block-start pc -> end address (exclusive) of its span.
        self._block_span: dict[int, int] = {}
        #: 64-byte bucket (addr >> _COVER_SHIFT) -> set of block starts
        #: whose span touches the bucket; consumers filter candidates
        #: through ``_block_span`` for word precision.
        self._block_cover: dict[int, set[int]] = {}
        #: Generation counter cell, bumped on every code write; fused
        #: blocks re-check it after stores to catch self-modification.
        self._code_gen = [0]
        #: Precise pc of a fault raised from inside a fused block.
        self._fault_pc: int | None = None
        #: Content-keyed tier-0 block cache: raw word tuple -> block
        #: function.  Tier-0 blocks are pc-relative (their closures
        #: depend only on the words) and bind only per-CPU state, so
        #: identical word runs reuse one block across
        #: evict/flush/retranslate cycles.
        self._sb_fn_cache: dict[tuple[int, ...], Callable[[int], int]] = {}
        #: Reusable ``exec`` namespace for JIT binding (built lazily;
        #: generated code captures everything through default
        #: arguments, so one dict serves every bind).
        self._sb_exec_ns: dict | None = None
        #: Content key -> shared hotness cell ([execution count]); one
        #: cell per distinct word run, so retranslated copies of the
        #: same code pool their heat (jit="hot" tier selection).
        self._sb_counts: dict[tuple[int, ...], list[int]] = {}
        #: Content key -> bound JIT-tier function for this CPU.
        self._sb_jit_fns: dict[tuple[int, ...], Callable[[int], int]] = {}
        #: Block-start pc -> content key of the block registered there
        #: (introspection).
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
        """Code-write hook: drop closures and superblocks made stale by
        a write to ``[addr, addr + length)``.

        Every superblock whose span merely *overlaps* a patched word is
        killed, not just the block starting there — backpatched branch
        words and ``debug_poison`` BREAK words in the middle of a fused
        run must take effect on the next dispatch.
        """
        self._code_gen[0] += 1
        self.sb_stats.code_writes += 1
        lo = addr & ~3
        hi = addr + length
        pop = self._decoded.pop
        for a in range(lo, hi, 4):
            pop(a, None)
        cover_get = self._block_cover.get
        span_get = self._block_span.get
        kill = self._kill_block
        for bucket in range(lo >> _COVER_SHIFT,
                            ((hi - 1) >> _COVER_SHIFT) + 1):
            starts = cover_get(bucket)
            if starts:
                for start in tuple(starts):
                    end = span_get(start)
                    if end is not None and start < hi and end > lo:
                        kill(start)

    def _kill_block(self, start: int) -> None:
        self._blocks.pop(start, None)
        self._block_key.pop(start, None)
        end = self._block_span.pop(start, None)
        self.sb_stats.invalidated_blocks += 1
        if self.trace_hook is not None:
            self.trace_hook("sb_invalidate", start, 0)
        if end is None:
            return
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

    def _register_block(self, start: int, end: int,
                        fn: Callable[[int], int], fused: int
                        ) -> Callable[[int], int]:
        self._blocks[start] = fn
        self._block_span[start] = end
        cover = self._block_cover
        for bucket in range(start >> _COVER_SHIFT,
                            ((end - 1) >> _COVER_SHIFT) + 1):
            starts = cover.get(bucket)
            if starts is None:
                cover[bucket] = {start}
            else:
                starts.add(start)
        if fused:
            self.sb_stats.fused_blocks += 1
            self.sb_stats.fused_instructions += fused
            if self.trace_hook is not None:
                self.trace_hook("fuse", start, fused)
        else:
            self.sb_stats.single_closures += 1
        return fn

    def _build_block(self, pc: int) -> Callable[[int], int]:
        """Fuse the straight-line run starting at *pc* into one block.

        Falls back to the per-instruction closure when the word at *pc*
        is a control transfer, a trap-class instruction, or fusion would
        cover fewer than two instructions.  Decode problems *inside* the
        straight-line run just end the block early; the offending word
        raises with exact pc/stats when (and only when) it is reached.

        The block binds this CPU's JIT function for its content, else
        its tier-0 block; new content binds compiled code at once under
        ``jit="all"``, or under ``jit="hot"`` when this process already
        compiled its shape (:func:`~repro.sim.jit.split_target`).
        """
        region = self.mem.region_at(pc)  # raises MemoryFault if unmapped
        if pc & 3 or not region.executable:
            # _decode_at raises the precise FetchFault
            return self._register_block(pc, pc + 4, self._decode_at(pc), 0)
        base, end, buf = region.base, region.end, region.buf
        view = region.view32
        classify = _WORD_CLASS.get
        # one batched fetch of the longest possible run, then a plain
        # list walk: far cheaper than per-word view indexing
        limit = min(FUSE_LIMIT, (end - pc) >> 2)
        i0 = (pc - base) >> 2
        if view is not None:
            chunk = view[i0:i0 + limit].tolist()
        else:
            lo = pc - base
            chunk = [int.from_bytes(buf[o:o + 4], "little")
                     for o in range(lo, lo + limit * 4, 4)]
        words: list[int] = []
        has_term = False
        straight = 0
        addr = pc
        for word in chunk:
            if straight >= FUSE_LIMIT - 1:
                break
            cls = classify(word)
            if cls is None:
                cls = _classify_word(word)
            if cls:
                if cls == 1:
                    words.append(word)
                    has_term = True
                # else TRAP/SYSCALL/BREAK/HALT or undecodable:
                # per-instruction only
                break
            words.append(word)
            straight += 1
            addr += 4
        fused = len(words)
        if fused < 2:
            return self._register_block(pc, pc + 4, self._decode_at(pc), 0)
        key = tuple(words)
        mode = self.jit
        fn = self._sb_jit_fns.get(key) if mode != "off" else None
        if fn is None:
            fn = self._sb_fn_cache.get(key)
        if fn is None:
            if mode == "all" or (mode == "hot" and (
                    self._sb_cost_tag, self.image_tag, split_target(key)[0])
                    in _SB_JIT_COMPILED):
                fn = self._jit_for_key(key, pc)
            else:
                fn = self._sb_fn_cache[key] = self._tier0(key, pc)
        self._block_key[pc] = key
        return self._register_block(
            pc, addr + 4 if has_term else addr, fn, fused)

    # -- tier 0 and the template-JIT tier ---------------------------------

    def _tier0(self, key: tuple[int, ...], pc: int) -> Callable[[int], int]:
        """Bind the tier-0 block for *key*: its per-instruction closures
        run in order by one loop.  Each closure counts itself, so counts
        stay exact mid-block; an exception records the raising word's
        pc in ``_fault_pc``.  A block holding a store re-checks the code
        generation after each word and returns the next pc once a store
        rewrote code.  Under ``jit="hot"`` it first counts its content's
        heat (shared by every pc holding the words) and at
        ``jit_threshold`` hands over to :meth:`_promote`."""
        get = self._word_fns.get
        fns = tuple([get(word) or self._closure(word, pc) for word in key])
        guard = any(_DECODE_MEMO[word].op in _SB_STORES for word in key)
        cell = (self._sb_counts.setdefault(key, [0])
                if self.jit == "hot" else None)
        threshold = self.jit_threshold
        code_gen = self._code_gen
        promote = self._promote

        def block(pc: int) -> int:
            if cell is not None:
                n = cell[0] + 1
                cell[0] = n
                if n >= threshold:
                    return promote(key, pc, n)(pc)
            try:
                if guard:
                    gen = code_gen[0]
                    for fn in fns:
                        pc = fn(pc)
                        if code_gen[0] != gen:
                            break
                else:
                    for fn in fns:
                        pc = fn(pc)
            except Exception:
                self._fault_pc = pc
                raise
            return pc
        return block

    def _promote(self, key: tuple[int, ...], pc: int, n: int
                 ) -> Callable[[int], int]:
        """Tier 0 -> JIT once *key*'s heat *n* reached the threshold:
        bind the JIT function (one promotion per key) and swap only the
        dispatching *pc*; other pcs swap at their own next dispatch."""
        jfn = self._sb_jit_fns.get(key)
        if jfn is None:
            jfn = self._jit_for_key(key, pc)
            self.jit_stats.jit_promotions += 1
            if self.trace_hook is not None:
                self.trace_hook("jit_promote", pc, n)
        self._blocks[pc] = jfn
        return jfn

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
        """Bind the JIT-tier function for a content key: per-CPU cache,
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

    def _tier_of(self, start: int, key: tuple[int, ...] | None) -> str:
        """Tier of the dispatch entry at *start*: "single" (one
        per-instruction closure), "jit" or "tier0"."""
        if key is None:
            return "single"
        jfn = self._sb_jit_fns.get(key)
        if jfn is not None and self._blocks.get(start) is jfn:
            return "jit"
        return "tier0"

    def superblock_info(self, pc: int) -> list[dict]:
        """Describe every live block whose span covers *pc* (for
        ``repro debug --dump-superblock``): start/end, tier
        ("jit"/"tier0"/"single"), instruction count, hotness count
        (None when untracked, e.g. jit="all"), the exit ``target``
        (see :func:`_exit_target`) and, for JIT blocks, the generated
        source (None otherwise: tier 0 generates none)."""
        span_get = self._block_span.get
        starts = sorted(
            s for s in self._block_cover.get(pc >> _COVER_SHIFT, ())
            if s <= pc < span_get(s, s + 4))
        out: list[dict] = []
        for start in starts:
            end = self._block_span.get(start, start + 4)
            key = self._block_key.get(start)
            tier = self._tier_of(start, key)
            if key is None:
                out.append({"start": start, "end": end, "tier": tier,
                            "instructions": (end - start) // 4,
                            "hits": None, "target": None, "source": None,
                            "words": None})
                continue
            cached = (_SB_JIT_COMPILED.get(
                (self._sb_cost_tag, self.image_tag, split_target(key)[0]))
                if tier == "jit" else None)
            cell = self._sb_counts.get(key)
            out.append({
                "start": start, "end": end, "tier": tier,
                "instructions": len(key),
                "hits": cell[0] if cell is not None else None,
                "target": _exit_target(start, key),
                "source": cached[2] if cached is not None else None,
                "words": list(key),
            })
        return out

    def superblock_census(self, top: int = 10) -> dict:
        """Tier counts + hottest blocks over every live superblock.

        The ops plane's ``/inspect/superblocks`` snapshot: how many
        live blocks run at each interpreter tier
        ("jit"/"tier0"/"single"), the JIT policy knobs, and the
        *top* hottest tracked blocks by hotness-cell count.  Read-only
        over the dispatch tables; hotness cells are None when
        untracked (``jit="all"`` compiles eagerly and ``jit="off"``
        never promotes, so neither keeps counts).
        """
        tiers = {"jit": 0, "tier0": 0, "single": 0}
        entries: list[tuple[int, int, str, int, int | None,
                            tuple[int, ...]]] = []
        key_get = self._block_key.get
        span_get = self._block_span.get
        count_get = self._sb_counts.get
        for start in list(self._blocks):
            key = key_get(start)
            tier = self._tier_of(start, key)
            tiers[tier] += 1
            if key is None:
                continue
            cell = count_get(key)
            entries.append((start, span_get(start, start + 4), tier,
                            len(key), cell[0] if cell else None, key))
        entries.sort(key=lambda e: -1 if e[4] is None else e[4],
                     reverse=True)
        return {
            "blocks": sum(tiers.values()),
            "tiers": tiers,
            "jit_mode": self.jit,
            "jit_threshold": self.jit_threshold,
            "jit_codegen": self.jit_stats.jit_codegen,
            "jit_promotions": self.jit_stats.jit_promotions,
            "hottest": [
                {"start": s, "end": e, "tier": t, "instructions": n,
                 "hits": h, "target": _exit_target(s, k)}
                for s, e, t, n, h, k in entries[:top]],
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
# addresses are computed from the runtime pc.  The factories
# aggressively specialize: rd == zero becomes a pure nop with correct
# cost, constants are folded into the closure.
# ---------------------------------------------------------------------------

_Factory = Callable[["CPU", object], Callable[[int], int]]
_FACTORIES: dict[Op, _Factory] = {}


def _register(op: Op):
    def deco(fn: _Factory) -> _Factory:
        _FACTORIES[op] = fn
        return fn
    return deco


def _nop(cpu: CPU, op: Op) -> Callable[[int], int]:
    """Closure for an ALU op writing ``zero``: only its cost remains."""
    st = cpu.stats
    cost = cpu.costs.op_cycles[op]

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return pc + 4
    return ex


def _alu_factory(op: Op, compute):
    """Build a factory for a 3-register ALU op with semantics *compute*."""
    def factory(cpu: CPU, ins):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        if rd == 0:
            return _nop(cpu, op)

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            regs[rd] = compute(regs[rs1], regs[rs2])
            return pc + 4
        return ex
    _FACTORIES[op] = factory
    return factory


_alu_factory(Op.ADD, lambda a, b: (a + b) & MASK32)
_alu_factory(Op.SUB, lambda a, b: (a - b) & MASK32)
_alu_factory(Op.AND, lambda a, b: a & b)
_alu_factory(Op.OR, lambda a, b: a | b)
_alu_factory(Op.XOR, lambda a, b: a ^ b)
_alu_factory(Op.NOR, lambda a, b: ~(a | b) & MASK32)
_alu_factory(Op.SLT,
             lambda a, b: 1 if (a ^ _SIGN_FLIP) < (b ^ _SIGN_FLIP) else 0)
_alu_factory(Op.SLTU, lambda a, b: 1 if a < b else 0)
_alu_factory(Op.SLL, lambda a, b: (a << (b & 31)) & MASK32)
_alu_factory(Op.SRL, lambda a, b: a >> (b & 31))
_alu_factory(Op.SRA,
             lambda a, b: (to_signed32(a) >> (b & 31)) & MASK32)
_alu_factory(Op.MUL, lambda a, b: (a * b) & MASK32)
_alu_factory(Op.DIV, _sdiv)
_alu_factory(Op.REM, _srem)


def _alui_factory(op: Op, compute):
    """Factory builder for register-immediate ALU ops."""
    def factory(cpu: CPU, ins):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        if rd == 0:
            return _nop(cpu, op)

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            regs[rd] = compute(regs[rs1], imm)
            return pc + 4
        return ex
    _FACTORIES[op] = factory
    return factory


_alui_factory(Op.ADDI, lambda a, i: (a + i) & MASK32)
_alui_factory(Op.ANDI, lambda a, i: a & i)
_alui_factory(Op.ORI, lambda a, i: a | i)
_alui_factory(Op.XORI, lambda a, i: a ^ i)
_alui_factory(Op.SLTI,
              lambda a, i: 1 if (a ^ _SIGN_FLIP) < ((i & MASK32) ^ _SIGN_FLIP)
              else 0)
_alui_factory(Op.SLTIU, lambda a, i: 1 if a < i else 0)
_alui_factory(Op.SLLI, lambda a, i: (a << (i & 31)) & MASK32)
_alui_factory(Op.SRLI, lambda a, i: a >> (i & 31))
_alui_factory(Op.SRAI, lambda a, i: (to_signed32(a) >> (i & 31)) & MASK32)


@_register(Op.LUI)
def _f_lui(cpu: CPU, ins):
    # LUI ignores rs1: specialize to a pure constant store instead of
    # the generic register-immediate closure (which would read a source
    # register it never uses).
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.LUI]
    rd = ins.rd
    value = (ins.imm << 16) & MASK32
    if rd == 0:
        return _nop(cpu, Op.LUI)

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        regs[rd] = value
        return pc + 4
    return ex


def _load_factory(op: Op, reader_name: str, sign_bits: int | None):
    def factory(cpu: CPU, ins):
        regs = cpu.regs
        st = cpu.stats
        mem = cpu.mem
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        read = getattr(mem, reader_name)
        if sign_bits is None:
            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                value = read((regs[rs1] + imm) & MASK32)
                if rd:
                    regs[rd] = value
                return pc + 4
        else:
            flip = 1 << (sign_bits - 1)
            wrap = 1 << sign_bits

            def ex(pc: int) -> int:
                st[0] += 1
                st[1] += cost
                value = read((regs[rs1] + imm) & MASK32)
                if value & flip:
                    value = (value - wrap) & MASK32
                if rd:
                    regs[rd] = value
                return pc + 4
        return ex
    _FACTORIES[op] = factory


_load_factory(Op.LW, "read_word", None)
_load_factory(Op.LH, "read_half", 16)
_load_factory(Op.LHU, "read_half", None)
_load_factory(Op.LB, "read_byte", 8)
_load_factory(Op.LBU, "read_byte", None)


def _store_factory(op: Op, writer_name: str):
    def factory(cpu: CPU, ins):
        regs = cpu.regs
        st = cpu.stats
        mem = cpu.mem
        cost = cpu.costs.op_cycles[op]
        rd, rs1, imm = ins.rd, ins.rs1, ins.imm
        write = getattr(mem, writer_name)

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            write((regs[rs1] + imm) & MASK32, regs[rd])
            return pc + 4
        return ex
    _FACTORIES[op] = factory


_store_factory(Op.SW, "write_word")
_store_factory(Op.SH, "write_half")
_store_factory(Op.SB, "write_byte")


def _branch_factory(op: Op, test):
    def factory(cpu: CPU, ins):
        regs = cpu.regs
        st = cpu.stats
        cost = cpu.costs.op_cycles[op]
        rs1, rs2 = ins.rs1, ins.rs2
        offset = 4 + (ins.imm << 2)

        def ex(pc: int) -> int:
            st[0] += 1
            st[1] += cost
            return pc + offset if test(regs[rs1], regs[rs2]) else pc + 4
        return ex
    _FACTORIES[op] = factory


_branch_factory(Op.BEQ, lambda a, b: a == b)
_branch_factory(Op.BNE, lambda a, b: a != b)
_branch_factory(Op.BLT, lambda a, b: (a ^ _SIGN_FLIP) < (b ^ _SIGN_FLIP))
_branch_factory(Op.BGE, lambda a, b: (a ^ _SIGN_FLIP) >= (b ^ _SIGN_FLIP))
_branch_factory(Op.BLTU, lambda a, b: a < b)
_branch_factory(Op.BGEU, lambda a, b: a >= b)


@_register(Op.J)
def _f_j(cpu: CPU, ins):
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.J]
    target = ins.imm << 2

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return target
    return ex


@_register(Op.JAL)
def _f_jal(cpu: CPU, ins):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JAL]
    target = ins.imm << 2

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        regs[RA] = pc + 4
        return target
    return ex


@_register(Op.JR)
def _f_jr(cpu: CPU, ins):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JR]
    rs1 = ins.rs1

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return regs[rs1]
    return ex


@_register(Op.JALR)
def _f_jalr(cpu: CPU, ins):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.JALR]
    rd, rs1 = ins.rd, ins.rs1

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        target = regs[rs1]
        if rd:
            regs[rd] = pc + 4
        return target
    return ex


@_register(Op.RET)
def _f_ret(cpu: CPU, ins):
    regs = cpu.regs
    st = cpu.stats
    cost = cpu.costs.op_cycles[Op.RET]

    def ex(pc: int) -> int:
        st[0] += 1
        st[1] += cost
        return regs[RA]
    return ex


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
            "_wb": mem.write_byte, "_sgn": to_signed32, "_sdiv": _sdiv,
            "_srem": _srem,
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
