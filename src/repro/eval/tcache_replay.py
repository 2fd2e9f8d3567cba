"""Fast tcache simulation by block-trace replay (for Figure 7 sweeps).

A full SoftCache run interprets every instruction; sweeping ten tcache
sizes over four workloads that way costs minutes.  The software miss
rate, though, depends only on the *sequence of chunk entries* and each
chunk's tcache footprint — so we extract the chunk-entry sequence once
from a native fetch trace and replay just the allocator over it.

Chunk-entry extraction matches the MC's lazy chunking rule exactly: a
new chunk is entered at the first instruction of the run and after
every control-transfer instruction (taken or not — the not-taken path
of a rewritten branch leaves the chunk through its appended jump).
The replay uses the real :class:`~repro.softcache.tcache.TCache`
allocator, so FIFO wrap behavior and flush policy are identical to the
live system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..asm.image import Image
from ..isa import BLOCK_TERMINATORS, BRANCH_OPS, Op
from ..softcache.chunks import BasicBlockChunker, EBBChunker
from ..softcache.records import TBlock
from ..softcache.tcache import TCache, TCacheGeometry

_TERMINATOR_OPS = [int(op) for op in BLOCK_TERMINATORS]
_BRANCH_OPS = [int(op) for op in BRANCH_OPS]


def chunk_entry_sequence(image: Image, trace: np.ndarray,
                         granularity: str = "block") -> np.ndarray:
    """Extract the chunk-entry subsequence of a fetch trace.

    Block granularity: a chunk is entered after *every* control
    transfer (the not-taken path leaves through the appended jump).
    EBB granularity: fall-through of a not-taken branch and the
    landing of a return stay *inline* in the current chunk, so they
    are not entries.  (Approximation: a return into an evicted chunk
    would re-translate in the live system; the replay undercounts
    those rare events.)
    """
    if trace.size == 0:
        return trace
    # classify each fetched pc by its opcode in the original text
    text = np.frombuffer(image.text, dtype="<u4")
    offsets = (trace.astype(np.int64) - image.text_base) >> 2
    opcodes = (text[offsets] >> 26).astype(np.int64)
    is_term = np.isin(opcodes, _TERMINATOR_OPS)
    entry_mask = np.empty(trace.size, dtype=bool)
    entry_mask[0] = True
    entry_mask[1:] = is_term[:-1]
    if granularity == "ebb":
        prev_op = opcodes[:-1]
        fallthrough = trace[1:] == trace[:-1] + 4
        inline = (np.isin(prev_op, _BRANCH_OPS) & fallthrough) | \
            (prev_op == int(Op.RET))
        entry_mask[1:] &= ~inline
    return trace[entry_mask]


@dataclass
class ReplayResult:
    """Outcome of one tcache replay."""

    tcache_size: int
    granularity: str
    policy: str
    instructions: int
    chunk_entries: int
    translations: int
    evictions: int
    flushes: int

    @property
    def miss_rate(self) -> float:
        """The paper's software miss rate: blocks translated divided
        by instructions executed (Fig 7 caption)."""
        return (self.translations / self.instructions
                if self.instructions else 0.0)


def replay_tcache(image: Image, trace: np.ndarray, tcache_size: int, *,
                  granularity: str = "block",
                  policy: str = "fifo") -> ReplayResult:
    """Replay the chunk-entry sequence through a tcache allocator."""
    if granularity == "block":
        chunker = BasicBlockChunker(image)
    elif granularity == "ebb":
        chunker = EBBChunker(image)
    else:
        raise ValueError("replay supports block/ebb granularities")
    entries = chunk_entry_sequence(image, trace, granularity)
    size_of: dict[int, int] = {}
    tcache = TCache(TCacheGeometry(base=0x10000, size=tcache_size,
                                   stub_capacity=0))
    translations = evictions = flushes = 0
    lookup = tcache.map
    for addr in entries.tolist():
        if addr in lookup:
            continue
        nbytes = size_of.get(addr)
        if nbytes is None:
            nbytes = chunker.chunk_at(addr).size
            size_of[addr] = nbytes
        if policy == "flush":
            if tcache.needs_eviction(nbytes):
                flushed = tcache.retire_all()
                flushes += 1
                evictions += len(flushed)
        else:
            while tcache.needs_eviction(nbytes):
                tcache.retire_oldest()
                evictions += 1
        place = tcache.place(nbytes)
        tcache.commit(TBlock(orig=addr, addr=place, size=nbytes,
                             orig_size=nbytes, extra_words=0))
        translations += 1
    return ReplayResult(
        tcache_size=tcache_size, granularity=granularity, policy=policy,
        instructions=int(trace.size), chunk_entries=int(entries.size),
        translations=translations, evictions=evictions, flushes=flushes)


def sweep_tcache(image: Image, trace: np.ndarray, sizes: list[int],
                 **kw) -> list[ReplayResult]:
    """Replay every tcache size in *sizes* over the same trace."""
    return [replay_tcache(image, trace, size, **kw) for size in sizes]
