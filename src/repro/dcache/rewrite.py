"""Data-access rewriting (Section 3 + Figure 10).

A post-pass over instruction chunks that the memory controller applies
in full-system mode:

* loads/stores whose base register is not ``sp``/``fp`` are rewritten
  into ``TRAP DC_LOAD/DC_STORE`` sites — the "mapping or tag check"
  sequence of §3, with the inline-sequence cost charged by the handler
  (Fig 10 bottom);
* the ``la``+load idiom addressing a *pinned* global scalar is
  specialized to materialize the object's permanent local address, so
  the access runs natively against local RAM with no check at all
  (Fig 10 top: "the constant address is known to be in-cache");
* procedure prologues (``addi sp, sp, -F`` at a procedure entry) and
  epilogues (``mv sp, fp``) become ``SC_ENTER``/``SC_EXIT`` stack-cache
  presence checks.

All rewrites are word-for-word, so chunk exit indices stay valid.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.image import Image
from ..isa import BRANCH_OPS, MEMORY_OPS, SPECS, Insn, Op, Trap, decode, encode
from ..isa.registers import FP, SP
from ..softcache.chunks import Chunk


@dataclass(frozen=True, slots=True)
class DCSite:
    """One rewritten data access site."""

    site_id: int
    is_store: bool
    width: int
    signed: bool
    rd: int       # data register (destination for loads, source for stores)
    rs1: int      # base register of the original access
    imm: int      # immediate offset


@dataclass(frozen=True, slots=True)
class SCSite:
    """One rewritten stack-cache presence-check site."""

    site_id: int
    is_exit: bool
    frame_size: int   # prologue: bytes the frame grows by; 0 for exits


@dataclass
class RewriteStats:
    data_sites: int = 0
    pinned_specializations: int = 0
    scache_sites: int = 0


class DataRewriter:
    """Shared (MC-side) rewriter state: site tables and pinned map."""

    def __init__(self, image: Image, pinned: dict[int, int] | None = None):
        """*pinned* maps original global addresses to permanent local
        addresses (built by the data-cache controller)."""
        self.image = image
        self.pinned = pinned or {}
        self.dc_sites: dict[int, DCSite] = {}
        self.sc_sites: dict[int, SCSite] = {}
        self._next_dc = 0
        self._next_sc = 0
        self.stats = RewriteStats()
        self._proc_entries = {p.addr for p in image.procs}

    # -- site allocation ----------------------------------------------------

    def _new_dc_site(self, **kw) -> DCSite:
        site = DCSite(site_id=self._next_dc, **kw)
        self._next_dc += 1
        self.dc_sites[site.site_id] = site
        self.stats.data_sites += 1
        return site

    def _new_sc_site(self, is_exit: bool, frame_size: int) -> SCSite:
        site = SCSite(site_id=self._next_sc, is_exit=is_exit,
                      frame_size=frame_size)
        self._next_sc += 1
        self.sc_sites[site.site_id] = site
        self.stats.scache_sites += 1
        return site

    # -- the transform ---------------------------------------------------------

    def transform(self, chunk: Chunk) -> Chunk:
        """Rewrite data accesses in *chunk*; returns a new Chunk."""
        words = list(chunk.words)
        exit_indices = {e.index for e in chunk.exits}
        #: registers currently holding a *local pinned* address
        #: (straight-line dataflow; control only enters at index 0)
        local_ptr: dict[int, bool] = {}
        #: value tracking for the lui/ori constant idiom
        lui_value: dict[int, int] = {}

        for i, word in enumerate(words):
            if i in exit_indices:
                local_ptr.clear()  # control may leave/re-enter
                lui_value.clear()
                continue
            ins = decode(word)
            op = ins.op
            if op is Op.LUI:
                lui_value[ins.rd] = (ins.imm << 16) & 0xFFFFFFFF
                local_ptr.pop(ins.rd, None)
                continue
            if op is Op.ORI and ins.rs1 == ins.rd and ins.rd in lui_value:
                addr = lui_value.pop(ins.rd) | ins.imm
                local_addr = self.pinned.get(addr)
                local_ptr.pop(ins.rd, None)
                if local_addr is not None:
                    # Fig 10 top: specialize to the in-cache address
                    words[i - 1] = encode(Insn(
                        Op.LUI, rd=ins.rd,
                        imm=(local_addr >> 16) & 0xFFFF))
                    words[i] = encode(Insn(
                        Op.ORI, rd=ins.rd, rs1=ins.rd,
                        imm=local_addr & 0xFFFF))
                    local_ptr[ins.rd] = True
                    self.stats.pinned_specializations += 1
                continue
            if op in MEMORY_OPS:
                base = ins.rs1
                if base in (SP, FP):
                    continue  # stack access: scache guarantees presence
                if local_ptr.get(base):
                    continue  # specialized pinned access stays native
                spec = SPECS[op]
                site = self._new_dc_site(
                    is_store=spec.writes_mem, width=spec.mem_width,
                    signed=spec.mem_signed, rd=ins.rd, rs1=base,
                    imm=ins.imm)
                words[i] = encode(Insn(
                    Op.TRAP, rd=Trap.DC_STORE if spec.writes_mem
                    else Trap.DC_LOAD, imm=site.site_id))
                local_ptr.clear()
                lui_value.clear()
                continue
            # prologue / epilogue -> stack-cache checks.  A prologue's
            # frame-allocating addi is always the first word of a chunk
            # whose origin is a procedure entry (compiler idiom), which
            # holds for every chunker including EBB gluing.
            if (op is Op.ADDI and ins.rd == SP and ins.rs1 == SP
                    and ins.imm < 0 and i == 0
                    and chunk.orig in self._proc_entries):
                site = self._new_sc_site(is_exit=False,
                                         frame_size=-ins.imm)
                words[i] = encode(Insn(Op.TRAP, rd=Trap.SC_ENTER,
                                       imm=site.site_id))
            elif (op is Op.ADD and ins.rd == SP and ins.rs1 == FP
                    and ins.rs2 == 0):
                site = self._new_sc_site(is_exit=True, frame_size=0)
                words[i] = encode(Insn(Op.TRAP, rd=Trap.SC_EXIT,
                                       imm=site.site_id))
            # any write to a tracked register invalidates its state
            if ins.op is not Op.TRAP:
                written = _written_reg(ins)
                if written is not None:
                    local_ptr.pop(written, None)
                    lui_value.pop(written, None)

        return Chunk(orig=chunk.orig, words=tuple(words),
                     exits=chunk.exits, orig_size=chunk.orig_size,
                     extra_words=chunk.extra_words, term=chunk.term,
                     name=chunk.name)


def _written_reg(ins: Insn) -> int | None:
    op = ins.op
    if SPECS[op].writes_mem or op in BRANCH_OPS or op in (
            Op.J, Op.JR, Op.RET, Op.TRAP, Op.SYSCALL, Op.HALT,
            Op.BREAK):
        return None
    return ins.rd if ins.rd else None
