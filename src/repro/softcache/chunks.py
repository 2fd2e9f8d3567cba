"""Chunk production and binary rewriting (the MC's half of the work).

The memory controller breaks the program into chunks and rewrites each
chunk's control transfers at miss time.  Two chunkers match the two
prototypes:

* :class:`BasicBlockChunker` — the SPARC prototype: chunks are basic
  blocks; conditional branches grow an explicit fall-through jump and
  calls grow a return-continuation slot (the paper's "two new
  instructions per translated basic block"); computed jumps become
  hash-lookup traps.
* :class:`ProcedureChunker` — the ARM prototype: chunks are whole
  procedures, call sites are routed through permanent *redirector*
  stubs (so returns never point into evictable memory and no stack
  walk is needed at invalidation time), and indirect jumps are
  unsupported.

A produced :class:`Chunk` is position independent: exit words are
encoded with placeholder targets and described by :class:`ExitDesc`
records; the CC finalizes them against the current cache state when it
installs the chunk ("rewritten to point to a cache miss handler ...
and eventually, if used, again rewritten to point to other blocks").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..asm.image import Image, ProcSpan
from ..cfg import Term, scan_block
from ..isa import BRANCH_OPS, Insn, Op, Trap, decode, encode, jump_target

#: Placeholder TRAP word; the CC fills in the real stub/site id.
_TRAP_PLACEHOLDER = {
    Trap.MISS_BRANCH: encode(Insn(Op.TRAP, rd=Trap.MISS_BRANCH, imm=0)),
    Trap.MISS_JR: encode(Insn(Op.TRAP, rd=Trap.MISS_JR, imm=0)),
    Trap.MISS_RET: encode(Insn(Op.TRAP, rd=Trap.MISS_RET, imm=0)),
}


class ExitKind(enum.Enum):
    """How one rewritten word in a chunk leaves the chunk."""

    TAKEN = "taken"      # conditional branch, B-format patch
    JUMP = "jump"        # unconditional J, J-format patch
    CALL = "call"        # JAL, J-format patch
    CONT = "cont"        # return-continuation TRAP slot
    CONT_INLINE = "cont_inline"  # EBB: continuation code placed inline
    JR = "jr"            # computed jump TRAP (hash-table fallback)
    JALR = "jalr"        # indirect call TRAP + continuation slot
    INTERNAL = "internal"  # proc chunker: intra-chunk absolute J fixup
    CALLSITE = "callsite"  # proc chunker: JAL routed via redirector


@dataclass(frozen=True, slots=True)
class ExitDesc:
    """One exit record: chunk word index + original target/operands."""

    kind: ExitKind
    index: int                 # word index within the chunk body
    target: int | None = None  # original byte address (None: computed)
    rs1: int = 0               # source register of jr/jalr
    rd: int = 0                # link register of jalr
    ret_offset: int = 0        # proc chunker: return point offset


@dataclass(frozen=True, slots=True)
class Chunk:
    """A rewritten, relocatable chunk ready for installation."""

    orig: int
    words: tuple[int, ...]
    exits: tuple[ExitDesc, ...]
    orig_size: int
    extra_words: int
    term: Term | None = None
    name: str = ""

    @property
    def size(self) -> int:
        """Bytes the chunk occupies in the tcache."""
        return 4 * len(self.words)

    @property
    def payload_bytes(self) -> int:
        """Bytes shipped over the link (body + 4 per exit record)."""
        return self.size + 4 * len(self.exits)

    @property
    def successors(self) -> tuple[int, ...]:
        """Original addresses control can transfer to next (static).

        The nodes this chunk points at in the MC's chunk-successor
        graph: taken-branch and jump targets, call targets and the
        return continuation.  Computed jumps contribute nothing (their
        targets live in registers) and intra-chunk fixups are not
        successors.  Order follows the exit order, de-duplicated.
        """
        seen: list[int] = []
        for ex in self.exits:
            if ex.kind is ExitKind.INTERNAL or ex.target is None:
                continue
            if ex.target != self.orig and ex.target not in seen:
                seen.append(ex.target)
        return tuple(seen)


class ChunkError(ValueError):
    """The program violates the chunker's programming-model contract."""


class BasicBlockChunker:
    """Chunk at basic-block granularity (SPARC prototype, §2.1)."""

    granularity = "block"

    def __init__(self, image: Image):
        self.image = image

    def chunk_at(self, addr: int) -> Chunk:
        """Scan and rewrite the basic block starting at *addr*."""
        image = self.image
        if not image.in_text(addr):
            raise ChunkError(f"chunk target {addr:#x} outside text")
        block = scan_block(image.word_at, addr, image.text_end)
        words = list(block.words[:-1])  # body is position independent
        exits: list[ExitDesc] = []
        extra = 0
        term_word = block.words[-1]
        term = block.term
        if term is Term.BRANCH:
            exits.append(ExitDesc(ExitKind.TAKEN, len(words),
                                  block.taken))
            words.append(term_word & 0xFFFF0000)  # zeroed displacement
            exits.append(ExitDesc(ExitKind.JUMP, len(words),
                                  block.fallthrough))
            words.append(encode(Insn(Op.J, imm=0)))
            extra += 1
        elif term is Term.JUMP:
            exits.append(ExitDesc(ExitKind.JUMP, len(words), block.taken))
            words.append(term_word & 0xFC000000)
        elif term is Term.CALL:
            exits.append(ExitDesc(ExitKind.CALL, len(words), block.taken))
            words.append(term_word & 0xFC000000)
            exits.append(ExitDesc(ExitKind.CONT, len(words),
                                  block.fallthrough))
            words.append(_TRAP_PLACEHOLDER[Trap.MISS_RET])
            extra += 1
        elif term is Term.ICALL:
            ins = block.insns[-1]
            exits.append(ExitDesc(ExitKind.JALR, len(words), None,
                                  rs1=ins.rs1, rd=ins.rd))
            words.append(_TRAP_PLACEHOLDER[Trap.MISS_JR])
            exits.append(ExitDesc(ExitKind.CONT, len(words),
                                  block.fallthrough))
            words.append(_TRAP_PLACEHOLDER[Trap.MISS_RET])
            extra += 1
        elif term is Term.CJUMP:
            ins = block.insns[-1]
            exits.append(ExitDesc(ExitKind.JR, len(words), None,
                                  rs1=ins.rs1))
            words.append(_TRAP_PLACEHOLDER[Trap.MISS_JR])
        elif term in (Term.RET, Term.HALT):
            words.append(term_word)  # position independent as-is
        else:  # pragma: no cover - Term is exhaustive
            raise AssertionError(term)
        return Chunk(orig=addr, words=tuple(words), exits=tuple(exits),
                     orig_size=block.size, extra_words=extra, term=term)


class EBBChunker:
    """Extended-basic-block (trace) chunker: the optimization ablation.

    The paper notes its two extra instructions per translated block
    "could be optimized away to provide a performance closer to that
    of the native binary".  This chunker does exactly that, Dynamo
    style: after a conditional branch, a call, or an indirect call,
    translation *continues inline* with the fall-through/continuation
    code instead of emitting a jump or a return-continuation trap.
    Fall-through jumps disappear and procedure returns land directly
    on real code (``ra`` points at the inline continuation), so
    steady-state overhead approaches zero at the price of potential
    tail duplication in the tcache.
    """

    granularity = "ebb"

    def __init__(self, image: Image, limit: int = 8,
                 max_words: int = 256):
        self.image = image
        self.limit = limit          # max basic blocks glued per chunk
        self.max_words = max_words  # hard cap on chunk size

    def chunk_at(self, addr: int) -> Chunk:
        image = self.image
        if not image.in_text(addr):
            raise ChunkError(f"chunk target {addr:#x} outside text")
        words: list[int] = []
        exits: list[ExitDesc] = []
        orig_size = 0
        extra = 0
        pc = addr
        for _ in range(self.limit):
            block = scan_block(image.word_at, pc, image.text_end)
            words.extend(block.words[:-1])
            orig_size += block.size
            term_word = block.words[-1]
            term = block.term
            if term is Term.BRANCH:
                exits.append(ExitDesc(ExitKind.TAKEN, len(words),
                                      block.taken))
                words.append(term_word & 0xFFFF0000)
                pc = block.fallthrough  # continue inline: no jump added
            elif term is Term.CALL:
                exits.append(ExitDesc(ExitKind.CALL, len(words),
                                      block.taken))
                words.append(term_word & 0xFC000000)
                exits.append(ExitDesc(ExitKind.CONT_INLINE, len(words),
                                      block.fallthrough))
                pc = block.fallthrough  # returns land right here
            elif term is Term.ICALL:
                ins = block.insns[-1]
                exits.append(ExitDesc(ExitKind.JALR, len(words), None,
                                      rs1=ins.rs1, rd=ins.rd))
                words.append(_TRAP_PLACEHOLDER[Trap.MISS_JR])
                exits.append(ExitDesc(ExitKind.CONT_INLINE, len(words),
                                      block.fallthrough))
                pc = block.fallthrough
            elif term is Term.JUMP:
                exits.append(ExitDesc(ExitKind.JUMP, len(words),
                                      block.taken))
                words.append(term_word & 0xFC000000)
                break
            elif term is Term.CJUMP:
                ins = block.insns[-1]
                exits.append(ExitDesc(ExitKind.JR, len(words), None,
                                      rs1=ins.rs1))
                words.append(_TRAP_PLACEHOLDER[Trap.MISS_JR])
                break
            else:  # RET / HALT
                words.append(term_word)
                break
            if len(words) >= self.max_words:
                # cap hit mid-trace: emit an explicit jump to continue
                exits.append(ExitDesc(ExitKind.JUMP, len(words), pc))
                words.append(encode(Insn(Op.J, imm=0)))
                extra += 1
                break
        else:
            # block-count limit hit: continue via explicit jump
            exits.append(ExitDesc(ExitKind.JUMP, len(words), pc))
            words.append(encode(Insn(Op.J, imm=0)))
            extra += 1
        return Chunk(orig=addr, words=tuple(words), exits=tuple(exits),
                     orig_size=orig_size, extra_words=extra, term=None)


class ProcedureChunker:
    """Chunk at procedure granularity (ARM prototype, §2.3).

    Limitations mirror the paper's: calls go through redirectors,
    indirect jumps (jr to non-return targets, jalr) are not supported,
    and control may not branch across procedure boundaries.
    """

    granularity = "proc"

    def __init__(self, image: Image):
        self.image = image

    def chunk_at(self, addr: int) -> Chunk:
        """Rewrite the whole procedure containing *addr*.

        *addr* must be a procedure entry: the redirector scheme gives
        the CC no way to enter a procedure in the middle.
        """
        image = self.image
        proc = image.proc_at(addr)
        if proc is None:
            raise ChunkError(f"no procedure covers {addr:#x}")
        if proc.addr != addr:
            raise ChunkError(
                f"{addr:#x} is not the entry of {proc.name} "
                f"({proc.addr:#x}); procedure chunks are entered at "
                f"their entry only")
        return self._rewrite_proc(proc)

    def _rewrite_proc(self, proc: ProcSpan) -> Chunk:
        image = self.image
        words: list[int] = []
        exits: list[ExitDesc] = []
        for off in range(0, proc.size, 4):
            pc = proc.addr + off
            word = image.word_at(pc)
            ins = decode(word)
            op = ins.op
            index = off >> 2
            if op is Op.JAL:
                callee = jump_target(word)
                exits.append(ExitDesc(
                    ExitKind.CALLSITE, index, callee,
                    ret_offset=off + 4))
                words.append(encode(Insn(Op.J, imm=0)))  # -> redirector
            elif op is Op.J:
                target = jump_target(word)
                if not proc.contains(target):
                    raise ChunkError(
                        f"{proc.name}: jump at {pc:#x} leaves the "
                        f"procedure (to {target:#x}); unsupported by "
                        f"the procedure chunker")
                exits.append(ExitDesc(ExitKind.INTERNAL, index,
                                      target - proc.addr))
                words.append(word & 0xFC000000)
            elif op in (Op.JR, Op.JALR):
                raise ChunkError(
                    f"{proc.name}: indirect jump at {pc:#x} — not "
                    f"supported by the ARM-style prototype (paper §2.3)")
            elif op in BRANCH_OPS:
                target = pc + 4 + (ins.imm << 2)
                if not proc.contains(target):
                    raise ChunkError(
                        f"{proc.name}: branch at {pc:#x} leaves the "
                        f"procedure")
                words.append(word)  # pc-relative: relocates verbatim
            else:
                words.append(word)
        return Chunk(orig=proc.addr, words=tuple(words),
                     exits=tuple(exits), orig_size=proc.size,
                     extra_words=0, term=None, name=proc.name)
