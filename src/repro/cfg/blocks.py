"""Basic-block scanning: the unit of chunking for the SPARC prototype.

A *chunk* in the paper is "a basic block, although it could certainly
be a larger sequence of instructions".  The memory controller chunks
lazily: given any entry address it scans forward to the first control
transfer.  Overlapping translations (two blocks sharing a suffix of
original instructions because control entered at two different
addresses) are allowed, exactly as in Dynamo/Shade-style systems.

In this ISA every non-control instruction is position independent, so
block bodies can be relocated verbatim; all the rewriting work happens
at the terminator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..isa import BRANCH_OPS, Insn, Op, decode, is_control_transfer


class Term(enum.Enum):
    """How a basic block ends."""

    BRANCH = "branch"      # conditional: taken target + fall-through
    JUMP = "jump"          # unconditional direct (j)
    CALL = "call"          # jal: callee + return continuation
    ICALL = "icall"        # jalr: computed callee + return continuation
    CJUMP = "cjump"        # jr: computed jump (no continuation)
    RET = "ret"            # return through ra
    HALT = "halt"          # machine stop


@dataclass(frozen=True, slots=True)
class Block:
    """A scanned basic block at ``addr`` in the original text.

    ``insns`` includes the terminator.  ``taken``/``fallthrough`` are
    original byte addresses when statically known, else ``None``.
    """

    addr: int
    insns: tuple[Insn, ...]
    words: tuple[int, ...]
    term: Term
    taken: int | None         # branch/jump/call static target
    fallthrough: int | None   # next-pc successor (branch not-taken /
    # call continuation); None for jump/ret/cjump/halt

    @property
    def size(self) -> int:
        """Size in bytes of the original block."""
        return 4 * len(self.insns)

    @property
    def end(self) -> int:
        return self.addr + self.size

    @property
    def terminator(self) -> Insn:
        return self.insns[-1]


class BlockScanError(ValueError):
    """Block scan ran off the end of text or hit an illegal word."""


#: Safety bound: no compiler-generated basic block is this long.
MAX_BLOCK_INSNS = 4096


def scan_block(word_at, addr: int, text_end: int) -> Block:
    """Scan the basic block starting at *addr*.

    *word_at* maps a byte address to its 32-bit instruction word;
    *text_end* bounds the scan.
    """
    if addr & 3:
        raise BlockScanError(f"block start misaligned: {addr:#x}")
    insns: list[Insn] = []
    words: list[int] = []
    pc = addr
    while True:
        if pc >= text_end:
            raise BlockScanError(
                f"block at {addr:#x} runs past text end {text_end:#x}")
        if len(insns) >= MAX_BLOCK_INSNS:
            raise BlockScanError(f"block at {addr:#x} too long")
        word = word_at(pc)
        try:
            ins = decode(word)
        except Exception as exc:
            raise BlockScanError(
                f"illegal word {word:#010x} at {pc:#x}") from exc
        insns.append(ins)
        words.append(word)
        if is_control_transfer(ins.op):
            break
        pc += 4
    term_pc = pc
    ins = insns[-1]
    op = ins.op
    if op in BRANCH_OPS:
        term, taken = Term.BRANCH, term_pc + 4 + (ins.imm << 2)
        fallthrough = term_pc + 4
    elif op is Op.J:
        term, taken, fallthrough = Term.JUMP, ins.imm << 2, None
    elif op is Op.JAL:
        term, taken, fallthrough = Term.CALL, ins.imm << 2, term_pc + 4
    elif op is Op.JALR:
        term, taken, fallthrough = Term.ICALL, None, term_pc + 4
    elif op is Op.JR:
        term, taken, fallthrough = Term.CJUMP, None, None
    elif op is Op.RET:
        term, taken, fallthrough = Term.RET, None, None
    elif op is Op.HALT:
        term, taken, fallthrough = Term.HALT, None, None
    else:  # pragma: no cover - BLOCK_TERMINATORS is exhaustive
        raise BlockScanError(f"unexpected terminator {op} at {term_pc:#x}")
    return Block(addr=addr, insns=tuple(insns), words=tuple(words),
                 term=term, taken=taken, fallthrough=fallthrough)
