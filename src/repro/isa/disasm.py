"""Disassembler for the repro RISC ISA.

Produces assembler-compatible text: ``disassemble(encode(asm(text)))``
round-trips for canonical spellings.  Used by debugging tools, the
tcache dump utilities, and tests.
"""

from __future__ import annotations

from .encoding import Insn, decode
from .instructions import MEMORY_OPS, Fmt, Op, Sys, Trap
from .registers import reg_name


def format_insn(insn: Insn, pc: int | None = None) -> str:
    """Render *insn* as assembly text.

    If *pc* is given, branch targets are rendered as absolute hex
    addresses instead of raw displacements.
    """
    op = insn.op
    name = op.name.lower()
    fmt = insn.fmt
    if fmt is Fmt.R:
        if op is Op.RET:
            return "ret"
        if op is Op.JR:
            return f"jr {reg_name(insn.rs1)}"
        if op is Op.JALR:
            return f"jalr {reg_name(insn.rd)}, {reg_name(insn.rs1)}"
        return (f"{name} {reg_name(insn.rd)}, {reg_name(insn.rs1)}, "
                f"{reg_name(insn.rs2)}")
    if fmt is Fmt.I:
        if op in MEMORY_OPS:
            return (f"{name} {reg_name(insn.rd)}, "
                    f"{insn.imm}({reg_name(insn.rs1)})")
        if op is Op.LUI:
            return f"lui {reg_name(insn.rd)}, {insn.imm:#x}"
        return f"{name} {reg_name(insn.rd)}, {reg_name(insn.rs1)}, {insn.imm}"
    if fmt is Fmt.B:
        if pc is not None:
            target = pc + 4 + (insn.imm << 2)
            return (f"{name} {reg_name(insn.rs1)}, {reg_name(insn.rs2)}, "
                    f"{target:#x}")
        return f"{name} {reg_name(insn.rs1)}, {reg_name(insn.rs2)}, .{insn.imm:+d}"
    if fmt is Fmt.J:
        return f"{name} {insn.imm << 2:#x}"
    # Fmt.T
    if op is Op.TRAP:
        try:
            code = Trap(insn.rd).name.lower()
        except ValueError:
            code = str(insn.rd)
        return f"trap {code}, {insn.imm}"
    if op is Op.SYSCALL:
        try:
            svc = Sys(insn.imm).name.lower()
        except ValueError:
            svc = str(insn.imm)
        return f"syscall {svc}"
    if op is Op.HALT:
        return "halt"
    return f"{name} {insn.imm}"


def disassemble_word(word: int, pc: int | None = None) -> str:
    """Decode and render one instruction word."""
    return format_insn(decode(word), pc)


def disassemble_range(mem_read_word, start: int, end: int) -> list[str]:
    """Disassemble words in ``[start, end)``.

    *mem_read_word* is a callable ``addr -> word``.  Undecodable words
    are rendered as ``.word 0x...``.
    """
    lines = []
    for pc in range(start, end, 4):
        word = mem_read_word(pc)
        try:
            text = disassemble_word(word, pc)
        except Exception:
            text = f".word {word:#010x}"
        lines.append(f"{pc:#010x}: {word:08x}  {text}")
    return lines
