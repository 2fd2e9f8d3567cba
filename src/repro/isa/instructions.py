"""Instruction set definition for the repro RISC ISA.

A fixed-width 32-bit RISC instruction set in the SPARC/MIPS tradition,
designed so that the SoftCache rewriter has exactly the properties the
paper requires:

* control transfers are explicit and classifiable by opcode alone
  (conditional branches, direct jumps, calls, returns, computed jumps);
* calls and returns use *unique* instructions (``jal``/``jalr`` and
  ``ret``), satisfying the paper's programming-model restriction that
  return addresses be identifiable to the runtime system;
* branch targets are encoded in patchable displacement/target fields,
  so cache state can be stored in the branch words themselves.

Formats (6-bit primary opcode, one opcode per mnemonic):

===========  =====================================================
format       bit layout (msb..lsb)
===========  =====================================================
R            ``op[31:26] rd[25:21] rs1[20:16] rs2[15:11] 0[10:0]``
I            ``op[31:26] rd[25:21] rs1[20:16] imm16[15:0]``
B (branch)   ``op[31:26] rs1[25:21] rs2[20:16] disp16[15:0]``
J (jump)     ``op[31:26] target26[25:0]`` (absolute word address)
T (trap)     ``op[31:26] code[25:20] imm20[19:0]``
===========  =====================================================

Branch displacements are signed word counts relative to ``pc + 4``.
Jump targets are absolute word addresses (byte address / 4), covering
the low 256 MB of the address space; all memory regions live there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Fmt(enum.Enum):
    """Instruction encoding format."""

    R = "R"
    I = "I"  # noqa: E741 - conventional name
    B = "B"
    J = "J"
    T = "T"


class Op(enum.IntEnum):
    """Primary opcodes.  One opcode per mnemonic."""

    # ALU register-register (R format)
    ADD = 0x00
    SUB = 0x01
    AND = 0x02
    OR = 0x03
    XOR = 0x04
    NOR = 0x05
    SLT = 0x06
    SLTU = 0x07
    SLL = 0x08
    SRL = 0x09
    SRA = 0x0A
    MUL = 0x0B
    DIV = 0x0C
    REM = 0x0D

    # ALU register-immediate (I format)
    ADDI = 0x10
    ANDI = 0x11
    ORI = 0x12
    XORI = 0x13
    SLTI = 0x14
    SLTIU = 0x15
    SLLI = 0x16
    SRLI = 0x17
    SRAI = 0x18
    LUI = 0x19

    # Memory (I format; rd is data reg, rs1 is base, imm16 signed offset)
    LW = 0x20
    LH = 0x21
    LHU = 0x22
    LB = 0x23
    LBU = 0x24
    SW = 0x25
    SH = 0x26
    SB = 0x27

    # Conditional branches (B format)
    BEQ = 0x28
    BNE = 0x29
    BLT = 0x2A
    BGE = 0x2B
    BLTU = 0x2C
    BGEU = 0x2D

    # Jumps and calls
    J = 0x30    # J format: unconditional direct jump
    JAL = 0x31  # J format: direct call, ra := pc + 4
    JR = 0x32   # R format (rs1): computed jump (switch tables, fn ptrs)
    JALR = 0x33  # R format (rd, rs1): indirect call, rd := pc + 4
    RET = 0x34  # R format, no operands: return, pc := ra

    # System (T format)
    TRAP = 0x38     # SoftCache runtime traps (miss stubs, dcache ops)
    SYSCALL = 0x39  # OS services (exit, putint, ...)
    BREAK = 0x3A    # debugger breakpoint / fatal

    # HALT stops the machine immediately (used by bare-metal images).
    HALT = 0x3F


class Trap(enum.IntEnum):
    """Trap codes carried in the ``code`` field of a TRAP instruction.

    These are the hooks through which the SoftCache cache controller
    (CC) regains control on the simulated client.
    """

    MISS_BRANCH = 0x01  # exit-stub: branch/jump to untranslated target
    MISS_JR = 0x02      # computed jump: hash-table lookup fallback
    MISS_RET = 0x03     # return to an untranslated continuation
    RET_LAND = 0x04     # ARM variant: permanent return-redirector landing
    MISS_CALL = 0x05    # ARM variant: redirector entry, callee absent
    DC_LOAD = 0x08      # software data cache: load through dcache
    DC_STORE = 0x09     # software data cache: store through dcache
    SC_ENTER = 0x0A     # stack cache: procedure-entry presence check
    SC_EXIT = 0x0B      # stack cache: procedure-exit presence check


class Sys(enum.IntEnum):
    """Syscall service numbers (in the imm20 field of SYSCALL)."""

    EXIT = 0      # exit with code in a0
    PUTINT = 1    # print integer in a0 followed by '\n'... no: raw decimal
    PUTCHAR = 2   # print character in a0
    PUTS = 3      # print NUL-terminated string at address in a0
    GETCYCLES = 4  # a0 := low 32 bits of the cycle counter
    INVALIDATE = 5  # declare code at [a0, a0+a1) rewritten (self-mod code)
    WRITEHEX = 6  # print a0 as 8-digit hex


@dataclass(frozen=True)
class InsnSpec:
    """Static metadata for one mnemonic."""

    op: Op
    fmt: Fmt
    #: immediate is sign-extended (I-format only; logical imms are zero-ext)
    signed_imm: bool = True
    reads_mem: bool = False
    writes_mem: bool = False
    #: bytes a load or store moves (0 for other ops)
    mem_width: int = 0
    #: a load sign-extends its value to 32 bits (LH, LB)
    mem_signed: bool = False
    is_branch: bool = False  # conditional, B format
    is_jump: bool = False    # unconditional direct (J)
    is_call: bool = False    # jal / jalr
    is_return: bool = False  # ret
    is_indirect: bool = False  # jr / jalr / ret (target from register)


def _spec(op: Op, fmt: Fmt, **kw) -> InsnSpec:
    return InsnSpec(op=op, fmt=fmt, **kw)


#: Opcode -> InsnSpec
SPECS: dict[Op, InsnSpec] = {}


def _add(op: Op, fmt: Fmt, **kw) -> None:
    SPECS[op] = _spec(op, fmt, **kw)


for _op in (Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
            Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.DIV, Op.REM):
    _add(_op, Fmt.R)

for _op in (Op.ADDI, Op.SLTI):
    _add(_op, Fmt.I, signed_imm=True)
for _op in (Op.ANDI, Op.ORI, Op.XORI, Op.SLTIU, Op.SLLI, Op.SRLI,
            Op.SRAI, Op.LUI):
    _add(_op, Fmt.I, signed_imm=False)

for _op, _width, _signed in ((Op.LW, 4, False), (Op.LH, 2, True),
                             (Op.LHU, 2, False), (Op.LB, 1, True),
                             (Op.LBU, 1, False)):
    _add(_op, Fmt.I, signed_imm=True, reads_mem=True, mem_width=_width,
         mem_signed=_signed)
for _op, _width in ((Op.SW, 4), (Op.SH, 2), (Op.SB, 1)):
    _add(_op, Fmt.I, signed_imm=True, writes_mem=True, mem_width=_width)

for _op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
    _add(_op, Fmt.B, is_branch=True)

_add(Op.J, Fmt.J, is_jump=True)
_add(Op.JAL, Fmt.J, is_call=True)
_add(Op.JR, Fmt.R, is_indirect=True)
_add(Op.JALR, Fmt.R, is_call=True, is_indirect=True)
_add(Op.RET, Fmt.R, is_return=True, is_indirect=True)
_add(Op.TRAP, Fmt.T)
_add(Op.SYSCALL, Fmt.T)
_add(Op.BREAK, Fmt.T)
_add(Op.HALT, Fmt.T)

#: Mnemonic (lower case) -> Op
MNEMONICS: dict[str, Op] = {op.name.lower(): op for op in SPECS}

#: Opcodes that terminate a basic block (control leaves sequentially).
BLOCK_TERMINATORS = frozenset(
    op for op, s in SPECS.items()
    if s.is_branch or s.is_jump or s.is_call or s.is_return or s.is_indirect
) | {Op.HALT}

#: Conditional branches (B format).
BRANCH_OPS = frozenset(op for op, s in SPECS.items() if s.is_branch)

#: Loads and stores.
MEMORY_OPS = frozenset(
    op for op, s in SPECS.items() if s.reads_mem or s.writes_mem)


def is_control_transfer(op: Op) -> bool:
    """True if *op* can transfer control away from the next instruction."""
    return op in BLOCK_TERMINATORS


def spec(op: Op) -> InsnSpec:
    """Return the :class:`InsnSpec` for *op*."""
    return SPECS[op]
