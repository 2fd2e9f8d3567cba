"""repro.isa — the repro RISC instruction set architecture.

Defines the 32-bit instruction set the whole reproduction runs on:
registers and ABI (:mod:`repro.isa.registers`), opcodes and formats
(:mod:`repro.isa.instructions`), binary encoding with the word-patching
helpers the SoftCache rewriter uses (:mod:`repro.isa.encoding`), and a
disassembler (:mod:`repro.isa.disasm`).
"""

from .encoding import (
    DecodeError,
    EncodingError,
    Insn,
    branch_target,
    decode,
    encode,
    jump_target,
    patch_branch_disp,
    patch_jump_target,
    sign_extend16,
    to_signed32,
)
from .disasm import disassemble_range, disassemble_word, format_insn
from .instructions import (
    BLOCK_TERMINATORS,
    BRANCH_OPS,
    Fmt,
    InsnSpec,
    MEMORY_OPS,
    MNEMONICS,
    Op,
    SPECS,
    Sys,
    Trap,
    is_control_transfer,
    spec,
)
from .registers import (
    A0,
    A1,
    A2,
    A3,
    ARG_REGS,
    AT,
    CALLEE_SAVED,
    CALLER_SAVED,
    FP,
    GP,
    KT,
    NUM_REGS,
    RA,
    REG_NAMES,
    S0,
    SP,
    T0,
    ZERO,
    is_reg_name,
    reg_name,
    reg_num,
)

__all__ = [
    "A0", "A1", "A2", "A3", "ARG_REGS", "AT", "BLOCK_TERMINATORS",
    "BRANCH_OPS", "CALLEE_SAVED", "CALLER_SAVED", "DecodeError",
    "EncodingError", "FP", "Fmt", "GP", "Insn", "InsnSpec", "KT",
    "MEMORY_OPS", "MNEMONICS", "NUM_REGS", "Op",
    "RA", "REG_NAMES", "S0", "SP", "SPECS", "Sys", "T0", "Trap", "ZERO",
    "branch_target", "decode", "disassemble_range", "disassemble_word",
    "encode", "format_insn", "is_control_transfer", "is_reg_name",
    "jump_target", "patch_branch_disp", "patch_jump_target", "reg_name",
    "reg_num", "sign_extend16", "spec", "to_signed32",
]
