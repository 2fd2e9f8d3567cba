"""Differential testing of CPU semantics against an independent golden
model.

Hypothesis draws random straight-line programs — ALU ops, loads and
stores of every width, writes to ``zero`` — ending in a random control
transfer, or in none.  Each program runs under per-instruction
dispatch and the JIT, and the registers, both data windows, the exit
pc and the instruction count are compared with a golden model written
directly from the ISA spec (docs/ISA.md) that shares no code with the
simulator.  Both paths are generated from one op table, so comparing
them with each other cannot catch a wrong table entry; this model
can.  Any divergence in wrapping, sign or zero extension,
shift masking, division conventions, branch conditions, exit targets
or link registers shows up here.

The program sits inside a landing pad of HALT words, so every exit
target — taken or not, direct or through a register — halts at once
and ``cpu.pc`` reads back where control went.  Loads and stores use
one window in the stack (the JIT's inline fast path) and one in
executable local RAM (the accessor slow path and its code-write
guard).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble_and_link
from repro.isa import Insn, Op, encode
from repro.layout import LOCAL_BASE, STACK_TOP
from repro.sim import Machine, MachineConfig

MASK32 = 0xFFFFFFFF
RA = 1

_ALU_R = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
          Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.DIV, Op.REM]
_ALU_I = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU,
          Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI]
_ZERO_EXT_I = (Op.ANDI, Op.ORI, Op.XORI, Op.SLTIU, Op.SLLI, Op.SRLI,
               Op.SRAI, Op.LUI)
#: op -> (bytes, sign-extended)
_LOADS = {Op.LW: (4, False), Op.LH: (2, True), Op.LHU: (2, False),
          Op.LB: (1, True), Op.LBU: (1, False)}
_STORES = {Op.SW: 4, Op.SH: 2, Op.SB: 1}
_BRANCHES = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU]
_JUMPS = [Op.J, Op.JAL, Op.JR, Op.JALR, Op.RET]

# registers the body may touch (avoid ra/sp/fp/at/kt); zero included
_REGS = list(range(8, 24))
_OPERANDS = _REGS + [0]
#: base registers of the two data windows and the computed-jump
#: target register; never written by the body
_STACK_BASE, _LOCAL_BASE, _JUMP_REG = 24, 25, 26

_PAD = LOCAL_BASE            # HALT landing pad [_PAD, _PAD + 0x400)
_CODE = LOCAL_BASE + 0x100   # the program (at most 32 words)
_TARGETS = list(range(_PAD, _CODE, 4)) + list(
    range(_PAD + 0x300, _PAD + 0x400, 4))
_WINDOW = 128
_WINDOWS = {_STACK_BASE: STACK_TOP - 0x100,
            _LOCAL_BASE: LOCAL_BASE + 0x800}

_MODES = {
    "per_insn": MachineConfig(superblocks=False),
    "jit": MachineConfig(),
}

_IMAGE = assemble_and_link("""
    .global main
main:
    li a0, 0
    ret
""")


def _signed(x):
    return x - 0x100000000 if x & 0x80000000 else x


def golden_alu(op, a, b):
    """Independent semantics, straight from docs/ISA.md."""
    if op is Op.ADD:
        return (a + b) & MASK32
    if op is Op.SUB:
        return (a - b) & MASK32
    if op is Op.AND:
        return a & b
    if op is Op.OR:
        return a | b
    if op is Op.XOR:
        return a ^ b
    if op is Op.NOR:
        return ~(a | b) & MASK32
    if op is Op.SLT:
        return int(_signed(a) < _signed(b))
    if op is Op.SLTU:
        return int(a < b)
    if op is Op.SLL:
        return (a << (b & 31)) & MASK32
    if op is Op.SRL:
        return a >> (b & 31)
    if op is Op.SRA:
        return (_signed(a) >> (b & 31)) & MASK32
    if op is Op.MUL:
        return (a * b) & MASK32
    if op is Op.DIV:
        if b == 0:
            return MASK32
        q = abs(_signed(a)) // abs(_signed(b))
        if (_signed(a) < 0) != (_signed(b) < 0):
            q = -q
        return q & MASK32
    if op is Op.REM:
        if b == 0:
            return a
        r = abs(_signed(a)) % abs(_signed(b))
        if _signed(a) < 0:
            r = -r
        return r & MASK32
    raise AssertionError(op)


def golden_alui(op, a, imm):
    if op is Op.ADDI:
        return (a + imm) & MASK32
    if op is Op.ANDI:
        return a & imm
    if op is Op.ORI:
        return a | imm
    if op is Op.XORI:
        return a ^ imm
    if op is Op.SLTI:
        return int(_signed(a) < imm)
    if op is Op.SLTIU:
        return int(a < imm)
    if op is Op.SLLI:
        return (a << (imm & 31)) & MASK32
    if op is Op.SRLI:
        return a >> (imm & 31)
    if op is Op.SRAI:
        return (_signed(a) >> (imm & 31)) & MASK32
    if op is Op.LUI:
        return (imm << 16) & MASK32
    raise AssertionError(op)


def golden_taken(op, a, b):
    if op is Op.BEQ:
        return a == b
    if op is Op.BNE:
        return a != b
    if op is Op.BLT:
        return _signed(a) < _signed(b)
    if op is Op.BGE:
        return _signed(a) >= _signed(b)
    if op is Op.BLTU:
        return a < b
    if op is Op.BGEU:
        return a >= b
    raise AssertionError(op)


def golden(body, term, seeds, windows):
    """``(registers, window bytes, exit pc, instructions)`` after the
    program runs and halts."""
    regs = [0] * 32
    for reg, value in seeds.items():
        regs[reg] = value
    mem = {}
    for base_reg, data in windows.items():
        base = _WINDOWS[base_reg]
        mem.update((base + i, byte) for i, byte in enumerate(data))

    def write(reg, value):
        if reg:
            regs[reg] = value

    for ins in body:
        op = ins.op
        if op in _ALU_R:
            write(ins.rd, golden_alu(op, regs[ins.rs1], regs[ins.rs2]))
        elif op in _ALU_I:
            write(ins.rd, golden_alui(op, regs[ins.rs1], ins.imm))
        elif op in _LOADS:
            width, signed = _LOADS[op]
            addr = (regs[ins.rs1] + ins.imm) & MASK32
            value = int.from_bytes(
                bytes(mem[addr + i] for i in range(width)), "little")
            if signed and value >> (8 * width - 1):
                value -= 1 << (8 * width)
            write(ins.rd, value & MASK32)
        else:
            width = _STORES[op]
            addr = (regs[ins.rs1] + ins.imm) & MASK32
            data = (regs[ins.rd] & ((1 << 8 * width) - 1)).to_bytes(
                width, "little")
            mem.update((addr + i, byte) for i, byte in enumerate(data))
    pc = _CODE + 4 * len(body)
    exit_pc = pc
    if term is not None:
        op = term.op
        if op in _BRANCHES:
            taken = golden_taken(op, regs[term.rs1], regs[term.rs2])
            exit_pc = pc + 4 + 4 * term.imm if taken else pc + 4
        elif op is Op.J:
            exit_pc = 4 * term.imm
        elif op is Op.JAL:
            exit_pc = 4 * term.imm
            regs[RA] = pc + 4
        elif op is Op.JR:
            exit_pc = regs[term.rs1]
        elif op is Op.JALR:
            exit_pc = regs[term.rs1]
            write(term.rd, pc + 4)
        else:
            assert op is Op.RET
            exit_pc = regs[RA]
    window_bytes = {reg: bytes(mem[base + i] for i in range(_WINDOW))
                    for reg, base in _WINDOWS.items()}
    icount = len(body) + (term is not None) + 1  # + the HALT
    return regs, window_bytes, exit_pc, icount


def _fixed_seeds(values, jump_target=_TARGETS[0], ra=_TARGETS[-1]):
    """Register seeds: *values* from r8 up, the window bases, and the
    targets of ``jr``/``jalr`` and ``ret``."""
    seeds = dict(zip(_REGS, values))
    seeds.update({_STACK_BASE: _WINDOWS[_STACK_BASE],
                  _LOCAL_BASE: _WINDOWS[_LOCAL_BASE],
                  _JUMP_REG: jump_target, RA: ra})
    return seeds


@st.composite
def programs(draw):
    """(body, terminator or None, register seeds, window contents)."""
    value = st.integers(-(1 << 31), MASK32 >> 1).map(
        lambda x: x & MASK32) | st.sampled_from(_EDGES)
    seeds = _fixed_seeds([draw(value) for _ in _REGS],
                         draw(st.sampled_from(_TARGETS)),
                         draw(st.sampled_from(_TARGETS)))
    windows = {reg: draw(st.binary(min_size=_WINDOW, max_size=_WINDOW))
               for reg in _WINDOWS}
    operand = st.sampled_from(_OPERANDS)
    body = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            body.append(Insn(draw(st.sampled_from(_ALU_R)),
                             rd=draw(operand), rs1=draw(operand),
                             rs2=draw(operand)))
        elif kind == 1:
            op = draw(st.sampled_from(_ALU_I))
            imm = (draw(st.integers(0, 0xFFFF)) if op in _ZERO_EXT_I
                   else draw(st.integers(-32768, 32767)))
            body.append(Insn(op, rd=draw(operand), rs1=draw(operand),
                             imm=imm))
        else:
            op = draw(st.sampled_from([*_LOADS, *_STORES]))
            width = _LOADS[op][0] if op in _LOADS else _STORES[op]
            body.append(Insn(
                op, rd=draw(operand),
                rs1=draw(st.sampled_from(list(_WINDOWS))),
                imm=width * draw(st.integers(0, _WINDOW // width - 1))))
    op = draw(st.sampled_from([*_BRANCHES, *_JUMPS, None]))
    term_pc = _CODE + 4 * len(body)
    target = draw(st.sampled_from(_TARGETS))
    if op is None:
        term = None
    elif op in _BRANCHES:
        term = Insn(op, rs1=draw(operand), rs2=draw(operand),
                    imm=(target - term_pc - 4) >> 2)
    elif op in (Op.J, Op.JAL):
        term = Insn(op, imm=target >> 2)
    elif op is Op.JR:
        term = Insn(op, rs1=_JUMP_REG)
    elif op is Op.JALR:
        term = Insn(op, rs1=_JUMP_REG, rd=draw(st.sampled_from(
            [0, RA, _JUMP_REG, *_REGS])))
    else:
        term = Insn(op)
    return body, term, seeds, windows


#: Operand values that tell signed from unsigned, arithmetic from
#: logical shifts and masked from unmasked shift amounts apart.
_EDGES = [0x80000000, MASK32, 5, 0x7FFFFFFF, 0xFFFFFFF9, 0x80000001, 0,
          12345]
_EDGES_B = [1, 31, MASK32, 0x80000001, 0, 0x7FFFFFFF, 2, 0x80000000]
_IMMS = {True: [-1, 1, -32768, 32767, 0, 5, -7, 31],
         False: [0xFFFF, 1, 0x8000, 0x7FFF, 0, 31, 33, 0x1234]}
_EDGE_BYTES = {reg: bytes((0x7F + 0x1D * i) & 0xFF for i in range(_WINDOW))
               for reg in _WINDOWS}


def edge_programs():
    """Deterministic programs that run every op on edge values: each
    ALU op over eight operand pairs, every load and store at both
    windows, each branch taken and not taken, and each jump with every
    kind of link register."""
    seeds = _fixed_seeds(_EDGES + _EDGES_B)
    bases = list(_WINDOWS)
    for op in _ALU_R:
        yield ([Insn(op, rd=8 + k, rs1=8 + k, rs2=16 + k)
                for k in range(8)], None, seeds, _EDGE_BYTES)
    for op in _ALU_I:
        imms = _IMMS[op not in _ZERO_EXT_I]
        yield ([Insn(op, rd=8 + k, rs1=8 + k, imm=imms[k])
                for k in range(8)], None, seeds, _EDGE_BYTES)
    for op, width in [*((op, w) for op, (w, _s) in _LOADS.items()),
                      *_STORES.items()]:
        yield ([Insn(op, rd=8 + k, rs1=bases[k % 2], imm=width * 3 * k)
                for k in range(8)], None, seeds, _EDGE_BYTES)
    for op in _BRANCHES:
        for a, b in [(1, 1), (0x80000000, 1), (1, 0x80000000), (5, 7)]:
            yield ([], Insn(op, rs1=8, rs2=9,
                            imm=(_TARGETS[0] - _CODE - 4) >> 2),
                   _fixed_seeds([a, b]), _EDGE_BYTES)
    for term in [Insn(Op.J, imm=_TARGETS[1] >> 2),
                 Insn(Op.JAL, imm=_TARGETS[2] >> 2),
                 Insn(Op.JR, rs1=_JUMP_REG), Insn(Op.RET),
                 *(Insn(Op.JALR, rd=rd, rs1=_JUMP_REG)
                   for rd in (0, RA, _JUMP_REG, 12))]:
        yield [], term, seeds, _EDGE_BYTES


def _simulate(mode, body, term, seeds, windows):
    machine = Machine(_IMAGE, _MODES[mode])
    mem = machine.mem
    halt = encode(Insn(Op.HALT)).to_bytes(4, "little")
    mem.write_bytes(_PAD, halt * 256)
    words = [encode(ins) for ins in body + ([term] if term else [])]
    mem.write_bytes(_CODE, b"".join(w.to_bytes(4, "little")
                                    for w in words))
    for reg, data in windows.items():
        mem.write_bytes(_WINDOWS[reg], data)
    cpu = machine.cpu
    for reg, value in seeds.items():
        cpu.set_reg(reg, value)
    cpu.pc = _CODE
    cpu.run(max_instructions=1000)
    window_bytes = {reg: mem.read_bytes(base, _WINDOW)
                    for reg, base in _WINDOWS.items()}
    return list(cpu.regs), window_bytes, cpu.pc, cpu.icount


def _check(mode, body, term, seeds, windows):
    want = golden(body, term, seeds, windows)
    got = _simulate(mode, body, term, seeds, windows)
    listing = [str(ins) for ins in body + ([term] if term else [])]
    for reg in range(32):
        assert got[0][reg] == want[0][reg], (
            f"r{reg} diverged under {mode}: sim={got[0][reg]:#x} "
            f"golden={want[0][reg]:#x}\nprogram={listing}")
    assert got[1] == want[1], f"memory diverged under {mode}: {listing}"
    assert got[2:] == want[2:], (
        f"exit pc / count diverged under {mode}: sim={got[2:]} "
        f"golden={want[2:]}\nprogram={listing}")


@pytest.mark.parametrize("mode", list(_MODES))
def test_golden_model_on_edge_values(mode):
    for program in edge_programs():
        _check(mode, *program)


@pytest.mark.parametrize("mode", list(_MODES))
@settings(max_examples=120, deadline=None)
@given(program=programs())
def test_golden_model(mode, program):
    _check(mode, *program)
