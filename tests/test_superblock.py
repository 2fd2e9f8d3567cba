"""Superblock (threaded-code) execution.

The fused interpreter must be architecturally invisible: identical
outputs, registers, instruction and cycle counts to per-instruction
dispatch — including under dynamic rewriting, where patching any word
of a fused block must invalidate every superblock overlapping it, and
under faults, where a fused block must report the faulting word's pc
and the counts of exactly the instructions that ran.
"""

import pytest

from repro.asm import assemble_and_link
from repro.isa import Insn, Op, encode
from repro.sim import (
    BreakHit,
    CycleLimitExceeded,
    FUSE_LIMIT,
    Machine,
    MachineConfig,
    MemoryFault,
)
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload


# A loop whose body is one long straight-line (fusable) run.  The
# prologue falls through into ``loop``, so the word range of the body
# is covered by TWO superblocks (main.. and loop..) — patching a body
# word must kill both.
LOOP_SRC = """
    .global main
    .global loop
    .global done
main:
    li   s0, 6
    li   s1, 0
loop:
    addi t0, s1, 3
    slli t1, t0, 1
    add  t2, t1, t0
    xori t3, t2, 0x55
    add  s1, t3, s1
    subi s0, s0, 1
    bne  s0, zero, loop
done:
    mv   a0, s1
    syscall putint
    li   a0, 0
    ret
"""

BODY_LEN = 7  # six straight-line words + the bne terminator

_IMAGE = assemble_and_link(LOOP_SRC, "loop")


def _probe_warm_count() -> int:
    """Instructions from entry (crt0 included) until the third arrival
    at ``loop`` — two full iterations warm.  ``loop`` is reached only
    via fall-through or the bne, so it is also a superblock boundary
    and both dispatch modes stop exactly there."""
    machine = Machine(_IMAGE, MachineConfig(superblocks=False))
    loop = _IMAGE.symbols["loop"]
    visits = 0
    while True:
        if machine.cpu.pc == loop:
            visits += 1
            if visits == 3:
                return machine.cpu.icount
        machine.cpu.step()


#: Warm cap landing exactly on a superblock boundary at ``loop``.
WARM = _probe_warm_count()


def _warm_machine(superblocks: bool) -> Machine:
    machine = Machine(_IMAGE, MachineConfig(superblocks=superblocks))
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=WARM)
    assert machine.cpu.icount == WARM
    assert machine.cpu.pc == machine.image.symbols["loop"]
    return machine


def _finish(machine: Machine):
    try:
        machine.cpu.run()
        return ("exit", machine.cpu.exit_code)
    except BreakHit as hit:
        return ("break", hit.pc, hit.code)


def _state(machine: Machine):
    return (machine.cpu.icount, machine.cpu.cycles,
            machine.output_text, list(machine.cpu.regs))


@pytest.mark.parametrize("offset", range(BODY_LEN))
def test_patch_any_offset_with_break_poison(offset):
    """A BREAK written over any word of a warm fused block fires on
    the very next pass, exactly as under per-instruction decode."""
    results = []
    for superblocks in (True, False):
        machine = _warm_machine(superblocks)
        addr = machine.image.symbols["loop"] + 4 * offset
        machine.mem.write_word(addr, encode(Insn(Op.BREAK, rd=7)))
        results.append((_finish(machine), _state(machine)))
    fused, per_insn = results
    assert fused == per_insn
    assert fused[0][0] == "break"


@pytest.mark.parametrize("offset", range(BODY_LEN))
def test_patch_any_offset_with_backpatch_jump(offset):
    """A ``j done`` backpatched over any word of a warm fused block
    redirects the loop, matching fresh per-instruction decode."""
    results = []
    for superblocks in (True, False):
        machine = _warm_machine(superblocks)
        addr = machine.image.symbols["loop"] + 4 * offset
        done = machine.image.symbols["done"]
        machine.mem.write_word(addr, encode(Insn(Op.J, imm=done >> 2)))
        results.append((_finish(machine), _state(machine)))
    fused, per_insn = results
    assert fused == per_insn
    assert fused[0] == ("exit", 0)


def test_patch_kills_overlapping_blocks():
    machine = _warm_machine(True)
    stats = machine.cpu.sb_stats
    assert stats.fused_blocks >= 2
    addr = machine.image.symbols["loop"] + 4  # interior of both blocks
    machine.mem.write_word(addr, encode(Insn(Op.J, imm=addr >> 2)))
    # the word is covered by the main.. and the loop.. superblocks
    assert stats.invalidated_blocks >= 2
    assert stats.code_writes == 1


def test_sub_word_patch_invalidates():
    """A byte write into a fused block's interior re-decodes too."""
    results = []
    for superblocks in (True, False):
        machine = _warm_machine(superblocks)
        # low imm byte of the xori: 0x55 -> 0x66
        machine.mem.write_byte(machine.image.symbols["loop"] + 4 * 3,
                               0x66)
        results.append((_finish(machine), _state(machine)))
    assert results[0] == results[1]


def test_superblock_equivalence_on_workload():
    image = build_workload("sensor", 0.02)
    fused = Machine(image, MachineConfig(superblocks=True))
    plain = Machine(image, MachineConfig(superblocks=False))
    assert fused.run() == plain.run()
    assert fused.cpu.icount == plain.cpu.icount
    assert fused.cpu.cycles == plain.cpu.cycles
    assert fused.output == plain.output
    assert list(fused.cpu.regs) == list(plain.cpu.regs)
    stats = fused.cpu.sb_stats
    assert stats.fused_blocks > 0
    assert stats.mean_block_length >= 2.0
    assert plain.cpu.sb_stats.fused_blocks == 0


def test_softcache_superblocks_equivalent():
    image = build_workload("sensor", 0.02)
    reports = []
    for superblocks in (True, False):
        system = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=2048, debug_poison=True,
            superblocks=superblocks))
        report = system.run()
        reports.append((report.exit_code, report.instructions,
                        report.cycles, report.output))
    assert reports[0] == reports[1]


def test_cap_exact_per_instruction():
    machine = Machine(_IMAGE, MachineConfig(superblocks=False))
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=17)  # mid-iteration
    assert machine.cpu.icount == 17


def test_cap_exact_single_closure_blocks():
    """Unfusable code (a 1-instruction loop) stops exactly on the cap
    even with superblocks enabled."""
    machine = run_asm_capped(".global main\nmain: j main\n", 10_000)
    assert machine.cpu.icount == 10_000


def test_cap_block_granularity_when_fused():
    """With superblocks the cap is exact at block granularity: never
    more than one block beyond the limit, never under it."""
    machine = Machine(_IMAGE, MachineConfig(superblocks=True))
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=17)  # lands inside a block
    assert 17 <= machine.cpu.icount < 17 + FUSE_LIMIT


def test_cap_exact_traced():
    from array import array
    machine = Machine(_IMAGE)
    trace = array("I")
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run_traced(trace, max_instructions=17)
    assert machine.cpu.icount == 17
    assert len(trace) == 17


def run_asm_capped(source: str, cap: int) -> Machine:
    machine = Machine(assemble_and_link(source, "capped"))
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=cap)
    return machine


def test_lui_is_pure_constant_store():
    """LUI ignores its rs1 field entirely (it used to read it)."""
    source = """
    .global main
main:
    nop
    syscall writehex
    li a0, 0
    ret
"""
    for superblocks in (True, False):
        machine = Machine(assemble_and_link(source, "lui"),
                          MachineConfig(superblocks=superblocks))
        # rd=a0 with a junk rs1 field — legal encoding, must not matter
        machine.mem.write_word(machine.image.symbols["main"],
                               encode(Insn(Op.LUI, rd=4, rs1=9,
                                           imm=0x0BEE)))
        machine.run()
        assert machine.output_text == "0bee0000"


# -- tier 0: threaded per-instruction closures --------------------------

TIER0 = MachineConfig(superblocks=True, jit="off")


def test_tier0_fault_reports_faulting_word():
    """A load faulting at the third word of a tier-0 block leaves the
    pc on that word and the counts of exactly the three instructions
    that ran, as per-instruction dispatch does."""
    source = """
    .global main
main:
    li   t0, 5
    addi t1, t0, 2
    lw   t2, 0(zero)
    addi t3, t1, 1
    ret
"""
    image = assemble_and_link(source, "fault")
    main = image.symbols["main"]
    results = []
    for config in (TIER0, MachineConfig(superblocks=False)):
        machine = Machine(image, config)
        with pytest.raises(MemoryFault):
            machine.run()
        results.append((machine.cpu.pc, machine.cpu.icount,
                        machine.cpu.cycles, list(machine.cpu.regs)))
        if config is TIER0:
            infos = machine.cpu.superblock_info(main + 8)
            assert [(i["start"], i["tier"]) for i in infos] == \
                [(main, "tier0")]
            assert infos[0]["source"] is None
    tier0, per_insn = results
    assert tier0 == per_insn
    assert tier0[0] == main + 8


def test_store_inside_tier0_block_rewrites_later_word():
    """A store that rewrites a later word of its own tier-0 block
    takes effect in that same pass (the code-generation guard)."""
    patched = encode(Insn(Op.ADDI, rd=11, rs1=11, imm=40))  # t3 += 40
    source = f"""
    .global main
main:
    la   t1, patchme
    li   t2, {patched}
    sw   t2, 0(t1)
    addi t3, zero, 1
patchme:
    addi t3, t3, 2
    mv   a0, t3
    syscall putint
    li   a0, 0
    ret
"""
    image = assemble_and_link(source, "smc")
    results = []
    for config in (TIER0, MachineConfig(superblocks=False)):
        machine = Machine(image, config)
        assert machine.run() == 0
        results.append((machine.cpu.icount, machine.cpu.cycles,
                        machine.output_text))
        if config is TIER0:
            stats = machine.cpu.sb_stats
            assert stats.fused_blocks >= 1
            assert stats.invalidated_blocks >= 1
    assert results[0] == results[1]
    assert results[0][2] == "41"
