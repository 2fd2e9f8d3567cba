"""Template-JIT tier: equivalence, invalidation, promotion, persistence.

The JIT tier compiles fused superblocks to specialized Python source
(registers as locals, constants folded, batched cycle accounting).
Like tier 0 (threaded per-instruction closures) it must be
architecturally invisible — identical registers, output, instruction
and cycle counts to per-instruction dispatch — including under dynamic
rewriting: a patch overlapping a JIT'd block must drop it exactly like
a tier-0 block.  It is the only superblock compiler, and it runs only
for content that crossed the hotness threshold, once per block shape:
copies of a block whose exit targets differ share the compiled code.
Compiled artifacts persist in the trace cache, so a warm process binds
blocks with zero codegen.
"""

import contextlib
import json
import marshal
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble_and_link
from repro.isa import Insn, Op, encode, patch_branch_disp
from repro.isa.encoding import TARGET26_MAX
from repro.sim import (
    CPU,
    CycleLimitExceeded,
    JIT_CODEGEN_VERSION,
    Machine,
    MachineConfig,
    Memory,
    MemoryFault,
)
from repro.sim import cpu as cpu_mod
from repro.sim import jitcache
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload

MASK32 = 0xFFFFFFFF

# Same shape as the PR 1 overlap goldens (test_superblock.LOOP_SRC):
# the prologue falls through into ``loop``, so the body words are
# covered by two superblocks and a patch must kill both.
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

#: Configs whose architectural results must be indistinguishable.
_MODES = {
    "per_insn": MachineConfig(superblocks=False),
    "tier0": MachineConfig(superblocks=True, jit="off"),
    "jit_hot": MachineConfig(superblocks=True, jit="hot",
                             jit_threshold=2),
    "jit_all": MachineConfig(superblocks=True, jit="all"),
}


def _run_mode(image, config):
    machine = Machine(image, config)
    exit_code = machine.run()
    return (exit_code, machine.cpu.icount, machine.cpu.cycles,
            machine.output_text, list(machine.cpu.regs)), machine


# -- cycle-identity across tiers --------------------------------------


@pytest.mark.parametrize("mode", ["tier0", "jit_hot", "jit_all"])
def test_jit_equivalent_on_loop(mode):
    want, _ = _run_mode(_IMAGE, _MODES["per_insn"])
    got, machine = _run_mode(_IMAGE, _MODES[mode])
    assert got == want
    if mode != "tier0":
        assert machine.cpu.jit_stats.jit_blocks > 0


def test_jit_equivalent_on_workload():
    image = build_workload("sensor", 0.02)
    want, _ = _run_mode(image, _MODES["per_insn"])
    for mode in ("tier0", "jit_hot", "jit_all"):
        got, machine = _run_mode(image, _MODES[mode])
        assert got == want, mode
    js = machine.cpu.jit_stats  # jit_all: everything fused is JIT'd
    assert js.jit_blocks > 0
    assert js.jit_instructions > 0


def test_softcache_jit_equivalent():
    image = build_workload("sensor", 0.02)
    reports = []
    for jit in ("all", "off"):
        system = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=768, debug_poison=True, jit=jit))
        report = system.run()
        reports.append((report.exit_code, report.instructions,
                        report.cycles, report.output))
    assert reports[0] == reports[1]


# -- invalidation: SMC patches drop JIT'd blocks ----------------------


def _probe_warm_count() -> int:
    """Instructions until the third arrival at ``loop`` (a superblock
    boundary, so block dispatch stops exactly there too)."""
    machine = Machine(_IMAGE, MachineConfig(superblocks=False))
    loop = _IMAGE.symbols["loop"]
    visits = 0
    while True:
        if machine.cpu.pc == loop:
            visits += 1
            if visits == 3:
                return machine.cpu.icount
        machine.cpu.step()


WARM = _probe_warm_count()


def _warm_jit_machine() -> Machine:
    """Warm two loop trips so both overlapping blocks are JIT'd."""
    machine = Machine(_IMAGE, MachineConfig(superblocks=True,
                                            jit="all"))
    loop = _IMAGE.symbols["loop"]
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=WARM)
    assert machine.cpu.icount == WARM
    assert machine.cpu.pc == loop
    tiers = {info["tier"] for info in machine.cpu.superblock_info(
        loop + 4)}
    assert tiers == {"jit"}
    return machine


def _finish(machine):
    machine.cpu.run()
    return (machine.cpu.exit_code, machine.cpu.icount,
            machine.cpu.cycles, machine.output_text,
            list(machine.cpu.regs))


@pytest.mark.parametrize("offset", range(BODY_LEN))
def test_patch_any_offset_drops_jit_block(offset):
    """A ``j done`` backpatched over any body word of a warm JIT'd
    block redirects the loop exactly as fresh per-instruction decode
    — and the block is gone from the dispatch table."""
    machine = _warm_jit_machine()
    killed_before = machine.cpu.sb_stats.invalidated_blocks
    addr = _IMAGE.symbols["loop"] + 4 * offset
    done = _IMAGE.symbols["done"]
    machine.mem.write_word(addr, encode(Insn(Op.J, imm=done >> 2)))
    assert machine.cpu.sb_stats.invalidated_blocks > killed_before
    assert machine.cpu.superblock_info(addr) == []

    # replay the same patch at the same warm point per-instruction
    ref = Machine(_IMAGE, MachineConfig(superblocks=False))
    with pytest.raises(CycleLimitExceeded):
        ref.cpu.run(max_instructions=WARM)
    assert ref.cpu.pc == machine.cpu.pc
    ref.mem.write_word(addr, encode(Insn(Op.J, imm=done >> 2)))
    assert _finish(machine) == _finish(ref)


def test_store_inside_jit_block_takes_effect():
    """A JIT'd block whose own store rewrites its body side-exits and
    re-dispatches the patched words (the cw-generation guard)."""
    src = """
        .global main
    main:
        li   t0, 8
        la   t1, patchme
        lw   t2, 0(t1)
        sw   t2, 0(t1)
        addi t3, zero, 1
    patchme:
        addi t3, t3, 2
        mv   a0, t3
        syscall putint
        li   a0, 0
        ret
    """
    image = assemble_and_link(src)
    results = []
    for config in (MachineConfig(superblocks=True, jit="all"),
                   MachineConfig(superblocks=False)):
        machine = Machine(image, config)
        machine.run()
        results.append((machine.cpu.icount, machine.cpu.cycles,
                        machine.output_text))
    assert results[0] == results[1]


# -- hypothesis property: per-instruction ≡ tier 0 ≡ JIT --------------

_REGS = list(range(8, 24))

_ALU_R = [Op.ADD, Op.SUB, Op.AND, Op.OR, Op.XOR, Op.NOR, Op.SLT,
          Op.SLTU, Op.SLL, Op.SRL, Op.SRA, Op.MUL, Op.DIV, Op.REM]
_ALU_I = [Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU,
          Op.SLLI, Op.SRLI, Op.SRAI, Op.LUI]
#: register-immediate ops whose immediate encodes unsigned
_UNSIGNED_I = (Op.ANDI, Op.ORI, Op.XORI, Op.SLTIU, Op.SLLI, Op.SRLI,
               Op.SRAI, Op.LUI)

_HARNESS = """
    .global main
main:
    li a0, 0
    ret
"""

_SCRATCH = 0x0001_0000  # local RAM, executable in the test images


@st.composite
def programs(draw):
    """Random straight-line programs: ALU plus loads/stores into a
    data window, ending in HALT (unfusable, so the random body is
    exactly one superblock)."""
    seeds = {reg: draw(st.integers(0, MASK32)) for reg in _REGS}
    data = _SCRATCH + 0x800  # in-region scratch the stores may hit
    instructions = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.integers(0, 5))
        if kind <= 2:
            op = draw(st.sampled_from(_ALU_R))
            instructions.append(Insn(
                op, rd=draw(st.sampled_from(_REGS)),
                rs1=draw(st.sampled_from(_REGS)),
                rs2=draw(st.sampled_from(_REGS))))
        elif kind == 3:
            op = draw(st.sampled_from(_ALU_I))
            imm = (draw(st.integers(0, 0xFFFF)) if op in _UNSIGNED_I
                   else draw(st.integers(-32768, 32767)))
            instructions.append(Insn(
                op, rd=draw(st.sampled_from(_REGS)),
                rs1=draw(st.sampled_from(_REGS)), imm=imm))
        else:
            # aligned load/store relative to a constant base register
            base_reg = 8
            instructions.append(Insn(Op.LUI, rd=base_reg,
                                     imm=data >> 16))
            instructions.append(Insn(Op.ORI, rd=base_reg, rs1=base_reg,
                                     imm=data & 0xFFFF))
            off = draw(st.integers(0, 31))
            mem_op = draw(st.sampled_from(
                [Op.LW, Op.LH, Op.LHU, Op.LB, Op.LBU, Op.SW, Op.SH,
                 Op.SB]))
            width = {Op.LW: 4, Op.SW: 4, Op.LH: 2, Op.LHU: 2,
                     Op.SH: 2}.get(mem_op, 1)
            instructions.append(Insn(
                mem_op, rd=draw(st.sampled_from(_REGS)),
                rs1=base_reg, imm=off * width))
    return instructions, seeds


def _run_random(instructions, seeds, config):
    machine = Machine(assemble_and_link(_HARNESS), config)
    words = [encode(ins) for ins in instructions]
    words.append(encode(Insn(Op.HALT)))
    machine.mem.write_bytes(_SCRATCH, b"".join(
        w.to_bytes(4, "little") for w in words))
    cpu = machine.cpu
    for reg, value in seeds.items():
        cpu.set_reg(reg, value)
    cpu.pc = _SCRATCH
    cpu.run(max_instructions=1000)
    return (cpu.icount, cpu.cycles, list(cpu.regs),
            machine.mem.read_bytes(_SCRATCH + 0x800, 128))


@settings(max_examples=60, deadline=None)
@given(programs())
def test_jit_differential_random_programs(program):
    instructions, seeds = program
    ref = _run_random(instructions, seeds, _MODES["per_insn"])
    assert _run_random(instructions, seeds, _MODES["tier0"]) == ref
    assert _run_random(instructions, seeds, _MODES["jit_all"]) == ref


# -- shape keying: copies that differ only in their exit target -------

_TARGET_TERMS = [Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU,
                 Op.J, Op.JAL]
_UNMAPPED = 0x0A00_0000


@contextlib.contextmanager
def _fresh_jit_caches():
    """An empty in-process compiled cache and artifact store for the
    duration of one hypothesis example; yields the store directory."""
    saved = cpu_mod._SB_JIT_COMPILED
    cpu_mod._SB_JIT_COMPILED = {}
    try:
        with tempfile.TemporaryDirectory() as tmp:
            jitcache.set_artifact_dir(tmp)
            try:
                yield Path(tmp)
            finally:
                jitcache.set_artifact_dir(None)
    finally:
        cpu_mod._SB_JIT_COMPILED = saved


@st.composite
def target_variants(draw):
    """A random straight-line body of ALU ops and loads — sometimes
    with a load from unmapped memory mid-body — ending in a branch,
    ``J`` or ``JAL``, plus two distinct values of that terminator's
    target field."""
    seeds = {reg: draw(st.integers(0, MASK32) | st.sampled_from(
        [0, 1, MASK32])) for reg in _REGS}
    regs = st.sampled_from(_REGS)
    body = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 3))
        if kind <= 1:
            body.append(Insn(draw(st.sampled_from(_ALU_R)),
                             rd=draw(regs), rs1=draw(regs),
                             rs2=draw(regs)))
        elif kind == 2:
            op = draw(st.sampled_from(_ALU_I))
            imm = (draw(st.integers(0, 0xFFFF)) if op in _UNSIGNED_I
                   else draw(st.integers(-32768, 32767)))
            body.append(Insn(op, rd=draw(regs), rs1=draw(regs), imm=imm))
        else:
            data = _SCRATCH + 0x800
            body += [Insn(Op.LUI, rd=8, imm=data >> 16),
                     Insn(Op.ORI, rd=8, rs1=8, imm=data & 0xFFFF),
                     Insn(draw(st.sampled_from([Op.LW, Op.LH, Op.LBU])),
                          rd=draw(regs), rs1=8,
                          imm=4 * draw(st.integers(0, 31)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(body)))
        body[at:at] = [Insn(Op.LUI, rd=8, imm=_UNMAPPED >> 16),
                       Insn(Op.LW, rd=draw(regs), rs1=8)]
    op = draw(st.sampled_from(_TARGET_TERMS))
    if op in (Op.J, Op.JAL):
        field = st.integers(0, TARGET26_MAX)
        terms = [Insn(op, imm=t) for t in draw(st.lists(
            field, min_size=2, max_size=2, unique=True))]
    else:
        rs1, rs2 = draw(regs), draw(regs)
        terms = [Insn(op, rs1=rs1, rs2=rs2, imm=t) for t in draw(st.lists(
            st.integers(-32768, 32767), min_size=2, max_size=2,
            unique=True))]
    return body, terms, seeds


def _run_placed(words, site, seeds, config):
    """Run the block *words* placed at *site* for exactly its length;
    returns how it ended, the pc, registers and (instructions, cycles),
    plus the machine."""
    machine = Machine(assemble_and_link(_HARNESS), config)
    machine.mem.write_bytes(site, b"".join(
        w.to_bytes(4, "little") for w in words))
    cpu = machine.cpu
    for reg, value in seeds.items():
        cpu.set_reg(reg, value)
    cpu.pc = site
    try:
        cpu.run(max_instructions=len(words))
    except (CycleLimitExceeded, MemoryFault) as exc:
        ended = type(exc).__name__
    return (ended, cpu.pc, list(cpu.regs), cpu.icount, cpu.cycles), machine


@settings(max_examples=60, deadline=None)
@given(target_variants())
def test_target_variants_share_code_and_stay_exact(variant):
    """Two placements of one body whose terminators differ only in
    their target field compile once (one codegen, one artifact) and
    each bound copy exits exactly as per-instruction execution."""
    body, terms, seeds = variant
    sites = (_SCRATCH, _SCRATCH + 0x400)
    with _fresh_jit_caches() as store:
        codegen = 0
        for term, site in zip(terms, sites):
            words = [encode(ins) for ins in body + [term]]
            ref, _ = _run_placed(words, site, seeds, _MODES["per_insn"])
            got, machine = _run_placed(words, site, seeds,
                                       _MODES["jit_all"])
            assert got == ref
            assert machine.cpu.jit_stats.jit_blocks == 1
            codegen += machine.cpu.jit_stats.jit_codegen
        assert codegen == 1
        assert len(list(store.glob(
            f"{jitcache.ARTIFACT_PREFIX}*.sbc"))) == 1


@pytest.mark.parametrize("jit", ["all", "hot"])
def test_repatched_terminator_rebinds_without_codegen(jit):
    """Retargeting a warm JIT block's exit branch the way the cache
    controller backpatches it rebinds the block's compiled shape with
    the new target — no codegen, no tier-0 detour under ``jit="hot"``
    — and the run still matches per-instruction execution."""
    config = MachineConfig(superblocks=True, jit=jit, jit_threshold=1)
    loop = _IMAGE.symbols["loop"]
    site = loop + 4 * (BODY_LEN - 1)
    target = loop + 4

    def warm_and_patch(machine):
        with pytest.raises(CycleLimitExceeded):
            machine.cpu.run(max_instructions=WARM)
        word = machine.mem.read_word(site)
        machine.mem.write_word(site, patch_branch_disp(word, site, target))

    machine = Machine(_IMAGE, config)
    warm_and_patch(machine)
    js = machine.cpu.jit_stats
    codegen, promotions, blocks = (js.jit_codegen, js.jit_promotions,
                                   js.jit_blocks)
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=WARM + BODY_LEN)
    assert (js.jit_codegen, js.jit_promotions, js.jit_blocks) == \
        (codegen, promotions, blocks + 1)
    [info] = machine.cpu.superblock_info(loop)
    assert (info["tier"], info["target"]) == ("jit", target)

    ref = Machine(_IMAGE, MachineConfig(superblocks=False))
    warm_and_patch(ref)
    assert _finish(machine) == _finish(ref)


# -- tier 0 -> JIT promotion ------------------------------------------

# ``twin_a`` and ``twin_b`` hold the same words (the ret is
# pc-independent), so both pcs share one content key and its heat.
TWIN_SRC = """
    .global main
    .global twin_a
    .global twin_b
main:
    mv   s2, ra
    li   s0, 6
    li   s1, 0
outer:
    jal  twin_a
    jal  twin_b
    subi s0, s0, 1
    bne  s0, zero, outer
    mv   a0, s1
    syscall putint
    mv   ra, s2
    li   a0, 0
    ret
twin_a:
    addi s1, s1, 3
    xori s1, s1, 5
    ret
twin_b:
    addi s1, s1, 3
    xori s1, s1, 5
    ret
"""


@pytest.fixture
def fresh_jit_cache(monkeypatch, artifact_dir):
    """An empty in-process compiled cache and artifact store, so no
    earlier test's code binds at first dispatch."""
    monkeypatch.setattr(cpu_mod, "_SB_JIT_COMPILED", {})


def test_twin_pcs_share_one_promotion(fresh_jit_cache):
    """Two pcs holding the same words pool their heat; the key is
    promoted once, at the pc dispatching when the heat crosses the
    threshold, and the other pc swaps to the same JIT function at its
    own next dispatch."""
    image = assemble_and_link(TWIN_SRC, "twins")
    twins = (image.symbols["twin_a"], image.symbols["twin_b"])
    machine = Machine(image, MachineConfig(jit="hot", jit_threshold=4))
    promotions: list[tuple[int, int]] = []

    def hook(kind, pc, n):
        if kind == "jit_promote":
            promotions.append((pc, n))

    machine.cpu.trace_hook = hook
    got = (machine.run(), machine.cpu.icount, machine.cpu.cycles,
           machine.output_text)
    ref = Machine(image, MachineConfig(superblocks=False))
    assert got == (ref.run(), ref.cpu.icount, ref.cpu.cycles,
                   ref.output_text)

    # heat 1, 2, 3 alternate a/b/a; the 4th execution is twin_b's
    assert [p for p in promotions if p[0] in twins] == [(twins[1], 4)]
    infos = [machine.cpu.superblock_info(pc) for pc in twins]
    assert [[i["tier"] for i in info] for info in infos] == \
        [["jit"], ["jit"]]
    assert infos[0][0]["words"] == infos[1][0]["words"]
    js = machine.cpu.jit_stats
    assert js.jit_promotions == js.jit_blocks == len(promotions)


def test_second_machine_binds_compiled_code_at_first_dispatch(
        fresh_jit_cache):
    """Content compiled in this process binds at first dispatch on a
    new CPU: no codegen, no heat counting, no promotions."""
    image = build_workload("sensor", 0.02)
    first = Machine(image, MachineConfig(jit="hot"))
    first.run()
    assert first.cpu.jit_stats.jit_codegen > 0
    second = Machine(image, MachineConfig(jit="hot"))
    second.run()
    js = second.cpu.jit_stats
    assert js.jit_mem_hits > 0
    assert js.jit_codegen == 0
    assert js.jit_promotions == 0
    assert js.jit_blocks == first.cpu.jit_stats.jit_blocks
    assert (second.cpu.icount, second.cpu.cycles, second.output) == \
        (first.cpu.icount, first.cpu.cycles, first.output)


_ONE_COMPILER_SNIPPET = """
import builtins, json, sys
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload

system = SoftCacheSystem(build_workload("sensor", 0.02),
                         SoftCacheConfig(tcache_size=768))
calls = {"compile": [], "exec": []}
real = {"compile": builtins.compile, "exec": builtins.exec}

def recording(name):
    def call(*args, **kwargs):
        calls[name].append(sys._getframe(1).f_globals.get("__name__"))
        return real[name](*args, **kwargs)
    return call

builtins.compile, builtins.exec = recording("compile"), recording("exec")
try:
    exit_code = system.run().exit_code
finally:
    builtins.compile, builtins.exec = real["compile"], real["exec"]
js = system.machine.cpu.jit_stats
print(json.dumps({"calls": calls, "exit": exit_code,
                  "codegen": js.jit_codegen,
                  "promotions": js.jit_promotions,
                  "jit_blocks": js.jit_blocks}))
"""


def test_jit_is_the_only_compiler(tmp_path):
    """A cold thrashing run compiles only through the template JIT,
    at most once per codegen and only for promoted content — cold
    blocks never reach ``compile()`` — and every ``exec`` is the bind
    of one JIT block (re-patched copies of a compiled shape bind at
    first dispatch)."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path),
               PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, "-c", _ONE_COMPILER_SNIPPET],
                          env=env, capture_output=True, text=True,
                          check=True)
    got = json.loads(proc.stdout)
    assert got["exit"] == 0
    assert got["codegen"] > 0
    compiles, execs = got["calls"]["compile"], got["calls"]["exec"]
    assert set(compiles) == {"repro.sim.jit"}
    assert len(compiles) <= got["codegen"]
    assert set(execs) == {"repro.sim.cpu"}
    assert len(execs) == got["jit_blocks"]
    assert got["codegen"] <= got["promotions"]


# -- JIT settings are validated where they are given ------------------


@pytest.mark.parametrize("field, value", [
    ("jit", "bogus"), ("jit_threshold", 0), ("jit_threshold", -3),
    ("jit_threshold", 2.5)])
def test_invalid_jit_settings_rejected_at_construction(field, value):
    for build in (MachineConfig, SoftCacheConfig,
                  lambda **kw: CPU(Memory(), **kw)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build(**{field: value})


def test_admin_set_validates_jit_settings():
    system = SoftCacheSystem(build_workload("sensor", 0.02),
                             SoftCacheConfig(tcache_size=4096))
    cc, cpu = system.cc, system.machine.cpu
    with pytest.raises(ValueError, match="^jit must be"):
        cc.admin_set(jit="bogus")
    with pytest.raises(ValueError, match="^jit_threshold must be"):
        cc.admin_set(jit_threshold=0)
    assert (cpu.jit, cpu.jit_threshold) == ("hot", 16)
    assert cc.admin_set(jit="off", jit_threshold=3) == {
        "verb": "set", "jit": "off", "jit_threshold": 3}
    assert (cpu.jit, cpu.jit_threshold) == ("off", 3)


@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_cli_rejects_bad_jit_threshold(capsys, value):
    from repro.cli import main
    for argv in (["run", "sensor", "--jit-threshold", value],
                 ["admin", "set", "--jit-threshold", value]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jit-threshold" in capsys.readouterr().err


# -- persistent artifacts ---------------------------------------------


@pytest.fixture
def artifact_dir(tmp_path):
    jitcache.set_artifact_dir(tmp_path)
    try:
        yield tmp_path
    finally:
        jitcache.set_artifact_dir(None)


def test_jitcache_round_trip(artifact_dir):
    code = compile("def _sb(pc):\n    return pc + 4\n", "<t>", "exec")
    fixups = {5: (0, 1, 2, ((8, "x8"),))}
    digest = jitcache.artifact_key((1, 2), (0xDEAD, 0xBEEF))
    assert jitcache.store(digest, code, fixups, "src text")
    loaded = jitcache.load(digest)
    assert loaded is not None
    got_code, got_fixups, got_src = loaded
    assert got_fixups == fixups
    assert got_src == "src text"
    ns: dict = {}
    exec(got_code, ns)
    assert ns["_sb"](100) == 104


def test_jitcache_corrupt_file_is_a_miss(artifact_dir):
    digest = jitcache.artifact_key((1,), (1, 2, 3))
    jitcache.artifact_path(digest).write_bytes(b"not marshal data")
    assert jitcache.load(digest) is None


def test_jitcache_wrong_types_is_a_miss(artifact_dir, fresh_jit_cache):
    """A well-formed artifact whose code item is not a code object is
    a miss: the block recompiles and the store overwrites the file."""
    config = MachineConfig(superblocks=True, jit="all")
    want, first = _run_mode(_IMAGE, config)
    artifacts = list(artifact_dir.glob(f"{jitcache.ARTIFACT_PREFIX}*.sbc"))
    assert len(artifacts) == first.cpu.jit_stats.jit_codegen > 0
    bogus = marshal.dumps((1, {}, "x"))
    for path in artifacts:
        path.write_bytes(bogus)
        digest = path.name[len(jitcache.ARTIFACT_PREFIX):
                           -len(jitcache.ARTIFACT_SUFFIX)]
        assert jitcache.load(digest) is None
    cpu_mod._SB_JIT_COMPILED.clear()
    got, second = _run_mode(_IMAGE, config)
    assert got == want
    js = second.cpu.jit_stats
    assert (js.jit_disk_hits, js.jit_codegen, js.jit_disk_stores) == \
        (0, len(artifacts), len(artifacts))
    assert all(path.read_bytes() != bogus for path in artifacts)


def test_jitcache_key_depends_on_version_and_content():
    a = jitcache.artifact_key((1, 2), (10, 20))
    assert a == jitcache.artifact_key((1, 2), (10, 20))
    assert a != jitcache.artifact_key((1, 2), (10, 21))
    assert a != jitcache.artifact_key((1, 3), (10, 20))
    assert f"jit-v{JIT_CODEGEN_VERSION}-" in jitcache.artifact_path(
        a).name


def test_sweep_stale_versions(artifact_dir):
    stale = [
        artifact_dir / "jit-v0-cpython-311-deadbeef.sbc",
        artifact_dir / f"jit-v{JIT_CODEGEN_VERSION}-otherpy-aa.sbc",
    ]
    for path in stale:
        path.write_bytes(b"x")
    fresh = artifact_dir / f"{jitcache.ARTIFACT_PREFIX}bb.sbc"
    fresh.write_bytes(b"x")
    unrelated = artifact_dir / "trace-v2-cc.npz"
    unrelated.write_bytes(b"x")
    assert jitcache.sweep_stale(artifact_dir) == len(stale)
    assert fresh.exists() and unrelated.exists()
    assert not any(p.exists() for p in stale)


def test_eval_sweep_covers_jit_artifacts(tmp_path):
    from repro.eval.common import _CACHE_VERSION, \
        sweep_stale_cache_versions
    stale_jit = tmp_path / "jit-v0-cpython-311-dead.sbc"
    stale_trace = tmp_path / "trace-v1-beef.npz"
    keep_jit = tmp_path / f"{jitcache.ARTIFACT_PREFIX}aa.sbc"
    keep_trace = tmp_path / f"trace-v{_CACHE_VERSION}-bb.npz"
    for path in (stale_jit, stale_trace, keep_jit, keep_trace):
        path.write_bytes(b"x")
    assert sweep_stale_cache_versions(tmp_path) == 2
    assert keep_jit.exists() and keep_trace.exists()
    assert not stale_jit.exists() and not stale_trace.exists()


_WARM_SNIPPET = """
import json, sys
from repro.sim import Machine, MachineConfig
from repro.workloads import build_workload
machine = Machine(build_workload("sensor", 0.02),
                  MachineConfig(superblocks=True, jit="all"))
machine.run()
js = machine.cpu.jit_stats
print(json.dumps({"codegen": js.jit_codegen,
                  "disk_hits": js.jit_disk_hits,
                  "disk_stores": js.jit_disk_stores,
                  "blocks": js.jit_blocks,
                  "cycles": machine.cpu.cycles,
                  "icount": machine.cpu.icount}))
"""


def test_warm_process_skips_codegen(tmp_path):
    """The warm-run contract: a second process on the same workload
    loads every compiled artifact from the store and never runs
    codegen."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               REPRO_TRACE_CACHE=str(tmp_path),
               PYTHONPATH=str(src_dir))

    def run_once() -> dict:
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_SNIPPET], env=env,
            capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    cold = run_once()
    assert cold["codegen"] > 0
    assert cold["disk_stores"] == cold["codegen"]
    assert list(tmp_path.glob(f"{jitcache.ARTIFACT_PREFIX}*.sbc"))

    warm = run_once()
    assert warm["codegen"] == 0
    assert warm["disk_hits"] > 0
    assert warm["blocks"] == cold["blocks"]
    assert (warm["cycles"], warm["icount"]) == \
        (cold["cycles"], cold["icount"])


# -- observability ----------------------------------------------------


def test_dump_superblock_report():
    from repro.softcache.debug import dump_superblock
    machine = _warm_jit_machine()
    loop = _IMAGE.symbols["loop"]
    report = dump_superblock(machine.cpu, loop + 4)
    assert "tier=jit" in report
    assert "guest code:" in report
    assert f"generated source: T bound to exit {loop:#x}" in report
    assert "def _sb(" in report
    assert "return pc + T if" in report
    # both blocks covering the loop body exit to ``loop``
    assert [i["target"] for i in machine.cpu.superblock_info(loop + 4)] \
        == [loop, loop]
    targets = {e["start"]: e["target"]
               for e in machine.cpu.superblock_census()["hottest"]}
    assert targets[_IMAGE.symbols["main"]] == targets[loop] == loop
    miss = dump_superblock(machine.cpu, 0x0A00_0000)
    assert "no live superblock" in miss


def test_dump_and_census_report_tier0():
    """A cold block reports tier0 with no source: the dump shows only
    its guest code, and the census counts it under ``tier0``."""
    from repro.softcache.debug import dump_superblock
    machine = Machine(_IMAGE, MachineConfig(superblocks=True, jit="off"))
    with pytest.raises(CycleLimitExceeded):
        machine.cpu.run(max_instructions=WARM)
    loop = _IMAGE.symbols["loop"]
    assert {i["tier"] for i in machine.cpu.superblock_info(loop + 4)} \
        == {"tier0"}
    report = dump_superblock(machine.cpu, loop + 4)
    assert "tier=tier0" in report
    assert "guest code:" in report
    assert "generated source:" not in report
    census = machine.cpu.superblock_census()
    assert census["tiers"]["jit"] == 0
    assert census["tiers"]["tier0"] >= 2
    assert census["blocks"] == sum(census["tiers"].values())


def test_cli_dump_superblock(capsys):
    from repro.cli import main
    code = main(["debug", "sensor", "--scale", "0.02",
                 "--tcache", "4096", "--jit", "all",
                 "--dump-superblock", "0x10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "superblock" in out
