"""Template-JIT: superblocks compiled to specialized Python source.

This module is the interpreter's only superblock compiler.  Cold fused
blocks run at tier 0 (:meth:`repro.sim.cpu.CPU._tier0`: the block's
per-instruction closures called in turn, each reading and writing the
shared ``r[...]`` list); once a block's content is hot, the JIT
template compiles it with every guest register the block touches
promoted into a **Python local variable**: registers read before being
written are loaded once in a prologue, intermediate values flow
local-to-local, and modified registers are spilled back to ``r[...]``
only at the block's exits (terminator, fall-through, the
self-modification side exit after a store, and the fault fix-up path).
Constants are folded at generation time — ``LUI`` seeds a known
constant, and any ALU op whose sources are all known constants is
evaluated during codegen by ``eval``-ing the *same expression text*
that would otherwise be emitted, so folding can never diverge from the
runtime semantics.  Guards and side exits appear only where the
architecture demands them: at the branch terminator and at memory
operations (which may trap) — straight-line arithmetic runs unguarded
and the simulated (instruction, cycle) counters are accumulated as one
batched literal add per exit.

The generated function is *cycle-identical* to per-instruction
dispatch by construction: exit paths commit exactly the counts the
executed prefix would have produced, and a mid-block memory fault maps
the traceback line back to the faulting instruction, commits the
prefix counts, records the precise fault pc and spills the registers
that were architecturally written before the fault.

Artifacts are pure functions of (cost table, block **shape**): the
shape is the raw instruction words with the terminator's target field
cleared (:func:`split_target`), so every copy of a block that the
SoftCache backpatched or unlinked to a different target shares one
compiled artifact.  The target — the taken offset of a conditional
branch, the absolute address of ``J``/``JAL`` — is the generated
function's ``T`` default argument, bound per block at ``exec`` time.
:data:`JIT_CODEGEN_VERSION` participates in every cache key, in-process
and on disk (:mod:`repro.sim.jitcache`), so changing the template here
can never resurrect stale generated code.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import (
    Fmt,
    Op,
    branch_target,
    decode,
    jump_target,
    patch_branch_disp,
    patch_jump_target,
    to_signed32,
)
from ..isa.registers import RA

MASK32 = 0xFFFFFFFF
_SIGN_FLIP = 0x80000000

_M = "4294967295"       # MASK32 literal
_S = "2147483648"       # sign-flip literal

#: Bump on ANY change to the generated source or the fix-up table
#: layout: keys every in-memory and on-disk artifact cache.
#: v2: memory ops inline a bounds-checked fast path against one bound
#: data region (stack, typically) and only fall back to the accessor
#: call — and its self-modification guard — for addresses outside it.
#: v3: artifacts are keyed by shape; a branch, ``J`` or ``JAL`` exit
#: reads its target from the bound ``T`` argument instead of a literal
#: (v2 artifacts bake the target in and must never bind).
JIT_CODEGEN_VERSION = 3

#: Valid values of the ``jit`` knob (MachineConfig / SoftCacheConfig).
JIT_MODES = ("off", "hot", "all")


def validate_jit(jit, jit_threshold) -> None:
    """Raise :class:`ValueError` naming the field unless *jit* is one of
    :data:`JIT_MODES` and *jit_threshold* is an integer >= 1.

    The one check behind both configs, :class:`~repro.sim.cpu.CPU` and
    the ops plane's ``admin set``, so a bad setting fails where it is
    given instead of at the first CPU built from it.
    """
    if jit not in JIT_MODES:
        raise ValueError(f"jit must be one of {JIT_MODES}, got {jit!r}")
    if not isinstance(jit_threshold, int) or jit_threshold < 1:
        raise ValueError(
            f"jit_threshold must be an integer >= 1, got {jit_threshold!r}")


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        return MASK32  # divide by zero -> -1 (RISC-V convention)
    sa, sb = to_signed32(a), to_signed32(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & MASK32


def _srem(a: int, b: int) -> int:
    if b == 0:
        return a
    sa, sb = to_signed32(a), to_signed32(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & MASK32


_SB_ALU_R = {
    Op.ADD: lambda a, b: f"({a} + {b}) & {_M}",
    Op.SUB: lambda a, b: f"({a} - {b}) & {_M}",
    Op.AND: lambda a, b: f"{a} & {b}",
    Op.OR: lambda a, b: f"{a} | {b}",
    Op.XOR: lambda a, b: f"{a} ^ {b}",
    Op.NOR: lambda a, b: f"~({a} | {b}) & {_M}",
    Op.SLT: lambda a, b: f"1 if ({a} ^ {_S}) < ({b} ^ {_S}) else 0",
    Op.SLTU: lambda a, b: f"1 if {a} < {b} else 0",
    Op.SLL: lambda a, b: f"({a} << ({b} & 31)) & {_M}",
    Op.SRL: lambda a, b: f"{a} >> ({b} & 31)",
    Op.SRA: lambda a, b: f"(sgn({a}) >> ({b} & 31)) & {_M}",
    Op.MUL: lambda a, b: f"({a} * {b}) & {_M}",
    Op.DIV: lambda a, b: f"sdiv({a}, {b})",
    Op.REM: lambda a, b: f"srem({a}, {b})",
}

#: helper names each R-type op pulls into the generated function.
_SB_ALU_R_HELPERS = {Op.SRA: ("sgn",), Op.DIV: ("sdiv",),
                     Op.REM: ("srem",)}

#: op -> (reader binding name, sign bits or None)
_SB_LOADS = {
    Op.LW: ("rw", None),
    Op.LH: ("rh", 16),
    Op.LHU: ("rh", None),
    Op.LB: ("rb", 8),
    Op.LBU: ("rb", None),
}

_SB_STORES = {Op.SW: "ww", Op.SH: "wh", Op.SB: "wb"}

_SB_BRANCH_COND = {
    Op.BEQ: lambda a, b: f"{a} == {b}",
    Op.BNE: lambda a, b: f"{a} != {b}",
    Op.BLT: lambda a, b: f"({a} ^ {_S}) < ({b} ^ {_S})",
    Op.BGE: lambda a, b: f"({a} ^ {_S}) >= ({b} ^ {_S})",
    Op.BLTU: lambda a, b: f"{a} < {b}",
    Op.BGEU: lambda a, b: f"{a} >= {b}",
}

_SB_ALU_I_OPS = frozenset({
    Op.ADDI, Op.ANDI, Op.ORI, Op.XORI, Op.SLTI, Op.SLTIU, Op.SLLI,
    Op.SRLI, Op.SRAI, Op.LUI,
})

#: Straight-line instructions the fuser may place mid-block.
_SB_STRAIGHT_OPS = (frozenset(_SB_ALU_R) | _SB_ALU_I_OPS |
                    frozenset(_SB_LOADS) | frozenset(_SB_STORES))

#: Control transfers the fuser may inline as a block terminator.
_SB_TERM_OPS = (frozenset(_SB_BRANCH_COND) |
                frozenset({Op.J, Op.JAL, Op.JR, Op.JALR, Op.RET}))


def _sb_alu_i_expr(ins, a: str) -> str:
    """Expression for a register-immediate ALU op with source text *a*
    (a local or a folded literal); immediates are folded into the
    text."""
    op, imm = ins.op, ins.imm
    if op is Op.ADDI:
        return f"({a} + ({imm})) & {_M}"
    if op is Op.ANDI:
        return f"{a} & {imm}"
    if op is Op.ORI:
        return f"{a} | {imm}"
    if op is Op.XORI:
        return f"{a} ^ {imm}"
    if op is Op.SLTI:
        folded = ((imm & 0xFFFFFFFF) ^ _SIGN_FLIP)
        return f"1 if ({a} ^ {_S}) < {folded} else 0"
    if op is Op.SLTIU:
        return f"1 if {a} < {imm} else 0"
    if op is Op.SLLI:
        return f"({a} << {imm & 31}) & {_M}"
    if op is Op.SRLI:
        return f"{a} >> {imm & 31}"
    if op is Op.SRAI:
        return f"(sgn({a}) >> {imm & 31}) & {_M}"
    if op is Op.LUI:
        return str((imm << 16) & 0xFFFFFFFF)  # constant-folded
    raise AssertionError(op)  # pragma: no cover


@dataclass
class JitStats:
    """Counters for the template-JIT tier (published as ``cpu.jit_*``).

    The warm-run contract lives here: a process that finds every
    artifact in the persistent store ends a run with
    ``jit_codegen == 0`` and ``jit_disk_hits > 0``.
    """

    #: JIT-tier block functions bound for this CPU (per content key).
    jit_blocks: int = 0
    #: Instructions covered by those blocks.
    jit_instructions: int = 0
    #: Content keys promoted tier 0 -> JIT by heat (once per key; a
    #: key bound from already-compiled code at first dispatch is not a
    #: promotion).
    jit_promotions: int = 0
    #: Source generations actually executed (cold compiles).
    jit_codegen: int = 0
    #: Artifacts reused from the in-process compiled cache.
    jit_mem_hits: int = 0
    #: Artifacts loaded from the persistent store (warm processes).
    jit_disk_hits: int = 0
    #: Artifacts written to the persistent store.
    jit_disk_stores: int = 0


#: Environment for generation-time constant folding: the exact helper
#: objects the generated code would call at runtime.
_CONST_ENV = {"sgn": to_signed32, "sdiv": _sdiv, "srem": _srem,
              "__builtins__": {}}

#: Source text -> compiled code object (JIT template instances).
_JIT_CODE_CACHE: dict[str, object] = {}

#: Word -> decoded Insn.  Insn is frozen, decoding is pure, and real
#: programs use a few thousand distinct words, so one process-wide memo
#: makes repeated decode (tcache retranslation after eviction, the
#: shape split of every re-patched block) a dict hit.  Words that fail
#: to decode are not memoized.
_DECODE_MEMO: dict[int, object] = {}


def _decode_word(word: int):
    """Decode *word* once per process (raises as :func:`decode` does)."""
    ins = _DECODE_MEMO.get(word)
    if ins is None:
        ins = _DECODE_MEMO[word] = decode(word)
    return ins


def split_target(key: tuple[int, ...]) -> tuple[tuple[int, ...], int | None]:
    """Split a fused block's content key into ``(shape, target)``.

    The *shape* is *key* with the terminator's target field cleared —
    the field the SoftCache rewrites when it backpatches or unlinks an
    exit (:func:`~repro.isa.patch_branch_disp`,
    :func:`~repro.isa.patch_jump_target`) — and keys every compiled
    artifact.  The *target* is what :func:`jit_codegen` leaves to the
    bind as ``T``: the taken offset from the block entry for a
    conditional branch, the absolute address for ``J``/``JAL``, and
    None for ``JR``/``JALR``/``RET`` or a block with no terminator
    (whose shape is the key itself).
    """
    word = key[-1]
    fmt = _decode_word(word).fmt
    if fmt is Fmt.B:
        off = 4 * (len(key) - 1)
        return (key[:-1] + (patch_branch_disp(word, off, off + 4),),
                branch_target(word, off))
    if fmt is Fmt.J:
        return key[:-1] + (patch_jump_target(word, 0),), jump_target(word)
    return key, None


def jit_codegen(costs, insns, term):
    """Generate ``(code object, fault fix-ups, source)`` for one
    superblock shape in the register-as-locals template.

    *insns* is a list of ``(offset, Insn)`` with offsets relative to
    the block entry; *term* is ``(offset, Insn)`` for an optional fused
    control-transfer terminator, whose target field is ignored: a
    conditional branch exits to ``pc + T`` when taken and ``J``/``JAL``
    to ``T``, with ``T`` bound per block (:func:`split_target`).
    *costs* maps opcodes to cycle costs (baked into the batched stats
    literals).

    The fix-up table maps a source line number (of a memory operation)
    to ``(offset, instructions, cycles, writebacks)`` where
    *writebacks* is a tuple of ``(reg, local-name-or-constant)`` pairs
    for every register architecturally written before that point.
    """
    # -- pre-scan: registers read before written (block live-ins) -----
    live_in: list[int] = []
    _seen: set[int] = set()
    written: set[int] = set()

    def note_read(reg: int) -> None:
        if reg and reg not in written and reg not in _seen:
            _seen.add(reg)
            live_in.append(reg)

    def note_write(reg: int) -> None:
        if reg:
            written.add(reg)

    for _off, ins in insns:
        op = ins.op
        if op in _SB_ALU_R:
            note_read(ins.rs1)
            note_read(ins.rs2)
            note_write(ins.rd)
        elif op is Op.LUI:
            note_write(ins.rd)
        elif op in _SB_ALU_I_OPS:
            note_read(ins.rs1)
            note_write(ins.rd)
        elif op in _SB_LOADS:
            note_read(ins.rs1)
            note_write(ins.rd)
        elif op in _SB_STORES:
            note_read(ins.rs1)
            note_read(ins.rd)
        else:  # pragma: no cover - fuser admits only straight ops
            raise AssertionError(op)
    if term is not None:
        tins = term[1]
        top = tins.op
        if top in _SB_BRANCH_COND:
            note_read(tins.rs1)
            note_read(tins.rs2)
        elif top in (Op.JR, Op.JALR):
            note_read(tins.rs1)
        elif top is Op.RET:
            note_read(RA)

    # -- emission -----------------------------------------------------
    #: reg -> "x{reg}" (live local) or int (known constant).
    loc: dict[int, object] = {r: f"x{r}" for r in live_in}
    #: registers modified so far, in program order (spill set).
    dirty: dict[int, None] = {}
    body: list[str] = []
    used: set[str] = set()
    has_mem = False
    has_store = False
    tot_n = 0
    tot_c = 0
    #: (body index, offset, counts incl. the op, writebacks) per mem op.
    mem_marks: list[tuple[int, int, int, int, tuple]] = []

    def operand(reg: int) -> str:
        if reg == 0:
            return "0"
        v = loc[reg]
        return v if v.__class__ is str else str(v)

    def const_of(reg: int):
        if reg == 0:
            return 0
        v = loc.get(reg)
        return v if v.__class__ is int else None

    def snapshot() -> tuple:
        return tuple((r, loc[r]) for r in dirty)

    def addr_text(ins) -> str:
        base = const_of(ins.rs1)
        if base is not None:
            return str((base + ins.imm) & MASK32)
        return f"({operand(ins.rs1)} + ({ins.imm})) & {_M}"

    for off, ins in insns:
        op = ins.op
        tot_n += 1
        tot_c += costs[op]
        if op in _SB_LOADS:
            reader, sign_bits = _SB_LOADS[op]
            used.add(reader)
            has_mem = True
            rd = ins.rd
            body.append(f"a = {addr_text(ins)}")
            # fast path: one bound data region (B, E, views supplied at
            # bind time) served by a direct memoryview index; anything
            # else — other regions, misalignment, faults — falls back to
            # the accessor call, which is the only part that can raise
            if reader == "rw":
                used.add("V")
                fast = (f"V[(a - B) >> 2] "
                        f"if B <= a < E and not a & 3 else rw(a)")
            elif reader == "rh":
                used.add("H")
                fast = (f"H[(a - B) >> 1] "
                        f"if B <= a < E and not a & 1 else rh(a)")
            else:
                used.add("BUF")
                fast = f"BUF[a - B] if B <= a < E else rb(a)"
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            if rd == 0:
                # read for fault semantics, discard the value
                body.append(f"v = {fast}")
                continue
            if sign_bits is None:
                body.append(f"x{rd} = {fast}")
            else:
                flip = 1 << (sign_bits - 1)
                wrap = 1 << sign_bits
                body.append(f"v = {fast}")
                body.append(
                    f"x{rd} = (v - {wrap}) & {_M} if v & {flip} else v")
            loc[rd] = f"x{rd}"
            dirty[rd] = None
        elif op in _SB_STORES:
            writer = _SB_STORES[op]
            used.add(writer)
            has_mem = True
            has_store = True
            val = operand(ins.rd)
            body.append(f"a = {addr_text(ins)}")
            # the fast region is never executable, so an in-bounds store
            # cannot rewrite code and needs no self-modification check;
            # the slow path may have patched code (even this block):
            # spill the dirty registers, commit the executed prefix and
            # fall back to fresh dispatch so patched words take effect
            # exactly as they would under per-instruction decode
            if writer == "ww":
                used.add("V")
                body.append(f"if B <= a < E and not a & 3: "
                            f"V[(a - B) >> 2] = {val}")
            elif writer == "wh":
                used.add("H")
                body.append(f"if B <= a < E and not a & 1: "
                            f"H[(a - B) >> 1] = {val} & 65535")
            else:
                used.add("BUF")
                body.append(f"if B <= a < E: BUF[a - B] = {val} & 255")
            body.append("else:")
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            body.append(f"    {writer}(a, {val})")
            spill = "".join(f"r[{r}] = {operand(r)}; " for r in dirty)
            body.append(f"    if cw[0] != g: {spill}st[0] += {tot_n}; "
                        f"st[1] += {tot_c}; return pc + {off + 4}")
        else:
            rd = ins.rd
            if op in _SB_ALU_R:
                srcs = (ins.rs1, ins.rs2)
                expr = _SB_ALU_R[op](operand(ins.rs1), operand(ins.rs2))
                helpers = _SB_ALU_R_HELPERS.get(op, ())
            elif op is Op.LUI:
                srcs = ()
                expr = str((ins.imm << 16) & MASK32)
                helpers = ()
            else:
                srcs = (ins.rs1,)
                expr = _sb_alu_i_expr(ins, operand(ins.rs1))
                helpers = ("sgn",) if op is Op.SRAI else ()
            if rd == 0:
                continue  # cost counted; architecturally a nop
            if all(const_of(s) is not None for s in srcs):
                # every source is a known constant: evaluate the exact
                # expression the runtime would have executed
                loc[rd] = eval(expr, dict(_CONST_ENV))
            else:
                used.update(helpers)
                body.append(f"x{rd} = {expr}")
                loc[rd] = f"x{rd}"
            dirty[rd] = None

    def spill_lines() -> list[str]:
        return [f"r[{r}] = {operand(r)}" for r in dirty]

    if term is not None:
        toff, tins = term
        top = tins.op
        tot_n += 1
        tot_c += costs[top]
        body.append(f"st[0] += {tot_n}; st[1] += {tot_c}")
        body.extend(spill_lines())
        if top in _SB_BRANCH_COND:
            cond = _SB_BRANCH_COND[top](operand(tins.rs1),
                                        operand(tins.rs2))
            body.append(f"return pc + T if {cond} else pc + {toff + 4}")
        elif top is Op.J:
            body.append("return T")
        elif top is Op.JAL:
            body.append(f"r[{RA}] = pc + {toff + 4}")
            body.append("return T")
        elif top is Op.JR:
            body.append(f"return {operand(tins.rs1)}")
        elif top is Op.JALR:
            if tins.rd:
                body.append(f"v = {operand(tins.rs1)}")
                body.append(f"r[{tins.rd}] = pc + {toff + 4}")
                body.append("return v")
            else:
                body.append(f"return {operand(tins.rs1)}")
        elif top is Op.RET:
            body.append(f"return {operand(RA)}")
        else:  # pragma: no cover - terminator set is closed
            raise AssertionError(top)
    else:
        body.append(f"st[0] += {tot_n}; st[1] += {tot_c}")
        body.extend(spill_lines())
        body.append(f"return pc + {insns[-1][0] + 4}")

    params = ["pc", "r=_r", "st=_st"]
    if term is not None and term[1].fmt in (Fmt.B, Fmt.J):
        params.append("T=_T")
    if has_store:
        params.append("cw=_cw")
    if has_mem:
        params.append("C=_C")
        params.append("F=_F")
        params.append("B=_fB")
        params.append("E=_fE")
    for name in ("rw", "rh", "rb", "ww", "wh", "wb",
                 "sgn", "sdiv", "srem"):
        if name in used:
            params.append(f"{name}=_{name}")
    for name in ("V", "H", "BUF"):
        if name in used:
            params.append(f"{name}=_f{name}")

    lines = [f"def _sb({', '.join(params)}):"]
    n_prologue = 0
    if live_in:
        lines.append("    " + "; ".join(f"x{r} = r[{r}]"
                                        for r in live_in))
        n_prologue = 1
    fixups: dict[int, tuple] = {}
    if has_mem:
        if has_store:
            lines.append("    g = cw[0]")
        lines.append("    try:")
        lines.extend("        " + stmt for stmt in body)
        lines.append("    except Exception as e:")
        lines.append("        f = F.get(e.__traceback__.tb_lineno)")
        lines.append("        if f is not None:")
        lines.append("            st[0] += f[1]; st[1] += f[2]")
        lines.append("            C._fault_pc = pc + f[0]")
        lines.append("            if f[3]:")
        lines.append("                L = locals()")
        lines.append("                for _rg, _v in f[3]:")
        lines.append("                    r[_rg] = L[_v] "
                     "if _v.__class__ is str else _v")
        lines.append("        raise")
        # body line i sits at source line i + base (def line, optional
        # prologue, optional generation snapshot, try:, 1-based)
        base = 3 + n_prologue + (1 if has_store else 0)
        fixups = {i + base: (off, n, c, wb)
                  for i, off, n, c, wb in mem_marks}
    else:
        lines.extend("    " + stmt for stmt in body)
    src = "\n".join(lines) + "\n"

    code = _JIT_CODE_CACHE.get(src)
    if code is None:
        code = compile(src, "<superblock-jit>", "exec")
        _JIT_CODE_CACHE[src] = code
    return code, fixups, src
