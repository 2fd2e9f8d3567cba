"""Template-JIT: superblocks compiled to specialized Python source.

This module owns the interpreter's **op table** (:data:`OPS`): one row
per fusable opcode — everything but TRAP/SYSCALL/BREAK/HALT — stating
its semantics once as Python expression text over operand texts, the
registers it reads and writes, its immediate fold and, for loads and
stores, the access width and signedness (from
:class:`~repro.isa.InsnSpec`).  The template below and the
per-instruction closures of :mod:`repro.sim.cpu` are both generated
from it, as are the fuser's opcode classes, the live-in pre-scan and
constant folding, so the two execution paths cannot disagree about what
an opcode does.

The template is the interpreter's only superblock compiler: every
fused block binds its code at first dispatch
(:meth:`repro.sim.cpu.CPU._jit_for_key`).  It compiles a block with
every guest register the block touches promoted into a **Python local
variable**: registers read before being written are loaded once in a
prologue, intermediate values flow local-to-local, and modified
registers are spilled back to ``r[...]`` only at the block's exits
(terminator, fall-through, the self-modification side exit after a
store, and the fault fix-up path).
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
    MEMORY_OPS,
    SPECS,
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


# ---------------------------------------------------------------------------
# The op table: each fusable opcode's semantics, stated once.  The
# template below and the per-instruction closures of
# :mod:`repro.sim.cpu` are both generated from these rows.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpSem:
    """One op-table row.

    *expr* is Python expression text over operand placeholders:
    ``{a}`` and ``{b}`` are the registers named by *reads*, in order;
    ``{i}`` is the immediate after the *imm* fold, which is evaluated
    once per closure or per generated block; ``{v}`` is a load's raw
    value; ``{M}`` and ``{S}`` are the 32-bit mask and sign-bit
    literals.  A role is an :class:`~repro.isa.Insn` field name, or
    ``"ra"`` for the link register.  *expr* means, by *kind*:

    * ``alu``: the value written to *write*;
    * ``load``: the value written to *write*, from the *width*-byte
      ``{v}`` read at ``({a} + imm) & M`` (*signed*: sign-extended);
    * ``store``: the value written as *width* bytes at
      ``({a} + imm) & M``;
    * ``branch``: the condition; true exits to ``pc + T``, with ``T``
      the folded immediate (the taken offset), false falls through;
    * ``jump``: the exit pc; *write*, if any, receives ``pc + 4``.

    The template reads a branch's, ``J``'s and ``JAL``'s ``{i}`` from
    the per-block ``T`` argument (:func:`split_target`) instead.
    """

    kind: str
    expr: str
    reads: tuple[str, ...] = ()
    write: str | None = None
    imm: str = "{i}"
    width: int = 0
    signed: bool = False


def fill(text: str, a: str = "", b: str = "", i: object = "",
         v: str = "v") -> str:
    """Substitute operand texts into op-table *text*."""
    return text.format(a=a, b=b, i=i, v=v, M=_M, S=_S)


def _rr(expr: str) -> OpSem:
    return OpSem("alu", expr, ("rs1", "rs2"), "rd")


def _ri(expr: str, imm: str = "{i}") -> OpSem:
    return OpSem("alu", expr, ("rs1",), "rd", imm)


def _mem(op: Op) -> OpSem:
    spec = SPECS[op]
    if spec.writes_mem:
        return OpSem("store", "{b}", ("rs1", "rd"), width=spec.mem_width)
    bits = 8 * spec.mem_width
    expr = ("({v} - %d) & {M} if {v} & %d else {v}"
            % (1 << bits, 1 << (bits - 1)) if spec.mem_signed else "{v}")
    return OpSem("load", expr, ("rs1",), "rd", width=spec.mem_width,
                 signed=spec.mem_signed)


def _br(cond: str) -> OpSem:
    return OpSem("branch", cond, ("rs1", "rs2"), imm="4 + ({i} << 2)")


#: Opcode -> semantics for every opcode the fuser may place in a block
#: (all but TRAP/SYSCALL/BREAK/HALT).
OPS: dict[Op, OpSem] = {
    Op.ADD: _rr("({a} + {b}) & {M}"),
    Op.SUB: _rr("({a} - {b}) & {M}"),
    Op.AND: _rr("{a} & {b}"),
    Op.OR: _rr("{a} | {b}"),
    Op.XOR: _rr("{a} ^ {b}"),
    Op.NOR: _rr("~({a} | {b}) & {M}"),
    Op.SLT: _rr("1 if ({a} ^ {S}) < ({b} ^ {S}) else 0"),
    Op.SLTU: _rr("1 if {a} < {b} else 0"),
    Op.SLL: _rr("({a} << ({b} & 31)) & {M}"),
    Op.SRL: _rr("{a} >> ({b} & 31)"),
    Op.SRA: _rr("(sgn({a}) >> ({b} & 31)) & {M}"),
    Op.MUL: _rr("({a} * {b}) & {M}"),
    Op.DIV: _rr("sdiv({a}, {b})"),
    Op.REM: _rr("srem({a}, {b})"),
    Op.ADDI: _ri("({a} + ({i})) & {M}"),
    Op.ANDI: _ri("{a} & {i}"),
    Op.ORI: _ri("{a} | {i}"),
    Op.XORI: _ri("{a} ^ {i}"),
    Op.SLTI: _ri("1 if ({a} ^ {S}) < {i} else 0", "({i} & {M}) ^ {S}"),
    Op.SLTIU: _ri("1 if {a} < {i} else 0"),
    Op.SLLI: _ri("({a} << {i}) & {M}", "{i} & 31"),
    Op.SRLI: _ri("{a} >> {i}", "{i} & 31"),
    Op.SRAI: _ri("(sgn({a}) >> {i}) & {M}", "{i} & 31"),
    Op.LUI: OpSem("alu", "{i}", (), "rd", "({i} << 16) & {M}"),
    **{op: _mem(op) for op in sorted(MEMORY_OPS)},
    Op.BEQ: _br("{a} == {b}"),
    Op.BNE: _br("{a} != {b}"),
    Op.BLT: _br("({a} ^ {S}) < ({b} ^ {S})"),
    Op.BGE: _br("({a} ^ {S}) >= ({b} ^ {S})"),
    Op.BLTU: _br("{a} < {b}"),
    Op.BGEU: _br("{a} >= {b}"),
    Op.J: OpSem("jump", "{i}", imm="{i} << 2"),
    Op.JAL: OpSem("jump", "{i}", write="ra", imm="{i} << 2"),
    Op.JR: OpSem("jump", "{a}", ("rs1",)),
    Op.JALR: OpSem("jump", "{a}", ("rs1",), "rd"),
    Op.RET: OpSem("jump", "{a}", ("ra",)),
}

#: Straight-line instructions the fuser may place mid-block.
_SB_STRAIGHT_OPS = frozenset(
    op for op, sem in OPS.items() if sem.kind in ("alu", "load", "store"))

#: Control transfers the fuser may inline as a block terminator.
_SB_TERM_OPS = frozenset(OPS) - _SB_STRAIGHT_OPS

#: Stores: a fused block holding one re-checks the code generation.
_SB_STORES = frozenset(op for op, sem in OPS.items() if sem.kind == "store")

#: Opcode -> its immediate fold as a function, where not the identity.
_FOLDS = {op: eval("lambda i: " + fill(sem.imm, i="i"))
          for op, sem in OPS.items() if sem.imm != "{i}"}

#: Helpers op-table text may call, by the name the text uses.
_HELPER_FNS = {"sgn": to_signed32, "sdiv": _sdiv, "srem": _srem}

#: Access width -> (memory accessor name, fast-path view, view index,
#: alignment test, stored-value mask) for memory ops.
_WIDTHS = {
    4: ("word", "V", "(a - B) >> 2", " and not a & 3", ""),
    2: ("half", "H", "(a - B) >> 1", " and not a & 1", " & 65535"),
    1: ("byte", "BUF", "a - B", "", " & 255"),
}


def _reg(ins, role: str) -> int:
    """Register number that op-table *role* names in *ins*."""
    return RA if role == "ra" else getattr(ins, role)


@dataclass
class JitStats:
    """Counters for the template JIT (published as ``cpu.jit_*``).

    The warm-run contract lives here: a process that finds every
    artifact in the persistent store ends a run with
    ``jit_codegen == 0`` and ``jit_disk_hits > 0``.
    """

    #: JIT block functions bound for this CPU (per content key).
    jit_blocks: int = 0
    #: Instructions covered by those blocks.
    jit_instructions: int = 0
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
_CONST_ENV = {**_HELPER_FNS, "__builtins__": {}}

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
    written: set[int] = set()
    for _off, ins in insns if term is None else [*insns, term]:
        sem = OPS[ins.op]
        for role in sem.reads:
            reg = _reg(ins, role)
            if reg and reg not in written and reg not in live_in:
                live_in.append(reg)
        if sem.write:
            written.add(_reg(ins, sem.write))

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
        sem = OPS[op]
        tot_n += 1
        tot_c += costs[op]
        rd = ins.rd
        srcs = [_reg(ins, role) for role in sem.reads]
        if sem.kind == "alu":
            if rd == 0:
                continue  # cost counted; architecturally a nop
            fold = _FOLDS.get(op)
            expr = fill(sem.expr, *map(operand, srcs),
                        i=fold(ins.imm) if fold else ins.imm)
            if all(const_of(s) is not None for s in srcs):
                # every source is a known constant: evaluate the exact
                # expression the runtime would have executed
                loc[rd] = eval(expr, dict(_CONST_ENV))
            else:
                used.update(h for h in _HELPER_FNS if h in expr)
                body.append(f"x{rd} = {expr}")
                loc[rd] = f"x{rd}"
            dirty[rd] = None
            continue
        # fast path: one bound data region (B, E, views supplied at bind
        # time) served by a direct memoryview index; anything else —
        # other regions, misalignment, faults — falls back to the
        # accessor call, which is the only part that can raise
        name, view, index, align, vmask = _WIDTHS[sem.width]
        used.add(view)
        has_mem = True
        body.append(f"a = {addr_text(ins)}")
        if sem.kind == "load":
            reader = "r" + name[0]
            used.add(reader)
            fast = f"{view}[{index}] if B <= a < E{align} else {reader}(a)"
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            if rd == 0:
                # read for fault semantics, discard the value
                body.append(f"v = {fast}")
                continue
            if sem.signed:
                body.append(f"v = {fast}")
                fast = fill(sem.expr)
            body.append(f"x{rd} = {fast}")
            loc[rd] = f"x{rd}"
            dirty[rd] = None
        else:
            writer = "w" + name[0]
            used.add(writer)
            has_store = True
            val = fill(sem.expr, *map(operand, srcs))
            # the fast region is never executable, so an in-bounds store
            # cannot rewrite code and needs no self-modification check;
            # the slow path may have patched code (even this block):
            # spill the dirty registers, commit the executed prefix and
            # fall back to fresh dispatch so patched words take effect
            # exactly as they would under per-instruction decode
            body.append(
                f"if B <= a < E{align}: {view}[{index}] = {val}{vmask}")
            body.append("else:")
            mem_marks.append((len(body), off, tot_n, tot_c, snapshot()))
            body.append(f"    {writer}(a, {val})")
            spill = "".join(f"r[{r}] = {operand(r)}; " for r in dirty)
            body.append(f"    if cw[0] != g: {spill}st[0] += {tot_n}; "
                        f"st[1] += {tot_c}; return pc + {off + 4}")

    def spill_lines() -> list[str]:
        return [f"r[{r}] = {operand(r)}" for r in dirty]

    if term is not None:
        toff, tins = term
        sem = OPS[tins.op]
        tot_n += 1
        tot_c += costs[tins.op]
        body.append(f"st[0] += {tot_n}; st[1] += {tot_c}")
        body.extend(spill_lines())
        srcs = [operand(_reg(tins, role)) for role in sem.reads]
        exit_pc = fill(sem.expr, *srcs, i="T")
        fall = f"pc + {toff + 4}"
        link = _reg(tins, sem.write) if sem.write else 0
        if sem.kind == "branch":
            exit_pc = f"pc + T if {exit_pc} else {fall}"
        elif link and srcs:
            # read the exit register before the link write may clobber it
            body += [f"v = {exit_pc}", f"r[{link}] = {fall}"]
            exit_pc = "v"
        elif link:
            body.append(f"r[{link}] = {fall}")
        body.append(f"return {exit_pc}")
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
