"""The op table: one statement of each fusable opcode's semantics.

``repro.sim.jit.OPS`` is the only place a fusable opcode's semantics
are written; the per-instruction closures and the JIT template are both
generated from it.  This file pins what the table generates:

* every opcode has exactly one closure source — its table row, or a
  hand-written closure for the four system ops that never fuse;
* the template text for a fixed corpus of block shapes hashes to the
  digest recorded for the current ``JIT_CODEGEN_VERSION``.  Compiled
  ``.sbc`` artifacts are keyed by that version, so a template edit
  without a version bump could bind stale code; here it fails instead.
  After a deliberate template change, bump the version and record the
  new digest.
"""

import hashlib

from repro.isa import BLOCK_TERMINATORS, SPECS, Fmt, Insn, Op
from repro.sim import JIT_CODEGEN_VERSION
from repro.sim import cpu as cpu_mod
from repro.sim.costs import DEFAULT_COSTS
from repro.sim.jit import OPS, jit_codegen

#: Codegen version -> sha256 of the corpus template text + fix-ups.
TEMPLATE_DIGESTS = {
    3: "cafed35bb2f7a6a7499e50362122102d12bf1395c3965cd2e1b35d053f92d0bd",
}

SYSTEM_OPS = frozenset({Op.TRAP, Op.SYSCALL, Op.BREAK, Op.HALT})
_TERMS = sorted(BLOCK_TERMINATORS - SYSTEM_OPS)
_STRAIGHT = [op for op in SPECS
             if op not in BLOCK_TERMINATORS and op not in SYSTEM_OPS]


def _sample(op, k, rd=None, rs=None):
    """A valid *op* instruction; *k* varies its registers and
    immediate, *rs* (if given) is every source register."""
    spec = SPECS[op]
    r = 10 + k % 6
    rd = r if rd is None else rd
    rs2 = r + 2 if rs is None else rs
    rs = r + 1 if rs is None else rs
    if spec.fmt is Fmt.R:
        return Insn(op, rd=rd, rs1=rs, rs2=rs2)
    if spec.fmt is Fmt.I:
        imm = -8 * (k % 4 + 1) if spec.signed_imm else 0x8001 + 37 * k
        return Insn(op, rd=rd, rs1=rs, imm=imm)
    if spec.fmt is Fmt.B:
        return Insn(op, rs1=rs, rs2=r, imm=-3)
    return Insn(op, imm=0x4000 + k)


def corpus():
    """``(body, terminator or None)`` shapes: every straight-line op
    with register sources, with constant sources (folded) and writing
    ``zero``, under every terminator and none; then every terminator
    after a one-op body, plus ``jalr`` linking ``zero`` and linking its
    own source register."""
    shapes = []
    ends = [*_TERMS, None]
    for k, op in enumerate(_STRAIGHT):
        body = [_sample(op, k), Insn(Op.LUI, rd=9, imm=0x1234 + k),
                _sample(op, k, rs=9), _sample(op, k, rd=0),
                _sample(Op.ADD, k, rd=9, rs=10 + k % 6)]
        end = ends[k % len(ends)]
        shapes.append((body, None if end is None else _sample(end, k)))
    for k, term in enumerate([*_TERMS, Insn(Op.JALR, rd=0, rs1=12),
                              Insn(Op.JALR, rd=12, rs1=12)]):
        if isinstance(term, Op):
            term = _sample(term, k)
        shapes.append(([_sample(Op.ADDI, k)], term))
    return shapes


def template_digest() -> str:
    digest = hashlib.sha256()
    for body, term in corpus():
        insns = [(4 * i, ins) for i, ins in enumerate(body)]
        end = None if term is None else (4 * len(body), term)
        _code, fixups, src = jit_codegen(DEFAULT_COSTS.op_cycles, insns,
                                         end)
        digest.update(src.encode())
        digest.update(repr(sorted(fixups.items())).encode())
    return digest.hexdigest()


def test_every_op_has_exactly_one_closure_source():
    assert set(OPS).isdisjoint(SYSTEM_OPS)
    assert set(OPS) | SYSTEM_OPS == set(SPECS)
    assert set(cpu_mod._FACTORIES) == set(SPECS)
    for op, factory in cpu_mod._FACTORIES.items():
        generated = factory.__code__.co_filename == f"<op {op.name}>"
        assert generated == (op in OPS), op


def test_corpus_covers_every_table_op_and_terminator():
    seen = {ins.op for body, term in corpus()
            for ins in body + ([term] if term else [])}
    assert set(OPS) <= seen
    assert any(term is None for _body, term in corpus())


def test_template_digest_pinned_to_codegen_version():
    assert JIT_CODEGEN_VERSION in TEMPLATE_DIGESTS, (
        "record the corpus digest for the new JIT_CODEGEN_VERSION")
    assert template_digest() == TEMPLATE_DIGESTS[JIT_CODEGEN_VERSION], (
        "the JIT template text changed: bump JIT_CODEGEN_VERSION and "
        "record the new digest")
