"""MC-side chunkers: exit descriptors and rewriting correctness."""

import pytest

from repro.asm import assemble_and_link
from repro.isa import Op, Trap, decode
from repro.softcache import (
    BasicBlockChunker,
    ChunkError,
    EBBChunker,
    ExitKind,
    ProcedureChunker,
)

SRC = """
    .global main
    .proc main
main:
    li   t0, 5
    .global loop
loop:
    addi t0, t0, -1
    bnez t0, loop
    .global callsite
callsite:
    jal  helper
    li   a0, 0
    ret
    .global helper
    .proc helper
helper:
    li   a0, 1
    ret
    .global computed
    .proc computed
computed:
    jr   t5
"""


@pytest.fixture(scope="module")
def image():
    return assemble_and_link(SRC)


def test_block_chunk_branch_grows_one_word(image):
    chunker = BasicBlockChunker(image)
    loop = image.symbols["loop"]
    chunk = chunker.chunk_at(loop)
    # addi + bnez -> addi + branch-placeholder + appended jump
    assert len(chunk.words) == 3
    assert chunk.extra_words == 1
    kinds = [e.kind for e in chunk.exits]
    assert kinds == [ExitKind.TAKEN, ExitKind.JUMP]
    assert chunk.exits[0].target == loop
    assert chunk.exits[1].target == loop + 8


def test_block_chunk_call_has_cont_slot(image):
    chunker = BasicBlockChunker(image)
    call_addr = image.symbols["callsite"]
    chunk = chunker.chunk_at(call_addr)
    kinds = [e.kind for e in chunk.exits]
    assert kinds == [ExitKind.CALL, ExitKind.CONT]
    assert chunk.exits[0].target == image.symbols["helper"]
    # continuation slot word is a MISS_RET trap placeholder
    trap = decode(chunk.words[chunk.exits[1].index])
    assert trap.op is Op.TRAP and trap.rd == Trap.MISS_RET


def test_block_chunk_ret_verbatim(image):
    chunker = BasicBlockChunker(image)
    chunk = chunker.chunk_at(image.symbols["helper"])
    assert decode(chunk.words[-1]).op is Op.RET
    assert chunk.exits == ()
    assert chunk.extra_words == 0


def test_block_chunk_jr_becomes_trap(image):
    chunker = BasicBlockChunker(image)
    chunk = chunker.chunk_at(image.symbols["computed"])
    assert [e.kind for e in chunk.exits] == [ExitKind.JR]
    assert chunk.exits[0].rs1 == 13  # t5
    assert decode(chunk.words[-1]).op is Op.TRAP


def test_block_chunk_body_verbatim(image):
    chunker = BasicBlockChunker(image)
    chunk = chunker.chunk_at(image.symbols["main"])
    # li t0, 5 is copied unchanged
    assert chunk.words[0] == image.word_at(image.symbols["main"])


def test_block_chunk_outside_text(image):
    with pytest.raises(ChunkError):
        BasicBlockChunker(image).chunk_at(0x1234)


def test_ebb_glues_fallthrough(image):
    chunker = EBBChunker(image, limit=8)
    chunk = chunker.chunk_at(image.symbols["main"])
    # main head + loop + call block glued; branch has no appended jump,
    # the call continuation is inline
    kinds = [e.kind for e in chunk.exits]
    assert ExitKind.TAKEN in kinds
    assert ExitKind.CALL in kinds
    assert ExitKind.CONT_INLINE in kinds
    assert ExitKind.JUMP not in kinds
    assert chunk.extra_words == 0
    # ends at the ret of the glued call-continuation block
    assert decode(chunk.words[-1]).op is Op.RET


def test_ebb_chunk_limit_emits_continue_jump(image):
    chunker = EBBChunker(image, limit=1)
    chunk = chunker.chunk_at(image.symbols["loop"])
    # one block then forced continuation jump
    kinds = [e.kind for e in chunk.exits]
    assert kinds == [ExitKind.TAKEN, ExitKind.JUMP]
    assert chunk.extra_words == 1


def test_proc_chunker_whole_procedure(image):
    chunker = ProcedureChunker(image)
    chunk = chunker.chunk_at(image.symbols["main"])
    assert chunk.name == "main"
    assert chunk.size == image.proc_named("main").size
    kinds = [e.kind for e in chunk.exits]
    assert ExitKind.CALLSITE in kinds
    callsite = next(e for e in chunk.exits
                    if e.kind is ExitKind.CALLSITE)
    assert callsite.target == image.symbols["helper"]
    assert callsite.ret_offset == callsite.index * 4 + 4


def test_proc_chunker_rejects_mid_entry(image):
    with pytest.raises(ChunkError, match="entry"):
        ProcedureChunker(image).chunk_at(image.symbols["main"] + 4)


def test_proc_chunker_rejects_indirect(image):
    with pytest.raises(ChunkError, match="indirect"):
        ProcedureChunker(image).chunk_at(image.symbols["computed"])


def test_proc_chunker_rejects_cross_proc_jump():
    image = assemble_and_link("""
    .global main
    .proc main
main:
    j helper
    ret
    .global helper
    .proc helper
helper:
    ret
""")
    with pytest.raises(ChunkError, match="leaves the"):
        ProcedureChunker(image).chunk_at(image.symbols["main"])


def test_proc_internal_jump_fixup():
    image = assemble_and_link("""
    .global main
    .proc main
main:
    j   inner
    nop
inner:
    ret
""")
    chunk = ProcedureChunker(image).chunk_at(image.symbols["main"])
    internal = [e for e in chunk.exits if e.kind is ExitKind.INTERNAL]
    assert len(internal) == 1
    assert internal[0].target == 8  # offset of 'inner' within the proc


def test_payload_bytes_accounts_exits(image):
    chunk = BasicBlockChunker(image).chunk_at(image.symbols["loop"])
    assert chunk.payload_bytes == chunk.size + 4 * len(chunk.exits)
