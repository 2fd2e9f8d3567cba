"""Introspection and validation tools for the SoftCache runtime.

* :func:`check_consistency` — audits the entire CC bookkeeping graph
  (blocks, links, stubs, continuation slots, redirectors) against the
  actual instruction words in the tcache.  Every pointer the cache
  state is encoded in is decoded and cross-checked.  The test suite
  runs this after exercising eviction/flush/pinning paths; it is also
  a debugging tool for anyone extending the controllers.
* :func:`architectural_state` — a digest of everything the *program*
  can observe (memory, registers, pc, exit code, output).  The fault
  layer's differential tests pin that any all-transient fault plan
  reaches the exact fault-free digest: faults may only cost time.
* :func:`dump_tcache` — human-readable listing of resident blocks
  with disassembly and link annotations.
* :func:`chunk_graph_dot` — Graphviz DOT export of the resident chunk
  graph (blocks as nodes, patched branch words as edges).
"""

from __future__ import annotations

import hashlib

from ..isa import (
    Op,
    Trap,
    branch_target,
    decode,
    disassemble_word,
    jump_target,
)
from .cc import BaseCacheController, BlockCacheController, ProcCacheController
from .records import SiteKind


class ConsistencyError(AssertionError):
    """The CC bookkeeping disagrees with the words in the tcache."""


def _site_target(cc: BaseCacheController, site_addr: int,
                 kind: SiteKind) -> int:
    """Decode where the patched word at *site_addr* points."""
    word = cc.mem.read_word(site_addr)
    ins = decode(word)
    if kind is SiteKind.BRANCH:
        if not ins.op.name.startswith("B"):
            raise ConsistencyError(
                f"link site {site_addr:#x} expected a branch, found "
                f"{disassemble_word(word)}")
        return branch_target(word, site_addr)
    if kind in (SiteKind.JUMP, SiteKind.CONTJ, SiteKind.LANDING):
        if ins.op is not Op.J:
            raise ConsistencyError(
                f"link site {site_addr:#x} expected j, found "
                f"{disassemble_word(word)}")
        return jump_target(word)
    if kind in (SiteKind.CALL, SiteKind.RCALL):
        if ins.op is not Op.JAL:
            raise ConsistencyError(
                f"link site {site_addr:#x} expected jal, found "
                f"{disassemble_word(word)}")
        return jump_target(word)
    raise ConsistencyError(f"unknown site kind {kind}")


def check_consistency(cc: BaseCacheController) -> int:
    """Audit the controller's bookkeeping; returns items checked.

    Raises :class:`ConsistencyError` on the first disagreement.
    """
    checked = 0
    tcache = cc.tcache
    resident = list(tcache.order) + list(tcache.pinned_blocks)

    # residency map <-> block lists
    for orig, block in tcache.map.items():
        if not block.alive:
            raise ConsistencyError(f"map holds dead block {orig:#x}")
        if block.orig != orig:
            raise ConsistencyError(
                f"map key {orig:#x} != block.orig {block.orig:#x}")
        if block not in resident:
            raise ConsistencyError(
                f"mapped block {orig:#x} not in residency lists")
        checked += 1

    for block in resident:
        # every resident block must be reachable from the link index
        if tcache.map.get(block.orig) is not block:
            raise ConsistencyError(
                f"resident block {block.orig:#x} unreachable from the "
                f"residency map")
        checked += 1
        # every incoming link's word must point into this block
        for link in block.incoming:
            target = _site_target(cc, link.site_addr, link.kind)
            if not block.contains(target):
                raise ConsistencyError(
                    f"incoming {link.kind.value} link at "
                    f"{link.site_addr:#x} points to {target:#x}, "
                    f"outside block [{block.addr:#x},{block.end:#x})")
            if link.src is not None and link not in link.src.outgoing:
                raise ConsistencyError(
                    f"incoming link at {link.site_addr:#x} missing "
                    f"from source block's outgoing list")
            checked += 1
        # every outgoing link must be registered at its destination
        for link in block.outgoing:
            if not block.contains(link.site_addr) and \
                    link.kind is not SiteKind.CONTJ:
                raise ConsistencyError(
                    f"outgoing link site {link.site_addr:#x} outside "
                    f"its source block")
            if not link.dst.alive:
                raise ConsistencyError(
                    f"outgoing link at {link.site_addr:#x} targets a "
                    f"dead block ({link.orig_target:#x})")
            if link not in link.dst.incoming:
                raise ConsistencyError(
                    f"outgoing link at {link.site_addr:#x} missing "
                    f"from destination's incoming list")
            checked += 1

    # degraded resident mode: a miss may only be parked while the
    # fault layer actually reports the link down
    pending = getattr(cc, "pending_misses", None)
    if pending and not getattr(cc.channel, "down", False):
        raise ConsistencyError(
            f"pending misses {[hex(a) for a in pending]} with the "
            f"link up")
    if pending is not None:
        checked += 1

    # live code update: the torn-version invariant.  The resident set
    # (pinned included) and the stub table must belong to exactly one
    # epoch — the one the controller observes — and a parked miss may
    # only be pending against an epoch its MC can still serve.  A
    # superblock is fused from tcache words of resident blocks, so a
    # single-epoch resident set also guarantees no superblock ever
    # fuses code from two epochs; the span check below enforces it
    # directly for every live decoded block.
    cc_epoch = getattr(cc, "_epoch", 0)
    epochs = {b.epoch for b in resident}
    if len(epochs) > 1:
        raise ConsistencyError(
            f"resident set mixes image epochs {sorted(epochs)}")
    if epochs and epochs != {cc_epoch}:
        raise ConsistencyError(
            f"resident blocks at epoch {epochs.pop()} but the "
            f"controller observes epoch {cc_epoch}")
    stub_table = getattr(cc, "stubs", None)
    if stub_table:
        bad = {s.epoch for s in stub_table.values()} - {cc_epoch}
        if bad:
            raise ConsistencyError(
                f"stubs at epochs {sorted(bad)} but the controller "
                f"observes epoch {cc_epoch}")
    servable = getattr(cc.mc, "epoch_servable", None)
    if servable is not None:
        miss_epochs = getattr(cc, "pending_miss_epochs", {})
        for orig in (pending or ()):
            epoch = miss_epochs.get(orig, cc_epoch)
            if not servable(epoch):
                raise ConsistencyError(
                    f"pending miss {orig:#x} parked against retired "
                    f"epoch {epoch}")
    span_map = getattr(cc.cpu, "_block_span", None)
    if span_map:
        in_range = tcache.in_tcache_range
        containing = tcache.block_containing
        for start, end in list(span_map.items()):
            if not in_range(start):
                continue
            first = containing(start)
            last = containing(end - 4)
            if first is not None and last is not None and \
                    first.epoch != last.epoch:
                raise ConsistencyError(
                    f"superblock [{start:#x},{end:#x}) fuses code "
                    f"from epochs {first.epoch} and {last.epoch}")
    checked += 1

    if isinstance(cc, BlockCacheController):
        checked += _check_block_cc(cc)
    elif isinstance(cc, ProcCacheController):
        checked += _check_proc_cc(cc)
    return checked


def architectural_state(system) -> str:
    """SHA-256 digest of the program-visible state of *system*.

    Covers every memory region's bytes, the register file, pc, the
    exit code and the console output — and deliberately nothing
    derived from timing (cycles, stats, link counters), since those
    are exactly what transient link faults are allowed to change.
    """
    h = hashlib.sha256()
    for region in system.machine.mem.regions:
        h.update(region.name.encode())
        h.update(bytes(region.buf))
    cpu = system.machine.cpu
    for value in cpu.regs:
        h.update(int(value).to_bytes(8, "little", signed=True))
    h.update(int(cpu.pc).to_bytes(8, "little", signed=True))
    exit_code = cpu.exit_code if cpu.exit_code is not None else -1
    h.update(int(exit_code).to_bytes(8, "little", signed=True))
    h.update(system.machine.output_text.encode())
    return h.hexdigest()


def observable_state(system) -> str:
    """SHA-256 digest of what the program (and its operator) can
    observe across a *live code update*: the text mirror, the
    data/bss/heap bytes, the exit code and the console output.

    :func:`architectural_state` additionally hashes local RAM, the
    stack, registers and pc — all of which legitimately differ between
    a client hot-patched mid-run and a clean run of the new image
    (different tcache placements, different return-address values).
    The update differential therefore pins this digest: a code update
    may only change *code*, never the data the program computed.
    """
    h = hashlib.sha256()
    for region in system.machine.mem.regions:
        if region.name in ("text", "data"):
            h.update(region.name.encode())
            h.update(bytes(region.buf))
    cpu = system.machine.cpu
    exit_code = cpu.exit_code if cpu.exit_code is not None else -1
    h.update(int(exit_code).to_bytes(8, "little", signed=True))
    h.update(system.machine.output_text.encode())
    return h.hexdigest()


def _check_block_cc(cc: BlockCacheController) -> int:
    checked = 0
    for stub_id, stub in cc.stubs.items():
        if not stub.live:
            raise ConsistencyError(f"dead stub {stub_id} in table")
        word = cc.mem.read_word(stub.addr)
        ins = decode(word)
        if ins.op is not Op.TRAP or ins.rd != Trap.MISS_BRANCH or \
                ins.imm != stub_id:
            raise ConsistencyError(
                f"stub {stub_id} word at {stub.addr:#x} is "
                f"{disassemble_word(word)}")
        # the site the stub serves must currently point at the stub
        if stub.src is None or stub.src.alive:
            target = _site_target(cc, stub.site_addr, stub.site_kind)
            if target != stub.addr:
                raise ConsistencyError(
                    f"site {stub.site_addr:#x} of stub {stub_id} "
                    f"points to {target:#x}, not the stub")
        checked += 1
    for slot_id, slot in cc.cont_slots.items():
        if not slot.live:
            raise ConsistencyError(f"dead cont slot {slot_id} in table")
        word = cc.mem.read_word(slot.addr)
        ins = decode(word)
        if slot.state == "trap":
            if ins.op is not Op.TRAP or ins.rd != Trap.MISS_RET or \
                    ins.imm != slot_id:
                raise ConsistencyError(
                    f"trap cont slot {slot_id} word is "
                    f"{disassemble_word(word)}")
        elif slot.state == "jump":
            if ins.op is not Op.J:
                raise ConsistencyError(
                    f"jump cont slot {slot_id} word is "
                    f"{disassemble_word(word)}")
        checked += 1
    for site_id, site in cc.jr_sites.items():
        if not site.live:
            raise ConsistencyError(f"dead jr site {site_id} in table")
        if site.block is not None and not site.block.alive:
            raise ConsistencyError(
                f"jr site {site_id} owned by a dead block")
        if site.cont_addr:
            # jalr: its trap word sits just before the continuation
            word = cc.mem.read_word(site.cont_addr - 4)
            ins = decode(word)
            if ins.op is not Op.TRAP or ins.rd != Trap.MISS_JR or \
                    ins.imm != site_id:
                raise ConsistencyError(
                    f"jalr site {site_id} word is "
                    f"{disassemble_word(word)}")
        checked += 1
    return checked


def _check_proc_cc(cc: ProcCacheController) -> int:
    checked = 0
    for rid, redir in cc.redirectors.items():
        entry = decode(cc.mem.read_word(redir.addr))
        landing = decode(cc.mem.read_word(redir.addr + 4))
        callee = cc.tcache.lookup(redir.callee_orig)
        if entry.op is Op.JAL:
            if callee is None or not callee.alive:
                raise ConsistencyError(
                    f"redirector {rid} entry jal targets absent "
                    f"callee {redir.callee_orig:#x}")
        elif not (entry.op is Op.TRAP and entry.rd == Trap.MISS_CALL
                  and entry.imm == rid):
            raise ConsistencyError(
                f"redirector {rid} entry word invalid")
        caller = cc.tcache.lookup(redir.caller_orig)
        if landing.op is Op.J:
            if caller is None or not caller.alive:
                raise ConsistencyError(
                    f"redirector {rid} landing targets absent caller")
        elif not (landing.op is Op.TRAP and landing.rd == Trap.RET_LAND
                  and landing.imm == rid):
            raise ConsistencyError(
                f"redirector {rid} landing word invalid")
        checked += 1
    return checked


def dump_tcache(cc: BaseCacheController) -> str:
    """Human-readable listing of the translation cache contents."""
    lines = []
    tcache = cc.tcache
    blocks = sorted(list(tcache.order) + list(tcache.pinned_blocks),
                    key=lambda b: b.addr)
    lines.append(f"tcache: {len(tcache.order)} blocks "
                 f"({tcache.used_bytes}/{tcache.geom.size} bytes), "
                 f"{len(tcache.pinned_blocks)} pinned")
    for block in blocks:
        tag = " [pinned]" if block.pinned else ""
        name = f" ({block.name})" if block.name else ""
        lines.append(f"\nblock @{block.addr:#x} <- orig "
                     f"{block.orig:#x}{name}{tag}, {block.size}B, "
                     f"{len(block.incoming)} in / "
                     f"{len(block.outgoing)} out")
        for pc in range(block.addr, block.end, 4):
            word = cc.mem.read_word(pc)
            try:
                text = disassemble_word(word, pc)
            except Exception:
                text = f".word {word:#010x}"
            lines.append(f"  {pc:#010x}: {text}")
    return "\n".join(lines)


def dump_superblock(cpu, pc: int) -> str:
    """Human-readable report on the superblock(s) covering *pc*: span,
    tier (jit / single), the guest disassembly and — for fused blocks —
    the generated Python source actually dispatched (``repro debug
    --dump-superblock``), headed by the exit address its ``T`` argument
    is bound to."""
    infos = cpu.superblock_info(pc)
    if not infos:
        return (f"no live superblock covers pc {pc:#x} "
                f"(not yet dispatched, invalidated, or not executable)")
    lines = []
    for info in infos:
        lines.append(f"superblock @{info['start']:#x}..{info['end']:#x} "
                     f"tier={info['tier']} "
                     f"instructions={info['instructions']}")
        words = info.get("words")
        if words:
            lines.append("  guest code:")
            for i, word in enumerate(words):
                addr = info["start"] + 4 * i
                try:
                    text = disassemble_word(word, addr)
                except Exception:
                    text = f".word {word:#010x}"
                lines.append(f"    {addr:#010x}: {text}")
        if info.get("source"):
            target = info.get("target")
            lines.append("  generated source:" + (
                f" T bound to exit {target:#x}" if target is not None
                else ""))
            lines.extend("    " + ln
                         for ln in info["source"].rstrip().splitlines())
        lines.append("")
    return "\n".join(lines).rstrip()


def chunk_graph_dot(cc: BaseCacheController) -> str:
    """Graphviz DOT of resident chunks and their patched edges."""
    lines = ["digraph tcache {", '  node [shape=box, fontsize=10];']
    blocks = list(cc.tcache.order) + list(cc.tcache.pinned_blocks)
    for block in blocks:
        label = block.name or f"{block.orig:#x}"
        style = ', style=filled, fillcolor="#ffe0a0"' if block.pinned \
            else ""
        lines.append(f'  b{block.addr} [label="{label}\\n'
                     f'{block.size}B"{style}];')
    for block in blocks:
        for link in block.outgoing:
            lines.append(f"  b{block.addr} -> b{link.dst.addr} "
                         f'[label="{link.kind.value}"];')
        for link in block.incoming:
            if link.src is None:
                lines.append(f'  ext{link.site_addr} [label="'
                             f'{link.kind.value}", shape=ellipse];')
                lines.append(f"  ext{link.site_addr} -> b{block.addr};")
    lines.append("}")
    return "\n".join(lines)
