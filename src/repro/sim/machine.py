"""Machine: memory map construction, OS services, and native execution.

A :class:`Machine` wires an :class:`~repro.asm.image.Image` into a
:class:`~repro.sim.memory.Memory`, provides the syscall layer (exit,
console output, cycle counter, explicit code invalidation) and runs
programs either **natively** — fetching straight out of remote text,
the paper's "ideal" configuration of Figure 5 — or under a SoftCache,
in which case the SoftCache system builds the machine with remote text
non-executable and installs its trap hook.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from ..asm.image import Image
from ..isa import Sys
from ..layout import (
    LOCAL_BASE,
    LOCAL_MAX_SIZE,
    STACK_SIZE,
    STACK_TOP,
)
from .costs import DEFAULT_COSTS, CostModel
from .cpu import CPU, HaltExecution
from .errors import SimError
from .jit import validate_jit
from .memory import Memory, Region


@dataclass
class MachineConfig:
    """Construction parameters for a :class:`Machine`."""

    #: Size of the embedded client's local RAM in bytes.
    local_ram_size: int = 64 * 1024
    #: Map remote text executable (native mode) or not (SoftCache mode).
    text_executable: bool = True
    #: Stack region size.
    stack_size: int = STACK_SIZE
    #: Extra heap bytes mapped beyond the image's static data.
    heap_size: int = 256 * 1024
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: Fuse straight-line code into superblocks (host-side speed only;
    #: simulated instruction/cycle counts are identical either way).
    superblocks: bool = True
    #: Template-JIT tier: "off" (tier 0 only), "hot" (promote after
    #: jit_threshold executions) or "all" (compile every fused block
    #: eagerly).  Like superblocks, host speed only — cycle-identical
    #: by construction.
    jit: str = "hot"
    #: Executions of a superblock's content before JIT promotion.
    jit_threshold: int = 16

    def __post_init__(self):
        validate_jit(self.jit, self.jit_threshold)


class Machine:
    """One embedded client plus the memory image it runs."""

    def __init__(self, image: Image, config: MachineConfig | None = None):
        self.image = image
        self.config = config or MachineConfig()
        if self.config.local_ram_size > LOCAL_MAX_SIZE:
            raise ValueError("local RAM too large for the memory map")
        self.mem = Memory()
        self._build_memory()
        self.cpu = CPU(self.mem, self.config.costs,
                       superblocks=self.config.superblocks,
                       jit=self.config.jit,
                       jit_threshold=self.config.jit_threshold)
        self.cpu.pc = image.entry
        self.output = bytearray()
        #: Hook invoked by the INVALIDATE syscall: ``fn(addr, length)``.
        self.invalidate_hook = None
        #: Coherent string reader used by PUTS when a data cache holds
        #: dirty copies: ``fn(addr) -> str``.
        self.coherent_reader = None
        self.cpu.sys_hook = self._syscall

    # -- memory map -------------------------------------------------------

    def _build_memory(self) -> None:
        cfg = self.config
        image = self.image
        self.local = self.mem.map_region(Region(
            "local", LOCAL_BASE, cfg.local_ram_size, executable=True))
        text = bytearray(image.text)
        # text is writable so the explicit self-modifying-code contract
        # (§2.1: write, then INVALIDATE) can be exercised natively; the
        # decode cache invalidates through the code-write hooks.
        self.text = self.mem.map_region(Region(
            "text", image.text_base, len(text),
            executable=cfg.text_executable,
            writable=True, buf=text))
        data_size = len(image.data)
        bss_pad = image.bss_base - image.data_end
        total = data_size + bss_pad + image.bss_size + cfg.heap_size
        total = (total + 15) & ~15
        if total:
            buf = bytearray(total)
            buf[:data_size] = image.data
            self.data = self.mem.map_region(Region(
                "data", image.data_base, total, buf=buf))
        else:
            self.data = None
        self.stack = self.mem.map_region(Region(
            "stack", STACK_TOP - cfg.stack_size, cfg.stack_size))

    # -- syscalls -----------------------------------------------------------

    def _syscall(self, cpu: CPU, service: int, pc: int) -> int:
        regs = cpu.regs
        if service == Sys.EXIT:
            cpu.halt(regs[4])  # a0; raises HaltExecution
        elif service == Sys.PUTINT:
            value = regs[4]
            if value & 0x80000000:
                value -= 0x100000000
            self.output += str(value).encode()
        elif service == Sys.PUTCHAR:
            self.output.append(regs[4] & 0xFF)
        elif service == Sys.PUTS:
            if self.coherent_reader is not None:
                text = self.coherent_reader(regs[4])
            else:
                text = self.mem.read_cstring(regs[4])
            self.output += text.encode("latin-1")
        elif service == Sys.GETCYCLES:
            cpu.set_reg(4, cpu.cycles & 0xFFFFFFFF)
        elif service == Sys.INVALIDATE:
            if self.invalidate_hook is not None:
                self.invalidate_hook(regs[4], regs[5])
        elif service == Sys.WRITEHEX:
            self.output += f"{regs[4]:08x}".encode()
        else:
            raise SimError(f"unknown syscall {service} at pc={pc:#x}")
        return pc + 4

    # -- execution ------------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000_000) -> int:
        """Run to completion natively; returns the exit code."""
        return self.cpu.run(max_instructions)

    def run_traced(self, max_instructions: int = 2_000_000_000
                   ) -> tuple[int, array]:
        """Run natively collecting the full pc fetch trace."""
        trace = array("I")
        code = self.cpu.run_traced(trace, max_instructions)
        return code, trace

    # -- conveniences --------------------------------------------------------

    @property
    def output_text(self) -> str:
        return self.output.decode("latin-1")

    def snapshot_data(self) -> bytes:
        """Copy of the data region (for native-vs-cached equivalence)."""
        return bytes(self.data.buf) if self.data is not None else b""


def run_native(image: Image, config: MachineConfig | None = None,
               max_instructions: int = 2_000_000_000) -> Machine:
    """Run *image* natively to completion and return the machine."""
    machine = Machine(image, config)
    machine.run(max_instructions)
    return machine


__all__ = ["Machine", "MachineConfig", "run_native", "HaltExecution"]
