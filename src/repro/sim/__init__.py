"""repro.sim — the embedded-client CPU simulator.

A closure-caching interpreter for the repro ISA (:mod:`repro.sim.cpu`),
region-based memory with executable permissions and code-write hooks
(:mod:`repro.sim.memory`), the centralized cost model
(:mod:`repro.sim.costs`) and the machine/syscall layer
(:mod:`repro.sim.machine`).
"""

from .costs import DEFAULT_COSTS, CostModel
from .cpu import CPU, FUSE_LIMIT, HaltExecution, SuperblockStats
from .jit import JIT_CODEGEN_VERSION, JitStats
from .errors import (
    BreakHit,
    CycleLimitExceeded,
    FetchFault,
    IllegalInstruction,
    MemoryFault,
    SimError,
)
from .machine import Machine, MachineConfig, run_native
from .memory import Memory, Region

__all__ = [
    "BreakHit", "CPU", "CostModel", "CycleLimitExceeded", "DEFAULT_COSTS",
    "FUSE_LIMIT", "FetchFault", "HaltExecution", "IllegalInstruction",
    "JIT_CODEGEN_VERSION", "JitStats",
    "Machine", "MachineConfig", "Memory", "MemoryFault", "Region",
    "SimError", "SuperblockStats", "run_native",
]
