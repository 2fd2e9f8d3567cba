"""Central cost model: cycles per instruction class, runtime overheads
and the CPU clock used to convert cycles to seconds.

The paper's measurements are wall-clock on a 200 MHz SA-110 (ARM
results, Figure 8) and on UltraSPARC workstations (Figure 5).  Our
substrate is an interpreter, so absolute times are synthetic; every
tunable lives here so experiments state their assumptions in one
place, and ratio-shaped results (relative execution time, evictions
per second) are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..isa import SPECS, Op


def _default_op_cycles() -> dict[Op, int]:
    cycles = {op: 1 for op in Op}
    cycles[Op.MUL] = 3
    cycles[Op.DIV] = 12
    cycles[Op.REM] = 12
    for op, spec in SPECS.items():
        if spec.reads_mem:
            cycles[op] = 2  # loads; stores stay at 1
    # Taken-or-not branches and jumps: single cycle (simple in-order
    # embedded core, no speculation — like the SA-110).
    return cycles


@dataclass(frozen=True)
class CostModel:
    """All timing assumptions of the simulated embedded client.

    ``*_cycles`` values are charged by the cache controller on top of
    the instructions actually interpreted; they model the runtime work
    (hash probes, stub bookkeeping, patching) that the real prototypes
    execute as native code.
    """

    #: CPU clock; 200 MHz matches the SA-110 on the Skiff boards.
    cpu_hz: float = 200e6

    #: Cycles per executed instruction, by opcode — except the system
    #: ops, whose closures ignore this table: TRAP, SYSCALL and HALT
    #: always charge 1 cycle, and BREAK, which stops the run, charges
    #: nothing.  Runtime work behind a trap is charged on top
    #: (``trap_overhead_cycles`` and the fields below).
    op_cycles: dict[Op, int] = field(default_factory=_default_op_cycles)

    #: CC entry/exit for any miss trap (register save/restore, dispatch).
    trap_overhead_cycles: int = 40

    #: Hash probe of the tcache map (per lookup; computed-jump fallback
    #: and miss-path lookups).
    map_lookup_cycles: int = 24

    #: Per translated instruction word: CC-side copy/patch cost.
    install_per_word_cycles: int = 4

    #: Fixed CC-side cost of installing one chunk (allocation, map
    #: insert, stub creation).
    install_fixed_cycles: int = 60

    #: Backpatching one branch/jump word after a miss resolves.
    patch_cycles: int = 12

    #: Evicting one block: unlink incoming pointers, scrub map entry.
    evict_per_block_cycles: int = 80

    #: Stack walk per frame examined at invalidation time.
    stack_walk_per_frame_cycles: int = 10

    #: MC-side processing per miss, *expressed in client cycles*.
    #: "could easily be reduced to near zero by more powerful MC
    #: systems" — so the default is small.
    mc_service_cycles: int = 100

    # -- software data cache (Section 3) --------------------------------

    #: Fast (predicted) dcache hit: Fig 10's inline sequence ~8 insns.
    dcache_hit_cycles: int = 8
    #: Slow hit: binary search of the sorted dcache, per probe step.
    dcache_slow_hit_per_step_cycles: int = 6
    #: scache presence check at procedure entry/exit.
    scache_check_cycles: int = 4
    #: Specialized (rewritten constant-address) access: one load.
    dcache_pinned_cycles: int = 2

    def cycles_to_seconds(self, cycles: int) -> float:
        """Convert a cycle count to seconds at the configured clock."""
        return cycles / self.cpu_hz

    def with_(self, **kw) -> "CostModel":
        """Return a copy with selected fields replaced."""
        return replace(self, **kw)


#: Default cost model used across tests and benchmarks.
DEFAULT_COSTS = CostModel()
