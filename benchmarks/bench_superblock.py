"""Interpreter dispatch tiers: per-instruction vs JIT.

Same simulated program, same architectural results — the only thing
measured here is host-side interpreter speed per tier and what the
fuser/JIT did: how much of the dynamic instruction stream runs inside
fused blocks, each of which binds generated-source JIT code at its
first dispatch.

Two entry points:

* under pytest-benchmark (CI bench-smoke), ``test_dispatch_throughput``
  times each tier per workload;
* standalone, ``python benchmarks/bench_superblock.py`` writes
  ``BENCH_jit.json`` with per-tier wall times, simulated-instruction
  throughput and the JIT counters (bound blocks, codegen vs cache hits),
  asserting cycle-identity across tiers as it goes.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from repro.sim import Machine, MachineConfig  # noqa: E402
from repro.workloads import build_workload  # noqa: E402

#: sensor (the throughput reference) plus a loop-heavy DSP kernel.
WORKLOADS = {"sensor": 0.05, "adpcm_enc": 0.05}

#: tier name -> MachineConfig kwargs.
TIERS = {
    "per_insn": {"superblocks": False},
    "jit": {"superblocks": True},
}


@pytest.mark.parametrize("tier", list(TIERS))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_dispatch_throughput(benchmark, name, tier):
    image = build_workload(name, WORKLOADS[name])
    kwargs = TIERS[tier]

    def run():
        machine = Machine(image, MachineConfig(**kwargs))
        machine.run()
        return machine

    machine = benchmark(run)
    rate = machine.cpu.icount / benchmark.stats["mean"]
    print(f"\n{name} [{tier}]: {rate / 1e6:.2f} M simulated instr/s")


def test_fusion_stats():
    from conftest import save_result
    lines = []
    for name, scale in WORKLOADS.items():
        machine = Machine(build_workload(name, scale),
                          MachineConfig(**TIERS["jit"]))
        machine.run()
        stats = machine.cpu.sb_stats
        jstats = machine.cpu.jit_stats
        assert stats.fused_blocks > 0, name
        assert stats.mean_block_length >= 2.0, name
        assert jstats.jit_blocks > 0, name
        lines.append(
            f"  {name}: {stats.fused_blocks} fused blocks, "
            f"{stats.fused_instructions} fused instructions "
            f"(mean {stats.mean_block_length:.1f}/block), "
            f"{stats.single_closures} single closures, "
            f"{jstats.jit_blocks} JIT blocks covering "
            f"{jstats.jit_instructions} instructions")
    save_result("superblock_fusion",
                "Superblock fusion statistics:\n" + "\n".join(lines))


# -- standalone mode: BENCH_jit.json ----------------------------------


def _timed_tier(image, kwargs: dict, repeat: int) -> dict:
    """Best/median wall clock for one tier (one untimed warm-up)."""
    Machine(image, MachineConfig(**kwargs)).run()  # warm-up, untimed
    walls = []
    machine = None
    for _ in range(repeat):
        machine = Machine(image, MachineConfig(**kwargs))
        t0 = time.perf_counter()
        machine.run()
        walls.append(time.perf_counter() - t0)
    cpu = machine.cpu
    js = cpu.jit_stats
    return {
        "wall_s_best": min(walls),
        "wall_s_p50": statistics.median(walls),
        "wall_s_mean": sum(walls) / len(walls),
        "instructions": cpu.icount,
        "cycles": cpu.cycles,
        "m_instr_per_s": cpu.icount / min(walls) / 1e6,
        "jit": {
            "blocks": js.jit_blocks,
            "instructions": js.jit_instructions,
            "codegen": js.jit_codegen,
            "mem_hits": js.jit_mem_hits,
            "disk_hits": js.jit_disk_hits,
            "disk_stores": js.jit_disk_stores,
        },
    }


def run_benchmarks(repeat: int = 3) -> dict:
    results: dict = {
        "schema": "BENCH_jit/2",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for name, scale in WORKLOADS.items():
        image = build_workload(name, scale)
        tiers = {}
        baseline = None
        for tier, kwargs in TIERS.items():
            row = _timed_tier(image, kwargs, repeat)
            sig = (row["instructions"], row["cycles"])
            if baseline is None:
                baseline = sig
            elif sig != baseline:
                raise AssertionError(
                    f"{name}/{tier}: simulated counters diverged "
                    f"{sig} != {baseline} — tiers must be "
                    f"cycle-identical")
            tiers[tier] = row
        base = tiers["per_insn"]["wall_s_best"]
        for row in tiers.values():
            row["speedup_vs_per_insn"] = base / row["wall_s_best"]
        results["workloads"][name] = tiers
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_jit.json"))
    args = parser.parse_args(argv)

    results = run_benchmarks(args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    for name, tiers in results["workloads"].items():
        print(f"{name}:")
        for tier, row in tiers.items():
            jit = row["jit"]
            extra = ""
            if jit["blocks"]:
                extra = (f"  [jit: {jit['blocks']} blocks, "
                         f"{jit['codegen']} codegen, "
                         f"{jit['mem_hits']} mem hits, "
                         f"{jit['disk_hits']} disk hits]")
            print(f"  {tier:9s} best {row['wall_s_best'] * 1e3:7.1f}ms  "
                  f"{row['m_instr_per_s']:6.2f} M instr/s  "
                  f"{row['speedup_vs_per_insn']:.2f}x{extra}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
