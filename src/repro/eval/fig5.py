"""Figure 5: relative execution time of the software I-cache.

The paper runs 129.compress under the software cache with an
effectively infinite (48KB) tcache, a 24KB tcache and a 1KB tcache,
normalized to native ("ideal") execution: 1.19, 1.17 and "awful"
respectively.  Shape to reproduce: a ~10-25% slowdown whenever the
working set fits (independent of exact size), catastrophic slowdown
when it does not, yet the system keeps running.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net import LOCAL_LINK
from ..sim.machine import Machine
from ..softcache import SoftCacheConfig, SoftCacheSystem
from ..workloads import build_workload
from .render import ascii_table

#: Paper's bars for compress95 (relative execution time).
PAPER_FIG5 = {"48KB": 1.19, "24KB": 1.17, "1KB": float("inf")}


@dataclass(frozen=True)
class Fig5Bar:
    label: str
    tcache_size: int | None     # None = ideal/native
    cycles: int
    relative_time: float
    translations: int
    evictions: int


def fig5(workload: str = "compress95", scale: float = 0.25,
         sizes: tuple[int, ...] = (48 * 1024, 24 * 1024, 384),
         granularity: str = "block", policy: str = "fifo",
         max_instructions: int = 600_000_000) -> list[Fig5Bar]:
    """Run the Figure 5 experiment; first bar is the ideal time.

    The smallest size plays the paper's "1KB" bar: a tcache well below
    the working set (our compiled compress has a smaller working set
    than the original, so the absolute size differs).  Like the SPARC
    prototype, MC and CC share the machine: the link is local.
    """
    image = build_workload(workload, scale)
    native = Machine(image)
    native.run(max_instructions)
    ideal_cycles = native.cpu.cycles
    bars = [Fig5Bar("ideal", None, ideal_cycles, 1.0, 0, 0)]
    for size in sizes:
        config = SoftCacheConfig(tcache_size=size,
                                 granularity=granularity, policy=policy,
                                 link=LOCAL_LINK,
                                 record_timeline=False)
        system = SoftCacheSystem(image, config)
        report = system.run(max_instructions)
        assert report.output == native.output_text, (
            f"softcache diverged at tcache={size}")
        label = f"{size // 1024}KB" if size >= 1024 else f"{size}B"
        bars.append(Fig5Bar(
            label=label, tcache_size=size, cycles=report.cycles,
            relative_time=report.cycles / ideal_cycles,
            translations=system.stats.translations,
            evictions=system.stats.evictions + system.stats.blocks_flushed))
    return bars


def render_fig5(bars: list[Fig5Bar]) -> str:
    rows = [[b.label, b.cycles, f"{b.relative_time:.2f}",
             b.translations, b.evictions] for b in bars]
    return ascii_table(
        ["tcache", "cycles", "rel. time", "translations", "evictions"],
        rows,
        title="Figure 5: relative execution time, software I-cache "
              "(normalized to ideal)")
