"""Flight-recorder overhead gate: disabled tracing must cost nothing.

The observability layer's core contract is *zero overhead when
disabled*: components hold ``tracer = None`` unless an **enabled**
recorder was attached, so a config carrying
``FlightRecorder(enabled=False)`` must execute the exact seed code
path.  This benchmark pins that contract on the thrash workload (the
configuration with the most emission sites on the hot path): it times
best-of-N runs with no recorder and with a disabled recorder and fails
if the disabled-recorder runs are more than ``--max-overhead-pct``
slower (CI uses 2%).  Each configuration is warmed once, then every
repeat times all of them back to back, so drift in host speed over
the benchmark reaches every configuration alike instead of deciding
the verdict.

The *enabled* cost is also measured and reported — informational only,
since enabling tracing is an explicit opt-in.

The same ceiling gates the live ops plane: a ``--serve`` endpoint
that is attached but never scraped adds only one attribute read per
miss (the control plane's ``pending`` flag), so the served-but-idle
configuration must stay under the same ``--max-overhead-pct``.

Usage::

    python benchmarks/bench_trace_overhead.py [--repeat N]
        [--max-overhead-pct P] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.net import LOCAL_LINK  # noqa: E402
from repro.obs import FlightRecorder, ObsServer  # noqa: E402
from repro.softcache import SoftCacheConfig, SoftCacheSystem  # noqa: E402
from repro.workloads import build_workload  # noqa: E402


def _time_run(image, config, server=None) -> float:
    system = SoftCacheSystem(image, config)
    if server is not None:
        server.attach_system(system)
    t0 = time.perf_counter()
    system.run()
    return time.perf_counter() - t0


def _time_served(image, config) -> float:
    # the ops endpoint is bound and its thread started outside the
    # timed region (process setup, not per-run cost), and it exists
    # only for this run, so the other configurations run with no
    # server at all; nothing ever scrapes it, matching a fleet that
    # carries --serve but has no collector pointed at it yet
    with ObsServer("127.0.0.1", 0) as server:
        return _time_run(image, config, server)


def run_benchmark(repeat: int = 5) -> dict:
    image = build_workload("sensor", 0.05)

    def thrash_config(recorder=None) -> SoftCacheConfig:
        return SoftCacheConfig(tcache_size=768, link=LOCAL_LINK,
                               record_timeline=False, recorder=recorder)

    # baseline, disabled recorder, enabled recorder, served
    timers = (
        partial(_time_run, image, thrash_config()),
        partial(_time_run, image,
                thrash_config(FlightRecorder(enabled=False))),
        partial(_time_run, image, thrash_config(FlightRecorder())),
        partial(_time_served, image, thrash_config()),
    )
    for timer in timers:
        timer()  # warm-up, untimed
    walls: list[list[float]] = [[] for _ in timers]
    for _ in range(repeat):
        for timer, runs in zip(timers, walls):
            runs.append(timer())
    baseline, disabled, enabled, served = walls

    best_base = min(baseline)
    best_disabled = min(disabled)
    best_enabled = min(enabled)
    best_served = min(served)
    return {
        "schema": "BENCH_trace_overhead/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": repeat,
        "baseline": {"wall_s_best": best_base,
                     "wall_s_p50": statistics.median(baseline),
                     "wall_s_all": baseline},
        "disabled_recorder": {"wall_s_best": best_disabled,
                              "wall_s_p50": statistics.median(disabled),
                              "wall_s_all": disabled},
        "enabled_recorder": {"wall_s_best": best_enabled,
                             "wall_s_p50": statistics.median(enabled),
                             "wall_s_all": enabled},
        "served_unscraped": {"wall_s_best": best_served,
                             "wall_s_p50": statistics.median(served),
                             "wall_s_all": served},
        "disabled_overhead_pct":
            100.0 * (best_disabled / best_base - 1.0),
        "enabled_overhead_pct":
            100.0 * (best_enabled / best_base - 1.0),
        "served_overhead_pct":
            100.0 * (best_served / best_base - 1.0),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--max-overhead-pct", type=float, default=2.0,
                        help="fail if a disabled recorder costs more "
                             "than this vs no recorder at all")
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_trace_overhead.json"))
    args = parser.parse_args(argv)

    results = run_benchmark(args.repeat)
    args.out.write_text(json.dumps(results, indent=2) + "\n")

    base = results["baseline"]["wall_s_best"] * 1e3
    dis = results["disabled_recorder"]["wall_s_best"] * 1e3
    ena = results["enabled_recorder"]["wall_s_best"] * 1e3
    srv = results["served_unscraped"]["wall_s_best"] * 1e3
    print(f"baseline (no recorder)   : best {base:.1f}ms")
    print(f"recorder(enabled=False)  : best {dis:.1f}ms  "
          f"({results['disabled_overhead_pct']:+.2f}%)")
    print(f"recorder(enabled=True)   : best {ena:.1f}ms  "
          f"({results['enabled_overhead_pct']:+.2f}%, informational)")
    print(f"served, never scraped    : best {srv:.1f}ms  "
          f"({results['served_overhead_pct']:+.2f}%)")
    print(f"wrote {args.out}")

    failed = False
    for label, key in (("disabled-recorder", "disabled_overhead_pct"),
                       ("served-unscraped", "served_overhead_pct")):
        if results[key] > args.max_overhead_pct:
            print(f"FAIL: {label} overhead {results[key]:.2f}% "
                  f"exceeds {args.max_overhead_pct:.1f}%",
                  file=sys.stderr)
            failed = True
        else:
            print(f"overhead check OK ({label}): "
                  f"{results[key]:.2f}% <= "
                  f"{args.max_overhead_pct:.1f}%")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
