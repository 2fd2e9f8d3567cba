"""One benchmark child process: cold set-up, reference, timed windows.

``run.py`` starts one of these per workload and round, one at a time.
In order, the child

1. times its set-up: interpreter start (``--t0``, read by the parent
   just before the spawn), ``import repro``, building the workload
   image, and the first iteration;
2. runs the per-instruction reference (``MachineConfig(superblocks=
   False)``: no fusion, no JIT), untimed;
3. times a closed-loop window of at least ``--window`` seconds and
   ``--min-iters`` iterations, with ``gc.collect()`` between iterations;
4. with ``--trace-iters N``, runs N more iterations under the ledger
   (the first iteration was traced too, for the set-up layers);
5. reports ``ru_maxrss`` and prints one JSON object as its last line.

Every iteration is checked: its exit code and output (every client's,
for the fleet) must equal the reference's, and its simulated time
must equal the first iteration's.  A failed iteration is counted and
keeps its wall-time sample.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("thrash", "resident", "prefetch", "fleet10k")

#: ``thrash``'s seed counters, the same goldens as
#: tests/test_eviction_equivalence.py (sensor @ 0.05, 768 B, block, fifo).
THRASH_GOLDENS = {"translations": 2040, "evictions": 2018,
                  "cycles": 1_622_021}


def import_repro() -> None:
    """Import every module the workloads use (timed as set-up)."""
    import repro.fleet  # noqa: F401
    import repro.net  # noqa: F401
    import repro.sim  # noqa: F401
    import repro.softcache  # noqa: F401
    import repro.workloads  # noqa: F401


def make_workload(name: str, seed: int, clients: int):
    """``(image, iterate, observe)`` for workload *name*.

    ``iterate()`` runs one iteration; ``observe(result)`` returns its
    ``(exit code, output)`` per client, simulated seconds, and the
    counters the goldens pin.
    """
    from repro.fleet import simulate_fleet
    from repro.net import LOCAL_LINK, LinkModel
    from repro.softcache import SoftCacheConfig, SoftCacheSystem
    from repro.workloads import build_workload

    if name == "fleet10k":
        image = build_workload("sensor", 0.05)
        config = SoftCacheConfig(tcache_size=8 * 1024,
                                 record_timeline=False)

        def iterate():
            return simulate_fleet(image, clients, config,
                                  stagger_s=50e-6, shards=4,
                                  hub_capacity=64 * 1024)

        def observe(fleet):
            return ([(c.report.exit_code, c.report.output)
                     for c in fleet.clients], fleet.makespan_s, {})
        return image, iterate, observe

    if name == "thrash":
        image = build_workload("sensor", 0.05)
        config = SoftCacheConfig(tcache_size=768, granularity="block",
                                 link=LOCAL_LINK, policy="fifo",
                                 prefetch_depth=0, record_timeline=False)
    elif name == "resident":
        image = build_workload("compress95", 0.25, seed=seed)
        config = SoftCacheConfig(tcache_size=24 * 1024,
                                 granularity="block", link=LOCAL_LINK,
                                 record_timeline=False)
    elif name == "prefetch":
        image = build_workload("sensor", 0.05)
        config = SoftCacheConfig(tcache_size=1024, granularity="ebb",
                                 link=LinkModel(), policy="fifo",
                                 prefetch_depth=2, record_timeline=False)
    else:
        raise ValueError(f"unknown workload {name!r}")

    def iterate():
        system = SoftCacheSystem(image, config)
        return system.run(), system

    def observe(result):
        report, system = result
        counters = {"translations": system.stats.translations,
                    "evictions": system.stats.evictions,
                    "cycles": report.cycles}
        return [(report.exit_code, report.output)], report.seconds, counters
    return image, iterate, observe


def reference(image) -> tuple[int, str]:
    """Exit code and output of the per-instruction native run."""
    from repro.sim import Machine, MachineConfig
    machine = Machine(image, MachineConfig(superblocks=False))
    return machine.run(), machine.output_text


class Oracle:
    """Checks iterations against the reference and tallies failures;
    flags (without failing the iteration) counters off their *goldens*."""

    def __init__(self, observe, ref: tuple[int, str], goldens: dict):
        self.observe = observe
        self.reference = ref
        self.goldens = goldens
        self.sim_s: float | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.golden_drift: dict[str, list] = {}

    def check(self, result, error: Exception | None) -> None:
        self.attempted += 1
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        else:
            got, sim_s, counters = self.observe(result)
            if self.sim_s is None:
                self.sim_s = sim_s
            wrong = sum(1 for o in got if o != self.reference)
            problem = None
            if wrong:
                problem = (f"{wrong} of {len(got)} clients differ from "
                           f"the reference")
            elif sim_s != self.sim_s:
                problem = f"sim_s {sim_s!r} != first {self.sim_s!r}"
            for key, want in self.goldens.items():
                if counters[key] != want:
                    self.golden_drift[key] = [counters[key], want]
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(problem)


def timed(iterate):
    """Run one iteration: ``(wall seconds, result, error)``."""
    t0 = time.perf_counter()
    try:
        result, error = iterate(), None
    except Exception as exc:  # a failed iteration, counted by the oracle
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def window(iterate, oracle: Oracle, seconds: float,
           min_iters: int) -> list[float]:
    """Closed loop: each iteration starts when the previous one ends."""
    samples: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(samples) < min_iters or time.perf_counter() < deadline:
        gc.collect()
        wall, result, error = timed(iterate)
        oracle.check(result, error)
        samples.append(wall)
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the spawn")
    parser.add_argument("--window", type=float, default=0.0)
    parser.add_argument("--min-iters", type=int, default=0)
    parser.add_argument("--trace-iters", type=int, default=0)
    parser.add_argument("--trace-file", type=Path, default=None)
    parser.add_argument("--clients", type=int, default=10_000)
    parser.add_argument("--corrupt-reference", action="store_true")
    args = parser.parse_args(argv)

    t_import = time.monotonic()
    import_repro()
    ledger = None
    if args.trace_iters:
        from ledger import Ledger, summarize
        ledger = Ledger()
        ledger.install()
    t_build = time.monotonic()
    image, iterate, observe = make_workload(args.workload, args.seed,
                                            args.clients)
    t_first = time.monotonic()
    first_wall, first, first_error = timed(iterate)
    t_done = time.monotonic()
    setup = {"setup_s": t_done - args.t0, "import_s": t_build - t_import,
             "build_s": t_first - t_build,
             "first_iteration_s": t_done - t_first}
    if ledger is not None:
        ledger.uninstall()
        cold = ledger.iteration_metrics(0, first_wall, first)

    ref = reference(image)
    if args.corrupt_reference:
        ref = (ref[0], ref[1] + "\0corrupted")
    oracle = Oracle(observe, ref, THRASH_GOLDENS
                    if args.workload == "thrash" else {})
    oracle.check(first, first_error)
    del first

    samples = window(iterate, oracle, args.window, args.min_iters)
    traced: list[float] = []
    layers = None
    if ledger is not None:
        ledger.install()
        warm = []
        for i in range(1, args.trace_iters + 1):
            gc.collect()
            ledger.iteration = i
            wall, result, error = timed(iterate)
            oracle.check(result, error)
            warm.append(ledger.iteration_metrics(i, wall, result))
            traced.append(wall)
        ledger.uninstall()
        layers = summarize(cold, warm)
        layers.update({
            "setup.import_s": setup["import_s"],
            "workloads.build_s": setup["build_s"],
            "setup.first_iteration_s": setup["first_iteration_s"],
            "ledger.trace_overhead": (
                statistics.median(traced) / statistics.median(samples)
                - 1.0 if samples else 0.0),
            "sim_s": oracle.sim_s or 0.0,
        })
        if args.trace_file is not None:
            ledger.write_chrome_trace(args.trace_file)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, **setup,
        "samples": samples, "traced_samples": traced,
        "attempted": oracle.attempted, "failed": oracle.failed,
        "failures": oracle.failures, "sim_s": oracle.sim_s,
        "golden_drift": oracle.golden_drift,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ledger": layers,
        "missing_boundaries": ledger.missing if ledger else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
