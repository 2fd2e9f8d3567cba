"""Benchmark runner: four workloads, end-to-end metrics, per-layer ledger.

The full set, from the repository root::

    python3 bench/run.py [--seed 42] [--out FILE] [--trace-dir DIR] [--quick]

runs ``ROUNDS`` rounds.  Each round spawns one fresh child process per
workload, one at a time, in an order that rotates between rounds so
machine drift spreads over all workloads; samples are pooled across
rounds.  One traced child per workload follows.  Every end-to-end
metric and the per-layer ledger are printed one ``workload metric value
unit`` line each, and the results are written as JSON to ``--out``.
``--quick`` is a smoke run: one round, 0.5 s windows, 100 fleet clients.

One measurement of one workload::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints as its last line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics named in BENCHMARK.json with
``--trace 0`` (three cold children share the window), its per-layer
metrics with ``--trace 1`` (one traced child).

Exits 2 if a child crashes.  A full set with a wrong output exits 1;
one measurement reports it as ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Per-child JIT artifact stores live here, so no run reads or writes
#: the repository's ``.cache/traces``.
TMP = HERE / ".tmp"

ROUNDS = 5
WINDOW_S = 4.0
MIN_ITERS = 2
#: Cold children per ``--workload`` measurement: ``setup_s`` is their
#: median and they split the timed window between them.
CHILDREN_PER_RUN = 3
TRACE_ITERS = {"fleet10k": 2}
DEFAULT_TRACE_ITERS = 5
CHILD_TIMEOUT_S = 170

#: End-to-end metrics of the full set beyond BENCHMARK.json's, as
#: name -> (unit, absolute).  Neither may change at all: ``sim_s`` is
#: simulated time, which host-only changes leave bit-identical, and
#: ``error_rate`` is compared as an absolute difference.
EXACT = {"sim_s": ("simulated-s", False), "error_rate": ("fraction", True)}


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, metrics, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end_units(spec: dict) -> dict:
    """Unit of every end-to-end metric the full set reports, in order."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: unit for name, (unit, _) in EXACT.items()})
    return units


class ChildFailed(RuntimeError):
    """A child process crashed or printed no result."""


def spawn(workload: str, seed: int, *, window: float, min_iters: int,
          clients: int = 10_000, trace_iters: int = 0,
          trace_file: Path | None = None, corrupt: bool = False) -> dict:
    """Run one child with an empty JIT store; return its JSON result."""
    TMP.mkdir(parents=True, exist_ok=True)
    cache = tempfile.mkdtemp(prefix="jit-", dir=TMP)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_TRACE_CACHE=cache, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--window", repr(window),
           "--min-iters", str(min_iters), "--clients", str(clients),
           "--trace-iters", str(trace_iters)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    if corrupt:
        cmd.append("--corrupt-reference")
    try:
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited {proc.returncode}:\n"
                          f"{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile with ten
    samples beyond it, or None with ten samples or fewer."""
    n = len(samples)
    if n <= 10:
        return None
    return 100.0 * (1 - 10 / n), sorted(samples)[n - 11]


def summarize(timed: list[dict], checked: list[dict], units: dict) -> dict:
    """End-to-end metrics (named with their *units*) and their
    distributions from the *timed* children; correctness over every
    *checked* child."""
    samples = [s for c in timed for s in c["samples"]]
    attempted = sum(c["attempted"] for c in checked)
    failed = sum(c["failed"] for c in checked)
    # a child whose every iteration raised has no simulated time
    sims = sorted({c["sim_s"] for c in checked if c["sim_s"] is not None})
    drift = {k: v for c in checked for k, v in c["golden_drift"].items()}
    dist = {
        "wall_s_p50": samples,
        "setup_s": [c["setup_s"] for c in timed],
        "peak_rss_mb": [c["peak_rss_mb"] for c in timed],
        "sim_s": sims or [0.0],
        "error_rate": [failed / attempted],
    }
    problems = [p for c in checked for p in c["failures"]]
    if len(sims) != 1:
        problems.append(f"children disagree on sim_s: {sims}")
    if drift:
        problems.append(f"thrash drifted from its goldens: {drift}")
    return {
        "metrics": {name: {"value": statistics.median(dist[name]),
                           "unit": unit}
                    for name, unit in units.items()},
        "distributions": dist,
        "wall_s_n": len(samples),
        "wall_s_tail": tail(samples),
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
    }


def trace_path(trace_dir: Path | None, workload: str) -> Path | None:
    return trace_dir / f"{workload}.trace.json" if trace_dir else None


def measure(args, spec: dict) -> dict:
    """One ``--workload`` measurement in the driver's result format."""
    if args.trace:
        child = spawn(args.workload, args.seed, window=args.seconds / 2,
                      min_iters=MIN_ITERS,
                      trace_iters=TRACE_ITERS.get(args.workload,
                                                  DEFAULT_TRACE_ITERS),
                      trace_file=trace_path(args.trace_dir, args.workload),
                      corrupt=args.corrupt_reference)
        summary = summarize([child], [child], {})
        metrics = {m["name"]: {"value": child["ledger"][m["name"]],
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        children = [spawn(args.workload, args.seed,
                          window=args.seconds / CHILDREN_PER_RUN,
                          min_iters=MIN_ITERS,
                          corrupt=args.corrupt_reference)
                    for _ in range(CHILDREN_PER_RUN)]
        summary = summarize(children, children, end_to_end_units(spec))
        metrics = {m["name"]: summary["metrics"][m["name"]]
                   for m in spec["end_to_end"]}
    for problem in summary["problems"]:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print_metric(args.workload, name, metric["value"], metric["unit"])
    return {"correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_metric(workload: str, name: str, value, unit: str,
                 extra: str = "") -> None:
    print(f"{workload:<9} {name:<40} {value:>14.6g} {unit}{extra}")


def full_set(args, spec: dict) -> dict:
    """ROUNDS rotating rounds plus one traced child per workload."""
    rounds, window, clients = ((1, 0.5, 100) if args.quick
                               else (ROUNDS, WINDOW_S, 10_000))
    timed: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for r in range(rounds):
        k = r % len(WORKLOADS)
        for workload in WORKLOADS[k:] + WORKLOADS[:k]:
            timed[workload].append(spawn(
                workload, args.seed, window=window, min_iters=MIN_ITERS,
                clients=clients, corrupt=args.corrupt_reference))
            print(f"round {r + 1}/{rounds} {workload}: "
                  f"{len(timed[workload][-1]['samples'])} iterations",
                  file=sys.stderr)
    results: dict = {
        "schema": "bench/1",
        "seed": args.seed,
        "quick": args.quick,
        "rounds": rounds,
        "window_s": window,
        "machine": {"python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "nproc": os.cpu_count(),
                    "platform": platform.platform(),
                    "machine": platform.machine()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        n = TRACE_ITERS.get(workload, DEFAULT_TRACE_ITERS)
        traced = spawn(workload, args.seed, window=0.0, min_iters=n,
                       clients=clients, trace_iters=n,
                       trace_file=trace_path(args.trace_dir, workload),
                       corrupt=args.corrupt_reference)
        entry = summarize(timed[workload], timed[workload] + [traced],
                          end_to_end_units(spec))
        entry["ledger"] = traced["ledger"]
        entry["missing_boundaries"] = traced["missing_boundaries"]
        entry["children"] = timed[workload] + [
            {k: v for k, v in traced.items() if k != "ledger"}]
        results["workloads"][workload] = entry
    return results


def print_full_set(results: dict, spec: dict) -> None:
    for workload, entry in results["workloads"].items():
        for name, metric in entry["metrics"].items():
            extra = ""
            if name == "wall_s_p50":
                extra = f"  (n={entry['wall_s_n']}"
                if entry["wall_s_tail"] is not None:
                    pct, value = entry["wall_s_tail"]
                    extra += f", p{pct:.1f} {value:.4g} s"
                extra += ")"
            print_metric(workload, name, metric["value"], metric["unit"],
                         extra)
        for m in spec["per_layer"]:
            if m["name"] not in entry["metrics"]:  # sim_s is both
                print_metric(workload, m["name"], entry["ledger"][m["name"]],
                             m["unit"])
        for problem in entry["problems"]:
            print(f"FAIL {workload}: {problem}", file=sys.stderr)
        if entry["missing_boundaries"]:
            print(f"{workload}: boundaries not found, their metrics read "
                  f"0: {', '.join(entry['missing_boundaries'])}",
                  file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="measure one workload (driver format)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed window of one --workload measurement")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        default=HERE / "results" / "latest.json")
    parser.add_argument("--trace-dir", type=Path, default=None,
                        help="write Chrome-trace JSON of the traced "
                             "children here")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # children inherit this: one CPU, and not CPU 0, which takes the
        # system's housekeeping (on a 2-vCPU VM, iterations pinned to
        # CPU 0 ran up to 45% slower and far noisier than on CPU 1)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = load_spec()
    try:
        if args.workload is not None:
            # wrong outputs are reported in the result line itself
            print(json.dumps(measure(args, spec)))
            return 0
        results = full_set(args, spec)
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    print_full_set(results, spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {args.out}")
    ok = all(e["correct"] for e in results["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
