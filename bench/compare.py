"""Compare two full-set result files of ``bench/run.py``.

Usage::

    python3 bench/compare.py BASE.json NEW.json

A file may hold several full sets (``results/seed.json`` holds two);
they are pooled.  Prints one row per workload and end-to-end metric:
each side's median and quartiles, the change, and a verdict against
the metric's bound in BENCHMARK.json.  ``sim_s`` and ``error_rate``
(``run.EXACT``) are not in BENCHMARK.json and must not get worse at
all.

* ``regressed``: NEW is worse than BASE by more than the bound;
* ``unresolved``: either side's quartile spread is wider than the bound
  and the two sides' samples overlap, so the run cannot tell;
* ``improved``: better by more than the bound; ``ok`` otherwise.

Then one row per workload for every per-layer count (unit ``count``,
``bytes`` or ``cycles``): these repeat exactly, so any difference is a
real change in work done, reported as ``changed``.

Exits 1 if any end-to-end metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import EXACT, load_spec

COUNT_UNITS = ("count", "bytes", "cycles")


def load(path: Path) -> dict:
    """Per-workload results of a file.  A file holding several full
    sets (``{"sets": [...]}``, as ``results/seed.json`` does) is pooled:
    distributions are concatenated, the ledger is the first set's."""
    data = json.loads(path.read_text())
    sets = data.get("sets", [data])
    pooled = {}
    for workload, entry in sets[0]["workloads"].items():
        parts = [s["workloads"][workload]["distributions"] for s in sets]
        pooled[workload] = {
            "ledger": entry["ledger"],
            "distributions": {name: [v for p in parts for v in p[name]]
                              for name in parts[0]},
        }
    return pooled


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def verdict(base: list[float], new: list[float], bound: float,
            better: str, absolute: bool) -> tuple[float, str]:
    """``(change, verdict)``; the change is relative to BASE's median
    unless *absolute*."""
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)

    def spread(q1, med, q3):
        return q3 - q1 if absolute else (q3 - q1) / med if med else 0.0

    change = nm - bm if absolute else (nm - bm) / bm if bm else 0.0
    worse = change if better == "lower" else -change
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if overlap and max(spread(b1, bm, b3), spread(n1, nm, n3)) > bound:
        return change, "unresolved"
    if worse > bound:
        return change, "regressed"
    if worse < -bound:
        return change, "improved"
    return change, "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = load(args.base)
    new = load(args.new)
    spec = load_spec()
    rules = {m["name"]: (m["bound"], False, m["better"])
             for m in spec["end_to_end"]}
    rules.update({name: (0.0, absolute, "lower")
                  for name, (_, absolute) in EXACT.items()})
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in COUNT_UNITS]

    regressed = 0
    changed: list[str] = []
    print(f"{'workload':<9} {'metric':<12} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>9}  verdict")
    for workload, old in base.items():
        cur = new.get(workload)
        if cur is None:
            print(f"{workload:<9} missing from {args.new}")
            continue
        for name, (bound, absolute, better) in rules.items():
            b = old["distributions"][name]
            n = cur["distributions"][name]
            change, word = verdict(b, n, bound, better, absolute)
            regressed += word == "regressed"
            bq, nq = quartiles(b), quartiles(n)
            shown = f"{change:+.4g}" if absolute else f"{100 * change:+.2f}%"
            print(f"{workload:<9} {name:<12} "
                  f"{bq[1]:>12.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"{nq[1]:>12.6g} [{nq[0]:.6g}, {nq[2]:.6g}] "
                  f"{shown:>9}  {word} (bound {bound:g})")
        changed += [
            f"{workload:<9} {name:<40} {old['ledger'][name]:>14g} -> "
            f"{cur['ledger'][name]:<14g} changed"
            for name in counts
            if old["ledger"][name] != cur["ledger"][name]]
    for row in changed:
        print(row)
    print(f"{regressed} end-to-end regressions; {len(changed)} per-layer "
          f"counts changed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
