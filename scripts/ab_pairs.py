#!/usr/bin/env python3
"""Alternating A/B pairs of one benchmark workload: parent vs change.

Usage::

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload thrash \\
        --pairs 10 --seed 1701 [--out FILE]

Each directory is a checkout with its own ``bench/``.  Pair *i* runs
``bench/run.py --workload W --seed S+i --trace 0`` once in each
checkout, one run at a time; the parent goes first in even pairs and
the change first in odd ones, so machine drift does not favour a side.

For every end-to-end metric that CHANGE_DIR's ``BENCHMARK.json``
declares, the script prints each side's median and quartiles, the
median change in percent, the pairs the change won (ties count for
neither side), and whether the change passes the rule for a claimed
gain: better in at least 90% of the pairs (9 of 10), with medians
further apart than the parent's interquartile range.  The last column
is CHANGE_DIR's ``bench/compare.py`` verdict against the metric's
regression bound (regressed / unresolved / improved / ok), computed by
that file's own ``quartiles`` and ``verdict``.  It also prints each
side's error rate.  Of each run it reads only the result line that
``bench/run.py`` prints last.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

#: Share of pairs the change must win for a claimed gain.
WIN_SHARE = 0.9


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py --workload`` measurement in *checkout*: its
    result line as a dict."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed in {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def gain(parent: list[float], change: list[float], better: str,
         quartiles) -> tuple[int, bool]:
    """Pairs the change won, and whether it passes the claimed-gain
    rule (*better* is ``"lower"`` or ``"higher"``)."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    gap = sign * (pm - quartiles(change)[1])  # > 0: the change is better
    return won, won >= math.ceil(WIN_SHARE * len(parent)) and gap > p3 - p1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path, help="parent checkout")
    parser.add_argument("change", type=Path, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="pair i uses seed SEED + i on both sides")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every result line here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(args.change.resolve() / "bench"))
    import compare  # the change's own bound rule
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload,
                                       args.seed + i))
        line = "  ".join(
            f"{side} {runs[side][-1]['metrics']['wall_s_p50']['value']:.4f}"
            for side in order if "wall_s_p50" in runs[side][-1]["metrics"])
        print(f"pair {i + 1}/{args.pairs} seed {args.seed + i}: {line}",
              file=sys.stderr)

    print(f"{args.workload}: {args.pairs} alternating pairs, seeds "
          f"{args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':<13} {'parent p50 [q1, q3]':<30} "
          f"{'change p50 [q1, q3]':<30} {'delta':>8} {'won':>6}  "
          f"gain  bound")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in runs}
        parent, change = values["parent"], values["change"]
        won, passed = gain(parent, change, metric["better"],
                           compare.quartiles)
        delta, word = compare.verdict(parent, change, metric["bound"],
                                      metric["better"], False)
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                 for q in map(compare.quartiles, (parent, change))]
        print(f"{name:<13} {cells[0]:<30} {cells[1]:<30} "
              f"{100 * delta:>+7.1f}% {won:>2}/{len(parent):<3} "
              f"{'yes' if passed else 'no ':<4}  {word}")
    for side in runs:
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"{side}: error_rate {failed / attempted if attempted else 0:g}"
              f" ({failed} of {attempted} iterations), "
              f"{wrong} runs not correct")
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "pairs": args.pairs, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
