"""Smoke test of the benchmark (``pytest bench/``; not a tier-1 test).

Runs ``run.py --quick`` (one round, 0.5 s windows, 100 fleet clients)
and checks that every metric BENCHMARK.json names is printed with its
unit for every workload, that no iteration failed, and that the ledger
attributes at least 95% of traced wall time.  The negative case
corrupts the reference output and expects every iteration to fail.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("thrash", "resident", "prefetch", "fleet10k")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=170)


def test_quick_full_set(tmp_path):
    out = tmp_path / "quick.json"
    proc = run("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 4 and fields[0] in WORKLOADS:
            printed[fields[0], fields[1]] = fields[3]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        for workload in WORKLOADS:
            assert printed.get((workload, metric["name"])) == metric["unit"]
    results = json.loads(out.read_text())["workloads"]
    for workload in WORKLOADS:
        entry = results[workload]
        assert entry["metrics"]["error_rate"]["value"] == 0, entry["problems"]
        assert entry["correct"], entry["problems"]  # includes golden drift
        assert entry["ledger"]["ledger.coverage"] >= 0.95, workload


def test_corrupted_reference_fails_every_iteration():
    proc = run("--workload", "thrash", "--seed", "1", "--seconds", "0.5",
               "--trace", "0", "--corrupt-reference")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]  # error_rate == 1.0
