"""Command-line interface."""

import pytest

from repro.cli import main


def test_workloads_lists_all(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("compress95", "adpcm_enc", "sensor"):
        assert name in out


def test_run_native(capsys):
    code = main(["run", "sensor", "--scale", "0.05", "--native"])
    out = capsys.readouterr().out
    assert code == 0
    assert "day_events=" in out
    assert "[native]" in out


def test_run_softcache(capsys):
    code = main(["run", "sensor", "--scale", "0.05",
                 "--tcache", "4096", "--local-link"])
    out = capsys.readouterr().out
    assert code == 0
    assert "translations" in out
    assert "[softcache block/fifo" in out


def test_run_with_dcache(capsys):
    code = main(["run", "sensor", "--scale", "0.05",
                 "--tcache", "16384", "--dcache", "1024",
                 "--local-link"])
    out = capsys.readouterr().out
    assert code == 0
    assert "dcache" in out


def test_run_proc_granularity(capsys):
    code = main(["run", "adpcm_enc", "--scale", "0.05",
                 "--granularity", "proc", "--tcache", "8192",
                 "--local-link"])
    assert code == 0
    assert "proc/fifo" in capsys.readouterr().out


def test_profile(capsys):
    assert main(["profile", "sensor", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "norm footprint" in out
    assert "day_step" in out


def test_disasm_proc(capsys):
    assert main(["disasm", "sensor", "--proc", "day_step"]) == 0
    out = capsys.readouterr().out
    assert "ret" in out
    assert out.count("\n") > 10


def test_figures_subset(capsys):
    assert main(["figures", "--only", "tagspace"]) == 0
    assert "11" in capsys.readouterr().out


def test_figures_unknown(capsys):
    assert main(["figures", "--only", "fig99"]) == 2


def test_bad_workload_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nonexistent"])


def _check_trace_outputs(base):
    """The two export files exist and convert/load as advertised."""
    import json

    from repro.obs import TRACE_SCHEMA_VERSION, load_jsonl
    meta, events = load_jsonl(f"{base}.jsonl")
    assert meta["schema"] == TRACE_SCHEMA_VERSION and events
    doc = json.loads(open(f"{base}.trace.json").read())
    assert doc["traceEvents"]
    assert {r["ph"] for r in doc["traceEvents"]} <= {"i", "X", "M"}


@pytest.mark.parametrize("workload", ["sensor", "adpcm_enc"])
def test_trace_subcommand(capsys, tmp_path, monkeypatch, workload):
    monkeypatch.chdir(tmp_path)
    code = main(["trace", workload, "--scale", "0.05",
                 "--tcache", "2048", "--out", f"t-{workload}"])
    out = capsys.readouterr().out
    assert code == 0
    assert "event counts:" in out
    assert "timeline:" in out
    assert "hot chunks" in out
    assert "metrics highlights:" in out
    _check_trace_outputs(tmp_path / f"t-{workload}")


def test_run_with_trace_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--local-link",
                 "--trace", "out"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[trace]" in out
    _check_trace_outputs(tmp_path / "out")


def test_debug_subcommand(capsys):
    code = main(["debug", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--poison"])
    captured = capsys.readouterr()
    assert code == 0
    assert "tcache:" in captured.out
    assert "consistency OK" in captured.err


def test_debug_dot(capsys):
    code = main(["debug", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--dot"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph tcache {")
    assert "->" in out


def test_run_with_fault_plan(capsys):
    code = main(["run", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--local-link",
                 "--fault-plan", "lossy", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "faults" in out
    assert "retries" in out and "delivered" in out


def test_chaos_subcommand_ok(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["chaos", "--workloads", "sensor", "--plans", "2",
                 "--scale", "0.05", "--tcache", "2048"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all 2 cells reached the fault-free architectural state" \
        in out
    assert not (tmp_path / "chaos-artifacts").exists()


def test_chaos_failure_writes_artifacts(capsys, tmp_path, monkeypatch):
    """A diverging cell exits nonzero and leaves its plan + trace."""
    monkeypatch.chdir(tmp_path)
    digests = iter(["baseline", "diverged-cell"])
    monkeypatch.setattr("repro.softcache.debug.architectural_state",
                        lambda system: next(digests))
    code = main(["chaos", "--workloads", "sensor", "--plans", "1",
                 "--scale", "0.05", "--tcache", "2048",
                 "--out-dir", "arts"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL sensor-seed0" in captured.err
    assert (tmp_path / "arts" / "chaos-sensor-seed0.plan.txt").exists()
    plan_text = (tmp_path / "arts" /
                 "chaos-sensor-seed0.plan.txt").read_text()
    assert "FaultPlan" in plan_text and "error:" in plan_text
    _check_trace_outputs(tmp_path / "arts" / "chaos-sensor-seed0")


def test_fleet_subcommand(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fleet", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--clients", "3",
                 "--stagger", "0.001", "--trace", "fleet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[fleet] 3 clients (2 distinct), stagger 1.0 ms" in out
    assert "uplink" in out
    _check_trace_outputs(tmp_path / "fleet")


def test_fleet_sharded_with_hub_and_prom(capsys, tmp_path,
                                         monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["fleet", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--clients", "6",
                 "--shards", "4", "--hub-capacity", "65536",
                 "--prom-out", "fleet.prom"])
    out = capsys.readouterr().out
    assert code == 0
    assert "shards            : 4" in out
    assert "edge hub" in out
    prom = (tmp_path / "fleet.prom").read_text()
    assert "repro_fleet_clients_total 6" in prom
    assert "repro_fleet_shard3_requests_total" in prom


def test_fleet_burst_reports_queueing(capsys):
    code = main(["fleet", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--clients", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stagger 0.0 ms" in out
    delayed = int(out.split("queueing          : ")[1].split()[0])
    assert delayed > 0  # simultaneous boots contend for the uplink


def test_run_prom_out(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["run", "sensor", "--scale", "0.05",
                 "--tcache", "2048", "--local-link",
                 "--prom-out", "run.prom"])
    out = capsys.readouterr().out
    assert code == 0
    assert "prometheus" in out
    prom = (tmp_path / "run.prom").read_text()
    assert "# TYPE repro_cc_translations_total counter" in prom
    assert "repro_sim_cycles" in prom
