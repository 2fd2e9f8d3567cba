"""Flight recorder: events, metrics, export, zero-overhead contract."""

import json

import pytest

from repro.fleet import simulate_fleet
from repro.net import LinkModel
from repro.net.hub import with_hub
from repro.obs import (
    EVENT_SCHEMA,
    TRACE_SCHEMA_VERSION,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    ascii_timeline,
    load_jsonl,
    publish_dataclass,
    to_chrome_trace,
    top_hot_chunks,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def sensor_image():
    return build_workload("sensor", 0.05)


def traced_run(image, recorder=None, **config_kwargs):
    recorder = recorder or FlightRecorder()
    config = SoftCacheConfig(tcache_size=2048, recorder=recorder,
                             **config_kwargs)
    system = SoftCacheSystem(image, config)
    report = system.run()
    return recorder, system, report


@pytest.fixture(scope="module")
def traced(sensor_image):
    return traced_run(sensor_image)


# -- the event schema is a golden contract ----------------------------


def test_event_schema_golden():
    """The on-disk trace format is pinned: changing an event name or
    its argument keys must be a deliberate act (update this table, the
    EVENT_SCHEMA table and docs/OBSERVABILITY.md together, and bump
    TRACE_SCHEMA_VERSION on incompatible changes)."""
    assert TRACE_SCHEMA_VERSION == 8
    assert EVENT_SCHEMA == {
        "cc.trap": ("kind", "id"),
        "cc.miss": ("orig", "name", "size", "batch"),
        "cc.prefetch_install": ("orig", "name", "size"),
        "cc.prefetch_drop": ("orig", "size", "reason"),
        "cc.patch": ("site", "target", "kind", "distance"),
        "cc.evict": ("orig", "addr", "size", "wasted"),
        "cc.flush": ("blocks",),
        "cc.pin": ("orig", "size"),
        "cc.guest_invalidate": ("addr", "length"),
        "cc.degraded_enter": ("orig", "pending"),
        "cc.degraded_exit": ("orig", "stall_cycles"),
        "cc.policy_reject": ("orig", "policy"),
        "cc.policy_promote": ("orig", "touches"),
        "cc.epoch_observed": ("epoch", "prev"),
        "cc.update_barrier": ("epoch", "prev", "invalidated",
                              "restamped", "dropped_prefetch"),
        "mc.rewrite": ("orig", "words", "exits"),
        "mc.serve": ("orig", "bytes", "cached"),
        "mc.batch": ("orig", "chunks", "prefetch_bytes"),
        "mc.restart": (),
        "mc.publish": ("epoch", "digest", "dirty_chunks", "dirty_bytes",
                       "durable"),
        "link.exchange": ("kind", "payload", "overhead", "seconds"),
        "link.batch": ("kind", "chunks", "payload", "seconds"),
        "link.send": ("kind", "payload", "seconds"),
        "hub.hit": ("key", "bytes"),
        "hub.far": ("bytes", "seconds"),
        "interp.fuse": ("pc", "fused"),
        "interp.sb_invalidate": ("pc",),
        "interp.flush": (),
        "cpu.jit_compile": ("pc", "fused"),
        "cpu.jit_load": ("pc", "fused"),
        "fleet.client": ("client", "start_s", "seconds",
                         "translations", "delay_s"),
        "fleet.queue": ("where", "arrival_s", "delay_s", "service_s"),
        "fleet.shard": ("shard", "requests", "busy_s", "util"),
        "fleet.hub": ("requests", "hits", "hit_rate"),
        "fault.drop": ("kind", "attempt", "where"),
        "fault.corrupt": ("kind", "attempt"),
        "fault.duplicate": ("kind",),
        "fault.delay": ("kind", "seconds"),
        "fault.retry": ("kind", "attempt", "backoff_s"),
        "fault.link_down": ("kind", "attempts"),
        "fault.reconnect": ("stall_s",),
    }


def test_emitted_events_conform_to_schema(traced):
    recorder, _, _ = traced
    assert recorder.events, "a thrashing run must emit events"
    for ev in recorder.events:
        assert ev.name in EVENT_SCHEMA, ev.name
        assert set(ev.args) <= set(EVENT_SCHEMA[ev.name]), \
            (ev.name, ev.args)
        assert ev.ph in ("i", "X")
        assert ev.cycles >= 0
        assert ev.dur_cycles >= 0


def test_all_core_layers_emit(traced):
    recorder, _, _ = traced
    cats = {ev.cat for ev in recorder.events}
    assert {"cc", "mc", "link", "interp"} <= cats


# -- zero overhead when disabled --------------------------------------


def test_disabled_recorder_attaches_nothing(sensor_image):
    recorder = FlightRecorder(enabled=False)
    system = SoftCacheSystem(sensor_image,
                             SoftCacheConfig(tcache_size=2048,
                                             recorder=recorder))
    assert system.recorder is None
    assert system.cc.tracer is None
    assert system.mc.tracer is None
    assert system.channel.tracer is None
    assert system.machine.cpu.trace_hook is None
    system.run()
    assert recorder.events == []


def test_tracing_is_cycle_identical(sensor_image, traced):
    """Enabling the recorder never changes simulated behaviour —
    the property that keeps fig5/fig8 bit-identical."""
    _, traced_system, traced_report = traced
    plain = SoftCacheSystem(sensor_image,
                            SoftCacheConfig(tcache_size=2048))
    report = plain.run()
    assert report.cycles == traced_report.cycles
    assert report.instructions == traced_report.instructions
    assert report.output == traced_report.output
    assert plain.stats.translations == traced_system.stats.translations
    assert plain.stats.evictions == traced_system.stats.evictions


# -- event semantics ---------------------------------------------------


def test_miss_spans_carry_duration_and_traps_precede(traced):
    recorder, system, _ = traced
    misses = [ev for ev in recorder.events if ev.name == "cc.miss"]
    assert len(misses) == system.stats.demand_translations
    assert all(ev.ph == "X" and ev.dur_cycles > 0 for ev in misses)
    traps = [ev for ev in recorder.events if ev.name == "cc.trap"]
    assert traps and all(
        ev.args["kind"] in ("branch", "ret", "call", "landing", "jr")
        for ev in traps)


def test_eviction_events_match_stats(traced):
    recorder, system, _ = traced
    evicts = [ev for ev in recorder.events if ev.name == "cc.evict"]
    assert len(evicts) == system.stats.evictions
    for ev in evicts:
        assert ev.args["size"] > 0


def test_prefetch_and_hub_events(sensor_image):
    recorder = FlightRecorder()
    config = SoftCacheConfig(tcache_size=2048, prefetch_depth=3,
                             link=LinkModel(), recorder=recorder)
    system = SoftCacheSystem(sensor_image, config)
    with_hub(system)
    system.run()
    names = {ev.name for ev in recorder.events}
    assert "cc.prefetch_install" in names
    assert "mc.batch" in names
    assert "link.batch" in names
    assert "hub.far" in names
    installs = [ev for ev in recorder.events
                if ev.name == "cc.prefetch_install"]
    assert len(installs) == system.stats.prefetch_installs


def test_max_events_overflow_counts_dropped():
    recorder = FlightRecorder(max_events=3)
    for i in range(10):
        recorder.emit("cc.trap", "cc", i, kind="branch", id=i)
    assert len(recorder.events) == 3
    assert recorder.dropped == 7


# -- export: JSONL round trip and Chrome trace ------------------------


def test_jsonl_round_trip(traced, tmp_path):
    recorder, _, _ = traced
    path = write_jsonl(recorder.events, tmp_path / "run.jsonl",
                       cpu_hz=recorder.cpu_hz)
    meta, events = load_jsonl(path)
    assert meta["schema"] == TRACE_SCHEMA_VERSION
    assert meta["cpu_hz"] == recorder.cpu_hz
    assert meta["events"] == len(recorder.events)
    assert len(events) == len(recorder.events)
    for before, after in zip(recorder.events, events):
        assert before.to_record() == after.to_record()


def test_chrome_trace_is_valid_and_loadable(traced, tmp_path):
    recorder, _, _ = traced
    path = write_chrome_trace(recorder.events, tmp_path / "t.json",
                              cpu_hz=recorder.cpu_hz)
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    assert doc["otherData"]["schema"] == TRACE_SCHEMA_VERSION
    phases = {rec["ph"] for rec in doc["traceEvents"]}
    assert phases <= {"i", "X", "M"}
    for rec in doc["traceEvents"]:
        assert isinstance(rec["name"], str)
        assert isinstance(rec["pid"], int)
        assert isinstance(rec["tid"], int)
        if rec["ph"] == "X":
            assert rec["dur"] >= 0
        if rec["ph"] != "M":
            assert rec["ts"] >= 0
    # metadata names every process and thread lane
    meta = [rec for rec in doc["traceEvents"] if rec["ph"] == "M"]
    assert any(rec["name"] == "process_name" for rec in meta)
    assert any(rec["args"]["name"] == "cc" for rec in meta
               if rec["name"] == "thread_name")


def test_ascii_reports(traced):
    recorder, system, _ = traced
    timeline = ascii_timeline(recorder.events, cpu_hz=recorder.cpu_hz)
    assert "cc" in timeline and "|" in timeline
    hot = top_hot_chunks(recorder.events, n=5)
    assert hot and hot[0]["misses"] >= hot[-1]["misses"]
    summary = trace_summary(recorder.events, cpu_hz=recorder.cpu_hz)
    assert "event counts:" in summary and "hot chunks" in summary
    assert ascii_timeline([], cpu_hz=200e6) == "(no events)"


# -- metrics registry --------------------------------------------------


def test_registry_basics():
    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    reg.counter("a").inc()
    assert reg.counter("a").value == 4
    reg.gauge("b").set(2.5)
    assert reg.gauge("b").value == 2.5
    with pytest.raises(TypeError):
        reg.gauge("a")
    assert len(reg) == 2


def test_histogram_buckets_and_quantiles():
    h = Histogram("lat")
    for v in (1, 2, 3, 100, 1000):
        h.observe(v)
    assert h.count == 5
    assert h.min == 1 and h.max == 1000
    assert h.mean == pytest.approx(221.2)
    # quantiles are power-of-two upper bounds
    assert h.quantile(0.5) == 4.0
    assert h.quantile(1.0) == 1024.0
    snap = h.snapshot()
    assert snap["count"] == 5 and "buckets" in snap


def test_publish_dataclass_is_idempotent(traced):
    _, system, _ = traced
    reg = MetricsRegistry()
    publish_dataclass(reg, "cc", system.stats)
    once = reg.counter("cc.translations").value
    publish_dataclass(reg, "cc", system.stats)  # re-publish: no double
    assert reg.counter("cc.translations").value == once
    assert once == system.stats.translations


def test_run_publishes_metrics_and_histograms(traced):
    recorder, system, report = traced
    snap = recorder.metrics.snapshot()
    assert snap["cc.translations"] == system.stats.translations
    assert snap["mc.chunks_built"] == system.mc.stats.chunks_built
    assert snap["link.exchanges"] == system.link_stats.exchanges
    assert snap["sim.cycles"] == report.cycles
    lat = snap["cc.miss_latency_cycles"]
    assert lat["count"] == system.stats.demand_translations
    assert lat["p50"] <= lat["p99"]
    assert snap["cc.patch_distance_bytes"]["count"] == \
        system.stats.patches


# -- fleet tracing -----------------------------------------------------


def test_fleet_trace_merges_per_client_timelines(sensor_image):
    recorder = FlightRecorder()
    config = SoftCacheConfig(tcache_size=2048)
    result = simulate_fleet(sensor_image, 3, config, stagger_s=0.001,
                            recorder=recorder)
    spans = [ev for ev in recorder.events if ev.name == "fleet.client"]
    assert [ev.args["client"] for ev in spans] == [0, 1, 2]
    assert all(ev.ph == "X" for ev in spans)
    # simulated clients contribute events under their own pid
    assert {ev.pid for ev in recorder.events
            if ev.cat == "cc"} == {0, 1}
    # client 1's merged events are shifted by its boot offset
    hz = config.costs.cpu_hz
    first_c1 = min(ev.cycles for ev in recorder.events
                   if ev.pid == 1 and ev.cat == "cc")
    assert first_c1 >= int(0.001 * hz)
    # tracing does not perturb the simulation
    plain = simulate_fleet(sensor_image, 3, config, stagger_s=0.001)
    assert plain.makespan_s == result.makespan_s
    assert plain.mean_queue_delay_s == result.mean_queue_delay_s
