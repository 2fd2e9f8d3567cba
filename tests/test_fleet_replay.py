"""Differential tests of the fleet replay loop.

:func:`repro.fleet.run_event_sim` flattens each distinct trace into
columns and carries a client's replay state in its pending entry; a
single event costs one heap operation, and a saturated uplink is
served in sorted rounds with none.  :func:`reference_replay` below is
the straightforward loop it replaced: one ``heappop`` plus one
``heappush`` per RPC, per-record attribute loads, and a separate hub
probe, refresh and re-insert.  Both must produce the same
:class:`SimOutcome`, field for field, and the same ``fleet.queue``
events.
"""

import dataclasses
import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.fleet.fleet as fleet_mod
import repro.fleet.sched as sched
from repro.fleet import ClientTrace, RpcRecord, SimOutcome, run_event_sim
from repro.net import FaultPlan, RetryPolicy
from repro.net.hub import LruChunkCache
from repro.sim.costs import DEFAULT_COSTS
from repro.softcache import SoftCacheConfig
from repro.workloads import build_workload


def reference_replay(traces, boots, *, costs, n_shards=1,
                     origin_service_s=0.0, hub_capacity=0,
                     recorder=None) -> SimOutcome:
    """One heap event per RPC, popped and re-pushed; the oracle."""
    n = len(traces)
    cts = costs.cycles_to_seconds
    hz = costs.cpu_hz
    idx = [0] * n
    waits = [0.0] * n
    ends = [0.0] * n
    heap = []
    seq = 0
    for c in range(n):
        recs = traces[c].records
        if recs:
            heap.append((boots[c] + cts(recs[0].start_cycles), seq, c))
            seq += 1
        else:
            ends[c] = boots[c] + cts(traces[c].total_cycles)
    heapq.heapify(heap)
    uplink_free = uplink_busy = 0.0
    shard_free = [0.0] * n_shards
    shard_busy = [0.0] * n_shards
    shard_req = [0] * n_shards
    hub = LruChunkCache(hub_capacity) if hub_capacity > 0 else None
    hub_requests = hub_hits = 0
    q_total = q_max = s_total = s_max = 0.0
    q_n = delayed = 0
    while heap:
        t, _, c = heapq.heappop(heap)
        trace = traces[c]
        r = trace.records[idx[c]]
        begin = t if t >= uplink_free else uplink_free
        du = begin - t
        uplink_free = begin + r.wire_s
        uplink_busy += r.wire_s
        ds = 0.0
        if r.shard >= 0:
            sid = r.shard if r.shard < n_shards else 0
            at_hub = False
            if hub is not None:
                hub_requests += 1
                if r.keys and r.keys[0][0] in hub:
                    hub.touch(r.keys[0][0])
                    hub_hits += 1
                    at_hub = True
            if not at_hub:
                shard_req[sid] += 1
            if not at_hub and origin_service_s > 0.0:
                arrive = begin + r.wire_s
                sbegin = (arrive if arrive >= shard_free[sid]
                          else shard_free[sid])
                ds = sbegin - arrive
                shard_free[sid] = sbegin + origin_service_s
                shard_busy[sid] += origin_service_s
                s_total += ds
                s_max = max(s_max, ds)
            if hub is not None:
                for key, size in r.keys:
                    hub.insert(key, size)
        wait = du + ds
        q_n += 1
        q_total += wait
        q_max = max(q_max, wait)
        if wait > 0:
            delayed += 1
            if recorder is not None:
                where = "uplink" if ds == 0.0 else f"shard{r.shard}"
                recorder.emit("fleet.queue", "fleet",
                              cycles=int(t * hz), dur=int(wait * hz),
                              where=where, arrival_s=t, delay_s=wait,
                              service_s=r.wire_s)
        waits[c] += wait
        idx[c] += 1
        if idx[c] < len(trace.records):
            nxt = trace.records[idx[c]]
            heapq.heappush(heap, (boots[c] + cts(nxt.start_cycles) +
                                  waits[c], seq, c))
            seq += 1
        else:
            ends[c] = boots[c] + cts(trace.total_cycles) + waits[c]
    chunk_visits = sum(shard_req)
    return SimOutcome(
        waits=waits, ends=ends, uplink_busy_s=uplink_busy,
        busy_until=uplink_free,
        mean_queue_delay_s=(q_total / q_n) if q_n else 0.0,
        max_queue_delay_s=q_max, delayed_requests=delayed,
        shard_requests=shard_req, shard_busy_s=shard_busy,
        mean_shard_delay_s=(s_total / chunk_visits)
        if chunk_visits else 0.0,
        max_shard_delay_s=s_max,
        hub_requests=hub_requests, hub_hits=hub_hits)


class EventLog:
    """Collects what the replay emits, in order."""

    def __init__(self):
        self.events = []

    def emit(self, name, cat, /, cycles=None, *, dur=0, **args):
        self.events.append((name, cat, cycles, dur, args))


def assert_same_replay(traces, boots, **kw):
    """Replay *traces* with the reference loop and with
    run_event_sim, once at its own round constants and once trying a
    round after every delayed event; outcomes and events must match.
    """
    want_log = EventLog()
    want = reference_replay(traces, boots, recorder=want_log, **kw)
    for round_size in (None, 1):
        got_log = EventLog()
        with pytest.MonkeyPatch.context() as mp:
            if round_size is not None:
                mp.setattr(sched, "ROUND", round_size)
            got = run_event_sim(traces, boots, recorder=got_log, **kw)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got_log.events == want_log.events
    return want


# -- captured fleets ---------------------------------------------------

SCENARIOS = {
    # simultaneous boots: replicated clients tie exactly on arrival
    "burst": dict(config=dict(), n_clients=40, stagger_s=0.0,
                  shards=4, hub_capacity=64 * 1024),
    # decorrelated fault seeds: retry traversals are live load
    "chaos": dict(config=dict(), n_clients=12, stagger_s=20e-6,
                  shards=3, hub_capacity=64 * 1024,
                  fault_plan=FaultPlan.chaos(seed=7),
                  retry_policy=RetryPolicy(max_attempts=8,
                                           backoff_base_s=1e-4,
                                           jitter=0.0)),
    # ebb chunks with prefetch: multi-key batches warm the hub
    "ebb_prefetch": dict(config=dict(granularity="ebb",
                                     prefetch_depth=2),
                         n_clients=16, stagger_s=50e-6, shards=4,
                         hub_capacity=512),
}


@pytest.fixture(scope="module")
def image():
    return build_workload("sensor", 0.05)


@pytest.fixture(scope="module")
def captured(image):
    """Per scenario: the replay inputs ``simulate_fleet`` built, the
    outcome it got back, and the fleet.queue events it emitted."""
    from repro.obs import FlightRecorder

    out = {}
    for name, spec in SCENARIOS.items():
        spec = dict(spec)
        config = SoftCacheConfig(tcache_size=8192, **spec.pop("config"))
        seen = {}

        def spy(traces, boots, **kw):
            sim = run_event_sim(traces, boots, **kw)
            seen.update(traces=traces, boots=boots, sim=sim,
                        kw={k: v for k, v in kw.items()
                            if k != "recorder"})
            return sim

        recorder = FlightRecorder()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fleet_mod, "run_event_sim", spy)
            fleet_mod.simulate_fleet(image, spec.pop("n_clients"), config,
                                     recorder=recorder, **spec)
        seen["queue_events"] = [
            (e.cycles, e.dur_cycles, e.args) for e in recorder.events
            if e.name == "fleet.queue"]
        out[name] = seen
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fleet_replay_matches_reference(captured, name):
    """What simulate_fleet got from the replay is what the reference
    loop produces from the same inputs, recorder events included."""
    cap = captured[name]
    log = EventLog()
    want = reference_replay(cap["traces"], cap["boots"], recorder=log,
                            **cap["kw"])
    assert dataclasses.asdict(cap["sim"]) == dataclasses.asdict(want)
    assert cap["queue_events"] == [
        (cycles, dur, args) for _, _, cycles, dur, args in log.events]
    assert cap["sim"].delayed_requests > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("n_shards", [1, 3, 4])
@pytest.mark.parametrize("hub_capacity", [0, 512, 64 * 1024])
@pytest.mark.parametrize("stagger_s", [0.0, 50e-6])
def test_replay_matrix_matches_reference(captured, name, n_shards,
                                         hub_capacity, stagger_s):
    cap = captured[name]
    traces = cap["traces"]
    kw = dict(cap["kw"], n_shards=n_shards, hub_capacity=hub_capacity)
    boots = [i * stagger_s for i in range(len(traces))]
    assert_same_replay(traces, boots, **kw)


def test_small_hub_evicts(captured):
    """The 512 B hub of the matrix is under capacity pressure: it
    misses demand chunks a 64 KiB hub still holds."""
    cap = captured["ebb_prefetch"]
    hits = {cap_bytes: run_event_sim(
        cap["traces"], cap["boots"],
        **dict(cap["kw"], hub_capacity=cap_bytes)).hub_hits
        for cap_bytes in (512, 64 * 1024)}
    assert hits[512] < hits[64 * 1024]


# -- synthetic traces --------------------------------------------------

KEYS = st.lists(st.tuples(st.integers(0, 6), st.sampled_from(
    [0, 40, 100, 250])), max_size=3).map(tuple)


@st.composite
def replays(draw):
    n_shards = draw(st.integers(1, 4))
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        starts = sorted(draw(st.lists(st.integers(0, 400), max_size=6)))
        records = [RpcRecord(
            start_cycles=s, kind="chunk",
            wire_s=draw(st.integers(0, 4)) * 1e-6, wire_bytes=0,
            traversals=1, shard=draw(st.integers(-1, n_shards + 1)),
            keys=draw(KEYS)) for s in starts]
        total = (starts[-1] if starts else 0) + draw(st.integers(0, 50))
        traces.append(ClientTrace(records=records, total_cycles=total))
    n_clients = draw(st.integers(1, 8))
    # replicated clients share trace objects, as in simulate_fleet
    fleet = [traces[draw(st.integers(0, len(traces) - 1))]
             for _ in range(n_clients)]
    boots = [draw(st.sampled_from([0.0, 1e-6, 2.5e-6]))
             for _ in range(n_clients)]
    kw = dict(costs=DEFAULT_COSTS, n_shards=n_shards,
              origin_service_s=draw(st.sampled_from([0.0, 1.5e-6])),
              hub_capacity=draw(st.sampled_from([0, 1, 100, 300, 1000])))
    return fleet, boots, kw


@settings(max_examples=300, deadline=None)
@given(replays())
def test_replay_property(case):
    fleet, boots, kw = case
    assert_same_replay(fleet, boots, **kw)


def test_round_stops_before_an_earlier_arrival():
    """Start cycles that decrease (no captured trace has them) make a
    round schedule an arrival before its own last one, and the round
    must stop there.

    With 10 us wires and a round tried after every delayed event:
    A's first RPC is served at once and B's waits, which starts a
    round of C's first RPC (15 us) and A's second (18 us).  C's second
    RPC is issued at cycle 0, so it arrives at its accumulated wait
    (5 us) and must be served before A's.
    """
    us = int(DEFAULT_COSTS.cpu_hz // 1_000_000)

    def trace(*starts):
        return ClientTrace(records=[RpcRecord(
            start_cycles=s * us, kind="data", wire_s=10e-6,
            wire_bytes=0, traversals=1, shard=-1, keys=())
            for s in starts], total_cycles=max(starts) * us)

    fleet = [trace(0, 18), trace(0, 30), trace(15, 0)]
    sim = assert_same_replay(fleet, [0.0] * 3, costs=DEFAULT_COSTS)
    # C's second RPC (5 us) went first, at 30 us, and A's waited
    # until 40 us
    assert sim.waits[2] == pytest.approx(5e-6 + 25e-6)
    assert sim.waits[0] == pytest.approx(40e-6 - 18e-6)


def test_saturated_fleet_at_default_round_constants():
    """1,000 clients booting at once saturate the uplink, so the
    replay serves most of its 32,000 RPCs in rounds at the module's
    own constants, through a small hub and busy origin shards."""
    rng = random.Random(11)
    traces = []
    for _ in range(5):
        start, records = 0, []
        for _ in range(32):
            start += rng.randrange(400, 4000)
            n_keys = rng.choice((0, 1, 1, 1, 2, 3))
            records.append(RpcRecord(
                start_cycles=start, kind="chunk",
                wire_s=rng.choice((2e-6, 3e-6, 5e-6)), wire_bytes=0,
                traversals=1, shard=rng.randrange(-1, 5),
                keys=tuple((rng.randrange(40), rng.choice((64, 128)))
                           for _ in range(n_keys))))
        traces.append(ClientTrace(records=records,
                                  total_cycles=start + 1000))
    fleet = [traces[c % len(traces)] for c in range(1000)]
    boots = [(c % 7) * 1e-6 for c in range(1000)]
    sim = assert_same_replay(fleet, boots, costs=DEFAULT_COSTS,
                             n_shards=4, origin_service_s=1e-6,
                             hub_capacity=2048)
    assert sim.delayed_requests > 0.99 * 32_000
    assert 0 < sim.hub_hits < sim.hub_requests


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400), st.lists(KEYS, max_size=12))
def test_admit_is_probe_refresh_reinsert(capacity, batches):
    """LruChunkCache.admit is the reference hub step: same hit, same
    LRU order, same bytes and evictions."""
    fused, plain = LruChunkCache(capacity), LruChunkCache(capacity)
    for keys in batches:
        hit = bool(keys) and keys[0][0] in plain
        if hit:
            plain.touch(keys[0][0])
        for key, size in keys:
            plain.insert(key, size)
        assert fused.admit(keys) == hit
        assert list(fused.entries.items()) == \
            list(plain.entries.items())
        assert (fused.cached_bytes, fused.evictions) == \
            (plain.cached_bytes, plain.evictions)

