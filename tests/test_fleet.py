"""Fleet simulation (Figure 1: one server, many devices).

The fleet runs on a discrete-event scheduler: one simulated clock,
live uplink/shard contention.  These tests pin the contract: a
1-client fleet is bit-identical to a solo run, queueing stays within
the M/D/1 bound at low utilization, fault plans compose with the live
queue, and sharding the MC never changes architectural state.  See
docs/FLEET.md (tests/test_fleet_replay.py pins the replay loop itself).
"""

import pytest

import repro.fleet.fleet as fleet_mod
from repro.fleet import simulate_fleet
from repro.net import FaultPlan, LinkModel, RetryPolicy
from repro.softcache import (
    MemoryController,
    SoftCacheConfig,
    SoftCacheSystem,
)
from repro.softcache.debug import architectural_state
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def image():
    return build_workload("sensor", 0.05)


@pytest.fixture(scope="module")
def config():
    return SoftCacheConfig(tcache_size=8192, record_timeline=True)


def requests_replayed(monkeypatch):
    """Patch the replay to count the RPCs it schedules; returns the
    list the count is appended to."""
    counts = []
    replay = fleet_mod.run_event_sim

    def counting(traces, boots, **kw):
        counts.append(sum(len(t.records) for t in traces))
        return replay(traces, boots, **kw)
    monkeypatch.setattr(fleet_mod, "run_event_sim", counting)
    return counts


def test_single_client(image, config):
    result = simulate_fleet(image, 1, config)
    assert result.n_clients == 1
    assert result.clients[0].report.exit_code == 0
    assert result.mean_queue_delay_s == 0.0 or \
        result.delayed_requests >= 0
    assert result.chunk_cache_sharing == 0.0  # nothing to share


def test_single_client_bit_identical_to_solo(image, config):
    """A 1-client event fleet IS the solo run: same simulated seconds
    (exactly — arrivals are derived from integer cycle counts, never
    accumulated float deltas) and same architectural digest."""
    solo = SoftCacheSystem(image, config)
    report = solo.run()
    fleet = simulate_fleet(image, 1, config)
    assert fleet.makespan_s == report.seconds
    assert fleet.clients[0].report.seconds == report.seconds
    assert fleet.clients[0].queue_delay_s == 0.0
    assert fleet.architectural_digest == architectural_state(solo)


def test_chunk_cache_sharing_grows_with_fleet(image, config):
    result = simulate_fleet(image, 8, config)
    # the server rewrote each chunk once; 7/8 of requests were cache hits
    assert result.mc_chunks_built * 8 == result.mc_requests
    assert result.chunk_cache_sharing == pytest.approx(7 / 8)


def test_clients_identical_results(image, config):
    result = simulate_fleet(image, 4, config, stagger_s=0.01)
    outputs = {c.report.output for c in result.clients}
    assert len(outputs) == 1
    translations = {c.translations for c in result.clients}
    assert len(translations) == 1


def test_stagger_spreads_load(image, config):
    burst = simulate_fleet(image, 6, config, stagger_s=0.0)
    spread = simulate_fleet(image, 6, config, stagger_s=0.05)
    # simultaneous boot queues requests; staggering removes the queue
    assert spread.mean_queue_delay_s <= burst.mean_queue_delay_s
    assert burst.delayed_requests > 0
    assert burst.max_queue_delay_s > 0


def test_low_load_delay_within_md1_bound(image, config, monkeypatch):
    """Acceptance: below 20% uplink utilization the live event model's
    mean queueing delay stays within the M/D/1 mean wait
    rho * S / (2 * (1 - rho)) for the same load and mean service time
    S — staggered deterministic clients queue no worse than Poisson
    arrivals would."""
    counts = requests_replayed(monkeypatch)
    ev = simulate_fleet(image, 6, config, stagger_s=0.04)
    rho = ev.link_utilization
    assert 0.0 < rho < 0.20
    service = ev.total_transfer_s / counts[0]
    assert ev.mean_queue_delay_s <= rho * service / (2 * (1 - rho))


def test_event_feedback_disperses_collisions(image, config, monkeypatch):
    """Under contention a client's queueing wait shifts its whole
    later timeline, so simultaneous request trains spread apart after
    the first collision instead of re-colliding every miss period
    (which would cost (n - 1) / 2 service times per request)."""
    counts = requests_replayed(monkeypatch)
    n = 6
    burst = simulate_fleet(image, n, config)
    assert burst.delayed_requests > 0
    assert all(c.queue_delay_s > 0.0 for c in burst.clients)
    # the wait is fed back: every completion moved by exactly it
    assert burst.makespan_s == max(c.end_s for c in burst.clients)
    assert sum(c.queue_delay_s for c in burst.clients) == pytest.approx(
        burst.mean_queue_delay_s * counts[0])
    service = burst.total_transfer_s / counts[0]
    assert burst.mean_queue_delay_s < (n - 1) / 2 * service


def test_chaos_fleet_composes_with_event_queue(image, config):
    """PR 4 fault plans under the event scheduler: retries are live
    uplink load (more wire occupancy than the fault-free fleet), yet
    architectural state is bit-identical — transient faults shift
    timing, never execution."""
    clean = simulate_fleet(image, 4, config)
    chaos = simulate_fleet(
        image, 4, config, fault_plan=FaultPlan.chaos(seed=7),
        retry_policy=RetryPolicy(max_attempts=8,
                                 backoff_base_s=1e-4, jitter=0.0))
    assert chaos.link_retries > 0
    assert chaos.architectural_digest == clean.architectural_digest
    assert chaos.total_transfer_s > clean.total_transfer_s


def test_sharded_mc_is_architecturally_invisible(image, config):
    """Consistent-hash sharding repartitions the server tier without
    changing what any client executes or how much the tier serves."""
    mono = simulate_fleet(image, 6, config, shards=1)
    sharded = simulate_fleet(image, 6, config, shards=4)
    assert sharded.n_shards == 4
    assert len(sharded.shard_loads) == 4
    assert sharded.architectural_digest == mono.architectural_digest
    assert sharded.mc_requests == mono.mc_requests
    assert sharded.mc_chunks_built == mono.mc_chunks_built
    # every demand chunk RPC was routed to exactly one shard
    assert sum(s.requests for s in sharded.shard_loads) == \
        sum(s.requests for s in mono.shard_loads)
    # the ring spread the key space: no shard owns everything
    loaded = [s for s in sharded.shard_loads if s.requests > 0]
    assert len(loaded) > 1
    assert sharded.shard_balance >= 1.0


def test_edge_hub_shields_origin_shards(image, config):
    """A shared edge hub absorbs repeat chunk fetches before they
    reach the origin shards — and stays architecturally invisible."""
    plain = simulate_fleet(image, 6, config, shards=2)
    hubbed = simulate_fleet(image, 6, config, shards=2,
                            hub_capacity=64 * 1024)
    assert hubbed.hub_requests > 0
    assert hubbed.hub_hits > 0
    assert 0.0 < hubbed.hub_hit_rate <= 1.0
    assert hubbed.architectural_digest == plain.architectural_digest
    # hub hits never reach a shard FIFO
    assert sum(s.requests for s in hubbed.shard_loads) < \
        sum(s.requests for s in plain.shard_loads)


def test_slow_link_raises_utilization(image):
    fast = simulate_fleet(
        image, 4, SoftCacheConfig(tcache_size=8192,
                                  link=LinkModel(bandwidth_bps=10e6)))
    slow = simulate_fleet(
        image, 4, SoftCacheConfig(tcache_size=8192,
                                  link=LinkModel(bandwidth_bps=0.5e6)))
    assert slow.total_transfer_s > fast.total_transfer_s
    assert slow.link_utilization > fast.link_utilization


def test_shared_mc_validation(image, config):
    # scale 1.0 compiles to genuinely different code; 0.1 rounds to the
    # same program as 0.05 and the check is content-based, not identity
    other = build_workload("sensor", 1.0)
    mc = MemoryController(other)
    with pytest.raises(ValueError, match="different image"):
        SoftCacheSystem(image, config, shared_mc=mc)
    mc2 = MemoryController(image, granularity="proc")
    with pytest.raises(ValueError, match="granularity"):
        SoftCacheSystem(image, config, shared_mc=mc2)


def test_empty_fleet(image, config):
    """n_clients=0 is a degenerate fleet, not an error: every
    aggregate reads as zero and no division blows up."""
    empty = simulate_fleet(image, 0, config)
    assert empty.n_clients == 0
    assert empty.clients == []
    assert empty.makespan_s == 0.0
    assert empty.link_utilization == 0.0
    assert empty.mean_queue_delay_s == 0.0
    assert empty.chunk_cache_sharing == 0.0
    assert empty.shard_balance == 0.0
    assert empty.hub_hit_rate == 0.0
    assert empty.architectural_digest is None


def test_negative_clients_rejected(image, config):
    with pytest.raises(ValueError):
        simulate_fleet(image, -1, config)


def test_replication_preserves_server_accounting(image, config):
    """Replicated clients (beyond distinct_clients) replay captured
    traces, but the server tier is still billed for every demand
    fetch they would have issued."""
    small = simulate_fleet(image, 4, config, distinct_clients=2)
    big = simulate_fleet(image, 32, config, distinct_clients=2)
    assert big.distinct_clients == 2
    assert big.mc_chunks_built == small.mc_chunks_built
    assert big.mc_requests == big.mc_chunks_built * 32
    assert big.chunk_cache_sharing == pytest.approx(31 / 32)
