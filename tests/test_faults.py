"""Fault injection: plans, retries, checksums, degraded mode.

The determinism contract is the backbone: a :class:`FaultPlan` is a
pure function of its seed, so every test here is exactly reproducible
and a failing chaos cell can be replayed from its plan spec alone.
"""

import random

import pytest

from conftest import served_reply
from repro.net import (
    LOCAL_LINK,
    Channel,
    FaultPlan,
    FaultyChannel,
    LinkModel,
    RetryPolicy,
    chunk_checksum,
    install_faults,
)
from repro.net.faults import _REACHES_SERVER, _Decider
from repro.net.hub import HubChannel, with_hub
from repro.obs import FlightRecorder
from repro.softcache import SoftCacheConfig, SoftCacheSystem
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def sensor_image():
    return build_workload("sensor", 0.05)


# -- the plan is a pure function of its seed ---------------------------


def test_decisions_are_deterministic():
    plan = FaultPlan.lossy(seed=42)
    assert plan.decisions(500) == plan.decisions(500)


def test_seeds_decorrelate_streams():
    a = FaultPlan.lossy(seed=1).decisions(300)
    b = FaultPlan.lossy(seed=2).decisions(300)
    assert a != b


def test_none_plan_never_faults():
    plan = FaultPlan.none()
    assert plan.is_none()
    assert set(plan.decisions(100)) == {"ok"}


def test_decider_outcomes_cover_the_mix():
    plan = FaultPlan(seed=3, drop_request_p=0.2, drop_reply_p=0.2,
                     corrupt_p=0.2, duplicate_p=0.1, delay_p=0.2,
                     partitions=((10, 14),), mc_crash_epochs=(5,))
    outcomes = plan.decisions(400)
    assert outcomes[5] == "mc_crash"
    assert outcomes[10:14] == ["partition"] * 4
    for kind in ("drop_request", "drop_reply", "corrupt", "duplicate",
                 "delay", "ok"):
        assert kind in outcomes, kind


def test_partition_and_crash_are_positional_not_probabilistic():
    """Windows are attempt-indexed, so they land identically whatever
    the probabilistic draws did before them."""
    base = dict(drop_request_p=0.3, partitions=((7, 9),),
                mc_crash_epochs=(3,))
    for seed in (0, 9, 77):
        outcomes = FaultPlan(seed=seed, **base).decisions(10)
        assert outcomes[3] == "mc_crash"
        assert outcomes[7:9] == ["partition", "partition"]


def test_corrupt_and_delay_carry_extra_draws():
    plan = FaultPlan(seed=11, corrupt_p=0.5, delay_p=0.5, delay_s=2e-3)
    decider = _Decider(plan)
    seen = set()
    for _ in range(200):
        outcome, info = decider.next()
        seen.add(outcome)
        if outcome == "corrupt":
            assert 0.0 <= info["where"] < 1.0
        elif outcome == "delay":
            assert 1e-3 <= info["seconds"] <= 3e-3
    assert {"corrupt", "delay"} <= seen


# -- spec parsing ------------------------------------------------------


def test_parse_presets():
    assert FaultPlan.parse("none").is_none()
    assert FaultPlan.parse("", seed=5) == FaultPlan(seed=5)
    assert FaultPlan.parse("lossy", seed=5) == FaultPlan.lossy(5)
    assert FaultPlan.parse("chaos", seed=5) == FaultPlan.chaos(5)


def test_parse_terms():
    plan = FaultPlan.parse(
        "drop=0.1,corrupt=0.05,dup=0.02,delay=0.1:0.002,"
        "partition=40:60,crash=100", seed=9)
    assert plan.seed == 9
    assert plan.drop_request_p == pytest.approx(0.05)
    assert plan.drop_reply_p == pytest.approx(0.05)
    assert plan.corrupt_p == pytest.approx(0.05)
    assert plan.duplicate_p == pytest.approx(0.02)
    assert plan.delay_p == pytest.approx(0.1)
    assert plan.delay_s == pytest.approx(0.002)
    assert plan.partitions == ((40, 60),)
    assert plan.mc_crash_epochs == (100,)


def test_parse_individual_drop_sides():
    plan = FaultPlan.parse("drop_req=0.2,drop_reply=0.1")
    assert plan.drop_request_p == pytest.approx(0.2)
    assert plan.drop_reply_p == pytest.approx(0.1)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        FaultPlan.parse("drop")
    with pytest.raises(ValueError):
        FaultPlan.parse("warp=0.5")


def test_chaos_cells_vary_by_seed():
    plans = [FaultPlan.chaos(seed) for seed in range(12)]
    assert len(set(plans)) == len(plans)
    assert any(p.partitions for p in plans)
    assert any(p.mc_crash_epochs for p in plans)
    assert all(not p.is_none() for p in plans)


# -- retry policy ------------------------------------------------------


def test_backoff_schedule_exact_without_jitter():
    policy = RetryPolicy(backoff_base_s=1e-3, backoff_factor=2.0,
                         backoff_max_s=6e-3, jitter=0.0)
    schedule = [policy.backoff_s(i, None) for i in (1, 2, 3, 4, 5)]
    assert schedule == [1e-3, 2e-3, 4e-3, 6e-3, 6e-3]  # capped


def test_backoff_jitter_is_bounded_and_seeded():
    policy = RetryPolicy(backoff_base_s=1e-3, jitter=0.25)
    draws = [policy.backoff_s(1, random.Random(7)) for _ in range(8)]
    assert len(set(draws)) == 1  # same rng state => same jitter
    rng = random.Random(7)
    for _ in range(50):
        b = policy.backoff_s(2, rng)
        assert 2e-3 * 0.75 <= b <= 2e-3 * 1.25


def test_backoff_attempt_is_one_based():
    with pytest.raises(ValueError):
        RetryPolicy().backoff_s(0, None)


# -- checksum ----------------------------------------------------------


def test_checksum_rejects_any_single_byte_flip():
    payload = bytes(range(256)) * 3
    want = chunk_checksum(payload)
    for pos in range(0, len(payload), 37):
        corrupted = bytearray(payload)
        corrupted[pos] ^= 0xFF
        assert chunk_checksum(bytes(corrupted)) != want


def test_checksum_is_stable():
    assert chunk_checksum(b"") == 0
    assert chunk_checksum(b"abc") == chunk_checksum(b"abc")


# -- FaultyChannel unit behaviour --------------------------------------


def test_install_none_plan_is_a_noop(sensor_image):
    system = SoftCacheSystem(sensor_image,
                             SoftCacheConfig(tcache_size=2048))
    chan = system.channel
    assert install_faults(system, FaultPlan.none()) is None
    assert install_faults(system, None) is None
    assert system.channel is chan
    assert system.faults is None


def test_faulty_channel_delegates_and_charges_retries():
    chan = FaultyChannel(Channel(LinkModel()),
                         FaultPlan(seed=1, drop_request_p=0.5),
                         RetryPolicy(max_attempts=8, jitter=0.0))
    seconds = chan.exchange("chunk", 256)
    clean = Channel(LinkModel()).exchange("chunk", 256)
    st = chan.fault_stats
    assert st.delivered == 1
    assert seconds >= clean
    if st.retries:
        assert seconds > clean
        assert st.timeout_seconds > 0
        assert st.backoff_seconds > 0
    assert chan.stats.exchanges == st.attempts - st.drops_request \
        - st.partition_drops - st.mc_restarts


def test_duplicate_wastes_what_its_message_costs():
    """A duplicated reply wastes its own message's wire time: a
    batch's sub-headers included, a one-way send's single leg only."""
    link = LinkModel()
    chan = FaultyChannel(Channel(link), FaultPlan(duplicate_p=1.0))
    st = chan.fault_stats
    chan.batch_exchange(
        None, served_reply((0x100, 100), (0x200, 50), (0x300, 25)))
    assert st.duplicate_wasted_s == pytest.approx(507.2e-6)
    assert st.duplicate_wasted_s == link.batch_exchange_time([100, 50, 25])
    wasted = st.duplicate_wasted_s
    chan.send("writeback", 64)
    assert st.duplicate_wasted_s - wasted == pytest.approx(220.4e-6)
    wasted = st.duplicate_wasted_s
    chan.batch_exchange(None, served_reply((0x400, 64)))
    assert st.duplicate_wasted_s - wasted == pytest.approx(
        link.exchange_time(64))
    assert st.duplicates == 3
    # the copies are not charged to the channel, only tallied
    assert chan.stats.busy_seconds == pytest.approx(
        link.batch_exchange_time([100, 50, 25]) + link.one_way_time(64)
        + link.exchange_time(64))


def test_one_way_send_reconnects_instead_of_raising():
    """Non-chunk traffic rides an acknowledged transport: even a
    partition that exhausts the retry budget reconnects internally."""
    chan = FaultyChannel(Channel(LinkModel()),
                         FaultPlan(seed=0, partitions=((0, 10),)),
                         RetryPolicy(max_attempts=3, jitter=0.0))
    seconds = chan.send("writeback", 64)
    st = chan.fault_stats
    assert st.delivered == 1
    assert st.link_down_events == 1
    assert st.reconnects == 1
    assert st.partition_drops == 3
    assert seconds > Channel(LinkModel()).send("writeback", 64)
    assert not chan.down  # delivery clears the degraded flag


def test_reaches_server_set_matches_decider_outcomes():
    """Every outcome the decider can emit is classified."""
    all_outcomes = {"ok", "delay", "duplicate", "corrupt", "drop_reply",
                    "drop_request", "partition", "mc_crash"}
    assert _REACHES_SERVER < all_outcomes


# -- hub replay accounting ---------------------------------------------


def test_hub_replay_does_not_inflate_hit_rate():
    hub = HubChannel(LinkModel(), LinkModel(bandwidth_bps=2e6,
                                            latency_s=5e-3))
    reply = served_reply((0x8000, 512))
    hub.batch_exchange(None, reply)  # fresh: miss, fills the cache
    assert hub.hub_stats.requests == 1
    assert hub.hub_stats.hub_hits == 0
    before = hub.stats.payload_bytes
    hub.replaying = True
    hub.batch_exchange(None, reply)  # link-layer retry of the same
    stats = hub.hub_stats
    assert stats.requests == 1          # not double counted
    assert stats.hub_hits == 0          # and no manufactured hit
    assert stats.replayed_requests == 1
    assert hub.stats.payload_bytes > before  # wire cost still real
    assert stats.hit_rate == 0.0


def test_faulty_hub_serves_a_batch_of_one_through_the_cache():
    """The fault layer forwards a chunk RPC of any length as a
    batch_exchange, so a batch of one reaches the hub keyed: the
    first fetch fills the cache and the second is a near-hop hit."""
    near, far = LinkModel(), LinkModel(bandwidth_bps=2e6,
                                       latency_s=5e-3)
    hub = HubChannel(near, far)
    chan = FaultyChannel(hub, FaultPlan())
    chan.batch_exchange(None, served_reply((0x100, 100)))
    t = chan.batch_exchange(None, served_reply((0x100, 100)))
    stats = hub.hub_stats
    assert (stats.requests, stats.origin_fetches, stats.hub_hits) == \
        (2, 1, 1)
    assert t == pytest.approx(near.exchange_time(100))


def test_hub_replay_batch_keeps_denominator():
    hub = HubChannel(LinkModel(), LinkModel(bandwidth_bps=2e6,
                                            latency_s=5e-3))
    reply = served_reply((1, 100), (2, 200), (3, 300))
    hub.batch_exchange(None, reply)
    assert hub.hub_stats.requests == 3
    hub.replaying = True
    hub.batch_exchange(None, reply)
    assert hub.hub_stats.requests == 3
    assert hub.hub_stats.replayed_requests == 3
    assert hub.hub_stats.replayed_far_bytes == 0  # all cached by now


# -- end to end: faults never change what the program computes ---------


def _run(image, plan=None, policy=None, recorder=None, **kw):
    config = SoftCacheConfig(tcache_size=2048, fault_plan=plan,
                             retry_policy=policy, recorder=recorder,
                             **kw)
    system = SoftCacheSystem(image, config)
    report = system.run()
    return system, report


def test_lossy_run_is_transparent_to_the_guest(sensor_image):
    base_system, base = _run(sensor_image)
    system, report = _run(sensor_image, FaultPlan.lossy(seed=4))
    st = system.faults.fault_stats
    assert st.retries > 0
    assert st.checksum_failures > 0
    assert st.attempts > st.delivered
    assert report.output == base.output
    assert report.exit_code == base.exit_code
    assert system.stats.translations == base_system.stats.translations
    # the faults cost simulated time
    assert report.cycles > base.cycles


def test_same_seed_same_faults(sensor_image):
    a, _ = _run(sensor_image, FaultPlan.lossy(seed=6))
    b, _ = _run(sensor_image, FaultPlan.lossy(seed=6))
    assert a.faults.fault_stats == b.faults.fault_stats


def test_partition_enters_degraded_mode(sensor_image):
    plan = FaultPlan(seed=0, partitions=((6, 48),))
    system, report = _run(sensor_image, plan,
                          RetryPolicy(max_attempts=3, jitter=0.0),
                          debug_poison=True)
    s = system.stats
    assert s.link_down_traps > 0
    assert s.degraded_entries > 0
    assert s.pending_miss_replays == s.degraded_entries
    assert s.degraded_stall_cycles > 0
    assert s.link_down_by_chunk  # per-chunk attribution
    assert not system.cc.pending_misses  # all replayed by run end
    base_system, base = _run(sensor_image, debug_poison=True)
    assert report.output == base.output
    assert system.stats.translations == base_system.stats.translations


def test_mc_crash_recovers_bit_identically(sensor_image):
    plan = FaultPlan(seed=2, drop_request_p=0.05,
                     mc_crash_epochs=(12, 30))
    system, report = _run(sensor_image, plan)
    assert system.faults.fault_stats.mc_restarts == 2
    assert system.mc.stats.restarts == 2
    _, base = _run(sensor_image)
    assert report.output == base.output


def test_fault_events_and_metrics_published(sensor_image):
    recorder = FlightRecorder()
    system, _ = _run(sensor_image, FaultPlan.lossy(seed=4),
                     recorder=recorder)
    names = {ev.name for ev in recorder.events}
    assert "fault.retry" in names
    assert "fault.drop" in names
    assert "fault.corrupt" in names
    snap = recorder.metrics.snapshot()
    st = system.faults.fault_stats
    assert snap["fault.attempts"] == st.attempts
    assert snap["fault.retries"] == st.retries
    assert snap["fault.checksum_failures"] == st.checksum_failures


def test_faults_compose_with_hub(sensor_image):
    """with_hub first, install_faults second: the faults wrap the near
    hop and replays stay out of the hub hit-rate."""
    config = SoftCacheConfig(tcache_size=2048, link=LinkModel())
    system = SoftCacheSystem(sensor_image, config)
    hub = with_hub(system)
    faults = install_faults(system, FaultPlan.lossy(seed=8))
    report = system.run()
    assert faults.fault_stats.retries > 0
    hs = hub.hub_stats
    assert hs.replayed_requests > 0
    assert hs.requests + hs.replayed_requests >= \
        faults.fault_stats.delivered
    plain = SoftCacheSystem(sensor_image, SoftCacheConfig(
        tcache_size=2048, link=LinkModel()))
    plain_hub = with_hub(plain)
    plain_report = plain.run()
    assert report.output == plain_report.output
    # replays never change which chunks the hub genuinely served
    assert hs.requests == plain_hub.hub_stats.requests
    assert hs.hub_hits == plain_hub.hub_stats.hub_hits


def test_prefetch_batches_survive_faults(sensor_image):
    config_kw = dict(prefetch_depth=3, link=LinkModel())
    system, report = _run(sensor_image, FaultPlan.lossy(seed=3),
                          **config_kw)
    assert system.faults.fault_stats.retries > 0
    assert system.stats.prefetch_installs > 0
    _, base = _run(sensor_image, **config_kw)
    assert report.output == base.output
