"""Live code update: versioned images, epoch barriers, hot-patch fleet.

The update claim in one sentence: publishing a layout-preserving new
image mid-run must leave the client in a state *observably identical*
to a clean run of the new image — under every fault preset, across a
fleet, and with no resident superblock ever fusing code from two
epochs (the torn-version invariant, audited by
:func:`check_consistency`).

Observable (text + data + exit + output) rather than architectural
state is the oracle for update differentials: the barrier's timing
shifts local RAM placement legitimately, so registers and heap bytes
may differ while every guest-visible effect must not.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FaultPlan, LinkModel, RetryPolicy
from repro.net.hub import HubChannel, hub_key, with_hub
from repro.fleet import simulate_fleet
from repro.sim import jitcache, run_native
from repro.softcache import (MemoryController, SoftCacheConfig,
                             SoftCacheSystem)
from repro.softcache.debug import (ConsistencyError, check_consistency,
                                   observable_state)
from repro.softcache.update import (UpdateSchedule, derive_patched_image,
                                    image_digest, load_image,
                                    parse_update_spec, save_image,
                                    swap_sites)
from repro.workloads import build_workload

WORKLOADS = ("sensor", "adpcm_enc")
SCALE = 0.05

_images = {}


def image_of(workload):
    if workload not in _images:
        _images[workload] = build_workload(workload, SCALE)
    return _images[workload]


def patched_of(workload, seed=1):
    key = (workload, "patched", seed)
    if key not in _images:
        _images[key] = derive_patched_image(image_of(workload),
                                            seed=seed)
    return _images[key]


def run_under(image, plan=None, policy=None, **kw):
    config = SoftCacheConfig(tcache_size=2048, record_timeline=False,
                             debug_poison=True, fault_plan=plan,
                             retry_policy=policy, **kw)
    system = SoftCacheSystem(image, config)
    report = system.run()
    return system, report


_clean = {}


def clean_patched_digest(workload):
    """Observable digest of a clean, fault-free run of the patched
    image — the oracle every update differential converges to."""
    if workload not in _clean:
        system, report = run_under(patched_of(workload))
        _clean[workload] = (observable_state(system), report)
    return _clean[workload]


# -- the patched image itself ------------------------------------------


def test_image_digest_is_content_addressed():
    a = image_of("sensor")
    assert image_digest(a) == image_digest(a)
    assert image_digest(a) == image_digest(build_workload("sensor",
                                                          SCALE))
    assert image_digest(a) != image_digest(image_of("adpcm_enc"))
    assert image_digest(a) != image_digest(patched_of("sensor"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_patched_image_is_behaviourally_equivalent(workload):
    """derive_patched_image only swaps adjacent independent ALU ops:
    different text bytes, identical layout, identical native
    behaviour — exactly what a hot patch needs."""
    base, patched = image_of(workload), patched_of(workload)
    assert bytes(patched.text) != bytes(base.text)
    assert patched.text_base == base.text_base
    assert len(patched.text) == len(base.text)
    assert patched.data == base.data
    assert patched.entry == base.entry
    assert swap_sites(base), "workload must offer swap sites"
    a = run_native(base)
    b = run_native(patched)
    assert b.output == a.output
    assert b.cpu.exit_code == a.cpu.exit_code


def test_save_load_image_roundtrip(tmp_path):
    image = patched_of("sensor")
    path = tmp_path / "patched.img"
    save_image(image, path)
    loaded = load_image(path)
    assert image_digest(loaded) == image_digest(image)
    assert loaded.name == image.name


# -- MC version store --------------------------------------------------


def test_publish_bumps_epoch_and_is_idempotent():
    mc = MemoryController(image_of("sensor"))
    patched = patched_of("sensor")
    assert mc.epoch == 0
    assert mc.publish(patched) == 1
    assert mc.epoch == 1
    assert mc.image is patched
    # republishing the current content is a no-op, not epoch 2
    assert mc.publish(patched_of("sensor")) == 1
    assert mc.stats.publish_noops == 1
    spans = mc.dirty_spans_between(0, 1)
    assert spans and all(a < b for a, b in spans)
    assert mc.epoch_of_digest(image_digest(patched)) == 1
    assert mc.epoch_of_digest("0" * 32) is None
    assert mc.knows_image(image_of("sensor"))
    assert mc.epoch_servable(0) and mc.epoch_servable(1)
    assert not mc.epoch_servable(7)


def test_publish_rejects_layout_change():
    # a different program has a different text size: not hot-patchable
    mc = MemoryController(image_of("sensor"))
    with pytest.raises(ValueError, match="layout-preserving"):
        mc.publish(image_of("adpcm_enc"))


def test_restart_rolls_back_non_durable_publish():
    mc = MemoryController(image_of("sensor"))
    durable = patched_of("sensor", seed=1)
    canary = patched_of("sensor", seed=2)
    mc.publish(durable)
    assert mc.publish(canary, durable=False) == 2
    mc.restart()
    assert mc.epoch == 1
    assert mc.image_digest == image_digest(durable)
    assert mc.stats.publish_rollbacks == 1
    # the retired canary epoch is gone; dirty-span queries crossing it
    # degrade to whole-text (conservative, never incomplete)
    assert not mc.epoch_servable(2)
    spans = mc.dirty_spans_between(0, 2)
    img = mc.image
    assert spans == ((img.text_base, img.text_end),)


@pytest.mark.parametrize("depth", [0, 2])
def test_stale_serve_bills_the_bytes_the_link_carries(depth):
    """A lagging client's batch is billed like a current client's:
    each chunk's payload bytes, exit records included."""
    mc = MemoryController(image_of("sensor"))
    mc.publish(patched_of("sensor"))
    mc.client_epoch = 0
    batch = mc.serve_batch(image_of("sensor").entry, depth,
                           lambda orig: False)
    assert mc.stats.stale_serves == 1
    assert len(batch) == depth + 1
    assert mc.stats.bytes_served == sum(c.payload_bytes
                                        for c, _ in batch)


# -- update specs ------------------------------------------------------


def test_parse_update_spec_variants(tmp_path):
    base = image_of("sensor")
    e = parse_update_spec("5000:patch", base)
    assert e.at_cycles == 5000 and e.durable
    assert e.digest == image_digest(patched_of("sensor"))
    e2 = parse_update_spec("6000:patch:3", base)
    assert e2.digest == image_digest(patched_of("sensor", seed=3))
    path = tmp_path / "img.bin"
    save_image(patched_of("sensor"), path)
    e3 = parse_update_spec(f"7000:@{path}", base)
    assert e3.digest == e.digest
    e4 = parse_update_spec("8000:~patch", base)
    assert not e4.durable
    for bad in ("nocolon", "x:patch", "100:@/no/such/file"):
        with pytest.raises((ValueError, OSError)):
            parse_update_spec(bad, base)


def test_schedule_rejects_duplicate_digest():
    base = image_of("sensor")
    with pytest.raises(ValueError):
        UpdateSchedule.from_specs(("100:patch", "200:patch"), base)


# -- the core differential ---------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_mid_run_update_converges_to_clean_patched_run(workload):
    digest, clean_report = clean_patched_digest(workload)
    system, report = run_under(image_of(workload),
                               update_at=("20000:patch",))
    s = system.stats
    assert s.update_barriers >= 1
    assert s.update_invalidated_blocks > 0
    assert s.update_text_patched_words > 0
    assert system.mc.epoch == 1
    assert system.cc._epoch == 1
    assert observable_state(system) == digest
    assert report.output == clean_report.output
    assert report.exit_code == clean_report.exit_code
    assert check_consistency(system.cc) > 0


def test_no_publish_is_bit_identical_to_seed_behaviour():
    """The whole machinery must be invisible when unused: a run with
    no update schedule matches a run built before the feature existed
    (architecturally, not just observably)."""
    from repro.softcache.debug import architectural_state
    a, _ = run_under(image_of("sensor"))
    b, _ = run_under(image_of("sensor"), update_at=())
    assert architectural_state(a) == architectural_state(b)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("preset", ("lossy", "chaos"))
def test_update_under_fault_presets(workload, preset):
    digest, clean_report = clean_patched_digest(workload)
    plan = getattr(FaultPlan, preset)(seed=3)
    system, report = run_under(image_of(workload), plan,
                               RetryPolicy(max_attempts=3, jitter=0.0),
                               update_at=("20000:patch",))
    assert system.faults.fault_stats.attempts \
        > system.faults.fault_stats.delivered
    assert system.cc._epoch == 1
    assert observable_state(system) == digest
    assert report.output == clean_report.output
    assert check_consistency(system.cc) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_update_across_partition_and_mc_restart(workload):
    """The worst composite: the publish lands while the link is
    partitioned and the MC crash-restarts right after — the barrier
    must still install exactly the new version."""
    digest, clean_report = clean_patched_digest(workload)
    plan = FaultPlan(seed=5, drop_reply_p=0.02,
                     partitions=((25, 70),), mc_crash_epochs=(80,))
    system, report = run_under(image_of(workload), plan,
                               RetryPolicy(max_attempts=3, jitter=0.0),
                               update_at=("20000:patch",),
                               prefetch_depth=2)
    assert system.faults.fault_stats.mc_restarts == 1
    assert system.cc._epoch == 1
    assert not system.cc.pending_misses
    assert observable_state(system) == digest
    assert report.output == clean_report.output
    assert check_consistency(system.cc) > 0


def test_non_durable_publish_survives_or_rolls_back_cleanly():
    """An MC crash after a non-durable publish rolls the store back;
    the schedule re-asserts the version so the run still converges to
    the patched image."""
    digest, clean_report = clean_patched_digest("sensor")
    plan = FaultPlan(seed=2, mc_crash_epochs=(60,))
    system, report = run_under(image_of("sensor"), plan,
                               RetryPolicy(max_attempts=3, jitter=0.0),
                               update_at=("20000:~patch",))
    assert system.faults.fault_stats.mc_restarts == 1
    assert system.cc._epoch == system.mc.epoch
    assert observable_state(system) == digest
    assert report.output == clean_report.output
    assert check_consistency(system.cc) > 0


# -- epoch audit (torn-version invariant) ------------------------------


def test_epoch_audit_catches_mixed_resident_epochs():
    system, _ = run_under(image_of("sensor"),
                          update_at=("20000:patch",))
    resident = list(system.cc.tcache.order)
    assert resident, "run must leave resident blocks"
    resident[0].epoch = 0  # simulate a torn update
    with pytest.raises(ConsistencyError, match="mixes image epochs"):
        check_consistency(system.cc)


def test_epoch_audit_catches_controller_lag():
    system, _ = run_under(image_of("sensor"),
                          update_at=("20000:patch",))
    for block in system.cc.tcache.order:
        block.epoch = 0
    with pytest.raises(ConsistencyError, match="observes epoch"):
        check_consistency(system.cc)


def test_epoch_audit_catches_retired_pending_miss():
    system, _ = run_under(image_of("sensor"))
    cc = system.cc
    cc.channel.down = True  # parked misses are only legal when down
    cc.pending_misses.append(0x9999)
    cc.pending_miss_epochs[0x9999] = 41  # never-published epoch
    with pytest.raises(ConsistencyError, match="retired epoch"):
        check_consistency(cc)


# -- persistent caches across epochs -----------------------------------


def test_jit_artifact_key_is_epoch_namespaced():
    words = (1, 2, 3)
    legacy = jitcache.artifact_key("sig", words)
    assert "-" not in legacy  # unversioned runs keep bare-hex keys
    tagged = jitcache.artifact_key("sig", words, "abc123")
    assert tagged.startswith("iabc123-")
    assert jitcache.artifact_key("sig", words, "def456") != tagged
    assert jitcache.artifact_path(tagged).name \
        == f"{jitcache.ARTIFACT_PREFIX}{tagged}{jitcache.ARTIFACT_SUFFIX}"


def test_jit_sweep_retires_dead_image_tags(tmp_path):
    def touch(digest):
        p = tmp_path / (jitcache.ARTIFACT_PREFIX + digest
                        + jitcache.ARTIFACT_SUFFIX)
        p.write_text("x")
        return p

    legacy = touch("cafe01")
    live = touch("iaaa-cafe02")
    dead = touch("ibbb-cafe03")
    removed = jitcache.sweep_stale(tmp_path, image_tags={"aaa"})
    assert removed == 1
    assert legacy.exists() and live.exists()
    assert not dead.exists()


def test_trace_cache_key_sees_image_content():
    from repro.eval.common import _trace_key
    base = image_of("sensor")
    patched = patched_of("sensor")
    k0 = _trace_key("sensor", SCALE, False, base, 10**9)
    k1 = _trace_key("sensor", SCALE, False, patched, 10**9)
    assert k0 != k1, ("trace cache must not serve a stale trace for "
                      "a republished image")


# -- fleet rollout -----------------------------------------------------


def test_fleet_rollout_wavefront():
    image = image_of("sensor")
    config = SoftCacheConfig(tcache_size=2048, record_timeline=False,
                             update_at=("20000:patch",))
    r = simulate_fleet(image, 6, config, stagger_s=2e-3)
    assert r.final_epoch == 1
    assert r.clients_converged == 6
    assert len(r.rollout_wavefront_s) == 6
    assert r.rollout_wavefront_s == sorted(r.rollout_wavefront_s)
    assert r.rollout_makespan_s == r.rollout_wavefront_s[-1]
    assert all(c.final_epoch == 1 for c in r.clients)
    # staggered boots -> staggered barrier times
    assert r.rollout_wavefront_s[-1] > r.rollout_wavefront_s[0]


def test_fleet_without_update_has_empty_wavefront():
    image = image_of("sensor")
    config = SoftCacheConfig(tcache_size=2048, record_timeline=False)
    r = simulate_fleet(image, 3, config)
    assert r.final_epoch == 0
    assert r.rollout_wavefront_s == []
    assert r.rollout_makespan_s == 0.0


# -- multi-tenant hub --------------------------------------------------


def test_hub_keys_are_group_and_epoch_scoped():
    mc = MemoryController(image_of("sensor"))
    assert hub_key(mc, 0x100) == 0x100  # bit-identity for legacy runs
    mc.last_served_epoch = 2
    assert hub_key(mc, 0x100) == ("default", 2, 0x100)
    tenant = MemoryController(image_of("sensor"), group="a")
    assert hub_key(tenant, 0x100) == ("a", 0, 0x100)


def test_shared_hub_isolates_tenant_groups():
    """Two tenants (different programs, different groups) behind one
    hub: each converges to its own correct output and no hub entry
    ever crosses groups."""
    near, far = LinkModel(), LinkModel(bandwidth_bps=2e6,
                                       latency_s=5e-3)
    hub = HubChannel(near, far, 64 * 1024)
    systems = {}
    for group, workload in (("a", "sensor"), ("b", "adpcm_enc")):
        mc = MemoryController(image_of(workload), group=group)
        config = SoftCacheConfig(tcache_size=2048,
                                 record_timeline=False)
        system = SoftCacheSystem(image_of(workload), config,
                                 shared_mc=mc)
        with_hub(system, hub=hub)
        systems[group] = system
    reports = {g: s.run() for g, s in systems.items()}
    for group, workload in (("a", "sensor"), ("b", "adpcm_enc")):
        native = run_native(image_of(workload))
        assert reports[group].output == native.output_text
        assert reports[group].exit_code == (native.cpu.exit_code or 0)
    keys = list(hub._cache.entries)
    assert keys, "hub must have cached chunks"
    assert all(isinstance(k, tuple) and k[0] in ("a", "b")
               for k in keys)
    assert {k[0] for k in keys} == {"a", "b"}


# -- epoch-straddling retries (hypothesis) -----------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16),
       delay_p=st.sampled_from((0.0, 0.05, 0.15)),
       dup_p=st.sampled_from((0.0, 0.1)))
def test_epoch_straddling_retries_install_exactly_one_version(
        seed, delay_p, dup_p):
    """Delays and duplicated replies across the publish boundary: a
    retry raced with the epoch bump must resolve to exactly one
    version — the client converges to the patched image with a
    uniform-epoch resident set and reconciled counters."""
    digest, clean_report = clean_patched_digest("sensor")
    plan = FaultPlan(seed=seed, drop_request_p=0.04,
                     drop_reply_p=0.04, duplicate_p=dup_p,
                     delay_p=delay_p, delay_s=2e-3)
    system, report = run_under(image_of("sensor"), plan,
                               RetryPolicy(max_attempts=3, jitter=0.0),
                               update_at=("20000:patch",))
    cc = system.cc
    assert cc._epoch == 1
    assert observable_state(system) == digest
    assert report.output == clean_report.output
    assert report.exit_code == clean_report.exit_code
    assert check_consistency(cc) > 0
    epochs = {b.epoch for b in cc.tcache.order}
    epochs |= {b.epoch for b in cc.tcache.pinned_blocks}
    assert epochs <= {1}, f"resident set spans epochs {epochs}"
    assert not cc.pending_misses and not cc.pending_miss_epochs
    s = system.stats
    assert s.update_barriers >= 1
    assert s.update_invalidated_blocks + s.update_restamped_blocks \
        >= s.update_barriers
    fs = system.faults.fault_stats
    assert fs.attempts >= fs.delivered
