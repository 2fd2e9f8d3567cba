"""Replacement-policy layer: registry, hooks, differential guarantees.

Three tiers:

* **Unit** — each policy's admission/eviction/metadata logic against a
  stub controller (no simulator in the loop).
* **Registry** — one source of truth for policy names shared by the
  CLI parser, `admin set` and `SoftCacheConfig`; every entry point
  must reject an unknown name with the full valid set in the error.
* **Differential** — policies may change *which* chunks are
  speculatively resident and *when* the cache drops, but never what
  the program computes: program output and exit code are pinned
  identical across all policies.  (Instruction counts are **not**
  invariant — miss traps execute guest instructions and the trap
  pattern differs per policy — so the differential deliberately does
  not compare them.)
"""

from types import SimpleNamespace

import pytest

from repro.net import LOCAL_LINK
from repro.softcache import (
    EVICT,
    FLUSH,
    FifoPolicy,
    FlushPolicy,
    NhitPolicy,
    POLICIES,
    ReplacementPolicy,
    SoftCacheConfig,
    SoftCacheSystem,
    make_policy,
    policy_names,
    validate_policy_name,
)
from repro.softcache.debug import check_consistency
from repro.softcache.records import TBlock
from repro.softcache.stats import SoftCacheStats
from repro.workloads import build_workload


def _block(orig, orig_size=16):
    return TBlock(orig=orig, addr=0, size=orig_size,
                  orig_size=orig_size, extra_words=0)


def _bound(policy):
    """Bind *policy* to just enough controller for its hooks."""
    policy.bind(SimpleNamespace(stats=SoftCacheStats(), tracer=None))
    return policy


# -- registry: one source of truth ------------------------------------------

def test_policy_names_sorted_and_complete():
    assert policy_names() == tuple(sorted(POLICIES))
    assert set(policy_names()) == {"fifo", "flush", "nhit"}


def test_validate_lists_every_valid_name():
    with pytest.raises(ValueError) as exc:
        validate_policy_name("lru")
    for name in policy_names():
        assert name in str(exc.value)


def test_make_policy_resolves_names_and_passes_instances():
    assert isinstance(make_policy("fifo"), FifoPolicy)
    assert make_policy("nhit").n == 2
    obj = NhitPolicy(n=7)
    assert make_policy(obj) is obj


def test_config_validates_eagerly():
    """A bad name fails at config construction, not at first miss."""
    with pytest.raises(ValueError) as exc:
        SoftCacheConfig(policy="clock")
    for name in policy_names():
        assert name in str(exc.value)
    # instances bypass name validation entirely
    SoftCacheConfig(policy=NhitPolicy(n=1))


def test_cli_choices_come_from_registry(capsys):
    """argparse rejects an unregistered name on every policy-bearing
    subcommand — the choices list is `policy_names()`, not a copy."""
    from repro.cli import main
    for argv in (["run", "sensor", "--policy", "lru"],
                 ["trace", "sensor", "--policy", "lru"],
                 ["fleet", "sensor", "--policy", "lru"],
                 ["chaos", "--policy", "lru"],
                 ["admin", "set", "--policy", "lru"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in policy_names():
            assert name in err


def test_constructor_parameter_validation():
    with pytest.raises(ValueError):
        NhitPolicy(n=0)


# -- fifo / flush ------------------------------------------------------------

def test_fifo_is_all_noops():
    policy = _bound(FifoPolicy())
    block = _block(0x100)
    policy.on_install(block, prefetched=False)
    policy.on_hit(block)
    assert policy.on_evict_candidate(block) == EVICT
    assert policy.admit_prefetch(0x999) is True
    assert policy.filters_prefetch is False
    assert policy.snapshot() == {"name": "fifo"}


def test_flush_always_answers_flush():
    policy = _bound(FlushPolicy())
    assert policy.on_evict_candidate(_block(0x100)) == FLUSH
    assert policy.filters_prefetch is False


# -- nhit --------------------------------------------------------------------

def test_nhit_promotes_after_n_touches():
    policy = _bound(NhitPolicy(n=2))
    assert policy.filters_prefetch is True
    assert policy.admit_prefetch(0x100) is False
    block = _block(0x100)
    policy.on_install(block, prefetched=False)       # touch 1
    assert policy.admit_prefetch(0x100) is False
    policy.on_hit(block)                             # touch 2: promote
    assert policy.admit_prefetch(0x100) is True
    assert policy.cc.stats.policy_promotions == 1
    # further touches don't re-promote
    policy.on_hit(block)
    assert policy.cc.stats.policy_promotions == 1


def test_nhit_speculative_installs_are_not_touches():
    policy = _bound(NhitPolicy(n=1))
    policy.on_install(_block(0x100), prefetched=True)
    assert policy.admit_prefetch(0x100) is False
    policy.on_install(_block(0x100), prefetched=False)
    assert policy.admit_prefetch(0x100) is True


def test_nhit_history_survives_flush_but_not_reset():
    """A flush never reaches the policy, so an address that keeps
    coming back stays promoted across it; only reset() forgets."""
    image = build_workload("sensor", 0.05)
    policy = NhitPolicy(n=1)
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=2048, link=LOCAL_LINK, policy=policy,
        record_timeline=False))
    system.run(600_000_000)
    touched = dict(policy.touches)
    orig = next(iter(touched))
    system.cc.flush()
    assert policy.touches == touched
    assert policy.admit_prefetch(orig) is True
    policy.reset()
    assert policy.admit_prefetch(orig) is False
    assert policy.snapshot()["tracked_origs"] == 0


# -- differential: same program, same answer ---------------------------------

@pytest.mark.parametrize("depth", [0, 2])
def test_policies_are_output_equivalent(depth):
    """Every policy — through a thrashing tcache, with and without
    prefetch — must produce the byte-identical program output and
    exit code of the fifo run, and end structurally consistent."""
    image = build_workload("sensor", 0.05)
    baseline = None
    for label in policy_names():
        system = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=1024, link=LOCAL_LINK, prefetch_depth=depth,
            policy=label, record_timeline=False, debug_poison=True))
        report = system.run(600_000_000)
        assert check_consistency(system.cc) > 0, label
        got = (report.output, report.exit_code)
        if baseline is None:
            baseline = got
        else:
            assert got == baseline, (
                f"policy {label} changed program behavior")


def test_nhit_reduces_prefetch_waste_on_small_tcache():
    """The acceptance criterion, as a test: on the thrashing sensor
    config at prefetch_depth >= 2, nhit must reject candidates at
    batch-assembly time and ship strictly less doomed traffic
    (dropped + wasted prefetch bytes) than fifo."""
    image = build_workload("sensor", 0.05)

    def doomed_bytes(policy):
        system = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=1024, link=LOCAL_LINK, prefetch_depth=4,
            policy=policy, record_timeline=False))
        system.run(600_000_000)
        s = system.stats
        return (s.prefetch_dropped_bytes + s.wasted_prefetch_bytes,
                s.policy_prefetch_rejects, s.prefetch_drops)

    fifo_doomed, fifo_rejects, fifo_drops = doomed_bytes(FifoPolicy())
    nhit_doomed, nhit_rejects, nhit_drops = doomed_bytes(NhitPolicy(2))
    assert fifo_rejects == 0
    assert nhit_rejects > 0
    assert nhit_doomed < fifo_doomed
    assert nhit_drops < fifo_drops


def test_inspect_reports_policy_state():
    image = build_workload("sensor", 0.05)
    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=2048, link=LOCAL_LINK, policy="nhit",
        record_timeline=False))
    system.run(600_000_000)
    snap = system.inspect()["tcache"]["policy_state"]
    assert snap["name"] == "nhit"
    assert snap["n"] == 2
    assert snap["tracked_origs"] > 0


def test_custom_policy_subclass_plugs_in():
    """The interface is the contract: a user-defined policy that
    rejects everything still runs the program to the right answer —
    prefetch admission can only shape speculation, not correctness."""

    class RejectAll(ReplacementPolicy):
        name = "reject-all"
        filters_prefetch = True

        def admit_prefetch(self, orig):
            return False

    image = build_workload("sensor", 0.05)
    plain = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=1024, link=LOCAL_LINK, prefetch_depth=2,
        record_timeline=False))
    want = plain.run(600_000_000)

    system = SoftCacheSystem(image, SoftCacheConfig(
        tcache_size=1024, link=LOCAL_LINK, prefetch_depth=2,
        policy=RejectAll(), record_timeline=False))
    report = system.run(600_000_000)
    assert report.output == want.output
    assert report.exit_code == want.exit_code
    # everything rejected: no prefetch ever installed
    assert system.stats.prefetch_installs == 0
    assert system.stats.policy_prefetch_rejects > 0
