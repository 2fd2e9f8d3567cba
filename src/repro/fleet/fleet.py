"""Fleet simulation: the paper's Figure-1 deployment, event-driven.

"Two examples of this class include a distributed network of low-cost
sensors with embedded processing and distributed cell phones which
communicate with cell towers" — one server tier (MC) feeds many
embedded clients (CCs) over a shared uplink.

Each *distinct* client is a full :class:`~repro.softcache.
SoftCacheSystem` run once under a :class:`~repro.fleet.sched.WireTap`
(capture); the whole fleet — replicated clients included — is then
advanced by the discrete-event scheduler on one simulated clock, so
uplink queueing, origin-shard contention behind the edge hub, and
fault-retry storms emerge from the event interleaving instead of
being estimated post hoc.  The server side is either one shared
:class:`~repro.softcache.MemoryController` or — with ``shards > 1`` —
a consistent-hash :class:`~repro.fleet.shard.ShardedMemoryController`
whose per-shard rewrite/serve/bytes counters feed the metrics
registry.  See docs/FLEET.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from ..asm.image import Image
from ..net import LinkModel
from ..softcache import (
    MemoryController,
    RunReport,
    SoftCacheConfig,
    SoftCacheSystem,
)
from .sched import (
    ClientTrace,
    MCProbe,
    SimOutcome,
    WireTap,
    run_event_sim,
)
from .shard import ShardedMemoryController


@dataclass
class ClientResult:
    """One device's run within the fleet."""

    client_id: int
    start_s: float
    report: RunReport
    translations: int
    bytes_requested: int
    #: Total queueing wait (uplink + shard) this client accumulated
    #: on the shared clock.
    queue_delay_s: float = 0.0
    #: Image epoch the client finished on (0: never updated).
    final_epoch: int = 0
    #: Absolute fleet time (s) at which the client crossed its last
    #: update barrier; equals start_s when no update was scheduled.
    converged_s: float = 0.0

    @property
    def end_s(self) -> float:
        return self.start_s + self.report.seconds + self.queue_delay_s


@dataclass
class ShardLoad:
    """One origin shard's view of the fleet run."""

    shard: int
    #: Demand chunk RPCs the scheduler routed to this shard.
    requests: int
    #: Origin service occupancy, seconds.
    busy_s: float
    #: Server-side counters (rewrites, serves, bytes) of the shard's
    #: MemoryController; the whole fleet for an unsharded MC.
    mc_requests: int = 0
    mc_chunks_built: int = 0
    mc_bytes_served: int = 0


@dataclass
class FleetResult:
    """Aggregate outcome of a fleet simulation."""

    n_clients: int
    link: LinkModel
    clients: list[ClientResult]
    #: chunks rewritten server-side vs requests served: sharing factor
    mc_requests: int
    mc_chunks_built: int
    #: shared-uplink queue analysis
    total_transfer_s: float
    makespan_s: float
    mean_queue_delay_s: float
    max_queue_delay_s: float
    delayed_requests: int
    #: Link-layer retries across the fleet (fault injection); the
    #: replayed exchanges are real uplink load and are queued like any
    #: other request.
    link_retries: int = 0
    #: Clients actually executed (the rest replayed captured traces).
    distinct_clients: int = 0
    n_shards: int = 1
    shard_loads: list[ShardLoad] = field(default_factory=list)
    #: Origin-shard FIFO queueing.
    mean_shard_delay_s: float = 0.0
    max_shard_delay_s: float = 0.0
    #: Edge-hub traffic (``hub_capacity > 0``).
    hub_capacity: int = 0
    hub_requests: int = 0
    hub_hits: int = 0
    #: Architectural digest of the reference client (every client of a
    #: deterministic fleet reaches the same one); None for n=0.
    architectural_digest: str | None = None
    #: Image epoch the fleet converged on (0: no update scheduled).
    final_epoch: int = 0
    #: Clients that reached :attr:`final_epoch` by the end of their
    #: run (with a schedule and durable publishes this is everyone —
    #: the quiescent sync at run exit applies every due publish).
    clients_converged: int = 0
    #: Sorted absolute times (s) at which each client crossed its last
    #: update barrier — the rollout wavefront.  Empty when no client
    #: observed an update.
    rollout_wavefront_s: list[float] = field(default_factory=list)

    @property
    def rollout_makespan_s(self) -> float:
        """Time from fleet t=0 until the last client converged."""
        return self.rollout_wavefront_s[-1] \
            if self.rollout_wavefront_s else 0.0

    @property
    def link_utilization(self) -> float:
        """Busy fraction of the shared uplink over the makespan."""
        return (self.total_transfer_s / self.makespan_s
                if self.makespan_s > 0.0 else 0.0)

    @property
    def chunk_cache_sharing(self) -> float:
        """Fraction of requests served from the MC's chunk cache
        (work the server did once instead of once per client)."""
        if not self.mc_requests:
            return 0.0
        return 1.0 - self.mc_chunks_built / self.mc_requests

    @property
    def shard_balance(self) -> float:
        """Hottest shard's demand load relative to the mean (1.0 is
        perfectly balanced; 0.0 when no chunk traffic was routed)."""
        total = sum(s.requests for s in self.shard_loads)
        if not total or not self.shard_loads:
            return 0.0
        mean = total / len(self.shard_loads)
        return max(s.requests for s in self.shard_loads) / mean

    @property
    def hub_hit_rate(self) -> float:
        return (self.hub_hits / self.hub_requests
                if self.hub_requests else 0.0)

    def publish(self, registry) -> None:
        """Publish fleet aggregates and per-shard counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` (the Prometheus
        exporter serializes exactly this)."""
        g = registry.gauge
        c = registry.counter
        c("fleet.clients").inc(self.n_clients - c("fleet.clients").value)
        c("fleet.distinct_clients").inc(
            self.distinct_clients - c("fleet.distinct_clients").value)
        c("fleet.mc_requests").inc(
            self.mc_requests - c("fleet.mc_requests").value)
        c("fleet.mc_chunks_built").inc(
            self.mc_chunks_built - c("fleet.mc_chunks_built").value)
        c("fleet.delayed_requests").inc(
            self.delayed_requests - c("fleet.delayed_requests").value)
        c("fleet.link_retries").inc(
            self.link_retries - c("fleet.link_retries").value)
        c("fleet.hub_requests").inc(
            self.hub_requests - c("fleet.hub_requests").value)
        c("fleet.hub_hits").inc(
            self.hub_hits - c("fleet.hub_hits").value)
        g("fleet.makespan_s").set(self.makespan_s)
        g("fleet.total_transfer_s").set(self.total_transfer_s)
        g("fleet.link_utilization").set(self.link_utilization)
        g("fleet.mean_queue_delay_s").set(self.mean_queue_delay_s)
        g("fleet.max_queue_delay_s").set(self.max_queue_delay_s)
        g("fleet.mean_shard_delay_s").set(self.mean_shard_delay_s)
        g("fleet.chunk_cache_sharing").set(self.chunk_cache_sharing)
        g("fleet.shard_balance").set(self.shard_balance)
        g("update.final_epoch").set(self.final_epoch)
        g("update.clients_converged").set(self.clients_converged)
        g("update.rollout_makespan_s").set(self.rollout_makespan_s)
        for load in self.shard_loads:
            p = f"fleet.shard{load.shard}"
            c(f"{p}.requests").inc(
                load.requests - c(f"{p}.requests").value)
            c(f"{p}.mc_requests").inc(
                load.mc_requests - c(f"{p}.mc_requests").value)
            c(f"{p}.mc_chunks_built").inc(
                load.mc_chunks_built - c(f"{p}.mc_chunks_built").value)
            c(f"{p}.mc_bytes_served").inc(
                load.mc_bytes_served - c(f"{p}.mc_bytes_served").value)
            g(f"{p}.busy_s").set(load.busy_s)


def _empty_result(config: SoftCacheConfig, shards: int) -> FleetResult:
    return FleetResult(
        n_clients=0, link=config.link, clients=[], mc_requests=0,
        mc_chunks_built=0, total_transfer_s=0.0, makespan_s=0.0,
        mean_queue_delay_s=0.0, max_queue_delay_s=0.0,
        delayed_requests=0,
        distinct_clients=0, n_shards=max(1, shards),
        shard_loads=[ShardLoad(shard=i, requests=0, busy_s=0.0)
                     for i in range(max(1, shards))])


def simulate_fleet(image: Image, n_clients: int,
                   config: SoftCacheConfig | None = None, *,
                   stagger_s: float = 0.0,
                   max_instructions: int = 400_000_000,
                   recorder=None, fault_plan=None,
                   retry_policy=None,
                   shards: int = 1,
                   hub_capacity: int = 0,
                   distinct_clients: int | None = None,
                   metrics=None, server=None) -> FleetResult:
    """Run *n_clients* identical devices against one server tier.

    *stagger_s* offsets each client's boot time; 0 means all devices
    power on together (worst case for the shared uplink, e.g. after a
    region-wide reset of a sensor network).

    Every client advances on one heap-ordered simulated clock with
    live queueing feedback.  *shards* > 1 splits the MC into a
    consistent-hash sharded tier; *hub_capacity* (bytes) interposes a
    shared edge hub that shields the origin shards.

    *distinct_clients* caps how many clients actually execute — the
    rest replay captured wire timelines (devices are identical and
    deterministic, so trace replay is exact; the default captures the
    cold client plus enough warm ones to cover fault decorrelation).

    *recorder* (a :class:`repro.obs.FlightRecorder`) collects a
    fleet-wide timeline: distinct clients run under child recorders
    merged back shifted by boot offset and tagged pid=client_id;
    every client gets a ``fleet.client`` span, every queueing wait a
    ``fleet.queue`` event, and each shard a ``fleet.shard`` summary.
    *metrics* (a :class:`repro.obs.MetricsRegistry`) receives
    :meth:`FleetResult.publish` — so does ``recorder.metrics``.

    *server* (a :class:`repro.obs.ObsServer`) serves the run live:
    the shared MC tier is attached for ``/inspect/shards`` and each
    distinct client is attached read-only while it captures (control
    verbs are fleet-unsafe: the replay contract requires identical
    clients).

    *fault_plan* (a :class:`repro.net.FaultPlan`; defaults to
    ``config.fault_plan``) subjects every distinct client's uplink to
    faults, each under its own seed (``plan.seed + client_id``) so
    outages are decorrelated across the fleet; transient faults never
    change a client's output or translations, so the fleet-divergence
    assertion still holds.  Retry traversals are captured as extra
    wire occupancy, so a retry storm is live uplink load.
    """
    if n_clients < 0:
        raise ValueError("n_clients must be >= 0")
    config = config or SoftCacheConfig()
    if n_clients == 0:
        return _empty_result(config, shards)
    if fault_plan is None:
        fault_plan = config.fault_plan
    if retry_policy is None:
        retry_policy = config.retry_policy
    if config.fault_plan is not None or config.retry_policy is not None:
        # per-client plans are re-derived below; strip the shared
        # config so a client never installs the base seed twice
        config = replace(config, fault_plan=None, retry_policy=None)
    faults_on = fault_plan is not None and not fault_plan.is_none()
    recorder = recorder if (recorder is not None
                            and recorder.enabled) else None
    costs = config.costs
    cpu_hz = costs.cpu_hz
    link = config.link

    if shards > 1:
        shared_mc = ShardedMemoryController(
            image, shards, granularity=config.granularity)
    else:
        shared_mc = MemoryController(image,
                                     granularity=config.granularity)
        shards = 1
    if server is not None:
        # live ops plane (repro fleet --serve): /inspect/shards and
        # /metrics track the shared server tier while the fleet runs
        server.attach_fleet(shared_mc, shards)
    probe = MCProbe(shared_mc)

    if distinct_clients is None:
        # cold client + one warm chunk-cache-hit client; under faults,
        # a few more so decorrelated fault seeds shape distinct
        # timelines instead of one storm replayed in lockstep
        distinct_clients = 4 if faults_on else 2
    n_distinct = max(1, min(n_clients, distinct_clients))

    # -- capture phase: run the distinct clients ----------------------
    updates_on = bool(config.update_at)
    traces: list[ClientTrace] = []
    reports: list[RunReport] = []
    translations: list[int] = []
    bytes_requested: list[int] = []
    final_epochs: list[int] = []
    #: per distinct client: cycle count at its last barrier (None if
    #: it never crossed one)
    converge_cycles: list[int | None] = []
    digest: str | None = None
    for client_id in range(n_distinct):
        start = client_id * stagger_s
        child = None
        if recorder is not None:
            from ..obs import FlightRecorder
            child = FlightRecorder(pid=client_id)
        client_config = config
        if faults_on:
            client_config = replace(
                config,
                fault_plan=replace(fault_plan,
                                   seed=fault_plan.seed + client_id),
                retry_policy=retry_policy)
        system = SoftCacheSystem(image, client_config,
                                 shared_mc=shared_mc,
                                 recorder=child)
        if server is not None:
            # read-only: mid-capture retuning would break the
            # clients-are-identical replay contract
            server.attach_system(system, control=False)
        tap = WireTap(system, probe)
        report = system.run(max_instructions)
        if child is not None:
            recorder.merge(child, cycle_offset=int(start * cpu_hz))
        retries = (system.faults.fault_stats.retries
                   if system.faults is not None else 0)
        traces.append(tap.to_trace(report.cycles, retries))
        reports.append(report)
        translations.append(system.stats.translations)
        bytes_requested.append(system.link_stats.payload_bytes)
        transitions = system.cc.epoch_transitions
        final_epochs.append(system.cc._epoch)
        converge_cycles.append(transitions[-1][0] if transitions
                               else None)
        if client_id == 0:
            from ..softcache.debug import architectural_state
            digest = architectural_state(system)
        elif report.output != reports[0].output or \
                (not updates_on and
                 translations[-1] != translations[0]):
            # under a live update, barrier timing depends on each
            # client's miss pattern (cold vs warm), so invalidation /
            # refetch counts legitimately differ — output equality is
            # the divergence contract that must still hold
            raise AssertionError(
                "chunk-cache-served client diverged from the first "
                "client")
        if updates_on and final_epochs[-1] != final_epochs[0]:
            raise AssertionError(
                "fleet clients finished on different image epochs")

    # -- assignment: replicated clients replay warm traces ------------
    def trace_index(client_id: int) -> int:
        if client_id < n_distinct:
            return client_id
        if n_distinct == 1:
            return 0
        # cycle over the warm captures (never the cold client 0: a
        # replicated device joins a fleet whose server caches are hot)
        return 1 + (client_id - n_distinct) % (n_distinct - 1)

    assignment = [trace_index(i) for i in range(n_clients)]
    all_traces = [traces[i] for i in assignment]
    boots = [i * stagger_s for i in range(n_clients)]
    link_retries = sum(t.retries for t in all_traces)
    # the server served each replicated client from its chunk caches:
    # credit the owning shards with the demand fetches, once per trace
    for t_idx, count in Counter(assignment[n_distinct:]).items():
        demands = {sid: n * count
                   for sid, n in traces[t_idx].shard_demands.items()}
        if isinstance(shared_mc, ShardedMemoryController):
            shared_mc.credit_replicated(demands)
        else:
            n_demands = sum(demands.values())
            shared_mc.stats.requests += n_demands
            shared_mc.stats.chunk_cache_hits += n_demands

    # -- queueing phase: one simulated clock over the whole fleet -----
    sim: SimOutcome = run_event_sim(
        all_traces, boots, costs=costs, n_shards=shards,
        origin_service_s=costs.cycles_to_seconds(
            costs.mc_service_cycles),
        hub_capacity=hub_capacity, recorder=recorder)

    clients: list[ClientResult] = []
    wavefront: list[float] = []
    for client_id, t_idx in enumerate(assignment):
        boot = boots[client_id]
        cyc = converge_cycles[t_idx]
        converged = (boot + costs.cycles_to_seconds(cyc)
                     if cyc is not None else boot)
        result = ClientResult(
            client_id=client_id, start_s=boot,
            report=reports[t_idx],
            translations=translations[t_idx],
            bytes_requested=bytes_requested[t_idx],
            queue_delay_s=sim.waits[client_id],
            final_epoch=final_epochs[t_idx],
            converged_s=converged)
        if cyc is not None:
            wavefront.append(converged)
        clients.append(result)
        if recorder is not None:
            recorder.emit(
                "fleet.client", "fleet",
                cycles=int(result.start_s * cpu_hz),
                dur=int((result.report.seconds +
                         result.queue_delay_s) * cpu_hz),
                pid=client_id,
                client=client_id, start_s=result.start_s,
                seconds=result.report.seconds,
                translations=result.translations,
                delay_s=result.queue_delay_s)

    makespan = max(sim.ends) if sim.ends else 0.0
    if sim.busy_until > makespan:
        makespan = sim.busy_until

    if isinstance(shared_mc, ShardedMemoryController):
        shard_loads = [
            ShardLoad(shard=i, requests=sim.shard_requests[i],
                      busy_s=sim.shard_busy_s[i]
                      if i < len(sim.shard_busy_s) else 0.0,
                      mc_requests=part.stats.requests,
                      mc_chunks_built=part.stats.chunks_built,
                      mc_bytes_served=part.stats.bytes_served)
            for i, part in enumerate(shared_mc.shards)]
    else:
        shard_loads = [ShardLoad(
            shard=0, requests=sim.shard_requests[0],
            busy_s=sim.shard_busy_s[0] if sim.shard_busy_s else 0.0,
            mc_requests=shared_mc.stats.requests,
            mc_chunks_built=shared_mc.stats.chunks_built,
            mc_bytes_served=shared_mc.stats.bytes_served)]

    mc_stats = shared_mc.stats
    fleet = FleetResult(
        n_clients=n_clients, link=link, clients=clients,
        mc_requests=mc_stats.requests,
        mc_chunks_built=mc_stats.chunks_built,
        total_transfer_s=sim.uplink_busy_s,
        makespan_s=makespan,
        mean_queue_delay_s=sim.mean_queue_delay_s,
        max_queue_delay_s=sim.max_queue_delay_s,
        delayed_requests=sim.delayed_requests,
        link_retries=link_retries,
        distinct_clients=n_distinct,
        n_shards=shards,
        shard_loads=shard_loads,
        mean_shard_delay_s=sim.mean_shard_delay_s,
        max_shard_delay_s=sim.max_shard_delay_s,
        hub_capacity=hub_capacity,
        hub_requests=sim.hub_requests,
        hub_hits=sim.hub_hits,
        architectural_digest=digest,
        final_epoch=final_epochs[0] if final_epochs else 0,
        clients_converged=sum(
            1 for r in clients
            if r.final_epoch == (final_epochs[0] if final_epochs
                                 else 0)),
        rollout_wavefront_s=sorted(wavefront))

    if recorder is not None:
        end_cycles = int(makespan * cpu_hz)
        for load in shard_loads:
            util = (load.busy_s / makespan) if makespan > 0.0 else 0.0
            recorder.emit("fleet.shard", "fleet", cycles=end_cycles,
                          shard=load.shard, requests=load.requests,
                          busy_s=load.busy_s, util=util)
        if hub_capacity > 0:
            recorder.emit("fleet.hub", "fleet", cycles=end_cycles,
                          requests=fleet.hub_requests,
                          hits=fleet.hub_hits,
                          hit_rate=fleet.hub_hit_rate)
        fleet.publish(recorder.metrics)
    if metrics is not None:
        fleet.publish(metrics)
    return fleet
