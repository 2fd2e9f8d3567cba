"""Top-level SoftCache system: machine + MC + CC + link, wired up.

:class:`SoftCacheSystem` is the public entry point of the library: give
it a linked :class:`~repro.asm.image.Image` and a
:class:`SoftCacheConfig` and call :meth:`run`.  The embedded client's
remote text is mapped non-executable, so the *only* way the program can
run is through the translation cache — any rewriter bug faults loudly
instead of silently executing untranslated code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..asm.image import Image
from ..isa import Op, decode
from ..layout import LOCAL_BASE, align
from ..net import Channel, LinkModel
from ..sim.costs import DEFAULT_COSTS, CostModel
from ..sim.jit import validate_jit
from ..sim.machine import Machine, MachineConfig
from .cc import BlockCacheController, ProcCacheController
from .mc import MemoryController
from .tcache import TCacheGeometry


@dataclass
class SoftCacheConfig:
    """All knobs of a SoftCache instance."""

    #: Translation cache capacity in bytes (the x-axis of Figure 7).
    tcache_size: int = 24 * 1024
    #: Chunking granularity: ``block`` (SPARC prototype), ``ebb``
    #: (optimized trace chunks) or ``proc`` (ARM prototype).
    granularity: str = "block"
    #: Max basic blocks glued into one EBB chunk.
    ebb_limit: int = 8
    #: Replacement policy: a registered name (``fifo``, ``flush``,
    #: ``trrip``, ``nhit``, ``seqcutoff`` — see
    #: :mod:`repro.softcache.policy`) or a pre-built
    #: :class:`~repro.softcache.policy.ReplacementPolicy` instance.
    policy: object = "fifo"
    #: Constructor kwargs for a named policy (e.g. ``{"temperature":
    #: TemperatureMap(...)}`` for trrip, ``{"n": 3}`` for nhit).
    #: Ignored when ``policy`` is already an instance.
    policy_params: dict | None = None
    #: Successor-prefetch depth: a miss reply carries up to this many
    #: extra non-resident successor chunks in one batched exchange.
    #: 0 (the default) reproduces the paper's one-chunk-per-miss
    #: protocol exactly.
    prefetch_depth: int = 0
    #: Stub area size in bytes; default = max(256, tcache_size // 4).
    stub_capacity: int | None = None
    #: Redirector area bytes (proc mode); default sized from the image.
    redirector_capacity: int | None = None
    #: Permanent area for pinned chunks (§4 novel capability).
    pinned_capacity: int = 0
    link: LinkModel = field(default_factory=LinkModel)
    costs: CostModel = field(default_factory=lambda: DEFAULT_COSTS)
    #: Record per-event cycle timestamps (Figure 8 time series).
    record_timeline: bool = True
    #: Overwrite evicted blocks with BREAK words (loud failure on any
    #: dangling pointer; used heavily by the test suite).
    debug_poison: bool = False
    heap_size: int = 256 * 1024
    #: Enable the Section-3 software data cache (full-system mode).
    #: A :class:`repro.dcache.DataCacheConfig` or None.
    data_cache: object | None = None
    #: Superblock (threaded-code) execution in the interpreter.  Host
    #: speed only; never changes simulated counts.
    superblocks: bool = True
    #: Template-JIT tier policy ("off" = tier 0 only | "hot" | "all")
    #: and the hotness threshold for "hot".  Host speed only;
    #: cycle-identical.
    jit: str = "hot"
    jit_threshold: int = 16
    #: Flight recorder (:class:`repro.obs.FlightRecorder`) to thread
    #: through every layer, or None (the default: hot paths stay
    #: tracer-free).  Tracing never charges simulated cycles, so an
    #: enabled run is cycle-identical to a disabled one.
    recorder: object | None = None
    #: Link fault plan (:class:`repro.net.FaultPlan`) or None.  None or
    #: ``FaultPlan.none()`` installs nothing: the channel is the plain
    #: seed :class:`Channel` and every code path is bit-identical to a
    #: fault-free build.
    fault_plan: object | None = None
    #: Retry behaviour under faults (:class:`repro.net.RetryPolicy`);
    #: None means the default policy.  Ignored without a fault plan.
    retry_policy: object | None = None
    #: Live code update schedule: ``CYCLES:IMAGE`` spec strings (see
    #: :func:`repro.softcache.update.parse_update_spec`).  Each system
    #: builds its own :class:`~repro.softcache.update.UpdateSchedule`
    #: from these, so one shared config drives a whole fleet (publishes
    #: are idempotent by content digest on a shared MC).  Empty (the
    #: default) adds nothing to any path.
    update_at: tuple = ()

    def __post_init__(self):
        from .policy import ReplacementPolicy, validate_policy_name
        # fail at config time, not at first miss or first CPU
        if not isinstance(self.policy, ReplacementPolicy):
            validate_policy_name(self.policy)
        validate_jit(self.jit, self.jit_threshold)


@dataclass
class RunReport:
    """Everything a SoftCache run produced."""

    exit_code: int
    instructions: int
    cycles: int
    seconds: float
    output: str


class SoftCacheSystem:
    """One embedded client running *image* under a SoftCache."""

    def __init__(self, image: Image, config: SoftCacheConfig | None = None,
                 *, shared_mc: MemoryController | None = None,
                 recorder: object | None = None):
        """*shared_mc* lets several client systems share one server-side
        memory controller (and its chunk cache) — the deployment shape
        of Figure 1, where one server feeds a fleet of devices.
        *recorder* overrides ``config.recorder`` (the fleet passes a
        per-client recorder over one shared config)."""
        self.image = image
        self.config = config = config or SoftCacheConfig()
        geometry = self._geometry(image, config)
        self.geometry = geometry
        pinned_reserve = 0
        if config.data_cache is not None:
            pinned_reserve = config.data_cache.max_pinned_bytes + 64
        local_size = align(geometry.total + pinned_reserve, 4096)
        self.machine = Machine(image, MachineConfig(
            local_ram_size=local_size,
            text_executable=False,   # all fetches go through the tcache
            heap_size=config.heap_size,
            costs=config.costs,
            superblocks=config.superblocks,
            jit=config.jit,
            jit_threshold=config.jit_threshold,
        ))
        if shared_mc is not None:
            knows = getattr(shared_mc, "knows_image", None)
            if not (knows(image) if knows is not None
                    else shared_mc.image is image):
                raise ValueError("shared MC serves a different image")
            if shared_mc.granularity != config.granularity:
                raise ValueError("shared MC granularity mismatch")
            self.mc = shared_mc
        else:
            self.mc = MemoryController(image,
                                       granularity=config.granularity,
                                       ebb_limit=config.ebb_limit)
        self.channel = Channel(config.link)
        rec = recorder if recorder is not None else config.recorder
        self.recorder = rec if (rec is not None and rec.enabled) else None
        if self.recorder is not None:
            cpu = self.machine.cpu
            self.recorder.bind_clock(lambda: cpu.cycles,
                                     config.costs.cpu_hz)
            self.mc.tracer = self.recorder
            self.channel.tracer = self.recorder
            trc = self.recorder

            def _interp_hook(kind: str, pc: int, n: int) -> None:
                if kind == "fuse":
                    trc.emit("interp.fuse", "interp", pc=pc, fused=n)
                elif kind == "sb_invalidate":
                    trc.emit("interp.sb_invalidate", "interp", pc=pc)
                elif kind == "jit_compile":
                    trc.emit("cpu.jit_compile", "cpu", pc=pc, fused=n)
                elif kind == "jit_load":
                    trc.emit("cpu.jit_load", "cpu", pc=pc, fused=n)
                elif kind == "jit_promote":
                    trc.emit("cpu.jit_promote", "cpu", pc=pc, count=n)
                else:
                    trc.emit("interp.flush", "interp")

            cpu.trace_hook = _interp_hook
        controller_cls = (ProcCacheController
                          if config.granularity == "proc"
                          else BlockCacheController)
        self.cc = controller_cls(
            self.machine, self.mc, self.channel, geometry,
            policy=config.policy,
            policy_params=config.policy_params,
            record_timeline=config.record_timeline,
            debug_poison=config.debug_poison,
            prefetch_depth=config.prefetch_depth,
            recorder=self.recorder)
        self.dcache = None
        if config.data_cache is not None:
            from ..dcache import DataRewriter, SoftDataCache
            from ..isa import Trap
            rewriter = DataRewriter(image)
            dcache = SoftDataCache(
                self.machine, self.channel, config.costs,
                config.data_cache, rewriter,
                local_base=LOCAL_BASE + align(geometry.total, 16))
            self.mc.data_rewriter = rewriter
            self.cc.extra_trap_handlers[Trap.DC_LOAD] = dcache.handle_dc
            self.cc.extra_trap_handlers[Trap.DC_STORE] = dcache.handle_dc
            self.cc.extra_trap_handlers[Trap.SC_ENTER] = dcache.handle_sc
            self.cc.extra_trap_handlers[Trap.SC_EXIT] = dcache.handle_sc
            self.dcache = dcache
        #: The installed FaultyChannel, or None on a reliable link.
        self.faults = None
        if config.fault_plan is not None:
            from ..net.faults import install_faults
            self.faults = install_faults(self, config.fault_plan,
                                         config.retry_policy)
        #: Live code update schedule driving mid-run publishes, or None.
        self.update_schedule = None
        if config.update_at:
            from .update import UpdateSchedule
            self.update_schedule = UpdateSchedule.from_specs(
                config.update_at, image)
            self.cc.set_update_schedule(self.update_schedule)
        # softcache-mode tcache words are content enough for JIT
        # artifact identity, but the *image* digest namespaces the
        # persistent store so a republished image can never resurrect
        # a pre-update artifact
        if hasattr(self.machine.cpu, "image_tag"):
            from .update import image_digest
            self.machine.cpu.image_tag = image_digest(image)[:8]

    @staticmethod
    def _geometry(image: Image, config: SoftCacheConfig) -> TCacheGeometry:
        if config.granularity == "proc":
            stub = 0
            redirector = config.redirector_capacity
            if redirector is None:
                call_sites = sum(
                    1 for off in range(0, len(image.text), 4)
                    if decode(int.from_bytes(image.text[off:off + 4],
                                             "little")).op is Op.JAL)
                redirector = 8 * call_sites + 64
        else:
            stub = config.stub_capacity
            if stub is None:
                stub = max(256, config.tcache_size // 4)
            redirector = 0
        return TCacheGeometry(base=LOCAL_BASE, size=config.tcache_size,
                              stub_capacity=stub,
                              redirector_capacity=redirector,
                              pinned_capacity=config.pinned_capacity)

    # -- pinning (§4 novel capability) -------------------------------------

    def pin(self, *targets: int | str) -> None:
        """Pin chunks permanently in local memory before running.

        Each target is an original text address or a symbol name (an
        interrupt handler, a latency-critical routine).  Pinned chunks
        are never evicted and survive flushes, so their code has
        hardware-like timing predictability.  Requires
        ``pinned_capacity`` in the config.
        """
        for target in targets:
            addr = (self.image.symbols[target]
                    if isinstance(target, str) else target)
            self.cc.pin_original(addr)

    # -- execution ------------------------------------------------------

    def run(self, max_instructions: int = 2_000_000_000) -> RunReport:
        """Run the program to completion under the SoftCache."""
        self.cc.start()
        try:
            exit_code = self.machine.cpu.run(max_instructions)
        finally:
            if self.dcache is not None:
                self.dcache.finalize()
        if self.update_schedule is not None:
            # quiescent sync: a device drains its update queue when
            # the program exits, so end-of-run state reflects every
            # publish that was due — the convergence differential must
            # not depend on whether a miss happened to occur after the
            # last publish point
            self.cc._sync_epoch()
        cpu = self.machine.cpu
        if self.recorder is not None:
            self.publish_metrics()
        return RunReport(
            exit_code=exit_code,
            instructions=cpu.icount,
            cycles=cpu.cycles,
            seconds=self.config.costs.cycles_to_seconds(cpu.cycles),
            output=self.machine.output_text,
        )

    def inspect(self) -> dict:
        """Read-only snapshot of the live cache state (the ops plane).

        Serves ``/inspect/tcache`` and ``/inspect/superblocks``:
        tcache residency (per-block origin, placement, size, link
        occupancy from the LinkIndex), stub/redirector/pinned area
        occupancy, per-chunk heat (demand misses seen by the flight
        recorder, when one is attached), and the interpreter's
        superblock tier census.  Touches nothing: no simulated cycles
        are charged, no state mutated, so snapshots are invisible to
        the architectural digest.
        """
        cc = self.cc
        tc = cc.tcache
        blocks = []
        for b in list(tc.order):
            blocks.append({
                "orig": b.orig, "addr": b.addr, "size": b.size,
                "orig_size": b.orig_size, "name": b.name,
                "prefetched": b.prefetched,
                "incoming_links": len(b.incoming),
                "outgoing_links": len(b.outgoing),
                "stubs": len(b.stubs),
            })
        pinned = [{"orig": b.orig, "addr": b.addr, "size": b.size,
                   "name": b.name} for b in list(tc.pinned_blocks)]
        heat: list[dict] = []
        if self.recorder is not None:
            from ..obs.export import top_hot_chunks
            heat = top_hot_chunks(list(self.recorder.events))
        stats = cc.stats
        return {
            "tcache": {
                "capacity": tc.size,
                "boot_capacity": tc.geom.size,
                "used": tc.used_bytes,
                "resident_blocks": len(blocks),
                "map_entries": len(tc.map),
                "stub_bytes": tc.stub_bytes_in_use,
                "stub_capacity": tc.geom.stub_capacity,
                "redirector_bytes": tc.redirector_bytes_in_use,
                "redirector_capacity": tc.geom.redirector_capacity,
                "pinned_bytes": tc.pinned_bytes_in_use,
                "policy": cc.policy,
                "policy_state": cc._policy.snapshot(),
                "prefetch_depth": cc.prefetch_depth,
                "blocks": blocks,
                "pinned": pinned,
                "heat": heat,
            },
            "superblocks": self.machine.cpu.superblock_census(),
            "images": self._inspect_images(),
            "stats": {
                "translations": stats.translations,
                "evictions": stats.evictions,
                "flushes": stats.flushes,
                "miss_traps": stats.miss_traps,
                "admin_commands": stats.admin_commands,
                "instructions": self.machine.cpu.icount,
                "cycles": self.machine.cpu.cycles,
            },
        }

    def _inspect_images(self) -> dict:
        """``/inspect/images``: the MC's version store plus this
        client's update progress (epoch observed, barriers crossed)."""
        info = getattr(self.mc, "version_info", lambda: {})()
        stats = self.cc.stats
        info["client_epoch"] = self.cc._epoch
        info["converged"] = self.cc._epoch == getattr(self.mc,
                                                      "epoch", 0)
        info["update_barriers"] = stats.update_barriers
        info["invalidated_blocks"] = stats.update_invalidated_blocks
        info["restamped_blocks"] = stats.update_restamped_blocks
        return info

    def publish_metrics(self, registry=None) -> None:
        """Mirror every layer's stats dataclass into a metrics
        registry (counters for ints, gauges for the rest) — the
        recorder's by default, or an explicit *registry* (e.g. for
        ``repro run --prom-out`` without tracing)."""
        if registry is None:
            if self.recorder is None:
                return
            registry = self.recorder.metrics
        from ..obs.metrics import publish_dataclass
        self.cc.stats.publish(registry, prefix="cc")
        publish_dataclass(registry, "mc", self.mc.stats)
        publish_dataclass(registry, "link", self.channel.stats)
        publish_dataclass(registry, "interp", self.machine.cpu.sb_stats)
        publish_dataclass(registry, "cpu", self.machine.cpu.jit_stats)
        if self.faults is not None:
            publish_dataclass(registry, "fault", self.faults.fault_stats)
        cpu = self.machine.cpu
        registry.gauge("sim.instructions").set(cpu.icount)
        registry.gauge("sim.cycles").set(cpu.cycles)
        st = self.cc.stats
        for name, value in (
                ("update.barriers", st.update_barriers),
                ("update.invalidated_blocks",
                 st.update_invalidated_blocks),
                ("update.restamped_blocks", st.update_restamped_blocks),
                ("update.prefetch_dropped", st.update_prefetch_dropped),
                ("update.text_patched_words",
                 st.update_text_patched_words),
                ("update.publishes", self.mc.stats.publishes),
                ("update.stale_serves", self.mc.stats.stale_serves)):
            counter = registry.counter(name)
            counter.inc(value - counter.value)
        registry.gauge("update.epoch").set(self.cc._epoch)
        registry.gauge("update.mc_epoch").set(
            getattr(self.mc, "epoch", 0))

    # -- reporting --------------------------------------------------------

    @property
    def stats(self):
        """The cache controller's counters."""
        return self.cc.stats

    @property
    def link_stats(self):
        return self.channel.stats

    @property
    def mc_stats(self):
        return self.mc.stats

    @property
    def local_memory_in_use(self) -> dict[str, int]:
        return self.cc.local_memory_in_use


def run_softcache(image: Image, config: SoftCacheConfig | None = None,
                  max_instructions: int = 2_000_000_000
                  ) -> tuple[RunReport, SoftCacheSystem]:
    """Convenience: build a system, run it, return (report, system)."""
    system = SoftCacheSystem(image, config)
    report = system.run(max_instructions)
    return report, system
