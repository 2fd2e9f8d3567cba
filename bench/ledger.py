"""Per-layer host-time ledger, measured from outside the program.

:class:`Ledger` wraps each layer's entry points at class or module
level and records one span per call: name, start, end, parent span and
iteration id.  Spans stay in memory; :meth:`Ledger.write_chrome_trace`
writes them out at the end and :meth:`Ledger.iteration_metrics` turns
one iteration's spans into the per-layer metrics that
``BENCHMARK.json`` declares.  A layer's self time is its spans' duration minus
the part covered by their child spans.

Only the traced child process installs a ledger.  End-to-end numbers
come from untraced processes, where nothing here is imported.

A boundary that no longer exists (a later change renamed or deleted
it) is skipped and listed in :attr:`Ledger.missing`; its metrics then
read 0.  That way the benchmark keeps running on the changes it is
meant to judge.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

#: (span name, layer, module, attribute) of every wrapped boundary.
#: ``Class.method`` attributes are wrapped on the class, so every
#: instance built afterwards calls the traced method.
BOUNDARIES = (
    ("softcache.system.run", "softcache.system", "repro.softcache.system",
     "SoftCacheSystem.run"),
    ("sim.cpu.run", "sim.cpu.run", "repro.sim.cpu", "CPU.run"),
    ("sim.cpu.build", "sim.cpu.build", "repro.sim.cpu",
     "CPU._build_block"),
    ("sim.cpu.closure_bind", "sim.cpu.closure_bind", "repro.sim.cpu",
     "_compile_superblock"),
    ("sim.jit.codegen", "sim.jit.codegen", "repro.sim.cpu",
     "jit_codegen"),
    ("sim.jitcache.load", "sim.jitcache", "repro.sim.jitcache", "load"),
    ("sim.jitcache.store", "sim.jitcache", "repro.sim.jitcache",
     "store"),
    ("softcache.cc.trap", "softcache.cc.trap", "repro.softcache.cc",
     "BaseCacheController._on_trap"),
    ("softcache.mc.serve_chunk", "softcache.mc", "repro.softcache.mc",
     "MemoryController.serve_chunk"),
    ("softcache.mc.serve_batch", "softcache.mc", "repro.softcache.mc",
     "MemoryController.serve_batch"),
    ("softcache.mc.payload_of", "softcache.mc", "repro.softcache.mc",
     "MemoryController.payload_of"),
    ("softcache.chunks.block", "softcache.chunks", "repro.softcache.chunks",
     "BasicBlockChunker.chunk_at"),
    ("softcache.chunks.ebb", "softcache.chunks", "repro.softcache.chunks",
     "EBBChunker.chunk_at"),
    ("softcache.chunks.proc", "softcache.chunks", "repro.softcache.chunks",
     "ProcedureChunker.chunk_at"),
    ("softcache.tcache.place", "softcache.tcache", "repro.softcache.tcache",
     "TCache.place"),
    ("softcache.tcache.commit", "softcache.tcache",
     "repro.softcache.tcache", "TCache.commit"),
    ("softcache.tcache.retire_oldest", "softcache.tcache",
     "repro.softcache.tcache", "TCache.retire_oldest"),
    ("softcache.tcache.retire_all", "softcache.tcache",
     "repro.softcache.tcache", "TCache.retire_all"),
    ("net.link.exchange", "net.link", "repro.net.link", "Channel.exchange"),
    ("net.link.batch_exchange", "net.link", "repro.net.link",
     "Channel.batch_exchange"),
    ("net.link.send", "net.link", "repro.net.link", "Channel.send"),
    ("fleet.sched.replay", "fleet.sched.replay", "repro.fleet.fleet",
     "run_event_sim"),
)

#: The CPU's entry in ``Memory.code_write_hooks`` is bound per instance,
#: so it is wrapped right after ``CPU.__init__`` registers it.
CODE_WRITE_SPAN = "sim.memory.code_write"

_LAYER_OF = {name: layer for name, layer, _, _ in BOUNDARIES}
_LAYER_OF[CODE_WRITE_SPAN] = CODE_WRITE_SPAN

#: Per-layer metrics taken from the cold first iteration (the set-up
#: work); every other metric is the median over warm traced iterations.
COLD_METRICS = (
    "sim.jit.codegen_calls", "sim.jit.codegen_s", "sim.jitcache.load_calls",
    "sim.jitcache.disk_hit_ratio", "sim.jitcache.store_s",
)

def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(cold: dict, warm: list[dict]) -> dict:
    """Per-layer metrics of a traced child: the cold iteration's values
    for :data:`COLD_METRICS`, the median over *warm* iterations for the
    rest."""
    return {name: cold[name] if name in COLD_METRICS
            else statistics.median(m[name] for m in warm)
            for name in warm[0]}


def _stat(obj, path: str):
    """``obj.a.b`` by dotted *path*, or 0 when a later change removed
    the field (the metric then reads 0 instead of crashing)."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return 0
    return obj


class Ledger:
    """Span recorder over the layer boundaries in :data:`BOUNDARIES`."""

    def __init__(self):
        #: One ``[name, start, end, parent index, iteration]`` per call.
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = 0
        #: Every SoftCacheSystem run so far, by iteration (stats source).
        self.systems: dict[int, list] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def _span(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        ledger = self

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   ledger.iteration]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every boundary that exists; record the rest as missing."""
        self.missing = []
        for name, _layer, module_name, attr in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *owner_path, leaf = attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = (vars(owner).get(leaf)
                        if owner is not None else None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._span(name, original)
            if name == "softcache.system.run":
                wrapped = self._collecting(wrapped)
            self._patch(owner, leaf, wrapped)
        self._wrap_code_write_hook()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _collecting(self, run):
        ledger = self

        def collecting_run(system, *args, **kwargs):
            ledger.systems.setdefault(ledger.iteration, []).append(system)
            return run(system, *args, **kwargs)
        return collecting_run

    def _wrap_code_write_hook(self) -> None:
        from repro.sim import cpu as cpu_mod
        init = vars(cpu_mod.CPU).get("__init__")
        if init is None:
            self.missing.append("repro.sim.cpu.CPU.__init__")
            return
        span = self._span

        def traced_init(cpu, *args, **kwargs):
            init(cpu, *args, **kwargs)
            hooks = getattr(getattr(cpu, "mem", None), "code_write_hooks",
                            [])
            for i, hook in enumerate(hooks):
                if getattr(hook, "__self__", None) is cpu:
                    hooks[i] = span(CODE_WRITE_SPAN, hook)
        self._patch(cpu_mod.CPU, "__init__", traced_init)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def _self_times(self) -> list[float]:
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            parent = rec[3]
            if parent >= 0:
                out[parent] -= rec[2] - rec[1]
        return out

    def iteration_spans(self, iteration: int) -> dict:
        """Per span name: ``calls`` (not nested in the same layer),
        ``incl_s`` (their duration) and ``self_s`` (all of them), plus
        ``root_s``, the duration of spans with no parent."""
        self_times = self._self_times()
        spans = self.spans
        by_name: dict[str, dict] = {}
        root_s = 0.0
        for i, rec in enumerate(spans):
            name, start, end, parent, it = rec
            if it != iteration:
                continue
            entry = by_name.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["self_s"] += self_times[i]
            if parent < 0:
                root_s += end - start
            if parent < 0 or _LAYER_OF[spans[parent][0]] != _LAYER_OF[name]:
                entry["calls"] += 1
                entry["incl_s"] += end - start
        return {"names": by_name, "root_s": root_s}

    def iteration_metrics(self, iteration: int, wall_s: float,
                          result) -> dict:
        """Per-layer metrics of one traced iteration that took *wall_s*
        and returned *result* (the fleet metrics read a FleetResult)."""
        spans = self.iteration_spans(iteration)
        names = spans["names"]

        def layer(prefix: str, key: str) -> float:
            return sum(v[key] for n, v in names.items()
                       if _LAYER_OF[n] == prefix)

        def span(name: str, key: str) -> float:
            return names.get(name, {}).get(key, 0)

        systems = self.systems.get(iteration, [])
        cc = [_stat(s, "cc.stats") for s in systems]
        translations = sum(_stat(c, "translations") for c in cc)
        installs = sum(_stat(c, "prefetch_installs") for c in cc)
        drops = sum(_stat(c, "prefetch_drops") for c in cc)
        mcs = {id(s.mc): s.mc for s in systems if hasattr(s, "mc")}
        mc_requests = sum(_stat(m, "stats.requests") for m in mcs.values())
        mc_hits = sum(_stat(m, "stats.chunk_cache_hits")
                      for m in mcs.values())
        loads = span("sim.jitcache.load", "calls")
        disk_hits = sum(_stat(s, "machine.cpu.jit_stats.jit_disk_hits")
                        for s in systems)
        build_calls = span("sim.cpu.build", "calls")
        code_writes = span(CODE_WRITE_SPAN, "calls")
        fleet = result if hasattr(result, "makespan_s") else None
        return {
            "softcache.cc.trap_calls": span("softcache.cc.trap", "calls"),
            "softcache.cc.trap_self_s": span("softcache.cc.trap",
                                             "self_s"),
            "sim.cpu.build_calls": build_calls,
            "sim.cpu.build_s": span("sim.cpu.build", "incl_s"),
            "sim.cpu.builds_per_translation": _ratio(build_calls,
                                                     translations),
            "sim.memory.code_write_calls": code_writes,
            "sim.memory.code_write_s": span(CODE_WRITE_SPAN, "incl_s"),
            "sim.memory.code_writes_per_translation": _ratio(
                code_writes, translations),
            "sim.cpu.invalidated_blocks": sum(
                _stat(s, "machine.cpu.sb_stats.invalidated_blocks")
                for s in systems),
            "softcache.tcache.calls": layer("softcache.tcache", "calls"),
            "softcache.tcache.s": layer("softcache.tcache", "incl_s"),
            "softcache.cc.translations": translations,
            "softcache.cc.evictions": sum(_stat(c, "evictions")
                                          for c in cc),
            "softcache.cc.patches": sum(_stat(c, "patches") for c in cc),
            "softcache.mc.serve_calls": (
                span("softcache.mc.serve_chunk", "calls")
                + span("softcache.mc.serve_batch", "calls")),
            "softcache.mc.serve_self_s": layer("softcache.mc", "self_s"),
            "softcache.mc.chunk_cache_hit_ratio": _ratio(mc_hits,
                                                         mc_requests),
            "softcache.chunks.rewrite_calls": layer("softcache.chunks",
                                                    "calls"),
            "softcache.chunks.rewrite_s": layer("softcache.chunks",
                                                "incl_s"),
            "net.link.exchange_calls": layer("net.link", "calls"),
            "net.link.exchange_s": layer("net.link", "incl_s"),
            "net.link.payload_bytes": sum(
                _stat(s, "link_stats.payload_bytes") for s in systems),
            "softcache.cc.miss_link_cycles": sum(
                _stat(c, "miss_link_cycles") for c in cc),
            "softcache.cc.prefetch_useful_ratio": _ratio(
                sum(_stat(c, "prefetch_hits") for c in cc), installs),
            "softcache.cc.prefetch_drop_ratio": _ratio(drops,
                                                       installs + drops),
            "sim.cpu.dispatch_self_s": span("sim.cpu.run", "self_s"),
            "sim.cpu.instructions": sum(_stat(s, "machine.cpu.icount")
                                        for s in systems),
            "sim.jit.codegen_calls": span("sim.jit.codegen", "calls"),
            "sim.jit.codegen_s": span("sim.jit.codegen", "incl_s"),
            "sim.cpu.closure_bind_calls": span("sim.cpu.closure_bind",
                                               "calls"),
            "sim.cpu.closure_bind_s": span("sim.cpu.closure_bind",
                                           "incl_s"),
            "sim.jitcache.load_calls": loads,
            "sim.jitcache.disk_hit_ratio": _ratio(disk_hits, loads),
            "sim.jitcache.store_s": span("sim.jitcache.store", "incl_s"),
            # a share, not seconds: a time metric must never read the
            # same on every run, and only the fleet has a replay
            "fleet.sched.replay_share": _ratio(
                span("fleet.sched.replay", "incl_s"), wall_s),
            "fleet.capture_s": span("softcache.system.run", "incl_s"),
            "fleet.link_utilization": _stat(fleet, "link_utilization"),
            "fleet.mean_queue_delay_s": _stat(fleet, "mean_queue_delay_s"),
            "fleet.hub_hit_rate": _stat(fleet, "hub_hit_rate"),
            "fleet.shard_balance": _stat(fleet, "shard_balance"),
            "ledger.coverage": _ratio(spans["root_s"], wall_s),
        }

    # -- output --------------------------------------------------------

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome-trace "complete" events (chrome://tracing
        or ui.perfetto.dev)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": _LAYER_OF[name], "ph": "X",
             "ts": round((start - origin) * 1e6, 3),
             "dur": round((end - start) * 1e6, 3),
             "pid": 0, "tid": it,
             "args": {"span": i, "parent": parent, "iteration": it}}
            for i, (name, start, end, parent, it) in enumerate(self.spans)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
