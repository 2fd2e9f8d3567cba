"""Command-line interface: run workloads, profile, regenerate figures.

Examples::

    python -m repro workloads
    python -m repro run adpcm_enc --tcache 4096 --granularity ebb
    python -m repro run compress95 --native --scale 0.1
    python -m repro profile gzip --scale 0.1
    python -m repro disasm sensor --proc day_step
    python -m repro figures --only table1,fig7 --scale 0.15
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .isa import disassemble_range
from .net import LOCAL_LINK, LinkModel
from .profiling import profile_image
from .sim import JIT_MODES, run_native
from .softcache import SoftCacheConfig, SoftCacheSystem, policy_names
from .workloads import WORKLOADS, build_workload


def _softcache_config(args, recorder=None,
                      policy_params=None) -> SoftCacheConfig:
    """The SoftCacheConfig shared by run/trace/debug/fleet."""
    dcache_config = None
    if getattr(args, "dcache", 0):
        from .dcache import DataCacheConfig
        dcache_config = DataCacheConfig(dcache_size=args.dcache)
    link = LOCAL_LINK if getattr(args, "local_link", False) \
        else LinkModel()
    fault_plan = None
    if getattr(args, "fault_plan", None):
        from .net import FaultPlan
        fault_plan = FaultPlan.parse(args.fault_plan,
                                     seed=getattr(args, "seed", 0))
    return SoftCacheConfig(
        tcache_size=args.tcache, granularity=args.granularity,
        policy=args.policy, policy_params=policy_params,
        link=link, data_cache=dcache_config,
        prefetch_depth=args.prefetch_depth,
        debug_poison=getattr(args, "poison", False),
        jit=getattr(args, "jit", "hot"),
        jit_threshold=getattr(args, "jit_threshold", 16),
        recorder=recorder, fault_plan=fault_plan,
        update_at=tuple(getattr(args, "update_at", None) or ()))


def _resolve_policy_params(policy: str, image) -> dict | None:
    """Policy constructor params a CLI run can derive from the image.

    ``trrip`` wants the profiler's temperature signal, so (like
    ``--tcache-size auto``) it costs one native profiling run up
    front; every other policy needs nothing.
    """
    if policy != "trrip":
        return None
    from .profiling import temperature_for_image
    tm = temperature_for_image(image)
    print(f"[policy] trrip temperatures from the profile: "
          f"{tm.counts.get('hot', 0)} hot / "
          f"{tm.counts.get('warm', 0)} warm / "
          f"{tm.counts.get('cold', 0)} cold procs")
    return {"temperature": tm}


def _write_trace(recorder, out, *, process_names=None) -> None:
    """Write a recorder's events as <out>.jsonl + <out>.trace.json."""
    from .obs import write_chrome_trace, write_jsonl
    base = Path(out)
    while base.suffix in (".jsonl", ".json", ".trace"):
        base = base.with_suffix("")
    jsonl = write_jsonl(recorder.events, base.with_suffix(".jsonl"),
                        cpu_hz=recorder.cpu_hz,
                        dropped=recorder.dropped)
    chrome = write_chrome_trace(
        recorder.events, base.with_suffix(".trace.json"),
        cpu_hz=recorder.cpu_hz, process_names=process_names)
    print(f"\n[trace] {len(recorder.events)} events "
          f"({recorder.dropped} dropped)")
    print(f"  jsonl        : {jsonl}")
    print(f"  chrome trace : {chrome}  "
          f"(load in https://ui.perfetto.dev)")


def _tcache_size(value: str):
    """``--tcache``/``--tcache-size``: a byte count or ``auto``."""
    if value.strip().lower() == "auto":
        return "auto"
    return int(value)


def _jit_threshold(value: str) -> int:
    """``--jit-threshold``: an integer >= 1, rejected at parse time."""
    threshold = int(value)
    if threshold < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1, got {threshold}")
    return threshold


def _resolve_auto_tcache(args, image) -> None:
    """Replace ``--tcache-size auto`` with the profiler's estimate."""
    if getattr(args, "tcache", None) != "auto":
        return
    from .profiling import estimate_tcache_size
    est = estimate_tcache_size(image, granularity=args.granularity)
    args.tcache = est.tcache_size
    print(f"[auto-tcache] {est.tcache_size}B sized from the hot set "
          f"[{', '.join(est.hot_procs)}]: {est.hot_code_bytes}B static "
          f"-> {est.rewritten_hot_bytes}B rewritten, "
          f"x{est.slack:g} slack")


def _write_prom_out(path, registry=None, *, recorder=None,
                    fill=None) -> None:
    """The one ``--prom-out`` writer shared by run/trace/fleet/chaos.

    Priority: an explicit *registry*, else the recorder's (already
    populated by the run), else a fresh one populated by *fill*.
    """
    from .obs import MetricsRegistry, write_prometheus
    if registry is None:
        if recorder is not None:
            registry = recorder.metrics
        else:
            registry = MetricsRegistry()
            if fill is not None:
                fill(registry)
    write_prometheus(registry, path)
    print(f"  prometheus        : {path}")


def _start_server(args):
    """Start the live ops endpoint for ``--serve HOST:PORT``."""
    if not getattr(args, "serve", None):
        return None
    from .obs import ObsServer, parse_serve
    host, port = parse_serve(args.serve)
    server = ObsServer(host, port).start()
    print(f"[serve] ops endpoint on {server.url}  "
          f"(/metrics /inspect/tcache /admin/...)", flush=True)
    return server


def _print_metrics_highlights(recorder) -> None:
    """The registry values worth a terminal line."""
    snap = recorder.metrics.snapshot()
    print("\nmetrics highlights:")
    for key in ("cc.translations", "cc.miss_traps", "cc.evictions",
                "cc.miss_service_cycles", "mc.chunks_built",
                "link.exchanges", "interp.fused_blocks",
                "sim.cycles"):
        if key in snap:
            print(f"  {key:<24} {snap[key]}")
    for key in ("cc.miss_latency_cycles", "cc.patch_distance_bytes"):
        hist = snap.get(key)
        if hist and hist["count"]:
            print(f"  {key:<24} n={hist['count']} "
                  f"mean={hist['mean']:.0f} p50={hist['p50']:.0f} "
                  f"p99={hist['p99']:.0f}")


def _cmd_workloads(args) -> int:
    print(f"{'name':12s} {'description'}")
    print("-" * 60)
    for name, spec in WORKLOADS.items():
        print(f"{name:12s} {spec.description}")
    return 0


def _cmd_run(args) -> int:
    image = build_workload(args.workload, args.scale,
                           arm_profile=(args.granularity == "proc"))
    if args.native:
        machine = run_native(image)
        print(machine.output_text, end="")
        print(f"\n[native] {machine.cpu.icount} instructions, "
              f"{machine.cpu.cycles} cycles")
        return machine.cpu.exit_code or 0

    _resolve_auto_tcache(args, image)
    recorder = None
    if getattr(args, "trace", None):
        from .obs import FlightRecorder
        recorder = FlightRecorder()
    config = _softcache_config(
        args, recorder=recorder,
        policy_params=_resolve_policy_params(args.policy, image))
    server = _start_server(args)
    try:
        system = SoftCacheSystem(image, config)
        if server is not None:
            server.attach_system(system)
        report = system.run()
    finally:
        if server is not None:
            server.close()
    print(report.output, end="")
    stats = system.stats
    print(f"\n[softcache {args.granularity}/{args.policy} "
          f"tcache={args.tcache}B]")
    print(f"  instructions      : {report.instructions}")
    print(f"  cycles            : {report.cycles} "
          f"({report.seconds * 1e3:.2f} ms simulated)")
    print(f"  translations      : {stats.translations}")
    print(f"  evictions/flushes : {stats.evictions}/{stats.flushes}")
    print(f"  miss traps        : {stats.miss_traps} "
          f"(+{stats.jr_lookups} jr lookups)")
    print(f"  link              : {system.link_stats.exchanges} "
          f"exchanges, {system.link_stats.total_bytes} bytes")
    if system.faults is not None:
        fst = system.faults.fault_stats
        print(f"  faults            : {fst.attempts} attempts / "
              f"{fst.delivered} delivered, {fst.retries} retries, "
              f"{fst.checksum_failures} checksum rejects, "
              f"{stats.link_down_traps} link-down traps "
              f"({stats.pending_miss_replays} misses replayed)")
    if args.prefetch_depth:
        print(f"  prefetch depth {args.prefetch_depth}  : "
              f"{stats.prefetch_installs} installed, "
              f"{stats.prefetch_hits} hit, {stats.prefetch_drops} "
              f"dropped, {stats.wasted_prefetch_bytes}B wasted; "
              f"miss service {stats.miss_service_cycles} cycles")
    if stats.admin_commands:
        print(f"  admin commands    : {stats.admin_commands} applied "
              f"at miss boundaries")
    if stats.update_barriers:
        print(f"  live updates      : {stats.update_barriers} barriers "
              f"to epoch {system.cc._epoch}; "
              f"{stats.update_invalidated_blocks} blocks invalidated, "
              f"{stats.update_restamped_blocks} kept, "
              f"{stats.update_text_patched_words} text words patched")
    usage = system.local_memory_in_use
    print(f"  local memory      : {usage}")
    if system.dcache is not None:
        dst = system.dcache.stats
        print(f"  dcache            : fast={dst.fast_hits} "
              f"slow={dst.slow_hits} miss={dst.misses} "
              f"pred={100 * dst.prediction_accuracy():.0f}%")
    if recorder is not None:
        _write_trace(recorder, args.trace)
    if getattr(args, "prom_out", None):
        _write_prom_out(args.prom_out, recorder=recorder,
                        fill=system.publish_metrics)
    return report.exit_code


def _cmd_trace(args) -> int:
    """Run a workload with the flight recorder on, export, report."""
    from .obs import FlightRecorder, trace_summary
    image = build_workload(args.workload, args.scale,
                           arm_profile=(args.granularity == "proc"))
    _resolve_auto_tcache(args, image)
    recorder = FlightRecorder()
    config = _softcache_config(
        args, recorder=recorder,
        policy_params=_resolve_policy_params(args.policy, image))
    system = SoftCacheSystem(image, config)
    report = system.run()
    out = args.out or f"trace-{args.workload}"
    _write_trace(recorder, out)
    print()
    print(trace_summary(recorder.events, cpu_hz=recorder.cpu_hz,
                        top=args.top))
    _print_metrics_highlights(recorder)
    if getattr(args, "prom_out", None):
        _write_prom_out(args.prom_out, recorder=recorder)
    return report.exit_code


def _cmd_debug(args) -> int:
    """Run a workload, audit the CC state, dump its tcache."""
    from .softcache.debug import (
        check_consistency,
        chunk_graph_dot,
        dump_superblock,
        dump_tcache,
    )
    image = build_workload(args.workload, args.scale,
                           arm_profile=(args.granularity == "proc"))
    _resolve_auto_tcache(args, image)
    config = _softcache_config(
        args, policy_params=_resolve_policy_params(args.policy, image))
    system = SoftCacheSystem(image, config)
    system.run()
    checked = check_consistency(system.cc)
    if args.dump_superblock is not None:
        print(dump_superblock(system.machine.cpu,
                              int(args.dump_superblock, 0)))
    elif args.dot:
        print(chunk_graph_dot(system.cc))
    else:
        print(dump_tcache(system.cc))
    print(f"\n[debug] consistency OK ({checked} items checked)",
          file=sys.stderr)
    return 0


def _cmd_fleet(args) -> int:
    """Fleet simulation (Figure 1): N clients, one server, one uplink."""
    from .fleet import simulate_fleet
    image = build_workload(args.workload, args.scale,
                           arm_profile=(args.granularity == "proc"))
    _resolve_auto_tcache(args, image)
    recorder = None
    if args.trace:
        from .obs import FlightRecorder
        recorder = FlightRecorder()
    config = _softcache_config(
        args, policy_params=_resolve_policy_params(args.policy, image))
    server = _start_server(args)
    try:
        result = simulate_fleet(image, args.clients, config,
                                stagger_s=args.stagger,
                                recorder=recorder,
                                shards=args.shards,
                                hub_capacity=args.hub_capacity,
                                distinct_clients=args.distinct,
                                server=server)
    finally:
        if server is not None:
            server.close()
    print(f"[fleet] {result.n_clients} clients "
          f"({result.distinct_clients} distinct), "
          f"stagger {args.stagger * 1e3:.1f} ms")
    print(f"  mc requests       : {result.mc_requests} "
          f"({result.mc_chunks_built} chunks built, "
          f"{100 * result.chunk_cache_sharing:.0f}% shared)")
    print(f"  uplink            : "
          f"{100 * result.link_utilization:.1f}% utilized over "
          f"{result.makespan_s * 1e3:.2f} ms makespan")
    print(f"  queueing          : {result.delayed_requests} delayed, "
          f"mean {result.mean_queue_delay_s * 1e6:.1f} us, "
          f"max {result.max_queue_delay_s * 1e6:.1f} us")
    if result.n_shards > 1:
        loads = " ".join(str(s.requests) for s in result.shard_loads)
        print(f"  shards            : {result.n_shards} "
              f"(demand requests [{loads}], "
              f"balance {result.shard_balance:.2f}, shard delay mean "
              f"{result.mean_shard_delay_s * 1e6:.1f} us)")
    if result.hub_capacity > 0:
        print(f"  edge hub          : {result.hub_hits}/"
              f"{result.hub_requests} hits "
              f"({100 * result.hub_hit_rate:.0f}%) at "
              f"{result.hub_capacity}B")
    if result.link_retries:
        print(f"  fault retries     : {result.link_retries} replayed "
              f"exchanges queued on the uplink")
    if result.rollout_wavefront_s:
        wf = result.rollout_wavefront_s
        print(f"  rollout           : epoch {result.final_epoch}, "
              f"{result.clients_converged}/{result.n_clients} "
              f"converged; wavefront "
              f"{wf[0] * 1e3:.2f}..{wf[-1] * 1e3:.2f} ms")
    if recorder is not None:
        names = {c.client_id: f"client {c.client_id}"
                 for c in result.clients}
        _write_trace(recorder, args.trace, process_names=names)
    if args.prom_out:
        _write_prom_out(args.prom_out, fill=result.publish)
    return 0


def _cmd_chaos(args) -> int:
    """Chaos matrix: N seeded fault plans x M workloads.

    Every cell runs a workload under ``FaultPlan.chaos(seed + i)``
    (all-transient faults: drops, corruption, delays, partitions, MC
    crash-restarts) with eviction poisoning and full consistency
    audits on, then compares the architectural state digest against a
    fault-free baseline.  Any divergence, consistency failure or crash
    marks the cell failed: its flight-recorder trace and plan are
    written to ``--out-dir`` and the command exits nonzero.
    """
    from .net import FaultPlan
    from .obs import FlightRecorder
    from .softcache.debug import (
        architectural_state,
        check_consistency,
        observable_state,
    )

    update_at = tuple(getattr(args, "update_at", None) or ())
    # under a live update, barrier timing (hence tcache placement and
    # local RAM) legitimately shifts with fault-induced delays, so the
    # differential compares the observable state — patched text, data,
    # exit code, output — instead of the full architectural digest
    state_fn = observable_state if update_at else architectural_state
    workloads = [w.strip() for w in args.workloads.split(",")
                 if w.strip()]
    out_dir = Path(args.out_dir)
    failures = 0
    total = 0
    agg = {"fault_attempts": 0, "fault_delivered": 0,
           "fault_retries": 0, "checksum_failures": 0,
           "link_down_traps": 0, "mc_restarts": 0}
    policy = getattr(args, "policy", "fifo")
    for name in workloads:
        image = build_workload(name, args.scale)
        params = _resolve_policy_params(policy, image)
        # poison evicted blocks in the baseline too: the digest covers
        # local RAM, so both runs must paint evictions the same way
        baseline = SoftCacheSystem(image, SoftCacheConfig(
            tcache_size=args.tcache, record_timeline=False,
            debug_poison=True, policy=policy, policy_params=params,
            update_at=update_at))
        baseline.run()
        want = state_fn(baseline)
        for i in range(args.plans):
            plan = FaultPlan.chaos(args.seed + i)
            label = f"{name}-seed{args.seed + i}"
            recorder = FlightRecorder()
            total += 1
            try:
                system = SoftCacheSystem(image, SoftCacheConfig(
                    tcache_size=args.tcache, record_timeline=False,
                    debug_poison=True, recorder=recorder,
                    policy=policy, policy_params=params,
                    fault_plan=plan, update_at=update_at))
                system.run()
                check_consistency(system.cc)
                got = state_fn(system)
                if got != want:
                    what = ("observable" if update_at
                            else "architectural")
                    raise AssertionError(
                        f"{what} state diverged from the "
                        f"fault-free run: {got[:16]}… != {want[:16]}…")
            except Exception as exc:
                failures += 1
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"chaos-{label}.plan.txt").write_text(
                    f"workload: {name}\nscale: {args.scale}\n"
                    f"tcache: {args.tcache}\nplan: {plan!r}\n"
                    f"error: {exc}\n")
                _write_trace(recorder, out_dir / f"chaos-{label}")
                print(f"FAIL {label}: {exc}", file=sys.stderr)
            else:
                fst = system.faults.fault_stats
                cst = system.stats
                agg["fault_attempts"] += fst.attempts
                agg["fault_delivered"] += fst.delivered
                agg["fault_retries"] += fst.retries
                agg["checksum_failures"] += fst.checksum_failures
                agg["link_down_traps"] += cst.link_down_traps
                agg["mc_restarts"] += system.mc_stats.restarts
                print(f"ok   {label}: {fst.attempts} attempts, "
                      f"{fst.retries} retries, "
                      f"{fst.checksum_failures} checksum rejects, "
                      f"{cst.link_down_traps} link-down, "
                      f"{system.mc_stats.restarts} mc restarts")
    if getattr(args, "prom_out", None):
        def fill(registry):
            registry.counter("chaos.cells").inc(total)
            registry.counter("chaos.failures").inc(failures)
            for key, value in agg.items():
                registry.counter(f"chaos.{key}").inc(value)
        _write_prom_out(args.prom_out, fill=fill)
    if failures:
        print(f"\n[chaos] {failures}/{total} cells FAILED "
              f"(artifacts in {out_dir})", file=sys.stderr)
        return 1
    print(f"\n[chaos] all {total} cells reached the fault-free "
          f"{'observable' if update_at else 'architectural'} state")
    return 0


def _admin_offline(args) -> int:
    """``repro admin --from FILE``: inspect a recorded trace.

    The offline half of the casadm-style CLI: stats prints the
    registry rendered from the recorded events, inspect prints the
    hot-chunk table — no live endpoint required.
    """
    from .obs import load_jsonl, render_hot_chunks, top_hot_chunks
    if args.verb not in ("stats", "inspect"):
        print(f"admin {args.verb} needs a live endpoint "
              f"(control verbs cannot apply to a recorded trace)",
              file=sys.stderr)
        return 2
    meta, events = load_jsonl(args.from_file)
    if args.verb == "stats":
        print(f"# recorded trace {args.from_file} "
              f"(schema {meta.get('schema_version')}, "
              f"{len(events)} events)")
        counts = {}
        for ev in events:
            counts[ev.cat] = counts.get(ev.cat, 0) + 1
        for cat in sorted(counts):
            print(f"trace_events_total{{category=\"{cat}\"}} "
                  f"{counts[cat]}")
        return 0
    hot = top_hot_chunks(events, n=args.top)
    print(render_hot_chunks(hot))
    print(f"\n{len(hot)} hot chunks from {len(events)} recorded "
          f"events")
    return 0


def _cmd_admin(args) -> int:
    """casadm-style ops CLI against a live ``--serve`` endpoint."""
    import json
    import urllib.error
    import urllib.request

    if args.from_file:
        return _admin_offline(args)

    base = args.url.rstrip("/")
    if "://" not in base:
        base = "http://" + base

    def get(path):
        with urllib.request.urlopen(base + path,
                                    timeout=args.timeout) as resp:
            return resp.status, resp.read().decode()

    def post(path, payload):
        wait = "0" if args.no_wait else f"{args.timeout:g}"
        req = urllib.request.Request(
            f"{base}{path}?wait={wait}",
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
            method="POST")
        with urllib.request.urlopen(req,
                                    timeout=args.timeout + 5) as resp:
            return resp.status, resp.read().decode()

    try:
        if args.verb == "stats":
            status, body = get("/metrics")
            print(body, end="")
            return 0
        if args.verb == "inspect":
            route = "" if args.route == "all" else f"/{args.route}"
            status, body = get(f"/inspect{route}")
            print(json.dumps(json.loads(body), indent=2))
            return 0
        if args.verb == "flush":
            payload = {}
        elif args.verb == "set":
            payload = {}
            if args.prefetch_depth is not None:
                payload["prefetch_depth"] = args.prefetch_depth
            if args.jit is not None:
                payload["jit"] = args.jit
            if args.jit_threshold is not None:
                payload["jit_threshold"] = args.jit_threshold
            if args.policy is not None:
                payload["policy"] = args.policy
            if not payload:
                print("admin set needs --prefetch-depth, --jit, "
                      "--jit-threshold and/or --policy",
                      file=sys.stderr)
                return 2
        elif args.verb == "publish":
            if args.image is None:
                print("admin publish needs --image PATH (a file "
                      "written by repro.softcache.update.save_image)",
                      file=sys.stderr)
                return 2
            payload = {"image": args.image}
        else:  # resize
            if args.tcache_size is None:
                print("admin resize needs --tcache-size",
                      file=sys.stderr)
                return 2
            payload = {"tcache_size": args.tcache_size}
        status, body = post(f"/admin/{args.verb}", payload)
        print(json.dumps(json.loads(body), indent=2))
        return 0
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode(errors="replace")
        print(f"admin {args.verb}: HTTP {exc.code} from {base}: "
              f"{detail}", file=sys.stderr)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print(f"admin {args.verb}: cannot reach {base}: {exc} "
              f"(is the run serving with --serve?)", file=sys.stderr)
        return 1


def _cmd_profile(args) -> int:
    image = build_workload(args.workload, args.scale)
    profile = profile_image(image)
    print(profile.report(args.top))
    print(f"\ndynamic .text : {profile.dynamic_text_bytes}B")
    print(f"static .text  : {image.static_text_size}B")
    hot = profile.hot_code_bytes(args.threshold)
    print(f"hot code      : {hot}B "
          f"({[e.name for e in profile.hot_procs(args.threshold)]})")
    print(f"norm footprint: {hot / image.static_text_size:.3f}")
    return 0


def _cmd_disasm(args) -> int:
    image = build_workload(args.workload, args.scale)
    if args.proc:
        span = image.proc_named(args.proc)
        start, end = span.addr, span.end
    else:
        start, end = image.text_base, min(image.text_end,
                                          image.text_base + 4 * args.max)
    for line in disassemble_range(image.word_at, start, end):
        print(line)
    return 0


_FIGURES = ("table1", "fig5", "fig6", "fig7", "fig8", "fig9",
            "netcost", "tagspace", "ablation", "dcache")


def _cmd_figures(args) -> int:
    from . import eval as ev
    wanted = (args.only.split(",") if args.only else list(_FIGURES))
    runners = {
        "table1": lambda: ev.render_table1(ev.table1(scale=args.scale)),
        "fig5": lambda: ev.render_fig5(ev.fig5(scale=args.scale)),
        "fig6": lambda: ev.render_fig6(ev.fig6(scale=args.scale)),
        "fig7": lambda: ev.render_fig7(ev.fig7(scale=args.scale)),
        "fig8": lambda: ev.render_fig8(ev.fig8(scale=args.scale)),
        "fig9": lambda: ev.render_fig9(ev.fig9(scale=args.scale)),
        "netcost": lambda: ev.render_netcost(
            ev.netcost(scale=args.scale / 2)),
        "tagspace": lambda: ev.render_tagspace(ev.tagspace()),
        "ablation": lambda: ev.render_ablation(
            ev.extra_instruction_ablation(scale=args.scale / 2)),
        "dcache": lambda: ev.render_dcache(
            ev.dcache_eval(scale=args.scale / 4)),
    }
    for name in wanted:
        runner = runners.get(name)
        if runner is None:
            print(f"unknown figure {name!r}; choices: "
                  f"{', '.join(_FIGURES)}", file=sys.stderr)
            return 2
        print(runner())
        print()
    return 0


def _cmd_report(args) -> int:
    from .eval import generate_report
    text = generate_report(scale=args.scale)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SoftCache: software caching via dynamic binary "
                    "rewriting (ICPP 2002 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list benchmark programs")

    def add_softcache_opts(p, scale=0.2):
        p.add_argument("--scale", type=float, default=scale)
        p.add_argument("--tcache", "--tcache-size", dest="tcache",
                       type=_tcache_size, default=24 * 1024,
                       help="tcache bytes, or 'auto' to size from "
                            "the profiled hot working set")
        p.add_argument("--granularity", default="block",
                       choices=("block", "ebb", "proc"))
        p.add_argument("--policy", default="fifo",
                       choices=policy_names(),
                       help="replacement policy (trrip profiles the "
                            "workload first for its temperature map)")
        p.add_argument("--prefetch-depth", type=int, default=0,
                       help="successor chunks batched onto each miss "
                            "reply (0 = paper-faithful protocol)")
        p.add_argument("--fault-plan", metavar="SPEC",
                       help="inject link faults: a preset (none, "
                            "lossy, chaos) or k=v terms like "
                            "drop=0.1,corrupt=0.05,partition=40:60 "
                            "(see docs/FAULTS.md)")
        p.add_argument("--seed", type=int, default=0,
                       help="PRNG seed for the fault plan")
        p.add_argument("--jit", default="hot", choices=JIT_MODES,
                       help="template-JIT tier for superblocks: off = "
                            "tier 0 only, hot = promote after "
                            "--jit-threshold executions (default), "
                            "all = compile every fused block eagerly")
        p.add_argument("--jit-threshold", type=_jit_threshold, default=16,
                       help="superblock executions before JIT "
                            "promotion (jit=hot)")
        p.add_argument("--update-at", metavar="CYCLES:IMAGE",
                       action="append", default=None,
                       help="publish a new image version once the "
                            "client clock passes CYCLES; IMAGE is "
                            "'patch' / 'patch:SEED' (a derived "
                            "behaviour-preserving patch) or '@PATH' "
                            "(a saved image file); prefix CYCLES "
                            "with '~' for a non-durable publish "
                            "(rolled back by an MC crash).  May "
                            "repeat for staged rollouts "
                            "(see docs/UPDATES.md)")

    run = sub.add_parser("run", help="run a workload")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    add_softcache_opts(run)
    run.add_argument("--native", action="store_true",
                     help="run without the SoftCache (ideal baseline)")
    run.add_argument("--dcache", type=int, default=0,
                     help="enable the software D-cache with this size")
    run.add_argument("--local-link", action="store_true",
                     help="zero-cost MC link (SPARC prototype style)")
    run.add_argument("--trace", metavar="OUT",
                     help="record a flight-recorder trace and write "
                          "OUT.jsonl + OUT.trace.json")
    run.add_argument("--prom-out", metavar="FILE",
                     help="write the metrics registry in Prometheus "
                          "text exposition format")
    run.add_argument("--serve", metavar="HOST:PORT",
                     help="serve the live ops endpoint during the "
                          "run: /metrics, /inspect/*, /admin/*")

    trace = sub.add_parser(
        "trace", help="run with the flight recorder on; export "
                      "JSONL + Perfetto trace and print a report")
    trace.add_argument("workload", choices=sorted(WORKLOADS))
    add_softcache_opts(trace)
    trace.add_argument("--dcache", type=int, default=0)
    trace.add_argument("--local-link", action="store_true")
    trace.add_argument("--out", help="output basename "
                                     "(default trace-<workload>)")
    trace.add_argument("--top", type=int, default=10,
                       help="hot chunks listed in the report")
    trace.add_argument("--prom-out", metavar="FILE",
                       help="write the metrics registry in Prometheus "
                            "text exposition format")

    debug = sub.add_parser(
        "debug", help="run a workload, audit CC bookkeeping, dump "
                      "the tcache (or its DOT graph)")
    debug.add_argument("workload", choices=sorted(WORKLOADS))
    add_softcache_opts(debug, scale=0.1)
    debug.add_argument("--dot", action="store_true",
                       help="emit the resident chunk graph as "
                            "Graphviz DOT instead of a listing")
    debug.add_argument("--poison", action="store_true",
                       help="poison evicted blocks (louder audits)")
    debug.add_argument("--dump-superblock", metavar="PC",
                       help="print tier, hit count, guest disassembly "
                            "and generated Python source for the "
                            "superblock(s) covering PC (hex or "
                            "decimal) at end of run")

    fleet = sub.add_parser(
        "fleet", help="simulate N clients sharing one MC and uplink")
    fleet.add_argument("workload", choices=sorted(WORKLOADS))
    add_softcache_opts(fleet, scale=0.1)
    fleet.add_argument("--clients", type=int, default=4)
    fleet.add_argument("--stagger", type=float, default=0.0,
                       help="boot-time offset between clients (s)")
    fleet.add_argument("--trace", metavar="OUT",
                       help="record a fleet-wide trace (per-client "
                            "timelines merged)")
    fleet.add_argument("--shards", type=int, default=1,
                       help="consistent-hash MC shards behind the hub")
    fleet.add_argument("--hub-capacity", type=int, default=0,
                       help="shared edge-hub chunk cache, bytes "
                            "(0 = no hub)")
    fleet.add_argument("--distinct", type=int, default=None,
                       help="clients actually executed; the rest "
                            "replay captured timelines")
    fleet.add_argument("--prom-out", metavar="FILE",
                       help="write fleet metrics in Prometheus text "
                            "exposition format")
    fleet.add_argument("--serve", metavar="HOST:PORT",
                       help="serve the live ops endpoint during the "
                            "simulation (/inspect/shards shows "
                            "per-shard load)")

    chaos = sub.add_parser(
        "chaos", help="chaos matrix: seeded fault plans x workloads, "
                      "differential-checked against fault-free runs")
    chaos.add_argument("--workloads", default="sensor,adpcm_enc",
                       help="comma-separated workload names")
    chaos.add_argument("--plans", type=int, default=16,
                       help="chaos cells (seeds) per workload")
    chaos.add_argument("--seed", type=int, default=0,
                       help="first seed of the matrix")
    chaos.add_argument("--scale", type=float, default=0.05)
    chaos.add_argument("--tcache", type=int, default=2048)
    chaos.add_argument("--policy", default="fifo",
                       choices=policy_names(),
                       help="replacement policy for baseline and "
                            "chaos cells alike")
    chaos.add_argument("--update-at", metavar="CYCLES:IMAGE",
                       action="append", default=None,
                       help="publish a live update mid-run in every "
                            "cell (and the fault-free baseline); the "
                            "differential then compares observable "
                            "state (text/data/output) across the "
                            "update")
    chaos.add_argument("--out-dir", default="chaos-artifacts",
                       help="failing cells' traces + plans land here")
    chaos.add_argument("--prom-out", metavar="FILE",
                       help="write matrix-level counters (cells, "
                            "failures, fault totals) in Prometheus "
                            "text exposition format")

    admin = sub.add_parser(
        "admin", help="inspect or steer a live run served with "
                      "--serve (or inspect a recorded trace offline)")
    admin.add_argument("verb",
                       choices=("stats", "inspect", "flush", "set",
                                "resize", "publish"),
                       help="stats: raw /metrics; inspect: JSON "
                            "snapshot; flush/set/resize/publish: "
                            "control verbs applied at the next miss "
                            "boundary")
    admin.add_argument("--url", default="http://127.0.0.1:9178",
                       help="base URL of the live ops endpoint")
    admin.add_argument("--from", dest="from_file", metavar="FILE",
                       help="offline mode: read a recorded .jsonl "
                            "trace instead of a live endpoint "
                            "(stats/inspect only)")
    admin.add_argument("--route", default="tcache",
                       choices=("tcache", "superblocks", "shards",
                                "images", "all"),
                       help="inspect: which snapshot section")
    admin.add_argument("--prefetch-depth", type=int, default=None,
                       help="set: new prefetch depth")
    admin.add_argument("--jit", default=None, choices=JIT_MODES,
                       help="set: new JIT mode")
    admin.add_argument("--jit-threshold", type=_jit_threshold,
                       default=None,
                       help="set: new JIT promotion threshold")
    admin.add_argument("--policy", default=None,
                       choices=policy_names(),
                       help="set: swap the replacement policy (fresh "
                            "metadata; trrip runs without a "
                            "temperature map when set mid-run)")
    admin.add_argument("--tcache-size", type=int, default=None,
                       help="resize: new effective tcache size, "
                            "bytes (flushes; applied at the next "
                            "miss boundary)")
    admin.add_argument("--image", default=None, metavar="PATH",
                       help="publish: a saved image file to hot-patch "
                            "the running system to (layout-"
                            "preserving; see docs/UPDATES.md)")
    admin.add_argument("--no-wait", action="store_true",
                       help="queue the control verb and return "
                            "immediately (HTTP 202)")
    admin.add_argument("--timeout", type=float, default=10.0,
                       help="seconds to wait for the verb to reach "
                            "a miss boundary")
    admin.add_argument("--top", type=int, default=10,
                       help="offline inspect: hot chunks listed")

    prof = sub.add_parser("profile", help="flat profile of a workload")
    prof.add_argument("workload", choices=sorted(WORKLOADS))
    prof.add_argument("--scale", type=float, default=0.1)
    prof.add_argument("--top", type=int, default=12)
    prof.add_argument("--threshold", type=float, default=0.90)

    dis = sub.add_parser("disasm", help="disassemble a workload image")
    dis.add_argument("workload", choices=sorted(WORKLOADS))
    dis.add_argument("--scale", type=float, default=0.1)
    dis.add_argument("--proc", help="disassemble one procedure")
    dis.add_argument("--max", type=int, default=64,
                     help="max instructions without --proc")

    figs = sub.add_parser("figures",
                          help="regenerate the paper's tables/figures")
    figs.add_argument("--only", help="comma-separated subset: "
                                     + ",".join(_FIGURES))
    figs.add_argument("--scale", type=float, default=0.2)

    report = sub.add_parser(
        "report", help="run every experiment, emit one text report")
    report.add_argument("--scale", type=float, default=0.2)
    report.add_argument("--out", help="write the report to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "workloads": _cmd_workloads,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "debug": _cmd_debug,
        "fleet": _cmd_fleet,
        "chaos": _cmd_chaos,
        "admin": _cmd_admin,
        "profile": _cmd_profile,
        "disasm": _cmd_disasm,
        "figures": _cmd_figures,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
