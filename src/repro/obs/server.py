"""The live ops plane: an in-run HTTP inspection + control endpoint.

``repro run --serve HOST:PORT`` (and ``repro fleet --serve``) attach an
:class:`ObsServer` to the running system.  The server is a stdlib
``ThreadingHTTPServer`` on a daemon thread; the simulation itself stays
single-threaded and synchronous, which shapes the whole design:

* **GET routes are read-only and cycle-invisible.**  A scrape reads
  the live stats dataclasses and snapshot tables; it charges no
  simulated cycles and mutates no simulated state, so a served run is
  architecturally bit-identical (``architectural_state`` digest) to an
  unserved one.  Concurrent-mutation races (a dict resized mid-walk)
  are retried a few times and then reported as 503 — never propagated
  into the run.
* **Control is queued, not injected.**  POST verbs (``/admin/flush``,
  ``/admin/set``, ``/admin/resize``) land on a :class:`ControlPlane`
  queue that the CC drains *at its next miss boundary* — the only
  point with no half-installed block or mid-patch pointer state — and
  each applied command is billed simulated time (one MC service round
  trip plus whatever the action itself costs, e.g. a resize's flush).

Routes::

    GET  /healthz              liveness + what is attached
    GET  /metrics              Prometheus text exposition (live scrape)
    GET  /inspect              full snapshot (SoftCacheSystem.inspect)
    GET  /inspect/tcache       residency map, stub/link occupancy, heat
    GET  /inspect/superblocks  interpreter tier census (CPU.superblock_census)
    GET  /inspect/shards       per-shard MC load (fleets; 1 shard solo)
    GET  /inspect/images       image versions: epoch, digest, diff
                               sizes, client convergence
    POST /admin/flush          drop every unpinned block
    POST /admin/set            {"prefetch_depth": N, "policy": NAME}
    POST /admin/resize         {"tcache_size": N}  (<= boot geometry)
    POST /admin/publish        {"image": PATH}  (a saved image file;
                                layout-preserving hot patch)

POSTs block until the command is applied (``?wait=0`` returns 202
immediately; the command still applies at the next miss).
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .metrics import MetricsRegistry
from .prom import to_prometheus

#: Exceptions a snapshot walk may raise when the simulation mutates a
#: container mid-iteration; the server retries, never the simulation.
_RACE_ERRORS = (RuntimeError, KeyError, IndexError)


def parse_serve(spec: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``) for ``--serve``."""
    spec = spec.strip()
    if ":" in spec:
        host, _, port_s = spec.rpartition(":")
        host = host or "127.0.0.1"
    else:
        host, port_s = "127.0.0.1", spec
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(
            f"--serve expects HOST:PORT or PORT, got {spec!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"--serve port out of range: {port}")
    return host, port


class AdminCommand:
    """One queued control verb, completed by the CC when applied."""

    __slots__ = ("verb", "args", "done", "result", "error")

    def __init__(self, verb: str, args: dict):
        self.verb = verb
        self.args = dict(args)
        self.done = threading.Event()
        self.result: dict | None = None
        self.error: str | None = None

    def complete(self, result: dict) -> None:
        self.result = result
        self.done.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.done.set()


class ControlPlane:
    """Thread-safe admin queue between the HTTP thread and the CC.

    The CC checks the plain :attr:`pending` bool on its miss path —
    one attribute read, no lock — and calls :meth:`drain` (locked)
    only when a command is actually waiting, so an attached-but-idle
    ops plane costs nothing measurable and charges no simulated time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._queue: list[AdminCommand] = []
        #: Lock-free fast-path flag read by the CC each miss.
        self.pending = False
        #: Commands successfully applied (monotonic).
        self.applied = 0

    def post(self, verb: str, args: dict | None = None) -> AdminCommand:
        cmd = AdminCommand(verb, args or {})
        with self._lock:
            self._queue.append(cmd)
            self.pending = True
        return cmd

    def drain(self) -> list[AdminCommand]:
        with self._lock:
            cmds, self._queue = self._queue, []
            self.pending = False
        return cmds


class ObsServer:
    """HTTP ops endpoint over one system (or one fleet's server tier).

    Sources are swappable: :meth:`attach_system` rebinds the snapshot
    and metrics callables, so one bound socket can serve a sequence of
    runs (the overhead benchmark reuses a single server across its
    timed runs; the fleet re-attaches per distinct client).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        server = self

        class _Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, fmt, *args):  # quiet by design
                pass

            def do_GET(self):
                server._handle_get(self)

            def do_POST(self):
                server._handle_post(self)

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-server",
            daemon=True)
        self._lock = threading.Lock()
        self._system = None
        self._fleet_mc = None
        self._fleet_shards = 0
        #: ControlPlane wired into the attached system's CC, or None.
        self.control: ControlPlane | None = None
        #: GET requests served (host-side bookkeeping only).
        self.scrapes = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if not self._started:
            self._thread.start()
            self._started = True
        return self

    def close(self) -> None:
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- attachment --------------------------------------------------------

    def attach_system(self, system, *, control: bool = True) -> None:
        """Serve *system* (a :class:`SoftCacheSystem`).

        With *control* (the default) a :class:`ControlPlane` is wired
        into the system's CC so POST verbs apply at miss boundaries;
        ``control=False`` attaches read-only (the fleet's capture
        phase, where mid-capture retuning would break the
        clients-are-identical replay contract).
        """
        with self._lock:
            self._system = system
            if control:
                self.control = ControlPlane()
                system.cc._control = self.control
            else:
                self.control = None

    def attach_fleet(self, shared_mc, shards: int) -> None:
        """Serve a fleet's shared server tier (``/inspect/shards``)."""
        with self._lock:
            self._fleet_mc = shared_mc
            self._fleet_shards = max(1, shards)

    # -- snapshot building -------------------------------------------------

    def _snapshot(self, builder):
        """Run *builder* with retry on concurrent-mutation races."""
        last: Exception | None = None
        for _ in range(4):
            try:
                return builder()
            except _RACE_ERRORS as exc:
                last = exc
        raise _SnapshotUnavailable(str(last))

    def _metrics_text(self) -> str:
        with self._lock:
            system = self._system
            fleet_mc = self._fleet_mc
        registry = MetricsRegistry()
        build_info = {}
        if system is not None:
            self._snapshot(lambda: system.publish_metrics(registry))
            build_info["granularity"] = system.config.granularity
        if fleet_mc is not None:
            from .metrics import publish_dataclass

            def _publish_fleet():
                shards = getattr(fleet_mc, "shards", None)
                if shards is not None:
                    for i, part in enumerate(shards):
                        publish_dataclass(registry, f"fleet.shard{i}",
                                          part.stats)
                else:
                    publish_dataclass(registry, "fleet.shard0",
                                      fleet_mc.stats)

            self._snapshot(_publish_fleet)
        return to_prometheus(registry, build_info=build_info)

    def _inspect(self, route: str):
        with self._lock:
            system = self._system
            fleet_mc = self._fleet_mc
            shards = self._fleet_shards
        if route == "images":
            if system is not None:
                return self._snapshot(system._inspect_images)
            if fleet_mc is not None:
                info = getattr(fleet_mc, "version_info", None)
                if info is not None:
                    return self._snapshot(info)
                return {"group": "default", "epoch": 0, "versions": []}
            raise _NotAttached("no system or fleet attached")
        if route in ("", "tcache", "superblocks"):
            if system is None:
                raise _NotAttached("no system attached")
            full = self._snapshot(system.inspect)
            if route == "":
                if fleet_mc is not None:
                    full["shards"] = self._snapshot(
                        lambda: _shard_snapshot(fleet_mc, shards))
                return full
            return full[route]
        if route == "shards":
            if fleet_mc is not None:
                return self._snapshot(
                    lambda: _shard_snapshot(fleet_mc, shards))
            if system is not None:
                return self._snapshot(
                    lambda: _shard_snapshot(system.mc, 1))
            raise _NotAttached("no system or fleet attached")
        raise _NotFound(f"unknown inspect route {route!r}")

    # -- HTTP plumbing -----------------------------------------------------

    def _handle_get(self, handler) -> None:
        self.scrapes += 1
        path = urlparse(handler.path).path.rstrip("/")
        try:
            if path == "/healthz":
                with self._lock:
                    body = {
                        "status": "ok",
                        "system": self._system is not None,
                        "fleet": self._fleet_mc is not None,
                        "control": self.control is not None,
                    }
                _send_json(handler, 200, body)
            elif path == "/metrics":
                text = self._metrics_text()
                _send(handler, 200, text.encode(),
                      "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/inspect" or path.startswith("/inspect/"):
                route = path[len("/inspect"):].lstrip("/")
                _send_json(handler, 200, self._inspect(route))
            else:
                _send_json(handler, 404,
                           {"error": f"no route {path!r}"})
        except _NotAttached as exc:
            _send_json(handler, 503, {"error": str(exc)})
        except _NotFound as exc:
            _send_json(handler, 404, {"error": str(exc)})
        except _SnapshotUnavailable as exc:
            _send_json(handler, 503,
                       {"error": f"snapshot raced with the "
                                 f"simulation: {exc}"})

    _ADMIN_VERBS = ("flush", "set", "resize", "publish")

    def _handle_post(self, handler) -> None:
        parsed = urlparse(handler.path)
        path = parsed.path.rstrip("/")
        if not path.startswith("/admin/"):
            _send_json(handler, 404, {"error": f"no route {path!r}"})
            return
        verb = path[len("/admin/"):]
        if verb not in self._ADMIN_VERBS:
            _send_json(handler, 404,
                       {"error": f"unknown admin verb {verb!r}"})
            return
        control = self.control
        if control is None:
            _send_json(handler, 503,
                       {"error": "no controllable system attached"})
            return
        length = int(handler.headers.get("Content-Length") or 0)
        raw = handler.rfile.read(length) if length else b""
        try:
            args = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            _send_json(handler, 400, {"error": f"bad JSON body: {exc}"})
            return
        if not isinstance(args, dict):
            _send_json(handler, 400,
                       {"error": "admin body must be a JSON object"})
            return
        wait = parse_qs(parsed.query).get("wait", ["10"])[0]
        try:
            wait_s = float(wait)
        except ValueError:
            wait_s = math.nan
        if not math.isfinite(wait_s):
            _send_json(handler, 400, {
                "error": f"wait must be a number of seconds, got {wait!r}"})
            return
        cmd = control.post(verb, args)
        if wait_s > 0 and cmd.done.wait(min(wait_s, threading.TIMEOUT_MAX)):
            if cmd.error is not None:
                _send_json(handler, 400, {"status": "rejected",
                                          "error": cmd.error})
            else:
                _send_json(handler, 200, {"status": "applied",
                                          "result": cmd.result})
        else:
            _send_json(handler, 202,
                       {"status": "pending", "verb": verb,
                        "note": "applies at the next miss boundary"})


class _NotAttached(Exception):
    pass


class _NotFound(Exception):
    pass


class _SnapshotUnavailable(Exception):
    pass


def _shard_snapshot(mc, shards: int) -> dict:
    """Per-shard load from a (possibly sharded) memory controller."""
    parts = getattr(mc, "shards", None)
    if parts is None:
        parts = [mc]
    rows = []
    for i, part in enumerate(parts):
        st = part.stats
        rows.append({
            "shard": i,
            "requests": st.requests,
            "chunks_built": st.chunks_built,
            "chunk_cache_hits": st.chunk_cache_hits,
            "bytes_served": st.bytes_served,
            "restarts": getattr(st, "restarts", 0),
        })
    total = sum(r["requests"] for r in rows)
    return {"n_shards": len(rows), "requests": total, "shards": rows}


def _send(handler, code: int, body: bytes, content_type: str) -> None:
    handler.send_response(code)
    handler.send_header("Content-Type", content_type)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)


def _send_json(handler, code: int, obj) -> None:
    _send(handler, code, (json.dumps(obj, indent=1) + "\n").encode(),
          "application/json")
