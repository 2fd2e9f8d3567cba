"""Fault injection for the CC<->MC link: lossy channels, retries,
degraded resident mode.

The paper assumes the embedded client is "permanently connected" to
the MC over a reliable RPC link (§2.4) — misses block, replies always
arrive, the server never restarts.  At production scale none of that
holds, and the translation cache becomes the survivability layer: a
client with a warm tcache keeps executing resident chunks even while
the MC is away.  This module supplies the machinery:

* :class:`FaultPlan` — a frozen, seed-driven specification of link
  faults: drop/duplicate/corrupt/delay probabilities, partition
  windows and MC crash-restart epochs, all resolved from one seeded
  PRNG so the same plan always produces the same fault sequence.
* :class:`RetryPolicy` — timeout, exponential backoff with seeded
  jitter, and a per-exchange retry budget.
* :class:`FaultyChannel` — a drop-in wrapper over
  :class:`~repro.net.link.Channel` (or
  :class:`~repro.net.hub.HubChannel`) that replays each RPC through
  the plan: failed attempts cost the client a timeout plus backoff,
  corrupted replies are caught by the chunk checksum carried in the
  MC reply header and charged as a re-fetch, and exhausting the retry
  budget on the miss path raises the typed :class:`LinkDown` trap
  that sends the CC into **degraded resident mode** (see
  ``BaseCacheController._replay_after_reconnect``).

Zero cost when absent: no plan installed means no wrapper — the
system's channel is the plain seed :class:`Channel` and every code
path is bit-identical to a fault-free build (``FaultPlan.none()``
installs nothing).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Sequence


def chunk_checksum(payload: bytes) -> int:
    """The integrity word the MC puts in each chunk reply header.

    CRC32 of the pre-encoded payload bytes; the client verifies it
    before installing, so a corrupted reply is detected and re-fetched
    instead of silently installed as garbage code.
    """
    return zlib.crc32(payload) & 0xFFFFFFFF


class LinkDown(Exception):
    """Retry budget exhausted: the CC<->MC link is (transiently) down.

    Raised by :class:`FaultyChannel` on the chunk miss path only; the
    cache controller catches it per-miss, records it against the
    demanded chunk and enters degraded resident mode until the next
    reconnect epoch.
    """

    def __init__(self, kind: str, attempts: int, seconds: float = 0.0):
        super().__init__(f"link down after {attempts} attempts "
                         f"({kind} exchange)")
        self.kind = kind
        self.attempts = attempts
        #: Client seconds already burned on timeouts/backoff before
        #: the budget ran out (the CC charges them to the miss).
        self.seconds = seconds


class FaultConfigError(RuntimeError):
    """A fault plan that can never deliver (e.g. drop probability 1
    with no partition end), detected by the reconnect-epoch cap."""


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side retry behaviour for one RPC exchange."""

    #: Seconds the client waits for a reply before declaring the
    #: attempt lost.
    timeout_s: float = 2e-3
    #: Attempts (1 + retries) before the exchange raises LinkDown.
    max_attempts: int = 4
    #: First backoff interval; doubles (``backoff_factor``) per retry.
    backoff_base_s: float = 0.5e-3
    backoff_factor: float = 2.0
    #: Backoff ceiling.
    backoff_max_s: float = 8e-3
    #: Fractional jitter: each backoff is scaled by a factor drawn
    #: uniformly from [1-jitter, 1+jitter] using the channel's seeded
    #: PRNG (deterministic per seed, decorrelated across clients).
    jitter: float = 0.1

    def backoff_s(self, attempt: int, rng: random.Random | None) -> float:
        """Backoff before retry number *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(self.backoff_max_s,
                   self.backoff_base_s *
                   self.backoff_factor ** (attempt - 1))
        if self.jitter and rng is not None:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seed-driven fault specification for one link.

    Per-attempt fault outcomes are drawn from ``random.Random(seed)``
    in a fixed order, so the same plan instance always yields the same
    event sequence (:meth:`decisions` exposes the stream for tests).
    ``partitions`` and ``mc_crash_epochs`` are expressed in *attempt
    index* units — the global count of RPC attempts the channel has
    made — which keeps them exactly reproducible regardless of
    workload timing.
    """

    seed: int = 0
    #: Request lost before reaching the MC (client times out).
    drop_request_p: float = 0.0
    #: Reply lost on the way back (server did the work, client times
    #: out and re-fetches).
    drop_reply_p: float = 0.0
    #: Reply payload corrupted in transit (caught by the reply-header
    #: checksum, charged as a re-fetch).
    corrupt_p: float = 0.0
    #: Reply duplicated (wasted wire time, client unaffected).
    duplicate_p: float = 0.0
    #: Reply delayed by ~``delay_s`` extra seconds.
    delay_p: float = 0.0
    delay_s: float = 1e-3
    #: ``(start, end)`` attempt-index windows during which every
    #: attempt is dropped (link partition).
    partitions: tuple[tuple[int, int], ...] = ()
    #: Attempt indexes at which the MC crash-restarts: the in-flight
    #: attempt is lost and the server's chunk cache comes back cold.
    mc_crash_epochs: tuple[int, ...] = ()

    def is_none(self) -> bool:
        """True if this plan can never produce a fault."""
        return (self.drop_request_p <= 0 and self.drop_reply_p <= 0
                and self.corrupt_p <= 0 and self.duplicate_p <= 0
                and self.delay_p <= 0 and not self.partitions
                and not self.mc_crash_epochs)

    # -- presets ------------------------------------------------------

    @classmethod
    def none(cls) -> "FaultPlan":
        """The fault-free plan: installing it is a no-op."""
        return cls()

    @classmethod
    def lossy(cls, seed: int = 0, p: float = 0.05) -> "FaultPlan":
        """A uniformly lossy link: drops, corruption, dups, delays."""
        return cls(seed=seed, drop_request_p=p / 2, drop_reply_p=p / 2,
                   corrupt_p=p / 2, duplicate_p=p / 4, delay_p=p,
                   delay_s=1e-3)

    @classmethod
    def chaos(cls, seed: int = 0) -> "FaultPlan":
        """One cell of the chaos matrix: the seed picks both the PRNG
        stream and the fault mix, so ``chaos(0..N)`` spans light loss,
        heavy loss, partitions and MC crash-restarts.  Every fault is
        transient, so a run under any chaos cell must reach the exact
        fault-free architectural state."""
        r = random.Random(seed)
        partitions: tuple[tuple[int, int], ...] = ()
        crashes: tuple[int, ...] = ()
        if seed % 3 == 0:
            start = 20 + r.randrange(30)
            partitions = ((start, start + 8 + r.randrange(12)),)
        if seed % 4 == 1:
            crashes = (15 + r.randrange(40),)
        return cls(seed=seed,
                   drop_request_p=0.01 + 0.04 * r.random(),
                   drop_reply_p=0.01 + 0.04 * r.random(),
                   corrupt_p=0.01 + 0.04 * r.random(),
                   duplicate_p=0.02 * r.random(),
                   delay_p=0.05 * r.random(), delay_s=1e-3,
                   partitions=partitions, mc_crash_epochs=crashes)

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a CLI spec string.

        Either a preset name (``none``, ``lossy``, ``chaos``) or a
        comma-separated list of ``key=value`` terms::

            drop=0.1,corrupt=0.05,dup=0.02,delay=0.1:0.002,
            partition=40:60,crash=100

        ``drop`` splits evenly between request and reply loss
        (``drop_req=`` / ``drop_reply=`` set them individually);
        ``delay`` takes ``p`` or ``p:seconds``; ``partition`` takes
        ``start:end`` attempt indexes (repeatable); ``crash`` takes an
        attempt index (repeatable).
        """
        spec = spec.strip()
        if spec in ("", "none"):
            return cls(seed=seed)
        if spec == "lossy":
            return cls.lossy(seed)
        if spec == "chaos":
            return cls.chaos(seed)
        kwargs: dict = {}
        partitions: list[tuple[int, int]] = []
        crashes: list[int] = []
        for term in spec.split(","):
            key, sep, value = term.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"bad fault-plan term {term!r}")
            if key == "drop":
                p = float(value)
                kwargs["drop_request_p"] = p / 2
                kwargs["drop_reply_p"] = p / 2
            elif key in ("drop_req", "drop_request"):
                kwargs["drop_request_p"] = float(value)
            elif key == "drop_reply":
                kwargs["drop_reply_p"] = float(value)
            elif key == "corrupt":
                kwargs["corrupt_p"] = float(value)
            elif key in ("dup", "duplicate"):
                kwargs["duplicate_p"] = float(value)
            elif key == "delay":
                p, _, secs = value.partition(":")
                kwargs["delay_p"] = float(p)
                if secs:
                    kwargs["delay_s"] = float(secs)
            elif key == "partition":
                start, _, end = value.partition(":")
                partitions.append((int(start), int(end)))
            elif key == "crash":
                crashes.append(int(value))
            else:
                raise ValueError(f"unknown fault-plan key {key!r}")
        return cls(seed=seed, partitions=tuple(partitions),
                   mc_crash_epochs=tuple(crashes), **kwargs)

    # -- the decision stream ------------------------------------------

    def decisions(self, n: int) -> list[str]:
        """The first *n* fault outcomes this plan produces — a fresh
        decider each call, so the list is a pure function of the plan
        (the determinism contract the tests pin)."""
        decider = _Decider(self)
        return [decider.next()[0] for _ in range(n)]


class _Decider:
    """Resolves a FaultPlan into per-attempt outcomes.

    One ``random()`` draw per probabilistic attempt (plus one extra
    draw for corruption position or delay magnitude), so the stream is
    a deterministic function of the seed.
    """

    __slots__ = ("plan", "rng", "index")

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.index = 0

    def next(self) -> tuple[str, dict]:
        plan = self.plan
        i = self.index
        self.index = i + 1
        if i in plan.mc_crash_epochs:
            return "mc_crash", {}
        for start, end in plan.partitions:
            if start <= i < end:
                return "partition", {}
        total = (plan.drop_request_p + plan.drop_reply_p +
                 plan.corrupt_p + plan.duplicate_p + plan.delay_p)
        if total <= 0.0:
            return "ok", {}
        r = self.rng.random()
        if r < plan.drop_request_p:
            return "drop_request", {}
        r -= plan.drop_request_p
        if r < plan.drop_reply_p:
            return "drop_reply", {}
        r -= plan.drop_reply_p
        if r < plan.corrupt_p:
            return "corrupt", {"where": self.rng.random()}
        r -= plan.corrupt_p
        if r < plan.duplicate_p:
            return "duplicate", {}
        r -= plan.duplicate_p
        if r < plan.delay_p:
            return "delay", {"seconds":
                             plan.delay_s * (0.5 + self.rng.random())}
        return "ok", {}


@dataclass
class FaultStats:
    """Everything the fault layer did to one channel."""

    #: RPC attempts made (delivered + failed).
    attempts: int = 0
    #: Exchanges that completed (one per logical RPC).
    delivered: int = 0
    #: Failed attempts that were retried within the budget.
    retries: int = 0
    drops_request: int = 0
    drops_reply: int = 0
    #: Attempts swallowed by a partition window.
    partition_drops: int = 0
    corruptions: int = 0
    #: Corrupted replies rejected by the chunk checksum.
    checksum_failures: int = 0
    duplicates: int = 0
    #: Wire time wasted by duplicated replies (not charged to the
    #: client, which already had the first copy).
    duplicate_wasted_s: float = 0.0
    delays: int = 0
    delay_seconds: float = 0.0
    #: Client seconds spent waiting out lost attempts.
    timeout_seconds: float = 0.0
    #: Client seconds spent backing off between retries.
    backoff_seconds: float = 0.0
    #: MC crash-restart epochs hit.
    mc_restarts: int = 0
    #: Retry budgets exhausted (LinkDown raised or auto-reconnected).
    link_down_events: int = 0
    #: Reconnect epochs (explicit waits after a LinkDown).
    reconnects: int = 0
    reconnect_stall_seconds: float = 0.0

    @property
    def failed_attempts(self) -> int:
        return self.attempts - self.delivered

    def retry_overhead(self) -> float:
        """Failed attempts per delivered exchange."""
        if not self.delivered:
            return 0.0
        return self.failed_attempts / self.delivered


#: Outcomes whose request reaches the server (the inner channel is
#: traversed and its traffic recorded) even if the reply is lost.
_REACHES_SERVER = frozenset(
    ("ok", "delay", "duplicate", "corrupt", "drop_reply"))

#: Hard cap on reconnect epochs inside one internally-retried exchange
#: (non-chunk kinds never raise LinkDown); hitting it means the plan
#: can never deliver.
_MAX_EPOCHS = 1000


class FaultyChannel:
    """A Channel/HubChannel wrapper that injects plan-driven faults.

    Duck-typed as a :class:`~repro.net.link.Channel`: unknown
    attributes (``stats``, ``hub_stats``, ``next_keys``…) delegate to
    the wrapped channel, so the rest of the stack is oblivious.  Every
    returned ``seconds`` value folds in timeouts and backoff, so the
    CC's existing ``_charge_link`` conversion charges retries to the
    simulated CPU without modification.  Each call is forwarded as
    the same call on the wrapped channel: a chunk RPC, whatever its
    length, is a ``batch_exchange``, and a replayed one re-arms a
    hub's ``next_keys``.

    Chunk exchanges carry staged ``(payload, checksum)`` pairs (set by
    the CC via :meth:`stage_payloads`); a ``corrupt`` outcome flips a
    byte of the in-flight copy and verifies the reply-header checksum
    actually rejects it.  On the chunk miss path an exhausted retry
    budget raises :class:`LinkDown`; all other kinds (data refills,
    writebacks on an acknowledged transport) reconnect internally and
    always deliver.
    """

    def __init__(self, inner, plan: FaultPlan,
                 policy: RetryPolicy | None = None, *, mc=None):
        self.inner = inner
        self.link = inner.link
        self.plan = plan
        self.policy = policy or RetryPolicy()
        self.mc = mc
        self.fault_stats = FaultStats()
        self._decider = _Decider(plan)
        #: Separate stream for backoff jitter so the fault-outcome
        #: sequence is independent of how many retries jitter draws.
        self._backoff_rng = random.Random(
            (plan.seed * 0x9E3779B1 + 1) & 0xFFFFFFFF)
        self.tracer = None
        self._staged: list[tuple[bytes, int]] | None = None
        #: True between a retry-budget exhaustion and the next
        #: successful delivery (the CC's degraded-mode window).
        self.down = False

    def __getattr__(self, name):
        return getattr(self.__dict__["inner"], name)

    # -- staging ------------------------------------------------------

    def stage_payloads(self, items: Sequence[tuple[bytes, int]]) -> None:
        """Attach the (payload, checksum) pairs of the next chunk
        exchange so corruption outcomes operate on real bytes."""
        self._staged = list(items)

    # -- channel interface --------------------------------------------

    def exchange(self, kind: str, payload_bytes: int) -> float:
        return self._deliver(kind, (payload_bytes,), batched=False)

    def batch_exchange(self, kind: str,
                       payload_sizes: Sequence[int]) -> float:
        return self._deliver(kind, tuple(payload_sizes), batched=True)

    def send(self, kind: str, payload_bytes: int) -> float:
        # one-way messages ride an acknowledged transport: a lost one
        # is re-sent after a timeout, never silently dropped (a lost
        # writeback would corrupt server state).
        return self._deliver(kind, (payload_bytes,), batched=False,
                             one_way=True)

    def wait_reconnect(self) -> float:
        """Stall until the link is plausibly back, returning the
        stalled seconds (the CC charges them as degraded-mode time).

        If the current attempt index sits inside a partition window
        the stall covers the remainder of the window (one timeout per
        skipped attempt slot); otherwise one max-backoff interval.
        """
        st = self.fault_stats
        st.reconnects += 1
        stall = self.policy.backoff_max_s
        decider = self._decider
        for start, end in self.plan.partitions:
            if start <= decider.index < end:
                stall += (end - decider.index) * self.policy.timeout_s
                decider.index = end
                break
        # ``down`` stays set until a delivery actually succeeds
        # (_deliver clears it): the reconnect is only presumptive.
        st.reconnect_stall_seconds += stall
        if self.tracer is not None:
            self.tracer.emit("fault.reconnect", "fault", stall_s=stall)
        return stall

    # -- the retry loop -----------------------------------------------

    def _deliver(self, kind: str, sizes: tuple[int, ...],
                 batched: bool, one_way: bool = False) -> float:
        policy = self.policy
        st = self.fault_stats
        trc = self.tracer
        payloads = self._staged
        self._staged = None
        keys = getattr(self.inner, "next_keys", None)
        can_trap = kind == "chunk" and not one_way
        seconds = 0.0
        attempt = 0
        epochs = 0
        reached = False  # a prior attempt already traversed the hub
        while True:
            outcome, info = self._decider.next()
            attempt += 1
            st.attempts += 1
            if outcome in _REACHES_SERVER:
                inner_s = self._call_inner(kind, sizes, batched, one_way,
                                           keys, replay=reached)
                reached = True
                if outcome == "drop_reply":
                    st.drops_reply += 1
                    st.timeout_seconds += policy.timeout_s
                    seconds += policy.timeout_s
                    if trc is not None:
                        trc.emit("fault.drop", "fault", kind=kind,
                                 attempt=attempt, where="reply")
                elif outcome == "corrupt" and not self._corrupt_slips(
                        payloads, info, kind, attempt):
                    seconds += inner_s  # reply arrived, then rejected
                else:
                    st.delivered += 1
                    if outcome == "delay":
                        extra = info["seconds"]
                        st.delays += 1
                        st.delay_seconds += extra
                        inner_s += extra
                        if trc is not None:
                            trc.emit("fault.delay", "fault", kind=kind,
                                     seconds=extra)
                    elif outcome == "duplicate":
                        st.duplicates += 1
                        # the copy costs what its message costs; a
                        # batch of one is exactly exchange_time
                        st.duplicate_wasted_s += (
                            self.link.one_way_time(sizes[0]) if one_way
                            else self.link.batch_exchange_time(sizes))
                        if trc is not None:
                            trc.emit("fault.duplicate", "fault",
                                     kind=kind)
                    self.down = False
                    return seconds + inner_s
            else:
                # request never reached the server
                if outcome == "mc_crash":
                    self._mc_restart()
                elif outcome == "partition":
                    st.partition_drops += 1
                else:
                    st.drops_request += 1
                st.timeout_seconds += policy.timeout_s
                seconds += policy.timeout_s
                if trc is not None:
                    trc.emit("fault.drop", "fault", kind=kind,
                             attempt=attempt,
                             where="crash" if outcome == "mc_crash"
                             else "partition" if outcome == "partition"
                             else "request")
            # the attempt failed: back off, retry, or give up
            if attempt >= policy.max_attempts:
                st.link_down_events += 1
                self.down = True
                if trc is not None:
                    trc.emit("fault.link_down", "fault", kind=kind,
                             attempts=attempt)
                if can_trap:
                    raise LinkDown(kind, attempt, seconds)
                epochs += 1
                if epochs >= _MAX_EPOCHS:
                    raise FaultConfigError(
                        f"{kind} exchange never delivered after "
                        f"{epochs} reconnect epochs; the fault plan "
                        f"cannot make progress")
                seconds += self.wait_reconnect()
                attempt = 0
            else:
                backoff = policy.backoff_s(attempt, self._backoff_rng)
                st.retries += 1
                st.backoff_seconds += backoff
                seconds += backoff
                if trc is not None:
                    trc.emit("fault.retry", "fault", kind=kind,
                             attempt=attempt, backoff_s=backoff)
        raise AssertionError("unreachable")  # pragma: no cover

    def _call_inner(self, kind, sizes, batched, one_way, keys,
                    replay: bool) -> float:
        """Traverse the wrapped channel once, re-arming a hub's batch
        keys and flagging replays so hub hit-rate accounting can tell
        a replayed request from a fresh one."""
        inner = self.inner
        is_hub = hasattr(inner, "replaying")
        if replay:
            if keys is not None:
                inner.next_keys = keys
            if is_hub:
                inner.replaying = True
        try:
            if one_way:
                return inner.send(kind, sizes[0])
            if batched:
                return inner.batch_exchange(kind, sizes)
            return inner.exchange(kind, sizes[0])
        finally:
            if replay and is_hub:
                inner.replaying = False

    def _corrupt_slips(self, payloads, info, kind, attempt) -> bool:
        """Model one corrupted reply; True if it evades the checksum
        (never, for CRC32 over a single flipped byte — the return
        value exists so the verification is real, not assumed)."""
        st = self.fault_stats
        st.corruptions += 1
        if self.tracer is not None:
            self.tracer.emit("fault.corrupt", "fault", kind=kind,
                             attempt=attempt)
        if not payloads:
            # non-chunk traffic: transport-level checksum catches it
            st.checksum_failures += 1
            return False
        where = info["where"]
        payload, checksum = payloads[int(where * len(payloads))
                                     % len(payloads)]
        if not payload:
            st.checksum_failures += 1
            return False
        corrupted = bytearray(payload)
        pos = int(where * len(corrupted)) % len(corrupted)
        corrupted[pos] ^= 0xFF
        if chunk_checksum(bytes(corrupted)) == checksum:
            return True  # pragma: no cover - CRC32 catches bit flips
        st.checksum_failures += 1
        return False

    def _mc_restart(self) -> None:
        """The MC crash-restarted: the in-flight request is lost and
        the server's caches come back cold."""
        self.fault_stats.mc_restarts += 1
        if self.mc is not None:
            self.mc.restart()


def install_faults(system, plan: FaultPlan | None,
                   policy: RetryPolicy | None = None):
    """Wrap *system*'s channel in a :class:`FaultyChannel`.

    Returns the installed channel, or None for a no-fault plan (in
    which case nothing changes and the system keeps its seed-identical
    fast path).  If a hub is in play, call :func:`~repro.net.hub.
    with_hub` first so the faults wrap the near hop.
    """
    if plan is None or plan.is_none():
        return None
    chan = FaultyChannel(system.channel, plan, policy, mc=system.mc)
    chan.tracer = getattr(system.channel, "tracer", None)
    system.channel = chan
    system.cc.channel = chan
    system.cc._stager = chan.stage_payloads
    if getattr(system, "dcache", None) is not None:
        system.dcache.channel = chan
    return chan
