"""repro.fleet — the Figure-1 deployment: one server tier, many devices.

:func:`simulate_fleet` runs a fleet of identical embedded clients
against a shared server tier and uplink under a discrete-event
scheduler (one simulated clock, live queueing feedback), reporting
server-side chunk-cache sharing, link utilization, queueing delay and
per-shard load.  :class:`ShardedMemoryController` is the
consistent-hash origin tier; :mod:`repro.fleet.sched` holds the
capture/replay machinery.  See docs/FLEET.md.
"""

from .fleet import ClientResult, FleetResult, ShardLoad, simulate_fleet
from .sched import (
    ClientTrace,
    MCProbe,
    RpcRecord,
    SimOutcome,
    WireTap,
    run_event_sim,
)
from .shard import (
    ConsistentHashRing,
    ShardedMemoryController,
    aggregate_mc_stats,
)

__all__ = [
    "ClientResult", "FleetResult", "ShardLoad", "simulate_fleet",
    "ClientTrace", "MCProbe", "RpcRecord", "SimOutcome", "WireTap",
    "run_event_sim",
    "ConsistentHashRing", "ShardedMemoryController",
    "aggregate_mc_stats",
]
