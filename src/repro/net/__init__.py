"""repro.net — the CC<->MC interconnect models.

A parameterized bandwidth/latency/overhead link (:class:`LinkModel`),
an accounting RPC channel (:class:`Channel`), the zero-cost
:data:`LOCAL_LINK` of the SPARC prototype, a two-hop
:class:`HubChannel` with a mid-tier chunk cache (the paper's
multilevel-caching remark), and a fault-injection layer
(:class:`FaultyChannel` driven by a seed-deterministic
:class:`FaultPlan` + :class:`RetryPolicy`) for exercising lossy links
and degraded resident mode.  Defaults match the paper's testbed:
10 Mbps Ethernet, 60 application bytes of protocol overhead per chunk
exchange.

A chunk RPC is ``channel.batch_exchange(mc, pairs)``: the argument is
the reply the MC served, ``[(chunk, payload), ...]`` with the demanded
chunk first, and each layer reads what it needs from that one call —
the link its sizes, the hub its keys (:func:`~repro.net.hub.hub_key`),
the fault layer the payload bytes a corruption flips and their CRC32.
"""

from .faults import (FaultPlan, FaultStats, FaultyChannel, LinkDown,
                     RetryPolicy, chunk_checksum, install_faults)
from .hub import HubChannel, HubStats, with_hub
from .link import Channel, LOCAL_LINK, LinkModel, LinkStats

__all__ = ["Channel", "FaultPlan", "FaultStats", "FaultyChannel",
           "HubChannel", "HubStats", "LOCAL_LINK", "LinkDown",
           "LinkModel", "LinkStats", "RetryPolicy", "chunk_checksum",
           "install_faults", "with_hub"]
