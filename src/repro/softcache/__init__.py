"""repro.softcache — the paper's contribution: an all-software
instruction cache built on dynamic binary rewriting.

Public surface:

* :class:`SoftCacheSystem` / :class:`SoftCacheConfig` — build and run a
  program under the software cache (``granularity``: ``block`` for the
  SPARC prototype, ``ebb`` for the optimized trace variant, ``proc``
  for the ARM prototype with redirectors).
* :class:`MemoryController` — the server side (chunking + rewriting).
* :class:`BlockCacheController` / :class:`ProcCacheController` — the
  client side (tcache, miss handling, backpatching, invalidation).
"""

from .cc import (
    BaseCacheController,
    BlockCacheController,
    ProcCacheController,
    SoftCacheError,
)
from .debug import (
    ConsistencyError,
    check_consistency,
    chunk_graph_dot,
    dump_tcache,
)
from .chunks import (
    BasicBlockChunker,
    Chunk,
    ChunkError,
    EBBChunker,
    ExitDesc,
    ExitKind,
    ProcedureChunker,
)
from .mc import MCStats, MemoryController
from .policy import (
    EVICT,
    FLUSH,
    POLICIES,
    FifoPolicy,
    FlushPolicy,
    NhitPolicy,
    ReplacementPolicy,
    make_policy,
    policy_names,
    validate_policy_name,
)
from .records import ContSlot, JRSite, Link, Redirector, SiteKind, Stub, TBlock
from .stats import SoftCacheStats
from .system import RunReport, SoftCacheConfig, SoftCacheSystem, run_softcache
from .tcache import TCache, TCacheFull, TCacheGeometry

__all__ = [
    "BaseCacheController", "BasicBlockChunker", "BlockCacheController",
    "Chunk", "ChunkError", "ConsistencyError", "ContSlot",
    "EBBChunker", "EVICT", "ExitDesc", "ExitKind", "FLUSH",
    "FifoPolicy", "FlushPolicy", "JRSite",
    "Link", "MCStats", "MemoryController", "NhitPolicy", "POLICIES",
    "ProcCacheController", "ProcedureChunker", "Redirector",
    "ReplacementPolicy", "RunReport", "SiteKind",
    "SoftCacheConfig", "SoftCacheError", "SoftCacheStats",
    "SoftCacheSystem", "Stub", "TBlock", "TCache", "TCacheFull",
    "TCacheGeometry", "check_consistency",
    "chunk_graph_dot", "dump_tcache", "make_policy", "policy_names",
    "run_softcache", "validate_policy_name",
]
