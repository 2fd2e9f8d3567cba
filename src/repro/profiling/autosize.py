"""Dominant-block-guided tcache sizing (``--tcache-size auto``).

Closes the observability→configuration loop: the profiler already
identifies the hot working set (the paper's 90%-of-runtime rule,
:meth:`Profile.hot_procs`) and Fig 8 sizes CC memories around
``hot_code_bytes`` — this module turns that signal into a concrete
tcache size, the way dominant-block cache-size estimation picks the
smallest cache holding the dominant blocks.

The estimate is measured, not guessed: the hot procedures are tiled
through the *real* chunker for the configured granularity, so the
rewriting expansion (extra words per chunk, per-granularity chunk
shapes) is exact rather than a fudge factor.  A slack multiplier then
covers what profiling cannot see — the cold tail that still rotates
through the cache, stub-area pressure shaping the usable block area —
and the result is rounded up to an allocator-friendly quantum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .profiler import Profile, profile_image


@dataclass(frozen=True)
class AutoSizeEstimate:
    """Everything ``--tcache-size auto`` derived, for reporting."""

    #: The chosen tcache size in bytes.
    tcache_size: int
    #: Static bytes of the hot procedures (the dominant-block set).
    hot_code_bytes: int
    #: Those procedures' size after rewriting (tiled through the
    #: chunker; what they actually occupy in the tcache).
    rewritten_hot_bytes: int
    #: Names of the hot procedures, hottest first.
    hot_procs: tuple[str, ...]
    #: Profile coverage threshold used (the 90% rule by default).
    threshold: float
    #: Headroom multiplier applied over the rewritten hot bytes.
    slack: float


def measure_rewritten_bytes(image, procs, *,
                            granularity: str = "block") -> int:
    """Tile *procs* through the real chunker; sum rewritten sizes.

    Walks each procedure the way the CC faults it in — chunk at the
    start, advance by the original bytes the chunk covered — so EBB
    gluing, per-chunk extra words and proc-mode whole-procedure chunks
    are all measured exactly.  Procedures the chunker refuses
    (programming-model violations) fall back to a conservative 2x of
    their static size.
    """
    from ..softcache.chunks import ChunkError
    from ..softcache.mc import MemoryController

    mc = MemoryController(image, granularity=granularity)
    total = 0
    for proc in procs:
        addr = proc.addr
        while addr < proc.end:
            try:
                chunk = mc.chunker.chunk_at(addr)
            except ChunkError:
                total += 2 * (proc.end - addr)
                break
            total += chunk.size
            if chunk.orig_size <= 0:  # defensive: never stall
                total += 2 * (proc.end - addr)
                break
            addr += chunk.orig_size
    return total


def estimate_tcache_size(image, *, threshold: float = 0.90,
                         slack: float = 1.2, quantum: int = 1024,
                         minimum: int = 1024,
                         granularity: str = "block",
                         profile: Profile | None = None
                         ) -> AutoSizeEstimate:
    """Full auto-size estimate with its inputs (for reporting).

    *profile* reuses an existing native profile; otherwise one
    profiling run is performed.  *slack* is headroom over the
    rewritten hot working set; *quantum* rounds the result up to an
    allocator-friendly multiple; *minimum* floors pathological
    profiles (a tiny hot loop still needs room to breathe).
    """
    if profile is None:
        profile = profile_image(image)
    hot = profile.hot_procs(threshold)
    rewritten = measure_rewritten_bytes(
        image, [e.proc for e in hot], granularity=granularity)
    raw = max(minimum, int(rewritten * slack))
    size = -(-raw // quantum) * quantum  # round up to the quantum
    return AutoSizeEstimate(
        tcache_size=size,
        hot_code_bytes=profile.hot_code_bytes(threshold),
        rewritten_hot_bytes=rewritten,
        hot_procs=tuple(e.name for e in hot),
        threshold=threshold,
        slack=slack,
    )


def auto_tcache_size(image, *, threshold: float = 0.90,
                     slack: float = 1.2, quantum: int = 1024,
                     minimum: int = 1024, granularity: str = "block",
                     profile: Profile | None = None) -> int:
    """The ``--tcache-size auto`` entry point: bytes for this image."""
    return estimate_tcache_size(
        image, threshold=threshold, slack=slack, quantum=quantum,
        minimum=minimum, granularity=granularity,
        profile=profile).tcache_size
