"""Persistent compiled-superblock artifact store (the JIT warm path).

Lives alongside the native-trace cache in ``.cache/traces/`` (same
directory resolution: an explicit override, else ``$REPRO_TRACE_CACHE``,
else ``.cache/traces``).  Each artifact is ``marshal``-serialized
``(code object, fault fix-ups, source text)`` keyed by a blake2b digest
of ``(codegen version, cost signature, block shape)`` — the shape is
the raw instruction words with the terminator's target field cleared
(:func:`repro.sim.jit.split_target`), the same identity the in-process
compiled cache uses.  The exit target is bound at bind time, never
stored, so one artifact serves every re-patched copy of a block and a
warm process can bind a compiled block without ever running codegen.

File names are fully self-describing:

    jit-v{JIT_CODEGEN_VERSION}-{interpreter cache_tag}-{digest}.sbc

where *digest* is ``i{image_tag}-{hex}`` for versioned images (live
code update) and a bare hex digest for legacy/unversioned runs — the
image tag participates in both the key material and the filename, so a
republished image can never hit a pre-update artifact, and
:func:`sweep_stale` can garbage-collect artifacts from retired image
versions when told which tags are still live.

``marshal`` byte streams are only readable by the interpreter version
that wrote them, so the interpreter's ``cache_tag`` participates in the
name (not just the key) and :func:`sweep_stale` deletes any ``jit-*``
artifact whose prefix doesn't match the running process — codegen bumps
and interpreter upgrades garbage-collect themselves.  Loads treat any
undecodable file as a miss; stores are atomic (tmp file + rename) and
best-effort: a read-only or missing cache directory degrades to
cold-compiling every block, never to an error.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import sys
import tempfile
import types
from pathlib import Path

from .jit import JIT_CODEGEN_VERSION

_TAG = sys.implementation.cache_tag or "python"

#: Current artifact filename prefix; anything else under ``jit-*`` is
#: a stale generation and fair game for :func:`sweep_stale`.
ARTIFACT_PREFIX = f"jit-v{JIT_CODEGEN_VERSION}-{_TAG}-"
ARTIFACT_SUFFIX = ".sbc"

_dir_override: Path | None = None
_swept_dirs: set[Path] = set()


def artifact_dir() -> Path:
    """Directory holding compiled-superblock artifacts."""
    if _dir_override is not None:
        return _dir_override
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env:
        return Path(env)
    return Path(".cache") / "traces"


def set_artifact_dir(path) -> None:
    """Override the artifact directory (``None`` restores defaults).

    :func:`repro.eval.common.set_trace_cache_dir` forwards here so the
    trace cache and the JIT store always share one directory.
    """
    global _dir_override
    _dir_override = Path(path) if path is not None else None


def artifact_key(cost_sig, words, image_tag: str = "") -> str:
    """Content digest for one superblock shape's compiled artifact
    (*words* is the shape, :func:`repro.sim.jit.split_target`).

    *image_tag* is the content tag of the image version the words came
    from (live code update): a republished image gets a disjoint
    artifact namespace, so a pre-update ``.sbc`` file can never be
    resurrected for post-update code.  The empty default keeps the
    legacy keys of unversioned (native-mode) runs.
    """
    h = hashlib.blake2b(digest_size=20)
    h.update(repr((JIT_CODEGEN_VERSION, _TAG, cost_sig, image_tag,
                   tuple(words))).encode())
    if image_tag:
        return f"i{image_tag}-{h.hexdigest()}"
    return h.hexdigest()


def artifact_path(digest: str) -> Path:
    return artifact_dir() / f"{ARTIFACT_PREFIX}{digest}{ARTIFACT_SUFFIX}"


def load(digest: str):
    """Return ``(code, fixups, src)`` or ``None`` (miss / undecodable,
    or a well-formed tuple of the wrong types)."""
    try:
        blob = artifact_path(digest).read_bytes()
        code, fixups, src = marshal.loads(blob)
    except Exception:
        return None
    if (not isinstance(code, types.CodeType)
            or not isinstance(src, str) or not isinstance(fixups, dict)):
        return None
    return code, fixups, src


def store(digest: str, code, fixups, src: str) -> bool:
    """Persist one artifact atomically; best-effort (returns success)."""
    path = artifact_path(digest)
    directory = path.parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
        if directory not in _swept_dirs:
            _swept_dirs.add(directory)
            sweep_stale(directory)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(marshal.dumps((code, fixups, src)))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except (OSError, ValueError):
        return False
    return True


def sweep_stale(directory=None, image_tags=None) -> int:
    """Delete ``jit-*`` artifacts from other codegen versions or
    interpreters.  Returns the number of files removed.

    When *image_tags* is given (a collection of live image tags),
    additionally delete artifacts from image versions *not* in the set
    — the stale-epoch sweep after a live code update retires old
    versions.  Legacy artifacts without an image-tag component are
    kept: they belong to unversioned runs, not to any retired epoch.
    """
    directory = Path(directory) if directory is not None else artifact_dir()
    if not directory.is_dir():
        return 0
    live = set(image_tags) if image_tags is not None else None
    removed = 0
    for entry in directory.glob(f"jit-*{ARTIFACT_SUFFIX}"):
        stale = not entry.name.startswith(ARTIFACT_PREFIX)
        if not stale and live is not None:
            digest = entry.name[len(ARTIFACT_PREFIX):-len(ARTIFACT_SUFFIX)]
            if digest.startswith("i") and "-" in digest:
                stale = digest[1:].split("-", 1)[0] not in live
        if not stale:
            continue
        try:
            entry.unlink()
        except OSError:
            continue
        removed += 1
    return removed
