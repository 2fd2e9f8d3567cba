"""Byte-addressable memory built from named regions.

Regions model the paper's split address space: the embedded client's
**local RAM** (tcache + runtime), the server-resident **remote text
and data**, and the stack.  Each region carries permissions; in
SoftCache mode the remote text region is mapped *non-executable* so
any fetch escaping the translation cache faults immediately instead of
silently running untranslated code.

A write into an executable region that changes at least one byte
invokes ``code_write_hooks`` so the CPU can drop the closures and
superblocks it made stale — this is what makes dynamic binary
rewriting visible to the interpreter.  A write that stores the bytes
already there changes no code, so it calls no hook.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable

from .errors import MemoryFault

_LITTLE_ENDIAN_HOST = sys.byteorder == "little"


@dataclass(slots=True)
class Region:
    """A contiguous mapped range ``[base, base + size)``."""

    name: str
    base: int
    size: int
    readable: bool = True
    writable: bool = True
    executable: bool = False
    buf: bytearray = field(default_factory=bytearray)
    #: ``base + size``, precomputed for the accessors' hot path.
    end_addr: int = field(default=0, repr=False)
    #: 32/16-bit views over ``buf`` (little-endian hosts only); aligned
    #: word/half accesses go through these instead of slice+from_bytes.
    view32: "memoryview | None" = field(default=None, repr=False)
    view16: "memoryview | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.buf:
            self.buf = bytearray(self.size)
        elif len(self.buf) != self.size:
            raise ValueError("buffer length != region size")
        self.end_addr = self.base + self.size
        if _LITTLE_ENDIAN_HOST:
            view = memoryview(self.buf)
            if self.base % 4 == 0 and self.size % 4 == 0:
                self.view32 = view.cast("I")
            if self.base % 2 == 0 and self.size % 2 == 0:
                self.view16 = view.cast("H")

    @property
    def end(self) -> int:
        return self.end_addr

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end_addr


class Memory:
    """The machine's physical memory: an ordered set of regions."""

    def __init__(self) -> None:
        self.regions: list[Region] = []
        #: Called as ``hook(addr, length)`` after a write that changes
        #: a byte of an executable region (decode-cache invalidation).
        self.code_write_hooks: list[Callable[[int, int], None]] = []
        self._last: Region | None = None
        #: 4K-page number -> region, for pages fully inside one region;
        #: O(1) lookup when accesses ping-pong between regions (code in
        #: local RAM, data on the stack) and the ``_last`` cache misses.
        self._page_map: dict[int, Region] = {}

    # -- mapping --------------------------------------------------------

    def map_region(self, region: Region) -> Region:
        """Map *region*; overlapping ranges are rejected."""
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name} overlaps {existing.name}")
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        pages = self._page_map
        for page in range(region.base >> 12,
                          (region.end_addr + 0xFFF) >> 12):
            if (page << 12) >= region.base and \
                    ((page + 1) << 12) <= region.end_addr:
                pages[page] = region
        return region

    def region_named(self, name: str) -> Region:
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def region_at(self, addr: int) -> Region:
        """Find the region containing *addr* (fast path: last hit)."""
        last = self._last
        if last is not None and last.base <= addr < last.end_addr:
            return last
        region = self._page_map.get(addr >> 12)
        if region is not None:
            self._last = region
            return region
        for region in self.regions:
            if region.base <= addr < region.end_addr:
                self._last = region
                return region
        raise MemoryFault(addr, "unmapped")

    # -- typed access ----------------------------------------------------

    def read_word(self, addr: int) -> int:
        if addr & 3:
            raise MemoryFault(addr, "misaligned word read")
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        if not region.readable:
            raise MemoryFault(addr, "read from non-readable region")
        view = region.view32
        if view is not None:
            return view[(addr - region.base) >> 2]
        off = addr - region.base
        return int.from_bytes(region.buf[off:off + 4], "little")

    def write_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise MemoryFault(addr, "misaligned word write")
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        if not region.writable:
            raise MemoryFault(addr, "write to read-only region")
        view = region.view32
        if view is None:
            self._write_buf(region, addr,
                            (value & 0xFFFFFFFF).to_bytes(4, "little"))
        elif not region.executable:
            view[(addr - region.base) >> 2] = value & 0xFFFFFFFF
        else:
            # the code write path: _write_buf's test, on the view
            i = (addr - region.base) >> 2
            value &= 0xFFFFFFFF
            if view[i] != value:
                view[i] = value
                for hook in self.code_write_hooks:
                    hook(addr, 4)

    def read_half(self, addr: int) -> int:
        if addr & 1:
            raise MemoryFault(addr, "misaligned half read")
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        view = region.view16
        if view is not None:
            return view[(addr - region.base) >> 1]
        off = addr - region.base
        return int.from_bytes(region.buf[off:off + 2], "little")

    def write_half(self, addr: int, value: int) -> None:
        if addr & 1:
            raise MemoryFault(addr, "misaligned half write")
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        if not region.writable:
            raise MemoryFault(addr, "write to read-only region")
        view = region.view16
        if view is None or region.executable:
            self._write_buf(region, addr,
                            (value & 0xFFFF).to_bytes(2, "little"))
        else:
            view[(addr - region.base) >> 1] = value & 0xFFFF

    def read_byte(self, addr: int) -> int:
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        return region.buf[addr - region.base]

    def write_byte(self, addr: int, value: int) -> None:
        region = self._last
        if region is None or addr < region.base or addr >= region.end_addr:
            region = self.region_at(addr)
        if not region.writable:
            raise MemoryFault(addr, "write to read-only region")
        if region.executable:
            self._write_buf(region, addr, bytes((value & 0xFF,)))
        else:
            region.buf[addr - region.base] = value & 0xFF

    # -- bulk access ------------------------------------------------------

    def read_bytes(self, addr: int, length: int) -> bytes:
        region = self.region_at(addr)
        if addr + length > region.end_addr:
            raise MemoryFault(addr, f"read of {length} bytes crosses region")
        off = addr - region.base
        return bytes(region.buf[off:off + length])

    def write_bytes(self, addr: int, data: bytes) -> None:
        region = self.region_at(addr)
        if addr + len(data) > region.end_addr:
            raise MemoryFault(addr, "write crosses region")
        if not region.writable:
            raise MemoryFault(addr, "write to read-only region")
        self._write_buf(region, addr, data)

    def _write_buf(self, region: Region, addr: int, data: bytes) -> None:
        """Store *data* at *addr* in *region*'s buffer.  In an
        executable region, skip the store and the code-write hooks when
        every byte already holds its value: nothing would go stale."""
        off = addr - region.base
        end = off + len(data)
        buf = region.buf
        if region.executable:
            if buf[off:end] == data:
                return
            buf[off:end] = data
            for hook in self.code_write_hooks:
                hook(addr, len(data))
        else:
            buf[off:end] = data

    def read_cstring(self, addr: int, max_len: int = 4096) -> str:
        """Read a NUL-terminated latin-1 string (for the PUTS syscall)."""
        out = bytearray()
        for i in range(max_len):
            b = self.read_byte(addr + i)
            if b == 0:
                break
            out.append(b)
        return out.decode("latin-1")

    def is_executable(self, addr: int) -> bool:
        try:
            return self.region_at(addr).executable
        except MemoryFault:
            return False
