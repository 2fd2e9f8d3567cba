"""Memory regions: mapping, permissions, alignment, hooks."""

import pytest

from repro.sim import Machine, MachineConfig, Memory, MemoryFault, Region
from repro.workloads import build_workload


def make_mem():
    mem = Memory()
    mem.map_region(Region("ram", 0x1000, 0x1000, executable=True))
    mem.map_region(Region("rom", 0x4000, 0x100, writable=False))
    return mem


def test_word_roundtrip():
    mem = make_mem()
    mem.write_word(0x1000, 0xDEADBEEF)
    assert mem.read_word(0x1000) == 0xDEADBEEF


def test_half_byte_roundtrip():
    mem = make_mem()
    mem.write_half(0x1002, 0xBEEF)
    assert mem.read_half(0x1002) == 0xBEEF
    mem.write_byte(0x1005, 0xAB)
    assert mem.read_byte(0x1005) == 0xAB


def test_little_endian_layout():
    mem = make_mem()
    mem.write_word(0x1010, 0x11223344)
    assert mem.read_byte(0x1010) == 0x44
    assert mem.read_byte(0x1013) == 0x11
    assert mem.read_half(0x1010) == 0x3344


def test_misaligned_faults():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        mem.read_word(0x1001)
    with pytest.raises(MemoryFault):
        mem.write_word(0x1002, 0)
    with pytest.raises(MemoryFault):
        mem.read_half(0x1001)


def test_unmapped_fault():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        mem.read_word(0x9000)
    with pytest.raises(MemoryFault):
        mem.read_byte(0x0FFF)


def test_write_to_readonly_faults():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        mem.write_word(0x4000, 1)
    with pytest.raises(MemoryFault):
        mem.write_byte(0x4000, 1)


def test_overlap_rejected():
    mem = make_mem()
    with pytest.raises(ValueError):
        mem.map_region(Region("bad", 0x1800, 0x1000))


def test_bulk_access_and_cstring():
    mem = make_mem()
    mem.write_bytes(0x1100, b"hello\0world")
    assert mem.read_bytes(0x1100, 5) == b"hello"
    assert mem.read_cstring(0x1100) == "hello"


def test_bulk_cross_region_rejected():
    mem = make_mem()
    with pytest.raises(MemoryFault):
        mem.read_bytes(0x1FFC, 8)


def test_code_write_hook_fires_on_executable_only():
    mem = make_mem()
    events = []
    mem.code_write_hooks.append(lambda a, n: events.append((a, n)))
    mem.write_word(0x1000, 1)       # executable ram
    mem.write_bytes(0x1100, b"abcd")
    assert events == [(0x1000, 4), (0x1100, 4)]
    # data-only region write does not fire
    mem2 = Memory()
    mem2.map_region(Region("data", 0x2000, 0x100))
    mem2.code_write_hooks.append(lambda a, n: events.append("bad"))
    mem2.write_word(0x2000, 1)
    assert "bad" not in events


@pytest.mark.parametrize("base", [0x1000, 0x3001],
                         ids=["views", "unaligned-region"])
def test_code_write_hook_only_when_a_byte_changes(base):
    """Each writer calls no hook when every byte it stores is already
    there, and exactly one hook call when any byte changes — through
    the word/half views and through a region without them."""
    mem = Memory()
    region = mem.map_region(Region("code", base, 0x200, executable=True))
    assert (region.view32 is None) == (base == 0x3001)
    events = []
    mem.code_write_hooks.append(lambda a, n: events.append((a, n)))
    at = (base + 3) & ~3
    writes = [
        (mem.write_word, at + 0x40, 0xA1B2C3D4, 0xA1B2C3D5, 4),
        (mem.write_half, at + 0x80, 0xB1B2, 0x01B2, 2),
        (mem.write_byte, at + 0xC0, 0xC1, 0xC2, 1),
        (mem.write_bytes, at + 0x100, b"\x01\x02\x03\x04\x05",
         b"\x01\x02\x03\x04\x06", 5),
    ]
    for write, addr, first, changed, size in writes:
        write(addr, first)
        assert events == [(addr, size)]
        write(addr, first)
        assert events == [(addr, size)]
        write(addr, changed)
        assert events == [(addr, size)] * 2
        events.clear()
    assert mem.read_word(at + 0x40) == 0xA1B2C3D5
    assert mem.read_half(at + 0x80) == 0x01B2
    assert mem.read_byte(at + 0xC0) == 0xC2
    assert mem.read_bytes(at + 0x100, 5) == b"\x01\x02\x03\x04\x06"


def test_region_named():
    mem = make_mem()
    assert mem.region_named("rom").base == 0x4000
    with pytest.raises(KeyError):
        mem.region_named("nope")


def test_machine_memory_map():
    image = build_workload("sensor", scale=0.1)
    machine = Machine(image, MachineConfig(local_ram_size=32 * 1024))
    names = {r.name for r in machine.mem.regions}
    assert names == {"local", "text", "data", "stack"}
    assert machine.mem.region_named("text").executable
    # data region covers data + bss + heap
    data = machine.mem.region_named("data")
    assert data.size >= len(image.data) + image.bss_size


def test_machine_softcache_mode_text_not_executable():
    image = build_workload("sensor", scale=0.1)
    machine = Machine(image, MachineConfig(text_executable=False))
    assert not machine.mem.region_named("text").executable
