"""Link model: the 60-byte overhead result and transfer-time math."""

import pytest

from conftest import served_reply
from repro.net import Channel, LinkModel


def test_default_overhead_is_60_bytes():
    """§2.4: 'the network overhead for each code chunk downloaded to
    be 60 application bytes'."""
    link = LinkModel()
    assert link.exchange_overhead_bytes == 60


def test_exchange_time_math():
    link = LinkModel(bandwidth_bps=10e6, latency_s=150e-6)
    t = link.exchange_time(100)
    expected = 2 * 150e-6 + (60 + 100) * 8 / 10e6
    assert t == pytest.approx(expected)


def test_one_way_time_math():
    link = LinkModel(bandwidth_bps=10e6, latency_s=150e-6)
    t = link.one_way_time(40)
    assert t == pytest.approx(150e-6 + (24 + 40) * 8 / 10e6)


def test_bandwidth_scaling():
    slow = LinkModel(bandwidth_bps=1e6, latency_s=0)
    fast = LinkModel(bandwidth_bps=100e6, latency_s=0)
    assert slow.exchange_time(1000) == pytest.approx(
        100 * fast.exchange_time(1000))


def test_channel_accounting():
    chan = Channel(LinkModel())
    chan.exchange("chunk", 120)
    chan.exchange("chunk", 80)
    chan.send("writeback", 16)
    stats = chan.stats
    assert stats.exchanges == 2
    assert stats.one_way_messages == 1
    assert stats.payload_bytes == 216
    assert stats.overhead_bytes == 60 + 60 + 24
    assert stats.by_kind == {"chunk": 2, "writeback": 1}
    assert stats.total_bytes == 216 + 144
    assert stats.overhead_per_exchange() == pytest.approx(60.0)


def test_channel_busy_time_accumulates():
    chan = Channel(LinkModel())
    t1 = chan.exchange("chunk", 100)
    t2 = chan.exchange("chunk", 200)
    assert chan.stats.busy_seconds == pytest.approx(t1 + t2)


def test_empty_channel_stats():
    chan = Channel()
    assert chan.stats.overhead_per_exchange() == 0.0
    assert chan.stats.total_bytes == 0


def test_batch_overhead_bytes():
    """A batched reply shares the 60-byte exchange overhead: one
    request/reply header pair plus a 12-byte sub-header per *extra*
    chunk."""
    link = LinkModel()
    assert link.batch_overhead_bytes(1) == 60
    assert link.batch_overhead_bytes(4) == 60 + 3 * 12


def test_batch_exchange_time_math():
    link = LinkModel(bandwidth_bps=10e6, latency_s=150e-6)
    t = link.batch_exchange_time([100, 40, 80])
    expected = 2 * 150e-6 + (60 + 2 * 12 + 220) * 8 / 10e6
    assert t == pytest.approx(expected)
    # a batch of one degenerates to a plain exchange
    assert link.batch_exchange_time([100]) == pytest.approx(
        link.exchange_time(100))


def test_channel_batch_accounting():
    chan = Channel(LinkModel())
    t = chan.batch_exchange(
        None, served_reply((0x100, 100), (0x200, 50), (0x300, 25)))
    stats = chan.stats
    assert stats.exchanges == 1           # one logical RPC
    assert stats.batch_exchanges == 1
    assert stats.batched_chunks == 3
    assert stats.payload_bytes == 175
    assert stats.overhead_bytes == 60 + 2 * 12
    # §2.4 metric counts base headers only, not batch sub-headers
    assert stats.exchange_overhead_bytes == 60
    assert stats.overhead_per_exchange() == pytest.approx(60.0)
    assert stats.busy_seconds == pytest.approx(t)


def test_single_chunk_batch_accounted_as_plain_exchange():
    """`prefetch_depth=0` configurations must be bit-identical to the
    unbatched protocol: a one-chunk batch is a plain exchange."""
    plain, batched = Channel(LinkModel()), Channel(LinkModel())
    t_plain = plain.exchange("chunk", 120)
    t_batch = batched.batch_exchange(None, served_reply((0x100, 120)))
    assert t_batch == t_plain
    assert batched.stats.batch_exchanges == 0
    assert batched.stats.batched_chunks == 0
    assert vars(batched.stats) == vars(plain.stats)
