"""Unit tests for the Port (transmitter + queue)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import Packet
from repro.sim.queues import PriorityMux
from repro.units import gbps, serialization_delay, us


class Sink:
    def __init__(self):
        self.received = []

    def receive(self, pkt):
        self.received.append(pkt)


def make_port(sim, rate=gbps(10), prop=us(5), buffer_bytes=100_000):
    sink = Sink()
    port = Port(sim, rate, prop, PriorityMux(buffer_bytes), sink, "test")
    return port, sink


def pkt(seq=0, size=1500, priority=0):
    return Packet(1, 0, 1, seq, size, priority=priority)


def test_single_packet_timing():
    sim = Simulator()
    port, sink = make_port(sim)
    port.send(pkt(size=1500))
    sim.run()
    expected = serialization_delay(1500, gbps(10)) + us(5)
    assert len(sink.received) == 1
    assert sim.now == pytest.approx(expected)


def test_back_to_back_serialization():
    sim = Simulator()
    port, sink = make_port(sim)
    for seq in range(3):
        port.send(pkt(seq))
    sim.run()
    assert [p.seq for p in sink.received] == [0, 1, 2]
    expected = 3 * serialization_delay(1500, gbps(10)) + us(5)
    assert sim.now == pytest.approx(expected)


def test_priority_overtakes_queued_packet():
    sim = Simulator()
    port, sink = make_port(sim)
    port.send(pkt(seq=0, priority=7))   # starts transmitting immediately
    port.send(pkt(seq=1, priority=7))   # queued
    port.send(pkt(seq=2, priority=0))   # higher priority, overtakes seq 1
    sim.run()
    assert [p.seq for p in sink.received] == [0, 2, 1]


def test_counters():
    sim = Simulator()
    port, _sink = make_port(sim)
    for seq in range(4):
        port.send(pkt(seq, size=1000))
    sim.run()
    assert port.pkts_sent == 4
    assert port.bytes_sent == 4000
    assert port.busy_time == pytest.approx(4 * serialization_delay(1000, gbps(10)))


def test_drop_when_queue_full():
    sim = Simulator()
    port, sink = make_port(sim, buffer_bytes=1500)
    assert port.send(pkt(0))      # immediately starts transmitting
    assert port.send(pkt(1))      # fills the buffer
    assert not port.send(pkt(2))  # dropped
    sim.run()
    assert len(sink.received) == 2


def test_queue_delay_accounting():
    sim = Simulator()
    port, sink = make_port(sim)
    first, second = pkt(0), pkt(1)
    port.send(first)
    port.send(second)
    sim.run()
    tx = serialization_delay(1500, gbps(10))
    assert first.queue_delay == pytest.approx(0.0, abs=1e-12)
    assert second.queue_delay == pytest.approx(tx)


def test_backlog_bytes():
    sim = Simulator()
    port, _ = make_port(sim)
    port.send(pkt(0))
    port.send(pkt(1))
    assert port.backlog_bytes == 1500  # one on the wire, one queued


# -- wire ----------------------------------------------------------------


def test_wire_holds_inflight_with_single_head_event():
    """However many packets are propagating, the heap carries exactly one
    arrival event for the link (plus the serialization event)."""
    sim = Simulator()
    # slow down propagation so several serializations complete while the
    # first packet is still on the wire
    port, sink = make_port(sim, prop=us(500))
    for i in range(4):
        port.send(pkt(seq=i))
    # drain serialization only: all four are on the wire before the
    # first arrival at 500+ us
    ser = serialization_delay(1500, gbps(10))
    sim.run(until=4 * ser + 1e-9)
    assert len(port.wire) == 4
    assert port.wire.head_event is not None
    live, _ = sim.audit_heap()
    assert live == 1                       # ONE head-arrival event only
    sim.run()
    assert [p.seq for p in sink.received] == [0, 1, 2, 3]
    assert len(port.wire) == 0
    assert port.wire.head_event is None


def test_wire_fifo_even_when_priorities_reorder_the_mux():
    """Strict priority reorders *serialization*; the wire itself is FIFO
    in departure order."""
    sim = Simulator()
    port, sink = make_port(sim, prop=us(500))
    port.send(pkt(seq=0, priority=7))     # heads straight to the wire
    port.send(pkt(seq=1, priority=7))     # queued low
    port.send(pkt(seq=2, priority=0))     # overtakes seq=1 in the mux
    sim.run()
    assert [p.seq for p in sink.received] == [0, 2, 1]


def test_flush_wire_books_fault_losses():
    sim = Simulator()
    port, sink = make_port(sim, prop=us(500))
    for i in range(3):
        port.send(pkt(seq=i))
    ser = serialization_delay(1500, gbps(10))
    sim.run(until=3 * ser + 1e-9)
    assert len(port.wire) == 3
    flushed = port.flush_wire()
    assert flushed == 3
    assert port.fault_wire_drops == 3
    assert port.fault_wire_drop_bytes == 3 * 1500
    assert len(port.wire) == 0
    sim.run()
    assert sink.received == []            # nothing survives the flush
    assert sim.live_pending == 0          # head event cancelled


def test_rate_setter_refreshes_byte_time():
    sim = Simulator()
    port, _sink = make_port(sim, rate=gbps(10))
    assert port.byte_time == 8.0 / gbps(10)
    port.rate_bps = gbps(40)
    assert port.rate_bps == gbps(40)
    assert port.byte_time == 8.0 / gbps(40)
