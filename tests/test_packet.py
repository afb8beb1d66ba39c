"""Unit tests for the packet model."""

import pickle

from repro.sim.packet import (
    ACK,
    ACK_BYTES,
    DATA,
    HEADER,
    HEADER_BYTES,
    Packet,
    make_ack,
)


def test_packet_defaults():
    pkt = Packet(flow_id=7, src=1, dst=2, seq=3, size=1500)
    assert pkt.kind == DATA
    assert pkt.priority == 0
    assert pkt.ecn_capable
    assert not pkt.ecn_ce
    assert not pkt.lcp
    assert not pkt.unscheduled
    assert not pkt.retransmit
    assert pkt.sack is None
    assert pkt.int_records is None


def test_trim_converts_to_header():
    pkt = Packet(1, 0, 1, 5, 1500, priority=6)
    pkt.trim()
    assert pkt.kind == HEADER
    assert pkt.size == HEADER_BYTES
    assert pkt.priority == 0
    assert pkt.seq == 5  # identity preserved for retransmission request


def test_make_ack_reverses_direction():
    data = Packet(9, src=3, dst=8, seq=4, size=1500)
    data.sent_at = 1.5e-3
    ack = make_ack(data, ack_seq=2)
    assert ack.kind == ACK
    assert ack.src == 8 and ack.dst == 3
    assert ack.seq == 4
    assert ack.ack_seq == 2
    assert ack.size == ACK_BYTES
    assert ack.sent_at == 1.5e-3


def test_make_ack_echoes_ce_and_lcp():
    data = Packet(9, 0, 1, 0, 1500)
    data.ecn_ce = True
    data.lcp = True
    ack = make_ack(data, ack_seq=0)
    assert ack.ecn_ce
    assert ack.lcp


def test_make_ack_priority_override():
    data = Packet(9, 0, 1, 0, 1500, priority=2)
    assert make_ack(data, 0).priority == 2
    assert make_ack(data, 0, priority=7).priority == 7


def test_make_ack_carries_int_records():
    data = Packet(9, 0, 1, 0, 1500)
    data.int_records = [(100, 200, 0.1, 40e9)]
    ack = make_ack(data, 0)
    assert ack.int_records == [(100, 200, 0.1, 40e9)]


def test_repr_smoke():
    pkt = Packet(1, 0, 1, 0, 1500)
    pkt.ecn_ce = True
    pkt.lcp = True
    text = repr(pkt)
    assert "DATA" in text and "CE" in text and "lcp" in text


def test_field_lists_match_slots_in_order():
    # a distinct value per slot, so a misordered field list shows
    pkt = Packet(0, 0, 0, 0, 0)
    for name in Packet.__slots__:
        setattr(pkt, name, name)
    assert pkt.to_fields() == Packet.__slots__
    clone = Packet.from_fields(Packet.__slots__)
    for name in Packet.__slots__:
        assert getattr(clone, name) == name


class _Meta:
    """A transport payload that is an object, not a plain value."""

    def __init__(self, granted):
        self.granted = granted

    def __eq__(self, other):
        return type(other) is _Meta and other.granted == self.granted


def _every_slot_set():
    """A trimmed header with a non-default value in every slot."""
    pkt = Packet(11, src=3, dst=9, seq=42, size=1500, priority=6,
                 ecn_capable=False)
    pkt.trim()
    pkt.priority = 2  # trim() resets it to the default P0
    pkt.ecn_ce = True
    pkt.lcp = True
    pkt.unscheduled = True
    pkt.retransmit = True
    pkt.corrupted = True
    pkt.ack_seq = 17
    pkt.sack = (20, 23, 30, 31)
    pkt.meta = _Meta(5)
    pkt.int_records = [(3000, 9000, 1.25e-4, 40e9), (0, 1500, 1.3e-4, 10e9)]
    pkt.sent_at = 1.0e-4 + 1e-12
    pkt.hops = 3
    pkt.queue_delay = 2.5e-6
    return pkt


def test_every_slot_crosses_the_fields_boundary():
    pkt = _every_slot_set()
    default = Packet(0, 0, 0, 0, 0)
    for name in Packet.__slots__:
        assert getattr(pkt, name) != getattr(default, name), name
    # the trip a shard handoff takes: flatten, pickle, rebuild
    clone = Packet.from_fields(pickle.loads(pickle.dumps(pkt.to_fields())))
    assert clone is not pkt
    assert clone.kind == HEADER and clone.size == HEADER_BYTES
    for name in Packet.__slots__:
        assert getattr(clone, name) == getattr(pkt, name), name
        assert type(getattr(clone, name)) is type(getattr(pkt, name)), name
