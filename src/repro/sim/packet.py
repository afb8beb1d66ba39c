"""Packet model.

One :class:`Packet` instance is one on-the-wire packet.  The class is a
plain ``__slots__`` object (no dataclass machinery) because the simulator
creates millions of these and attribute access is on the hot path.

Priorities follow the paper's Fig. 6 numbering: ``P0`` is the *highest*
priority and ``P7`` the lowest.  HCP (normal DCTCP) traffic uses P0..P3 and
LCP (opportunistic) traffic uses P4..P7.  Control packets default to P0.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# Packet kinds.  Integers, compared with ``is``-free equality on the hot path.
DATA = 0          # payload-carrying data packet
ACK = 1           # cumulative/selective acknowledgement
GRANT = 2         # Homa/Aeolus receiver grant
PULL = 3          # NDP pull
HEADER = 4        # NDP trimmed header (payload cut)
NACK = 5          # NDP trimmed-header notification from receiver
CONTROL = 6       # generic control (e.g., HPCC probe)

KIND_NAMES = {
    DATA: "DATA",
    ACK: "ACK",
    GRANT: "GRANT",
    PULL: "PULL",
    HEADER: "HEADER",
    NACK: "NACK",
    CONTROL: "CONTROL",
}

HEADER_BYTES = 64          # size of a trimmed header / bare control packet
ACK_BYTES = 64             # size of an acknowledgement on the wire

HIGHEST_PRIORITY = 0
LOWEST_PRIORITY = 7
NUM_PRIORITIES = 8


class Packet:
    """A single packet.

    Attributes
    ----------
    flow_id:
        Identifier of the flow this packet belongs to.
    src, dst:
        Host ids of the transmitting and receiving endpoints.
    seq:
        Packet index within the flow (0-based, MSS-sized segments).
    size:
        Bytes on the wire, including header.
    kind:
        One of the module-level kind constants (DATA, ACK, ...).
    priority:
        Strict-priority class, 0 (highest) .. 7 (lowest).
    ecn_capable / ecn_ce:
        ECN negotiation and congestion-experienced mark.
    lcp:
        True for PPT/RC3 low-priority-loop packets (data or ACKs).
    unscheduled:
        True for Homa/Aeolus pre-credit packets (eligible for Aeolus's
        selective drop).
    retransmit:
        True if this packet is a retransmission.
    corrupted:
        True once a fault injector has flipped bits in the packet; the
        receiving host discards it (failed checksum) instead of
        dispatching it to a transport endpoint.
    sack / ack_seq / meta:
        Transport-specific payload: SACK blocks, cumulative ack, or any
        other per-packet state a transport needs to carry.
    int_records:
        HPCC in-band telemetry, appended at every hop as
        ``(qlen_bytes, tx_bytes, timestamp, link_rate)`` tuples.
    sent_at:
        Timestamp when the packet left the sender (for RTT / delay
        measurement).  Echoed into ACKs by receivers.
    hops:
        Number of switch hops traversed so far (for delay-based transports'
        target-delay scaling).
    """

    __slots__ = (
        "flow_id", "src", "dst", "seq", "size", "kind", "priority",
        "ecn_capable", "ecn_ce", "lcp", "unscheduled", "retransmit",
        "corrupted", "ack_seq", "sack", "meta", "int_records", "sent_at",
        "hops", "queue_delay",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        kind: int = DATA,
        priority: int = 0,
        ecn_capable: bool = True,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.kind = kind
        self.priority = priority
        self.ecn_capable = ecn_capable
        self.ecn_ce = False
        self.lcp = False
        self.unscheduled = False
        self.retransmit = False
        self.corrupted = False
        self.ack_seq: int = -1
        self.sack: Optional[Tuple[int, ...]] = None
        self.meta = None
        self.int_records: Optional[List[tuple]] = None
        self.sent_at: float = 0.0
        self.hops: int = 0
        self.queue_delay: float = 0.0

    # The flat form of a packet: every slot, in ``__slots__`` order.  A
    # packet crosses a shard boundary (:mod:`repro.sim.shard`) as this
    # tuple, because pickling a tuple of ints, floats and bools costs a
    # fraction of pickling the object.  Both field lists below must
    # match ``__slots__`` exactly; ``tests/test_packet.py`` pins
    # them, so a new slot fails loudly instead of vanishing in transit.

    def to_fields(self) -> tuple:
        """Every slot's value, in ``__slots__`` order."""
        return (self.flow_id, self.src, self.dst, self.seq, self.size,
                self.kind, self.priority, self.ecn_capable, self.ecn_ce,
                self.lcp, self.unscheduled, self.retransmit,
                self.corrupted, self.ack_seq, self.sack, self.meta,
                self.int_records, self.sent_at, self.hops,
                self.queue_delay)

    @staticmethod
    def from_fields(fields: tuple) -> "Packet":
        """Rebuild a packet from :meth:`to_fields` output, every slot
        restored."""
        pkt = object.__new__(Packet)  # every slot is assigned below
        (pkt.flow_id, pkt.src, pkt.dst, pkt.seq, pkt.size,
         pkt.kind, pkt.priority, pkt.ecn_capable, pkt.ecn_ce,
         pkt.lcp, pkt.unscheduled, pkt.retransmit,
         pkt.corrupted, pkt.ack_seq, pkt.sack, pkt.meta,
         pkt.int_records, pkt.sent_at, pkt.hops,
         pkt.queue_delay) = fields
        return pkt

    def trim(self) -> None:
        """NDP packet trimming: cut the payload, keep the header."""
        self.kind = HEADER
        self.size = HEADER_BYTES
        self.priority = HIGHEST_PRIORITY

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = KIND_NAMES.get(self.kind, str(self.kind))
        return (
            f"<Packet {kind} flow={self.flow_id} seq={self.seq} "
            f"size={self.size} prio=P{self.priority}"
            f"{' CE' if self.ecn_ce else ''}{' lcp' if self.lcp else ''}>"
        )


def make_ack(
    data_pkt: Packet,
    ack_seq: int,
    *,
    size: int = ACK_BYTES,
    priority: Optional[int] = None,
) -> Packet:
    """Build an ACK for ``data_pkt`` travelling the reverse direction.

    The ACK echoes the data packet's CE mark (ECN-Echo) and its ``sent_at``
    timestamp so the sender can measure RTT.
    """
    # positional construction — this runs once per delivered data packet
    ack = Packet(
        data_pkt.flow_id,
        data_pkt.dst,
        data_pkt.src,
        data_pkt.seq,
        size,
        ACK,
        data_pkt.priority if priority is None else priority,
    )
    ack.ack_seq = ack_seq
    ack.ecn_ce = data_pkt.ecn_ce
    ack.lcp = data_pkt.lcp
    ack.sent_at = data_pkt.sent_at
    # Snapshot, never alias: HPCC's Algorithm 1 assumes the INT list an
    # ACK carries describes the *forward* path only.  Sharing the data
    # packet's list would let any hop that later touches either packet
    # pollute the other's records.
    ack.int_records = (None if data_pkt.int_records is None
                       else list(data_pkt.int_records))
    ack.queue_delay = data_pkt.queue_delay
    ack.hops = data_pkt.hops
    return ack
