"""Additional LCP edge cases: ECE pace-cancel, tiny flows, buffer
limits, and interaction with the HCP pointer."""

from conftest import make_ctx, make_star
from repro.core.lcp import pick_tail_seq
from repro.core.ppt import Ppt, PptSender
from repro.sim.packet import ACK, Packet
from repro.transport.base import Flow


def make_sender(size=90_000, scheme=None, **cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    sender = PptSender(Flow(0, 0, 1, size, 0.0), ctx, scheme or Ppt())
    topo.network.hosts[0].register(0, sender)
    return sender, topo, ctx


def lp_ack(seq, *, ce=False, ack_seq=0, sack=None):
    ack = Packet(0, 1, 0, seq, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = ce
    ack.ack_seq = ack_seq
    ack.sack = sack or (seq,)
    return ack


def test_ece_cancels_pending_paced_window():
    """An ECE'd LP-ACK must cancel the rest of the paced initial window
    ("decrease the sending rate early"), not just skip one send."""
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-9)          # loop opened, window paced out
    lcp = sender.lcp
    pending_before = sum(1 for e in lcp._pace_events if not e.cancelled)
    assert pending_before > 5
    lcp.on_lp_ack(lp_ack(80, ce=True))
    assert not lcp._pace_events       # all remaining paced sends dropped


def test_non_ece_ack_keeps_pacing():
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-9)
    lcp = sender.lcp
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(lp_ack(80, ce=False))
    assert lcp.lp_pkts_sent == sent_before + 1


def test_single_packet_flow_never_opens_useful_loop():
    """A 1-packet flow is fully covered by the HCP burst; the tail
    pointer is already crossed so the loop sends nothing."""
    sender, topo, ctx = make_sender(size=500)
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.lp_pkts_sent == 0


def test_lp_ack_sack_marks_all_listed():
    sender, topo, ctx = make_sender()
    lcp = sender.lcp
    lcp.outstanding[40] = 0.0
    lcp.outstanding[41] = 0.0
    lcp.on_lp_ack(lp_ack(41, sack=(40, 41)))
    assert 40 in sender.delivered and 41 in sender.delivered
    assert not lcp.outstanding


def test_lp_ack_cum_advances_head():
    """The §5.2 snd_nxt tweak: an LP-ACK whose cumulative pointer is
    ahead of the HCP head marks everything below as delivered."""
    sender, topo, ctx = make_sender()
    assert sender.cum == 0
    sender.lcp.on_lp_ack(lp_ack(30, ack_seq=5, sack=(30,)))
    assert sender.cum == 5
    assert {0, 1, 2, 3, 4} <= sender.delivered


def test_lcp_respects_send_buffer_window():
    """With a small send buffer, the tail pointer cannot reach past the
    buffered window."""
    sender, topo, ctx = make_sender(size=1_000_000,
                                    send_buffer_bytes=28_720,  # 20 packets
                                    identification_threshold=10**9)
    lcp = sender.lcp
    lcp.open_loop(50)
    seq = pick_tail_seq(lcp, sender, lcp.outstanding)
    assert seq is not None
    assert seq < sender.buffer_end()
    assert sender.buffer_end() == 20


def test_completion_via_lp_acks_stops_sender():
    sender, topo, ctx = make_sender(size=3000)  # 3 packets
    sender.lcp.on_lp_ack(lp_ack(2, ack_seq=3, sack=(0, 1, 2)))
    assert sender.finished


def test_loops_counted():
    sender, topo, ctx = make_sender()
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.loops_opened >= 1


def test_open_loop_rejects_nonpositive_window():
    sender, topo, ctx = make_sender()
    assert not sender.lcp.open_loop(0)
    assert not sender.lcp.open_loop(-5)
    assert not sender.lcp.active
