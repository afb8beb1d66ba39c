"""Tests for the LCP controller (intermittent init + EWD, §3) and its
tail cursor."""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fct_fingerprint,
    make_ctx,
    make_star,
    pinned_fingerprints,
    run_single_flow,
)
from repro.cli import SCHEME_FACTORIES
from repro.core.lcp import pick_tail_seq
from repro.core.ppt import Ppt, PptSender
from repro.experiments import runner as runner_mod
from repro.experiments.runner import run, two_pass
from repro.experiments.scenarios import all_to_all_scenario, sim_fabric
from repro.resilience import load_checkpoint
from repro.sim.packet import ACK, Packet
from repro.transport.base import Flow
from repro.units import us
from repro.workloads.distributions import WEB_SEARCH


def make_ppt_sender(size=300_000, scheme=None, **cfg):
    topo = make_star()
    ctx = make_ctx(topo, **cfg)
    scheme = scheme or Ppt()
    sender = PptSender(Flow(0, 0, 1, size, 0.0), ctx, scheme)
    return sender, topo, ctx


def test_case1_initial_window_is_bdp_minus_iw():
    """§3.1: at flow start, I = BDP - init_cwnd (unidentified flow,
    so the loop opens immediately)."""
    sender, topo, ctx = make_ppt_sender(size=90_000)
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-6)  # the case-1 open fires at t=0
    expected = ctx.bdp_packets(sender.flow) - ctx.config.init_cwnd
    assert lcp.active
    assert lcp.initial_window == min(expected, sender.n_packets)


def test_case1_delayed_for_identified_large_flow():
    """Identified-large flows open their first loop in the 2nd RTT."""
    sender, topo, ctx = make_ppt_sender(size=5_000_000)
    assert sender.identified_large
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=sender.base_rtt * 0.5)
    assert not sender.lcp.active
    topo.sim.run(until=sender.base_rtt * 1.5)
    assert sender.lcp.active or sender.lcp.loops_opened > 0


def test_case1_not_delayed_without_identification():
    scheme = Ppt(identification=False)
    sender, topo, ctx = make_ppt_sender(size=5_000_000, scheme=scheme)
    assert not sender.identified_large
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-6)
    assert sender.lcp.active


def test_case2_eq2_window():
    """§3.1 Eq. 2: I = (1/2 - alpha_min) * W_max."""
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.1
    sender.alpha_history.extend([0.3, 0.2, 0.1])
    lcp.on_window_update()
    assert lcp.active
    assert lcp.initial_window == int((0.5 - 0.1) * 64.0)


def test_case2_no_loop_when_alpha_high():
    """alpha_min > 1/2 means no spare bandwidth: Eq. 2 gives I <= 0."""
    sender, topo, ctx = make_ppt_sender()
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.8
    sender.alpha_history.extend([0.9, 0.8])
    sender.lcp.on_window_update()
    assert not sender.lcp.active


def test_case2_requires_alpha_at_minimum():
    sender, topo, ctx = make_ppt_sender()
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.4              # above the running minimum
    sender.alpha_history.extend([0.1, 0.3, 0.4])
    sender.lcp.on_window_update()
    assert not sender.lcp.active


def test_case2_reinit_tops_up_active_loop():
    """A decayed active loop is re-paced, counting in-flight packets."""
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    sender.startup_done = True
    sender.wmax = 64.0
    sender.alpha = 0.0
    sender.alpha_history.extend([0.2, 0.0])
    lcp.on_window_update()
    first = lcp.loops_opened
    assert lcp.active
    lcp.on_window_update()
    assert lcp.loops_opened == first + 1  # re-initialised


def test_ewd_pacing_spreads_over_one_rtt():
    """With EWD the initial window is paced at I/RTT, not burst."""
    sender, topo, ctx = make_ppt_sender()
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-9)
    nic = topo.network.hosts[0].uplink
    # immediately after start only the HCP burst (init_cwnd) has entered
    # the NIC; the LCP window trickles in over the next RTT
    sent_now = nic.pkts_sent + len(nic.mux)
    assert sent_now <= ctx.config.init_cwnd + 2
    topo.sim.run(until=sender.base_rtt * 1.2)
    assert sender.lcp.lp_pkts_sent > 5


def test_no_ewd_bursts_at_line_rate():
    scheme = Ppt(ewd=False)
    sender, topo, ctx = make_ppt_sender(size=90_000, scheme=scheme)
    topo.network.hosts[0].register(0, sender)
    sender.start()
    topo.sim.run(until=1e-9)
    nic = topo.network.hosts[0].uplink
    queued = nic.pkts_sent + len(nic.mux)
    assert queued > ctx.config.init_cwnd + 10  # whole I burst at once


def test_lp_ack_releases_one_packet():
    flow, ctx, topo = run_single_flow(Ppt(), 300_000, until=1.0)
    sender = topo.network.hosts[0].endpoints[0]
    # EWD: one LP packet per LP-ACK; receiver ACKs 2:1, so LP sends are
    # bounded by initial windows + acks received
    lcp = sender.lcp
    assert lcp.lp_acks_received > 0
    assert flow.completed


def test_ece_suppression():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    lcp.active = True
    from repro.sim.packet import ACK, Packet
    ack = Packet(0, 1, 0, 5, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = True
    ack.ack_seq = 0
    ack.sack = (5,)
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(ack)
    assert lcp.lp_acks_suppressed == 1
    assert lcp.lp_pkts_sent == sent_before  # no new opportunistic packet


def test_no_ecn_variant_ignores_ece():
    scheme = Ppt(lcp_ecn=False)
    sender, topo, ctx = make_ppt_sender(scheme=scheme)
    topo.network.hosts[0].register(0, sender)
    lcp = sender.lcp
    lcp.active = True
    from repro.sim.packet import ACK, Packet
    ack = Packet(0, 1, 0, 5, 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = True
    ack.ack_seq = 0
    ack.sack = (5,)
    sent_before = lcp.lp_pkts_sent
    lcp.on_lp_ack(ack)
    assert lcp.lp_pkts_sent == sent_before + 1  # keeps injecting


def test_termination_after_two_silent_rtts():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    # open a loop but never deliver any LP ACKs (receiver not registered)
    lcp.open_loop(20)
    assert lcp.active
    topo.sim.run(until=sender.base_rtt * 10)
    assert not lcp.active


def test_loop_closes_when_crossed():
    """When the tail pointer meets the HCP head, the loop closes."""
    sender, topo, ctx = make_ppt_sender(size=20_000)  # 14 packets
    lcp = sender.lcp
    sender.send_ptr = 13  # HCP already covering everything
    lcp.open_loop(10)
    assert lcp.active
    assert lcp._send_one() is False
    assert not lcp.active


def test_stale_lp_outstanding_purged():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    lcp.active = True
    lcp.last_lp_ack = 0.0
    lcp.outstanding[42] = -1.0  # ancient
    topo.sim.now = 1.0
    lcp.last_lp_ack = 1.0
    lcp._termination_check()
    assert 42 not in lcp.outstanding


def test_shutdown_cancels_everything():
    sender, topo, ctx = make_ppt_sender()
    lcp = sender.lcp
    topo.network.hosts[0].register(0, sender)
    lcp.open_loop(20)
    lcp.shutdown()
    assert not lcp.active
    assert not lcp.outstanding
    events = topo.sim.run(until=sender.base_rtt * 5)
    assert lcp.lp_pkts_sent <= 1  # nothing further was paced out


# -- tail cursor ------------------------------------------------------------


def reference_pick(sender, lp_outstanding):
    """The full top-down scan the resume cursor replaces."""
    seq = sender.buffer_end() - 1
    while seq >= 0:
        if seq <= sender.send_ptr:
            return None
        if (seq not in sender.delivered and seq not in sender.outstanding
                and seq not in lp_outstanding):
            return seq
        seq -= 1
    return None


def _lp_ack(sacked, ack_seq, ce):
    ack = Packet(0, 1, 0, sacked[-1], 64, kind=ACK)
    ack.lcp = True
    ack.ecn_ce = ce
    ack.ack_seq = ack_seq
    ack.sack = tuple(sacked)
    return ack


def _apply(sender, op, k, flag):
    """One step of the differential drive; ``k`` and ``flag`` pick the
    step's arguments."""
    lcp = sender.lcp
    if op == "pick":
        pick_tail_seq(lcp, sender, lcp.outstanding)
    elif op == "send":
        lcp._send_one()
    elif op == "open":
        lcp.open_loop(1 + k % 16)
    elif op == "hcp":
        sender.cwnd = float(1 + k % 8)
        sender.try_send()
    elif op == "lp_ack" and lcp.outstanding:
        pending = sorted(lcp.outstanding)
        sacked = [pending[k % len(pending)], pending[(k // 7) % len(pending)]]
        lcp.on_lp_ack(_lp_ack(sorted(set(sacked)), sender.cum + k % 3, flag))
    elif op == "hcp_ack" and sender.outstanding:
        pending = sorted(sender.outstanding)
        ack = Packet(0, 1, 0, pending[k % len(pending)], 64, kind=ACK)
        ack.ack_seq = sender.cum + (k % 3 if flag else 0)
        sender.handle_ack(ack)
    elif op == "purge" and lcp.outstanding:
        # age some in-flight LCP packets past the 2-RTT horizon; a fresh
        # LP-ACK keeps the loop itself open
        for i, seq in enumerate(sorted(lcp.outstanding)):
            if (i + k) % 3 == 0:
                lcp.outstanding[seq] = -1.0
        lcp.active = True
        lcp.last_lp_ack = sender.sim.now
        lcp._termination_check()
    elif op == "close":
        lcp.close_loop()
    elif op == "rto":
        sender._on_rto()


STEP = st.tuples(
    st.sampled_from(["pick", "send", "send", "open", "hcp", "lp_ack",
                     "lp_ack", "hcp_ack", "purge", "close", "rto"]),
    st.integers(min_value=0, max_value=1000),
    st.booleans())


@settings(max_examples=150, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=80),
       buffer_packets=st.integers(min_value=4, max_value=40))
def test_tail_cursor_matches_full_scan(steps, buffer_packets):
    """Whatever the two loops, the ACKs, the purges, close/reopen and
    HCP timeouts did, the resumed pick equals the full scan — including
    while a small send buffer slides forward under the cursor."""
    sender, topo, ctx = make_ppt_sender(
        size=120_000, send_buffer_bytes=buffer_packets * 1436,
        identification_threshold=10**9)
    lcp = sender.lcp
    for op, k, flag in steps:
        _apply(sender, op, k, flag)
        if sender.finished:
            break
        expected = reference_pick(sender, lcp.outstanding)
        assert (pick_tail_seq(lcp, sender, lcp.outstanding)
                == expected), (op, k, flag)


def test_tail_cursor_parks_at_last_pick():
    """Consecutive picks walk down from the top one seq at a time: the
    hint parks at the last answer, so the next scan starts there
    instead of re-probing everything above it."""
    sender, topo, ctx = make_ppt_sender(size=300_000)
    lcp = sender.lcp
    top = sender.buffer_end() - 1
    for i in range(50):
        assert lcp._send_one()
        assert lcp._tail_hint == top - i
    assert sorted(lcp.outstanding) == list(range(top - 49, top + 1))
    assert lcp._tail_top == sender.buffer_end()


# The benchmark's ``sharded`` shape, run serially: 4x16 hosts, 4 spines,
# 20 us links — BDP-sized LCP windows span hundreds of packets, which is
# where a full tail scan per pick used to cost O(window).
LONG_LINK_SCHEMES = ("ppt", "ppt-hpcc", "ppt-swift", "hypothetical-dctcp")


def long_link_scenario(max_time=10.0):
    return all_to_all_scenario(
        "lcp-long-link", WEB_SEARCH, load=0.4, n_flows=40, seed=1,
        fabric=sim_fabric(n_leaf=4, hosts_per_leaf=16, n_spine=4,
                          prop_delay=us(20)),
        max_time=max_time)


def long_link_fingerprint(name):
    if name == "hypothetical-dctcp":
        _, result = two_pass(long_link_scenario())
    else:
        result = run(SCHEME_FACTORIES[name](), long_link_scenario())
    return {"flows": fct_fingerprint(result),
            "wall_events": result.wall_events}


@pytest.mark.parametrize("name", LONG_LINK_SCHEMES)
def test_long_link_fcts_match_pinned(name):
    assert (long_link_fingerprint(name)
            == pinned_fingerprints()["lcp_long_link"][name])


def _lcps(state):
    return [ep.lcp for host in state.topo.network.hosts.values()
            for ep in host.endpoints.values() if isinstance(ep, PptSender)]


def test_resume_mid_lcp_loop_is_bit_identical(tmp_path, monkeypatch):
    """A snapshot taken while LCP loops are open with live cursors
    resumes bit-identically to the straight-through run — and so does
    the same snapshot with the cursor fields stripped, as a graph
    pickled before they existed would be (the class-level defaults
    restart the scan from the top)."""
    pinned = pinned_fingerprints()["lcp_long_link"]["ppt"]
    path = tmp_path / "run.ckpt"
    mid_loop = tmp_path / "mid-loop.ckpt"
    real_save = runner_mod.save_checkpoint

    def keep_first_mid_loop(state, p):
        header = real_save(state, p)
        if not mid_loop.exists() and any(
                lcp.active and lcp._tail_hint is not None
                for lcp in _lcps(state)):
            shutil.copy(p, mid_loop)
        return header

    monkeypatch.setattr(runner_mod, "save_checkpoint", keep_first_mid_loop)
    # a short max_time shortens the drain slice to 1e-4 s (~30 slices,
    # one checkpoint each); it moves where the drain stops, so the event
    # count is compared against this checkpointed run, not the pin
    checked = run(Ppt(), long_link_scenario(max_time=0.02),
                  checkpoint_every=0.0, checkpoint_path=str(path))
    assert fct_fingerprint(checked) == pinned["flows"]
    assert mid_loop.exists(), "no checkpoint caught an open LCP loop"

    resumed = run(resume=str(mid_loop))
    assert fct_fingerprint(resumed) == pinned["flows"]
    assert resumed.wall_events == checked.wall_events

    state = load_checkpoint(str(mid_loop))
    hints = [vars(lcp).pop("_tail_hint", None) for lcp in _lcps(state)]
    for lcp in _lcps(state):
        vars(lcp).pop("_tail_top", None)
    assert any(hint is not None for hint in hints)
    stripped = run(resume=state)
    assert fct_fingerprint(stripped) == pinned["flows"]
    assert stripped.wall_events == checked.wall_events
