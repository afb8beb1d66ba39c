"""Wire-model fingerprints: every pinned run still reproduces bit for bit.

The :class:`~repro.sim.link.Wire` keeps one scheduled head-arrival
event per link and reserves each arrival's heap tie-break seq at
serialization-completion time, so arrivals fire with the exact
``(time, seq)`` keys a one-event-per-packet wire would use.
``fingerprints.json`` pins three shapes, captured while that
per-packet wire still existed and agreed with this one bit for bit:
an incast, a dumbbell whose bottleneck link flaps mid-run (flushing an
in-flight wire), and NDP packet spraying over a multipath leaf-spine.
Each pin holds the per-flow FCTs (down to the float repr), the event
count and a digest of the telemetry event trace, so any change to
event order fails here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    fct_fingerprint,
    pinned_fingerprints,
    quick_qcfg,
    trace_digest,
)
from repro.cli import SCHEME_FACTORIES
from repro.experiments.runner import Scenario, run
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    sim_fabric,
)
from repro.faults import FaultPlan, LinkFlap
from repro.obs import Telemetry
from repro.sim.engine import Simulator
from repro.sim.link import Port
from repro.sim.packet import Packet
from repro.sim.queues import PriorityMux
from repro.sim.topology import dumbbell
from repro.transport.base import Flow, TransportConfig
from repro.transport.dctcp import Dctcp
from repro.units import gbps, us
from repro.workloads.distributions import WEB_SEARCH


def _incast_scenario():
    return incast_scenario(
        "equiv-incast", WEB_SEARCH, n_senders=8, load=0.6,
        n_flows=16, size_cap=200_000, seed=7)


def _flap_scenario():
    """One big flow across a slow dumbbell with a mid-run bottleneck flap
    timed so packets are in flight (propagating) when the link dies."""

    def build_topology():
        # long propagation: at 1 Gbps a packet serializes in ~12 us but
        # propagates for 500 us, so the first window (which reaches the
        # bottleneck at ~512 us) sits *on the wire* when the flap hits
        # at t=600 us and the flush catches it mid-flight
        return dumbbell(rate=gbps(1), prop_delay=us(500), qcfg=quick_qcfg())

    def build_flows(topo):
        return [Flow(0, 0, 1, 150_000, 0.0)]

    plan = FaultPlan([LinkFlap("sw0->sw1", 6e-4, 4e-4, 1e-3, 2)])
    return Scenario("equiv-flap", build_topology, build_flows,
                    config=TransportConfig(min_rto=1e-3), max_time=4.0,
                    faults=plan)


def _spray_scenario():
    return all_to_all_scenario(
        "equiv-spray", WEB_SEARCH, n_flows=12,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=4), seed=11,
        event_budget=2_000_000)


# name -> (scheme factory, scenario factory), keyed as in fingerprints.json
CASES = {
    "incast": (Dctcp, _incast_scenario),
    "flap": (Dctcp, _flap_scenario),
    "spray": (SCHEME_FACTORIES["ndp"], _spray_scenario),
}


def run_case(name):
    """Run one pinned case observed; returns (result, fingerprint)."""
    scheme_factory, scenario_factory = CASES[name]
    telemetry = Telemetry()
    result = run(scheme_factory(), scenario_factory(), observe=telemetry)
    return result, {
        "flows": fct_fingerprint(result),
        "wall_events": result.wall_events,
        "trace_sha256": trace_digest(telemetry),
    }


def _assert_pinned(name):
    result, fingerprint = run_case(name)
    assert fingerprint == pinned_fingerprints()["wire"][name]
    return result


def test_incast_bit_identical():
    assert _assert_pinned("incast").completed == 16


def test_dumbbell_flap_flushes_wire_bit_identical():
    result = _assert_pinned("flap")
    # the flap must actually have caught packets mid-propagation, or
    # this test isn't exercising the wire-flush path
    wire_drops = sum(p.fault_wire_drops for p in result.ctx.network.ports)
    assert wire_drops > 0
    assert result.completed == 1


def test_ndp_spray_bit_identical():
    assert _assert_pinned("spray").completed > 0


# -- property: wire arrivals are time-monotone -----------------------------


class _Sink:
    """Records (arrival_time, packet) for every delivery."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, pkt):
        self.arrivals.append((self.sim.now, pkt))


def _make_port(sim, rate=gbps(10), prop_delay=us(5)):
    mux = PriorityMux(buffer_bytes=10_000_000)
    port = Port(sim, rate, prop_delay, mux, name="prop-port")
    sink = _Sink(sim)
    port.peer = sink
    return port, sink


@settings(max_examples=60, deadline=None)
@given(
    pattern=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=1e-4),  # send gap
                  st.integers(min_value=64, max_value=9000),  # size
                  st.integers(min_value=0, max_value=7)),     # priority
        min_size=1, max_size=40),
)
def test_wire_arrivals_time_monotone(pattern):
    """Under any send pattern, deliveries come off the wire in FIFO order
    at non-decreasing times, and nothing is lost or reordered."""
    sim = Simulator()
    port, sink = _make_port(sim)
    sent = []
    t = 0.0
    for i, (gap, size, priority) in enumerate(pattern):
        t += gap
        pkt = Packet(0, 0, 1, i, size, priority=priority)
        sent.append(pkt)
        sim.schedule_at(t, port.send, pkt)
    sim.run()
    times = [at for at, _pkt in sink.arrivals]
    assert times == sorted(times)
    assert len(sink.arrivals) == len(sent)
    # serialization is strict-priority but the *wire* is FIFO: whatever
    # order packets left the port, arrival order equals departure order
    departed = [pkt.seq for pkt in sent]
    arrived = {pkt.seq for _at, pkt in sink.arrivals}
    assert arrived == set(departed)
    assert len(port.wire) == 0 and port.wire.head_event is None
