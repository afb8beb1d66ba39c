"""Space-parallel sharded simulation: one process per pod group.

A leaf-spine fabric is cut along its pod structure: leaves (with their
hosts) and spines are dealt round-robin to ``n_shards`` shards, and each
shard runs a full copy of the topology in its own process but only
*simulates* the devices it owns.  The physics that makes this sound is
the same one the FIFO :class:`~repro.sim.link.Wire` models: a
packet finishing serialization on a cross-shard link cannot affect the
other side until one propagation delay later.  That delay — minimized
over every boundary link — is the run's **lookahead** ``L``, and the
synchronization protocol is the classic conservative (CMB null-message)
scheme built on it:

* every shard runs its simulator up to a window boundary ``T``, during
  which boundary ports divert finished transmissions into per-peer
  outboxes (an *egress stub* replacing the wire push) instead of
  delivering them locally;
* at the boundary, shards exchange outboxes plus a null message: their
  next local event time (raw ``peek_time``), the earliest arrival among
  their own exports, a local-completion flag and their event count;
* each shard then computes — from identical numbers, so identically —
  ``base``, the earliest unexecuted event anywhere, and advances to
  ``T' = min(base + L, max_time)``.  Any export produced by an event at
  ``t >= base`` arrives no earlier than ``t + L >= T'``, so an imported
  packet is never injected into a receiver's past;
* imports are injected at ``send_time + prop_delay`` through
  :meth:`~repro.sim.engine.Simulator.schedule_reserved` with a
  contiguous seq block, sorted by ``(arrival, source shard, batch
  index)`` — heap tie-breaking stays deterministic, so repeated runs
  merge identically.

An outbox entry carries the packet as the flat tuple of its slots
(:meth:`~repro.sim.packet.Packet.to_fields`), and the importer rebuilds
it with every slot restored, so the pipes pickle only tuples of plain
values, never ``Packet`` objects.

Determinism: arrival instants are computed from the same floats as the
serial run (``sim.now + prop_delay`` at serialization end, ``now +
base_delay`` for control), and windowing cannot reorder events with
distinct times.  What it cannot reproduce is a same-timestamp tie
between an imported event and a local one: serial breaks it by global
seq order, which no shard can see.  Such ties do happen.  On the
perfbench ``sharded`` workload 16 of 200 FCTs differ from serial; on
``shard_gate_scenario()`` DCTCP, PPT, NDP and Homa match serial, but
HPCC differs on 2 of 60 flows and PPT-HPCC on 3.  A sharded run is
always deterministic against itself.  ``docs/sharding.md`` spells out
the partitioning rules, the lookahead math and these measurements.

Termination is symmetric: every stop decision ("done", "budget",
"dead", "horizon") is a function of the exchanged data only, so all
shards break out of the window loop in the same round and nobody blocks
on a pipe that will never be written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..transport.base import TransportContext
from .host import Host
from .link import Port
from .network import Network
from .packet import Packet
from .topology import Topology


class ShardLedger:
    """Cross-shard handoff accounting for one shard's network.

    The fabric conservation laws (:mod:`repro.validate`) are local to a
    shard's books, so every packet that leaves or enters through the
    shard boundary must be ledgered: exported data packets were
    transmitted but never arrive locally, injected ones arrive without
    a local transmission, and replica traffic neutralized at the source
    (see :class:`InertPort`, :class:`_ControlRouter`) was offered to the
    fabric but never enqueued.  ``exported_to``/``imported_from`` count
    per peer shard (data + control), and the supervisor closes the
    global law: shard A's ``exported_to[B]`` must equal shard B's
    ``imported_from[A]`` exactly.
    """

    __slots__ = ("exported_pkts", "exported_bytes",
                 "injected_pkts", "injected_bytes",
                 "inert_drops", "inert_drop_bytes",
                 "replica_control_drops",
                 "exported_to", "imported_from")

    def __init__(self) -> None:
        # data packets diverted into an outbox / delivered from an inbox
        self.exported_pkts = 0
        self.exported_bytes = 0
        self.injected_pkts = 0
        self.injected_bytes = 0
        # replica-sender data stopped at the (inert) NIC
        self.inert_drops = 0
        self.inert_drop_bytes = 0
        # replica-receiver control dropped by the router
        self.replica_control_drops = 0
        # peer shard -> [pkts, bytes], data AND control
        self.exported_to: Dict[int, List[int]] = {}
        self.imported_from: Dict[int, List[int]] = {}

    def digest(self) -> dict:
        """Plain-dict snapshot for pickling into a :class:`ShardSummary`."""
        return {
            "exported_pkts": self.exported_pkts,
            "exported_bytes": self.exported_bytes,
            "injected_pkts": self.injected_pkts,
            "injected_bytes": self.injected_bytes,
            "inert_drops": self.inert_drops,
            "inert_drop_bytes": self.inert_drop_bytes,
            "replica_control_drops": self.replica_control_drops,
            "exported_to": {k: list(v) for k, v in self.exported_to.items()},
            "imported_from": {k: list(v)
                              for k, v in self.imported_from.items()},
        }


class InertPort:
    """Stands in for a *replica* host's uplink.

    A flow whose receiver is local gets its sender endpoint built on the
    (remote-owned) source host replica too — schemes create both ends.
    That replica sender must never push data into this shard's fabric:
    the real packets are simulated in the owner shard and imported at
    the boundary.  Swapping the replica's uplink for an InertPort stops
    its traffic at the NIC through :meth:`Host.send`'s duck-type seam,
    after the host's offer counters were already incremented — the
    ledger's inert counters balance the offer law.

    Read-only queries (``rate_bps``, ``prop_delay``, ...) proxy to the
    replaced real port: transports size windows off the source uplink's
    rate (e.g. ``TransportContext.bdp_packets``), and those reads must
    return the same floats as serial.  Writes are not proxied — a
    transport mutating a replica's uplink would be a bug worth a loud
    AttributeError.
    """

    __slots__ = ("ledger", "port")

    def __init__(self, ledger: ShardLedger, port) -> None:
        self.ledger = ledger
        self.port = port

    def __getattr__(self, name):
        return getattr(self.port, name)

    def send(self, pkt) -> bool:
        ledger = self.ledger
        ledger.inert_drops += 1
        ledger.inert_drop_bytes += pkt.size
        return False


class _BoundaryEgress:
    """Serialization-complete callback for a cross-shard port.

    Installed as the port's ``_tx_cb``; mirrors
    :meth:`~repro.sim.link.Port._tx_done` exactly — counters, fault
    chain, next-dequeue — except the finished packet goes into the
    peer shard's outbox (timestamped with the arrival instant the wire
    would have produced: ``sim.now + prop_delay``, the very float the
    serial run computes) instead of onto the local wire.
    """

    __slots__ = ("port", "port_index", "dst_shard", "ledger", "outbox")

    def __init__(self, port: Port, port_index: int, dst_shard: int,
                 ledger: ShardLedger, outbox: list) -> None:
        self.port = port
        self.port_index = port_index
        self.dst_shard = dst_shard
        self.ledger = ledger
        self.outbox = outbox

    def __call__(self, pkt) -> None:
        port = self.port
        sim = port.sim
        port.bytes_sent += pkt.size
        port.pkts_sent += 1
        port.busy_time += sim.now - port._tx_start
        chain = port.fault_chain
        if chain is not None and not chain.transmit(pkt):
            port.fault_wire_drops += 1
            port.fault_wire_drop_bytes += pkt.size
            port._start_next()
            return
        ledger = self.ledger
        ledger.exported_pkts += 1
        ledger.exported_bytes += pkt.size
        pair = ledger.exported_to[self.dst_shard]
        pair[0] += 1
        pair[1] += pkt.size
        # (arrival, kind=0 data, ingress port index, packet fields)
        self.outbox.append((sim.now + port.prop_delay, 0,
                            self.port_index, pkt.to_fields()))
        if port.mux.nonempty_mask:
            port._start_next()
        else:
            port.busy = False


class _ControlRouter:
    """Shard-aware replacement for :meth:`Network.send_control`.

    Installed as an instance attribute on the shard's network, which
    every transport honours (the window receiver's ACK fast path checks
    for exactly this override before caching a pipe).  Routing is by
    the *emitting* host's locality:

    * remote source — a replica endpoint generated it (a receiver
      granting credit it never really earned); dropped and counted;
    * local source, local destination — the stock
      :meth:`Network.send_control`, unbound, so counters and delivery
      floats are bit-identical to serial;
    * local source, remote destination — serial's emit-side counters
      are mirrored, then the packet is exported with the arrival the
      ideal control path would have produced (``now + base_delay``;
      cross-shard pairs are cross-leaf, so that delay always exceeds
      the lookahead).
    """

    __slots__ = ("net", "shard_id", "shard_of_host", "ledger", "outboxes")

    def __init__(self, net: Network, shard_id: int,
                 shard_of_host: Dict[int, int], ledger: ShardLedger,
                 outboxes: Dict[int, list]) -> None:
        self.net = net
        self.shard_id = shard_id
        self.shard_of_host = shard_of_host
        self.ledger = ledger
        self.outboxes = outboxes

    def __call__(self, pkt) -> None:
        shard_of_host = self.shard_of_host
        me = self.shard_id
        if shard_of_host[pkt.src] != me:
            self.ledger.replica_control_drops += 1
            return
        dst_shard = shard_of_host[pkt.dst]
        net = self.net
        if dst_shard == me:
            Network.send_control(net, pkt)
            return
        net.control_pkts += 1
        net.hosts[pkt.src].ops_sent += 1
        pair = self.ledger.exported_to[dst_shard]
        pair[0] += 1
        pair[1] += pkt.size
        arrival = net.sim.now + net.base_delay(pkt.src, pkt.dst)
        # (arrival, kind=1 control, destination host, packet fields)
        self.outboxes[dst_shard].append((arrival, 1, pkt.dst,
                                         pkt.to_fields()))


@dataclass
class ShardPlan:
    """How a topology is cut: device -> shard maps plus the lookahead."""

    n_shards: int
    lookahead: float
    shard_of_host: Dict[int, int]
    shard_of_switch: Dict[int, int]

    def hosts_of(self, shard: int) -> List[int]:
        return sorted(h for h, s in self.shard_of_host.items() if s == shard)

    def describe(self) -> str:
        sizes = [len(self.hosts_of(s)) for s in range(self.n_shards)]
        return (f"{self.n_shards} shard(s), hosts per shard {sizes}, "
                f"lookahead {self.lookahead:.3g}s")


def _device_shard(device, plan: ShardPlan) -> int:
    if isinstance(device, Host):
        return plan.shard_of_host[device.host_id]
    return plan.shard_of_switch[device.switch_id]


def boundary_ports(net: Network,
                   plan: ShardPlan) -> List[Tuple[Port, int, int]]:
    """Every port whose transmitter and receiver live in different
    shards, as ``(port, owner_shard, peer_shard)`` in deterministic
    (construction) order.  A port belongs to the device that transmits
    on it: switch ports to their switch, host uplinks to their host.
    """
    out: List[Tuple[Port, int, int]] = []
    for switch in net.switches:
        owner = plan.shard_of_switch[switch.switch_id]
        for port in switch.ports():
            peer_shard = _device_shard(port.peer, plan)
            if peer_shard != owner:
                out.append((port, owner, peer_shard))
    for host in net.hosts.values():
        port = host.uplink
        if type(port) is not Port:
            continue
        owner = plan.shard_of_host[host.host_id]
        peer_shard = _device_shard(port.peer, plan)
        if peer_shard != owner:
            out.append((port, owner, peer_shard))
    return out


def plan_shards(topo: Topology, n_shards: int) -> ShardPlan:
    """Partition ``topo`` into ``n_shards`` pod groups.

    Leaves (each with its attached hosts) and spines are dealt
    round-robin by index, so hosts never straddle a boundary mid-leaf
    and the cut runs exclusively through leaf<->spine links — whose
    propagation delay becomes the lookahead.  Only fabrics built by
    :func:`~repro.sim.topology.leaf_spine` carry the partition
    metadata; anything else raises.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    net = topo.network
    if n_shards == 1:
        return ShardPlan(1, 0.0,
                         {h: 0 for h in net.hosts},
                         {s.switch_id: 0 for s in net.switches})
    if (topo.host_leaf is None or topo.leaf_switch_ids is None
            or topo.spine_switch_ids is None):
        raise ValueError(
            "topology carries no partition metadata; only leaf_spine() "
            "fabrics can be sharded (star/dumbbell/fat-tree have no pod "
            "structure to cut along)")
    n_leaf = len(topo.leaf_switch_ids)
    if n_shards > n_leaf:
        raise ValueError(
            f"cannot cut {n_leaf} leaves into {n_shards} shards; "
            f"use at most n_shards={n_leaf}")
    shard_of_switch: Dict[int, int] = {}
    for idx, switch_id in enumerate(topo.leaf_switch_ids):
        shard_of_switch[switch_id] = idx % n_shards
    for idx, switch_id in enumerate(topo.spine_switch_ids):
        shard_of_switch[switch_id] = idx % n_shards
    shard_of_host = {
        host_id: shard_of_switch[topo.leaf_switch_ids[leaf_idx]]
        for host_id, leaf_idx in topo.host_leaf.items()}
    plan = ShardPlan(n_shards, 0.0, shard_of_host, shard_of_switch)
    boundary = boundary_ports(net, plan)
    if not boundary:
        raise ValueError("partition produced no cross-shard links")
    plan.lookahead = min(port.prop_delay for port, _o, _p in boundary)
    return plan


@dataclass
class ShardSummary:
    """Everything a finished shard sends back to the supervisor.

    Plain data only — this crosses a process boundary by pickle.
    ``fcts`` holds finish times for flows whose *receiver* is local
    (completion is receiver-side, so each flow appears in exactly one
    shard's summary); retransmit counters likewise cover local-host
    endpoints only, so the per-shard sums partition the serial totals.

    The phase timers (``perf_counter`` seconds, read once per round)
    split ``wall_s``, the worker's time from :meth:`ShardWorker.run`
    entry to the end of its harvest: ``build_s`` builds the topology,
    endpoints and boundary stubs; ``compute_s`` runs each window, sweeps
    the heap and audits the slice; ``exchange_s`` computes the null
    message, pickles and sends the outboxes, waits for the peers and
    unpickles theirs; ``inject_s`` rebuilds the imported packets and
    schedules them.  The rest of ``wall_s`` is the harvest.
    """

    shard_id: int
    outcome: str  # "done" | "budget" | "dead" | "horizon"
    rounds: int
    n_local_flows: int
    completed: int
    completed_target: int
    fcts: Dict[int, float]
    events_run: int
    sim_time: float
    peak_pending: int
    live_pending: int
    retransmits_total: int
    rtos_total: int
    retransmits_by_flow: Dict[int, int]
    ledger: dict
    wall_s: float
    build_s: float
    compute_s: float
    exchange_s: float
    inject_s: float
    telemetry: Optional[object] = None   # TelemetrySummary when observed
    validation: Optional[object] = None  # ValidationReport when validated


class ShardWorker:
    """One shard's whole life: build, neutralize, synchronize, harvest.

    Constructed (in the child process) with the shard id, the plan, the
    scheme/scenario and a ``{peer shard id: Connection}`` map; ``run()``
    returns the picklable :class:`ShardSummary` the supervisor merges.
    """

    # A window exchange should take microseconds; a peer silent this
    # long has died (the supervisor also watches the result pipes).
    RECV_TIMEOUT = 300.0

    def __init__(self, shard_id: int, plan: ShardPlan, scheme, scenario,
                 conns: Dict[int, object], *,
                 observe: bool = False, validate: bool = False) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.scheme = scheme
        self.scenario = scenario
        self.conns = conns
        self.observe = observe
        self.validate = validate
        self.rounds = 0
        self.outcome = "horizon"
        self.compute_s = 0.0
        self.exchange_s = 0.0
        self.inject_s = 0.0

    # -- lifecycle --------------------------------------------------------

    def run(self) -> ShardSummary:
        started = perf_counter()
        self._setup()
        self.build_s = perf_counter() - started
        if self.conns:
            self._run_windows()
        else:
            self._run_solo()
        return self._harvest(started)

    def _setup(self) -> None:
        from ..obs.telemetry import Telemetry
        from ..validate import RunAuditor

        plan, me = self.plan, self.shard_id
        scenario, scheme = self.scenario, self.scheme
        if scenario.faults is not None:
            raise ValueError(
                "sharded runs do not support fault plans (cross-shard "
                "fault windows have no deterministic-merge semantics yet)")
        if scenario.hybrid is not None and scenario.hybrid.enabled:
            raise ValueError(
                "sharded runs do not support the hybrid fast path "
                "(abstract flows have no boundary-crossing packets)")
        topo = scenario.build_topology()
        self.topo = topo
        net, sim = topo.network, topo.sim
        scheme.configure_network(net)
        if net.pfc_controllers:
            raise ValueError(
                "sharded runs do not support PFC (pause frames cross "
                "shard boundaries outside the data-packet protocol)")

        flow_source = scenario.build_flows(topo)
        flows = (flow_source if isinstance(flow_source, list)
                 else flow_source.materialize())
        self.flows = flows
        shard_of_host = plan.shard_of_host
        local_flows = [f for f in flows
                       if shard_of_host[f.src] == me
                       or shard_of_host[f.dst] == me]
        self.local_flows = local_flows
        # completion is detected at the receiver, so a flow is *this*
        # shard's to finish exactly when its destination is local
        self.completed_target = sum(
            1 for f in local_flows if shard_of_host[f.dst] == me)

        telemetry = Telemetry() if self.observe else None
        on_complete = None
        if telemetry is not None:
            telemetry.attach(sim, net, None)
            on_complete = telemetry.on_flow_complete
        ctx = TransportContext(sim, net, scenario.config,
                               on_complete=on_complete)
        ctx.telemetry = telemetry
        self.ctx = ctx
        self.telemetry = telemetry
        auditor = None
        if self.validate:
            auditor = RunAuditor(strict=(self.validate == "strict"))
        if auditor is not None:
            auditor.attach(sim, net, ctx)
        self.auditor = auditor

        ledger = ShardLedger()
        for k in range(plan.n_shards):
            if k != me:
                ledger.exported_to[k] = [0, 0]
                ledger.imported_from[k] = [0, 0]
        net.shard_ledger = ledger
        self.ledger = ledger
        self.outboxes: Dict[int, list] = {k: [] for k in sorted(self.conns)}
        self._ports = net.ports
        self._hosts = net.hosts

        # Boundary stubbing needs the true port ownership, so it runs
        # BEFORE replica uplinks are swapped out.
        port_index = {id(p): i for i, p in enumerate(net.ports)}
        for port, owner, peer_shard in boundary_ports(net, plan):
            if owner != me:
                continue  # simulated (for real) by its own shard
            port._tx_cb = _BoundaryEgress(port, port_index[id(port)],
                                          peer_shard, ledger,
                                          self.outboxes[peer_shard])
        for host in net.hosts.values():
            if shard_of_host[host.host_id] != me:
                host.uplink = InertPort(ledger, host.uplink)
        net.send_control = _ControlRouter(net, me, shard_of_host, ledger,
                                          self.outboxes)

        # Start only flows with a local endpoint: the sender's shard
        # simulates the data path, the receiver's shard the completion;
        # pure-transit shards just forward imports.  The starts go
        # through one lazy chain over the start-time-sorted list, exactly
        # as runner.run schedules a serial run's.
        if telemetry is None:
            start_fn, extra = scheme.start_flow, (ctx,)
        else:
            def start_fn(flow, _scheme=scheme, _ctx=ctx, _tel=telemetry):
                _tel.on_flow_start(flow)
                _scheme.start_flow(flow, _ctx)
            extra = ()
        starts = [(f.start_time, start_fn, (f,) + extra)
                  for f in sorted(local_flows, key=lambda f: f.start_time)]
        sim.schedule_lazy_chain(starts, count=len(starts))

    # -- window loops -----------------------------------------------------

    def _run_solo(self) -> None:
        """Single-shard run: no peers, so the shard may advance to its
        own horizon (``peek + L``) each window — but never by less than
        a serial drain slice, or an L of one propagation delay would
        turn the run into step-by-step execution."""
        scenario = self.scenario
        sim = self.topo.sim
        ctx, auditor = self.ctx, self.auditor
        budget = scenario.event_budget
        max_time = scenario.max_time
        target = self.completed_target
        stride = max(self.plan.lookahead, max_time / 200.0, 1e-4)
        T = 0.0
        while True:
            max_events = None
            if budget is not None:
                remaining = budget - sim.events_run
                if remaining <= 0:
                    self.outcome = "budget"
                    break
                max_events = remaining
            started = perf_counter()
            sim.run(until=T, max_events=max_events)
            self.rounds += 1
            sim.sweep()
            if auditor is not None:
                auditor.on_slice()
            self.compute_s += perf_counter() - started
            if budget is not None and sim.events_run >= budget:
                self.outcome = "budget"
                break
            if len(ctx.completed) >= target:
                self.outcome = "done"
                break
            horizon = sim.peek_horizon(self.plan.lookahead)
            if horizon is None:
                self.outcome = "dead"
                break
            if T >= max_time:
                self.outcome = "horizon"
                break
            T = min(max(horizon, T + stride), max_time)

    def _run_windows(self) -> None:
        """The conservative synchronization loop (module docstring).

        Exchange is pairwise over the full mesh in sorted-pair order
        (the lower shard id of each pair sends first), which is
        deadlock-free for blocking pipes; every termination predicate
        is computed from exchanged values only, so all shards leave the
        loop in the same round.
        """
        plan, me = self.plan, self.shard_id
        sim = self.topo.sim
        scenario = self.scenario
        ctx, auditor = self.ctx, self.auditor
        budget = scenario.event_budget
        max_time = scenario.max_time
        lookahead = plan.lookahead
        conns = self.conns
        peers = sorted(conns)
        outboxes = self.outboxes
        inf = float("inf")
        T = 0.0
        while True:
            started = perf_counter()
            sim.run(until=T)
            self.rounds += 1
            sim.sweep()
            if auditor is not None:
                auditor.on_slice()
            computed = perf_counter()

            # own null-message signals — raw floats, so every shard
            # folds the identical numbers into ``base``
            peek = sim.peek_time()
            min_arrival = inf
            for batch in outboxes.values():
                for entry in batch:
                    if entry[0] < min_arrival:
                        min_arrival = entry[0]
            my_arrival = min_arrival if min_arrival < inf else None
            done_local = len(ctx.completed) >= self.completed_target
            my_events = sim.events_run

            base = inf if peek is None else peek
            if min_arrival < base:
                base = min_arrival
            all_done = done_local
            total_events = my_events
            imports_round: List[Tuple[int, list]] = []
            for k in peers:
                conn = conns[k]
                message = (outboxes[k], peek, my_arrival,
                           done_local, my_events)
                if me < k:
                    conn.send(message)
                    outboxes[k].clear()
                    theirs = self._recv(conn, k)
                else:
                    theirs = self._recv(conn, k)
                    conn.send(message)
                    outboxes[k].clear()
                imports, peer_peek, peer_arrival, peer_done, \
                    peer_events = theirs
                imports_round.append((k, imports))
                if peer_peek is not None and peer_peek < base:
                    base = peer_peek
                if peer_arrival is not None and peer_arrival < base:
                    base = peer_arrival
                all_done = all_done and peer_done
                total_events += peer_events

            exchanged = perf_counter()
            self._inject(imports_round)
            self.compute_s += computed - started
            self.exchange_s += exchanged - computed
            self.inject_s += perf_counter() - exchanged

            # symmetric termination — exchanged data only
            if all_done:
                self.outcome = "done"
                break
            if budget is not None and total_events >= budget:
                self.outcome = "budget"
                break
            if base == inf:
                self.outcome = "dead"
                break
            if T >= max_time:
                self.outcome = "horizon"
                break
            T = min(base + lookahead, max_time)

    def _recv(self, conn, peer: int):
        if not conn.poll(self.RECV_TIMEOUT):
            raise RuntimeError(
                f"shard {self.shard_id}: no window message from shard "
                f"{peer} after {self.RECV_TIMEOUT:.0f}s (peer crashed?)")
        try:
            return conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {self.shard_id}: pipe to shard {peer} closed "
                f"mid-run") from None

    def _inject(self, imports_round: List[Tuple[int, list]]) -> None:
        """Schedule this round's imports deterministically.

        Entries are ordered by ``(arrival, source shard, batch index)``
        and given a contiguous reserved seq block, so the heap's
        tie-break order is a pure function of the merged traffic — the
        same run shards the same way twice.  The lookahead guarantees
        ``arrival >= sim.now``; the clamp is belt-and-braces (scheduling
        into the past would drag the clock backwards).
        """
        entries = []
        for k, imports in imports_round:
            for idx, entry in enumerate(imports):
                entries.append((entry[0], k, idx, entry))
        if not entries:
            return
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        sim = self.topo.sim
        ledger = self.ledger
        now = sim.now
        first = sim.reserve_seq_block(len(entries))
        from_fields = Packet.from_fields
        for offset, (arrival, k, _idx, entry) in enumerate(entries):
            _a, kind, ref, fields = entry
            pkt = from_fields(fields)
            pair = ledger.imported_from[k]
            pair[0] += 1
            pair[1] += pkt.size
            if arrival < now:
                arrival = now
            if kind == 0:
                sim.schedule_reserved(arrival, first + offset,
                                      self._deliver_data, ref, pkt)
            else:
                sim.schedule_reserved(arrival, first + offset,
                                      self._deliver_control, pkt)

    def _deliver_data(self, port_index: int, pkt) -> None:
        """An imported data packet reaches the boundary port's peer —
        the exact callback the wire's head arrival would have run."""
        ledger = self.ledger
        ledger.injected_pkts += 1
        ledger.injected_bytes += pkt.size
        self._ports[port_index].peer.receive(pkt)

    def _deliver_control(self, pkt) -> None:
        self._hosts[pkt.dst].receive_control(pkt)

    # -- harvest ----------------------------------------------------------

    def _harvest(self, started: float) -> ShardSummary:
        plan, me = self.plan, self.shard_id
        net = self.topo.network
        sim = self.topo.sim
        shard_of_host = plan.shard_of_host
        fcts = {f.flow_id: f.finish_time for f in self.local_flows
                if shard_of_host[f.dst] == me and f.finish_time is not None}
        # Retransmit harvest over LOCAL hosts only: replica senders (on
        # remote host replicas) churn futile RTOs that serial never
        # sees, so per-shard sums over real endpoints partition the
        # serial totals exactly.
        rtx_by_flow: Dict[int, int] = {}
        rtx_total = 0
        rtos = 0
        seen = set()
        for host in net.hosts.values():
            if shard_of_host[host.host_id] != me:
                continue
            for flow_id, endpoint in host.endpoints.items():
                if id(endpoint) in seen:
                    continue
                seen.add(id(endpoint))
                rtx = getattr(endpoint, "pkts_retransmitted", None)
                if rtx is None:
                    continue
                rtx_by_flow[flow_id] = rtx_by_flow.get(flow_id, 0) + rtx
                rtx_total += rtx
                rtos += getattr(endpoint, "rtos_fired", 0)
        telemetry_summary = None
        if self.telemetry is not None:
            self.telemetry.finalize(net, self.local_flows)
            telemetry_summary = self.telemetry.summary()
        validation = (self.auditor.finalize(self.local_flows)
                      if self.auditor is not None else None)
        return ShardSummary(
            shard_id=me,
            outcome=self.outcome,
            rounds=self.rounds,
            n_local_flows=len(self.local_flows),
            completed=len(self.ctx.completed),
            completed_target=self.completed_target,
            fcts=fcts,
            events_run=sim.events_run,
            sim_time=sim.now,
            peak_pending=sim.peak_pending,
            live_pending=sim.live_pending,
            retransmits_total=rtx_total,
            rtos_total=rtos,
            retransmits_by_flow=rtx_by_flow,
            ledger=self.ledger.digest(),
            wall_s=perf_counter() - started,
            build_s=self.build_s,
            compute_s=self.compute_s,
            exchange_s=self.exchange_s,
            inject_s=self.inject_s,
            telemetry=telemetry_summary,
            validation=validation,
        )
