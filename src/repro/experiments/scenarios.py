"""Canonical scenario builders for every experiment in the paper.

Scale note: the paper's fabrics (144 hosts, thousands of flows, seconds
of simulated traffic) would take hours per scheme in pure Python, so the
default scenarios here are *scaled replicas*: the same topology shape,
link-speed ratio, oversubscription, buffer/ECN settings and workloads,
with fewer hosts and a few hundred flows, and heavy-tailed size
distributions capped so a run finishes in seconds.  Every builder takes
overrides, so the full-size configuration is one call away (see
``examples/full_scale.py``).

The arrival *load* is always preserved — capping sizes feeds the capped
mean back into the Poisson arrival rate (see
:class:`repro.workloads.PoissonFlowStream`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from ..faults.plan import FaultPlan, LinkDown, PacketLoss, PfcStorm, RateDegrade
from ..sim.hybrid import HybridConfig
from ..sim.network import QueueConfig
from ..sim.queues import PfcConfig
from ..sim.topology import Topology, dumbbell, leaf_spine, star
from ..transport.base import Flow, TransportConfig
from ..units import gbps, kb, mb, us
from ..workloads.distributions import EmpiricalCdf, WEB_SEARCH
from ..workloads.patterns import PairSampler, all_to_all, incast
from ..workloads.streams import FlowStream, LoadShape, TenantClass, flow_stream

#: The return type every ``build_flows`` closure may now produce.
FlowSource = Union[List[Flow], FlowStream]
from .runner import Scenario

# ---------------------------------------------------------------------------
# fabric builders
# ---------------------------------------------------------------------------

SIM_BUFFER = 120_000          # per-port buffer, §6.2
SIM_K_HIGH = 96_000           # HCP marking threshold, §6.2
SIM_K_LOW = 86_000            # LCP marking threshold, §6.2
TESTBED_BUFFER = 925_000      # 50MB shared by 54 ports (Table 3)
TESTBED_K_HIGH = 100_000      # Table 3
TESTBED_K_LOW = 80_000        # Table 3
DEFAULT_SIZE_CAP = 2_000_000  # flow-size cap for the scaled scenarios

# Lossless (RoCEv2-style) fabric settings for the scaled leaf-spine: ECN
# engages first (the DCQCN/HPCC congestion signal), PFC backstops it —
# XOFF above the marking threshold, XON halfway down, and headroom sized
# for every ingress port's pause-propagation in-flight bytes several
# times over so a lossless class can never drop.
SIM_PFC = PfcConfig(xoff_bytes=60_000, xon_bytes=30_000,
                    headroom_bytes=480_000)
SIM_LOSSLESS_K_HIGH = 40_000  # mark well below XOFF: ECN before PAUSE
SIM_LOSSLESS_K_LOW = 35_000


def _with_features(
    fabric: Callable[[], Topology],
    *,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc: bool = False,
    pfc_config: Optional[PfcConfig] = None,
) -> Callable[[], Topology]:
    """Wrap a fabric builder with PFC / load-balancer configuration.

    With everything at defaults the original closure is returned
    untouched, so scenarios without these features stay bit-identical
    object-for-object.
    """
    if lb == "ecmp" and not pfc and pfc_config is None:
        return fabric

    def build() -> Topology:
        topo = fabric()
        if pfc or pfc_config is not None:
            topo.enable_pfc(pfc_config)
        if lb != "ecmp":
            topo.set_load_balancer(lb, lb_gap)
        return topo

    return build


def sim_qcfg(buffer_bytes: int = SIM_BUFFER, k_high: int = SIM_K_HIGH,
             k_low: int = SIM_K_LOW, **kwargs) -> QueueConfig:
    return QueueConfig(buffer_bytes=buffer_bytes,
                       ecn_thresholds=[k_high] * 4 + [k_low] * 4, **kwargs)


def sim_fabric(
    *,
    n_leaf: int = 4,
    n_spine: int = 2,
    hosts_per_leaf: int = 8,
    edge_rate: float = gbps(40),
    core_rate: float = gbps(100),
    prop_delay: float = us(2),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """Scaled replica of the §6.2 oversubscribed 40/100G fabric."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return leaf_spine(n_leaf=n_leaf, n_spine=n_spine,
                          hosts_per_leaf=hosts_per_leaf,
                          edge_rate=edge_rate, core_rate=core_rate,
                          prop_delay=prop_delay, qcfg=qcfg)

    return build


def sim_fabric_100_400g(**overrides) -> Callable[[], Topology]:
    """Fig. 22's higher-line-rate variant."""
    params = dict(edge_rate=gbps(100), core_rate=gbps(400))
    params.update(overrides)
    return sim_fabric(**params)


def sim_fabric_non_oversubscribed(**overrides) -> Callable[[], Topology]:
    """Appendix E: 10G edge / 40G core, fully provisioned."""
    params = dict(edge_rate=gbps(10), core_rate=gbps(40),
                  qcfg=sim_qcfg(k_high=30_000, k_low=25_000))
    params.update(overrides)
    return sim_fabric(**params)


def testbed_fabric(n_hosts: int = 15) -> Callable[[], Topology]:
    """The CloudLab testbed stand-in: 15 hosts, one switch, 10G, ~80us RTT."""
    qcfg = QueueConfig(buffer_bytes=TESTBED_BUFFER,
                       ecn_thresholds=[TESTBED_K_HIGH] * 4 + [TESTBED_K_LOW] * 4)

    def build() -> Topology:
        return star(n_hosts, rate=gbps(10), prop_delay=us(19), qcfg=qcfg)

    return build


def star_fabric(
    n_hosts: int = 8,
    *,
    rate: float = gbps(10),
    prop_delay: float = us(10),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """A small single-switch star (validation-matrix topology #1)."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return star(n_hosts, rate=rate, prop_delay=prop_delay, qcfg=qcfg)

    return build


def dumbbell_fabric(
    *,
    rate: float = gbps(10),
    bottleneck_rate: Optional[float] = None,
    prop_delay: float = us(10),
    qcfg: Optional[QueueConfig] = None,
) -> Callable[[], Topology]:
    """host0–sw0–sw1–host1 (validation-matrix topology #2; also the
    HPCC INT regression fixture — exactly two switch hops each way)."""
    qcfg = qcfg or sim_qcfg()

    def build() -> Topology:
        return dumbbell(rate=rate, bottleneck_rate=bottleneck_rate,
                        prop_delay=prop_delay, qcfg=qcfg)

    return build


def dumbbell_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    load: float = 0.5,
    n_flows: int = 40,
    bottleneck_rate: Optional[float] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 13,
    max_time: float = 10.0,
    event_budget: Optional[int] = None,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc: bool = False,
    pfc_config: Optional[PfcConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> Scenario:
    """Poisson traffic host0 -> host1 across the dumbbell bottleneck."""
    fabric = _with_features(dumbbell_fabric(bottleneck_rate=bottleneck_rate),
                            lb=lb, lb_gap=lb_gap, pfc=pfc,
                            pfc_config=pfc_config)

    def build_flows(topo: Topology) -> FlowSource:
        return _flow_source(
            incast([0], 1), cdf,
            load=load, link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=1, seed=seed, size_cap=size_cap,
            stream=stream, load_shape=load_shape, tenants=tenants,
            arrivals=arrivals, closed_users=closed_users)

    return Scenario(name, fabric, build_flows,
                    config=config or sim_config(), max_time=max_time,
                    event_budget=event_budget, hybrid=hybrid)


def micro_fabric(rate: float = gbps(40),
                 buffer_bytes: int = 250_000,
                 k_high: int = 120_000,
                 k_low: int = 100_000) -> Callable[[], Topology]:
    """The 2-sender/1-receiver microbenchmark fabric (Figs 1, 20, 28, 29)."""
    qcfg = sim_qcfg(buffer_bytes, k_high, k_low)

    def build() -> Topology:
        return star(3, rate=rate, prop_delay=us(5), qcfg=qcfg)

    return build


# ---------------------------------------------------------------------------
# flow sources: one materialized/streaming switch for every builder
# ---------------------------------------------------------------------------


def _flow_source(
    pattern: PairSampler,
    cdf: EmpiricalCdf,
    *,
    load: float,
    link_rate: float,
    n_flows: int,
    n_senders: int,
    seed: int,
    size_cap: Optional[int],
    stream: bool,
    load_shape: Optional[LoadShape],
    tenants: Optional[Sequence[TenantClass]],
    arrivals: str,
    closed_users: int,
):
    """Build a scenario's flow source.

    ``stream=True`` returns a constant-memory
    :class:`~repro.workloads.FlowStream` the runner pulls lazily —
    bit-identical to the materialized list for the same seed.  Every
    generator feature (tenant mixes, load shapes, closed-loop arrivals)
    is available in both modes: without ``stream`` the stream is simply
    drained into a list up front.
    """
    source = flow_stream(pattern, cdf, load=load, link_rate=link_rate,
                         n_flows=n_flows, n_senders=n_senders, seed=seed,
                         size_cap=size_cap, shape=load_shape,
                         tenants=tenants, arrivals=arrivals,
                         closed_users=closed_users)
    return source if stream else source.materialize()


# ---------------------------------------------------------------------------
# transport configs
# ---------------------------------------------------------------------------


def sim_config(**overrides) -> TransportConfig:
    """Large-scale-simulation defaults (§6.2): 2GB send buffer, 1ms RTO."""
    params = dict(min_rto=1e-3, send_buffer_bytes=2_000_000_000,
                  identification_threshold=100_000,
                  demotion_thresholds=(100_000, 400_000, 1_000_000))
    params.update(overrides)
    return TransportConfig(**params)


def testbed_config(**overrides) -> TransportConfig:
    """Testbed defaults (Table 3): RTOmin 10ms, 100KB thresholds."""
    params = dict(min_rto=10e-3, send_buffer_bytes=2_000_000_000,
                  identification_threshold=100_000,
                  demotion_thresholds=(100_000, 400_000, 1_000_000))
    params.update(overrides)
    return TransportConfig(**params)


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------


def all_to_all_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    load: float = 0.5,
    n_flows: int = 150,
    fabric: Optional[Callable[[], Topology]] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 7,
    max_time: float = 10.0,
    faults: Optional[FaultPlan] = None,
    event_budget: Optional[int] = None,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc: bool = False,
    pfc_config: Optional[PfcConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> Scenario:
    """All-to-all Poisson traffic on a fabric (the §6.2 shape)."""
    fabric = _with_features(fabric or sim_fabric(), lb=lb, lb_gap=lb_gap,
                            pfc=pfc, pfc_config=pfc_config)

    def build_flows(topo: Topology) -> FlowSource:
        return _flow_source(
            all_to_all(topo.host_ids()), cdf,
            load=load, link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=topo.n_hosts, seed=seed, size_cap=size_cap,
            stream=stream, load_shape=load_shape, tenants=tenants,
            arrivals=arrivals, closed_users=closed_users)

    return Scenario(name, fabric, build_flows,
                    config=config or sim_config(), max_time=max_time,
                    faults=faults, event_budget=event_budget, hybrid=hybrid)


def incast_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    n_senders: int,
    load: float = 0.5,
    n_flows: int = 120,
    fabric: Optional[Callable[[], Topology]] = None,
    config: Optional[TransportConfig] = None,
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 11,
    max_time: float = 20.0,
    receiver: int = 0,
    faults: Optional[FaultPlan] = None,
    event_budget: Optional[int] = None,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc: bool = False,
    pfc_config: Optional[PfcConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> Scenario:
    """N-to-1 incast: the load is defined against the receiver downlink."""
    fabric = _with_features(fabric or sim_fabric(), lb=lb, lb_gap=lb_gap,
                            pfc=pfc, pfc_config=pfc_config)

    def build_flows(topo: Topology) -> FlowSource:
        senders = [h for h in topo.host_ids() if h != receiver][:n_senders]
        return _flow_source(
            incast(senders, receiver), cdf,
            load=load, link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=1, seed=seed, size_cap=size_cap,
            stream=stream, load_shape=load_shape, tenants=tenants,
            arrivals=arrivals, closed_users=closed_users)

    return Scenario(name, fabric, build_flows,
                    config=config or sim_config(), max_time=max_time,
                    faults=faults, event_budget=event_budget, hybrid=hybrid)


def two_to_one_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    load: float = 0.5,
    n_flows: int = 120,
    rate: float = gbps(40),
    k_high: int = 120_000,
    k_low: int = 100_000,
    buffer_bytes: int = 250_000,
    size_cap: Optional[int] = 3_000_000,
    seed: int = 3,
    max_time: float = 30.0,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
) -> Scenario:
    """The Fig 1/20/28/29 microbenchmark: two senders, one receiver."""
    fabric = micro_fabric(rate, buffer_bytes, k_high, k_low)

    def build_flows(topo: Topology) -> FlowSource:
        return _flow_source(
            incast([0, 1], 2), cdf,
            load=load, link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=1, seed=seed, size_cap=size_cap,
            stream=stream, load_shape=load_shape, tenants=tenants,
            arrivals=arrivals, closed_users=closed_users)

    return Scenario(name, fabric, build_flows, config=sim_config(),
                    max_time=max_time)


def testbed_scenario(
    name: str,
    cdf: EmpiricalCdf,
    *,
    load: float = 0.5,
    n_flows: int = 120,
    pattern: str = "all-to-all",   # or "incast" (the 14-to-1 pattern)
    size_cap: Optional[int] = DEFAULT_SIZE_CAP,
    seed: int = 5,
    max_time: float = 60.0,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
) -> Scenario:
    """The §6.1 testbed experiments: 15 hosts, 10G star, RTOmin 10ms."""
    fabric = testbed_fabric()

    def build_flows(topo: Topology) -> FlowSource:
        hosts = topo.host_ids()
        if pattern == "incast":
            pair = incast(hosts[1:], hosts[0])
            n_senders = 1
        else:
            pair = all_to_all(hosts)
            n_senders = topo.n_hosts
        return _flow_source(pair, cdf, load=load, link_rate=topo.edge_rate,
                            n_flows=n_flows, n_senders=n_senders, seed=seed,
                            size_cap=size_cap,
                            stream=stream, load_shape=load_shape,
                            tenants=tenants, arrivals=arrivals,
                            closed_users=closed_users)

    return Scenario(name, fabric, build_flows, config=testbed_config(),
                    max_time=max_time)


# ---------------------------------------------------------------------------
# sharded-determinism gate (repro.experiments.distributed)
# ---------------------------------------------------------------------------


def shard_gate_scenario(name: str = "shard-gate") -> Scenario:
    """The canonical sharded-determinism gate scenario.

    A 4-leaf/2-spine fabric (seed 103, load 0.4, 60 flows, 50us links)
    on which the sharded runner's per-flow FCTs are bit-identical to the
    serial runner's for DCTCP (2 and 4 shards) and PPT, NDP and Homa
    (2 shards).  It is not tie-free for every scheme: HPCC differs from
    serial on 2 of the 60 flows and PPT-HPCC on 3, because an imported
    packet meets a local event at the same timestamp (see
    ``docs/sharding.md``).  Tests, the validation matrix and CI gate on
    this scenario — change any parameter and the gated schemes must be
    re-checked against serial.
    """
    return all_to_all_scenario(
        name, WEB_SEARCH, load=0.4, n_flows=60,
        fabric=sim_fabric(n_leaf=4, n_spine=2, hosts_per_leaf=4,
                          prop_delay=us(50)),
        seed=103, max_time=5.0)


# ---------------------------------------------------------------------------
# long-horizon soak (repro.resilience)
# ---------------------------------------------------------------------------


def soak_fault_plan(
    horizon: float,
    *,
    period: float = 300.0,
    seed: int = 17,
    down_port: str = "sw0->host1",
    loss_port: str = "host2->sw0",
    degrade_port: str = "sw0->host3",
) -> FaultPlan:
    """A repeating fault schedule that fires throughout ``horizon``.

    Every ``period`` simulated seconds one fault lands, rotating through
    the three injector families — a link blackout, a Bernoulli loss
    window, a rate degrade — so a soak exercises *every* fault path many
    times, not once.  Windows are short relative to ``period`` (a tenth)
    so the fabric keeps making progress and the run-health watchdog's
    fault grace never masks a real stall for long.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    if period <= 0.0:
        raise ValueError(f"period must be positive, got {period!r}")
    events: List[object] = []
    width = period / 10.0
    t = period / 2.0
    k = 0
    while t < horizon:
        kind = k % 3
        if kind == 0:
            events.append(LinkDown(down_port, t, min(width, 0.05)))
        elif kind == 1:
            events.append(PacketLoss(loss_port, 0.02, t, t + width))
        else:
            events.append(RateDegrade(degrade_port, 0.25, t, t + width))
        k += 1
        t += period
    return FaultPlan(events, seed=seed)


def soak_scenario(
    name: str = "soak",
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    horizon: float = 3600.0,
    load: float = 0.05,
    n_hosts: int = 4,
    rate: float = gbps(0.01),
    size_cap: Optional[int] = 200_000,
    seed: int = 23,
    fault_period: Optional[float] = 300.0,
    fault_seed: int = 17,
    faults: Optional[FaultPlan] = None,
    config: Optional[TransportConfig] = None,
    event_budget: Optional[int] = None,
    stream: bool = False,
    load_shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc: bool = False,
    pfc_config: Optional[PfcConfig] = None,
    hybrid: Optional[HybridConfig] = None,
) -> Scenario:
    """Hours of simulated time on a slow star, faults firing throughout.

    Built for :mod:`repro.resilience`: the flow count is derived from
    ``horizon`` so the Poisson arrival process spans ~90% of it (the
    last 10% lets the tail complete), the link rate is deliberately low
    so an hour of simulated time stays a few million events, and
    ``fault_period`` (``None`` disables) lays a
    :func:`soak_fault_plan` over the whole horizon (an explicit
    ``faults`` plan takes precedence).  Designed to run
    under ``--validate`` with periodic checkpoints — see
    ``docs/robustness.md``.
    """
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    fabric = _with_features(star_fabric(n_hosts, rate=rate),
                            lb=lb, lb_gap=lb_gap, pfc=pfc,
                            pfc_config=pfc_config)
    if faults is None and fault_period is not None:
        faults = soak_fault_plan(horizon, period=fault_period,
                                 seed=fault_seed)

    def build_flows(topo: Topology) -> FlowSource:
        hosts = topo.host_ids()
        mean_size = cdf.mean(size_cap)
        # arrival rate the generator will use (flows/sec); size it so
        # arrivals span ~90% of the horizon
        arrival_rate = load * len(hosts) * topo.edge_rate / (8.0 * mean_size)
        n_flows = max(2, int(arrival_rate * horizon * 0.9))
        return _flow_source(
            all_to_all(hosts), cdf,
            load=load, link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=len(hosts), seed=seed, size_cap=size_cap,
            stream=stream, load_shape=load_shape, tenants=tenants,
            arrivals=arrivals, closed_users=closed_users)

    # The default 1ms RTO assumes a 40G fabric; at soak rates a single
    # 1500B serialization takes longer than that, so every un-ACKed
    # packet would fire a spurious RTO.  Scale RTOmin well past the slow
    # star's base RTT (~5ms at the default 10 Mbps).
    if config is None:
        config = sim_config(min_rto=0.05)
    # The stall watchdog window scales with the slice length
    # (horizon/200), so sparse soak traffic with multi-second arrival
    # gaps is already tolerated; faults get their usual grace on top.
    return Scenario(name, fabric, build_flows,
                    config=config, max_time=horizon,
                    faults=faults, event_budget=event_budget, hybrid=hybrid)


# ---------------------------------------------------------------------------
# lossless Ethernet (RoCEv2-style) scenarios
# ---------------------------------------------------------------------------


def lossless_fabric(**overrides) -> Callable[[], Topology]:
    """The scaled leaf-spine tuned for lossless operation.

    ECN thresholds are pulled below the PFC XOFF point so DCQCN/HPCC see
    congestion marks before any PAUSE fires — PFC is the backstop, not
    the congestion signal, exactly as RoCEv2 deployments tune it.
    """
    params = dict(qcfg=sim_qcfg(k_high=SIM_LOSSLESS_K_HIGH,
                                k_low=SIM_LOSSLESS_K_LOW))
    params.update(overrides)
    return sim_fabric(**params)


def lossless_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    n_senders: int = 12,
    load: float = 0.6,
    n_flows: int = 120,
    seed: int = 11,
    max_time: float = 20.0,
    lb: str = "ecmp",
    lb_gap: Optional[float] = None,
    pfc_config: Optional[PfcConfig] = None,
    faults: Optional[FaultPlan] = None,
    **overrides,
) -> Scenario:
    """RoCEv2-style incast on a PFC-enabled leaf-spine.

    The sender set spans two leaves (12 senders > 7 same-leaf peers of
    the receiver), so pauses propagate leaf -> spine -> leaf and the
    lossless guarantee is exercised across the core, not just on one
    edge queue.  Pair with DCQCN or HPCC, the schemes designed for this
    fabric.
    """
    return incast_scenario(
        name, cdf, n_senders=n_senders, load=load, n_flows=n_flows,
        fabric=lossless_fabric(), seed=seed, max_time=max_time,
        lb=lb, lb_gap=lb_gap, pfc=True,
        pfc_config=pfc_config or SIM_PFC, faults=faults, **overrides)


def pfc_storm_scenario(
    name: str,
    cdf: EmpiricalCdf = WEB_SEARCH,
    *,
    storm_port: str = "leaf0->host0",
    storm_start: float = 0.002,
    storm_duration: float = 0.004,
    priority: int = 0,
    **overrides,
) -> Scenario:
    """A lossless incast with a malfunctioning-NIC PFC storm layered on.

    The storm jams ``storm_port`` (the victim receiver's downlink) in
    the paused state; the leaf's shared buffer backs up, the leaf pauses
    its own ingress — spine downlinks included — and head-of-line
    blocking cascades fabric-wide until the window closes.  This is the
    classic PFC failure mode (RoCEv2 deployment papers' motivating
    incident) and the reason `repro.faults` grew a pause injector.
    """
    plan = FaultPlan([PfcStorm(storm_port, storm_start, storm_duration,
                               priority=priority)])
    return lossless_scenario(name, cdf, faults=plan, **overrides)


# ---------------------------------------------------------------------------
# scheme parameter helpers (paper settings)
# ---------------------------------------------------------------------------

HOMA_RTT_BYTES_SIM = 45_000       # §6.2: 45KB for the 40/100G fabric
HOMA_RTT_BYTES_TESTBED = 50_000   # §6.1: 50KB on the testbed
HOMA_OVERCOMMIT = 2               # both


def testbed_params() -> List[dict]:
    """Table 3 rows."""
    return [
        {"parameter": "Switch buffer size", "setting": "50MB (925KB/port)"},
        {"parameter": "Switch port number", "setting": "54"},
        {"parameter": "RTT", "setting": "80us"},
        {"parameter": "RTO_min", "setting": "10ms"},
        {"parameter": "RTTbytes for Homa", "setting": "50KB"},
        {"parameter": "Overcommitment degree for Homa", "setting": "2"},
        {"parameter": "DCTCP's ECN threshold", "setting": "100KB"},
        {"parameter": "HCP's ECN threshold", "setting": "100KB"},
        {"parameter": "LCP's ECN threshold", "setting": "80KB"},
        {"parameter": "Identification threshold", "setting": "100KB"},
    ]
