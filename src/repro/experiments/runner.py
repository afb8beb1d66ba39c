"""Experiment harness: run one scheme over one scenario, collect results.

A :class:`Scenario` bundles a topology factory, a flow list factory, a
transport config and (optionally) a :class:`~repro.faults.FaultPlan`;
:func:`run` builds a fresh fabric, lets the scheme configure it
(trimming, spraying, selective drop), applies the fault plan, schedules
every flow's start, drains the simulator under a run-health watchdog and
returns a :class:`RunResult` with FCT statistics, a structured
:class:`RunHealth` (completion rate, retransmit/RTO counts, stall
diagnosis, active faults) and the live network for deeper inspection.

The watchdog replaces the old silent spin-to-``max_time``: it stops as
soon as the event heap empties (nothing can ever make progress again),
enforces an optional per-run event budget, and detects stalls — no new
completions *and* no new deliveries across a sliding window — while
giving fault windows (plus an RTO-cap-sized grace period) the benefit of
the doubt, since riding out a fault is precisely what transports are
being tested on.

Because every piece of randomness is seeded, running the same scenario
twice gives identical flows and identical packet-level behaviour — which
is what makes the two-pass *hypothetical DCTCP* construction
(:func:`two_pass`) meaningful.
"""

from __future__ import annotations

import functools
import gc
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..core.hypothetical import HypotheticalDctcp, MwRecordingDctcp
from ..faults.plan import ActiveFaults, FaultPlan
from ..metrics.fct import FctStats
from ..obs.hooks import chain
from ..obs.telemetry import Telemetry
from ..resilience.checkpoint import (
    CheckpointError,
    RunState,
    load_checkpoint,
    save_checkpoint,
)
from ..sim.hybrid import HybridConfig, HybridController
from ..sim.network import Network
from ..sim.topology import Topology
from ..transport.base import Flow, Scheme, TransportConfig, TransportContext
from ..validate import RunAuditor, ValidationReport
from ..workloads.streams import FlowStream


@dataclass
class Scenario:
    """A reproducible experiment setup.

    ``build_topology`` returns a fresh :class:`Topology` (with its own
    simulator);  ``build_flows`` receives that topology and returns
    either a flow **list** or a :class:`~repro.workloads.FlowStream`
    (so patterns can reference real host ids and rates).  A list is
    scheduled up front; a stream is pulled lazily — one look-ahead flow
    at a time — so memory stays flat regardless of flow count, and for
    the same seed the streamed run is bit-identical to the materialized
    one (see ``docs/workloads.md``).  ``faults`` re-runs the identical
    workload under a deterministic fault schedule; ``event_budget``
    bounds runaway runs.
    """

    name: str
    build_topology: Callable[[], Topology]
    build_flows: Callable[[Topology], Union[List[Flow], FlowStream]]
    config: TransportConfig = field(default_factory=TransportConfig)
    max_time: float = 10.0  # simulated-seconds safety stop
    faults: Optional[FaultPlan] = None
    event_budget: Optional[int] = None  # max simulator events per run
    stall_slices: int = 40  # watchdog window, in drain slices
    # hybrid flow-level fast path (repro.sim.hybrid); None — or a config
    # with enabled=False — takes the identical code path as before the
    # feature existed (bit-identity gated by the validate matrix)
    hybrid: Optional[HybridConfig] = None

    def describe(self) -> str:
        return self.name


@dataclass
class RunHealth:
    """Structured diagnosis of how (and whether) a run finished.

    Replaces the old silent timeout: every :class:`RunResult` carries
    one of these, so a partial ``FctStats`` always comes with the *why*
    — stalled behind a dead link, out of event budget, or simply still
    progressing at ``max_time``.
    """

    n_flows: int = 0
    completed: int = 0
    stalled: bool = False
    stall_time: Optional[float] = None
    stall_reason: Optional[str] = None
    dead_links: List[str] = field(default_factory=list)
    faults_active_at_stall: List[str] = field(default_factory=list)
    fault_windows: List[str] = field(default_factory=list)
    fault_drops: int = 0
    corrupted_pkts: int = 0
    retransmits_total: int = 0
    rtos_total: int = 0
    retransmits_by_flow: Dict[int, int] = field(default_factory=dict)
    event_budget_exceeded: bool = False
    events_run: int = 0
    sim_time: float = 0.0
    # live (non-cancelled) events still pending when the drain stopped —
    # the engine's raw heap length also counts lazily-deleted timers, so
    # diagnostics use Simulator.live_pending instead
    live_pending: int = 0
    # high-water mark of raw heap entries over the run (memory pressure;
    # the one-head-event wire keeps this flat under incast)
    peak_pending: int = 0

    @property
    def completion_rate(self) -> float:
        return self.completed / max(1, self.n_flows)

    @property
    def ok(self) -> bool:
        """All flows completed without stalling or budget exhaustion."""
        return (self.completed == self.n_flows and not self.stalled
                and not self.event_budget_exceeded)

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.n_flows} flows",
                 f"{self.retransmits_total} rtx", f"{self.rtos_total} RTOs"]
        if self.fault_windows:
            parts.append(f"{len(self.fault_windows)} fault window(s), "
                         f"{self.fault_drops} fault drops")
        if self.stalled:
            parts.append(f"STALLED @ {self.stall_time:.6g}s: "
                         f"{self.stall_reason}")
        if self.event_budget_exceeded:
            parts.append("event budget exceeded")
        return "; ".join(parts)


@dataclass
class RunResult:
    scheme_name: str
    scenario_name: str
    flows: List[Flow]
    stats: FctStats
    topology: Topology
    ctx: TransportContext
    wall_events: int
    health: RunHealth = field(default_factory=RunHealth)
    # The run's Telemetry (event trace + counter snapshots + profile)
    # when ``run(..., observe=...)`` asked for one; None otherwise.
    telemetry: Optional[Telemetry] = None
    # The invariant auditor's report when ``run(..., validate=...)``
    # asked for one; None otherwise.
    validation: Optional[ValidationReport] = None

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed)

    @property
    def completion_rate(self) -> float:
        return self.completed / max(1, len(self.flows))

    def summary(self) -> str:
        return (f"[{self.scheme_name} @ {self.scenario_name}] "
                f"{self.completed}/{len(self.flows)} flows, {self.stats}")


def _progress_signature(ctx: TransportContext, network: Network) -> tuple:
    """Snapshot of forward progress: completions, every endpoint's
    delivered-packet count (senders and receivers both keep ``delivered``
    sets; receiver-driven schemes' per-message state counts through the
    same attribute) and the number of registered endpoints (so a newly
    started flow counts as progress).  If this is unchanged across the
    watchdog window, nothing useful is happening — retransmit storms and
    idling RTO timers keep the heap warm but do not move it."""
    delivered = 0
    endpoints = 0
    for host in network.hosts.values():
        endpoints += len(host.endpoints)
        for endpoint in host.endpoints.values():
            # try/except instead of getattr(..., None): nearly every
            # endpoint has ``delivered``, and a caught attribute miss
            # is the rare path — this runs once per endpoint per slice
            try:
                delivered += len(endpoint.delivered)
            except AttributeError:
                pass
    hybrid = ctx.extra.get("hybrid")
    if hybrid is not None:
        # analytic progress has no packets for the counters above to
        # see: fold in the controller's projected-delivery probe so an
        # hours-long abstract epoch never reads as a stall
        return (len(ctx.completed), delivered, endpoints,
                hybrid.progress_probe(network.sim.now))
    return (len(ctx.completed), delivered, endpoints)


def _collect_flow_counters(network: Network, health: RunHealth) -> None:
    """Harvest retransmit/RTO counters from live transport endpoints."""
    seen = set()
    for host in network.hosts.values():
        for flow_id, endpoint in host.endpoints.items():
            if id(endpoint) in seen:
                continue
            seen.add(id(endpoint))
            rtx = getattr(endpoint, "pkts_retransmitted", None)
            if rtx is None:
                continue
            health.retransmits_by_flow[flow_id] = (
                health.retransmits_by_flow.get(flow_id, 0) + rtx)
            health.retransmits_total += rtx
            health.rtos_total += getattr(endpoint, "rtos_fired", 0)


def _resolve_observe(observe: Union[None, bool, Telemetry]) -> Optional[Telemetry]:
    """``observe=`` accepts False/None (off), True (fresh default
    Telemetry) or a preconfigured :class:`~repro.obs.Telemetry`."""
    if observe is None or observe is False:
        return None
    if observe is True:
        return Telemetry()
    if isinstance(observe, Telemetry):
        return observe
    raise TypeError(f"observe must be bool or Telemetry, got {observe!r}")


def _resolve_validate(
        validate: Union[None, bool, str, RunAuditor]) -> Optional[RunAuditor]:
    """``validate=`` accepts False/None (off), True (audit mode),
    ``"strict"`` (raise on first violation) or a preconfigured
    :class:`~repro.validate.RunAuditor`."""
    if validate is None or validate is False:
        return None
    if validate is True:
        return RunAuditor()
    if validate == "strict":
        return RunAuditor(strict=True)
    if isinstance(validate, RunAuditor):
        return validate
    raise TypeError(
        f"validate must be bool, 'strict' or RunAuditor, got {validate!r}")


def _observed_start(scheme: Scheme, flow: Flow, ctx: TransportContext,
                    telemetry: Telemetry) -> None:
    telemetry.on_flow_start(flow)
    scheme.start_flow(flow, ctx)


class _FlowStarts:
    """Adapts a :class:`~repro.workloads.FlowStream` into the
    ``(time, fn, args)`` entries a lazy chain consumes.

    Every pulled flow is appended to ``sink`` — the run's shared
    ``flows`` list — so results, telemetry and the stall watchdog see
    exactly the flows that have entered the simulation.  A plain class
    (not a generator) because the chain pickles into checkpoints and
    generators do not survive ``pickle``.
    """

    def __init__(self, stream: FlowStream, sink: List[Flow],
                 fn: Callable, extra_args: tuple) -> None:
        self._stream = iter(stream)
        self._sink = sink
        self._fn = fn
        self._extra = extra_args

    def __iter__(self) -> "_FlowStarts":
        return self

    def __next__(self) -> tuple:
        flow = next(self._stream)
        self._sink.append(flow)
        return (flow.start_time, self._fn, (flow,) + self._extra)


def _stop_instruments(obj) -> None:
    """Recursively ``stop()`` whatever an ``instruments`` callback (or a
    figure driver) hung onto: a sampler, or any nesting of
    lists/tuples/dicts of them.  Objects without ``stop`` are ignored."""
    if obj is None:
        return
    if isinstance(obj, (list, tuple, set)):
        for item in obj:
            _stop_instruments(item)
        return
    if isinstance(obj, dict):
        for item in obj.values():
            _stop_instruments(item)
        return
    stop = getattr(obj, "stop", None)
    if callable(stop):
        stop()


def run(
    scheme: Optional[Scheme] = None,
    scenario: Optional[Scenario] = None,
    *,
    instruments: Optional[Callable[[Topology], object]] = None,
    observe: Union[None, bool, Telemetry] = None,
    validate: Union[None, bool, str, RunAuditor] = None,
    checkpoint_every: Optional[float] = None,
    checkpoint_path=None,
    resume: Union[None, str, RunState] = None,
) -> RunResult:
    """Execute ``scheme`` on ``scenario``; returns results when all flows
    finish or the watchdog stops the run (stall, event budget, heap
    exhaustion, ``max_time``).

    ``observe`` opts the run into :mod:`repro.obs` telemetry: ``True``
    builds a default :class:`~repro.obs.Telemetry`, or pass your own
    (e.g. with a larger ring capacity).  The finalized object lands on
    ``result.telemetry``.  When off (the default) every hook site stays
    ``None`` and the run is bit-identical to an unobserved one.

    ``instruments`` (the older, narrower mechanism ``observe`` subsumes)
    may attach samplers to the freshly built topology before any flow
    starts; whatever it returns is stored on the result's
    ``ctx.extra['instruments']`` and stopped at drain end.

    ``validate`` opts the run into the :mod:`repro.validate` invariant
    auditor: ``True`` audits (violations land on ``result.validation``),
    ``"strict"`` raises :class:`~repro.validate.InvariantViolation` at
    the first broken law, or pass a preconfigured
    :class:`~repro.validate.RunAuditor`.  The auditor only reads state,
    so a validated run is bit-identical to a bare one.

    ``checkpoint_every`` + ``checkpoint_path`` write a
    :mod:`repro.resilience` snapshot of the whole run every that many
    *simulated* seconds (atomic replace — the file always holds the
    newest complete snapshot).  Snapshotting only reads state, so a
    checkpointed run stays bit-identical to an uncheckpointed one.

    ``resume`` restores such a snapshot (a path or a loaded
    :class:`~repro.resilience.RunState`) and finishes the run from
    where it stopped; the result is bit-identical to a run that never
    stopped.  ``scheme``/``scenario`` may be omitted when resuming —
    when given, their names are checked against the checkpoint.
    ``observe``/``validate``/``instruments`` travel inside the snapshot
    and must not be re-passed.
    """
    if resume is not None:
        if observe not in (None, False) or validate not in (None, False) \
                or instruments is not None:
            raise ValueError(
                "observe/validate/instruments are baked into the checkpoint; "
                "do not pass them together with resume=")
        state = resume if isinstance(resume, RunState) \
            else load_checkpoint(resume)
        if scheme is not None and scheme.name != state.scheme_name:
            raise CheckpointError(
                f"checkpoint was taken for scheme {state.scheme_name!r}, "
                f"cannot resume it as {scheme.name!r}")
        if scenario is not None and scenario.name != state.scenario_name:
            raise CheckpointError(
                f"checkpoint was taken for scenario {state.scenario_name!r}, "
                f"cannot resume it as {scenario.name!r}")
        if state.auditor is not None:
            # certify the restored engine before trusting it with the
            # rest of the run
            state.auditor.on_restore()
        return _finish_run(state, checkpoint_every, checkpoint_path)

    if scheme is None or scenario is None:
        raise TypeError("run() needs scheme and scenario unless resume= "
                        "restores them from a checkpoint")
    telemetry = _resolve_observe(observe)
    auditor = _resolve_validate(validate)
    hybrid_ctl: Optional[HybridController] = None
    if scenario.hybrid is not None and scenario.hybrid.enabled:
        # wrap the scheme: large flows are intercepted at start_flow and
        # advanced analytically; everything else passes straight through
        # to the packet model.  hybrid=None (or enabled=False) skips the
        # wrapper entirely, keeping the bare path bit-identical.
        hybrid_ctl = HybridController(scheme, scenario.hybrid)
        scheme = hybrid_ctl
    topo = scenario.build_topology()
    scheme.configure_network(topo.network)
    faults: Optional[ActiveFaults] = None
    if scenario.faults is not None:
        faults = scenario.faults.apply(topo.network, topo.sim)
        if hybrid_ctl is not None:
            # fault transitions are congestion epochs: bank abstract
            # progress, then let the contended-port sweep demote flows
            # crossing the chained/downed link
            for injector in faults.link_injectors:
                injector.transition_hook = chain(
                    injector.transition_hook, hybrid_ctl.on_fault_transition)
    flow_source = scenario.build_flows(topo)
    if isinstance(flow_source, FlowStream):
        stream, flows = flow_source, []
        total_flows = stream.n_flows
    else:
        stream, flows = None, flow_source
        total_flows = len(flows)
    on_complete = None
    if telemetry is not None:
        telemetry.attach(topo.sim, topo.network, faults)
        on_complete = telemetry.on_flow_complete
    ctx = TransportContext(topo.sim, topo.network, scenario.config,
                           on_complete=on_complete)
    ctx.telemetry = telemetry
    if auditor is not None:
        auditor.attach(topo.sim, topo.network, ctx)
    if faults is not None:
        ctx.extra["faults"] = faults
    if instruments is not None:
        ctx.extra["instruments"] = instruments(topo)

    # One chain entry per flow start instead of one heap event each:
    # the seq block is reserved up front, so firing order is
    # bit-identical to a schedule_at loop while the heap holds a single
    # entry for the whole start schedule.  A FlowStream is pulled one
    # look-ahead at a time, so its start schedule never materializes; a
    # list is stable-sorted by start time first (the chain needs time
    # order, and equal start times keep their list order).
    if telemetry is None:
        start_fn, extra = scheme.start_flow, (ctx,)
    else:
        start_fn = functools.partial(_observed_start, scheme)
        extra = (ctx, telemetry)
    if stream is not None:
        starts = _FlowStarts(stream, flows, start_fn, extra)
    else:
        starts = [(flow.start_time, start_fn, (flow,) + extra)
                  for flow in sorted(flows, key=lambda f: f.start_time)]
    topo.sim.schedule_lazy_chain(starts, count=total_flows)

    state = RunState(
        scheme_name=scheme.name,
        scenario_name=scenario.name,
        topo=topo, ctx=ctx, flows=flows, faults=faults,
        telemetry=telemetry, auditor=auditor, hybrid=hybrid_ctl,
        max_time=scenario.max_time,
        stall_slices=scenario.stall_slices,
        event_budget=scenario.event_budget,
        max_rto=getattr(scenario.config, "max_rto", 0.25),
        total_flows=total_flows,
    )
    return _finish_run(state, checkpoint_every, checkpoint_path)


def _finish_run(state: RunState, checkpoint_every: Optional[float],
                checkpoint_path) -> RunResult:
    """Drain (or keep draining) a run described by ``state`` and build
    the result.  Shared by the fresh and resumed paths — which is
    exactly why a resumed run cannot diverge from a straight-through
    one after the restore point."""
    topo, ctx, flows = state.topo, state.ctx, state.flows
    telemetry, auditor = state.telemetry, state.auditor
    health = _drain(state, checkpoint_every, checkpoint_path)
    _collect_flow_counters(topo.network, health)
    _stop_instruments(ctx.extra.get("instruments"))
    if telemetry is not None:
        telemetry.finalize(topo.network, flows)
    validation = auditor.finalize(flows) if auditor is not None else None

    stats = FctStats.from_flows(flows)
    return RunResult(
        scheme_name=state.scheme_name,
        scenario_name=state.scenario_name,
        flows=flows,
        stats=stats,
        topology=topo,
        ctx=ctx,
        wall_events=topo.sim.events_run,
        health=health,
        telemetry=telemetry,
        validation=validation,
    )


def _drain(state: RunState, checkpoint_every: Optional[float] = None,
           checkpoint_path=None) -> RunHealth:
    """Drain the simulator in slices under the run-health watchdog.

    The loop's position lives on ``state`` (slice clock, watchdog
    progress signature, checkpoint cadence), so a snapshot taken at any
    slice boundary resumes mid-loop with nothing lost.  Checkpoints are
    written at the *end* of an iteration — after the budget, heap and
    watchdog checks — so a restored run re-enters cleanly at the top of
    the next iteration.
    """
    sim, ctx, flows = state.sim, state.ctx, state.flows
    faults, network = state.faults, state.topo.network
    telemetry, auditor = state.telemetry, state.auditor
    # total_flows is the run's target: len(flows) for a materialized
    # list, the stream's declared total for a streamed run (where
    # ``flows`` only holds what has been pulled so far), or None for an
    # unbounded stream — which can only end at max_time or heap
    # exhaustion, so its target is infinite and its reported n_flows is
    # whatever was pulled.
    total = state.total_flows if state.total_flows is not None \
        else len(flows)
    target = state.total_flows if state.total_flows is not None \
        else float("inf")
    health = RunHealth(n_flows=total)
    if faults is not None:
        health.fault_windows = faults.describe_windows()

    # Drain in slices so we can stop as soon as everything completes
    # (RTO timers would otherwise keep the heap warm until max_time).
    slice_len = max(state.max_time / 200.0, 1e-4)
    max_rto = state.max_rto
    # The watchdog never cries stall before the transport had a chance
    # to recover: at least `stall_slices` quiet slices AND a few backed-
    # off RTOs' worth of quiet time.
    stall_window = max(state.stall_slices * slice_len, 4.0 * max_rto)
    grace = 2.0 * max_rto
    checkpointing = (checkpoint_every is not None
                     and checkpoint_path is not None)

    heap_empty = False
    watchdog_tripped = False
    # Hold GC off across the whole drain, not per slice: the nested
    # Simulator.run() guard sees GC already disabled and leaves it
    # alone, so the gen-0 pool isn't collected at every slice boundary.
    # The hot path creates no reference cycles, so deferring collection
    # to the end of the drain is safe.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        while len(ctx.completed) < target and state.t < state.max_time:
            # clamp the final slice: ``t`` stepping past ``max_time``
            # would let the run simulate (and bill) up to one slice
            # beyond the scenario's stated horizon
            state.t = min(state.t + slice_len, state.max_time)
            t = state.t
            max_events = None
            if state.event_budget is not None:
                remaining = state.event_budget - sim.events_run
                if remaining <= 0:
                    health.event_budget_exceeded = True
                    break
                max_events = remaining
            if telemetry is None:
                sim.run(until=t, max_events=max_events)
            else:
                wall_start = _time.perf_counter()
                executed = sim.run(until=t, max_events=max_events)
                telemetry.record_slice(t, executed,
                                       _time.perf_counter() - wall_start)
            # drop lazily-cancelled timers wholesale so a run's peak
            # heap size reflects live work, not RTO corpses (pop order
            # depends only on the (time, seq) keys, so this cannot
            # change behaviour)
            sim.sweep()
            if auditor is not None:
                auditor.on_slice()
            if (state.event_budget is not None
                    and sim.events_run >= state.event_budget):
                health.event_budget_exceeded = True
                break
            if sim.peek_time() is None:
                # Event heap exhausted: nothing can ever happen again,
                # so idling through empty slices until max_time is
                # pointless.
                heap_empty = True
                break
            signature = _progress_signature(ctx, network)
            if signature != state.last_signature:
                state.last_signature = signature
                state.last_progress_t = t
            elif (t - state.last_progress_t >= stall_window
                  and (faults is None
                       or not faults.any_active_or_recent(sim.now, grace))
                  and any(f.start_time <= sim.now and not f.completed
                          for f in flows)):
                # a quiet fabric is only a stall if some *started* flow
                # is stuck — waiting for a sparse arrival schedule is
                # not
                watchdog_tripped = True
                break
            if checkpointing and t - state.last_checkpoint_t \
                    >= checkpoint_every * (1.0 - 1e-12):
                state.last_checkpoint_t = t
                state.checkpoints_taken += 1
                save_checkpoint(state, checkpoint_path)
    finally:
        if gc_was_enabled:
            gc.enable()

    health.completed = len(ctx.completed)
    health.events_run = sim.events_run
    health.sim_time = sim.now
    health.live_pending = sim.live_pending
    health.peak_pending = sim.peak_pending
    if state.total_flows is None:
        # unbounded stream: report against what actually entered the run
        health.n_flows = len(flows)

    if health.completed < health.n_flows \
            and not health.event_budget_exceeded:
        quiet_for = state.t - state.last_progress_t
        if heap_empty:
            health.stalled = True
            health.stall_time = sim.now
            health.stall_reason = (
                f"event heap empty with "
                f"{health.n_flows - health.completed} flow(s) incomplete")
        elif watchdog_tripped or (
                quiet_for >= stall_window
                and any(f.start_time <= sim.now and not f.completed
                        for f in flows)):
            health.stalled = True
            health.stall_time = sim.now
            dead = faults.down_links() if faults is not None else []
            health.dead_links = dead
            if faults is not None:
                health.faults_active_at_stall = faults.active_faults()
            if dead:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; "
                    f"link(s) down: {', '.join(dead)}")
            elif health.faults_active_at_stall:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; active faults: "
                    f"{'; '.join(health.faults_active_at_stall)}")
            else:
                health.stall_reason = (
                    f"no progress for {quiet_for:.6g}s; no faults active; "
                    f"{health.live_pending} live event(s) pending")
        else:
            health.stall_reason = "max_time reached while still progressing"

    if faults is not None:
        health.fault_drops = faults.pkts_dropped
        health.corrupted_pkts = faults.pkts_corrupted
    return health


def run_all(
    schemes: List[Scheme],
    scenario: Scenario,
) -> Dict[str, RunResult]:
    """Run several schemes on (fresh builds of) the same scenario."""
    return {scheme.name: run(scheme, scenario) for scheme in schemes}


def two_pass(
    scenario: Scenario,
    fill_factor: float = 1.0,
) -> Tuple[RunResult, RunResult]:
    """The hypothetical-DCTCP construction (§2.3).

    Pass one runs default DCTCP recording each flow's maximum window;
    pass two replays the identical scenario with the oracle gap filler.
    Returns ``(baseline_result, hypothetical_result)``.
    """
    recorder = MwRecordingDctcp()
    baseline = run(recorder, scenario)
    hypothetical = HypotheticalDctcp(recorder.mw_table, fill_factor)
    filled = run(hypothetical, scenario)
    return baseline, filled


def format_table(rows: List[dict], columns: Optional[List[str]] = None) -> str:
    """Plain-text table used by the benchmark harness output."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        line = []
        for c in columns:
            value = row.get(c, "")
            if isinstance(value, float):
                text = f"{value:.3f}"
            else:
                text = str(value)
            widths[c] = max(widths[c], len(text))
            line.append(text)
        rendered.append(line)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    sep = "  ".join("-" * widths[c] for c in columns)
    body = "\n".join(
        "  ".join(cell.ljust(widths[c]) for cell, c in zip(line, columns))
        for line in rendered
    )
    return f"{header}\n{sep}\n{body}"
