"""Run one workload: the measured pass, the traced pass and their checks.

Measured pass (``--trace 0``): every sub-batch once under every scheme —
the simulated metrics pool these runs, so they are fixed by the seed —
then sub-batches again in order while the run's time allows, each repeat
checked to reproduce its first FCTs bit for bit.  ``flows_per_s`` is
the completed flows of one pass over every flow set and scheme, over the
host seconds that pass takes, each run timed as the median of its
repeats; ``setup_s`` is the median set-up of one run, over every run's
own set-up and ``SETUP_REPEATS`` standalone set-ups after each.  Both
host times are in seconds at the reference speed: each run is bracketed
by :func:`speed.probe`, and its host seconds are scaled by
``REFERENCE_S`` over the mean of the two probes (see :mod:`speed`).

Traced pass (``--trace 1``): the first ``trace_sub_batches`` sub-batches,
each run untraced and then traced (:mod:`spans`); the traced FCTs must
equal the untraced ones.  A sharded workload also runs each flow set
serially, untraced and traced: the speed-up and FCT mismatch against
serial come from those runs, and so do the layers that execute inside
the forked shard workers, which the parent cannot see.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments import distributed, runner
from repro.metrics.fct import SMALL_FLOW_BYTES, percentile
from repro.metrics.slowdown import ideal_fct
from repro.transport.window import WindowSender

from spans import Tracer, installed_wrappers
from speed import REFERENCE_S, probe
from workloads import SCHEMES, Workload, sub_seed

END_TO_END = {
    "setup_s": "s",
    "flows_per_s": "flows/s",
    "peak_rss_mb": "MiB",
    "flows_completed_frac": "fraction",
    "ppt_small_tail_slowdown": "x",
    "ppt_large_mean_slowdown": "x",
    "ppt_vs_dctcp_mean_fct": "ratio",
}

PER_LAYER = {
    "engine.events": "count",
    "engine.peak_pending": "count",
    "engine.self_ns_per_event": "ns",
    "link.pkts": "count",
    "link.self_ns_per_pkt": "ns",
    "queues.enqueues": "count",
    "queues.drops": "count",
    "queues.marks": "count",
    "queues.self_ns_per_enqueue": "ns",
    "switch.forwards": "count",
    "switch.self_ns_per_forward": "ns",
    "transport.calls": "count",
    "transport.self_ns_per_call": "ns",
    "transport.retransmits": "count",
    "transport.rtos": "count",
    "transport.goodput_frac": "fraction",
    "workloads.flows": "count",
    "workloads.gen_s": "s",
    "topology.build_s": "s",
    "topology.ports": "count",
    "runner.self_s": "s",
    "obs.self_s": "s",
    "validate.self_s": "s",
    "validate.violations": "count",
    "faults.drops": "count",
    "faults.self_s": "s",
    "resilience.checkpoints": "count",
    "resilience.save_s": "s",
    "resilience.bytes": "B",
    "shard.rounds": "count",
    "shard.events_per_round": "count",
    "shard.imbalance": "ratio",
    "shard.handoffs": "count",
    "shard.inert_drops": "count",
    "shard.speedup_vs_serial": "ratio",
    "shard.fct_mismatch_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


class SetupTimer:
    """Accumulates host time spent inside the set-up callables it wraps."""

    def __init__(self) -> None:
        self.seconds = 0.0
        # first value each named callable returned (in a forked run:
        # the parent's reference topology and flow list)
        self.first: Dict[str, object] = {}

    def wrap(self, fn: Callable, name: str = "") -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start
            if name:
                self.first.setdefault(name, value)
            return value
        return timed


@contextlib.contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]):
    """Temporarily replace ``owner.attr`` (own or inherited) with
    ``make(current)``."""
    own = attr in vars(owner)
    current = getattr(owner, attr)
    setattr(owner, attr, make(current))
    try:
        yield
    finally:
        if own:
            setattr(owner, attr, current)
        else:
            delattr(owner, attr)


# standalone set-ups after each measured run, so the set-up median rests
# on many samples; set-up is milliseconds against seconds of drain
SETUP_REPEATS = 8


@dataclass
class Execution:
    """One scheme's run of one sub-batch, reduced to what the metrics need."""

    sub: int
    scheme: str
    wall: float
    setup: float
    n_flows: int
    completed: int
    fcts: Dict[int, Optional[float]]
    failed: List[str]
    small: List[float] = field(default_factory=list)
    large: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    # reference seconds per host second around this run (measured pass)
    speed: float = 1.0

    @property
    def flows_failed(self) -> int:
        return self.n_flows if self.failed else self.n_flows - self.completed


def _slowdowns(flows, network):
    small, large = [], []
    for flow in flows:
        if flow.fct is None:
            continue
        slowdown = max(1.0, flow.fct / ideal_fct(flow, network))
        (small if flow.size <= SMALL_FLOW_BYTES else large).append(slowdown)
    return small, large


def _serial_counters(result) -> Dict[str, float]:
    net = result.topology.network
    health = result.health
    sent = unique = 0
    for host in net.hosts.values():
        for endpoint in host.endpoints.values():
            if isinstance(endpoint, WindowSender):
                sent += endpoint.pkts_transmitted
                unique += len(endpoint.delivered)
    stats = [port.mux.stats for port in net.ports]
    return {
        "events": health.events_run,
        "peak_pending": health.peak_pending,
        "pkts": sum(port.pkts_sent for port in net.ports),
        "enqueues": sum(s.offered for s in stats),
        "drops": sum(s.dropped for s in stats),
        "marks": sum(s.marked for s in stats),
        "forwards": sum(sw.pkts_forwarded for sw in net.switches),
        "retransmits": health.retransmits_total,
        "rtos": health.rtos_total,
        "data_sent": sent,
        "data_unique": unique,
        "ports": len(net.ports),
        "violations": (result.validation.violations_seen
                       if result.validation is not None else 0),
        "fault_drops": health.fault_drops,
        "flows": health.n_flows,
    }


def _shard_counters(result) -> Dict[str, float]:
    shards = result.shards
    events = [s.events_run for s in shards]
    return {
        "rounds": max(s.rounds for s in shards),
        "events": sum(events),
        "imbalance": max(events) / statistics.fmean(events),
        "handoffs": sum(pkts for s in shards
                        for pkts, _bytes in s.ledger["exported_to"].values()),
        "inert_drops": sum(s.ledger["inert_drops"] for s in shards),
    }


def execute(workload: Workload, sub: int, scheme_name: str, seed: int,
            workdir: Path, *, reduced: bool = False,
            tracer: Optional[Tracer] = None,
            serial: bool = False) -> Execution:
    """Run sub-batch ``sub`` under one scheme and check the outcome."""
    # start from a clean heap, so no collection of the previous run's
    # garbage lands in this run's set-up or drain
    gc.collect()
    timer = SetupTimer()
    span = tracer.wrap if tracer is not None else (lambda _layer, fn: fn)
    scenario = workload.scenario(sub_seed(seed, sub), reduced)
    scenario = dataclasses.replace(
        scenario,
        build_topology=timer.wrap(span("topology", scenario.build_topology),
                                  "topology"),
        build_flows=timer.wrap(span("workloads", scenario.build_flows),
                               "flows"))
    scheme = SCHEMES[scheme_name]()
    sharded = workload.shards > 0 and not serial
    options = {}
    if workload.validate is not None:
        options["validate"] = workload.validate
    if workload.observe:
        options["observe"] = True
    if workload.checkpoints:
        options["checkpoint_every"] = scenario.max_time / workload.checkpoints
        options["checkpoint_path"] = str(workdir / f"{scheme_name}.ckpt")
    call = distributed.run_sharded if sharded else runner.run
    if tracer is not None:
        call = tracer.wrap("shard" if sharded else "runner", call)
    args = (workload.shards,) if sharded else ()
    failed: List[str] = []
    result = None
    start = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(patched(
                type(scheme), "configure_network",
                lambda fn: timer.wrap(span("transport", fn))))
            if sharded:
                stack.enter_context(patched(distributed, "plan_shards",
                                            timer.wrap))
            result = call(scheme, scenario, *args, **options)
    except Exception as exc:  # noqa: BLE001 - a failed run is a failed check
        failed.append(f"run-completes ({exc.__class__.__name__}: {exc})")
    wall = time.perf_counter() - start
    if result is None:
        flows = timer.first.get("flows")
        offered = len(flows) if isinstance(flows, list) else getattr(
            flows, "n_flows", 1)
        return Execution(sub, scheme_name, wall, timer.seconds, offered, 0,
                         {}, failed)

    health = result.health
    if not (health.completed == health.n_flows and not health.stalled
            and not health.event_budget_exceeded):
        failed.append(f"all-flows-complete ({health.summary()})")
    if workload.validate is not None and (
            result.validation is None or not result.validation.ok):
        failed.append("strict-auditor-clean")
    if sharded and not result.conservation_ok:
        failed.append("shard-conservation")
    network = (timer.first["topology"].network if sharded
               else result.topology.network)
    small, large = _slowdowns(result.flows, network)
    execution = Execution(
        sub, scheme_name, wall, timer.seconds, health.n_flows,
        health.completed, {f.flow_id: f.fct for f in result.flows}, failed,
        small, large)
    if tracer is not None:
        execution.counters = (_shard_counters(result) if sharded
                              else _serial_counters(result))
    return execution


def setup_samples(workload: Workload, sub: int, scheme_name: str,
                  seed: int, reduced: bool = False) -> List[float]:
    """Host seconds of ``SETUP_REPEATS`` set-ups done outside ``run()``:
    the same callables the run calls before its drain."""
    scenario = workload.scenario(sub_seed(seed, sub), reduced)
    samples = []
    for _ in range(SETUP_REPEATS):
        scheme = SCHEMES[scheme_name]()
        start = time.perf_counter()
        topo = scenario.build_topology()
        scheme.configure_network(topo.network)
        if workload.shards:
            distributed.plan_shards(topo, workload.shards)
        scenario.build_flows(topo)
        samples.append(time.perf_counter() - start)
    return samples


def _compare(first: Execution, again: Execution, check: str) -> None:
    if again.fcts != first.fcts and not first.failed:
        again.failed.append(check)


def fct_digest(executions: List[Execution]) -> str:
    """Hash of every (scheme, sub-batch, flow, FCT) of the measured pass."""
    h = hashlib.sha256()
    for ex in sorted(executions, key=lambda e: (e.scheme, e.sub)):
        for flow_id in sorted(ex.fcts):
            h.update(f"{ex.scheme}/{ex.sub}/{flow_id}/"
                     f"{ex.fcts[flow_id]!r};".encode())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Outcome:
    metrics: Dict[str, float]
    executions: List[Execution]
    # checks over the whole pass; any failure voids every flow of it
    pass_checks: List[str] = field(default_factory=list)
    digest: str = ""

    @property
    def attempted(self) -> int:
        return sum(ex.n_flows for ex in self.executions) or 1

    @property
    def failed(self) -> int:
        if self.pass_checks:
            return self.attempted
        return sum(ex.flows_failed for ex in self.executions)

    @property
    def checks_failed(self) -> List[str]:
        return [f"{ex.scheme}/sub{ex.sub}: {check}"
                for ex in self.executions for check in ex.failed] \
            + self.pass_checks


def measured_pass(workload: Workload, seed: int, seconds: float,
                  workdir: Path, reduced: bool = False) -> Outcome:
    n_sub = 1 if reduced else workload.sub_batches
    start = time.perf_counter()
    first: Dict[tuple, Execution] = {}
    rounds: List[List[Execution]] = []
    setups: List[float] = []

    width = max(1, workload.shards)

    def one_round(sub: int) -> None:
        batch = []
        for scheme in workload.schemes:
            before = probe(width)
            ex = execute(workload, sub, scheme, seed, workdir,
                         reduced=reduced)
            ex.speed = REFERENCE_S / ((before + probe(width)) / 2.0)
            batch.append(ex)
            setups.append(ex.setup * ex.speed)
            setups.extend(sample * ex.speed for sample in setup_samples(
                workload, sub, scheme, seed, reduced))
        for ex in batch:
            if (sub, ex.scheme) in first:
                _compare(first[(sub, ex.scheme)], ex, "repeat-reproduces-fcts")
            else:
                first[(sub, ex.scheme)] = ex
        rounds.append(batch)

    for sub in range(n_sub):
        one_round(sub)
    sub = 0
    while True:
        last = sum(ex.wall for ex in rounds[-1])
        if time.perf_counter() - start + last > seconds:
            break
        one_round(sub)
        sub = (sub + 1) % n_sub

    executions = [ex for batch in rounds for ex in batch]
    pooled = list(first.values())
    ppt = [ex for ex in pooled if ex.scheme == "ppt"]
    small = sorted(s for ex in ppt for s in ex.small)
    large = [s for ex in ppt for s in ex.large]
    checks = []
    if not reduced and len(small) * (1.0 - workload.tail_pct / 100.0) < 10:
        checks.append(f"tail-has-10-samples (p{workload.tail_pct:g} of "
                      f"{len(small)} small flows)")

    def mean_fct(scheme: str) -> float:
        values = [fct for ex in pooled if ex.scheme == scheme
                  for fct in ex.fcts.values() if fct is not None]
        return statistics.fmean(values) if values else float("nan")

    # every flow set counts once, so which sets the repeats happened to
    # cover does not move the rate
    walls: Dict[tuple, List[float]] = {}
    for ex in executions:
        walls.setdefault((ex.sub, ex.scheme), []).append(ex.wall * ex.speed)
    pass_wall = sum(statistics.median(w) for w in walls.values())

    outcome = Outcome({}, executions, checks, fct_digest(pooled))
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "flows_per_s": sum(ex.completed for ex in pooled) / pass_wall,
        "peak_rss_mb": peak_rss_mb(),
        "flows_completed_frac": 1.0 - outcome.failed / outcome.attempted,
        "ppt_small_tail_slowdown": percentile(small, workload.tail_pct),
        "ppt_large_mean_slowdown": (statistics.fmean(large) if large
                                    else float("nan")),
        "ppt_vs_dctcp_mean_fct": mean_fct("ppt") / mean_fct("dctcp"),
    }
    return outcome


def traced_pass(workload: Workload, seed: int, workdir: Path,
                reduced: bool = False) -> Outcome:
    tracer = Tracer()
    # the parent-side spans of sharded runs stay out of the layer split,
    # which comes from in-process runs only
    shard_tracer = Tracer()
    untraced: List[Execution] = []
    traced: List[Execution] = []
    serial_untraced: List[Execution] = []
    serial_traced: List[Execution] = []
    n_sub = 1 if reduced else workload.trace_sub_batches

    def pair(sub: int, scheme: str, serial: bool):
        plain = execute(workload, sub, scheme, seed, workdir,
                        reduced=reduced, serial=serial)
        active = shard_tracer if workload.shards and not serial else tracer
        active.install()
        try:
            with_trace = execute(workload, sub, scheme, seed, workdir,
                                 reduced=reduced, tracer=active,
                                 serial=serial)
        finally:
            active.remove()
        _compare(plain, with_trace, "traced-fcts-identical")
        return plain, with_trace

    for sub in range(n_sub):
        for scheme in workload.schemes:
            plain, with_trace = pair(sub, scheme, serial=False)
            untraced.append(plain)
            traced.append(with_trace)
            if workload.shards:
                plain, with_trace = pair(sub, scheme, serial=True)
                serial_untraced.append(plain)
                serial_traced.append(with_trace)

    executions = untraced + traced + serial_untraced + serial_traced
    checks = []
    leftover = installed_wrappers()
    if leftover:
        checks.append(f"wrappers-removed ({', '.join(leftover)})")
    sim_runs = serial_traced if workload.shards else traced
    metrics = layer_metrics(tracer, sim_runs)
    untraced_wall = sum(ex.wall for ex in untraced + serial_untraced)
    traced_wall = sum(ex.wall for ex in traced + serial_traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    if workload.shards:
        # a run that failed has no counters; its check already failed
        shard = {"rounds": 0, "events": 0, "imbalance": 0.0, "handoffs": 0,
                 "inert_drops": 0, **_sum_counters(traced)}
        sharded_wall = sum(ex.wall for ex in untraced)
        serial_wall = sum(ex.wall for ex in serial_untraced)
        mismatched = sum(
            1 for a, b in zip(untraced, serial_untraced)
            for flow_id, fct in a.fcts.items() if b.fcts.get(flow_id) != fct)
        metrics.update({
            "shard.rounds": shard["rounds"],
            "shard.events_per_round": (shard["events"] / shard["rounds"]
                                       if shard["rounds"] else 0.0),
            "shard.imbalance": shard["imbalance"] / len(traced),
            "shard.handoffs": shard["handoffs"],
            "shard.inert_drops": shard["inert_drops"],
            "shard.speedup_vs_serial": serial_wall / sharded_wall,
            "shard.fct_mismatch_frac": mismatched / max(
                1, sum(ex.n_flows for ex in untraced)),
        })
    return Outcome(metrics, executions, checks)


def _sum_counters(executions: List[Execution]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for ex in executions:
        for key, value in ex.counters.items():
            total[key] = total.get(key, 0) + value
    return total


def layer_metrics(tracer: Tracer, runs: List[Execution]) -> Dict[str, float]:
    """Per-layer metrics from the tracer and the traced runs' counters.

    Layers that did not run report 0."""
    c = _sum_counters(runs)
    ns, calls = tracer.self_ns, tracer.calls
    peak = max((ex.counters.get("peak_pending", 0) for ex in runs), default=0)
    ports = max((ex.counters.get("ports", 0) for ex in runs), default=0)

    def per(layer: str, count: float) -> float:
        return ns[layer] / count if count else 0.0

    engine_ns = ns["engine"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({
        "engine.events": c.get("events", 0),
        "engine.peak_pending": peak,
        "engine.self_ns_per_event": per("engine", c.get("events", 0)),
        "link.pkts": c.get("pkts", 0),
        "link.self_ns_per_pkt": per("link", c.get("pkts", 0)),
        "queues.enqueues": c.get("enqueues", 0),
        "queues.drops": c.get("drops", 0),
        "queues.marks": c.get("marks", 0),
        "queues.self_ns_per_enqueue": per("queues", c.get("enqueues", 0)),
        "switch.forwards": c.get("forwards", 0),
        "switch.self_ns_per_forward": per("switch", c.get("forwards", 0)),
        "transport.calls": calls["transport"],
        "transport.self_ns_per_call": per("transport", calls["transport"]),
        "transport.retransmits": c.get("retransmits", 0),
        "transport.rtos": c.get("rtos", 0),
        "transport.goodput_frac": (c["data_unique"] / c["data_sent"]
                                   if c.get("data_sent") else 0.0),
        "workloads.flows": c.get("flows", 0),
        "workloads.gen_s": ns["workloads"] / 1e9,
        "topology.build_s": ns["topology"] / 1e9,
        "topology.ports": ports,
        "runner.self_s": ns["runner"] / 1e9,
        "obs.self_s": ns["obs"] / 1e9,
        "validate.self_s": ns["validate"] / 1e9,
        "validate.violations": c.get("violations", 0),
        "faults.drops": c.get("fault_drops", 0),
        "faults.self_s": ns["faults"] / 1e9,
        "resilience.checkpoints": calls["resilience"],
        "resilience.save_s": ns["resilience"] / 1e9,
        "resilience.bytes": tracer.checkpoint_bytes,
        "trace.unattributed_frac": (engine_ns / tracer.traced_ns
                                    if tracer.traced_ns else 0.0),
    })
    return metrics
