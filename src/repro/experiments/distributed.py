"""Sharded run supervisor: one process per shard, merged like a grid.

:func:`run_sharded` is the space-parallel sibling of
:func:`repro.experiments.parallel.run_grid`: it plans the partition
(:func:`repro.sim.shard.plan_shards`), wires a full mesh of
``multiprocessing`` pipes between the shards plus one result pipe each,
forks one :class:`~repro.sim.shard.ShardWorker` per shard (the
scheme/scenario are inherited by reference through a module-level spec,
exactly like the grid's fork table — nothing unpicklable ever crosses a
pipe going in), and merges the returned
:class:`~repro.sim.shard.ShardSummary` objects into the same
:class:`~repro.experiments.parallel.RunSummary` shape every sweep
consumer already reads.

The merge also closes the global conservation law the per-shard books
cannot see: for every ordered shard pair (A, B), the packets/bytes A
ledgered into its outbox for B must equal what B ledgered out of its
inbox from A — exactly, not approximately.  A mismatch is recorded as a
``shard-handoff-conservation`` violation on the combined validation
report (or raised outright when the run is not validated, since nobody
would otherwise see it).

``n_shards == 1`` runs the worker in-process — no fork, no pipes — and
is the bit-identity anchor: its per-flow FCTs must equal the plain
serial runner's.  On platforms without ``fork``, multi-shard runs raise
instead of silently degrading (a one-shard "sharded" run would report
misleading scaling numbers).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Dict, List, Optional, Tuple

from ..metrics.fct import FctStats
from ..obs.telemetry import TelemetrySummary
from ..sim.shard import ShardPlan, ShardSummary, ShardWorker, plan_shards
from ..transport.base import Flow, Scheme
from ..validate import ValidationReport
from ..validate.report import Violation
from .parallel import RunSummary, _fork_available
from .runner import RunHealth, Scenario


class ShardError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback.

    Same contract as :class:`~repro.experiments.parallel.GridTaskError`:
    pickles via :meth:`__reduce__` and names the failing shard, so the
    parent's stack trace points at the right process.
    """

    def __init__(self, shard_id: int, cause: str,
                 worker_traceback: str) -> None:
        self.shard_id = shard_id
        self.cause = cause
        self.worker_traceback = worker_traceback
        message = f"shard {shard_id} failed: {cause}"
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.shard_id, self.cause,
                             self.worker_traceback))


@dataclass
class DistributedResult:
    """What a sharded run hands back.

    ``summary`` is the grid-shaped digest (scheme, scenario,
    ``params={"shards": n}``, merged stats/health/telemetry/validation);
    ``flows`` is the full deterministic flow list with finish times
    applied from the owning shards; ``shards`` keeps every per-shard
    summary for anyone who wants the partition-level story.
    """

    summary: RunSummary
    flows: List[Flow]
    stats: FctStats
    health: RunHealth
    shards: List[ShardSummary]
    plan: ShardPlan
    conservation_ok: bool


# Spec inherited by forked shard workers (scheme/scenario close over
# unpicklable builders); only the shard index crosses the pipe going in.
# Never mutated while workers are alive.
_SHARD_SPEC: Optional[tuple] = None


def _shard_entry(shard_id: int) -> None:
    plan, scheme, scenario, mesh, result_conns, observe, validate = \
        _SHARD_SPEC
    conn = result_conns[shard_id]
    try:
        conns = {}
        for (i, j), (end_i, end_j) in mesh.items():
            if shard_id == i:
                conns[j] = end_i
            elif shard_id == j:
                conns[i] = end_j
        worker = ShardWorker(shard_id, plan, scheme, scenario, conns,
                             observe=observe, validate=validate)
        conn.send(("ok", worker.run()))
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", repr(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


def _check_scenario(scheme: Scheme, scenario: Scenario, topo) -> None:
    """Reject feature combinations the shard protocol cannot carry.

    Runs in the parent, on the reference build, so a bad combination
    fails with one clear error instead of n worker tracebacks.
    """
    if scenario.faults is not None:
        raise ValueError(
            "sharded runs do not support fault plans (cross-shard fault "
            "windows have no deterministic-merge semantics yet)")
    if scenario.hybrid is not None and scenario.hybrid.enabled:
        raise ValueError(
            "sharded runs do not support the hybrid fast path "
            "(abstract flows have no boundary-crossing packets)")
    if topo.network.pfc_controllers:
        raise ValueError(
            "sharded runs do not support PFC (pause frames cross shard "
            "boundaries outside the data-packet protocol)")


def run_sharded(
    scheme: Scheme,
    scenario: Scenario,
    n_shards: int,
    *,
    observe: bool = False,
    validate: object = False,
    timeout: float = 900.0,
) -> DistributedResult:
    """Run ``scenario`` space-partitioned across ``n_shards`` processes.

    The merge is deterministic: the same scenario and shard count give
    the same FCTs every time.  ``n_shards == 1`` is bit-identical to the
    serial runner on any scenario.  More shards match serial only where
    no imported packet ties a local event at the same timestamp; the
    perfbench ``sharded`` workload has 16 of 200 FCTs off serial, and
    ``shard_gate_scenario()`` matches for DCTCP, PPT, NDP and Homa but
    not HPCC (2 of 60 flows) or PPT-HPCC (3 of 60); see
    ``docs/sharding.md``.  ``observe``/``validate``
    mirror the runner's flags; each worker carries its own telemetry /
    auditor and only the picklable digests cross the result pipes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    # Reference build: yields the plan, the parent's flow list for the
    # merge, and an early home for the unsupported-combo checks.
    ref = scenario.build_topology()
    scheme.configure_network(ref.network)
    _check_scenario(scheme, scenario, ref)
    plan = plan_shards(ref, n_shards)
    flow_source = scenario.build_flows(ref)
    flows = (flow_source if isinstance(flow_source, list)
             else flow_source.materialize())

    if n_shards == 1:
        worker = ShardWorker(0, plan, scheme, scenario, {},
                             observe=observe, validate=validate)
        shard_summaries = [worker.run()]
    else:
        if not _fork_available():
            raise RuntimeError(
                "sharded execution requires the 'fork' start method; "
                f"this platform offers "
                f"{multiprocessing.get_start_method()!r} — run with "
                "--shards 1 or use the serial runner")
        shard_summaries = _run_forked(plan, scheme, scenario,
                                      observe, validate, timeout)

    return _merge(scheme, scenario, plan, shard_summaries, flows,
                  observe=observe, validate=validate)


def _run_forked(plan: ShardPlan, scheme: Scheme, scenario: Scenario,
                observe: bool, validate: object,
                timeout: float) -> List[ShardSummary]:
    n_shards = plan.n_shards
    ctx = multiprocessing.get_context("fork")
    # Full mesh of duplex window pipes, keyed (i, j) with i < j, plus a
    # one-way result pipe per shard — all created before the forks so
    # every child inherits every end it needs.
    mesh: Dict[Tuple[int, int], tuple] = {}
    for i in range(n_shards):
        for j in range(i + 1, n_shards):
            mesh[(i, j)] = ctx.Pipe(True)
    result_pipes = [ctx.Pipe(False) for _ in range(n_shards)]

    global _SHARD_SPEC
    previous = _SHARD_SPEC
    _SHARD_SPEC = (plan, scheme, scenario, mesh,
                   [send for _recv, send in result_pipes],
                   observe, validate)
    procs = []
    summaries: List[Optional[ShardSummary]] = [None] * n_shards
    try:
        for i in range(n_shards):
            proc = ctx.Process(target=_shard_entry, args=(i,), daemon=True)
            proc.start()
            procs.append(proc)
        pending = {result_pipes[i][0]: i for i in range(n_shards)}
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                stuck = sorted(pending.values())
                raise ShardError(
                    stuck[0],
                    f"no result after {timeout:.0f}s "
                    f"(shards still pending: {stuck})", "")
            for conn in _conn_wait(list(pending), timeout=remaining):
                shard_id = pending.pop(conn)
                try:
                    message = conn.recv()
                except EOFError:
                    raise ShardError(
                        shard_id, "worker died without reporting "
                        "(killed or crashed hard)", "") from None
                if message[0] == "error":
                    raise ShardError(shard_id, message[1], message[2])
                summaries[shard_id] = message[1]
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        _SHARD_SPEC = previous
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for ends in mesh.values():
            for end in ends:
                end.close()
        for ends in result_pipes:
            for end in ends:
                end.close()
    return summaries  # type: ignore[return-value]


def _merge(scheme: Scheme, scenario: Scenario, plan: ShardPlan,
           shard_summaries: List[ShardSummary], flows: List[Flow],
           *, observe: bool, validate: object) -> DistributedResult:
    by_id = {f.flow_id: f for f in flows}
    for shard in shard_summaries:
        for flow_id, finish_time in shard.fcts.items():
            by_id[flow_id].finish_time = finish_time
    stats = FctStats.from_flows(flows)

    health = RunHealth(n_flows=len(flows))
    # completion is receiver-side, so each flow is counted by exactly
    # one shard and the sum is the global completion count
    health.completed = sum(s.completed for s in shard_summaries)
    health.events_run = sum(s.events_run for s in shard_summaries)
    health.sim_time = max((s.sim_time for s in shard_summaries),
                          default=0.0)
    health.peak_pending = max((s.peak_pending for s in shard_summaries),
                              default=0)
    health.live_pending = sum(s.live_pending for s in shard_summaries)
    health.retransmits_total = sum(s.retransmits_total
                                   for s in shard_summaries)
    health.rtos_total = sum(s.rtos_total for s in shard_summaries)
    for shard in shard_summaries:
        for flow_id, rtx in shard.retransmits_by_flow.items():
            health.retransmits_by_flow[flow_id] = (
                health.retransmits_by_flow.get(flow_id, 0) + rtx)
    health.event_budget_exceeded = any(s.outcome == "budget"
                                       for s in shard_summaries)
    if (any(s.outcome == "dead" for s in shard_summaries)
            and health.completed < health.n_flows):
        health.stalled = True
        health.stall_time = health.sim_time
        health.stall_reason = (
            f"all shard heaps empty with "
            f"{health.n_flows - health.completed} flow(s) incomplete")

    # global handoff conservation: A.exported_to[B] == B.imported_from[A]
    mismatches = []
    pairs_checked = 0
    for a in shard_summaries:
        for b_id, sent in sorted(a.ledger["exported_to"].items()):
            pairs_checked += 1
            received = shard_summaries[b_id].ledger["imported_from"].get(
                a.shard_id, [0, 0])
            if list(sent) != list(received):
                mismatches.append((a.shard_id, b_id, tuple(sent),
                                   tuple(received)))
    conservation_ok = not mismatches

    validation = None
    if validate:
        validation = ValidationReport.combine(
            [s.validation for s in shard_summaries])
        validation.strict = (validate == "strict")
        validation.checks_run += pairs_checked
        for a_id, b_id, sent, received in mismatches:
            validation.record(Violation(
                law="shard-handoff-conservation",
                subject=f"shard{a_id}->shard{b_id}",
                sim_time=health.sim_time,
                message=(f"shard {a_id} exported {sent[0]} pkts / "
                         f"{sent[1]} bytes to shard {b_id}, which "
                         f"imported {received[0]} pkts / "
                         f"{received[1]} bytes"),
                details={"exported": list(sent),
                         "imported": list(received)},
            ))
    elif mismatches:
        a_id, b_id, sent, received = mismatches[0]
        raise RuntimeError(
            f"cross-shard handoff conservation violated "
            f"({len(mismatches)} pair(s)); first: shard {a_id} exported "
            f"{sent} to shard {b_id}, which imported {received}")

    telemetry = None
    if observe:
        parts = [s.telemetry for s in shard_summaries
                 if s.telemetry is not None]
        telemetry = TelemetrySummary.combine(parts) if parts else None

    summary = RunSummary(
        scheme=scheme.name,
        scenario=scenario.name,
        params={"shards": plan.n_shards},
        stats=stats,
        health=health,
        completed=health.completed,
        n_flows=len(flows),
        wall_events=health.events_run,
        telemetry=telemetry,
        validation=validation,
    )
    return DistributedResult(
        summary=summary,
        flows=flows,
        stats=stats,
        health=health,
        shards=shard_summaries,
        plan=plan,
        conservation_ok=conservation_ok,
    )
