"""Sharded execution: partition planning, the conservative-lookahead
window protocol, deterministic merge, and the CLI surface.

The headline gates: ``--shards 1`` is bit-identical to the plain serial
runner on any scenario, and sharded runs of ``shard_gate_scenario()``
merge to per-flow FCTs bit-identical to the serial oracle for the
schemes gated here (DCTCP at 2 and 4 shards; PPT, NDP and Homa at 2).
That scenario is not tie-free for every scheme: HPCC and PPT-HPCC
differ from serial on 2 and 3 of its 60 flows.  docs/sharding.md has
the determinism contract and the measured exceptions.
"""

import pickle

import pytest

import repro.experiments.distributed as distributed
from repro.core.ppt import Ppt
from repro.experiments.distributed import ShardError, run_sharded
from repro.experiments.runner import run
from repro.experiments.scenarios import (
    SIM_PFC,
    all_to_all_scenario,
    shard_gate_scenario,
    sim_fabric,
)
from repro.faults import FaultPlan, LinkDown
from repro.sim.hybrid import HybridConfig
from repro.sim.shard import boundary_ports, plan_shards
from repro.sim.topology import leaf_spine, star
from repro.transport.dctcp import Dctcp
from repro.transport.homa import Homa
from repro.transport.ndp import Ndp
from repro.units import us
from repro.workloads.distributions import WEB_SEARCH


def tiny_scenario(seed=7, **kwargs):
    return all_to_all_scenario(
        f"shard-tiny-{seed}", WEB_SEARCH, load=0.3, n_flows=10,
        size_cap=200_000, seed=seed,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2,
                          prop_delay=us(50)),
        **kwargs)


def fcts_of(flows):
    return {f.flow_id: f.fct for f in flows if f.completed}


# ---------------------------------------------------------------------------
# partition planning
# ---------------------------------------------------------------------------


def test_plan_single_shard_accepts_any_topology():
    topo = star(4)
    plan = plan_shards(topo, 1)
    assert plan.n_shards == 1
    assert plan.lookahead == 0.0
    assert set(plan.shard_of_host.values()) == {0}


def test_plan_requires_partition_metadata():
    with pytest.raises(ValueError, match="partition metadata"):
        plan_shards(star(4), 2)


def test_plan_rejects_more_shards_than_leaves():
    topo = leaf_spine(n_leaf=2, n_spine=2, hosts_per_leaf=2)
    with pytest.raises(ValueError):
        plan_shards(topo, 3)


def test_plan_rejects_nonpositive_shard_count():
    with pytest.raises(ValueError):
        plan_shards(leaf_spine(n_leaf=2, n_spine=2, hosts_per_leaf=2), 0)


def test_plan_round_robin_with_hosts_following_leaves():
    topo = leaf_spine(n_leaf=4, n_spine=2, hosts_per_leaf=4,
                      prop_delay=us(50))
    plan = plan_shards(topo, 2)
    leaf_shards = [plan.shard_of_switch[s] for s in topo.leaf_switch_ids]
    assert leaf_shards == [0, 1, 0, 1]
    for host_id, leaf_index in topo.host_leaf.items():
        assert plan.shard_of_host[host_id] == leaf_shards[leaf_index]
    # lookahead is the min boundary propagation delay
    assert plan.lookahead == us(50)
    # the boundary is exclusively leaf<->spine: hosts ride their leaf
    switch_ids = set(topo.leaf_switch_ids) | set(topo.spine_switch_ids)
    for port, owner, peer in boundary_ports(topo.network, plan):
        assert owner != peer
        assert "host" not in port.name


# ---------------------------------------------------------------------------
# determinism gates
# ---------------------------------------------------------------------------


def test_one_shard_bit_identical_to_serial():
    serial = run(Dctcp(), tiny_scenario())
    sharded = run_sharded(Dctcp(), tiny_scenario(), 1)
    assert fcts_of(sharded.flows) == fcts_of(serial.flows)
    assert sharded.health.completed == serial.health.completed
    assert sharded.stats == serial.stats


def test_two_and_four_shards_bit_identical_to_serial_oracle():
    serial = run(Dctcp(), shard_gate_scenario())
    oracle = fcts_of(serial.flows)
    assert serial.health.completed == serial.health.n_flows
    for n_shards in (2, 4):
        sharded = run_sharded(Dctcp(), shard_gate_scenario(), n_shards)
        assert fcts_of(sharded.flows) == oracle, f"{n_shards}-shard diverged"
        assert sharded.stats == serial.stats
        assert sharded.plan.n_shards == n_shards


@pytest.mark.parametrize("scheme", [Ppt, Ndp, Homa],
                         ids=lambda cls: cls.__name__)
def test_two_shards_bit_identical_to_serial_beyond_dctcp(scheme):
    # what crosses the boundary here beyond DCTCP's fields: PPT's LCP
    # data and ACKs at P4-P7, NDP's pulls (some with a ``meta`` seq),
    # Homa's grants with their ``meta`` tuple
    serial = run(scheme(), shard_gate_scenario())
    assert serial.health.completed == serial.health.n_flows
    sharded = run_sharded(scheme(), shard_gate_scenario(), 2)
    assert fcts_of(sharded.flows) == fcts_of(serial.flows)
    assert sharded.stats == serial.stats
    assert sharded.conservation_ok
    assert sum(s.ledger["exported_pkts"] for s in sharded.shards) > 0


def test_sharded_merge_is_deterministic_across_repeats():
    a = run_sharded(Dctcp(), shard_gate_scenario(), 2)
    b = run_sharded(Dctcp(), shard_gate_scenario(), 2)
    assert fcts_of(a.flows) == fcts_of(b.flows)
    assert a.health.events_run == b.health.events_run
    assert [s.rounds for s in a.shards] == [s.rounds for s in b.shards]


# ---------------------------------------------------------------------------
# conservation + validation
# ---------------------------------------------------------------------------


def test_handoff_conservation_closes_and_validation_is_clean():
    result = run_sharded(Dctcp(), shard_gate_scenario(), 2, validate=True)
    assert result.conservation_ok
    report = result.summary.validation
    assert report is not None and report.ok
    # the pairwise ledgers close globally, not just in aggregate
    for a in result.shards:
        for b_id, sent in a.ledger["exported_to"].items():
            received = result.shards[b_id].ledger["imported_from"][a.shard_id]
            assert list(sent) == list(received)
    # something actually crossed the boundary, or the gate is vacuous
    total_exported = sum(s.ledger["exported_pkts"] for s in result.shards)
    assert total_exported > 0


def test_phase_timers_split_worker_wall_time():
    for n_shards in (1, 2):
        result = run_sharded(Dctcp(), tiny_scenario(), n_shards)
        for shard in result.shards:
            phases = (shard.build_s, shard.compute_s, shard.exchange_s,
                      shard.inject_s)
            assert all(phase >= 0.0 for phase in phases), phases
            assert sum(phases) <= shard.wall_s
            assert shard.build_s > 0.0 and shard.compute_s > 0.0
            if n_shards == 1:
                # a solo shard has no peers to exchange with
                assert shard.exchange_s == shard.inject_s == 0.0
            else:
                assert shard.exchange_s > 0.0


def test_per_shard_telemetry_combines():
    result = run_sharded(Dctcp(), shard_gate_scenario(), 2, observe=True)
    telemetry = result.summary.telemetry
    assert telemetry is not None
    assert telemetry.flows_completed == result.health.completed
    parts = [s.telemetry for s in result.shards]
    assert all(p is not None for p in parts)
    assert telemetry.flows_completed == sum(p.flows_completed for p in parts)


# ---------------------------------------------------------------------------
# unsupported combinations + failure surfaces
# ---------------------------------------------------------------------------


def test_faulted_scenario_rejected():
    plan = FaultPlan([LinkDown("leaf0->spine0", 0.001, 0.002)])
    with pytest.raises(ValueError, match="fault"):
        run_sharded(Dctcp(), tiny_scenario(faults=plan), 2)


def test_hybrid_scenario_rejected():
    scenario = tiny_scenario(hybrid=HybridConfig(size_threshold=100_000))
    with pytest.raises(ValueError, match="hybrid"):
        run_sharded(Dctcp(), scenario, 2)


def test_pfc_scenario_rejected():
    scenario = tiny_scenario(pfc=True, pfc_config=SIM_PFC)
    with pytest.raises(ValueError, match="PFC"):
        run_sharded(Dctcp(), scenario, 2)


def test_multi_shard_requires_fork(monkeypatch):
    monkeypatch.setattr(distributed, "_fork_available", lambda: False)
    with pytest.raises(RuntimeError, match="fork"):
        run_sharded(Dctcp(), tiny_scenario(), 2)
    # the in-process single-shard path keeps working without fork
    result = run_sharded(Dctcp(), tiny_scenario(), 1)
    assert result.health.completed == result.summary.n_flows


def test_shard_error_pickles_with_context():
    err = ShardError(3, "ValueError('boom')", "trace...")
    clone = pickle.loads(pickle.dumps(err))
    assert clone.shard_id == 3
    assert clone.cause == "ValueError('boom')"
    assert "shard 3" in str(clone)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_shards_smoke(capsys):
    from repro.cli import main
    assert main(["run", "--schemes", "dctcp", "--flows", "12",
                 "--load", "0.3", "--shards", "2", "--validate"]) == 0
    out = capsys.readouterr().out
    assert "12/12" in out


def test_cli_shards_guards():
    from repro.cli import main
    base = ["run", "--schemes", "dctcp", "--flows", "8"]
    assert main(base + ["--shards", "2", "--jobs", "2"]) == 2
    assert main(base + ["--shards", "2", "--trace-out", "/tmp/x.jsonl"]) == 2
    assert main(base + ["--shards", "0"]) == 2
    # unsupported feature combos surface as exit 2, not tracebacks
    assert main(base + ["--shards", "2", "--hybrid"]) == 2
    assert main(base + ["--shards", "2", "--pfc"]) == 2
    assert main(base + ["--shards", "2",
                        "--fault", "down:leaf0->spine0:0.001:0.002"]) == 2
