"""Tests for the experiment harness."""

import dataclasses
import random

import pytest

from repro.core.hypothetical import MwRecordingDctcp
from repro.experiments.runner import Scenario, format_table, run, run_all, two_pass
from repro.experiments.scenarios import (
    all_to_all_scenario,
    incast_scenario,
    sim_config,
    sim_fabric,
    testbed_scenario as _testbed_scenario,
    two_to_one_scenario,
)
from repro.transport.dctcp import Dctcp
from repro.workloads.distributions import WEB_SEARCH


def tiny_scenario(n_flows=20, **kwargs):
    return all_to_all_scenario(
        "tiny", WEB_SEARCH, n_flows=n_flows, size_cap=300_000,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2), **kwargs)


def test_run_completes_all_flows():
    result = run(Dctcp(), tiny_scenario())
    assert result.completion_rate == 1.0
    assert result.stats.n_flows == 20
    assert result.scheme_name == "dctcp"
    assert "dctcp" in result.summary()


def test_run_deterministic():
    r1 = run(Dctcp(), tiny_scenario())
    r2 = run(Dctcp(), tiny_scenario())
    assert [f.fct for f in r1.flows] == [f.fct for f in r2.flows]


def test_run_different_seeds_differ():
    r1 = run(Dctcp(), tiny_scenario())
    r2 = run(Dctcp(), all_to_all_scenario(
        "tiny2", WEB_SEARCH, n_flows=20, size_cap=300_000, seed=99,
        fabric=sim_fabric(n_leaf=2, n_spine=2, hosts_per_leaf=2)))
    assert [f.fct for f in r1.flows] != [f.fct for f in r2.flows]


def test_run_sorts_an_unordered_flow_list():
    """The runner schedules a list's flow starts in start-time order, so
    a shuffled list runs exactly like the sorted one."""
    ordered = tiny_scenario()

    def shuffled_flows(topo):
        flows = ordered.build_flows(topo)
        random.Random(5).shuffle(flows)
        assert [f.start_time for f in flows] != \
            sorted(f.start_time for f in flows)
        return flows

    shuffled = dataclasses.replace(ordered, build_flows=shuffled_flows)
    r1 = run(Dctcp(), ordered)
    r2 = run(Dctcp(), shuffled)

    def fcts(result):
        return sorted((f.flow_id, repr(f.fct)) for f in result.flows)

    assert r1.completion_rate == 1.0
    assert fcts(r2) == fcts(r1)
    assert r2.wall_events == r1.wall_events


def test_run_all_runs_each_scheme():
    results = run_all([Dctcp(), MwRecordingDctcp()], tiny_scenario())
    assert set(results) == {"dctcp", "dctcp-recording"}


def test_instruments_hook():
    seen = {}

    def instruments(topo):
        seen["topo"] = topo
        return "probe"

    result = run(Dctcp(), tiny_scenario(), instruments=instruments)
    assert seen["topo"] is result.topology
    assert result.ctx.extra["instruments"] == "probe"


def test_two_pass_same_flows():
    base, hypo = two_pass(tiny_scenario())
    assert base.completion_rate == 1.0
    assert hypo.completion_rate == 1.0
    assert [f.size for f in base.flows] == [f.size for f in hypo.flows]


def test_max_time_safety_stop():
    scenario = tiny_scenario()
    scenario.max_time = 1e-6  # absurdly short
    result = run(Dctcp(), scenario)
    assert result.completed < len(result.flows)


def test_scenario_builders_shapes():
    s1 = incast_scenario("i", WEB_SEARCH, n_senders=4, n_flows=5)
    topo = s1.build_topology()
    flows = s1.build_flows(topo)
    assert all(f.dst == 0 for f in flows)

    s2 = two_to_one_scenario("t", n_flows=5)
    topo2 = s2.build_topology()
    flows2 = s2.build_flows(topo2)
    assert all(f.dst == 2 and f.src in (0, 1) for f in flows2)

    s3 = _testbed_scenario("tb", WEB_SEARCH, n_flows=5, pattern="incast")
    topo3 = s3.build_topology()
    assert topo3.n_hosts == 15
    flows3 = s3.build_flows(topo3)
    assert all(f.dst == 0 for f in flows3)
    assert s3.config.min_rto == pytest.approx(10e-3)


def test_format_table():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    text = format_table(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["a", "b"]
    assert "10" in lines[3]
    assert format_table([]) == "(no rows)"
    assert "a" in format_table(rows, columns=["a"])
