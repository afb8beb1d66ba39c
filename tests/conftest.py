"""Shared fixtures and helpers for the test suite.

The helpers build tiny fabrics (2-8 hosts, short RTTs) so individual
tests run in milliseconds while still exercising the full packet path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.network import QueueConfig
from repro.sim.topology import Topology, dumbbell, leaf_spine, star
from repro.transport.base import Flow, TransportConfig, TransportContext
from repro.units import gbps, us


def quick_qcfg(buffer_bytes: int = 120_000) -> QueueConfig:
    return QueueConfig(buffer_bytes=buffer_bytes,
                       ecn_thresholds=[96_000] * 4 + [86_000] * 4)


def make_star(n_hosts: int = 4, rate=gbps(40), prop=us(4),
              qcfg: QueueConfig = None) -> Topology:
    return star(n_hosts, rate=rate, prop_delay=prop,
                qcfg=qcfg or quick_qcfg())


def make_leaf_spine(**overrides) -> Topology:
    params = dict(n_leaf=2, n_spine=2, hosts_per_leaf=2,
                  edge_rate=gbps(40), core_rate=gbps(100),
                  prop_delay=us(2), qcfg=quick_qcfg())
    params.update(overrides)
    return leaf_spine(**params)


def make_ctx(topo: Topology, **config_overrides) -> TransportContext:
    params = dict(min_rto=1e-3)
    params.update(config_overrides)
    return TransportContext(topo.sim, topo.network,
                            TransportConfig(**params))


def run_single_flow(scheme, size: int, *, topo: Topology = None,
                    src: int = 0, dst: int = 1, until: float = 1.0,
                    **config_overrides):
    """Run one flow of ``size`` bytes to completion; returns (flow, ctx, topo)."""
    topo = topo or make_star()
    scheme.configure_network(topo.network)
    ctx = make_ctx(topo, **config_overrides)
    flow = Flow(0, src, dst, size, 0.0)
    scheme.start_flow(flow, ctx)
    topo.sim.run(until=until)
    return flow, ctx, topo


@pytest.fixture
def star4() -> Topology:
    return make_star(4)


@pytest.fixture
def ls_topo() -> Topology:
    return make_leaf_spine()


# -- pinned fingerprints ----------------------------------------------------

FINGERPRINTS_PATH = Path(__file__).with_name("fingerprints.json")


def pinned_fingerprints() -> dict:
    """The checked-in outputs that event order and flow generation must
    keep reproducing (see the file's ``_about`` entry)."""
    return json.loads(FINGERPRINTS_PATH.read_text())


def fct_fingerprint(result) -> list:
    # repr() keeps every bit of the float: equality here is
    # bit-identity, not approximate agreement
    return [[f.flow_id, f.completed, repr(f.fct)] for f in result.flows]


def trace_digest(telemetry) -> str:
    events = [e.to_dict() for e in telemetry.iter_events()]
    blob = json.dumps(events, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def flows_digest(flows) -> str:
    tuples = [(f.flow_id, f.src, f.dst, f.size, f.start_time) for f in flows]
    return hashlib.sha256(repr(tuples).encode()).hexdigest()
