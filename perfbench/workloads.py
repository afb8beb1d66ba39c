"""The benchmark's four workloads (why each exists: ``BENCHMARK.json``
and ``README.md``).

Each workload is a batch: ``sub_batches`` seeded flow sets, each run to
completion under every scheme in ``schemes``.  Every flow set comes from
:class:`inputs.StratifiedPoissonStream` with a sub-seed derived from the
benchmark's ``--seed``; the program only ever sees the flows.  ``reduced``
builds the same shapes at test size (one sub-batch, fewer flows), through
the same code.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.core.ppt import Ppt
from repro.experiments.runner import Scenario
from repro.experiments.scenarios import (
    sim_config,
    sim_fabric,
    soak_scenario,
    star_fabric,
)
from repro.transport.dctcp import Dctcp
from repro.units import us
from repro.workloads.distributions import WEB_SEARCH
from repro.workloads.patterns import all_to_all, incast

from inputs import StratifiedPoissonStream

SCHEMES = {"ppt": Ppt, "dctcp": Dctcp}
SIZE_CAP = 2_000_000  # the scaled scenarios' web-search cap


def sub_seed(seed: int, index: int) -> int:
    """The flow-set seed of sub-batch ``index`` of a run seeded ``seed``."""
    return seed * 1009 + index


@dataclass(frozen=True)
class Workload:
    name: str
    schemes: Tuple[str, ...]
    sub_batches: int
    # percentile of PPT's small-flow slowdown reported as the tail: the
    # highest of 50/75/90/95/97.5/99/99.5/99.9 with >= 10 pooled samples
    # beyond it at full size
    tail_pct: float
    # (sub-seed, reduced) -> Scenario
    scenario: Callable[[int, bool], Scenario]
    shards: int = 0
    # run() options beyond scheme/scenario; ``checkpoints`` > 0 writes
    # that many evenly spaced checkpoints per run
    validate: object = None
    observe: bool = False
    checkpoints: int = 0
    # sub-batches the traced pass runs (untraced, then traced)
    trace_sub_batches: int = 1


def _incast(seed: int, reduced: bool) -> Scenario:
    n_flows = 30 if reduced else 50

    def build_flows(topo):
        hosts = topo.host_ids()
        return list(StratifiedPoissonStream(
            incast(hosts[1:], hosts[0]), WEB_SEARCH, load=0.5,
            link_rate=topo.edge_rate, n_flows=n_flows, n_senders=1,
            seed=seed, size_cap=SIZE_CAP))

    return Scenario("bench-incast", star_fabric(16), build_flows,
                    config=sim_config(), max_time=20.0)


def _leafspine(seed: int, reduced: bool) -> Scenario:
    n_flows = 20 if reduced else 140

    def build_flows(topo):
        return StratifiedPoissonStream(
            all_to_all(topo.host_ids()), WEB_SEARCH, load=0.6,
            link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=topo.n_hosts, seed=seed, size_cap=SIZE_CAP)

    return Scenario("bench-leafspine", sim_fabric(), build_flows,
                    config=sim_config(), max_time=10.0)


SOAK_HORIZON = 60.0        # simulated seconds per soak sub-batch
SOAK_REDUCED_HORIZON = 30.0
SOAK_FAULTS = 3            # faults (and checkpoints) per soak run


def _soak(seed: int, reduced: bool) -> Scenario:
    horizon = SOAK_REDUCED_HORIZON if reduced else SOAK_HORIZON
    base = soak_scenario("bench-soak", horizon=horizon,
                         fault_period=horizon / SOAK_FAULTS)
    load = 0.05

    def build_flows(topo):
        hosts = topo.host_ids()
        # soak_scenario's own sizing: arrivals span ~90% of the horizon
        rate = load * len(hosts) * topo.edge_rate / (
            8.0 * WEB_SEARCH.mean(200_000))
        return StratifiedPoissonStream(
            all_to_all(hosts), WEB_SEARCH, load=load,
            link_rate=topo.edge_rate,
            n_flows=max(2, int(rate * horizon * 0.9)),
            n_senders=len(hosts), seed=seed, size_cap=200_000)

    return dataclasses.replace(base, build_flows=build_flows)


def _sharded(seed: int, reduced: bool) -> Scenario:
    n_flows = 24 if reduced else 100

    def build_flows(topo):
        return list(StratifiedPoissonStream(
            all_to_all(topo.host_ids()), WEB_SEARCH, load=0.4,
            link_rate=topo.edge_rate, n_flows=n_flows,
            n_senders=topo.n_hosts, seed=seed, size_cap=SIZE_CAP))

    fabric = sim_fabric(n_leaf=4, hosts_per_leaf=16, n_spine=4,
                        prop_delay=us(20))
    return Scenario("bench-sharded", fabric, build_flows,
                    config=sim_config(), max_time=10.0)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "incast",
        ("ppt", "dctcp"), sub_batches=10, tail_pct=95.0, scenario=_incast,
        trace_sub_batches=4),
    Workload(
        "leafspine",
        ("ppt", "dctcp"), sub_batches=3, tail_pct=95.0, scenario=_leafspine),
    Workload(
        "soak",
        ("ppt", "dctcp"), sub_batches=4, tail_pct=95.0, scenario=_soak,
        validate="strict", observe=True, checkpoints=SOAK_FAULTS,
        trace_sub_batches=2),
    Workload(
        "sharded",
        ("ppt", "dctcp"), sub_batches=3, tail_pct=90.0, scenario=_sharded,
        shards=2),
)}
