"""Seeded, variance-reduced flow inputs for the benchmark workloads.

The benchmark owns its inputs: it turns ``--seed`` into a flow set and
hands the simulator only the flows.  Plain Poisson sampling makes the
offered work of a few hundred web-search flows swing by tens of percent
from seed to seed (one extra 2 MB flow is a lot of packets), which would
drown every host-time and simulated metric in input noise.  So sizes and
inter-arrival gaps are *stratified*: flow ``i`` takes its size quantile
from the middle of stratum ``perm[i]`` of ``n`` equal strata and its gap
quantile from the middle of another shuffled stratum.  Every seed so
offers the same sizes and gaps, hence the same bytes over nearly the
same span (the gap drawn for the first flow goes unused), while pairs,
the order of sizes and where each gap falls vary.
Sizes come from the program's :class:`~repro.workloads.EmpiricalCdf`
and pairs from its pattern samplers, exactly as the program's own
generator draws them.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.transport.base import Flow
from repro.workloads.distributions import EmpiricalCdf
from repro.workloads.patterns import PairSampler
from repro.workloads.streams import FlowStream


class _Quantile:
    """An ``rng`` stand-in whose ``random()`` returns a fixed quantile,
    so :meth:`EmpiricalCdf.sample` maps a chosen ``u`` through the
    program's own inverse CDF."""

    __slots__ = ("u",)

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


def _strata(rng: random.Random, n: int) -> List[float]:
    """The midpoints of ``n`` equal strata, shuffled."""
    order = list(range(n))
    rng.shuffle(order)
    return [(k + 0.5) / n for k in order]


class StratifiedPoissonStream(FlowStream):
    """Open-loop arrivals at ``load`` with stratified sizes and gaps.

    The mean gap is the one :func:`repro.workloads.poisson_flows` uses
    for the same load, so offered load matches the program's generator.
    The whole stream is fixed by ``seed``; a flow list is
    ``list(stream)`` of the same stream.
    """

    def __init__(self, pattern: PairSampler, cdf: EmpiricalCdf, *,
                 load: float, link_rate: float, n_flows: int,
                 n_senders: int, seed: int,
                 size_cap: Optional[int] = None) -> None:
        if n_flows <= 0:
            raise ValueError(f"n_flows must be positive, got {n_flows}")
        rng = random.Random(seed)
        self.n_flows = n_flows
        self._pattern = pattern
        self._cdf = cdf
        self._cap = size_cap
        self._rng = rng
        self._size_u = _strata(rng, n_flows)
        self._gap_u = _strata(rng, n_flows)
        rate = load * n_senders * link_rate / (8.0 * cdf.mean(size_cap))
        self._mean_gap = 1.0 / rate
        self._now = 0.0
        self._emitted = 0

    def __next__(self) -> Flow:
        i = self._emitted
        if i >= self.n_flows:
            raise StopIteration
        if i:
            self._now -= self._mean_gap * math.log1p(-self._gap_u[i])
        src, dst = self._pattern(self._rng)
        size = self._cdf.sample(_Quantile(self._size_u[i]), self._cap)
        self._emitted = i + 1
        return Flow(flow_id=i, src=src, dst=dst, size=size,
                    start_time=self._now)
