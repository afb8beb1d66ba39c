"""Constant-memory streaming flow sources.

A materialized flow list makes memory scale with run length, which puts
multi-million-flow "production traffic" runs out of reach.  A
:class:`FlowStream` is the constant-memory flow source: a **picklable
iterator** yielding :class:`~repro.transport.base.Flow` objects in
non-decreasing start-time order, holding O(1) state regardless of how
many flows it will ever produce.  The runner pulls flows lazily (one look-ahead flow
at a time — see ``Simulator.schedule_lazy_chain``), so a streamed run's
resident memory stays flat.

The protocol's three contracts:

* **ordered** — ``start_time`` never decreases between consecutive
  flows (the k-way merge and the lazy scheduler both rely on it);
* **picklable mid-iteration** — the stream's RNG and cursor state
  survive ``pickle``, which is what lets a checkpoint snapshot carry a
  half-consumed stream and lets ``run(resume=)`` stay bit-identical
  (and lets sweep workers construct streams from a spec after the
  fork instead of shipping a flow list);
* **pinned** — for any finite ``n_flows``, ``list(PoissonFlowStream(...))``
  reproduces the list generator it replaced float for float (pinned in
  ``tests/fingerprints.json``).

On top of the single-class Poisson stream this module layers the
methodology of "Traffic Generation for Benchmarking Data Centre
Networks" (PAPERS.md): mixed tenant classes (per-class size CDF and
load share, merged by a k-way heap), load shapes (constant, diurnal
sine, on/off bursts) and open- vs closed-loop arrival modes.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..transport.base import Flow
from .distributions import WORKLOADS, EmpiricalCdf
from .patterns import PairSampler

__all__ = [
    "FlowStream", "MaterializedStream", "PoissonFlowStream",
    "ClosedLoopStream", "MergedStream", "TenantClass",
    "tenant_mix_stream", "flow_stream",
    "LoadShape", "ConstantShape", "DiurnalShape", "OnOffShape",
    "parse_load_shape", "parse_tenant_mix",
]


# ---------------------------------------------------------------------------
# load shapes
# ---------------------------------------------------------------------------


class LoadShape:
    """Time-varying multiplier on the base arrival rate.

    ``rate_at(t)`` returns the instantaneous rate factor at simulated
    time ``t``; a shape should average to ~1.0 over its period so the
    scenario's nominal ``load`` stays the *mean* offered load.  Shapes
    modulate the next inter-arrival gap by the factor at the previous
    arrival (piecewise-constant thinning — exact in the limit of gaps
    short against the shape's period, and free of extra RNG draws, so a
    constant shape stays bit-identical to the unshaped generator).
    """

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


class ConstantShape(LoadShape):
    """Flat load — the §6.1 default."""

    def rate_at(self, t: float) -> float:
        return 1.0

    def describe(self) -> str:
        return "constant"


class DiurnalShape(LoadShape):
    """A day/night sine: ``1 + depth * sin(2*pi*t / period)``.

    Mean 1.0 over a full period; ``depth`` in [0, 1) keeps the rate
    strictly positive.
    """

    def __init__(self, period: float = 86_400.0, depth: float = 0.5):
        if period <= 0.0:
            raise ValueError(f"period must be positive, got {period!r}")
        if not 0.0 <= depth < 1.0:
            raise ValueError(f"depth must be in [0, 1), got {depth!r}")
        self.period = float(period)
        self.depth = float(depth)

    def rate_at(self, t: float) -> float:
        return 1.0 + self.depth * math.sin(2.0 * math.pi * t / self.period)

    def describe(self) -> str:
        return f"diurnal(period={self.period:g}, depth={self.depth:g})"


class OnOffShape(LoadShape):
    """Square-wave bursts: ``on`` seconds at a high rate, ``off``
    seconds at ``off_level`` of it, normalized so the mean is 1.0."""

    def __init__(self, on: float = 1.0, off: float = 1.0,
                 off_level: float = 0.1):
        if on <= 0.0 or off < 0.0:
            raise ValueError(f"bad on/off durations: {on!r}/{off!r}")
        if not 0.0 < off_level <= 1.0:
            # a zero off-level would make the next gap infinite —
            # the stream could never advance past an off window
            raise ValueError(f"off_level must be in (0, 1], got {off_level!r}")
        self.on = float(on)
        self.off = float(off)
        self.off_level = float(off_level)
        period = self.on + self.off
        # solve on*high + off*(high*off_level) = period for mean 1.0
        self._high = period / (self.on + self.off * self.off_level)

    def rate_at(self, t: float) -> float:
        phase = t % (self.on + self.off)
        return self._high if phase < self.on else self._high * self.off_level

    def describe(self) -> str:
        return (f"onoff(on={self.on:g}, off={self.off:g}, "
                f"off_level={self.off_level:g})")


def parse_load_shape(spec: Optional[str]) -> Optional[LoadShape]:
    """Parse a CLI load-shape spec.

    ``constant`` | ``diurnal[:PERIOD[:DEPTH]]`` |
    ``onoff[:ON[:OFF[:OFF_LEVEL]]]``; ``None``/empty means no shape.
    """
    if not spec:
        return None
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "constant":
            if args:
                raise ValueError("constant takes no parameters")
            return ConstantShape()
        if kind == "diurnal":
            return DiurnalShape(*[float(a) for a in args[:2]])
        if kind == "onoff":
            return OnOffShape(*[float(a) for a in args[:3]])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad load-shape spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown load shape {kind!r} (expected constant, diurnal or onoff)")


# ---------------------------------------------------------------------------
# the stream protocol
# ---------------------------------------------------------------------------


class FlowStream:
    """A picklable iterator of :class:`Flow` in start-time order.

    ``n_flows`` is the total the stream will yield, or ``None`` for an
    unbounded stream.  Streams are their own iterators — their cursor
    and RNG state ARE the object state, so pickling a half-consumed
    stream and resuming it elsewhere continues the exact sequence.
    """

    n_flows: Optional[int] = None

    def __iter__(self) -> Iterator[Flow]:
        return self

    def __next__(self) -> Flow:
        raise NotImplementedError

    def materialize(self, limit: Optional[int] = None) -> List[Flow]:
        """Drain (the rest of) the stream into a list.

        ``limit`` bounds the pull and is required for unbounded streams.
        """
        if limit is None:
            if self.n_flows is None:
                raise ValueError(
                    "materialize() on an unbounded stream needs limit=")
            return list(self)
        out: List[Flow] = []
        for flow in self:
            out.append(flow)
            if len(out) >= limit:
                break
        return out


class MaterializedStream(FlowStream):
    """Adapter presenting an existing flow list as a stream (the
    degenerate case — memory already spent)."""

    def __init__(self, flows: Sequence[Flow]):
        self._flows = list(flows)
        for a, b in zip(self._flows, self._flows[1:]):
            if b.start_time < a.start_time:
                raise ValueError("flows must be in start-time order")
        self.n_flows = len(self._flows)
        self._cursor = 0

    def __next__(self) -> Flow:
        if self._cursor >= len(self._flows):
            raise StopIteration
        flow = self._flows[self._cursor]
        self._cursor += 1
        return flow


class PoissonFlowStream(FlowStream):
    """Poisson open-loop flow arrivals at a target network load.

    The paper generates flows "following the Poisson process and
    controls the inter-arrival time of flows to achieve the desired
    network load" (§6.1).  Load is defined against the aggregate edge
    capacity of the ``n_senders`` sending links (1 for incast, where the
    receiver's downlink is the bottleneck): at load ``rho``, edge rate
    ``C = link_rate`` and mean flow size ``E[s]`` bytes, flows arrive at
    ``lambda = rho * n_senders * C / (8 * E[s])`` per second.  With
    ``size_cap`` the rate uses the exact capped mean ``E[min(S, cap)]``
    (see :meth:`EmpiricalCdf.mean`), so the offered load stays correct.

    For a finite ``n_flows`` the output is pinned bit for bit in
    ``tests/fingerprints.json``; ``n_flows=None`` streams forever.
    ``shape`` modulates the instantaneous arrival rate (a factor of
    exactly ``1.0`` leaves the expovariate argument untouched, so a
    :class:`ConstantShape` preserves bit-identity too).
    """

    def __init__(
        self,
        pattern: PairSampler,
        cdf: EmpiricalCdf,
        *,
        load: float,
        link_rate: float,
        n_flows: Optional[int],
        seed: int = 1,
        n_senders: int = 1,
        size_cap: Optional[int] = None,
        start_time: float = 0.0,
        first_flow_id: int = 0,
        shape: Optional[LoadShape] = None,
    ):
        if not 0.0 < load <= 1.5:
            raise ValueError(f"load out of range: {load}")
        if n_flows is not None and n_flows <= 0:
            raise ValueError("n_flows must be positive (None = unbounded)")
        self.pattern = pattern
        self.cdf = cdf
        self.size_cap = size_cap
        self.n_flows = n_flows
        self.first_flow_id = first_flow_id
        self.shape = shape
        self._rng = random.Random(seed)
        mean_size = cdf.mean(size_cap)
        rate = load * n_senders * link_rate / (8.0 * mean_size)  # flows/sec
        # the pinned double-reciprocal arithmetic: do not simplify
        self._mean_gap = 1.0 / rate
        self._now = start_time
        self._emitted = 0

    def __next__(self) -> Flow:
        if self.n_flows is not None and self._emitted >= self.n_flows:
            raise StopIteration
        rng = self._rng
        if self._emitted:
            lambd = 1.0 / self._mean_gap
            if self.shape is not None:
                factor = self.shape.rate_at(self._now)
                if factor != 1.0:
                    lambd *= factor
            self._now += rng.expovariate(lambd)
        src, dst = self.pattern(rng)
        if src == dst:
            raise ValueError(
                f"pattern produced src == dst == {src} for flow "
                f"{self.first_flow_id + self._emitted}")
        size = self.cdf.sample(rng, self.size_cap)
        flow = Flow(flow_id=self.first_flow_id + self._emitted,
                    src=src, dst=dst, size=size, start_time=self._now)
        self._emitted += 1
        return flow


class ClosedLoopStream(FlowStream):
    """Closed-loop arrivals: a fixed pool of ``n_users`` request loops.

    Each user issues a flow, waits out a think time, then issues the
    next — so offered traffic self-limits instead of queueing without
    bound the way an open-loop process does at overload.  Because a
    pre-scheduled stream cannot observe real completions, the service
    half of the cycle uses the flow's ideal transfer time at the edge
    rate (``size * 8 / link_rate``) as a lower bound: a user never
    launches its next flow before the previous one *could* have
    finished at line rate.  Think times are exponential with mean
    ``n_users / lambda`` so the aggregate mean arrival rate matches the
    open-loop stream at the same nominal load.
    """

    def __init__(
        self,
        pattern: PairSampler,
        cdf: EmpiricalCdf,
        *,
        load: float,
        link_rate: float,
        n_flows: Optional[int],
        seed: int = 1,
        n_senders: int = 1,
        size_cap: Optional[int] = None,
        start_time: float = 0.0,
        first_flow_id: int = 0,
        shape: Optional[LoadShape] = None,
        n_users: int = 8,
    ):
        if not 0.0 < load <= 1.5:
            raise ValueError(f"load out of range: {load}")
        if n_flows is not None and n_flows <= 0:
            raise ValueError("n_flows must be positive (None = unbounded)")
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users!r}")
        self.pattern = pattern
        self.cdf = cdf
        self.size_cap = size_cap
        self.n_flows = n_flows
        self.first_flow_id = first_flow_id
        self.shape = shape
        self.link_rate = link_rate
        mean_size = cdf.mean(size_cap)
        rate = load * n_senders * link_rate / (8.0 * mean_size)
        self.mean_think = n_users / rate
        self._rngs = [random.Random(_child_seed(seed, u))
                      for u in range(n_users)]
        # (next arrival time, user) — user index breaks exact-time ties
        self._heap: List[Tuple[float, int]] = [
            (start_time + self._rngs[u].expovariate(1.0 / self.mean_think), u)
            for u in range(n_users)]
        heapq.heapify(self._heap)
        self._emitted = 0

    def __next__(self) -> Flow:
        if self.n_flows is not None and self._emitted >= self.n_flows:
            raise StopIteration
        now, user = heapq.heappop(self._heap)
        rng = self._rngs[user]
        src, dst = self.pattern(rng)
        if src == dst:
            raise ValueError(
                f"pattern produced src == dst == {src} for flow "
                f"{self.first_flow_id + self._emitted}")
        size = self.cdf.sample(rng, self.size_cap)
        flow = Flow(flow_id=self.first_flow_id + self._emitted,
                    src=src, dst=dst, size=size, start_time=now)
        think = rng.expovariate(1.0 / self.mean_think)
        if self.shape is not None:
            factor = self.shape.rate_at(now)
            if factor != 1.0:
                think /= factor
        service = size * 8.0 / self.link_rate
        heapq.heappush(self._heap, (now + max(think, service), user))
        self._emitted += 1
        return flow


class MergedStream(FlowStream):
    """K-way heap merge of ordered streams into one ordered stream.

    Holds exactly one look-ahead flow per source; exact-time ties break
    by source index, so the merge is deterministic.  Raises if a source
    violates the ordered contract mid-stream.
    """

    def __init__(self, streams: Sequence[FlowStream]):
        self._streams = list(streams)
        if not self._streams:
            raise ValueError("MergedStream needs at least one source")
        total = 0
        for stream in self._streams:
            if stream.n_flows is None:
                total = None
                break
            total += stream.n_flows
        self.n_flows = total
        self._heap: List[Tuple[float, int, Flow]] = []
        for idx, stream in enumerate(self._streams):
            flow = next(stream, None)
            if flow is not None:
                self._heap.append((flow.start_time, idx, flow))
        heapq.heapify(self._heap)

    def __next__(self) -> Flow:
        if not self._heap:
            raise StopIteration
        time, idx, flow = heapq.heappop(self._heap)
        successor = next(self._streams[idx], None)
        if successor is not None:
            if successor.start_time < time:
                raise ValueError(
                    f"merged source {idx} went backwards in time "
                    f"({successor.start_time} < {time})")
            heapq.heappush(self._heap,
                           (successor.start_time, idx, successor))
        return flow


# ---------------------------------------------------------------------------
# tenant mixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantClass:
    """One tenant class of a mixed workload: a size distribution plus
    the share of the total offered load it contributes.  ``size_cap``
    overrides the mix-wide cap for this class when set."""

    name: str
    cdf: EmpiricalCdf
    share: float
    size_cap: Optional[int] = None


def _child_seed(seed: int, index: int) -> int:
    """Deterministic, well-separated per-substream seed (golden-ratio
    increment; plain arithmetic so it never depends on PYTHONHASHSEED)."""
    return (seed * 1_000_003 + 0x9E3779B1 * (index + 1)) % (2 ** 63)


def _split_counts(n_flows: int, shares: Sequence[float]) -> List[int]:
    """Apportion ``n_flows`` across shares (largest remainder, total
    preserved exactly)."""
    total_share = sum(shares)
    quotas = [n_flows * s / total_share for s in shares]
    counts = [int(q) for q in quotas]
    remainder = n_flows - sum(counts)
    order = sorted(range(len(shares)), key=lambda i: quotas[i] - counts[i],
                   reverse=True)
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def tenant_mix_stream(
    classes: Sequence[TenantClass],
    pattern: PairSampler,
    *,
    load: float,
    link_rate: float,
    n_flows: Optional[int],
    seed: int = 1,
    n_senders: int = 1,
    size_cap: Optional[int] = None,
    start_time: float = 0.0,
    first_flow_id: int = 0,
    shape: Optional[LoadShape] = None,
) -> MergedStream:
    """Mixed tenant classes merged into one ordered stream.

    Class ``c`` contributes ``load * share_c`` of the link load with its
    own size CDF (so its arrival rate follows from its own mean size),
    a private RNG stream (seeded from ``seed`` and the class index) and
    a contiguous, disjoint flow-id block.  ``n_flows`` is apportioned
    across classes by share (largest remainder) and must be finite —
    unbounded classes could not keep their id blocks disjoint.
    """
    classes = list(classes)
    if not classes:
        raise ValueError("tenant_mix_stream needs at least one class")
    if n_flows is None:
        raise ValueError("tenant mixes need a finite n_flows "
                         "(disjoint per-class flow-id blocks)")
    for cls in classes:
        if cls.share <= 0.0:
            raise ValueError(
                f"tenant class {cls.name!r}: share must be positive")
    total_share = sum(cls.share for cls in classes)
    counts = _split_counts(n_flows, [cls.share for cls in classes])
    streams: List[FlowStream] = []
    next_id = first_flow_id
    for idx, (cls, count) in enumerate(zip(classes, counts)):
        if count == 0:
            continue
        streams.append(PoissonFlowStream(
            pattern, cls.cdf,
            load=load * cls.share / total_share,
            link_rate=link_rate,
            n_flows=count,
            seed=_child_seed(seed, idx),
            n_senders=n_senders,
            size_cap=cls.size_cap if cls.size_cap is not None else size_cap,
            start_time=start_time,
            first_flow_id=next_id,
            shape=shape,
        ))
        next_id += count
    return MergedStream(streams)


def parse_tenant_mix(spec: Optional[str]) -> Optional[List[TenantClass]]:
    """Parse a CLI tenant-mix spec: ``name:share[,name:share...]`` with
    workload names from :data:`~repro.workloads.distributions.WORKLOADS`
    (e.g. ``web-search:0.7,memcached-w1:0.3``)."""
    if not spec:
        return None
    classes: List[TenantClass] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, share_text = item.partition(":")
        if not sep:
            raise ValueError(
                f"bad tenant-mix entry {item!r} (expected name:share)")
        if name not in WORKLOADS:
            raise ValueError(
                f"unknown workload {name!r} in tenant mix (choose from "
                f"{', '.join(sorted(WORKLOADS))})")
        try:
            share = float(share_text)
        except ValueError as exc:
            raise ValueError(
                f"bad share {share_text!r} for tenant {name!r}") from exc
        if share <= 0.0:
            raise ValueError(f"tenant {name!r}: share must be positive")
        classes.append(TenantClass(name=name, cdf=WORKLOADS[name],
                                   share=share))
    if not classes:
        raise ValueError(f"empty tenant-mix spec {spec!r}")
    return classes


# ---------------------------------------------------------------------------
# one front door
# ---------------------------------------------------------------------------


def flow_stream(
    pattern: PairSampler,
    cdf: EmpiricalCdf,
    *,
    load: float,
    link_rate: float,
    n_flows: Optional[int],
    seed: int = 1,
    n_senders: int = 1,
    size_cap: Optional[int] = None,
    start_time: float = 0.0,
    first_flow_id: int = 0,
    shape: Optional[LoadShape] = None,
    tenants: Optional[Sequence[TenantClass]] = None,
    arrivals: str = "open",
    closed_users: int = 8,
) -> FlowStream:
    """Build the right stream for a scenario's knobs.

    Plain open-loop single-class → :class:`PoissonFlowStream`;
    ``tenants`` →
    :func:`tenant_mix_stream`; ``arrivals="closed"`` →
    :class:`ClosedLoopStream` (single class only — per-tenant closed
    loops would need per-class user pools, which nothing needs yet).
    """
    if arrivals not in ("open", "closed"):
        raise ValueError(
            f"arrivals must be 'open' or 'closed', got {arrivals!r}")
    if arrivals == "closed":
        if tenants:
            raise ValueError("closed-loop arrivals do not combine with "
                             "tenant mixes (open-loop only)")
        return ClosedLoopStream(
            pattern, cdf, load=load, link_rate=link_rate, n_flows=n_flows,
            seed=seed, n_senders=n_senders, size_cap=size_cap,
            start_time=start_time, first_flow_id=first_flow_id,
            shape=shape, n_users=closed_users)
    if tenants:
        return tenant_mix_stream(
            tenants, pattern, load=load, link_rate=link_rate,
            n_flows=n_flows, seed=seed, n_senders=n_senders,
            size_cap=size_cap, start_time=start_time,
            first_flow_id=first_flow_id, shape=shape)
    return PoissonFlowStream(
        pattern, cdf, load=load, link_rate=link_rate, n_flows=n_flows,
        seed=seed, n_senders=n_senders, size_cap=size_cap,
        start_time=start_time, first_flow_id=first_flow_id, shape=shape)
