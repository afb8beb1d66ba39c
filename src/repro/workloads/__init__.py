"""Workloads: flow-size distributions, traffic patterns, and Poisson
arrivals as constant-memory flow streams (:mod:`~repro.workloads.streams`
— see ``docs/workloads.md``)."""

from .distributions import (
    DATA_MINING,
    MEMCACHED_ETC,
    MEMCACHED_W1,
    WEB_SEARCH,
    WORKLOADS,
    YOUTUBE_HTTP,
    EmpiricalCdf,
    sample_sizes,
)
from .streams import (
    ClosedLoopStream,
    ConstantShape,
    DiurnalShape,
    FlowStream,
    LoadShape,
    MaterializedStream,
    MergedStream,
    OnOffShape,
    PoissonFlowStream,
    TenantClass,
    flow_stream,
    parse_load_shape,
    parse_tenant_mix,
    tenant_mix_stream,
)
from .tracefile import (
    TraceFormatError,
    load_trace,
    save_trace,
    trace_scenario_flows,
)
from .patterns import all_to_all, fixed_pairs, incast, permutation

__all__ = [
    "EmpiricalCdf", "WEB_SEARCH", "DATA_MINING", "MEMCACHED_W1",
    "MEMCACHED_ETC", "YOUTUBE_HTTP", "WORKLOADS", "sample_sizes",
    "all_to_all", "incast", "fixed_pairs", "permutation",
    "load_trace", "save_trace", "trace_scenario_flows", "TraceFormatError",
    "FlowStream", "MaterializedStream", "PoissonFlowStream",
    "ClosedLoopStream", "MergedStream", "TenantClass", "tenant_mix_stream",
    "flow_stream", "LoadShape", "ConstantShape", "DiurnalShape",
    "OnOffShape", "parse_load_shape", "parse_tenant_mix",
]
