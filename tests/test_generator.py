"""Tests for the Poisson flow stream and traffic patterns."""

import random

import pytest

from repro.transport.base import Flow
from repro.units import gbps
from repro.workloads.distributions import WEB_SEARCH
from repro.workloads.patterns import all_to_all, fixed_pairs, incast, permutation
from repro.workloads.streams import PoissonFlowStream


def poisson_list(pattern, cdf, **kwargs):
    return list(PoissonFlowStream(pattern, cdf, **kwargs))


def test_flow_count_and_ids():
    flows = poisson_list(all_to_all(range(8)), WEB_SEARCH, load=0.5,
                         link_rate=gbps(10), n_flows=50, n_senders=8)
    assert len(flows) == 50
    assert [f.flow_id for f in flows] == list(range(50))


def test_start_times_nondecreasing_from_zero():
    flows = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                         link_rate=gbps(10), n_flows=30, n_senders=4)
    times = [f.start_time for f in flows]
    assert times[0] == 0.0
    assert times == sorted(times)


def test_offered_load_approximates_target():
    """Total offered bytes over the arrival horizon approximates
    load x capacity."""
    load, rate, n = 0.5, gbps(10), 3000
    flows = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=load,
                         link_rate=rate, n_flows=n, n_senders=4,
                         size_cap=1_000_000, seed=42)
    horizon = flows[-1].start_time
    offered = sum(f.size for f in flows) * 8 / horizon
    assert offered == pytest.approx(load * 4 * rate, rel=0.15)


def test_seed_determinism():
    a = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                     link_rate=gbps(10), n_flows=20, n_senders=4, seed=1)
    b = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                     link_rate=gbps(10), n_flows=20, n_senders=4, seed=1)
    assert [(f.src, f.dst, f.size, f.start_time) for f in a] == \
           [(f.src, f.dst, f.size, f.start_time) for f in b]


def test_size_cap_enforced():
    flows = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                         link_rate=gbps(10), n_flows=200, n_senders=4,
                         size_cap=250_000)
    assert max(f.size for f in flows) <= 250_000


def test_invalid_args_rejected():
    with pytest.raises(ValueError):
        poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.0,
                     link_rate=gbps(10), n_flows=10)
    with pytest.raises(ValueError):
        poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                     link_rate=gbps(10), n_flows=0)


def test_first_flow_id_offset():
    flows = poisson_list(all_to_all(range(4)), WEB_SEARCH, load=0.5,
                         link_rate=gbps(10), n_flows=5, n_senders=4,
                         first_flow_id=100)
    assert [f.flow_id for f in flows] == [100, 101, 102, 103, 104]


# -- patterns ----------------------------------------------------------------


def test_all_to_all_no_self_pairs():
    sampler = all_to_all(range(6))
    rng = random.Random(0)
    for _ in range(500):
        src, dst = sampler(rng)
        assert src != dst
        assert 0 <= src < 6 and 0 <= dst < 6


def test_all_to_all_requires_two_hosts():
    with pytest.raises(ValueError):
        all_to_all([1])


def test_incast_fixed_receiver():
    sampler = incast(range(5), receiver=4)
    rng = random.Random(0)
    for _ in range(100):
        src, dst = sampler(rng)
        assert dst == 4
        assert src != 4


def test_incast_requires_a_sender():
    with pytest.raises(ValueError):
        incast([3], receiver=3)


def test_fixed_pairs():
    sampler = fixed_pairs([(0, 1), (2, 3)])
    rng = random.Random(0)
    pairs = {sampler(rng) for _ in range(50)}
    assert pairs <= {(0, 1), (2, 3)}


def test_permutation_is_derangement():
    sampler = permutation(range(10), seed=3)
    rng = random.Random(0)
    for _ in range(100):
        src, dst = sampler(rng)
        assert src != dst


def test_permutation_rejects_fewer_than_two_hosts():
    with pytest.raises(ValueError, match="at least two hosts"):
        permutation([4])
    with pytest.raises(ValueError, match="at least two hosts"):
        permutation([])


def test_permutation_rejects_impossible_derangement():
    # duplicate host ids: every shuffle of [1, 1] keeps a fixed point,
    # so the retry budget must run out and raise instead of silently
    # producing src == dst pairs
    with pytest.raises(ValueError, match="no derangement"):
        permutation([1, 1], seed=0)


def test_fixed_pairs_rejects_self_pair():
    with pytest.raises(ValueError, match="src == dst"):
        fixed_pairs([(0, 1), (2, 2)])


def test_poisson_stream_rejects_self_pair_pattern():
    with pytest.raises(ValueError, match="src == dst"):
        poisson_list(lambda rng: (3, 3), WEB_SEARCH, load=0.5,
                     link_rate=gbps(10), n_flows=5)


@pytest.mark.parametrize("make", [
    lambda: all_to_all(range(6)),
    lambda: incast(range(5), receiver=4),
    lambda: fixed_pairs([(0, 1), (2, 3)]),
    lambda: permutation(range(8), seed=3),
])
def test_patterns_pickle_and_draw_identically(make):
    """Patterns ride inside FlowStreams across checkpoint and worker
    boundaries, so they must survive pickle with behaviour intact."""
    import pickle

    original = make()
    clone = pickle.loads(pickle.dumps(original))

    def draws(sampler):
        rng = random.Random(9)
        return [sampler(rng) for _ in range(50)]

    assert draws(original) == draws(clone)
