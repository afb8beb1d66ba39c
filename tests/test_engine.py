"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


def test_schedule_and_run_in_order():
    sim = Simulator()
    fired = []
    sim.schedule(2e-3, fired.append, "b")
    sim.schedule(1e-3, fired.append, "a")
    sim.schedule(3e-3, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == pytest.approx(3e-3)


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    fired = []
    for label in range(10):
        sim.schedule(1e-3, fired.append, label)
    sim.run()
    assert fired == list(range(10))


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1e-9, lambda: None)


def test_tiny_negative_delay_clamped_to_zero():
    # float round-off from `t_abs - now` arithmetic must not kill a run
    sim = Simulator()
    fired = []
    sim.schedule(-1e-15, fired.append, 1)
    sim.run()
    assert fired == [1]
    assert sim.now == 0.0


def test_genuinely_negative_delay_still_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1e-6, lambda: None)


def test_zero_delay_allowed():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, fired.append, 1)
    sim.run()
    assert fired == [1]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1e-3, fired.append, "x")
    sim.schedule(0.5e-3, fired.append, "y")
    event.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1e-3, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.run() == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1e-3, fired.append, "early")
    sim.schedule(5e-3, fired.append, "late")
    sim.run(until=2e-3)
    assert fired == ["early"]
    assert sim.now == pytest.approx(2e-3)
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_heap_empties():
    sim = Simulator()
    sim.run(until=7e-3)
    assert sim.now == pytest.approx(7e-3)


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 4:
            sim.schedule(1e-6, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1e-3, lambda: sim.schedule_at(5e-3, fired.append, "x"))
    sim.run()
    assert fired == ["x"]
    assert sim.now == pytest.approx(5e-3)


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(i * 1e-6, lambda: None)
    assert sim.run(max_events=3) == 3
    assert sim.run() == 7


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1e-6, fired.append, 1)
    sim.schedule(2e-6, fired.append, 2)
    assert sim.step() is True
    assert fired == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_peek_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule(1e-6, lambda: None)
    sim.schedule(2e-6, lambda: None)
    first.cancel()
    assert sim.peek_time() == pytest.approx(2e-6)


def test_events_run_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i * 1e-6, lambda: None)
    sim.run()
    assert sim.events_run == 5


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=50))
def test_events_always_fire_in_nondecreasing_time_order(delays):
    """Property: whatever the scheduling order, execution time is
    non-decreasing."""
    sim = Simulator()
    times = []
    for delay in delays:
        sim.schedule(delay, lambda: times.append(sim.now))
    sim.run()
    assert len(times) == len(delays)
    assert times == sorted(times)


def test_live_pending_excludes_cancelled_entries():
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    dead = sim.schedule(2e-3, lambda: None)
    dead.cancel()
    assert sim.pending == 2       # raw heap length counts the corpse
    assert sim.live_pending == 1  # diagnostics must not


def test_budget_break_does_not_jump_clock():
    """Regression: a ``run(until, max_events)`` slice that stops on the
    event budget must NOT fast-forward the clock past still-pending
    events — the next slice would then execute them with time going
    backwards, corrupting every RTT sample taken in between."""
    sim = Simulator()
    for i in range(5):
        sim.schedule(i * 1e-3, lambda: None)
    sim.run(until=10e-3, max_events=2)
    # stopped at the second event's time, not at `until`
    assert sim.now == pytest.approx(1e-3)
    # resuming drains the rest and only then advances to `until`
    times = []
    sim.schedule_at(2e-3, lambda: times.append(sim.now))
    sim.run(until=10e-3)
    assert times == [pytest.approx(2e-3)]
    assert sim.now == pytest.approx(10e-3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                max_size=40), st.data())
def test_clock_monotonic_across_sliced_budgeted_draining(delays, data):
    """Property: however a drain is sliced (`until` steps) and budgeted
    (`max_events`), the observable clock — event fire times and the
    post-slice ``sim.now`` — never decreases, and no event is lost."""
    sim = Simulator()
    observed = []  # interleaved event fire times and slice-end clocks
    for delay in delays:
        sim.schedule(delay, lambda: observed.append(sim.now))
    fired_total = 0
    t = 0.0
    while sim.peek_time() is not None:
        t += data.draw(st.floats(min_value=0.01, max_value=0.4))
        budget = data.draw(st.integers(min_value=1, max_value=4))
        fired_total += sim.run(until=t, max_events=budget)
        observed.append(sim.now)
    assert fired_total == len(delays)
    assert observed == sorted(observed)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                max_size=30), st.data())
def test_cancelling_any_subset_fires_exactly_the_rest(delays, data):
    sim = Simulator()
    events = [sim.schedule(d, lambda: None) for d in delays]
    to_cancel = data.draw(st.sets(
        st.integers(min_value=0, max_value=len(events) - 1)))
    for idx in to_cancel:
        events[idx].cancel()
    executed = sim.run()
    assert executed == len(events) - len(to_cancel)


# -- event free-list -------------------------------------------------------


def test_recycled_event_object_is_reused():
    """A fired recycle-mode event returns to the pool and is handed out
    by the next schedule call."""
    sim = Simulator()
    fired = []
    first = sim.schedule_recycled(1e-3, fired.append, 1)
    sim.run()
    second = sim.schedule(1e-3, fired.append, 2)
    assert second is first
    sim.run()
    assert fired == [1, 2]


def test_plain_schedule_events_are_not_pooled():
    """Callers of plain schedule() may keep the handle forever, so those
    events must never be recycled out from under them."""
    sim = Simulator()
    first = sim.schedule(1e-3, lambda: None)
    sim.run()
    second = sim.schedule(1e-3, lambda: None)
    assert second is not first


def test_cancelled_recycled_event_is_not_pooled():
    """Cancelled events never enter the pool: the canceller may still
    hold the reference."""
    sim = Simulator()
    first = sim.schedule_recycled(1e-3, lambda: None)
    first.cancel()
    sim.run()
    second = sim.schedule(1e-3, lambda: None)
    assert second is not first


def test_cancel_after_fire_is_noop_for_live_counter():
    """The run loop marks fired events, so a late cancel() on a handle
    the caller kept must not decrement the live counter."""
    sim = Simulator()
    event = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    sim.run(until=1.5e-3)
    assert sim.live_pending == 1
    event.cancel()
    event.cancel()
    assert sim.live_pending == 1
    live, min_live = sim.audit_heap()
    assert live == 1
    assert min_live == 2e-3


# -- pure peek / explicit compaction ---------------------------------------


def test_peek_time_does_not_mutate_heap():
    """peek_time() is a pure read even when the head is a corpse;
    compact() is the explicit way to drop cancelled heads."""
    sim = Simulator()
    head = sim.schedule(1e-3, lambda: None)
    sim.schedule(2e-3, lambda: None)
    head.cancel()
    entries_before = sim.pending
    assert sim.peek_time() == 2e-3
    assert sim.pending == entries_before        # nothing popped
    assert sim.compact() == 1                   # explicit corpse removal
    assert sim.pending == entries_before - 1
    assert sim.peek_time() == 2e-3


def test_compact_on_clean_heap_is_noop():
    sim = Simulator()
    sim.schedule(1e-3, lambda: None)
    assert sim.compact() == 0
    assert sim.pending == 1


def test_peak_pending_high_water_mark():
    sim = Simulator()
    for i in range(5):
        sim.schedule((i + 1) * 1e-3, lambda: None)
    assert sim.peak_pending == 5
    sim.run()
    assert sim.pending == 0
    assert sim.peak_pending == 5


# -- reserved seqs and event chains ----------------------------------------


def test_reserved_seq_keeps_tie_break_position():
    """An event inserted late with a reserved seq fires in the position
    the reservation claimed, not its insertion time."""
    sim = Simulator()
    fired = []
    seq = sim.reserve_seq()                       # claims first place
    sim.schedule(1e-3, fired.append, "second")    # same fire time
    sim.schedule_reserved(1e-3, seq, fired.append, "first")
    sim.run()
    assert fired == ["first", "second"]


def test_event_chain_is_one_heap_entry_and_fires_in_order():
    sim = Simulator()
    fired = []
    chain = sim.schedule_lazy_chain([
        (1e-3, fired.append, ("a",)),
        (2e-3, fired.append, ("b",)),
        (3e-3, fired.append, ("c",)),
    ], count=3)
    assert sim.pending == 1                       # N entries, 1 in heap
    sim.run(until=1.5e-3)
    assert fired == ["a"]
    assert sim.pending == 1                       # successor armed
    assert not chain.exhausted
    sim.run()
    assert fired == ["a", "b", "c"]
    assert chain.exhausted


def test_event_chain_matches_individual_schedules():
    """Chained and individually scheduled events interleave identically
    with a same-instant competitor (seqs reserved at declaration)."""

    def fire_order(use_chain):
        sim = Simulator()
        fired = []
        if use_chain:
            sim.schedule_lazy_chain([(1e-3, fired.append, ("x",))], count=1)
        else:
            sim.schedule_at(1e-3, fired.append, "x")
        sim.schedule_at(1e-3, fired.append, "y")
        sim.run()
        return fired

    assert fire_order(True) == fire_order(False) == ["x", "y"]


def test_event_chain_cancel_stops_remaining():
    sim = Simulator()
    fired = []
    chain = sim.schedule_lazy_chain([
        (1e-3, fired.append, ("a",)),
        (2e-3, fired.append, ("b",)),
    ], count=2)
    sim.run(until=1.5e-3)
    chain.cancel()
    sim.run()
    assert fired == ["a"]
    assert sim.live_pending == 0


def test_event_chain_rejects_unsorted_or_miscounted_sources():
    # an out-of-order entry is armed after its time has passed
    sim = Simulator()
    with pytest.raises(ValueError, match="into the past"):
        sim.schedule_lazy_chain([(2e-3, print, ()), (1e-3, print, ())])
        sim.run()
    sim = Simulator()
    sim.schedule_lazy_chain([(1e-3, print, ())], count=2)
    with pytest.raises(ValueError, match="short of its declared count"):
        sim.run()
