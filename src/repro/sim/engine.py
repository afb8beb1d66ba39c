"""Discrete-event simulation engine.

A deliberately small, fast core: a binary heap of ``(time, seq, Event)``
entries.  ``seq`` is a monotonically increasing insertion counter so that
events scheduled for the same instant fire in insertion order, which makes
every simulation bit-for-bit reproducible.

Events are cancellable: :meth:`Event.cancel` marks the entry dead and the
run loop skips it (lazy deletion), which is the standard way to get O(log n)
cancellation out of ``heapq``.

Three hot-path mechanisms keep per-packet overhead down (see
``docs/architecture.md`` §"The hot path"):

* an **event free-list** — every ``schedule`` draws from a pool of dead
  Event objects; events scheduled through
  :meth:`Simulator.schedule_recycled` / :meth:`Simulator.schedule_reserved`
  are returned to the pool after firing, cutting allocation churn on the
  packet path.  Returning is opt-in because a recycled object may be
  handed out again: only call sites that provably drop their reference
  before the event fires (the port serializer, the wire head arrival)
  may use it.
* **reserved sequence numbers** — :meth:`Simulator.reserve_seq` hands out
  a tie-break seq *now* for an event inserted *later* via
  :meth:`Simulator.schedule_reserved`.  The wire uses this to keep
  exactly one heap entry per link while firing arrivals with the exact
  ``(time, seq)`` keys one event per packet would have had.
* an **event chain** (:class:`LazyEventChain`) — a time-ordered source
  of future events (the runner's flow-start schedule) keeps only its
  earliest entry resident in the heap; each firing arms the next.  With
  a declared count it reserves its whole seq block up front, so entries
  fire with the keys individual ``schedule_at`` calls would have had.
  Same determinism argument as the wire, applied to the control plane.
"""

from __future__ import annotations

import gc
import heapq
import sys
from typing import Any, Callable, Iterable, Optional, Tuple

# Events returned to the free-list beyond this are dropped to the GC; the
# pool only needs to cover the handful of port/wire events live at once.
FREE_LIST_MAX = 1024

_INF = float("inf")
_NO_BUDGET = sys.maxsize


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    The run loop re-uses ``cancelled`` as the fired marker (set just
    before the callback runs), so :meth:`cancel` is a no-op on an event
    that already went off — callers may keep a handle and cancel it
    late without corrupting the engine's live-event counter.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "recycle", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        # opt-in free-list return (see module docstring)
        self.recycle = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once,
        and a no-op on an event that has already fired."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.9f} {name} {state}>"


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        sim.schedule(1e-6, callback, arg1, arg2)
        sim.run(until=0.1)

    ``sim.now`` is the current simulation time in seconds.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_run", "_running",
                 "_live", "_free", "peak_pending")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._events_run: int = 0
        self._running: bool = False
        # live (uncancelled, unfired) events — maintained incrementally
        # (schedule: +1, cancel/fire: -1) so diagnostics never scan.
        # The run loops settle their fires in one batch at exit, so the
        # counter may read high *during* a callback; every exact
        # consumer (watchdog, auditor) reads between runs.
        self._live: int = 0
        # dead-Event pool (see module docstring)
        self._free: list = []
        # high-water mark of raw heap entries, updated on every push
        self.peak_pending: int = 0

    # -- checkpointing ---------------------------------------------------

    def __getstate__(self) -> dict:
        """Snapshot for :mod:`repro.resilience` checkpoints.

        The free-list is deliberately excluded: pooled Events are dead
        objects whose only purpose is allocation reuse, and whether an
        event comes from the pool or a fresh allocation cannot change
        behaviour — dropping them keeps snapshots lean.  ``_running``
        is reset because checkpoints are only taken between drain
        slices, never from inside a callback.
        """
        if self._running:
            raise RuntimeError(
                "cannot snapshot a Simulator from inside a running callback; "
                "checkpoints must be taken between drain slices")
        return {
            "now": self.now,
            "_heap": self._heap,
            "_seq": self._seq,
            "_events_run": self._events_run,
            "_live": self._live,
            "peak_pending": self.peak_pending,
        }

    def __setstate__(self, state: dict) -> None:
        self.now = state["now"]
        self._heap = state["_heap"]
        self._seq = state["_seq"]
        self._events_run = state["_events_run"]
        self._live = state["_live"]
        self.peak_pending = state["peak_pending"]
        self._running = False
        self._free = []

    # -- scheduling -----------------------------------------------------

    # Delays more negative than this are genuine scheduling-into-the-past
    # bugs; anything closer to zero is floating-point residue from
    # ``schedule_at(time - now)`` and is clamped to "now".
    NEGATIVE_DELAY_TOLERANCE = -1e-12

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            if delay < self.NEGATIVE_DELAY_TOLERANCE:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            delay = 0.0
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
            event.recycle = False
        else:
            event = Event(time, fn, args, self)
        self._seq += 1
        self._live += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, event))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return event

    def schedule_recycled(self, delay: float, fn: Callable[..., Any],
                          *args: Any) -> Event:
        """Like :meth:`schedule`, but the event returns to the free-list
        after firing.  The caller MUST NOT keep a reference past the
        callback (the object may be handed out again by a later
        ``schedule``); cancelled events are never recycled."""
        # full copy of schedule() — this runs once per transmitted
        # packet, so it does not pay a delegation frame
        if delay < 0:
            if delay < self.NEGATIVE_DELAY_TOLERANCE:
                raise ValueError(f"cannot schedule into the past (delay={delay})")
            delay = 0.0
        time = self.now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args, self)
        event.recycle = True
        self._seq += 1
        self._live += 1
        heap = self._heap
        heapq.heappush(heap, (time, self._seq, event))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, fn, *args)

    def reserve_seq(self) -> int:
        """Claim the next insertion-order seq without scheduling yet.

        Pair with :meth:`schedule_reserved`.  The wire reserves a seq the
        moment a packet finishes serializing (exactly when a per-packet
        arrival event would have been scheduled), then inserts the head
        event later — so same-instant tie-breaking is unchanged.
        """
        self._seq += 1
        return self._seq

    def reserve_seq_block(self, n: int) -> int:
        """Claim ``n`` consecutive seqs at once; returns the first.

        The flow-start scheduler (:class:`LazyEventChain` with a
        declared ``count``) reserves its whole seq block up front —
        exactly the counter values a loop of ``schedule_at`` calls over
        the same entries would have claimed — then consumes them one by
        one as the source is pulled.  That is what makes a streamed run
        bit-identical to one over the materialized list: same-instant
        tie-breaking cannot tell the two apart.
        """
        if n < 0:
            raise ValueError(f"cannot reserve {n} seqs")
        first = self._seq + 1
        self._seq += n
        return first

    def schedule_reserved(self, time: float, seq: int,
                          fn: Callable[..., Any], *args: Any) -> Event:
        """Insert an event at absolute ``time`` with a pre-reserved seq.

        ``time`` must not lie in the past and ``seq`` must come from
        :meth:`reserve_seq`; the event is free-list recycled after it
        fires.  No new seq is consumed, so surrounding ``schedule``
        calls see the exact counter values they would have seen had the
        event been inserted at reservation time.
        """
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, fn, args, self)
        event.recycle = True
        self._live += 1
        heap = self._heap
        heapq.heappush(heap, (time, seq, event))
        if len(heap) > self.peak_pending:
            self.peak_pending = len(heap)
        return event

    def schedule_lazy_chain(self, entries: Iterable[Tuple],
                            count: Optional[int] = None) -> "LazyEventChain":
        """Declare future events held as ONE heap entry, pulled lazily.

        ``entries`` yields ``(absolute_time, fn, args)`` tuples in
        non-decreasing time order (sort a list first; a lazy source
        cannot be sorted).  ``count``, when given, must be the exact
        number of entries the source will yield: the chain pre-reserves
        that many seqs, so firing order is bit-identical to a loop of
        ``schedule_at`` calls over the same entries.  ``count=None``
        claims seqs lazily — for unbounded sources, where no finite
        loop exists to be identical to.
        """
        return LazyEventChain(self, entries, count)

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event heap.

        Stops when the heap is empty, when simulated time would pass
        ``until``, or after ``max_events`` events.  Returns the number of
        events executed by this call.
        """
        self._running = True
        # The loop allocates heavily (heap entries, packets, ACKs) but
        # creates no reference cycles, so the generational collector
        # only burns time scanning survivors — suspend it for the drain.
        # (~1k gen-0 collections per medium run otherwise.)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if max_events is None:
                if until is None:
                    executed = self._run_unbounded()
                else:
                    executed = self._run_until(until)
            else:
                executed = self._run_bounded(until, max_events)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            # Fast-forward the clock only when the heap really was drained
            # up to ``until``.  If the loop broke on ``max_events`` there
            # are still live events at or before ``until``; jumping past
            # them would make the next slice run with a clock *behind*
            # ``self.now`` — time must never go backwards.
            next_time = self.peek_time()
            if next_time is None or next_time > until:
                self.now = until
        self._events_run += executed
        return executed

    def _run_unbounded(self) -> int:
        """Drain everything: no bound checks anywhere in the loop."""
        heap = self._heap
        pop = heapq.heappop
        free = self._free
        executed = 0
        while heap:
            time, _seq, event = pop(heap)
            if event.cancelled:
                continue
            event.cancelled = True  # fired; late cancel() is now a no-op
            self.now = time
            executed += 1
            event.fn(*event.args)
            if event.recycle:
                event.fn = None
                event.args = None  # drop packet refs before pooling
                if len(free) < FREE_LIST_MAX:
                    free.append(event)
        self._live -= executed
        return executed

    def _run_until(self, until: float) -> int:
        """Time-sliced drain with no event budget — the common slice loop
        (the runner drains in ~200 slices per run), so it carries no
        per-iteration budget compare.  An overshooting head is pushed
        straight back (same key — order is untouched)."""
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        free = self._free
        executed = 0
        while heap:
            entry = pop(heap)
            event = entry[2]
            if event.cancelled:
                continue
            time = entry[0]
            if time > until:
                push(heap, entry)
                break
            event.cancelled = True  # fired; late cancel() is now a no-op
            self.now = time
            executed += 1
            event.fn(*event.args)
            if event.recycle:
                event.fn = None
                event.args = None  # drop packet refs before pooling
                if len(free) < FREE_LIST_MAX:
                    free.append(event)
        self._live -= executed
        return executed

    def _run_bounded(self, until: Optional[float],
                     max_events: Optional[int]) -> int:
        """Slice drain: ``None`` bounds become +inf/maxsize sentinels so
        the loop compares plain numbers instead of branching on None.
        An overshooting head is pushed straight back (same key — order
        is untouched) rather than peeked at every iteration."""
        heap = self._heap
        pop = heapq.heappop
        free = self._free
        until_f = _INF if until is None else until
        budget = _NO_BUDGET if max_events is None else max_events
        executed = 0
        while heap and executed < budget:
            entry = pop(heap)
            event = entry[2]
            if event.cancelled:
                continue
            time = entry[0]
            if time > until_f:
                heapq.heappush(heap, entry)
                break
            event.cancelled = True
            self.now = time
            executed += 1
            event.fn(*event.args)
            if event.recycle:
                event.fn = None
                event.args = None
                if len(free) < FREE_LIST_MAX:
                    free.append(event)
        self._live -= executed
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            event.cancelled = True
            self._live -= 1
            self.now = time
            event.fn(*event.args)
            self._events_run += 1
            if event.recycle:
                event.fn = None
                event.args = None
                if len(self._free) < FREE_LIST_MAX:
                    self._free.append(event)
            return True
        return False

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or None when the heap is empty.

        Pure read: unlike the historical implementation this never pops
        lazily-cancelled entries, so callers polling between slices (the
        runner watchdog) observe engine state without mutating it.  Use
        :meth:`compact` when you actually want corpses swept.
        """
        heap = self._heap
        if heap:
            head = heap[0]
            if not head[2].cancelled:
                return head[0]
        if self._live == 0:
            return None
        # cancelled head: scan for the earliest live entry (rare — the
        # run loop pops corpses for free as it drains)
        best: Optional[float] = None
        for time, _seq, event in heap:
            if not event.cancelled and (best is None or time < best):
                best = time
        return best

    def peek_horizon(self, lookahead: float) -> Optional[float]:
        """Earliest time any *new* cross-boundary effect of the next
        event could land: ``peek_time() + lookahead``, or None when the
        heap is dead.

        This is the conservative window bound a sharded run
        (:mod:`repro.sim.shard`) may safely advance to on its own: every
        export produced by events at ``t >= peek_time()`` arrives at a
        peer no earlier than ``t + lookahead``.  Pure read, like
        :meth:`peek_time`.
        """
        next_time = self.peek_time()
        if next_time is None:
            return None
        return next_time + lookahead

    def compact(self) -> int:
        """Explicitly pop cancelled entries off the heap head; returns
        how many corpses were removed.  Never required for correctness —
        the run loop skips corpses lazily — but callers that just
        cancelled a large batch can reclaim the memory eagerly."""
        heap = self._heap
        removed = 0
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            removed += 1
        return removed

    def sweep(self) -> int:
        """Drop every cancelled entry (not just head corpses) and
        restore the heap invariant; returns how many were removed.

        Determinism-safe: entries are totally ordered by their unique
        ``(time, seq)`` keys, so any valid heap over the same live
        entries pops in exactly the same order.  Must not be called
        from inside a running callback (the run loops hold the heap
        list as a local); the experiment runner sweeps between drain
        slices so long-dead timers stop inflating ``pending``.
        """
        heap = self._heap
        if len(heap) == self._live:
            return 0
        live = [entry for entry in heap if not entry[2].cancelled]
        removed = len(heap) - len(live)
        if removed:
            heapq.heapify(live)
            self._heap = live
        return removed

    def audit_heap(self) -> tuple:
        """``(live_count, min_live_time)`` without touching engine state.

        ``live_count`` reads the incremental counter (O(1));
        ``min_live_time`` is the head entry when it is live (the common
        case) and falls back to a scan only when the head is a corpse.
        ``min_live_time`` is None when no live event is pending.
        """
        heap = self._heap
        if heap and not heap[0][2].cancelled:
            return self._live, heap[0][0]
        if self._live == 0:
            return 0, None
        min_time: Optional[float] = None
        for time, _seq, event in heap:
            if event.cancelled:
                continue
            if min_time is None or time < min_time:
                min_time = time
        return self._live, min_time

    @property
    def pending(self) -> int:
        """Number of heap entries, including cancelled ones."""
        return len(self._heap)

    @property
    def live_pending(self) -> int:
        """Number of pending events that will actually fire.

        ``pending`` counts raw heap entries, which with lazy deletion
        includes already-cancelled timers; diagnostics (the run-health
        watchdog, stall reports) should use this count instead.
        Maintained incrementally — schedule increments, cancel and fire
        decrement — so reading it is O(1) (``tests/test_engine.py`` and
        ``validate.RunAuditor`` cross-check it against a full heap scan).
        """
        return self._live

    @property
    def events_run(self) -> int:
        """Total events executed over the simulator's lifetime."""
        return self._events_run


class LazyEventChain:
    """A time-ordered batch of future events held as one heap entry.

    The reserve-then-arm trick of the wire, generalised: the chain holds
    ONE look-ahead entry (armed in the heap) plus the un-consumed source
    iterator, and each firing arms its successor.  A run that declares
    N flow starts therefore keeps 1 heap entry for them instead of N —
    and constant memory no matter how many entries the source will ever
    yield, which is what lets the runner drive a multi-million-flow
    :class:`~repro.workloads.FlowStream` without materializing the start
    schedule.

    Determinism: with a declared ``count`` the chain reserves its whole
    seq block at construction (see :meth:`Simulator.reserve_seq_block`),
    so every entry fires with the exact ``(time, seq)`` key individual
    ``schedule_at`` calls would have used.  Without a count, seqs are
    claimed at arm time — still deterministic run to run, but only
    comparable to another run without a count.

    Entries cannot be cancelled individually (nothing in the repo needs
    to); drop the chain wholesale with :meth:`cancel`.

    The source must be picklable if the run is to be checkpointed: the
    chain sits in the simulator's object graph (via its armed head
    event), so a snapshot carries the iterator — and its RNG/cursor
    state — along, and a resumed run continues the stream exactly where
    it stopped.
    """

    __slots__ = ("sim", "_entries", "_next_seq", "_seqs_left", "_current",
                 "_last_time", "head_event")

    def __init__(self, sim: Simulator, entries: Iterable[Tuple],
                 count: Optional[int] = None) -> None:
        self.sim = sim
        self._entries = iter(entries)
        if count is not None:
            self._next_seq = sim.reserve_seq_block(count)
            self._seqs_left = count
        else:
            self._next_seq = None
            self._seqs_left = None
        self._current: Optional[Tuple] = None
        self._last_time: Optional[float] = None
        self.head_event: Optional[Event] = None
        self._arm()

    def _arm(self) -> None:
        source = self._entries
        entry = None if source is None else next(source, None)
        if entry is None:
            if self._seqs_left:
                raise ValueError(
                    f"lazy chain source ended {self._seqs_left} entries "
                    f"short of its declared count")
            self._current = None
            self._entries = None
            self.head_event = None
            return
        time, fn, args = entry
        sim = self.sim
        delay = time - sim.now
        if delay < 0:
            if delay < sim.NEGATIVE_DELAY_TOLERANCE:
                raise ValueError(
                    f"cannot schedule into the past (delay={delay})")
            time = sim.now
        if self._last_time is not None and time < self._last_time:
            raise ValueError(
                f"lazy chain entries must be non-decreasing in time "
                f"({time} < {self._last_time})")
        self._last_time = time
        if self._seqs_left is not None:
            if self._seqs_left == 0:
                raise ValueError(
                    "lazy chain source yielded more entries than its "
                    "declared count")
            seq = self._next_seq
            self._next_seq += 1
            self._seqs_left -= 1
        else:
            seq = sim.reserve_seq()
        self._current = (fn, args)
        self.head_event = sim.schedule_reserved(time, seq, self._fire)

    def _fire(self) -> None:
        # arm the successor BEFORE the callback, exactly like the wire:
        # a non-exhausted chain always has its head in the heap
        fn, args = self._current
        self._arm()
        fn(*args)

    def cancel(self) -> None:
        """Stop the chain: no remaining entry will fire, the source is
        dropped un-consumed."""
        if self.head_event is not None:
            self.head_event.cancel()
            self.head_event = None
        self._current = None
        self._entries = None
        self._seqs_left = 0 if self._seqs_left is not None else None

    @property
    def exhausted(self) -> bool:
        """True once the source has been fully consumed and fired."""
        return self.head_event is None


class RearmableEvent:
    """A single re-armable heap entry for coarse *epoch* work.

    The hybrid fast path advances abstract flows at congestion epochs —
    irregular instants recomputed every time the flow set or the fabric
    changes.  Holding one of these per controller instead of scheduling
    ad-hoc events keeps the bookkeeping simple: at most ONE live entry
    exists at a time; re-arming lazily cancels the resident entry (a
    corpse the heap sweeps later, exactly like timer churn) and
    schedules a replacement.  The events are plain non-recycled
    ``schedule_at`` entries — the holder keeps a reference across
    firings, so they must never enter the free list — which lets epoch
    events coexist with the recycled wire/timer events and the
    reserved-seq chains without aliasing.

    Plain data + bound methods throughout: a RearmableEvent pickles
    inside checkpoints along with the simulator heap, and a resumed run
    fires the restored entry at the identical (time, seq) slot.
    """

    __slots__ = ("sim", "fn", "event")

    def __init__(self, sim: Simulator, fn) -> None:
        self.sim = sim
        self.fn = fn
        self.event: Optional[Event] = None

    def set_at(self, time: float) -> None:
        """Arm (or move) the single entry to fire at ``time``."""
        if self.event is not None:
            self.event.cancel()
        self.event = self.sim.schedule_at(time, self._fire)
        self.event.recycle = False  # holder keeps a reference

    def clear(self) -> None:
        """Disarm without firing."""
        if self.event is not None:
            self.event.cancel()
            self.event = None

    def _fire(self) -> None:
        self.event = None
        self.fn()

    @property
    def armed(self) -> bool:
        return self.event is not None

    @property
    def time(self) -> Optional[float]:
        """Scheduled fire time of the live entry, or None."""
        return self.event.time if self.event is not None else None
