"""Output port: a strict-priority mux drained by a point-to-point link.

A :class:`Port` is the unit of contention in the simulator.  Every device
(host NIC or switch port) owns one Port per outgoing link.  When a packet is
enqueued and the transmitter is idle, transmission begins immediately;
otherwise the packet waits in the mux.  Completion of a transmission hands
the packet to the port's :class:`Wire`, which delivers it to the peer after
the propagation delay, and pulls the next packet from the mux.

The wire is a FIFO modelled after htsim's pipe: a deque of in-flight
``(arrival_time, seq, pkt)`` entries with exactly **one** scheduled
head-arrival event per link, instead of one heap event per in-flight
packet.  FIFO delivery is exact — the port serializes in order and
``prop_delay`` is constant, so arrival times are strictly increasing —
and each arrival's tie-break seq is reserved at serialization-completion
time (see :meth:`~repro.sim.engine.Simulator.reserve_seq`), so arrivals
fire in the order one event per packet would give them.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import List, Optional

from .engine import Event, Simulator
from .packet import NUM_PRIORITIES, Packet
from .queues import PriorityMux


class FaultChain:
    """Chain-of-responsibility over a port's attached fault injectors.

    An injector is any object exposing ``admit(pkt) -> bool`` (called
    when a packet is offered to the port; False = drop before enqueue)
    and ``transmit(pkt) -> bool`` (called when serialization completes;
    False = the packet is lost on the wire and never reaches the peer).
    Ports carry no chain at all (``fault_chain is None``) until the
    first injector attaches, so the fault machinery costs nothing when
    unused.
    """

    __slots__ = ("injectors",)

    def __init__(self) -> None:
        self.injectors: list = []

    def admit(self, pkt: Packet) -> bool:
        for injector in self.injectors:
            if not injector.admit(pkt):
                return False
        return True

    def transmit(self, pkt: Packet) -> bool:
        for injector in self.injectors:
            if not injector.transmit(pkt):
                return False
        return True


class Wire:
    """The propagation pipe between a port and its peer.

    ``pending`` holds every in-flight packet as ``(arrival_time, seq,
    pkt)`` in FIFO order.  Only the head has a scheduled event (it lives
    in ``head_event``); delivering the head arms the next entry with its
    *reserved* seq.

    The deque is the authoritative record of what is on the wire: the
    invariant auditor reads it for the fabric in-propagation residual,
    and :meth:`flush` (link failure mid-flight) drops exactly its
    contents.
    """

    __slots__ = ("sim", "port", "pending", "head_event",
                 "_deliver_cb", "_recv_cb")

    def __init__(self, sim: Simulator, port: "Port") -> None:
        self.sim = sim
        self.port = port
        self.pending: deque = deque()
        self.head_event = None
        # bound once: the head-arrival callback is installed once per
        # packet, and binding it per install shows up in profiles
        self._deliver_cb = self._deliver
        # peer.receive, bound lazily on first delivery (the peer is
        # fixed after Port construction — nothing ever reassigns it)
        self._recv_cb = None

    def __getstate__(self) -> dict:
        """Checkpoint snapshot: the bound-callback caches are rebuilt on
        restore instead of being pickled (pickling them would only
        duplicate the bound-method objects in the snapshot)."""
        return {
            "sim": self.sim,
            "port": self.port,
            "pending": self.pending,
            "head_event": self.head_event,
        }

    def __setstate__(self, state: dict) -> None:
        self.sim = state["sim"]
        self.port = state["port"]
        self.pending = state["pending"]
        self.head_event = state["head_event"]
        self._deliver_cb = self._deliver
        self._recv_cb = None  # rebound lazily on first delivery

    def push(self, pkt: Packet) -> None:
        """Put a freshly serialized packet onto the wire.

        Called at serialization-completion time; the seq reserved here is
        exactly the one a per-packet ``schedule`` would have consumed, so
        heap tie-breaking is as if every arrival had its own event.
        """
        sim = self.sim
        arrival = sim.now + self.port.prop_delay
        sim._seq += 1  # reserve_seq(), sans the call frame — hot path
        seq = sim._seq
        self.pending.append((arrival, seq, pkt))
        if self.head_event is None:
            self.head_event = sim.schedule_reserved(
                arrival, seq, self._deliver)

    def _deliver(self) -> None:
        """Head arrival: hand the packet to the peer, re-arm for the next.

        The next entry is armed *before* the peer callback runs so that
        whenever any other event executes, a non-empty wire always has
        its head in the heap, where heap-inspecting diagnostics see it.
        """
        pending = self.pending
        _arrival, _seq, pkt = pending.popleft()
        if pending:
            # schedule_reserved, inlined (hot: once per delivered packet)
            arrival, seq, _pkt = pending[0]
            sim = self.sim
            free = sim._free
            if free:
                event = free.pop()
                event.time = arrival
                event.fn = self._deliver_cb
                event.args = ()
                event.cancelled = False
            else:
                event = Event(arrival, self._deliver_cb, (), sim)
            event.recycle = True
            sim._live += 1
            heap = sim._heap
            heappush(heap, (arrival, seq, event))
            if len(heap) > sim.peak_pending:
                sim.peak_pending = len(heap)
            self.head_event = event
        else:
            self.head_event = None
        recv = self._recv_cb
        if recv is None:
            recv = self._recv_cb = self.port.peer.receive
        recv(pkt)

    def flush(self) -> List[Packet]:
        """Drop every in-flight packet (yanked cable); returns them.

        The caller is responsible for accounting — see
        :meth:`Port.flush_wire`, which books them as wire-fault losses.
        """
        if self.head_event is not None:
            self.head_event.cancel()
            self.head_event = None
        flushed = [pkt for _arrival, _seq, pkt in self.pending]
        self.pending.clear()
        return flushed

    def __len__(self) -> int:
        return len(self.pending)

    @property
    def in_flight_bytes(self) -> int:
        return sum(entry[2].size for entry in self.pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Wire {self.port.name} in_flight={len(self.pending)}>"


class Port:
    """A transmitter + queue attached to one end of a link.

    Parameters
    ----------
    sim:
        The simulation engine.
    rate_bps:
        Link capacity in bits per second.
    prop_delay:
        One-way propagation delay in seconds.
    mux:
        The priority mux buffering packets awaiting transmission.
    peer:
        The device at the other end; must expose ``receive(pkt)``.
    name:
        Human-readable identifier for tracing.
    """

    __slots__ = (
        "sim", "_rate_bps", "byte_time", "prop_delay", "mux", "peer", "name",
        "wire", "busy", "bytes_sent", "pkts_sent", "busy_time", "_tx_start",
        "_tx_cb", "fault_chain",
        "fault_admit_drops", "fault_admit_drop_bytes",
        "fault_wire_drops", "fault_wire_drop_bytes",
        "paused_mask", "pause_hook", "pauses_received", "pause_seconds",
        "_pause_refs", "_pause_started",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        prop_delay: float,
        mux: PriorityMux,
        peer=None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self._rate_bps = rate_bps
        self.byte_time = 8.0 / rate_bps
        self.prop_delay = prop_delay
        self.mux = mux
        self.peer = peer
        self.name = name
        self.wire = Wire(sim, self)
        self.busy = False
        self.bytes_sent = 0
        self.pkts_sent = 0
        self.busy_time = 0.0
        self._tx_start = 0.0
        self._tx_cb = self._tx_done  # bound once; installed per packet
        self.fault_chain: Optional[FaultChain] = None
        # Conservation-ledger counters (repro.validate): packets a fault
        # chain killed before the mux saw them vs. on the wire after
        # serialization.  Injectors keep their own totals; these split
        # the loss by *where* it happened, which the injector totals
        # (admit + wire + flush combined) cannot.
        self.fault_admit_drops = 0
        self.fault_admit_drop_bytes = 0
        self.fault_wire_drops = 0
        self.fault_wire_drop_bytes = 0
        # PFC pause state: a bitmask of priorities this port must not
        # drain.  Ref-counted per priority (several downstream muxes —
        # or a PFC-storm injector — may pause the same class at once);
        # the lazy lists keep the common lossy port at two None slots.
        self.paused_mask = 0
        self.pause_hook = None  # fn(port, priority, paused: bool)
        self.pauses_received = 0
        self.pause_seconds = 0.0
        self._pause_refs: Optional[list] = None
        self._pause_started: Optional[list] = None

    def __getstate__(self) -> dict:
        """Checkpoint snapshot: same contract as :meth:`Wire.__getstate__`
        — the ``_tx_cb`` bound-callback cache is rebuilt on restore."""
        return {name: getattr(self, name) for name in self.__slots__
                if name != "_tx_cb"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._tx_cb = self._tx_done

    @property
    def rate_bps(self) -> float:
        """Link capacity; assignable (the port degrader rescales it) —
        the setter keeps the cached per-byte serialization time fresh."""
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        self._rate_bps = value
        self.byte_time = 8.0 / value

    # -- fault injection --------------------------------------------------

    def attach_fault(self, injector) -> None:
        """Add a fault injector to this port's chain (created lazily)."""
        if self.fault_chain is None:
            self.fault_chain = FaultChain()
        self.fault_chain.injectors.append(injector)

    def detach_fault(self, injector) -> None:
        """Remove ``injector``; drops the chain when it empties."""
        chain = self.fault_chain
        if chain is None:
            return
        if injector in chain.injectors:
            chain.injectors.remove(injector)
        if not chain.injectors:
            self.fault_chain = None

    def flush_wire(self) -> int:
        """Drop every packet propagating on this link (dead link).

        Flushed packets already counted as transmitted (``pkts_sent``)
        but will never arrive, so they are booked as wire-fault losses —
        the same ledger a ``transmit()`` veto feeds — keeping the
        fabric's packet/byte conservation laws exact.
        """
        flushed = self.wire.flush()
        for pkt in flushed:
            self.fault_wire_drops += 1
            self.fault_wire_drop_bytes += pkt.size
        return len(flushed)

    # -- PFC pause/resume -------------------------------------------------

    def pfc_pause(self, priority: int) -> None:
        """A PAUSE frame for ``priority`` arrived: stop draining it.

        Ref-counted — the priority resumes only once every pauser has
        sent its RESUME.  An in-progress transmission is never aborted
        (real PFC is also packet-granular); the pause takes effect at
        the next dequeue decision.
        """
        refs = self._pause_refs
        if refs is None:
            refs = self._pause_refs = [0] * NUM_PRIORITIES
            self._pause_started = [0.0] * NUM_PRIORITIES
        self.pauses_received += 1
        refs[priority] += 1
        if refs[priority] == 1:
            self.paused_mask |= 1 << priority
            self._pause_started[priority] = self.sim.now
            if self.pause_hook is not None:
                self.pause_hook(self, priority, True)

    def pfc_resume(self, priority: int) -> None:
        """A RESUME (PAUSE with zero quanta) arrived: drop one pause ref."""
        refs = self._pause_refs
        if refs is None or refs[priority] == 0:
            return
        refs[priority] -= 1
        if refs[priority] == 0:
            self.paused_mask &= ~(1 << priority)
            self.pause_seconds += self.sim.now - self._pause_started[priority]
            if self.pause_hook is not None:
                self.pause_hook(self, priority, False)
            if not self.busy and self.mux.nonempty_mask & ~self.paused_mask:
                self._start_next()

    def total_pause_seconds(self, now: float) -> float:
        """Cumulative paused time across priorities, open intervals included."""
        total = self.pause_seconds
        if self.paused_mask:
            mask = self.paused_mask
            started = self._pause_started
            while mask:
                bit = mask & -mask
                mask ^= bit
                total += now - started[bit.bit_length() - 1]
        return total

    # -- transmission -----------------------------------------------------

    def send(self, pkt: Packet) -> bool:
        """Enqueue ``pkt`` for transmission.  Returns False if dropped."""
        chain = self.fault_chain
        if chain is not None and not chain.admit(pkt):
            self.fault_admit_drops += 1
            self.fault_admit_drop_bytes += pkt.size
            return False
        pkt.queue_delay -= self.sim.now  # finalized on dequeue
        if not self.mux.enqueue(pkt):
            pkt.queue_delay += self.sim.now  # undo; packet is gone anyway
            return False
        if not self.busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        # PriorityMux.dequeue + Simulator.schedule_recycled, inlined:
        # this is the single hottest function after the run loop (once
        # per serialized packet), and at that rate the two call frames
        # and re-checked branches are measurable.  The mux ledger
        # updates below MUST mirror PriorityMux.dequeue exactly (the
        # invariant auditor cross-checks them every run).
        mux = self.mux
        mask = mux.nonempty_mask
        if self.paused_mask:
            mask &= ~self.paused_mask  # PFC: skip paused priorities
        if not mask:
            self.busy = False
            return
        priority = (mask & -mask).bit_length() - 1
        queue = mux.queues[priority]
        pkt = queue.popleft()
        if not queue:
            # same integer as ``mask & (mask - 1)`` when nothing is
            # paused (priority is then nonempty_mask's lowest set bit)
            mux.nonempty_mask &= ~(1 << priority)
        size = pkt.size
        mux.occupancy -= size
        mux.queue_occupancy[priority] -= size
        if priority < 4:
            mux.hp_occupancy -= size
        if pkt.lcp:
            mux.lp_occupancy -= size
        mux.pkt_count -= 1
        stats = mux.stats
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if mux.pfc is not None:
            mux.pfc_dequeue_check(priority)
        sim = self.sim
        now = sim.now
        pkt.queue_delay += now  # time spent waiting in the mux
        self.busy = True
        self._tx_start = now
        # Inlined units.serialization_delay.  Deliberately NOT
        # ``pkt.size * self.byte_time``: the cached reciprocal double-
        # rounds (~25-40% of sizes differ in the last ulp), which would
        # break bit-identical reproduction; a single division keeps the
        # exact float the simulator has always produced.
        time = now + size * 8.0 / self._rate_bps
        free = sim._free
        if free:
            event = free.pop()
            event.time = time
            event.fn = self._tx_cb
            event.args = (pkt,)
            event.cancelled = False
        else:
            event = Event(time, self._tx_cb, (pkt,), sim)
        event.recycle = True
        sim._seq += 1
        sim._live += 1
        heap = sim._heap
        heappush(heap, (time, sim._seq, event))
        if len(heap) > sim.peak_pending:
            sim.peak_pending = len(heap)

    def _tx_done(self, pkt: Packet) -> None:
        self.bytes_sent += pkt.size
        self.pkts_sent += 1
        self.busy_time += self.sim.now - self._tx_start
        chain = self.fault_chain
        if chain is not None and not chain.transmit(pkt):
            self.fault_wire_drops += 1
            self.fault_wire_drop_bytes += pkt.size
            self._start_next()  # lost on the wire (link down, ...)
            return
        if self.peer is not None:
            # Wire.push, inlined (once per transmitted packet): reserve
            # the arrival's tie-break seq now, append to the in-flight
            # deque, arm the head event only when the wire was idle.
            wire = self.wire
            sim = self.sim
            arrival = sim.now + self.prop_delay
            sim._seq += 1
            seq = sim._seq
            wire.pending.append((arrival, seq, pkt))
            if wire.head_event is None:
                # schedule_reserved, inlined (see _start_next)
                free = sim._free
                if free:
                    event = free.pop()
                    event.time = arrival
                    event.fn = wire._deliver_cb
                    event.args = ()
                    event.cancelled = False
                else:
                    event = Event(arrival, wire._deliver_cb, (), sim)
                event.recycle = True
                sim._live += 1
                heap = sim._heap
                heappush(heap, (arrival, seq, event))
                if len(heap) > sim.peak_pending:
                    sim.peak_pending = len(heap)
                wire.head_event = event
        # _start_next's idle fast path, hoisted: after a transmission the
        # mux is empty more often than not, and the frame is measurable
        if self.mux.nonempty_mask:
            self._start_next()
        else:
            self.busy = False

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting in the mux (excludes packets on the wire)."""
        return self.mux.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Port {self.name} rate={self._rate_bps/1e9:.0f}Gbps busy={self.busy}>"
