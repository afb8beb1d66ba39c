"""The host's current speed, read off a fixed reference loop.

The benchmark machine is a few cores of a shared host, and its speed
drifts: the same run takes up to twice as long for minutes at a time,
while a neighbour is busy.  No statistic over one run can remove a slow
phase that covers the whole run.  So the measured pass brackets every
run with a :func:`probe` and converts its host seconds into seconds *at
the reference speed*, the speed at which :func:`reference` takes
``REFERENCE_S``::

    seconds at reference speed = host seconds * REFERENCE_S / probe time

The loop is the benchmark's own code, so a faster simulator does not
move it.  It does the kind of work the simulator's hot path does (a
binary heap of tuples, dict updates, slotted objects, method calls), so
a neighbour that slows one slows the other alike.

A sharded run keeps ``width`` processes busy in lockstep, and each
waits for the slowest at every window, so its probe runs ``width``
copies of the loop at once, in lockstep slices (see :func:`probe`).
A probe of one copy missed much of what slowed sharded runs.
"""

from __future__ import annotations

import heapq
import os
import time

# seconds the reference loop takes at the reference speed: roughly its
# time on a 2-vCPU Firecracker VM under Python 3.11 with no neighbour busy
REFERENCE_S = 0.010
REFERENCE_STEPS = 10_000
LOCKSTEP_ROUNDS = 10


class _Entry:
    __slots__ = ("key", "value", "link")

    def __init__(self, key: int, value: int, link) -> None:
        self.key = key
        self.value = value
        self.link = link

    def weight(self) -> int:
        return self.key + self.value


def reference(steps: int = REFERENCE_STEPS) -> int:
    """A fixed pure-Python loop shaped like an event loop's hot path."""
    heap: list = []
    table: dict = {}
    head = None
    acc = 0
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        head = _Entry(i & 255, i, head)
        table[head.key] = table.get(head.key, 0) + head.weight()
        if len(heap) > 64:
            when, j = heapq.heappop(heap)
            acc += when + table[j & 255]
    return acc


def _timed() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def _lockstep(inbox: int, outbox: int) -> float:
    """The reference loop in ``LOCKSTEP_ROUNDS`` slices, passing a token
    around the ring after each, as shard workers do after each window."""
    def exchange() -> None:
        os.write(outbox, b"t")
        if os.read(inbox, 1) != b"t":
            raise EOFError("a probe copy left the ring")

    reference()  # warm: copy-on-write faults land here, untimed
    exchange()   # every copy is warm before the clock starts
    start = time.perf_counter()
    for _ in range(LOCKSTEP_ROUNDS):
        reference(REFERENCE_STEPS // LOCKSTEP_ROUNDS)
        exchange()
    return time.perf_counter() - start


def probe(width: int = 1) -> float:
    """Host seconds of the reference loop now.

    With ``width`` > 1, ``width`` copies (this process and ``width - 1``
    forked children) run it in lockstep slices, handing a token round a
    ring of pipes after each slice, like shard workers synchronising
    each window; the result is this process's time, which waits for the
    slowest copy at every hand-off."""
    if width <= 1:
        return _timed()
    rings = [os.pipe() for _ in range(width)]  # rings[i]: rank i's inbox
    held = {fd for pair in rings for fd in pair}
    children = []
    rank = 0
    try:
        for child_rank in range(1, width):
            pid = os.fork()
            if pid == 0:
                rank = child_rank
                break
            children.append(pid)
        inbox, outbox = rings[rank][0], rings[(rank + 1) % width][1]
        for fd in held - {inbox, outbox}:
            os.close(fd)
        held = {inbox, outbox}
        if rank:  # child: run its copy, leave
            status = 1
            try:
                _lockstep(inbox, outbox)
                status = 0
            finally:
                os._exit(status)
        return _lockstep(inbox, outbox)
    finally:
        if rank == 0:
            # closing first lets a child blocked on the ring see EOF
            for fd in held:
                os.close(fd)
            for pid in children:
                os.waitpid(pid, 0)
