"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces each layer's entry points with timing wrappers
*at class (or module) level*, so they must be installed before the
topology is built: several hot callbacks are bound once at construction
(``Port._tx_cb``, ``Wire._deliver_cb``).  :meth:`Tracer.remove` puts every
original object back.  Nothing under ``src/`` is edited.

Spans nest on one stack.  A layer's *self* time is its spans' duration
minus the part covered by child spans, so summed self times equal the
traced wall time.  Time no wrapper catches stays with the innermost
enclosing span; inside a drain that is ``Simulator.run``, so it lands in
engine self time and is reported as ``trace.unattributed_frac``.  Calls
are counted per outermost span of a layer: ``PptSender.on_packet``
calling ``WindowSender.on_packet`` is one transport call.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Tuple

from repro.core.lcp import LcpController
from repro.core.ppt import Ppt, PptReceiver, PptSender
from repro.experiments import distributed, runner
from repro.metrics.fct import FctStats
from repro.obs.telemetry import Telemetry, _PortHook
from repro.sim.engine import Simulator
from repro.sim.link import FaultChain, Port, Wire
from repro.sim.network import ControlPipe
from repro.sim.queues import PriorityMux
from repro.sim.switch import Switch
from repro.transport.dctcp import Dctcp, DctcpSender
from repro.transport.window import WindowReceiver, WindowSender
from repro.validate import RunAuditor

from inputs import StratifiedPoissonStream

LAYERS = ("engine", "link", "queues", "switch", "transport", "workloads",
          "topology", "runner", "finalize", "obs", "validate", "faults",
          "resilience", "shard")

_ENDPOINTS = (WindowSender, WindowReceiver, DctcpSender, PptSender,
              PptReceiver)

# (owner, attribute, layer): every entry point the engine dispatches
# into, per layer.  Host and switch inline Port.send, so the link layer
# is entered through the serializer, the wire and the control pipe.
ENTRY_POINTS: Tuple[Tuple[object, str, str], ...] = (
    (Simulator, "run", "engine"),
    (Simulator, "sweep", "engine"),
    (Port, "_start_next", "link"),
    (Port, "_tx_done", "link"),
    (Wire, "_deliver", "link"),
    (ControlPipe, "_fire", "link"),
    (PriorityMux, "enqueue", "queues"),
    (Switch, "receive", "switch"),
    *((cls, "on_packet", "transport") for cls in _ENDPOINTS
      if "on_packet" in cls.__dict__),
    (WindowSender, "_rto_fire", "transport"),
    (LcpController, "_open_case1", "transport"),
    (LcpController, "_paced_send", "transport"),
    (LcpController, "_termination_check", "transport"),
    (PptReceiver, "_lp_delayed_flush", "transport"),
    (Ppt, "start_flow", "transport"),
    (Dctcp, "start_flow", "transport"),
    (StratifiedPoissonStream, "__next__", "workloads"),
    (runner, "_collect_flow_counters", "finalize"),
    (FctStats, "from_flows", "finalize"),
    *((Telemetry, name, "obs") for name in (
        "attach", "record", "record_slice", "on_flow_start",
        "on_flow_complete", "on_retransmit", "on_rto", "_fault_transition",
        "_pause_transition", "finalize")),
    (_PortHook, "__call__", "obs"),
    (RunAuditor, "attach", "validate"),
    (RunAuditor, "on_slice", "validate"),
    (RunAuditor, "on_send_burst", "validate"),
    (RunAuditor, "finalize", "validate"),
    (FaultChain, "admit", "faults"),
    (FaultChain, "transmit", "faults"),
    (runner, "save_checkpoint", "resilience"),
    (distributed, "plan_shards", "shard"),
    (distributed, "_merge", "shard"),
)

_ORIGINALS = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _layer in ENTRY_POINTS}


class Tracer:
    """Span stack plus per-layer self time and outermost-call counts."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.checkpoint_bytes = 0
        self._stack: List[list] = [["", 0]]
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                self_ns[layer] += elapsed - frame[1]
                if parent[0] != layer:
                    calls[layer] += 1

        return functools.update_wrapper(traced, fn)

    @property
    def traced_ns(self) -> int:
        """Wall time covered by top-level spans."""
        return self._stack[0][1]

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in ENTRY_POINTS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(layer, original.__func__))
            elif attr == "save_checkpoint":
                wrapped = self.wrap(layer, self._sized(original))
            else:
                wrapped = self.wrap(layer, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _sized(self, save: Callable) -> Callable:
        def save_and_measure(state, path):
            save(state, path)
            self.checkpoint_bytes += os.path.getsize(path)
        return save_and_measure


def installed_wrappers() -> List[str]:
    """Entry points currently replaced by a wrapper (empty when clean)."""
    return [f"{owner.__name__}.{attr}"
            for (owner, attr), original in _ORIGINALS.items()
            if owner.__dict__[attr] is not original]
