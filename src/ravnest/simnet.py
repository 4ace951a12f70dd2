"""Deterministic discrete-event network: messages between named nodes with
per-link latency plus bandwidth-proportional serialization delay.

A single event loop owns all state. Events pop in nondecreasing virtual time
with insertion order as the tiebreak, so identical configurations replay
identical traces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ProtocolError, StallError, TopologyError

MESSAGE_KINDS = ("activation", "gradient", "ring_chunk", "control")


@dataclass(frozen=True)
class NodeSpec:
    """Inventory entry: usable RAM, steady bandwidth, relative compute speed."""

    node_id: str
    ram_bytes: float
    bandwidth_Bps: float
    speed_factor: float = 1.0


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    latency: float
    bandwidth: float

    def __post_init__(self):
        if self.latency < 0 or self.bandwidth <= 0:
            raise TopologyError(f"bad link {self.src}->{self.dst}: {self}")


@dataclass(slots=True)
class Message:
    """Typed unit on the simulated wire.

    ``extra`` carries out-of-band metadata (flow-control tags, batch targets,
    ring bookkeeping); it is never counted against link bandwidth.
    """

    kind: str
    sender: str
    receiver: str
    step_tag: int
    payload: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")

    @property
    def payload_bytes(self) -> int:
        return 0 if self.payload is None else self.payload.size * self.payload.itemsize


class EventQueue:
    """Min-heap of (virtual time, insertion seq, action); time never decreases."""

    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[float], None]]] = []
        self._seq = 0
        self.now = 0.0

    def push(self, time: float, action: Callable[[float], None]) -> None:
        if time < self.now:
            raise ProtocolError(f"event scheduled in the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, self._seq, action))
        self._seq += 1

    def run_until(
        self,
        predicate: Callable[[], bool] | None = None,
        max_events: int | None = None,
        diagnostics: Callable[[], str] | None = None,
    ) -> float:
        """Process events in deterministic order; returns the clock at stop.

        Stops when the predicate holds (checked between events), or when the
        queue drains. An exhausted event budget raises a livelock diagnostic.
        """
        heap = self._heap
        pop = heapq.heappop
        budget = math.inf if max_events is None else max_events
        processed = 0
        while heap:
            if predicate is not None and predicate():
                return self.now
            if processed >= budget:
                detail = diagnostics() if diagnostics else ""
                raise StallError(
                    f"event budget of {max_events} exhausted at t={self.now}"
                    + (f"\n{detail}" if detail else "")
                )
            time, _, action = pop(heap)
            if time > self.now:
                self.now = time
            action(self.now)
            processed += 1
        return self.now


TRACE_SCHEMA = "ravnest-trace-v1"


class Network:
    """All peers, links, and the virtual clock of one simulation.

    Per-node bandwidth expands on demand into per-link specs with bandwidth
    min(sender, receiver) and the default latency; explicit link overrides
    win. Each (sender, receiver) link is resolved once, on its first send,
    and reused after that: a ``link_overrides`` entry must exist before the
    first send on its link. Serialization occupies the link (FIFO),
    propagation pipelines.
    """

    def __init__(
        self,
        nodes: dict[str, NodeSpec],
        link_overrides: dict[tuple[str, str], LinkSpec] | None = None,
        default_latency: float = 0.0,
        trace_enabled: bool = True,
    ):
        self.nodes = dict(nodes)
        self.link_overrides = dict(link_overrides or {})
        self.default_latency = float(default_latency)
        self.queue = EventQueue()
        self.handlers: dict[str, Callable[[Message, float], None]] = {}
        self._links: dict[tuple[str, str], tuple[float, float]] = {}  # (bandwidth, latency)
        self._busy_until: dict[tuple[str, str], float] = {}
        self.trace_enabled = trace_enabled
        self.trace: list[tuple[float, str, str, str, int, int]] = []

    @property
    def now(self) -> float:
        return self.queue.now

    def register(self, node_id: str, handler: Callable[[Message, float], None]) -> None:
        if node_id not in self.nodes:
            raise TopologyError(f"unknown node {node_id!r}")
        self.handlers[node_id] = handler

    def link_for(self, src: str, dst: str) -> LinkSpec:
        if (src, dst) in self.link_overrides:
            return self.link_overrides[(src, dst)]
        if src not in self.nodes or dst not in self.nodes:
            missing = src if src not in self.nodes else dst
            raise TopologyError(f"no link {src}->{dst}: unknown node {missing!r}")
        return LinkSpec(
            src,
            dst,
            self.default_latency,
            min(self.nodes[src].bandwidth_Bps, self.nodes[dst].bandwidth_Bps),
        )

    def send(self, msg: Message, now: float | None = None) -> float:
        """Schedule delivery at now + serialization + latency; returns that time."""
        if now is None:
            now = self.queue.now
        key = (msg.sender, msg.receiver)
        link = self._links.get(key)
        if link is None:
            spec = self.link_for(*key)
            link = self._links[key] = (spec.bandwidth, spec.latency)
        bandwidth, latency = link
        payload = msg.payload
        nbytes = 0 if payload is None else payload.size * payload.itemsize
        start = max(now, self._busy_until.get(key, 0.0))
        done = start + nbytes / bandwidth
        self._busy_until[key] = done
        deliver_at = done + latency

        def deliver(t: float):
            if self.trace_enabled:
                self.trace.append((t, msg.kind, msg.sender, msg.receiver, msg.step_tag, nbytes))
            handler = self.handlers.get(msg.receiver)
            if handler is None:
                raise ProtocolError(f"no handler registered for node {msg.receiver!r}")
            handler(msg, t)

        self.queue.push(deliver_at, deliver)
        return deliver_at

    def schedule(self, time: float, action: Callable[[float], None]) -> None:
        self.queue.push(time, action)

    def run_until(self, predicate=None, max_events=None, diagnostics=None) -> float:
        return self.queue.run_until(predicate, max_events, diagnostics)

    def trace_hash(self) -> str:
        h = hashlib.sha256()
        for row in self.trace:
            h.update(repr(row).encode())
        return h.hexdigest()

    def trace_csv(self) -> str:
        lines = [f"# schema: {TRACE_SCHEMA}", "time,kind,sender,receiver,step_tag,bytes"]
        for t, kind, src, dst, tag, nbytes in self.trace:
            lines.append(f"{t!r},{kind},{src},{dst},{tag},{nbytes}")
        return "\n".join(lines) + "\n"
