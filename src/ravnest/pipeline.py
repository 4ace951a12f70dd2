"""Zero-bubble asynchronous model-parallel executor for one cluster.

Each peer owns a submodel, a single-slot forward buffer, and a single-slot
backward buffer. Backward work is strictly prioritized over forward work;
updates apply immediately (possibly with stale gradients), and senders
transmit only after the receiving slot has been popped (sender-side flow
control over zero-size control messages).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import modelcore
from .errors import (
    FlowControlError,
    MeasurementError,
    NumericError,
    ProtocolError,
    StalenessError,
)
from .modelcore import Batch, ForwardContext, ModelSpec, ParameterVector, SubmodelSpec
from .simnet import Message, Network


def _noop(*args, **kwargs):
    return None


@dataclass
class PipelineConfig:
    eta: float
    max_inflight: int
    n_accum: int = 1
    enforce_T: bool = False
    T_bound: int = 0
    fwd_cost_coeff: float = 1e-9  # seconds per (sample x owned parameter)
    bwd_cost_ratio: float = 2.0

    @property
    def admission_cap(self) -> int:
        if self.enforce_T:
            return min(self.max_inflight, self.T_bound + 1)
        return self.max_inflight


@dataclass
class PipelineCallbacks:
    """Hooks the orchestrator wires in; all optional."""

    on_update: Callable = _noop      # (cluster_id, peer_index, batch_id, tau, now)
    on_batch_done: Callable = _noop  # (cluster_id, batch_id, now)
    on_admitted: Callable = _noop    # (cluster_id, batch_id, now)


@dataclass(slots=True)
class StalenessRecord:
    batch_id: int
    peer_index: int
    tau: int
    update_index: int
    virtual_time: float


@dataclass(slots=True)
class SavedContext:
    ctx: ForwardContext
    params_at_forward: np.ndarray
    version: int


class _FlowChannel:
    """Sender side of one single-slot link: queue until the remote slot frees."""

    def __init__(self, network: Network):
        self.network = network
        self.outbox: deque[Message] = deque()
        self.slot_free = True

    def push(self, msg: Message, now: float) -> None:
        if self.slot_free:
            self.slot_free = False
            self.network.send(msg, now)
        else:
            self.outbox.append(msg)

    def on_slot_free(self, now: float) -> None:
        if self.outbox:
            self.network.send(self.outbox.popleft(), now)
        else:
            self.slot_free = True

    @property
    def empty(self) -> bool:
        return not self.outbox


class PeerRuntime:
    """Mutable per-peer state owned by the event loop."""

    def __init__(self, cluster_id, peer_index, node_id, sub: SubmodelSpec, params: ParameterVector):
        self.cluster_id = cluster_id
        self.peer_index = peer_index
        self.node_id = node_id
        self.sub = sub
        self.params = params
        self.forward_buffer: tuple | None = None   # (batch_id, activations)
        self.backward_buffer: tuple | None = None  # (batch_id, upstream grads)
        self.saved: dict[int, SavedContext] = {}
        self.update_count = 0
        self.accum_sum = np.zeros(sub.param_len, dtype=np.float64)
        self.accum_n = 0
        self.busy = False
        self.busy_since = 0.0
        self.busy_intervals: list[tuple[float, float]] = []
        self.act_channel: _FlowChannel | None = None   # to peer_index + 1
        self.grad_channel: _FlowChannel | None = None  # to peer_index - 1
        self.pending_targets: dict[int, np.ndarray] = {}


@dataclass
class ClusterTrace:
    """Instrumentation snapshot used for bubble and staleness measurements."""

    busy_intervals: list[list[tuple[float, float]]]
    inflight_steps: list[tuple[float, int]]
    completions: list[tuple[int, float]]


class ClusterPipeline:
    """One cluster's pipeline over a simulated network."""

    def __init__(
        self,
        cluster_id: int,
        model: ModelSpec,
        subs: Sequence[SubmodelSpec],
        node_ids: Sequence[str],
        init_values: np.ndarray,
        network: Network,
        config: PipelineConfig,
        callbacks: PipelineCallbacks | None = None,
    ):
        if len(subs) != len(node_ids):
            raise ProtocolError("one node per submodel required")
        modelcore.validate_partition(model, subs)
        self.cluster_id = cluster_id
        self.model = model
        self.network = network
        self.config = config
        self.callbacks = callbacks or PipelineCallbacks()
        self.peers = [
            PeerRuntime(cluster_id, i, node_ids[i], subs[i], modelcore.peer_vector(subs[i], init_values))
            for i in range(len(subs))
        ]
        for peer in self.peers[:-1]:
            peer.act_channel = _FlowChannel(network)
        for peer in self.peers[1:]:
            peer.grad_channel = _FlowChannel(network)
        self.in_flight: set[int] = set()
        self.inflight_steps: list[tuple[float, int]] = [(0.0, 0)]
        self.completions: list[tuple[int, float]] = []
        self.staleness: list[StalenessRecord] = []
        self.losses: dict[int, float] = {}
        self._deferred: deque[Batch] = deque()
        self._paused = False

    # -- wiring ------------------------------------------------------------

    def attach(self) -> None:
        """Register this cluster's peers as their nodes' message handlers."""
        for peer in self.peers:
            self.network.register(
                peer.node_id,
                lambda msg, now, idx=peer.peer_index: self.dispatch(idx, msg, now),
            )

    @property
    def n_peers(self) -> int:
        return len(self.peers)

    @property
    def last(self) -> PeerRuntime:
        return self.peers[-1]

    # -- admission ---------------------------------------------------------

    def admit_batch(self, batch: Batch, now: float) -> str:
        """Accept into peer 0's forward slot, or defer until a slot frees.

        Deferred batches are re-offered in arrival order on every
        buffer-empty event, so admission order always equals offer order.
        """
        self._deferred.append(batch)
        self._try_admit_deferred(now)
        still_queued = any(b is batch for b in self._deferred)
        return "deferred" if still_queued else "accepted"

    def _can_admit(self) -> bool:
        return (
            not self._paused
            and len(self.in_flight) < self.config.admission_cap
            and self.peers[0].forward_buffer is None
        )

    def _do_admit(self, batch: Batch, now: float) -> None:
        p0 = self.peers[0]
        self.in_flight.add(batch.batch_id)
        self.inflight_steps.append((now, len(self.in_flight)))
        p0.forward_buffer = (batch.batch_id, np.asarray(batch.inputs, dtype=np.float64))
        if self.n_peers == 1:
            p0.pending_targets[batch.batch_id] = np.asarray(batch.targets, dtype=np.float64)
        else:
            # labels travel out of band to the loss peer: zero-size control
            msg = Message(
                "control",
                sender=p0.node_id,
                receiver=self.last.node_id,
                step_tag=batch.batch_id,
                extra={"ctl": "targets", "batch": batch.batch_id,
                       "targets": np.asarray(batch.targets, dtype=np.float64)},
            )
            self.network.send(msg, now)
        self.callbacks.on_admitted(self.cluster_id, batch.batch_id, now)
        self._try_service(p0, now)

    def _try_admit_deferred(self, now: float) -> None:
        while self._deferred and self._can_admit():
            self._do_admit(self._deferred.popleft(), now)

    def pause_admissions(self) -> None:
        self._paused = True

    def resume_admissions(self, now: float) -> None:
        self._paused = False
        self._try_admit_deferred(now)

    def is_idle(self) -> bool:
        """No in-flight work anywhere; deferred batches wait out a drain."""
        if self.in_flight:
            return False
        for peer in self.peers:
            if peer.busy or peer.forward_buffer is not None or peer.backward_buffer is not None:
                return False
            if peer.act_channel and not peer.act_channel.empty:
                return False
            if peer.grad_channel and not peer.grad_channel.empty:
                return False
        return True

    # -- message dispatch ----------------------------------------------------

    def dispatch(self, peer_index: int, msg: Message, now: float) -> None:
        peer = self.peers[peer_index]
        if msg.kind == "activation":
            if peer.forward_buffer is not None:
                raise FlowControlError(
                    f"cluster {self.cluster_id} peer {peer_index}: forward slot overwrite"
                )
            acts = msg.payload.reshape(msg.extra["shape"])
            peer.forward_buffer = (msg.step_tag, acts)
            self._try_service(peer, now)
        elif msg.kind == "gradient":
            if peer.backward_buffer is not None:
                raise FlowControlError(
                    f"cluster {self.cluster_id} peer {peer_index}: backward slot overwrite"
                )
            peer.backward_buffer = (msg.step_tag, msg.payload.reshape(msg.extra["shape"]))
            self._try_service(peer, now)
        elif msg.kind == "control":
            ctl = msg.extra.get("ctl")
            if ctl == "fwd_free":
                peer.act_channel.on_slot_free(now)
            elif ctl == "bwd_free":
                peer.grad_channel.on_slot_free(now)
            elif ctl == "targets":
                peer.pending_targets[msg.extra["batch"]] = msg.extra["targets"]
                self._try_service(peer, now)
            else:
                raise ProtocolError(f"unknown control tag {ctl!r}")
        else:
            raise ProtocolError(f"cluster pipeline cannot handle kind {msg.kind!r}")

    # -- compute -------------------------------------------------------------

    def _speed(self, peer: PeerRuntime) -> float:
        return self.network.nodes[peer.node_id].speed_factor

    def _fwd_cost(self, peer: PeerRuntime, n_samples: int) -> float:
        return self.config.fwd_cost_coeff * n_samples * peer.sub.param_len / self._speed(peer)

    def _bwd_cost(self, peer: PeerRuntime, n_samples: int) -> float:
        return self._fwd_cost(peer, n_samples) * self.config.bwd_cost_ratio

    def _try_service(self, peer: PeerRuntime, now: float) -> None:
        """Backward-first service discipline; runs whenever a buffer fills or
        the peer's compute frees up."""
        if peer.busy:
            return
        if peer.backward_buffer is not None:
            batch_id, upstream = peer.backward_buffer
            peer.backward_buffer = None
            if peer.peer_index < self.n_peers - 1:
                downstream = self.peers[peer.peer_index + 1]
                self.network.send(
                    Message("control", peer.node_id, downstream.node_id, batch_id,
                            extra={"ctl": "bwd_free"}),
                    now,
                )
            peer.busy = True
            peer.busy_since = now
            dur = self._bwd_cost(peer, upstream.shape[0])
            self.network.schedule(
                now + dur,
                lambda t, p=peer, b=batch_id, g=upstream: self._finish_backward(p, b, g, t),
            )
            return
        if peer.forward_buffer is not None:
            batch_id = peer.forward_buffer[0]
            if peer.peer_index == self.n_peers - 1 and batch_id not in peer.pending_targets:
                return  # labels still in flight; retried on their arrival
            batch_id, acts = peer.forward_buffer
            peer.forward_buffer = None
            if peer.peer_index == 0:
                self._try_admit_deferred(now)
            else:
                upstream_peer = self.peers[peer.peer_index - 1]
                self.network.send(
                    Message("control", peer.node_id, upstream_peer.node_id, batch_id,
                            extra={"ctl": "fwd_free"}),
                    now,
                )
            peer.busy = True
            peer.busy_since = now
            dur = self._fwd_cost(peer, acts.shape[0])
            self.network.schedule(
                now + dur,
                lambda t, p=peer, b=batch_id, a=acts: self._finish_forward(p, b, a, t),
            )

    def _finish_forward(self, peer: PeerRuntime, batch_id: int, acts: np.ndarray, now: float) -> None:
        out, ctx = modelcore.forward(peer.sub, peer.params, acts)
        if len(peer.saved) >= self.config.max_inflight:
            raise ProtocolError(
                f"cluster {self.cluster_id} peer {peer.peer_index}: "
                f"more than max_inflight={self.config.max_inflight} saved contexts"
            )
        peer.saved[batch_id] = SavedContext(ctx, peer.params.values.copy(), peer.update_count)
        if peer.peer_index == self.n_peers - 1:
            targets = peer.pending_targets.pop(batch_id)
            loss, dy = modelcore.loss_and_grad(self.model.loss, out, targets)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss on batch {batch_id}")
            self.losses[batch_id] = loss
            if peer.backward_buffer is not None:
                raise FlowControlError("loss peer backward slot should be empty")
            peer.backward_buffer = (batch_id, dy)
        else:
            nxt = self.peers[peer.peer_index + 1]
            peer.act_channel.push(
                Message(
                    "activation",
                    sender=peer.node_id,
                    receiver=nxt.node_id,
                    step_tag=batch_id,
                    payload=out.ravel().copy(),
                    extra={"shape": out.shape},
                ),
                now,
            )
        peer.busy = False
        peer.busy_intervals.append((peer.busy_since, now))
        self._try_service(peer, now)

    def _finish_backward(self, peer: PeerRuntime, batch_id: int, upstream: np.ndarray, now: float) -> None:
        saved = peer.saved.pop(batch_id, None)
        if saved is None:
            raise ProtocolError(
                f"cluster {self.cluster_id} peer {peer.peer_index}: "
                f"backward for unknown batch {batch_id}"
            )
        stale_params = ParameterVector(saved.params_at_forward, peer.params.blocks)
        pgrads, igrads = modelcore.backward(peer.sub, stale_params, saved.ctx, upstream)
        tau = peer.update_count - saved.version
        record = StalenessRecord(batch_id, peer.peer_index, tau, peer.update_count, now)
        self.staleness.append(record)
        if self.config.enforce_T and tau > self.config.T_bound:
            raise StalenessError(
                f"tau={tau} exceeds bound T={self.config.T_bound} "
                f"(cluster {self.cluster_id}, peer {peer.peer_index}, batch {batch_id})",
                record,
            )
        peer.accum_sum += pgrads
        peer.accum_n += 1
        updated = False
        if peer.accum_n == self.config.n_accum:
            mean = peer.accum_sum / self.config.n_accum
            modelcore.apply_update(peer.params, mean, self.config.eta)
            peer.accum_sum.fill(0.0)
            peer.accum_n = 0
            peer.update_count += 1
            updated = True
        completed = False
        if peer.peer_index > 0:
            prev = self.peers[peer.peer_index - 1]
            peer.grad_channel.push(
                Message(
                    "gradient",
                    sender=peer.node_id,
                    receiver=prev.node_id,
                    step_tag=batch_id,
                    payload=igrads.ravel().copy(),
                    extra={"shape": igrads.shape},
                ),
                now,
            )
        else:
            self.in_flight.discard(batch_id)
            self.inflight_steps.append((now, len(self.in_flight)))
            self.completions.append((batch_id, now))
            completed = True
        peer.busy = False
        peer.busy_intervals.append((peer.busy_since, now))
        # callbacks fire only after all peer state is settled: the averaging
        # barrier inspects is_idle() from inside them
        if updated:
            self.callbacks.on_update(self.cluster_id, peer.peer_index, batch_id, tau, now)
        if completed:
            self.callbacks.on_batch_done(self.cluster_id, batch_id, now)
            self._try_admit_deferred(now)
        self._try_service(peer, now)

    # -- introspection -------------------------------------------------------

    def full_values(self) -> np.ndarray:
        return modelcore.assemble_full([p.sub for p in self.peers], [p.params for p in self.peers])

    def load_values(self, full_values: np.ndarray) -> None:
        for peer in self.peers:
            peer.params.values[:] = full_values[
                peer.sub.param_start : peer.sub.param_start + peer.sub.param_len
            ]

    def total_updates(self) -> int:
        return sum(p.update_count for p in self.peers)

    def trace_info(self) -> ClusterTrace:
        return ClusterTrace(
            busy_intervals=[list(p.busy_intervals) for p in self.peers],
            inflight_steps=list(self.inflight_steps),
            completions=list(self.completions),
        )

    def buffer_report(self) -> str:
        lines = [f"cluster {self.cluster_id}: in_flight={sorted(self.in_flight)}"]
        for p in self.peers:
            lines.append(
                f"  peer {p.peer_index} busy={p.busy} fwd={p.forward_buffer is not None} "
                f"bwd={p.backward_buffer is not None} saved={sorted(p.saved)} "
                f"outbox_act={len(p.act_channel.outbox) if p.act_channel else '-'} "
                f"outbox_grad={len(p.grad_channel.outbox) if p.grad_channel else '-'}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# staleness and bubble measurement


def staleness_csv(records: Sequence[StalenessRecord]) -> str:
    """One cluster's staleness records as ravnest-staleness-v1 CSV."""
    lines = ["# schema: ravnest-staleness-v1", "batch_id,peer,tau,update_index,virtual_time"]
    for r in records:
        lines.append(f"{r.batch_id},{r.peer_index},{r.tau},{r.update_index},{r.virtual_time!r}")
    return "\n".join(lines) + "\n"


def _overlap(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    for a, b in intervals:
        total += max(0.0, min(b, hi) - max(a, lo))
    return total


def _positive_intervals(steps: list[tuple[float, int]], t_end: float) -> list[tuple[float, float]]:
    out = []
    open_at = None
    for t, count in steps:
        if count > 0 and open_at is None:
            open_at = t
        elif count == 0 and open_at is not None:
            out.append((open_at, t))
            open_at = None
    if open_at is not None:
        out.append((open_at, t_end))
    return out


def measure_bubble(trace: ClusterTrace, warmup: int = 5) -> float:
    """Average idle fraction across peers while work is in flight.

    The window runs from the completion of batch ``warmup`` to the completion
    of the ``warmup``-th batch from the end, so fill and drain transients are
    excluded on both sides.
    """
    n = len(trace.completions)
    if n < 2 * warmup + 2:
        raise MeasurementError(
            f"need more than {2 * warmup + 1} completed batches, have {n}"
        )
    lo = trace.completions[warmup][1]
    hi = trace.completions[n - 1 - warmup][1]
    if hi <= lo:
        raise MeasurementError("empty measurement window")
    inflight = _positive_intervals(trace.inflight_steps, hi)
    window = hi - lo
    fractions = []
    for busy in trace.busy_intervals:
        busy_time = _overlap(busy, lo, hi)
        inflight_time = _overlap(inflight, lo, hi)
        fractions.append(max(0.0, inflight_time - busy_time) / window)
    return sum(fractions) / len(fractions)
