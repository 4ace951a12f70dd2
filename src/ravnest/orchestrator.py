"""Global training loop.

All clusters' pipelines run concurrently over one simulated network. A
global counter t increments whenever any peer applies an update; every time
t crosses a multiple of the communication period kappa, the clusters'
parameters are averaged with the parallel multi-ring all-reduce (drain
barrier by default, snapshot optionally). Full-batch gradient norms on the
averaged parameters are recorded at every averaging cycle for convergence
measurements.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import data, modelcore, multiring
from .clusterform import SessionPlan
from .errors import ConfigError, MeasurementError, NumericError, ProtocolError, StallError
from .modelcore import ModelSpec
from .multiring import AllReduceController
from .pipeline import (
    ClusterPipeline,
    ClusterTrace,
    PipelineCallbacks,
    PipelineConfig,
    StalenessRecord,
    measure_bubble,
)
from .simnet import Network

METRICS_SCHEMA = "ravnest-metrics-v1"


@dataclass(kw_only=True)
class TrainConfig:
    eta: float | str = "auto"  # learning rate, or "auto" for the 1/sqrt(K) preset
    kappa: int
    k_target: int
    batch_size: int
    n_accum: int = 1
    max_inflight: int | None = None  # None: one slot per pipeline stage
    enforce_T: bool = False
    T_bound: int = 0
    barrier_mode: str = "drain"
    seed: int = 0
    fwd_cost_coeff: float = 1e-9
    bwd_cost_ratio: float = 2.0
    default_latency: float = 0.0
    max_events: int | None = None
    trace_enabled: bool = False
    record_trajectory: bool = False  # full values of the updating cluster per update

    def validate(self, peers_per_cluster: Sequence[int]) -> None:
        if self.kappa < 1:
            raise ConfigError(f"kappa must be >= 1, got {self.kappa}")
        if self.k_target < 1 or self.batch_size < 1 or self.n_accum < 1:
            raise ConfigError("k_target, batch_size and n_accum must be positive")
        for key in ("max_inflight", "max_events", "T_bound", "fwd_cost_coeff",
                    "bwd_cost_ratio", "default_latency"):
            value = getattr(self, key) or 0  # None: one slot per stage, no event budget
            if not value >= 0:
                raise ConfigError(f"{key.lower()} must be >= 0, got {value}")
        if self.barrier_mode not in ("drain", "snapshot"):
            raise ConfigError(f"unknown barrier_mode {self.barrier_mode!r}")
        if isinstance(self.eta, str):
            if self.eta != "auto":
                raise ConfigError(f"eta must be a number or 'auto', got {self.eta!r}")
        elif not self.eta >= 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        c = len(peers_per_cluster)
        if self.k_target % c != 0:
            raise ConfigError(f"k_target={self.k_target} not divisible by {c} clusters")
        per_cluster = self.k_target // c
        for i, p in enumerate(peers_per_cluster):
            if (per_cluster * self.n_accum) % p != 0:
                raise ConfigError(
                    f"cluster #{i}: {per_cluster} updates x n_accum={self.n_accum} "
                    f"not divisible by {p} peers; adjust k_target"
                )


@dataclass
class GlobalClock:
    """t counts applied peer updates across all clusters; cycle counts
    completed averaging rounds."""

    t: int = 0
    per_cluster: dict[int, int] = field(default_factory=dict)
    cycle: int = 0


@dataclass
class MetricsRow:
    t: int
    cluster: int  # -1 on checkpoint rows
    peer: int
    tau: int | None
    loss: float | None
    grad_norm: float | None
    virtual_time: float


def metrics_to_csv(rows: Sequence[MetricsRow]) -> str:
    def fmt(v):
        return "" if v is None else repr(v)

    lines = [f"# schema: {METRICS_SCHEMA}", "t,cluster,peer,tau,loss,grad_norm,virtual_time"]
    for r in rows:
        lines.append(
            f"{r.t},{r.cluster},{r.peer},{fmt(r.tau)},{fmt(r.loss)},"
            f"{fmt(r.grad_norm)},{repr(r.virtual_time)}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class CheckpointRecord:
    t: int
    virtual_time: float
    grad_norm: float
    loss: float
    spread: float  # max over clusters of ||x_i - mean||_inf right after the cycle


@dataclass
class TrainResult:
    metrics: list[MetricsRow]
    checkpoints: list[CheckpointRecord]
    clock: GlobalClock
    cluster_values: dict[int, np.ndarray]
    mean_values: np.ndarray
    staleness: dict[int, list[StalenessRecord]]
    traces: dict[int, ClusterTrace]
    virtual_time: float
    eta_used: float
    final_loss: float
    trajectory: list[np.ndarray] = field(default_factory=list)
    net_trace_csv: str | None = None  # populated when trace_enabled

    def metrics_csv(self) -> str:
        return metrics_to_csv(self.metrics)

    def metrics_hash(self) -> str:
        return hashlib.sha256(self.metrics_csv().encode()).hexdigest()

    def max_tau(self) -> int:
        taus = [r.tau for recs in self.staleness.values() for r in recs]
        return max(taus) if taus else 0

    def summary(self, bubble_warmup: int = 5) -> dict:
        bubbles = []
        for trace in self.traces.values():
            try:
                bubbles.append(measure_bubble(trace, bubble_warmup))
            except MeasurementError:
                pass
        return {
            "final_loss": self.final_loss,
            "max_tau": self.max_tau(),
            "allreduce_cycles": self.clock.cycle,
            "updates": self.clock.t,
            "virtual_time": self.virtual_time,
            "bubble_fraction": (sum(bubbles) / len(bubbles)) if bubbles else None,
            "eta": self.eta_used,
            "metrics_sha256": self.metrics_hash(),
        }


class _Trainer:
    def __init__(
        self,
        model: ModelSpec,
        init_values: np.ndarray,
        plan: SessionPlan,
        config: TrainConfig,
        dataset: tuple[np.ndarray, np.ndarray],
        link_overrides: dict | None = None,
    ):
        self.model = model
        self.plan = plan
        self.config = config
        self.cluster_ids = plan.cluster_ids
        self.n_clusters = len(self.cluster_ids)
        self._cluster_pos = {cid: pos for pos, cid in enumerate(self.cluster_ids)}
        peers = [len(plan.pipelines[cid]) for cid in self.cluster_ids]
        config.validate(peers)

        self.x_full, self.t_full = dataset
        self.shards = data.shard_dataset(self.x_full, self.t_full, self.n_clusters, config.seed)

        if config.eta == "auto":
            self.eta, _ = rate_preset_eta(
                model,
                init_values,
                self.shards,
                config.batch_size,
                config.k_target,
                self.n_clusters,
                plan.min_peers,
                seed=config.seed,
            )
        else:
            self.eta = float(config.eta)

        self.network = Network(
            plan.nodes,
            link_overrides=link_overrides,
            default_latency=config.default_latency,
            trace_enabled=config.trace_enabled,
        )
        per_cluster_updates = config.k_target // self.n_clusters
        self.budget = {}
        self.offered = {}
        self.clusters: dict[int, ClusterPipeline] = {}
        callbacks = PipelineCallbacks(
            on_update=self._on_update,
            on_batch_done=self._on_batch_done,
            on_admitted=self._on_admitted,
        )
        for cid in self.cluster_ids:
            p = len(plan.pipelines[cid])
            self.budget[cid] = per_cluster_updates * config.n_accum // p
            self.offered[cid] = 0
            pcfg = PipelineConfig(
                eta=self.eta,
                max_inflight=config.max_inflight if config.max_inflight else p,
                n_accum=config.n_accum,
                enforce_T=config.enforce_T,
                T_bound=config.T_bound,
                fwd_cost_coeff=config.fwd_cost_coeff,
                bwd_cost_ratio=config.bwd_cost_ratio,
            )
            self.clusters[cid] = ClusterPipeline(
                cid,
                model,
                plan.layouts[cid],
                plan.pipelines[cid],
                init_values,
                self.network,
                pcfg,
                callbacks,
            )
        for cid in self.cluster_ids:
            for idx, node_id in enumerate(plan.pipelines[cid]):
                self.network.register(node_id, self._make_router(cid, idx))

        self.clock = GlobalClock(0, {cid: 0 for cid in self.cluster_ids}, 0)
        self.metrics: list[MetricsRow] = []
        self.checkpoints: list[CheckpointRecord] = []
        self.trajectory: list[np.ndarray] = []
        self._draining = False
        self._ring_ctl: AllReduceController | None = None
        self._last_good = np.array(init_values, dtype=np.float64)

    # -- event plumbing ----------------------------------------------------

    def _make_router(self, cid: int, peer_index: int):
        def route(msg, now):
            if msg.kind == "ring_chunk":
                if self._ring_ctl is None:
                    raise ProtocolError("ring chunk outside an averaging cycle")
                self._ring_ctl.handle(msg, now)
                if self._ring_ctl.done():
                    self._complete_drain_cycle(now)
            else:
                self.clusters[cid].dispatch(peer_index, msg, now)

        return route

    def _offer(self, cid: int, now: float) -> None:
        seq = self.offered[cid]
        self.offered[cid] += 1
        pos = self._cluster_pos[cid]
        batch = data.make_batch(
            self.shards[pos], seq, self.config.batch_size, cid, pos, self.n_clusters
        )
        self.clusters[cid].admit_batch(batch, now)

    def _pump(self, cid: int, now: float) -> None:
        cluster = self.clusters[cid]
        while self.offered[cid] < self.budget[cid] and cluster._can_admit():
            self._offer(cid, now)
        # keep one batch queued so a freed slot refills without a round trip
        if (
            self.offered[cid] < self.budget[cid]
            and not cluster._paused
            and not cluster._deferred
        ):
            self._offer(cid, now)

    # -- callbacks -----------------------------------------------------------

    def _on_admitted(self, cid: int, batch_id: int, now: float) -> None:
        self._pump(cid, now)

    def _on_update(self, cid: int, peer_index: int, batch_id: int, tau: int, now: float) -> None:
        self.clock.t += 1
        self.clock.per_cluster[cid] += 1
        cluster = self.clusters[cid]
        loss = cluster.losses.get(batch_id) if peer_index == cluster.n_peers - 1 else None
        self.metrics.append(MetricsRow(self.clock.t, cid, peer_index, tau, loss, None, now))
        if self.config.record_trajectory:
            self.trajectory.append(cluster.full_values())
        self._maybe_average(now)

    def _on_batch_done(self, cid: int, batch_id: int, now: float) -> None:
        if self._draining:
            self._try_finish_drain(now)
        else:
            self._pump(cid, now)

    # -- averaging barrier -----------------------------------------------------

    def _maybe_average(self, now: float) -> None:
        if self._draining:
            return
        if self.clock.t // self.config.kappa <= self.clock.cycle:
            return
        if self.config.barrier_mode == "snapshot" or self.n_clusters == 1:
            while self.clock.t // self.config.kappa > self.clock.cycle:
                vals = {cid: self.clusters[cid].full_values() for cid in self.cluster_ids}
                if self.n_clusters >= 2:
                    vals = multiring.apply_ring_mean(self.plan.ring_schedule, vals)
                    for cid in self.cluster_ids:
                        self.clusters[cid].load_values(vals[cid])
                self._record_cycle(vals, now)
        else:
            self._draining = True
            for cid in self.cluster_ids:
                self.clusters[cid].pause_admissions()
            self._try_finish_drain(now)

    def _try_finish_drain(self, now: float) -> None:
        if self._ring_ctl is not None:
            return
        if not all(self.clusters[cid].is_idle() for cid in self.cluster_ids):
            return
        working = {cid: self.clusters[cid].full_values() for cid in self.cluster_ids}
        self._ring_ctl = AllReduceController(
            self.plan.ring_schedule, working, self.network, self.plan.node_of
        )
        self._ring_ctl.kickoff(now)

    def _complete_drain_cycle(self, now: float) -> None:
        working = self._ring_ctl.working
        self._ring_ctl = None
        for cid in self.cluster_ids:
            self.clusters[cid].load_values(working[cid])
        self._record_cycle(working, now)
        if self.clock.t // self.config.kappa > self.clock.cycle:
            self._try_finish_drain(now)  # boundary crossed while draining
            return
        self._draining = False
        for cid in self.cluster_ids:
            self.clusters[cid].resume_admissions(now)
        for cid in self.cluster_ids:
            self._pump(cid, now)

    def _record_cycle(self, values: dict[int, np.ndarray], now: float) -> None:
        self.clock.cycle += 1
        stack = np.stack([values[cid] for cid in self.cluster_ids])
        mean = stack.mean(axis=0)
        spread = float(np.abs(stack - mean).max())
        loss, grads = modelcore.full_gradient(self.model, mean, self.x_full, self.t_full)
        grad_norm = float(grads @ grads)
        self.checkpoints.append(CheckpointRecord(self.clock.t, now, grad_norm, loss, spread))
        self.metrics.append(
            MetricsRow(self.clock.t, -1, -1, None, None, grad_norm, now)
        )
        self._last_good = mean

    # -- main loop ---------------------------------------------------------------

    def _diagnostics(self) -> str:
        lines = [f"t={self.clock.t}/{self.config.k_target} cycle={self.clock.cycle} "
                 f"draining={self._draining}"]
        for cid in self.cluster_ids:
            lines.append(self.clusters[cid].buffer_report())
        if self._ring_ctl is not None:
            lines.append(self._ring_ctl.stall_report())
        return "\n".join(lines)

    def run(self) -> TrainResult:
        for cid in self.cluster_ids:
            self.network.schedule(0.0, lambda now, c=cid: self._pump(c, now))
        try:
            self.network.run_until(
                max_events=self.config.max_events, diagnostics=self._diagnostics
            )
        except NumericError as exc:
            exc.checkpoint_values = self._last_good  # last averaged parameters
            raise
        if self.clock.t != self.config.k_target:
            raise StallError(
                f"run ended at t={self.clock.t}, expected {self.config.k_target}\n"
                + self._diagnostics()
            )
        cluster_values = {cid: self.clusters[cid].full_values() for cid in self.cluster_ids}
        mean = np.stack([cluster_values[cid] for cid in self.cluster_ids]).mean(axis=0)
        final_loss = modelcore.full_loss(self.model, mean, self.x_full, self.t_full)
        return TrainResult(
            metrics=self.metrics,
            checkpoints=self.checkpoints,
            clock=self.clock,
            cluster_values=cluster_values,
            mean_values=mean,
            staleness={cid: list(self.clusters[cid].staleness) for cid in self.cluster_ids},
            traces={cid: self.clusters[cid].trace_info() for cid in self.cluster_ids},
            virtual_time=self.network.now,
            eta_used=self.eta,
            final_loss=final_loss,
            trajectory=self.trajectory,
            net_trace_csv=self.network.trace_csv() if self.config.trace_enabled else None,
        )


def train(
    model: ModelSpec,
    init_values: np.ndarray,
    plan: SessionPlan,
    config: TrainConfig,
    dataset: tuple[np.ndarray, np.ndarray],
    link_overrides: dict | None = None,
) -> TrainResult:
    """Run the full decentralized loop until t reaches k_target."""
    return _Trainer(model, init_values, plan, config, dataset, link_overrides).run()


# ---------------------------------------------------------------------------
# convergence measurement


@dataclass
class ConvergenceReport:
    final_loss: float
    grad_norm_series: list[float]  # running mean of ||grad f(mean x)||^2
    rate_slope: float


def measure_convergence(
    checkpoints: Sequence[CheckpointRecord], tail_frac: float = 0.5
) -> ConvergenceReport:
    """Least-squares slope of log(running mean grad norm) vs log(t) on the tail."""
    n = len(checkpoints)
    if n < 10:
        raise MeasurementError(f"need >= 10 checkpoints, have {n}")
    gn = np.array([c.grad_norm for c in checkpoints])
    ts = np.array([c.t for c in checkpoints], dtype=np.float64)
    running = np.cumsum(gn) / np.arange(1, n + 1)
    start = min(n - 2, int(math.floor(n * (1.0 - tail_frac))))
    logs = np.log(np.maximum(running[start:], 1e-300))
    slope = float(np.polyfit(np.log(ts[start:]), logs, 1)[0])
    return ConvergenceReport(checkpoints[-1].loss, running.tolist(), slope)


def updates_per_vtime(result: TrainResult, skip_frac: float = 0.2) -> float:
    """Steady-state update throughput, skipping the pipeline fill phase."""
    rows = [r for r in result.metrics if r.cluster >= 0]
    if len(rows) < 10:
        raise MeasurementError("too few update rows for a throughput estimate")
    a = rows[int(len(rows) * skip_frac)]
    b = rows[-1]
    if b.virtual_time <= a.virtual_time:
        raise MeasurementError("virtual time did not advance")
    return (b.t - a.t) / (b.virtual_time - a.virtual_time)


# ---------------------------------------------------------------------------
# learning-rate preset


def rate_preset_eta(
    model: ModelSpec,
    values0: np.ndarray,
    shards: Sequence[tuple[np.ndarray, np.ndarray]],
    batch_size: int,
    k_target: int,
    n_clusters: int,
    min_peers: int,
    seed: int = 0,
    probes: int = 4,
) -> tuple[float, dict]:
    """eta = C sqrt(N_m) / sqrt(K (2 N_m + L (sigma^2 + 8 s^2))).

    The smoothness constant and both variance terms are measured empirically
    at the initial point: L from gradient differences along random probes,
    sigma^2 from minibatch gradients around their shard gradient, s^2 from
    shard gradients around the global one. Clamped to C/(10 L) so the step
    stays inside the regime the rate bound assumes.
    """
    rng = np.random.Generator(np.random.Philox(key=seed + 999))
    x_all = np.concatenate([s[0] for s in shards])
    t_all = np.concatenate([s[1] for s in shards])
    _, g_all = modelcore.full_gradient(model, values0, x_all, t_all)

    l_hat = 0.0
    scale = 1e-3 * (1.0 + float(np.linalg.norm(values0)) / max(1.0, np.sqrt(values0.size)))
    for _ in range(probes):
        delta = rng.normal(size=values0.shape)
        delta *= scale / np.linalg.norm(delta)
        _, g2 = modelcore.full_gradient(model, values0 + delta, x_all, t_all)
        l_hat = max(l_hat, float(np.linalg.norm(g2 - g_all) / np.linalg.norm(delta)))
    l_hat = max(l_hat, 1e-12)

    sigma2 = 0.0
    s2 = 0.0
    for pos, shard in enumerate(shards):
        _, g_i = modelcore.full_gradient(model, values0, shard[0], shard[1])
        s2 += float(np.sum((g_i - g_all) ** 2))
        nb = min(16, max(1, shard[0].shape[0] // batch_size))
        acc = 0.0
        for seq in range(nb):
            b = data.make_batch(shard, seq, batch_size, 0, pos, len(shards))
            _, gb = modelcore.full_gradient(model, values0, b.inputs, b.targets)
            acc += float(np.sum((gb - g_i) ** 2))
        sigma2 += acc / nb
    sigma2 /= len(shards)
    s2 /= len(shards)

    eta = n_clusters * math.sqrt(min_peers) / math.sqrt(
        k_target * (2 * min_peers + l_hat * (sigma2 + 8 * s2))
    )
    eta = min(eta, n_clusters / (10.0 * l_hat))
    info = {"L": l_hat, "sigma2": sigma2, "s2": s2, "eta": eta}
    return eta, info
