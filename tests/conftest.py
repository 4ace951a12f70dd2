"""Shared builders: standalone single-cluster pipelines, batch drivers, and
small multi-cluster session plans."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ravnest import modelcore
from ravnest.clusterform import ModelFootprint, plan_session
from ravnest.modelcore import Batch
from ravnest.pipeline import ClusterPipeline, PipelineCallbacks, PipelineConfig
from ravnest.simnet import Network, NodeSpec


@dataclass
class ClusterHarness:
    network: Network
    cluster: ClusterPipeline
    model: modelcore.ModelSpec
    init_values: np.ndarray
    admit_times: list[tuple[int, float]] = field(default_factory=list)
    update_times: list[tuple[int, int, float]] = field(default_factory=list)


def make_cluster(
    n_peers: int,
    seed: int = 3,
    eta: float = 0.05,
    max_inflight: int | None = None,
    n_accum: int = 1,
    enforce_T: bool = False,
    T_bound: int = 0,
    latency: float = 0.0,
    cost_coeff: float = 1e-6,
    bwd_cost_ratio: float = 1.0,
    hidden: str = "tanh",
    loss: str = "mse",
    width: int = 4,
) -> ClusterHarness:
    """Equal-stage cluster: one identically sized layer per peer."""
    arch = [width] * (n_peers + 1)
    model, params = modelcore.build_model(arch, seed, hidden, loss)
    layer_bytes = modelcore.layer_cost_bytes(model.layers[0])
    subs = modelcore.partition_model(model, [layer_bytes] * n_peers)
    nodes = {f"p{i}": NodeSpec(f"p{i}", 1e12, 1e12, 1.0) for i in range(n_peers)}
    network = Network(nodes, default_latency=latency)
    config = PipelineConfig(
        eta=eta,
        max_inflight=max_inflight if max_inflight is not None else n_peers,
        n_accum=n_accum,
        enforce_T=enforce_T,
        T_bound=T_bound,
        fwd_cost_coeff=cost_coeff,
        bwd_cost_ratio=bwd_cost_ratio,
    )
    harness = ClusterHarness(network, None, model, params.values.copy())  # type: ignore
    callbacks = PipelineCallbacks(
        on_admitted=lambda cid, bid, now: harness.admit_times.append((bid, now)),
        on_update=lambda cid, peer, bid, tau, now: harness.update_times.append((peer, tau, now)),
    )
    cluster = ClusterPipeline(
        0, model, subs, list(nodes), params.values, network, config, callbacks
    )
    cluster.attach()
    harness.cluster = cluster
    return harness


def tiny_plan(
    peer_counts: list[int],
    width: int = 4,
    seed: int = 3,
    batch_size: int = 2,
    bandwidth: float = 1e9,
    hidden: str = "tanh",
    loss: str = "mse",
    n_layers: int | None = None,
    arch: list[int] | None = None,
    speed_factors: tuple[float, ...] = (1.0,),
):
    """Multi-cluster plan with a fixed assignment (no GA); peer j of every
    cluster runs at speed_factors[j % len(speed_factors)]."""
    if arch is None:
        layers = n_layers if n_layers is not None else max(peer_counts)
        arch = [width] * (layers + 1)
    model, params = modelcore.build_model(arch, seed, hidden, loss)
    fp = ModelFootprint.from_model(model, batch_size)
    pool = []
    assignment = []
    for ci, count in enumerate(peer_counts, start=1):
        for j in range(count):
            pool.append(NodeSpec(f"c{ci}n{j}", fp.M, bandwidth, speed_factors[j % len(speed_factors)]))
            assignment.append(ci)
    plan = plan_session(pool, fp, len(peer_counts), model, assignment=assignment)
    return model, params, plan


def random_batches(model, n_batches, batch_size=2, seed=11, classify=False):
    rng = np.random.Generator(np.random.Philox(key=seed))
    batches = []
    for k in range(n_batches):
        x = rng.normal(size=(batch_size, model.in_dim))
        if classify:
            t = np.zeros((batch_size, model.out_dim))
            t[np.arange(batch_size), rng.integers(0, model.out_dim, batch_size)] = 1.0
        else:
            t = rng.normal(size=(batch_size, model.out_dim))
        batches.append(Batch(inputs=x, targets=t, batch_id=k, cluster_id=0))
    return batches


def drive(harness: ClusterHarness, batches, max_events: int | None = 2_000_000) -> None:
    """Feed batches the way the orchestrator does: keep one queued so a freed
    slot refills at the exact slot-free event."""
    state = {"next": 0}
    cluster = harness.cluster

    def pump(now):
        while state["next"] < len(batches) and cluster._can_admit():
            idx = state["next"]
            state["next"] += 1
            cluster.admit_batch(batches[idx], now)
        if state["next"] < len(batches) and not cluster._deferred:
            idx = state["next"]
            state["next"] += 1
            cluster.admit_batch(batches[idx], now)

    base_admit = cluster.callbacks.on_admitted
    base_done = cluster.callbacks.on_batch_done

    def on_admitted(cid, bid, now):
        base_admit(cid, bid, now)
        pump(now)

    def on_done(cid, bid, now):
        base_done(cid, bid, now)
        pump(now)

    cluster.callbacks.on_admitted = on_admitted
    cluster.callbacks.on_batch_done = on_done
    harness.network.schedule(0.0, pump)
    harness.network.run_until(max_events=max_events, diagnostics=cluster.buffer_report)
