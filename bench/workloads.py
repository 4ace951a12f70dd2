"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload object offers the same calls, used by ``run.py``:

- ``setup(seed)`` builds everything the timed call needs (timed as setup_s);
- ``op(state, index)`` is the timed call: one ``train`` or one ``evolve``;
- ``work(result)`` is the work one call completed (updates or plans);
- ``check(state, index, result)`` returns the problems found in one result;
- ``outcome(state)`` returns the deterministic result metrics and hashes;
- ``ring_metrics(state, windows)`` turns a traced call's ring kickoff and
  last-round times into virtual ring and drain time.

``min_calls`` is the fewest timed calls a run makes, so every check runs.

Why these workloads, and which layer each one loads, is in README.md.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from ravnest import clusterform, data, modelcore, multiring, oracle, orchestrator
from ravnest.errors import MeasurementError
from ravnest.pipeline import ClusterTrace, measure_bubble
from ravnest.simnet import NodeSpec

SPREAD_TOL = 1e-12  # checkpoint spread bound, relative to 1 + max|x|
GA_RATIO_TOL = 1.05  # GA fitness over the exhaustive optimum, per pool
OPTIMAL_TOL = 1e-9  # a GA result this close to the optimum counts as optimal


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainSpec:
    name: str
    n_clusters: int
    peers: int  # per cluster, one layer range each
    arch: tuple[int, ...]
    loss: str
    generator: str
    n_samples: int
    batch_size: int
    k_target: int
    kappa: int
    barrier_mode: str
    bandwidth: float  # bytes/s of every node
    latency: float  # seconds per link
    speed_factors: tuple[float, ...]  # cycled over the peers of a cluster
    eta: float = 0.05


PIPELINE_DEEP = TrainSpec(
    name="pipeline-deep",
    n_clusters=2,
    peers=8,
    arch=(8,) + (16,) * 7 + (3,),
    loss="softmax_ce",
    generator="classify",
    n_samples=512,
    batch_size=2,
    k_target=12800,
    kappa=12800 // 4,
    barrier_mode="snapshot",
    bandwidth=1e9,
    latency=1e-6,
    speed_factors=(1.0, 0.7, 1.0, 1.3),
)

SYNC_AVERAGE = TrainSpec(
    name="sync-average",
    n_clusters=8,
    peers=1,
    arch=(16, 64, 64, 4),
    loss="mse",
    generator="mlp",
    n_samples=256,
    batch_size=8,
    k_target=2048,
    kappa=8,
    barrier_mode="drain",
    bandwidth=1e8,
    latency=1e-5,
    speed_factors=(1.0,),
)


@dataclass
class TrainState:
    model: modelcore.ModelSpec
    init_values: np.ndarray
    plan: clusterform.SessionPlan
    dataset: tuple[np.ndarray, np.ndarray]
    config: orchestrator.TrainConfig
    init_loss: float = math.nan
    first: orchestrator.TrainResult | None = None


def barrier_windows(result: orchestrator.TrainResult, kappa: int) -> list[tuple[float, float]]:
    """(trigger, checkpoint) virtual times of every averaging cycle.

    The trigger is the update row whose t first reaches a multiple of kappa;
    t grows by one per update row, so that row has t == k * kappa.
    """
    triggers = []
    for row in result.metrics:
        if row.cluster >= 0 and row.t == (len(triggers) + 1) * kappa:
            triggers.append(row.virtual_time)
    return list(zip(triggers, (c.virtual_time for c in result.checkpoints)))


def idle_frac_max(result: orchestrator.TrainResult, warmup: int = 5) -> float:
    """Worst single peer's idle share inside measure_bubble's window."""
    worst = 0.0
    for trace in result.traces.values():
        for busy in trace.busy_intervals:
            one = ClusterTrace([busy], trace.inflight_steps, trace.completions)
            try:
                worst = max(worst, measure_bubble(one, warmup))
            except MeasurementError:
                pass
    return worst


class TrainWorkload:
    min_calls = 2  # the second call checks that train() is deterministic

    def __init__(self, spec: TrainSpec):
        self.spec = spec
        self.name = spec.name

    def setup(self, seed: int) -> TrainState:
        spec = self.spec
        model, params = modelcore.build_model(spec.arch, seed, "tanh", spec.loss)
        footprint = clusterform.ModelFootprint.from_model(model, spec.batch_size)
        pool, assignment = [], []
        for cluster in range(1, spec.n_clusters + 1):
            for peer in range(spec.peers):
                speed = spec.speed_factors[peer % len(spec.speed_factors)]
                pool.append(NodeSpec(f"c{cluster}p{peer}", footprint.M, spec.bandwidth, speed))
                assignment.append(cluster)
        plan = clusterform.plan_session(
            pool, footprint, spec.n_clusters, model, assignment=assignment
        )
        dataset = data.make_dataset(spec.generator, model, spec.n_samples, seed)
        config = orchestrator.TrainConfig(
            eta=spec.eta,
            kappa=spec.kappa,
            k_target=spec.k_target,
            batch_size=spec.batch_size,
            barrier_mode=spec.barrier_mode,
            default_latency=spec.latency,
            seed=seed,
        )
        return TrainState(model, params.values, plan, dataset, config)

    def op(self, state: TrainState, index: int) -> orchestrator.TrainResult:
        return orchestrator.train(
            state.model, state.init_values, state.plan, state.config, state.dataset
        )

    def work(self, result: orchestrator.TrainResult) -> float:
        return float(result.clock.t)

    def check(self, state: TrainState, index: int, result: orchestrator.TrainResult) -> list[str]:
        problems = []
        if result.clock.t != self.spec.k_target:
            problems.append(f"ended at t={result.clock.t}, expected {self.spec.k_target}")
        scale = 1.0 + max(float(np.abs(v).max()) for v in result.cluster_values.values())
        spread = max((c.spread for c in result.checkpoints), default=0.0)
        if spread > SPREAD_TOL * scale:
            problems.append(f"checkpoint spread {spread:.3e} > {SPREAD_TOL:g}*(1+max|x|)")
        if math.isnan(state.init_loss):
            state.init_loss = modelcore.full_loss(state.model, state.init_values, *state.dataset)
        if not (math.isfinite(result.final_loss) and result.final_loss < state.init_loss):
            problems.append(f"final loss {result.final_loss!r} not below init {state.init_loss!r}")
        if state.first is None:
            state.first = result
        elif result.metrics_hash() != state.first.metrics_hash():
            problems.append("same-seed train() gave a different metrics_sha256")
        return problems

    def outcome(self, state: TrainState) -> tuple[dict, dict]:
        result = state.first
        summary = result.summary()
        windows = barrier_windows(result, self.spec.kappa)
        metrics = {
            "pipeline.bubble_fraction": summary["bubble_fraction"],
            "pipeline.idle_frac_max": idle_frac_max(result),
            "pipeline.max_tau": float(result.max_tau()),
            "orchestrator.updates_per_vs": orchestrator.updates_per_vtime(result),
            "orchestrator.barrier_vs_frac": sum(b - a for a, b in windows) / result.virtual_time,
            "orchestrator.final_loss": result.final_loss,
            "orchestrator.cycles": float(result.clock.cycle),
        }
        return metrics, {"metrics_sha256": summary["metrics_sha256"]}

    def ring_metrics(self, state: TrainState, ring_windows: list[list[float]]) -> dict:
        """Virtual ring and drain time of one traced call, from its kickoffs."""
        triggers = [a for a, _ in barrier_windows(state.first, self.spec.kappa)]
        ring_vs = sum((end - start for start, end in ring_windows), 0.0)
        drain_vs = sum((start - trig for trig, (start, _) in zip(triggers, ring_windows)), 0.0)
        cost_ratio = 0.0
        if ring_windows:
            plan = state.plan

            def bandwidth(a, b):
                return min(plan.nodes[plan.node_of(*m)].bandwidth_Bps for m in (a, b))

            cost = multiring.allreduce_cost(plan.ring_schedule, bandwidth, self.spec.latency)
            cost_ratio = ring_vs / len(ring_windows) / cost.critical_seconds
        return {
            "multiring.ring_vs": ring_vs,
            "multiring.cost_ratio": cost_ratio,
            "orchestrator.drain_vs": drain_vs,
        }


# ---------------------------------------------------------------------------
# GA planning workload


@dataclass(frozen=True)
class GASpec:
    name: str = "ga-plan"
    n_pools: int = 8  # the timed calls cycle over this many pools
    generations: int = clusterform.GAParams.generations


@dataclass(frozen=True)
class GAPool:
    nodes: list[NodeSpec]
    footprint: clusterform.ModelFootprint
    q: int
    params: clusterform.GAParams


@dataclass
class GAState:
    pools: list[GAPool]
    optimum: dict[int, tuple] = field(default_factory=dict)  # exhaustive search result
    best: dict[int, tuple[int, ...]] = field(default_factory=dict)
    ratio: dict[int, float] = field(default_factory=dict)


class GAWorkload:
    def __init__(self, spec: GASpec):
        self.spec = spec
        self.name = spec.name
        self.min_calls = spec.n_pools  # every pool is checked at least once

    def setup(self, seed: int) -> GAState:
        """Pools from the acceptance suite's criterion-7 generator."""
        rng = np.random.Generator(np.random.Philox(key=seed))
        pools = []
        for _ in range(self.spec.n_pools):
            n = int(rng.integers(4, 11))
            q = min(int(rng.integers(2, 4)), n)
            nodes = clusterform.random_pool(rng, n)
            m = float(rng.uniform(0.5, 1.2)) * sum(nd.ram_bytes for nd in nodes) / q
            footprint = clusterform.ModelFootprint(1, 0.0, m)
            params = clusterform.GAParams(
                seed=int(rng.integers(2**31)), generations=self.spec.generations
            )
            pools.append(GAPool(nodes, footprint, q, params))
        return GAState(pools)

    def op(self, state: GAState, index: int) -> clusterform.EvolveResult:
        pool = state.pools[index % len(state.pools)]
        return clusterform.evolve(pool.nodes, pool.footprint, pool.q, pool.params)

    def work(self, result: clusterform.EvolveResult) -> float:
        return 1.0

    def check(self, state: GAState, index: int, res: clusterform.EvolveResult) -> list[str]:
        i = index % len(state.pools)
        pool = state.pools[i]
        if i not in state.optimum:
            state.optimum[i] = oracle.exhaustive_partition(pool.nodes, pool.footprint, pool.q)
        _, (_, _, best_total), feasible = state.optimum[i]
        problems = []
        if any(b > a for a, b in zip(res.history, res.history[1:])):
            problems.append(f"pool {i}: GA history increased")
        if feasible and not res.feasible:
            problems.append(f"pool {i}: feasible optimum exists, GA result infeasible")
        if best_total > 0:
            ratio = res.fitness.total / best_total
        else:
            ratio = 1.0 if res.fitness.total == 0.0 else math.inf
        if ratio > GA_RATIO_TOL:
            problems.append(f"pool {i}: fitness ratio {ratio:.4f} > {GA_RATIO_TOL}")
        if state.best.setdefault(i, res.best) != res.best:
            problems.append(f"pool {i}: same-seed evolve() gave a different best")
        state.ratio[i] = ratio
        return problems

    def outcome(self, state: GAState) -> tuple[dict, dict]:
        ratios = [state.ratio[i] for i in sorted(state.ratio)]
        bests = [state.best[i] for i in sorted(state.best)]
        metrics = {
            "clusterform.ga_fitness_ratio": sum(ratios) / len(ratios),
            "clusterform.optimal_frac": sum(r <= 1.0 + OPTIMAL_TOL for r in ratios) / len(ratios),
        }
        digest = hashlib.sha256(repr(bests).encode()).hexdigest()
        return metrics, {"ga_best_sha256": digest}

    def ring_metrics(self, state: GAState, ring_windows: list[list[float]]) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (TrainWorkload(PIPELINE_DEEP), TrainWorkload(SYNC_AVERAGE), GAWorkload(GASpec()))
}
