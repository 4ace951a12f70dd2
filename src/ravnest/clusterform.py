"""GA-driven cluster formation.

Nodes are grouped into Q clusters so that every cluster's combined RAM holds
the model's peak footprint while the per-cluster sums of data transfer times
stay as close as possible (max pairwise difference minimized). Infeasible
assignments receive additive penalties large enough that they can never beat
a feasible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import modelcore, multiring
from .errors import ConfigError, InfeasibleError, PartitionError
from .modelcore import ModelSpec, SubmodelSpec
from .multiring import RingSchedule
from .simnet import NodeSpec


def validate_pool(pool: Sequence[NodeSpec]) -> None:
    if not pool:
        raise ConfigError("empty node pool")
    seen = set()
    for node in pool:
        if node.node_id in seen:
            raise ConfigError(f"duplicate node id {node.node_id!r}")
        seen.add(node.node_id)
        if node.ram_bytes <= 0 or node.bandwidth_Bps <= 0:
            raise ConfigError(f"node {node.node_id!r} needs positive ram and bandwidth")


@dataclass(frozen=True)
class ModelFootprint:
    """Peak memory: batch_size x forward/backward bytes plus parameter bytes."""

    batch_size: int
    fwdbwd_bytes_per_sample: float
    param_bytes: float

    def __post_init__(self):
        if self.M <= 0:
            raise ConfigError(f"footprint must be positive, got {self}")

    @property
    def M(self) -> float:
        return self.batch_size * self.fwdbwd_bytes_per_sample + self.param_bytes

    @classmethod
    def from_model(cls, model: ModelSpec, batch_size: int) -> "ModelFootprint":
        return cls(batch_size, float(model.fwdbwd_bytes_per_sample), float(model.param_bytes))


@dataclass(frozen=True)
class Fitness:
    imbalance: float
    penalty: float

    @property
    def total(self) -> float:
        return self.imbalance + self.penalty

    @property
    def feasible(self) -> bool:
        return self.penalty == 0.0


def penalty_scale(pool: Sequence[NodeSpec], footprint: ModelFootprint) -> float:
    """Weight that dominates any achievable imbalance: 10x the worst
    single-node transfer time of the whole footprint."""
    return 10.0 * footprint.M / min(n.bandwidth_Bps for n in pool)


def evaluate(
    assignment: Sequence[int],
    pool: Sequence[NodeSpec],
    footprint: ModelFootprint,
    q: int,
    lam_ram: float | None = None,
    lam_empty: float | None = None,
) -> Fitness:
    """Penalized fitness of one assignment (lower is better).

    Transfer time of a cluster is the sum over members of their
    RAM-proportional share of M divided by their bandwidth; the imbalance is
    the largest pairwise difference of those sums.
    """
    if q < 1:
        raise ConfigError("q must be >= 1")
    if len(assignment) != len(pool):
        raise ConfigError("assignment length must match pool size")
    scale = penalty_scale(pool, footprint)
    if lam_ram is None:
        lam_ram = scale
    if lam_empty is None:
        lam_empty = scale
    m = footprint.M
    times = []
    penalty = 0.0
    for cid in range(1, q + 1):
        members = [node for node, c in zip(pool, assignment) if c == cid]
        if not members:
            penalty += lam_ram + lam_empty
            times.append(0.0)
            continue
        ram_sum = sum(node.ram_bytes for node in members)
        times.append(sum((m * node.ram_bytes / ram_sum) / node.bandwidth_Bps for node in members))
        if ram_sum < m:
            penalty += lam_ram * (m - ram_sum) / m
    imbalance = (max(times) - min(times)) if q >= 2 else 0.0
    return Fitness(imbalance, penalty)


def check_feasibility(
    assignment: Sequence[int], pool: Sequence[NodeSpec], footprint: ModelFootprint, q: int
) -> bool:
    """RAM constraint check, deliberately separate from the fitness path."""
    for cid in range(1, q + 1):
        total = 0.0
        count = 0
        for node, c in zip(pool, assignment):
            if c == cid:
                total += node.ram_bytes
                count += 1
        if count == 0 or total < footprint.M:
            return False
    return True


@dataclass
class GAParams:
    pop_size: int = 64
    generations: int = 150
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    elitism_k: int = 2
    tournament_k: int = 3
    seed: int = 0


@dataclass
class EvolveResult:
    best: tuple[int, ...]
    fitness: Fitness
    history: list[float]
    feasible: bool
    provably_infeasible: bool


def evolve(
    pool: Sequence[NodeSpec], footprint: ModelFootprint, q: int, params: GAParams
) -> EvolveResult:
    """Tournament GA with uniform crossover, per-gene mutation, and elitism.

    Deterministic for a fixed seed. The best individual ever observed is
    tracked across generations and returned; the per-generation history of
    that best is therefore nonincreasing.
    """
    validate_pool(pool)
    n = len(pool)
    if params.pop_size < 2 or params.generations < 1:
        raise ConfigError("pop_size >= 2 and generations >= 1 required")
    if q > n:
        raise ConfigError(f"cannot form {q} non-empty clusters from {n} nodes")
    provably_infeasible = sum(node.ram_bytes for node in pool) < q * footprint.M

    rng = np.random.default_rng(params.seed)
    pop = rng.integers(1, q + 1, size=(params.pop_size, n))
    totals = np.array([evaluate(ind, pool, footprint, q).total for ind in pop])

    best_idx = int(np.argmin(totals))
    best = pop[best_idx].copy()
    best_total = float(totals[best_idx])
    history = [best_total]

    for _ in range(params.generations):
        order = np.argsort(totals, kind="stable")
        children = [pop[i].copy() for i in order[: params.elitism_k]]
        while len(children) < params.pop_size:
            pa = pop[_tournament(rng, totals, params.tournament_k)]
            pb = pop[_tournament(rng, totals, params.tournament_k)]
            if rng.random() < params.crossover_rate:
                mask = rng.random(n) < 0.5
                child = np.where(mask, pa, pb)
            else:
                child = pa.copy()
            mut = rng.random(n) < params.mutation_rate
            if mut.any():
                child = child.copy()
                child[mut] = rng.integers(1, q + 1, size=int(mut.sum()))
            children.append(child)
        pop = np.array(children)
        totals = np.array([evaluate(ind, pool, footprint, q).total for ind in pop])
        gen_best = int(np.argmin(totals))
        if totals[gen_best] < best_total:
            best_total = float(totals[gen_best])
            best = pop[gen_best].copy()
        history.append(best_total)

    fit = evaluate(best, pool, footprint, q)
    return EvolveResult(
        best=tuple(int(c) for c in best),
        fitness=fit,
        history=history,
        feasible=fit.feasible,
        provably_infeasible=provably_infeasible,
    )


def _tournament(rng: np.random.Generator, totals: np.ndarray, k: int) -> int:
    idx = rng.integers(0, len(totals), size=k)
    return int(idx[np.argmin(totals[idx])])


# ---------------------------------------------------------------------------
# session planning


@dataclass
class SessionPlan:
    """Validated output of cluster formation: who hosts what, and the rings."""

    q: int
    assignment: tuple[int, ...]
    nodes: dict[str, NodeSpec]
    pipelines: dict[int, list[str]]          # cluster id -> node ids in stage order
    layouts: dict[int, list[SubmodelSpec]]
    ring_schedule: RingSchedule
    model: ModelSpec
    footprint: ModelFootprint

    @property
    def cluster_ids(self) -> list[int]:
        return sorted(self.pipelines)

    @property
    def max_peers(self) -> int:
        return max(len(p) for p in self.pipelines.values())

    @property
    def min_peers(self) -> int:
        return min(len(p) for p in self.pipelines.values())

    def node_of(self, cluster_id: int, peer: int) -> str:
        return self.pipelines[cluster_id][peer]


def plan_session(
    pool: Sequence[NodeSpec],
    footprint: ModelFootprint,
    q: int,
    model: ModelSpec,
    ga_params: GAParams | None = None,
    assignment: Sequence[int] | None = None,
) -> SessionPlan:
    """Cluster the pool, split the model per cluster, and build the rings.

    The cluster with the most peers is split at layer granularity; the other
    clusters split along that cluster's chunk boundaries so all layouts nest
    and the ring count equals the maximum peer count.
    """
    validate_pool(pool)
    if assignment is None:
        res = evolve(pool, footprint, q, ga_params or GAParams())
        if not res.feasible:
            deficits = []
            for cid in range(1, q + 1):
                ram = sum(n.ram_bytes for n, c in zip(pool, res.best) if c == cid)
                if ram < footprint.M:
                    deficits.append(f"cluster {cid}: {footprint.M - ram:.0f} bytes short")
            raise InfeasibleError(
                f"no feasible assignment for M={footprint.M:.0f}; best attempt: "
                + ("; ".join(deficits) if deficits else "empty cluster")
            )
        assignment = res.best
    assignment = tuple(int(c) for c in assignment)

    members: dict[int, list[NodeSpec]] = {cid: [] for cid in range(1, q + 1)}
    for node, cid in zip(pool, assignment):
        members[cid].append(node)
    for cid, nodes in members.items():
        if not nodes:
            raise InfeasibleError(f"cluster {cid} is empty")

    order = sorted(members, key=lambda cid: (-len(members[cid]), cid))
    layouts: dict[int, list[SubmodelSpec]] = {}
    anchor_atoms: list[tuple[int, int]] | None = None
    for cid in order:
        caps = [n.ram_bytes for n in members[cid]]
        try:
            subs = modelcore.partition_model(
                model, caps, batch_size=footprint.batch_size, atoms=anchor_atoms
            )
        except PartitionError as exc:
            raise PartitionError(f"cluster {cid}: {exc}") from exc
        layouts[cid] = subs
        if anchor_atoms is None:
            anchor_atoms = [(s.layer_lo, s.layer_hi) for s in subs]

    schedule = multiring.build_ring_schedule(layouts)
    multiring.validate_schedule(schedule, layouts)
    return SessionPlan(
        q=q,
        assignment=assignment,
        nodes={n.node_id: n for n in pool},
        pipelines={cid: [n.node_id for n in members[cid]] for cid in sorted(members)},
        layouts=layouts,
        ring_schedule=schedule,
        model=model,
        footprint=footprint,
    )


def random_pool(rng: np.random.Generator, n: int) -> list[NodeSpec]:
    """Heterogeneous random inventory for tests and fixtures."""
    pool = []
    for i in range(n):
        ram = float(np.exp(rng.uniform(np.log(1e3), np.log(16e3))))
        bw = float(np.exp(rng.uniform(np.log(1e6), np.log(1e8))))
        pool.append(NodeSpec(f"n{i}", ram, bw, 1.0))
    return pool
