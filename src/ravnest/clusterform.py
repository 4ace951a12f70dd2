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
        if not (node.ram_bytes > 0 and node.bandwidth_Bps > 0 and node.speed_factor > 0):
            raise ConfigError(f"node {node.node_id!r} needs positive ram, bandwidth and speed")


@dataclass(frozen=True)
class ModelFootprint:
    """Peak memory: batch_size x forward/backward bytes plus parameter bytes."""

    batch_size: int
    fwdbwd_bytes_per_sample: float
    param_bytes: float

    def __post_init__(self):
        if self.batch_size < 1 or self.M <= 0:
            raise ConfigError(f"footprint needs batch_size >= 1 and positive M, got {self}")

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
    assignment: Sequence[int], pool: Sequence[NodeSpec], footprint: ModelFootprint, q: int
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
    imbalance, penalty = _fitness(np.asarray(assignment)[None, :], pool, footprint, q)
    return Fitness(float(imbalance[0]), float(penalty[0]))


def _fitness(
    pop: np.ndarray, pool: Sequence[NodeSpec], footprint: ModelFootprint, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Imbalance and penalty of every row of ``pop`` at once.

    Sums run over the nodes in pool order and the clusters in id order, each
    starting from zero, so every row is bit-identical to a scalar loop.
    """
    m = footprint.M
    scale = penalty_scale(pool, footprint)
    member = pop[:, :, None] == np.arange(1, q + 1)      # (row, node, cluster)
    ram_sum = np.zeros((len(pop), q))
    for j, node in enumerate(pool):
        ram_sum += np.where(member[:, j], node.ram_bytes, 0.0)
    occupied = member.any(axis=1)
    divisor = np.where(occupied, ram_sum, 1.0)
    times = np.zeros_like(ram_sum)
    for j, node in enumerate(pool):
        times += np.where(member[:, j], (m * node.ram_bytes / divisor) / node.bandwidth_Bps, 0.0)
    short = np.where(ram_sum < m, scale * (m - ram_sum) / m, 0.0)
    per_cluster = np.where(occupied, short, scale + scale)
    penalty = sum(per_cluster[:, cid] for cid in range(q))
    return times.max(axis=1) - times.min(axis=1), penalty


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
    that best is therefore nonincreasing. The per-child loop only draws, in an
    order that is part of the result; the rest works on whole generations.
    """
    validate_pool(pool)
    n = len(pool)
    size, k, elite = params.pop_size, params.tournament_k, params.elitism_k
    if size < 2 or params.generations < 1:
        raise ConfigError("pop_size >= 2 and generations >= 1 required")
    if k < 1 or not 0 <= elite <= size:
        raise ConfigError("tournament_k >= 1 and 0 <= elitism_k <= pop_size required")
    if not (0.0 <= params.crossover_rate <= 1.0 and 0.0 <= params.mutation_rate <= 1.0):
        raise ConfigError("crossover_rate and mutation_rate must lie in [0, 1]")
    if not 1 <= q <= n:
        raise ConfigError(f"cannot form {q} non-empty clusters from {n} nodes")
    provably_infeasible = sum(node.ram_bytes for node in pool) < q * footprint.M

    rng = np.random.default_rng(params.seed)
    pop = rng.integers(1, q + 1, size=(size, n))
    totals = np.add(*_fitness(pop, pool, footprint, q))

    best_idx = int(np.argmin(totals))
    best = pop[best_idx].copy()
    best_total = float(totals[best_idx])
    history = [best_total]

    # Consecutive integer draws share PCG64's buffered 32-bit half: a (2, k)
    # draw equals two k draws and scalar draws one sized draw. Doubles may
    # not move between them.
    n_children = size - elite
    for _ in range(params.generations):
        picks = np.empty((n_children, 2, k), dtype=np.int64)
        cross = np.zeros((n_children, n))     # rows left at 0.0 copy parent a
        mutate = np.empty((n_children, n))
        values = []
        for c in range(n_children):
            picks[c] = rng.integers(0, size, size=(2, k))
            if rng.random() < params.crossover_rate:
                rng.random(out=cross[c])
            rng.random(out=mutate[c])
            hits = np.count_nonzero(mutate[c] < params.mutation_rate)
            values += [rng.integers(1, q + 1) for _ in range(hits)]
        winners = np.take_along_axis(picks, totals[picks].argmin(axis=2)[..., None], 2)[..., 0]
        children = np.where(cross < 0.5, pop[winners[:, 0]], pop[winners[:, 1]])
        children[mutate < params.mutation_rate] = values
        pop = np.concatenate([pop[np.argsort(totals, kind="stable")[:elite]], children])
        totals = np.add(*_fitness(pop, pool, footprint, q))
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
    if len(assignment) != len(pool) or not set(assignment) <= set(range(1, q + 1)):
        raise ConfigError(f"assignment {assignment} must map {len(pool)} nodes into 1..{q}")

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
