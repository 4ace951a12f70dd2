"""Parallel multi-ring all-reduce.

The global parameter space is cut at the union of all clusters' submodel
boundaries; each resulting segment gets one ring whose members are the owning
peer of that segment in every cluster (ascending cluster order). A ring of C
members runs C-1 reduce-scatter rounds (sum, with the 1/C scaling folded into
the last one) followed by C-1 all-gather rounds, so a full cycle is 2(C-1)
rounds and leaves every cluster holding the elementwise mean. In round r the
member at ring position m sends chunk (m - r) mod C to position m + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, LayoutError, ProtocolError, StallError
from .simnet import Message, Network, NodeSpec


@dataclass(frozen=True)
class ParamRange:
    """Minimal stand-in for a submodel when only its parameter span matters."""

    param_start: int
    param_len: int


@dataclass(frozen=True)
class Ring:
    ring_id: int
    start: int
    length: int
    members: tuple[tuple[int, int], ...]  # (cluster_id, peer_index), ascending cluster


@dataclass(frozen=True)
class RingSchedule:
    rings: tuple[Ring, ...]
    total_params: int

    @property
    def n_clusters(self) -> int:
        return len(self.rings[0].members)

    def dump(self) -> str:
        lines = ["# schema: ravnest-rings-v1"]
        for r in self.rings:
            members = ",".join(f"({c},{p})" for c, p in r.members)
            lines.append(f"ring_id={r.ring_id},start={r.start},len={r.length},members=[{members}]")
        return "\n".join(lines) + "\n"


def build_ring_schedule(cluster_layouts: dict[int, Sequence]) -> RingSchedule:
    """Build the ring schedule from per-cluster submodel layouts.

    Layout entries only need ``param_start`` and ``param_len``. Boundaries
    are the union of all clusters' block boundaries; every cluster's
    boundaries must nest inside the finest split so that the ring count
    equals the maximum peer count across clusters.
    """
    if not cluster_layouts:
        raise LayoutError("no cluster layouts given")
    cids = sorted(cluster_layouts)
    totals = {}
    for cid in cids:
        layout = cluster_layouts[cid]
        cursor = 0
        for sub in layout:
            if sub.param_start != cursor:
                raise LayoutError(f"cluster {cid}: submodels not contiguous")
            cursor += sub.param_len
        totals[cid] = cursor
    if len(set(totals.values())) != 1:
        raise LayoutError(f"layouts cover different totals: {totals}")
    total = totals[cids[0]]

    cuts = sorted(
        {sub.param_start for cid in cids for sub in cluster_layouts[cid] if sub.param_start > 0}
    )
    max_peers = max(len(cluster_layouts[cid]) for cid in cids)
    if len(cuts) + 1 != max_peers:
        raise LayoutError(
            f"cluster boundaries do not nest: {len(cuts) + 1} segments needed "
            f"but max peer count is {max_peers}"
        )

    edges = [0] + cuts + [total]
    rings = []
    for rid in range(len(edges) - 1):
        start, end = edges[rid], edges[rid + 1]
        members = []
        for cid in cids:
            owner = None
            for idx, sub in enumerate(cluster_layouts[cid]):
                if sub.param_start <= start and end <= sub.param_start + sub.param_len:
                    owner = idx
                    break
            if owner is None:
                raise LayoutError(f"cluster {cid}: no peer owns range [{start},{end})")
            members.append((cid, owner))
        rings.append(Ring(rid, start, end - start, tuple(members)))
    return RingSchedule(tuple(rings), total)


def validate_schedule(schedule: RingSchedule, cluster_layouts: dict[int, Sequence]) -> None:
    """Re-check every schedule invariant independently of construction."""
    cursor = 0
    for ring in schedule.rings:
        if ring.start != cursor or ring.length < 0:
            raise LayoutError("rings do not tile the parameter space")
        cursor += ring.length
    if cursor != schedule.total_params:
        raise LayoutError("rings do not cover all parameters")
    cids = sorted(cluster_layouts)
    max_peers = max(len(cluster_layouts[c]) for c in cids)
    if len(schedule.rings) != max_peers:
        raise LayoutError(
            f"{len(schedule.rings)} rings but max peer count is {max_peers}"
        )
    for ring in schedule.rings:
        if [c for c, _ in ring.members] != cids:
            raise LayoutError(f"ring {ring.ring_id} lacks one member per cluster")
        for cid, peer in ring.members:
            if not 0 <= peer < len(cluster_layouts[cid]):
                raise LayoutError(f"ring {ring.ring_id}: cluster {cid} has no peer {peer}")
            sub = cluster_layouts[cid][peer]
            if not (sub.param_start <= ring.start and ring.start + ring.length <= sub.param_start + sub.param_len):
                raise LayoutError(
                    f"ring {ring.ring_id} range outside cluster {cid} peer {peer}"
                )


def chunk_bounds(start: int, length: int, c: int) -> list[tuple[int, int]]:
    """Split [start, start+length) into c contiguous chunks, equal as
    possible, remainder on the lowest indices."""
    base, rem = divmod(length, c)
    bounds = []
    lo = start
    for i in range(c):
        hi = lo + base + (1 if i < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def _apply_chunk(seg: np.ndarray, lo: int, hi: int, payload: np.ndarray, round_idx: int, c: int) -> None:
    """Apply the chunk a member receives in ``round_idx`` to ``seg[lo:hi]``.

    Reduce-scatter rounds (``round_idx < c - 1``) sum, scaling by 1/c on
    round c - 2; all-gather rounds overwrite.
    """
    if round_idx < c - 1:
        seg[lo:hi] += payload
        if round_idx == c - 2:
            seg[lo:hi] /= c
    else:
        seg[lo:hi] = payload


@dataclass
class RingStats:
    ring_id: int
    rounds: int
    messages: int


class AllReduceController:
    """Self-clocked ring state machines over a simulated network.

    Each member sends its round-0 chunk at kickoff; thereafter the chunk a
    member applies in round r is exactly the chunk it forwards in round r+1,
    so no scheduler is needed. Member node names are resolved once, and
    ``done()`` counts down the messages still to be handled.
    """

    def __init__(
        self,
        schedule: RingSchedule,
        working: dict[int, np.ndarray],
        network: Network,
        node_of: Callable[[int, int], str],
    ):
        self.schedule = schedule
        self.working = working
        self.network = network
        self.node_of = node_of
        self._bounds = {
            r.ring_id: chunk_bounds(r.start, r.length, len(r.members)) for r in schedule.rings
        }
        self._names = {
            r.ring_id: tuple(node_of(*member) for member in r.members) for r in schedule.rings
        }
        self._expected = {r.ring_id: [0] * len(r.members) for r in schedule.rings}
        self._messages = {r.ring_id: 0 for r in schedule.rings}
        self._rings = {r.ring_id: r for r in schedule.rings}
        # each of a ring's C members handles 2(C-1) messages per cycle
        self._remaining = sum(2 * (len(r.members) - 1) * len(r.members) for r in schedule.rings)

    def kickoff(self, now: float) -> None:
        for ring in self.schedule.rings:
            for pos in range(len(ring.members)):
                self._send(ring, pos, 0, now)

    def _send(self, ring: Ring, pos: int, round_idx: int, now: float) -> None:
        rid = ring.ring_id
        names = self._names[rid]
        c = len(names)
        dst_pos = (pos + 1) % c
        lo, hi = self._bounds[rid][(pos - round_idx) % c]
        msg = Message(
            "ring_chunk",
            sender=names[pos],
            receiver=names[dst_pos],
            step_tag=rid,
            payload=self.working[ring.members[pos][0]][lo:hi].copy(),
            extra={"ring": rid, "round": round_idx, "to_pos": dst_pos},
        )
        self.network.send(msg, now)

    def handle(self, msg: Message, now: float) -> None:
        rid = msg.extra["ring"]
        ring = self._rings[rid]
        pos = msg.extra["to_pos"]
        round_idx = msg.extra["round"]
        c = len(ring.members)
        if round_idx != self._expected[rid][pos]:
            raise ProtocolError(
                f"ring {rid} member {pos}: got round {round_idx}, "
                f"expected {self._expected[rid][pos]}"
            )
        lo, hi = self._bounds[rid][(pos - 1 - round_idx) % c]
        _apply_chunk(self.working[ring.members[pos][0]], lo, hi, msg.payload, round_idx, c)
        self._expected[rid][pos] = round_idx + 1
        self._messages[rid] += 1
        self._remaining -= 1
        if round_idx + 1 < 2 * (c - 1):
            self._send(ring, pos, round_idx + 1, now)

    def done(self) -> bool:
        return self._remaining == 0

    def stats(self) -> list[RingStats]:
        return [
            RingStats(rid, min(self._expected[rid]), self._messages[rid])
            for rid in sorted(self._expected)
        ]

    def stall_report(self) -> str:
        stuck = []
        for rid in sorted(self._expected):
            c = len(self._rings[rid].members)
            for pos, exp in enumerate(self._expected[rid]):
                if exp < 2 * (c - 1):
                    stuck.append(f"(ring={rid}, round={exp}, member={self._rings[rid].members[pos]})")
        return "waiting on: " + ", ".join(stuck) if stuck else "no ring is stalled"


def default_node_name(cluster_id: int, peer: int) -> str:
    return f"c{cluster_id}.p{peer}"


def run_allreduce(
    schedule: RingSchedule,
    cluster_params: dict[int, np.ndarray],
    network: Network | None = None,
    node_of: Callable[[int, int], str] = default_node_name,
    max_events: int | None = None,
) -> tuple[dict[int, np.ndarray], list[RingStats]]:
    """Execute one full cycle; every cluster ends with the global mean.

    Without an explicit network the rings run over ideal links (zero latency,
    effectively infinite bandwidth). Raises a stall diagnostic naming the
    first blocked (ring, round, member) if the cycle cannot complete.
    """
    cids = sorted(cluster_params)
    if len(cids) < 2:
        raise ConfigError("all-reduce needs at least 2 clusters")
    for cid in cids:
        if cluster_params[cid].shape != (schedule.total_params,):
            raise LayoutError(
                f"cluster {cid} vector has {cluster_params[cid].shape}, "
                f"schedule expects ({schedule.total_params},)"
            )
    working = {cid: np.array(cluster_params[cid], dtype=np.float64) for cid in cids}

    own_network = network is None
    if own_network:
        nodes = {}
        for ring in schedule.rings:
            for member in ring.members:
                name = node_of(*member)
                nodes[name] = NodeSpec(name, 1.0, 1e18)
        network = Network(nodes, default_latency=0.0)

    ctl = AllReduceController(schedule, working, network, node_of)
    if own_network:
        for name in network.nodes:
            network.register(name, ctl.handle)
    ctl.kickoff(network.now)
    budget = max_events
    if budget is None:
        expected = sum(2 * (len(r.members) - 1) * len(r.members) for r in schedule.rings)
        budget = 10 * expected + 1000
    network.run_until(predicate=ctl.done, max_events=budget, diagnostics=ctl.stall_report)
    if not ctl.done():
        raise StallError("all-reduce incomplete: " + ctl.stall_report())
    return working, ctl.stats()


def apply_ring_mean(schedule: RingSchedule, cluster_params: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Ring arithmetic executed synchronously (no network, zero virtual time).

    Round-for-round identical operations and ordering as run_allreduce; used
    by the snapshot averaging barrier.
    """
    cids = sorted(cluster_params)
    working = {cid: np.array(cluster_params[cid], dtype=np.float64) for cid in cids}
    for ring in schedule.rings:
        members = ring.members
        c = len(members)
        bounds = chunk_bounds(ring.start, ring.length, c)
        for round_idx in range(2 * (c - 1)):
            # a member is read at chunk (m - r) and written at chunk (m - 1 - r),
            # so every payload still holds its value from before the round
            for pos in range(c):
                lo, hi = bounds[(pos - round_idx) % c]
                payload = working[members[pos][0]][lo:hi]
                _apply_chunk(working[members[(pos + 1) % c][0]], lo, hi, payload, round_idx, c)
    return working


# ---------------------------------------------------------------------------
# cost model


def bytes_per_member(c: int, seg_bytes: float) -> float:
    """Bytes one member moves per full cycle: 2(C-1) rounds of S/C each."""
    return 2.0 * (c - 1) * seg_bytes / c


@dataclass
class RingCost:
    ring_id: int
    rounds: int
    seg_bytes: float
    bytes_per_member: float
    seconds: float


@dataclass
class CostReport:
    rings: list[RingCost]
    critical_seconds: float
    single_ring_seconds: float

    @property
    def critical_ratio(self) -> float:
        return self.critical_seconds / self.single_ring_seconds


def allreduce_cost(
    schedule: RingSchedule,
    bandwidth: float | Callable[[tuple[int, int], tuple[int, int]], float],
    latency: float = 0.0,
) -> CostReport:
    """Analytic per-ring and total cost, next to a single-ring baseline.

    Chunk bytes are the fractional S/C (the remainder spread is a modeling
    detail below byte granularity). The critical path is the slowest ring;
    the baseline is one ring carrying all parameters over the slowest link.
    """
    bw_of = bandwidth if callable(bandwidth) else (lambda a, b: bandwidth)
    rings = []
    critical = 0.0
    min_bw_all = np.inf
    for ring in schedule.rings:
        c = len(ring.members)
        rounds = 2 * (c - 1)
        seg_bytes = float(ring.length * 8)
        min_bw = min(
            bw_of(ring.members[p], ring.members[(p + 1) % c]) for p in range(c)
        )
        min_bw_all = min(min_bw_all, min_bw)
        seconds = rounds * (latency + (seg_bytes / c) / min_bw)
        rings.append(RingCost(ring.ring_id, rounds, seg_bytes, bytes_per_member(c, seg_bytes), seconds))
        critical = max(critical, seconds)
    c = len(schedule.rings[0].members)
    total_bytes = float(schedule.total_params * 8)
    single = 2 * (c - 1) * (latency + (total_bytes / c) / min_bw_all)
    return CostReport(rings, critical, single)


# ---------------------------------------------------------------------------
# randomized instances for tests and acceptance runs


@dataclass
class RandomInstance:
    schedule: RingSchedule
    layouts: dict[int, list[ParamRange]]
    cluster_values: dict[int, np.ndarray]


def random_instance(
    rng: np.random.Generator,
    n_clusters: int,
    max_peers: int = 4,
    max_dim: int = 4096,
) -> RandomInstance:
    """Random heterogeneous nested layouts plus random cluster vectors."""
    p_max = int(rng.integers(1, max_peers + 1))
    lo = max(p_max, 2)
    dim = int(np.exp(rng.uniform(np.log(lo), np.log(max_dim))))
    dim = max(dim, p_max)
    master_cuts = sorted(rng.choice(np.arange(1, dim), size=p_max - 1, replace=False).tolist()) if p_max > 1 else []

    layouts: dict[int, list[ParamRange]] = {}
    for cid in range(n_clusters):
        if cid == 0:
            cuts = list(master_cuts)
        else:
            cuts = [c for c in master_cuts if rng.random() < 0.5]
        edges = [0] + cuts + [dim]
        layouts[cid] = [
            ParamRange(edges[i], edges[i + 1] - edges[i]) for i in range(len(edges) - 1)
        ]
    schedule = build_ring_schedule(layouts)
    values = {cid: rng.normal(0.0, 10.0, size=dim) for cid in range(n_clusters)}
    return RandomInstance(schedule, layouts, values)
