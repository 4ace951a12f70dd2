import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravnest import oracle
from ravnest.errors import ConfigError, LayoutError, StallError
from ravnest.multiring import (
    AllReduceController,
    ParamRange,
    allreduce_cost,
    apply_ring_mean,
    build_ring_schedule,
    bytes_per_member,
    chunk_bounds,
    random_instance,
    default_node_name,
    run_allreduce,
    validate_schedule,
)
from ravnest.simnet import Network, NodeSpec


def layouts_from_sizes(sizes_by_cluster: dict[int, list[int]]):
    out = {}
    for cid, sizes in sizes_by_cluster.items():
        start = 0
        ranges = []
        for s in sizes:
            ranges.append(ParamRange(start, s))
            start += s
        out[cid] = ranges
    return out


class TestBuildSchedule:
    def test_identical_two_peer_layouts(self):
        layouts = layouts_from_sizes({0: [10, 6], 1: [10, 6]})
        sched = build_ring_schedule(layouts)
        assert len(sched.rings) == 2
        assert sched.rings[0].members == ((0, 0), (1, 0))
        assert sched.rings[1].members == ((0, 1), (1, 1))
        validate_schedule(sched, layouts)

    def test_one_big_peer_joins_both_rings(self):
        layouts = layouts_from_sizes({0: [8, 8], 1: [16]})
        sched = build_ring_schedule(layouts)
        assert len(sched.rings) == 2
        assert sched.rings[0].members == ((0, 0), (1, 0))
        assert sched.rings[1].members == ((0, 1), (1, 0))  # same peer twice

    def test_three_clusters_nested_three_two_one(self):
        layouts = layouts_from_sizes({0: [4, 4, 4], 1: [8, 4], 2: [12]})
        sched = build_ring_schedule(layouts)
        assert len(sched.rings) == 3
        for ring in sched.rings:
            assert len(ring.members) == 3
        validate_schedule(sched, layouts)

    def test_mismatched_totals_rejected(self):
        layouts = layouts_from_sizes({0: [10], 1: [12]})
        with pytest.raises(LayoutError, match="different totals"):
            build_ring_schedule(layouts)

    def test_non_nested_boundaries_rejected(self):
        layouts = layouts_from_sizes({0: [4, 8], 1: [8, 4]})
        with pytest.raises(LayoutError, match="nest"):
            build_ring_schedule(layouts)

    def test_dump_one_record_per_ring(self):
        layouts = layouts_from_sizes({0: [8, 8], 1: [16]})
        sched = build_ring_schedule(layouts)
        lines = sched.dump().splitlines()
        assert lines[1] == "ring_id=0,start=0,len=8,members=[(0,0),(1,0)]"
        assert lines[2] == "ring_id=1,start=8,len=8,members=[(0,1),(1,0)]"

    @given(st.integers(0, 100_000), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_tile_and_count(self, seed, n_clusters):
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, n_clusters)
        sched = inst.schedule
        cursor = 0
        for ring in sched.rings:
            assert ring.start == cursor
            cursor += ring.length
        assert cursor == sched.total_params
        assert len(sched.rings) == max(len(l) for l in inst.layouts.values())
        validate_schedule(sched, inst.layouts)


class TestChunks:
    def test_remainder_spread_to_low_indices(self):
        assert chunk_bounds(0, 10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_zero_length_chunks_allowed(self):
        bounds = chunk_bounds(5, 2, 4)
        assert bounds == [(5, 6), (6, 7), (7, 7), (7, 7)]


class TestRunAllReduce:
    def test_identical_vectors_fixed_point(self):
        layouts = layouts_from_sizes({0: [6], 1: [6]})
        sched = build_ring_schedule(layouts)
        v = np.arange(6.0)
        out, _ = run_allreduce(sched, {0: v.copy(), 1: v.copy()})
        np.testing.assert_array_equal(out[0], v)
        np.testing.assert_array_equal(out[1], v)

    def test_two_cluster_mean(self):
        layouts = layouts_from_sizes({0: [2], 1: [2]})
        sched = build_ring_schedule(layouts)
        out, stats = run_allreduce(sched, {0: np.array([2.0, 4.0]), 1: np.array([4.0, 8.0])})
        np.testing.assert_array_equal(out[0], [3.0, 6.0])
        np.testing.assert_array_equal(out[1], [3.0, 6.0])
        assert stats[0].rounds == 2  # 2(C-1) with C=2

    def test_four_clusters_random_vs_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        layouts = layouts_from_sizes({c: [32, 16, 16] for c in range(4)})
        sched = build_ring_schedule(layouts)
        vals = {c: rng.normal(0, 5, 64) for c in range(4)}
        out, stats = run_allreduce(sched, vals)
        want = oracle.mean_reference([vals[c] for c in range(4)])
        for c in range(4):
            err = np.abs(out[c] - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= 1e-12
        assert all(s.rounds == 2 * (4 - 1) for s in stats)

    def test_round_count_exact(self):
        for c in (2, 3, 5):
            layouts = layouts_from_sizes({cid: [12] for cid in range(c)})
            sched = build_ring_schedule(layouts)
            _, stats = run_allreduce(sched, {cid: np.ones(12) for cid in range(c)})
            assert stats[0].rounds == 2 * (c - 1)

    def test_idempotent_within_tolerance(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        layouts = layouts_from_sizes({c: [20] for c in range(3)})
        sched = build_ring_schedule(layouts)
        vals = {c: rng.normal(size=20) for c in range(3)}
        once, _ = run_allreduce(sched, vals)
        twice, _ = run_allreduce(sched, once)
        for c in range(3):
            err = np.abs(twice[c] - once[c]) / np.maximum(np.abs(once[c]), 1.0)
            assert err.max() <= 1e-12

    def test_single_cluster_rejected(self):
        layouts = layouts_from_sizes({0: [4]})
        sched = build_ring_schedule(layouts)
        with pytest.raises(ConfigError):
            run_allreduce(sched, {0: np.ones(4)})

    def test_length_mismatch_rejected(self):
        layouts = layouts_from_sizes({0: [4], 1: [4]})
        sched = build_ring_schedule(layouts)
        with pytest.raises(LayoutError):
            run_allreduce(sched, {0: np.ones(4), 1: np.ones(5)})

    def test_stall_names_ring_round_member(self):
        layouts = layouts_from_sizes({0: [4], 1: [4]})
        sched = build_ring_schedule(layouts)
        with pytest.raises(StallError, match=r"ring=0, round=\d+, member=\(1, 0\)"):
            run_allreduce(sched, {0: np.ones(4), 1: np.ones(4)}, max_events=1)

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_apply_ring_mean_matches_event_version_bitwise(self, seed, n_clusters):
        # the evented side runs over slow heterogeneous links with latency:
        # contention may reorder traffic between rings but never the arithmetic
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, n_clusters, max_peers=3, max_dim=300)
        working = _allreduce_over_slow_network(inst, rng)
        direct = apply_ring_mean(inst.schedule, inst.cluster_values)
        for cid in working:
            assert np.array_equal(working[cid], direct[cid])

    def test_exact_mean_over_slow_heterogeneous_network(self):
        rng = np.random.Generator(np.random.Philox(key=55))
        inst = random_instance(rng, 4, max_peers=3, max_dim=300)
        ideal, _ = run_allreduce(inst.schedule, inst.cluster_values)
        working = _allreduce_over_slow_network(inst, rng)
        for c in working:
            assert np.array_equal(working[c], ideal[c])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_exact_mean_property(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n_clusters = int(rng.integers(2, 7))
        inst = random_instance(rng, n_clusters, max_dim=512)
        out, stats = run_allreduce(inst.schedule, inst.cluster_values)
        want = np.mean([inst.cluster_values[c] for c in sorted(inst.cluster_values)], axis=0)
        for c in out:
            err = np.abs(out[c] - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= 1e-12
        assert all(s.rounds == 2 * (n_clusters - 1) for s in stats)


    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_done_flips_exactly_after_the_last_message(self, seed, n_clusters):
        rng = np.random.Generator(np.random.Philox(key=seed))
        inst = random_instance(rng, n_clusters, max_peers=3, max_dim=300)
        full = 2 * (n_clusters - 1)
        seen = []

        def handle(msg, now):
            ctl.handle(msg, now)
            rounds_done = all(s.rounds == full for s in ctl.stats())
            seen.append((ctl.done(), rounds_done))

        nodes = {}
        for ring in inst.schedule.rings:
            for member in ring.members:
                name = default_node_name(*member)
                nodes[name] = NodeSpec(name, 1.0, float(rng.uniform(1e4, 1e6)))
        net = Network(nodes, default_latency=0.001)
        working = {c: v.copy() for c, v in inst.cluster_values.items()}
        ctl = AllReduceController(inst.schedule, working, net, default_node_name)
        for name in nodes:
            net.register(name, handle)
        assert not ctl.done()
        ctl.kickoff(0.0)
        net.run_until(max_events=100_000)
        n_messages = sum(s.messages for s in ctl.stats())
        assert n_messages == len(inst.schedule.rings) * n_clusters * full
        assert [done for done, _ in seen] == [False] * (n_messages - 1) + [True]
        assert all(done == rounds_done for done, rounds_done in seen)


def _allreduce_over_slow_network(inst, rng, latency=0.003):
    """One evented cycle over links of random bandwidth and fixed latency."""
    nodes = {}
    for ring in inst.schedule.rings:
        for member in ring.members:
            name = default_node_name(*member)
            nodes[name] = NodeSpec(name, 1.0, float(rng.uniform(1e4, 1e6)))
    net = Network(nodes, default_latency=latency)
    working = {c: v.copy() for c, v in inst.cluster_values.items()}
    ctl = AllReduceController(inst.schedule, working, net, default_node_name)
    for name in nodes:
        net.register(name, ctl.handle)
    ctl.kickoff(0.0)
    net.run_until(max_events=100_000)
    assert ctl.done()
    assert net.now > latency  # latency actually shaped the schedule
    return working


class TestCost:
    def test_three_clusters_four_rounds(self):
        layouts = layouts_from_sizes({c: [30] for c in range(3)})
        sched = build_ring_schedule(layouts)
        report = allreduce_cost(sched, bandwidth=1e6)
        assert report.rings[0].rounds == 4

    def test_bytes_per_member_formula(self):
        rng = np.random.Generator(np.random.Philox(key=2))
        for _ in range(20):
            c = int(rng.integers(2, 8))
            s = float(rng.integers(1, 10**7))
            assert bytes_per_member(c, s) == pytest.approx(2 * (c - 1) * s / c, rel=1e-15)

    def test_two_equal_rings_halve_critical_path(self):
        layouts = layouts_from_sizes({c: [512, 512] for c in range(3)})
        sched = build_ring_schedule(layouts)
        report = allreduce_cost(sched, bandwidth=1e6, latency=0.0)
        assert report.critical_ratio == pytest.approx(0.5, rel=1e-12)

    def test_ring_seconds_scale_with_bytes(self):
        layouts = layouts_from_sizes({c: [100, 300] for c in range(2)})
        sched = build_ring_schedule(layouts)
        report = allreduce_cost(sched, bandwidth=1e6)
        assert report.rings[1].seconds == pytest.approx(3 * report.rings[0].seconds, rel=1e-12)

