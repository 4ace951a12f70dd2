import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravnest import modelcore, oracle
from ravnest.clusterform import (
    GAParams,
    ModelFootprint,
    check_feasibility,
    evaluate,
    evolve,
    plan_session,
    random_pool,
)
from ravnest.errors import ConfigError, InfeasibleError
from ravnest.simnet import NodeSpec


def small_footprint(m_bytes=1000.0):
    return ModelFootprint(batch_size=1, fwdbwd_bytes_per_sample=0.0, param_bytes=m_bytes)


def _guard_pool(seed, n, q, m_factor):
    rng = np.random.Generator(np.random.Philox(key=seed))
    pool = random_pool(rng, n)
    m = m_factor * sum(nd.ram_bytes for nd in pool) / q
    return pool, small_footprint(m)


# (pool seed, n, q, M as a share of the mean cluster RAM, GA parameters):
# q = 1, n = 1, no elitism with 1-way tournaments, all-elite generations,
# and crossover/mutation rates of exactly 0 and 1.
GUARD_CASES = [
    (31, 6, 1, 0.8, GAParams(pop_size=12, generations=15, seed=1)),
    (32, 1, 1, 0.5, GAParams(pop_size=4, generations=5, seed=2)),
    (33, 7, 3, 0.9, GAParams(pop_size=10, generations=20, elitism_k=0, tournament_k=1, seed=3)),
    (34, 6, 2, 0.7, GAParams(pop_size=8, generations=10, elitism_k=8, seed=4)),
    (35, 8, 3, 1.3, GAParams(pop_size=10, generations=15, crossover_rate=0.0,
                             mutation_rate=1.0, seed=5)),
    (36, 8, 2, 0.9, GAParams(pop_size=10, generations=15, crossover_rate=1.0,
                             mutation_rate=0.0, tournament_k=5, seed=6)),
    (37, 9, 4, 0.6, GAParams(pop_size=24, generations=30, seed=7)),
]


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


class TestEvaluate:
    def test_single_cluster_no_imbalance(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 500, 1e6)]
        fit = evaluate([1, 1], pool, small_footprint(), q=1)
        assert fit.imbalance == 0.0
        assert fit.penalty == 0.0

    def test_two_identical_nodes_balanced(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 2000, 1e6)]
        fit = evaluate([1, 2], pool, small_footprint(1000.0), q=2)
        assert fit.imbalance == 0.0
        assert fit.penalty == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 4),
           st.floats(0.1, 2.5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fixture_matches_independent_oracle(self, seed, n, q, m_factor, data):
        # M from 0.1x to 2.5x the mean cluster RAM, and q may exceed n, so
        # empty and RAM-short clusters both occur
        pool, fp = _guard_pool(seed, n, q, m_factor)
        assignment = data.draw(st.lists(st.integers(1, q), min_size=n, max_size=n))
        fit = evaluate(assignment, pool, fp, q)
        imb, pen, total = oracle.oracle_fitness(assignment, pool, fp, q)
        assert fit.imbalance == pytest.approx(imb, rel=1e-12)
        assert fit.penalty == pytest.approx(pen, rel=1e-12)
        assert fit.total == pytest.approx(total, rel=1e-12)

    def test_empty_cluster_penalized(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 2000, 1e6)]
        fit = evaluate([1, 1], pool, small_footprint(), q=2)
        assert fit.penalty > 0

    def test_ram_deficit_penalized(self):
        pool = [NodeSpec("a", 400, 1e6), NodeSpec("b", 2000, 1e6)]
        fit = evaluate([1, 2], pool, small_footprint(1000.0), q=2)
        assert fit.penalty > 0

    @given(st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_feasibility_soundness(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = int(rng.integers(2, 8))
        q = int(rng.integers(1, min(n, 3) + 1))
        pool = random_pool(rng, n)
        fp = small_footprint(float(rng.uniform(500, 20000)))
        assignment = rng.integers(1, q + 1, size=n).tolist()
        fit = evaluate(assignment, pool, fp, q)
        assert (fit.penalty == 0.0) == check_feasibility(assignment, pool, fp, q)

    def test_infeasible_never_beats_feasible(self):
        # penalties must dominate: compare a feasible split against one that
        # starves a cluster below M
        pool = [NodeSpec("a", 1200, 1e6), NodeSpec("b", 1100, 1e6),
                NodeSpec("c", 1000, 2e6), NodeSpec("d", 900, 5e5)]
        fp = small_footprint(1500.0)
        feasible = [1, 2, 2, 1]
        assert check_feasibility(feasible, pool, fp, 2)
        infeasible = [1, 2, 2, 2]
        assert not check_feasibility(infeasible, pool, fp, 2)
        assert evaluate(feasible, pool, fp, 2).total < evaluate(infeasible, pool, fp, 2).total


class TestEvolve:
    def test_two_nodes_forced_split(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 1800, 2e6)]
        res = evolve(pool, small_footprint(1000.0), 2, GAParams(seed=4, generations=30))
        assert sorted(res.best) == [1, 2]
        assert res.feasible

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        pool = random_pool(rng, 7)
        fp = small_footprint(4000.0)
        a = evolve(pool, fp, 2, GAParams(seed=11))
        b = evolve(pool, fp, 2, GAParams(seed=11))
        assert a.best == b.best
        assert a.history == b.history

    def test_history_nonincreasing(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        pool = random_pool(rng, 8)
        res = evolve(pool, small_footprint(5000.0), 3, GAParams(seed=2))
        assert all(x >= y for x, y in zip(res.history, res.history[1:]))

    def test_matches_exhaustive_within_5_percent(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        pool = random_pool(rng, 8)
        fp = small_footprint(4000.0)
        _, best_fit, _ = oracle.exhaustive_partition(pool, fp, 2)
        res = evolve(pool, fp, 2, GAParams(seed=3, generations=200))
        assert res.fitness.total <= 1.05 * best_fit[2] + 1e-15

    def test_provably_infeasible_flagged(self):
        pool = [NodeSpec("a", 100, 1e6), NodeSpec("b", 100, 1e6)]
        res = evolve(pool, small_footprint(1000.0), 2, GAParams(seed=1, generations=5))
        assert res.provably_infeasible
        assert not res.feasible
        assert res.best is not None  # best penalized assignment still attached

    def test_q_larger_than_pool_rejected(self):
        pool = [NodeSpec("a", 100, 1e6)]
        with pytest.raises(ConfigError):
            evolve(pool, small_footprint(), 2, GAParams())

    @pytest.mark.parametrize("bad", [
        {"tournament_k": 0}, {"tournament_k": -2}, {"elitism_k": -3}, {"elitism_k": 9},
        {"crossover_rate": 1.5}, {"mutation_rate": -0.1}, {"mutation_rate": float("nan")},
    ])
    def test_out_of_range_params_rejected(self, bad):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 2000, 1e6)]
        with pytest.raises(ConfigError):
            evolve(pool, small_footprint(), 2, GAParams(pop_size=8, generations=2, **bad))


class TestBitIdentity:
    """Pinned at the scalar reference implementation: any reordering of the
    GA's RNG draws or of the fitness arithmetic changes these digests."""

    def test_evolve_digests_pinned(self):
        digests = []
        for seed, n, q, m_factor, params in GUARD_CASES:
            pool, fp = _guard_pool(seed, n, q, m_factor)
            res = evolve(pool, fp, q, params)
            digests.append(_digest((res.best, res.history, res.fitness)))
        assert digests == [
            "578ea219b0d068d1b29726c80737f41c5092bcd76f46ed1104e56c9e4c7d1731",
            "dbb7760c402bbdcdd9315c7f664d7a1857949f6f409966fd5bba2706fa1dc185",
            "7ba979fa4bc3f2e33396f4bfa406272cf31f1223201727f3698ec3ce06783209",
            "beeafac6f631a6e5710609695e0addc64b89fb324f5fb560e88233d18fe0b2d9",
            "22b6dfecf4c3dcd6230b075872e91ad7b59f8c6e6382c356402aeb8ad6c6af5a",
            "2db43fdab92efd9935dab673ab0d57e60dd9a258f9d3f53a2ada05ca3a09719b",
            "e0cfe5a99cccf166827fedb2608e5ca68cbacd5aacd584b643ec7f2dbf4d00ee",
        ]

    def test_evaluate_digest_pinned(self):
        # 400 seeded rows; q up to n + 1 so some clusters are empty, and M up
        # to 2.5x the mean cluster RAM so some are short
        rng = np.random.Generator(np.random.Philox(key=4242))
        rows = []
        for _ in range(400):
            n = int(rng.integers(1, 9))
            q = int(rng.integers(1, min(n + 1, 4) + 1))
            pool, fp = _guard_pool(int(rng.integers(2**31)), n, q, float(rng.uniform(0.1, 2.5)))
            assignment = rng.integers(1, q + 1, size=n).tolist()
            fit = evaluate(assignment, pool, fp, q)
            rows.append((fit.imbalance, fit.penalty, fit.total))
        assert _digest(rows) == (
            "3462d37b2f96dbb97c8daa3984262ced938a1a7b73f85e175401c1dd1fef9f1c"
        )

class TestExhaustive:
    def test_two_nodes_forced(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 1800, 1e6)]
        best, fit, feasible = oracle.exhaustive_partition(pool, small_footprint(1000.0), 2)
        assert sorted(best) == [1, 2]
        assert feasible

    def test_lexicographic_tie_break(self):
        pool = [NodeSpec("a", 2000, 1e6), NodeSpec("b", 2000, 1e6)]
        best, _, _ = oracle.exhaustive_partition(pool, small_footprint(1000.0), 2)
        assert best == (1, 2)  # (1,2) precedes the symmetric (2,1)

    def test_budget_guard(self):
        pool = [NodeSpec(f"n{i}", 100, 1e6) for i in range(30)]
        with pytest.raises(ConfigError):
            oracle.exhaustive_partition(pool, small_footprint(), 3)


class TestPlanSession:
    def _model(self):
        model, _ = modelcore.build_model([6, 6, 6, 6, 6], 0)
        return model

    def test_homogeneous_four_nodes_two_clusters(self):
        model = self._model()
        fp = ModelFootprint.from_model(model, batch_size=2)
        ram = fp.M * 0.6  # two nodes per cluster comfortably hold M
        pool = [NodeSpec(f"n{i}", ram, 1e6) for i in range(4)]
        plan = plan_session(pool, fp, 2, model, GAParams(seed=0, generations=40))
        assert sorted(len(p) for p in plan.pipelines.values()) == [2, 2]
        layouts = list(plan.layouts.values())
        assert [(s.layer_lo, s.layer_hi) for s in layouts[0]] == [
            (s.layer_lo, s.layer_hi) for s in layouts[1]
        ]
        assert len(plan.ring_schedule.rings) == 2

    def test_three_plus_one_gives_three_rings(self):
        model = self._model()
        fp = ModelFootprint.from_model(model, batch_size=2)
        pool = [
            NodeSpec("big", fp.M * 1.05, 1e6),
            NodeSpec("s1", fp.M * 0.55, 1e6),
            NodeSpec("s2", fp.M * 0.55, 1e6),
            NodeSpec("s3", fp.M * 0.55, 1e6),
        ]
        plan = plan_session(pool, fp, 2, model, assignment=[1, 2, 2, 2])
        assert plan.max_peers == 3
        assert len(plan.ring_schedule.rings) == 3
        for ring in plan.ring_schedule.rings:
            assert len(ring.members) == 2

    def test_infeasible_footprint_names_m(self):
        model = self._model()
        fp = ModelFootprint.from_model(model, batch_size=2)
        pool = [NodeSpec("a", fp.M * 0.1, 1e6), NodeSpec("b", fp.M * 0.1, 1e6)]
        with pytest.raises(InfeasibleError, match=f"{fp.M:.0f}"):
            plan_session(pool, fp, 2, model, GAParams(seed=0, generations=10))

    def test_layouts_fit_capacities(self):
        model = self._model()
        fp = ModelFootprint.from_model(model, batch_size=2)
        pool = [
            NodeSpec("a", fp.M * 0.8, 1e6),
            NodeSpec("b", fp.M * 0.4, 1e6),
            NodeSpec("c", fp.M * 1.1, 1e6),
        ]
        plan = plan_session(pool, fp, 2, model, assignment=[1, 1, 2])
        for cid, subs in plan.layouts.items():
            nodes = [plan.nodes[nid] for nid in plan.pipelines[cid]]
            for node, sub in zip(nodes, subs):
                cost = sum(
                    modelcore.layer_cost_bytes(l, fp.batch_size) for l in sub.layers
                )
                assert cost <= node.ram_bytes + 1e-6


class TestFootprint:
    def test_m_formula(self):
        fp = ModelFootprint(batch_size=4, fwdbwd_bytes_per_sample=256.0, param_bytes=2048.0)
        assert fp.M == 4 * 256.0 + 2048.0

    def test_from_model(self):
        model, _ = modelcore.build_model([3, 5, 2], 0)
        fp = ModelFootprint.from_model(model, 8)
        assert fp.param_bytes == model.param_count * 8
        assert fp.fwdbwd_bytes_per_sample == (5 + 2) * 8

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            ModelFootprint(batch_size=0, fwdbwd_bytes_per_sample=0.0, param_bytes=0.0)
