import numpy as np
import pytest

from conftest import tiny_plan
from ravnest import data, oracle
from ravnest.errors import ConfigError, MeasurementError, NumericError
from ravnest.orchestrator import (
    CheckpointRecord,
    TrainConfig,
    measure_convergence,
    rate_preset_eta,
    train,
    updates_per_vtime,
)


def small_dataset(model, n=64, seed=5, kind="mlp"):
    return data.make_dataset(kind, model, n, seed)


class TestDegeneration:
    def test_c1_p1_bitwise_equals_oracle_sgd(self):
        model, params, plan = tiny_plan([1], n_layers=2)
        cfg = TrainConfig(
            eta=0.05, kappa=10**9, k_target=200, batch_size=4, seed=9,
            record_trajectory=True,
        )
        dataset = small_dataset(model, 64, seed=9)
        result = train(model, params.values, plan, cfg, dataset)
        shards = data.shard_dataset(dataset[0], dataset[1], 1, seed=9)
        batches = [data.make_batch(shards[0], k, 4, 1, 0, 1) for k in range(200)]
        _, want = oracle.sgd_reference(model, params.values, batches, eta=0.05)
        assert len(result.trajectory) == len(want) == 200
        for got, ref in zip(result.trajectory, want):
            assert np.array_equal(got, ref)
        assert np.array_equal(result.cluster_values[1], want[-1])

    def test_c2_synchronous_kappa1_matches_averaged_oracle(self):
        model, params, plan = tiny_plan([1, 1])
        n_pairs = 40
        cfg = TrainConfig(
            eta=0.08, kappa=1, k_target=2 * n_pairs, batch_size=4,
            max_inflight=1, seed=21, barrier_mode="drain",
        )
        dataset = small_dataset(model, 80, seed=21)
        result = train(model, params.values, plan, cfg, dataset)
        shards = data.shard_dataset(dataset[0], dataset[1], 2, seed=21)
        pairs = [
            (data.make_batch(shards[0], k, 4, 1, 0, 2), data.make_batch(shards[1], k, 4, 2, 1, 2))
            for k in range(n_pairs)
        ]
        want, _ = oracle.two_replica_reference(model, params.values, pairs, eta=0.08)
        scale = 1.0 + np.abs(want).max()
        for cid in (1, 2):
            assert np.abs(result.cluster_values[cid] - want).max() <= 1e-10 * scale


class TestClockAndAveraging:
    def test_counter_exactness_and_cycle_count(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.02, kappa=10, k_target=60, batch_size=2, seed=3)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        assert result.clock.t == 60
        assert sum(result.clock.per_cluster.values()) == 60
        assert result.clock.cycle == 60 // 10
        assert len(result.checkpoints) == 6

    def test_post_averaging_agreement(self):
        model, params, plan = tiny_plan([2, 3])
        cfg = TrainConfig(eta=0.05, kappa=12, k_target=120, batch_size=2, seed=7)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        for ck in result.checkpoints:
            assert ck.spread <= 1e-12 * (1.0 + np.abs(result.mean_values).max())

    def test_eta_zero_leaves_parameters_bitwise_unchanged(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.0, kappa=5, k_target=40, batch_size=2, seed=1)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        for cid, vals in result.cluster_values.items():
            assert np.array_equal(vals, params.values)
        assert result.clock.cycle == 8

    def test_drain_update_lands_before_allreduce(self):
        model, params, plan = tiny_plan([1, 1])
        cfg = TrainConfig(
            eta=0.05, kappa=1, k_target=8, batch_size=2, max_inflight=1,
            seed=2, trace_enabled=True,
        )
        result = train(model, params.values, plan, cfg, small_dataset(model))
        # the in-flight update flushed by the drain precedes the first ring chunk
        assert result.checkpoints[0].t == 2

    def test_snapshot_mode_runs_with_tau_accounting(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(
            eta=0.02, kappa=6, k_target=120, batch_size=2, seed=4,
            barrier_mode="snapshot",
        )
        result = train(model, params.values, plan, cfg, small_dataset(model))
        assert result.clock.t == 120
        assert result.clock.cycle == 20
        assert result.max_tau() <= 1  # bounded by max_inflight - 1 per stage
        assert all(rec.tau >= 0 for recs in result.staleness.values() for rec in recs)

    def test_empty_pipeline_modes_identical(self):
        # a single cycle at t == k_target fires on fully drained pipelines,
        # where snapshot and drain must coincide exactly
        model, params, plan = tiny_plan([1, 1])
        outs = {}
        for mode in ("drain", "snapshot"):
            cfg = TrainConfig(
                eta=0.05, kappa=20, k_target=20, batch_size=2,
                max_inflight=1, seed=6, barrier_mode=mode,
            )
            outs[mode] = train(model, params.values, plan, cfg, small_dataset(model))
        for cid in (1, 2):
            assert np.array_equal(
                outs["drain"].cluster_values[cid], outs["snapshot"].cluster_values[cid]
            )
        assert outs["drain"].clock.cycle == outs["snapshot"].clock.cycle == 1

    def test_kappa_boundary_fires_exactly_floor_k_over_kappa(self):
        model, params, plan = tiny_plan([2])
        cfg = TrainConfig(eta=0.01, kappa=7, k_target=60, batch_size=2, seed=8)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        assert result.clock.cycle == 60 // 7

    def test_four_clusters_kappa50_counting_and_agreement(self):
        model, params, plan = tiny_plan([1, 1, 1, 1])
        cfg = TrainConfig(eta=0.02, kappa=50, k_target=400, batch_size=2,
                          max_inflight=1, seed=12)
        result = train(model, params.values, plan, cfg, small_dataset(model, 128))
        assert result.clock.cycle == 400 // 50
        scale = 1.0 + float(np.abs(result.mean_values).max())
        for ck in result.checkpoints:
            assert ck.spread <= 1e-12 * scale


class TestValidation:
    def test_k_target_divisibility_enforced(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.01, kappa=5, k_target=61, batch_size=2)
        with pytest.raises(ConfigError, match="divisible"):
            train(model, params.values, plan, cfg, small_dataset(model))

    def test_bad_barrier_mode_rejected(self):
        model, params, plan = tiny_plan([1])
        cfg = TrainConfig(eta=0.01, kappa=5, k_target=10, batch_size=2,
                          barrier_mode="telepathic")
        with pytest.raises(ConfigError):
            train(model, params.values, plan, cfg, small_dataset(model))

    def test_staleness_enforcement_passes_when_throttled(self):
        model, params, plan = tiny_plan([3])
        cfg = TrainConfig(
            eta=0.01, kappa=10**9, k_target=90, batch_size=2,
            enforce_T=True, T_bound=2, max_inflight=6, seed=13,
        )
        result = train(model, params.values, plan, cfg, small_dataset(model))
        assert result.max_tau() <= 2


class TestLivelockDiagnostics:
    def test_event_budget_exhaustion_reports_buffers(self):
        from ravnest.errors import StallError

        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.02, kappa=10, k_target=200, batch_size=2, seed=3,
                          max_events=50)
        with pytest.raises(StallError) as err:
            train(model, params.values, plan, cfg, small_dataset(model))
        msg = str(err.value)
        assert "budget" in msg and "peer 0" in msg  # names blocked peers/buffers


class TestDeterminism:
    def test_identical_seed_identical_metrics_hash(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.03, kappa=8, k_target=80, batch_size=2, seed=5)
        a = train(model, params.values, plan, cfg, small_dataset(model))
        b = train(model, params.values, plan, cfg, small_dataset(model))
        assert a.metrics_hash() == b.metrics_hash()

    def test_different_seed_changes_hash(self):
        model, params, plan = tiny_plan([2, 2])
        ds = small_dataset(model)
        a = train(model, params.values, plan,
                  TrainConfig(eta=0.03, kappa=8, k_target=80, batch_size=2, seed=5), ds)
        b = train(model, params.values, plan,
                  TrainConfig(eta=0.03, kappa=8, k_target=80, batch_size=2, seed=6), ds)
        assert a.metrics_hash() != b.metrics_hash()


class TestBitIdentity:
    """Metrics hashes pinned to the event loop's exact output: any change to
    event order, link timing or arithmetic on the training path moves them."""

    def test_snapshot_mixed_speeds_with_latency_and_link_override(self):
        from ravnest.simnet import LinkSpec

        model, params, plan = tiny_plan([3, 2], speed_factors=(1.0, 0.7, 1.3))
        cfg = TrainConfig(eta=0.03, kappa=40, k_target=480, batch_size=2, seed=5,
                          barrier_mode="snapshot", default_latency=2e-6)
        slow = {("c1n0", "c1n1"): LinkSpec("c1n0", "c1n1", 5e-6, 2e8)}
        result = train(model, params.values, plan, cfg, small_dataset(model),
                       link_overrides=slow)
        assert result.metrics_hash() == (
            "c8e0009b723750243bc7623f794b54159d40e490700a4c01e312f43dc47c30dd"
        )

    def test_drain_three_clusters(self):
        model, params, plan = tiny_plan([2, 1, 2], speed_factors=(1.3, 0.7))
        cfg = TrainConfig(eta=0.03, kappa=8, k_target=240, batch_size=2, seed=7,
                          barrier_mode="drain", default_latency=1e-6)
        result = train(model, params.values, plan, cfg, small_dataset(model, seed=7))
        assert result.clock.cycle == 30
        assert result.metrics_hash() == (
            "2ff25af81e4cb8dd84a46ef400695892c99e72e750605b87736126d438079f5a"
        )


class TestMeasurement:
    def test_constant_series_slope_zero(self):
        cks = [CheckpointRecord(t=10 * (i + 1), virtual_time=0.0, grad_norm=2.5,
                                loss=1.0, spread=0.0) for i in range(20)]
        report = measure_convergence(cks)
        assert report.rate_slope == pytest.approx(0.0, abs=1e-9)

    def test_insufficient_checkpoints_rejected(self):
        cks = [CheckpointRecord(t=1, virtual_time=0.0, grad_norm=1.0, loss=1.0, spread=0.0)] * 5
        with pytest.raises(MeasurementError):
            measure_convergence(cks)

    def test_decaying_series_negative_slope(self):
        cks = [CheckpointRecord(t=10 * (i + 1), virtual_time=0.0,
                                grad_norm=100.0 / (i + 1) ** 2, loss=1.0, spread=0.0)
               for i in range(40)]
        report = measure_convergence(cks)
        assert report.rate_slope < -0.5

    def test_updates_per_vtime_positive(self):
        model, params, plan = tiny_plan([2, 2])
        cfg = TrainConfig(eta=0.01, kappa=10**9, k_target=120, batch_size=2, seed=5,
                          fwd_cost_coeff=1e-6)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        assert updates_per_vtime(result) > 0

    def test_metrics_csv_round_trips_through_reader(self):
        from ravnest import configio

        model, params, plan = tiny_plan([2])
        cfg = TrainConfig(eta=0.02, kappa=5, k_target=20, batch_size=2, seed=5)
        result = train(model, params.values, plan, cfg, small_dataset(model))
        rows = configio.read_metrics_csv(result.metrics_csv())
        updates = [r for r in rows if r["cluster"] is not None and r["cluster"] >= 0]
        assert len(updates) == 20
        assert max(r["t"] for r in rows) == 20


class TestEtaPreset:
    def test_preset_positive_and_deterministic(self):
        model, params, _ = tiny_plan([1, 1])
        x, t = small_dataset(model, 64, seed=3, kind="linear")
        shards = data.shard_dataset(x, t, 2, seed=3)
        eta1, info1 = rate_preset_eta(model, params.values, shards, 4, 1000, 2, 1, seed=3)
        eta2, _ = rate_preset_eta(model, params.values, shards, 4, 1000, 2, 1, seed=3)
        assert eta1 == eta2 > 0
        assert info1["L"] > 0 and info1["sigma2"] >= 0 and info1["s2"] >= 0

    def test_auto_eta_resolves_in_train(self):
        model, params, plan = tiny_plan([1, 1])
        cfg = TrainConfig(eta="auto", kappa=10, k_target=40, batch_size=4,
                          max_inflight=1, seed=3)
        result = train(model, params.values, plan, cfg,
                       small_dataset(model, 64, seed=3, kind="linear"))
        assert result.eta_used > 0


class TestDivergenceAbort:
    def test_non_finite_loss_aborts_with_checkpoint(self):
        model, params, plan = tiny_plan([1], n_layers=2)
        huge = params.values.copy()
        huge[:] = 1e160  # loss overflows to inf on the first batch
        cfg = TrainConfig(eta=1.0, kappa=10**9, k_target=10, batch_size=2, seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericError) as err:
            train(model, huge, plan, cfg, small_dataset(model))
        assert getattr(err.value, "checkpoint_values", None) is not None
