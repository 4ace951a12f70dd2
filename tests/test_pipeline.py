import numpy as np
import pytest

from conftest import drive, make_cluster, random_batches
from ravnest import modelcore, oracle
from ravnest.errors import (
    FlowControlError,
    MeasurementError,
    ProtocolError,
    StalenessError,
)
from ravnest.pipeline import measure_bubble, staleness_csv
from ravnest.simnet import Message


def taus_by_batch(cluster):
    out = {}
    for rec in cluster.staleness:
        out.setdefault(rec.batch_id, {})[rec.peer_index] = rec.tau
    return out


class TestDegenerate:
    def test_single_peer_tau_zero_and_plain_sgd(self):
        h = make_cluster(n_peers=1, eta=0.1)
        batches = random_batches(h.model, 20)
        trajectories = []
        base_done = h.cluster.callbacks.on_batch_done
        h.cluster.callbacks.on_batch_done = lambda cid, bid, now: (
            base_done(cid, bid, now),
            trajectories.append(h.cluster.full_values()),
        )
        drive(h, batches)
        assert all(rec.tau == 0 for rec in h.cluster.staleness)
        _, want = oracle.sgd_reference(h.model, h.init_values, batches, eta=0.1)
        assert len(trajectories) == len(want)
        for got, ref in zip(trajectories, want):
            assert np.array_equal(got, ref)

    def test_one_inflight_multi_peer_bitwise_equals_sgd(self):
        h = make_cluster(n_peers=3, eta=0.07, max_inflight=1)
        batches = random_batches(h.model, 15)
        trajectories = []
        base_done = h.cluster.callbacks.on_batch_done
        h.cluster.callbacks.on_batch_done = lambda cid, bid, now: (
            base_done(cid, bid, now),
            trajectories.append(h.cluster.full_values()),
        )
        drive(h, batches)
        assert all(rec.tau == 0 for rec in h.cluster.staleness)
        _, want = oracle.sgd_reference(h.model, h.init_values, batches, eta=0.07)
        for got, ref in zip(trajectories, want):
            assert np.array_equal(got, ref)


class TestSynchronousSchedule:
    def test_two_peer_one_inflight_matches_hand_timeline(self):
        # stage cost 1.0 for forward and backward: coeff * 2 samples * 20 params = 1
        h = make_cluster(n_peers=2, max_inflight=1, cost_coeff=1 / 40, bwd_cost_ratio=1.0)
        batches = random_batches(h.model, 6)
        drive(h, batches)
        completions = [t for _, t in h.cluster.completions]
        assert completions == pytest.approx([4.0 * (k + 1) for k in range(6)])
        admits = [t for _, t in h.admit_times]
        assert admits == pytest.approx([4.0 * k for k in range(6)])
        assert all(rec.tau == 0 for rec in h.cluster.staleness)

    def test_admission_defers_when_full_and_readmits_on_slot_free(self):
        h = make_cluster(n_peers=2, max_inflight=1, cost_coeff=1 / 40, bwd_cost_ratio=1.0)
        batches = random_batches(h.model, 3)
        assert h.cluster.admit_batch(batches[0], 0.0) == "accepted"
        assert h.cluster.admit_batch(batches[1], 0.0) == "deferred"
        h.network.run_until()
        # deferred batch admitted exactly when batch 0 completed at t=4
        assert h.admit_times[1][1] == pytest.approx(4.0)

    def test_empty_pipeline_accepts_immediately(self):
        h = make_cluster(n_peers=2)
        b = random_batches(h.model, 1)[0]
        assert h.cluster.admit_batch(b, 0.0) == "accepted"


class TestStaleness:
    def test_saturated_three_stage_taus_strictly_decreasing(self):
        h = make_cluster(n_peers=3, max_inflight=3, cost_coeff=1 / 40)
        n = 40
        drive(h, random_batches(h.model, n))
        per_batch = taus_by_batch(h.cluster)
        steady = [per_batch[b] for b in range(10, n - 10)]
        assert steady, "need mid-run batches"
        for taus in steady:
            assert taus[0] > taus[1] > taus[2] == 0

    def test_tau_nonincreasing_and_last_zero_everywhere(self):
        h = make_cluster(n_peers=4, max_inflight=4, cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 50))
        for taus in taus_by_batch(h.cluster).values():
            seq = [taus[p] for p in sorted(taus)]
            assert seq[-1] == 0
            assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_enforcement_throttles_admission_to_bound(self):
        h = make_cluster(n_peers=4, max_inflight=8, enforce_T=True, T_bound=2,
                         cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 60))
        assert max(rec.tau for rec in h.cluster.staleness) <= 2

    def test_violation_aborts_with_record(self):
        # enforcement throttles admission, so a violation can only be forced
        # by tightening the bound after the pipeline is already saturated
        h = make_cluster(n_peers=3, max_inflight=3, cost_coeff=1 / 40)

        def tighten(cid, bid, now):
            if len(h.cluster.completions) >= 3:
                h.cluster.config.enforce_T = True
                h.cluster.config.T_bound = 0

        h.cluster.callbacks.on_batch_done = tighten
        with pytest.raises(StalenessError) as err:
            drive(h, random_batches(h.model, 20))
        assert err.value.record is not None
        assert err.value.record.tau > 0


class TestStaleGradientSemantics:
    def test_backward_uses_parameters_stashed_at_forward(self):
        # the update for a batch must use the gradient at the parameter state
        # its forward pass saw, even if updates landed in between
        from ravnest.modelcore import ParameterVector
        from ravnest.pipeline import SavedContext

        h = make_cluster(n_peers=2, eta=0.5)
        peer = h.cluster.peers[0]
        x = np.linspace(-1, 1, 8).reshape(2, 4)
        _, ctx = modelcore.forward(peer.sub, peer.params, x)
        stash = peer.params.values.copy()
        peer.saved[42] = SavedContext(ctx, stash.copy(), peer.update_count)
        peer.params.values += 0.25  # interleaved updates moved the live params
        live = peer.params.values.copy()
        upstream = np.full((2, 4), 0.3)
        peer.busy = True
        peer.busy_since = 0.0
        h.cluster._finish_backward(peer, 42, upstream, 0.0)
        stale_pv = ParameterVector(stash, list(peer.params.blocks))
        want_grads, _ = modelcore.backward(peer.sub, stale_pv, ctx, upstream)
        np.testing.assert_array_equal(peer.params.values, live - 0.5 * want_grads)


class TestBubble:
    def test_single_peer_back_to_back_zero_bubble(self):
        h = make_cluster(n_peers=1, cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 30))
        assert measure_bubble(h.cluster.trace_info(), warmup=3) == pytest.approx(0.0, abs=1e-9)

    def test_synchronous_three_stage_matches_closed_form(self):
        h = make_cluster(n_peers=3, max_inflight=1, cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 40))
        frac = measure_bubble(h.cluster.trace_info(), warmup=5)
        want = oracle.sync_pipeline_schedule(oracle.equal_stage_costs(3))
        assert frac == pytest.approx(want, abs=0.05)
        assert want == pytest.approx(2 / 3)

    def test_zero_bubble_when_saturated(self):
        h = make_cluster(n_peers=3, max_inflight=3, cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 80))
        frac = measure_bubble(h.cluster.trace_info(), warmup=8)
        assert frac <= 0.02

    def test_window_shorter_than_warmup_rejected(self):
        h = make_cluster(n_peers=2, cost_coeff=1 / 40)
        drive(h, random_batches(h.model, 4))
        with pytest.raises(MeasurementError):
            measure_bubble(h.cluster.trace_info(), warmup=5)


class TestAccumulation:
    def test_n_accum_one_is_immediate(self):
        h1 = make_cluster(n_peers=1, eta=0.05, n_accum=1)
        batches = random_batches(h1.model, 8)
        drive(h1, batches)
        _, want = oracle.sgd_reference(h1.model, h1.init_values, batches, eta=0.05, n_accum=1)
        assert np.array_equal(h1.cluster.full_values(), want[-1])

    def test_two_batch_mean(self):
        h = make_cluster(n_peers=1, eta=0.5, n_accum=2)
        batches = random_batches(h.model, 2)
        g = []
        for b in batches:
            _, grad = modelcore.full_gradient(h.model, h.init_values, b.inputs, b.targets)
            g.append(grad)
        drive(h, batches)
        want = h.init_values - 0.5 * (g[0] + g[1]) / 2
        np.testing.assert_array_equal(h.cluster.full_values(), want)

    def test_four_batch_accumulation_matches_oracle(self):
        h = make_cluster(n_peers=2, eta=0.1, n_accum=4, max_inflight=1)
        batches = random_batches(h.model, 8)
        drive(h, batches)
        final, _ = oracle.sgd_reference(h.model, h.init_values, batches, eta=0.1, n_accum=4)
        assert np.array_equal(h.cluster.full_values(), final)

    def test_update_counting(self):
        h = make_cluster(n_peers=3, n_accum=2, max_inflight=1)
        drive(h, random_batches(h.model, 10))
        # 10 backward passes per peer, one update per 2 of them
        assert h.cluster.total_updates() == 3 * 10 // 2
        assert len(h.cluster.staleness) == 3 * 10


class TestProtocolErrors:
    def test_gradient_for_unknown_batch(self):
        h = make_cluster(n_peers=2)
        h.network.send(
            Message("gradient", "p1", "p0", step_tag=99,
                    payload=np.zeros(8), extra={"shape": (2, 4)}),
            now=0.0,
        )
        with pytest.raises(ProtocolError, match="unknown batch"):
            h.network.run_until()

    def test_forward_slot_overwrite_detected(self):
        h = make_cluster(n_peers=2, cost_coeff=1.0)  # slow compute keeps slot busy
        b = random_batches(h.model, 1)[0]
        h.cluster.admit_batch(b, 0.0)
        for tag in (101, 102):  # two unsolicited activations for the busy slot
            h.network.send(
                Message("activation", "p0", "p1", step_tag=tag,
                        payload=np.zeros(8), extra={"shape": (2, 4)}),
                now=0.0,
            )
        with pytest.raises(FlowControlError, match="overwrite"):
            h.network.run_until()

    def test_losses_recorded_per_batch(self):
        h = make_cluster(n_peers=2)
        batches = random_batches(h.model, 5)
        drive(h, batches)
        assert sorted(h.cluster.losses) == [b.batch_id for b in batches]
        assert all(np.isfinite(v) for v in h.cluster.losses.values())

    def test_staleness_csv_schema(self):
        h = make_cluster(n_peers=2)
        drive(h, random_batches(h.model, 3))
        lines = staleness_csv(h.cluster.staleness).splitlines()
        assert lines[0] == "# schema: ravnest-staleness-v1"
        assert lines[1] == "batch_id,peer,tau,update_index,virtual_time"
        assert len(lines) == 2 + 2 * 3
