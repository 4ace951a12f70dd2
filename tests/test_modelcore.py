import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravnest import modelcore, oracle
from ravnest.errors import ConfigError, NumericError, PartitionError, ShapeError
from ravnest.modelcore import ParameterVector, build_model, full_submodel, partition_model


class TestBuildModel:
    def test_smallest_model_two_params(self):
        model, params = build_model([1, 1], 7)
        assert params.values.shape == (2,)
        assert np.isfinite(params.values).all()
        assert model.param_count == 2

    def test_same_seed_bitwise_identical(self):
        _, a = build_model([4, 8, 2], 123)
        _, b = build_model([4, 8, 2], 123)
        assert a.values.tobytes() == b.values.tobytes()

    def test_different_seeds_differ(self):
        _, a = build_model([4, 8, 2], 7)
        _, b = build_model([4, 8, 2], 8)
        assert (a.values != b.values).any()

    def test_one_block_per_layer(self):
        model, params = build_model([3, 5, 2], 0)
        assert [b[0] for b in params.blocks] == [0, 1]
        assert params.blocks[0][2] == 3 * 5 + 5
        assert params.blocks[1][2] == 5 * 2 + 2

    def test_init_within_fan_in_bounds(self):
        model, params = build_model([9, 9, 9], 5)
        lim = 1.0 / 3.0
        assert np.abs(params.values).max() <= lim

    def test_bad_arch_rejected(self):
        with pytest.raises(ConfigError):
            build_model([4], 0)
        with pytest.raises(ConfigError):
            build_model([], 0)
        with pytest.raises(ConfigError):
            build_model([4, 0], 0)


class TestParameterVector:
    def test_validate_rejects_gap(self):
        pv = ParameterVector(np.zeros(4), [(0, 0, 2), (1, 3, 1)])
        with pytest.raises(ShapeError):
            pv.validate()

    def test_validate_rejects_nan(self):
        pv = ParameterVector(np.array([1.0, np.nan]), [(0, 0, 2)])
        with pytest.raises(NumericError):
            pv.validate()


class TestPartition:
    def test_equal_capacities_four_layers(self):
        model, _ = build_model([4, 4, 4, 4, 4], 1)
        lb = modelcore.layer_cost_bytes(model.layers[0])
        subs = partition_model(model, [2 * lb, 2 * lb])
        assert [(s.layer_lo, s.layer_hi) for s in subs] == [(0, 2), (2, 4)]

    def test_greedy_proportional_three_one(self):
        model, _ = build_model([4, 4, 4, 4, 4], 1)
        lb = modelcore.layer_cost_bytes(model.layers[0])
        subs = partition_model(model, [3 * lb, 1 * lb])
        assert [(s.layer_lo, s.layer_hi) for s in subs] == [(0, 3), (3, 4)]

    def test_infeasible_capacity_names_deficit(self):
        model, _ = build_model([4, 4, 4], 1)
        with pytest.raises(PartitionError, match="short"):
            partition_model(model, [10.0, 10.0])

    def test_capacity_respected(self):
        model, _ = build_model([8, 8, 8, 8], 1)
        lb = modelcore.layer_cost_bytes(model.layers[0])
        subs = partition_model(model, [1.2 * lb, 2.5 * lb])
        loads = [sum(modelcore.layer_cost_bytes(l) for l in s.layers) for s in subs]
        assert loads[0] <= 1.2 * lb and loads[1] <= 2.5 * lb

    def test_more_peers_than_layers(self):
        model, _ = build_model([4, 4], 1)
        with pytest.raises(PartitionError):
            partition_model(model, [1e9, 1e9])

    @given(
        n_layers=st.integers(2, 6),
        n_peers=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_completeness(self, n_layers, n_peers, seed):
        if n_peers > n_layers:
            return
        model, _ = build_model([3] * (n_layers + 1), 0)
        rng = np.random.Generator(np.random.Philox(key=seed))
        total = sum(modelcore.layer_cost_bytes(l) for l in model.layers)
        caps = rng.uniform(0.5, 2.0, n_peers)
        caps = caps / caps.sum() * total * 1.6  # headroom, still random shares
        try:
            subs = partition_model(model, caps.tolist())
        except PartitionError:
            return  # a tight draw can be genuinely unsplittable at layer bounds
        modelcore.validate_partition(model, subs)
        assert subs[0].layer_lo == 0 and subs[-1].layer_hi == n_layers
        assert sum(s.param_len for s in subs) == model.param_count


class TestForwardBackward:
    def test_zero_upstream_zero_grads(self):
        model, params = build_model([3, 4, 2], 2)
        sub = full_submodel(model)
        x = np.ones((2, 3))
        y, ctx = modelcore.forward(sub, params, x)
        pg, ig = modelcore.backward(sub, params, ctx, np.zeros_like(y))
        assert not pg.any() and not ig.any()

    def test_linear_mse_closed_form(self):
        model, _ = build_model([1, 1], 7)
        w, b, x, t = 0.8, 0.1, -1.3, 0.4
        vals = np.array([w, b])
        _, g = modelcore.full_gradient(model, vals, np.array([[x]]), np.array([[t]]))
        residual = w * x + b - t
        np.testing.assert_allclose(g, [2 * residual * x, 2 * residual], rtol=1e-12)

    @pytest.mark.parametrize(
        "arch,hidden,loss",
        [
            ([3, 1], "tanh", "mse"),
            ([4, 6, 2], "tanh", "mse"),
            ([4, 6, 2], "relu", "mse"),
            ([4, 5, 3], "tanh", "softmax_ce"),
            ([3, 4, 4, 2], "relu", "mse"),
        ],
    )
    def test_gradients_match_finite_differences(self, arch, hidden, loss):
        model, _ = build_model(arch, 5, hidden, loss)
        rng = np.random.Generator(np.random.Philox(key=17))
        done = 0
        while done < 5:
            vals = rng.normal(0, 0.6, model.param_count)
            x = rng.normal(size=(3, model.in_dim))
            if loss == "softmax_ce":
                t = np.zeros((3, model.out_dim))
                t[np.arange(3), rng.integers(0, model.out_dim, 3)] = 1.0
            else:
                t = rng.normal(size=(3, model.out_dim))
            if hidden == "relu":
                sub = full_submodel(model)
                pv = ParameterVector(vals.copy(), modelcore._blocks_of(sub))
                _, ctx = modelcore.forward(sub, pv, x)
                if min(float(np.abs(z).min()) for z in ctx.preacts) < 1e-3:
                    continue
            _, analytic = modelcore.full_gradient(model, vals, x, t)
            fd = oracle.fd_gradient(model, vals, x, t)
            _, rel = oracle.gradient_errors(analytic, fd)
            assert rel <= 1e-4
            done += 1

    def test_backward_is_pure(self):
        model, params = build_model([3, 4, 2], 2)
        sub = full_submodel(model)
        x = np.ones((2, 3))
        y, ctx = modelcore.forward(sub, params, x)
        g = np.ones_like(y)
        a1 = modelcore.backward(sub, params, ctx, g)
        a2 = modelcore.backward(sub, params, ctx, g)
        assert np.array_equal(a1[0], a2[0]) and np.array_equal(a1[1], a2[1])

    def test_shape_mismatch_raises(self):
        model, params = build_model([3, 4, 2], 2)
        sub = full_submodel(model)
        with pytest.raises(ShapeError):
            modelcore.forward(sub, params, np.ones((2, 5)))
        y, ctx = modelcore.forward(sub, params, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            modelcore.backward(sub, params, ctx, np.ones((2, 7)))

    def test_submodel_chain_matches_full_forward(self):
        model, params = build_model([3, 5, 4, 2], 9)
        lb = [modelcore.layer_cost_bytes(l) for l in model.layers]
        subs = partition_model(model, [lb[0], lb[1], lb[2]])
        x = np.random.Generator(np.random.Philox(key=1)).normal(size=(4, 3))
        acts = x
        for sub in subs:
            pv = modelcore.peer_vector(sub, params.values)
            acts, _ = modelcore.forward(sub, pv, acts)
        full, _ = modelcore.forward(full_submodel(model), params, x)
        np.testing.assert_array_equal(acts, full)


def _reference_forward(sub, values, x):
    """Plain per-layer forward: offsets summed on the fly, fresh arrays only."""
    layer_inputs, preacts = [], []
    offset = 0
    for lay in sub.layers:
        w_len = lay.in_dim * lay.out_dim
        w = values[offset : offset + w_len].reshape(lay.out_dim, lay.in_dim)
        b = values[offset + w_len : offset + lay.param_count]
        z = x @ w.T + b
        layer_inputs.append(x)
        preacts.append(z)
        if lay.activation == "tanh":
            x = np.tanh(z)
        elif lay.activation == "relu":
            x = np.maximum(z, 0.0)
        else:
            x = z
        offset += lay.param_count
    return x, layer_inputs, preacts


def _reference_backward(sub, values, layer_inputs, preacts, g):
    """Plain per-layer backward: derivatives recomputed from pre-activations."""
    offsets = np.cumsum([0] + [lay.param_count for lay in sub.layers])
    grads = np.empty(sub.param_len)
    for i in range(len(sub.layers) - 1, -1, -1):
        lay, z, offset = sub.layers[i], preacts[i], offsets[i]
        if lay.activation == "tanh":
            deriv = 1.0 - np.tanh(z) * np.tanh(z)
        elif lay.activation == "relu":
            deriv = (z > 0.0).astype(np.float64)
        else:
            deriv = np.ones_like(z)
        dz = g * deriv
        w_len = lay.in_dim * lay.out_dim
        w = values[offset : offset + w_len].reshape(lay.out_dim, lay.in_dim)
        grads[offset : offset + w_len] = (dz.T @ layer_inputs[i]).ravel()
        grads[offset + w_len : offset + lay.param_count] = dz.sum(axis=0)
        g = dz @ w
    return grads, g


class TestBitwiseAgainstReference:
    @given(
        st.sampled_from(modelcore.ACTIVATIONS),
        st.lists(st.integers(1, 6), min_size=2, max_size=5),
        st.integers(1, 8),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_forward_backward_bitwise(self, hidden, arch, batch, data):
        model, params = build_model(arch, data.draw(st.integers(0, 999)), hidden)
        n = len(model.layers)
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        start = sum(lay.param_count for lay in model.layers[:lo])
        sub = modelcore.make_submodel(model, lo, hi, start)
        pv = modelcore.peer_vector(sub, params.values)
        rng = np.random.Generator(np.random.Philox(key=data.draw(st.integers(0, 999))))
        x = rng.normal(size=(batch, sub.in_dim))
        g = rng.normal(size=(batch, sub.out_dim))

        out, ctx = modelcore.forward(sub, pv, x)
        want_out, want_inputs, want_preacts = _reference_forward(sub, pv.values, x)
        assert np.array_equal(out, want_out)
        for got, want in zip(ctx.preacts + ctx.layer_inputs, want_preacts + want_inputs):
            assert np.array_equal(got, want)

        pgrads, igrads = modelcore.backward(sub, pv, ctx, g)
        want_pgrads, want_igrads = _reference_backward(sub, pv.values, want_inputs, want_preacts, g)
        assert np.array_equal(pgrads, want_pgrads)
        assert np.array_equal(igrads, want_igrads)


class TestApplyUpdate:
    def test_eta_zero_bitwise_unchanged(self):
        _, params = build_model([3, 2], 4)
        before = params.values.tobytes()
        modelcore.apply_update(params, np.ones_like(params.values), 0.0)
        assert params.values.tobytes() == before

    def test_simple_arithmetic(self):
        pv = ParameterVector(np.array([1.0, 2.0]), [(0, 0, 2)])
        modelcore.apply_update(pv, np.array([1.0, 1.0]), 0.5)
        np.testing.assert_array_equal(pv.values, [0.5, 1.5])

    def test_matches_scalar_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        vals = rng.normal(size=37)
        grads = rng.normal(size=37)
        eta = 0.137
        want = np.array([vals[i] - eta * grads[i] for i in range(37)])
        pv = ParameterVector(vals.copy(), [(0, 0, 37)])
        modelcore.apply_update(pv, grads, eta)
        np.testing.assert_array_equal(pv.values, want)

    def test_non_finite_grads_abort(self):
        _, params = build_model([3, 2], 4)
        bad = np.ones_like(params.values)
        bad[0] = np.inf
        with pytest.raises(NumericError):
            modelcore.apply_update(params, bad, 0.1)

    def test_negative_eta_rejected(self):
        _, params = build_model([3, 2], 4)
        with pytest.raises(ConfigError):
            modelcore.apply_update(params, np.ones_like(params.values), -0.1)


class TestLosses:
    def test_mse_single_sample(self):
        loss, grad = modelcore.loss_and_grad("mse", np.array([[2.0]]), np.array([[0.5]]))
        assert loss == pytest.approx(2.25)
        np.testing.assert_allclose(grad, [[3.0]])

    def test_softmax_ce_grad_rows_sum_to_zero(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        y = rng.normal(size=(4, 5))
        t = np.zeros((4, 5))
        t[np.arange(4), rng.integers(0, 5, 4)] = 1.0
        _, grad = modelcore.loss_and_grad("softmax_ce", y, t)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)

    def test_softmax_ce_perfect_prediction_low_loss(self):
        y = np.array([[20.0, 0.0, 0.0]])
        t = np.array([[1.0, 0.0, 0.0]])
        loss, _ = modelcore.loss_and_grad("softmax_ce", y, t)
        assert loss < 1e-8
