import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import relu_net as rn


def random_net(rng, in_dim, out_dim, depth, width=6):
    layers = []
    dims = [in_dim] + [int(rng.integers(2, width)) for _ in range(depth - 1)] + [out_dim]
    for j in range(depth):
        act = rn.IDENTITY if j == depth - 1 else rn.RELU
        layers.append(
            rn.AffineLayer(
                rng.normal(size=(dims[j + 1], dims[j])),
                rng.normal(size=dims[j + 1]),
                act,
            )
        )
    return rn.ReluNetwork(layers)


def naive_forward(net, x):
    z = np.asarray(x, dtype=float)
    for layer in net.layers:
        out = np.empty(layer.out_dim)
        for i in range(layer.out_dim):
            acc = layer.biases[i]
            for j in range(layer.in_dim):
                acc += layer.weights[i, j] * z[j]
            out[i] = max(acc, 0.0) if layer.activation == rn.RELU else acc
        z = out
    return z


class TestEval:
    def test_identity(self):
        net = rn.identity_net(2)
        np.testing.assert_array_equal(net.eval(np.array([1.0, -2.0])), [1.0, -2.0])

    def test_hat_form(self):
        # relu(x+1) - 2 relu(x) + relu(x-1) at 0.5
        net = rn.ReluNetwork(
            [
                rn.AffineLayer([[1.0], [1.0], [1.0]], [1.0, 0.0, -1.0], rn.RELU),
                rn.AffineLayer([[1.0, -2.0, 1.0]], [0.0], rn.IDENTITY),
            ]
        )
        assert net.eval(np.array([0.5]))[0] == pytest.approx(0.5, abs=0)

    def test_random_net_vs_naive(self, rng):
        net = random_net(rng, 3, 2, 3)
        xs = rng.normal(size=(100, 3))
        batch = net.eval(xs)
        for i in range(100):
            np.testing.assert_allclose(batch[i], naive_forward(net, xs[i]), atol=1e-12)

    def test_dim_mismatch(self):
        net = rn.identity_net(2)
        with pytest.raises(ValueError):
            net.eval(np.zeros(3))


class TestCompose:
    def test_identity_neutral(self, rng):
        net = random_net(rng, 2, 3, 3)
        comp = rn.compose(rn.identity_net(3), net)
        xs = rng.normal(size=(100, 2))
        np.testing.assert_allclose(comp.eval(xs), net.eval(xs), atol=1e-12)

    def test_hat_of_affine(self):
        from charflow.lip_interp import hat1d

        comp = rn.compose(hat1d(1.0, 0), rn.affine_net([[2.0]]))
        assert comp.eval(np.array([0.25]))[0] == pytest.approx(0.5, abs=1e-15)

    def test_random_pair_sequential_oracle(self, rng):
        inner = random_net(rng, 2, 3, 2)
        outer = random_net(rng, 3, 2, 3)
        comp = rn.compose(outer, inner)
        xs = rng.normal(size=(1000, 2))
        np.testing.assert_allclose(
            comp.eval(xs), outer.eval(inner.eval(xs)), atol=1e-12
        )

    def test_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            rn.compose(random_net(rng, 3, 1, 2), random_net(rng, 2, 2, 2))

    def test_fusion_report(self, rng):
        inner = random_net(rng, 2, 3, 2)
        outer = random_net(rng, 3, 2, 2)
        net, info = rn.compose(outer, inner, report=True)
        assert net.size() == (
            sum(l.size() for l in inner.layers[:-1])
            + info["fused_layer_size"]
            + sum(l.size() for l in outer.layers[1:])
        )


class TestParallelSum:
    def test_parallel_identities(self):
        net = rn.parallelize([rn.identity_net(1), rn.identity_net(1)])
        np.testing.assert_array_equal(net.eval(np.array([3.0])), [3.0, 3.0])

    def test_sum_with_negation_is_zero(self, rng):
        net = random_net(rng, 2, 2, 3)
        zero = rn.sum_nets([net, rn.scale_net(net, -1.0)])
        xs = rng.normal(size=(100, 2))
        assert np.abs(zero.eval(xs)).max() <= 1e-12

    def test_depth_padding_signed_passthrough(self, rng):
        shallow = random_net(rng, 2, 1, 2)
        deep = random_net(rng, 2, 1, 5)
        par = rn.parallelize([shallow, deep])
        xs = rng.normal(size=(200, 2)) * 5.0  # negative inputs stress padding
        expect = np.hstack([shallow.eval(xs), deep.eval(xs)])
        np.testing.assert_allclose(par.eval(xs), expect, atol=1e-12)

    def test_passthrough_cost_formula(self, rng):
        shallow = random_net(rng, 2, 2, 2)
        deep = random_net(rng, 2, 1, 4)
        par, info = rn.parallelize([shallow, deep], report=True)
        assert par.size() - (shallow.size() + deep.size()) == info["passthrough_cost"]
        assert info["passthrough_cost"] == rn.passthrough_cost(shallow, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rn.parallelize([])


class TestRhoGate:
    def test_branch_values(self):
        net = rn.rho_gate((0.0, 1.0), 2)
        np.testing.assert_allclose(net.eval(np.array([-1.0])), [0.0, 0.0], atol=0)
        np.testing.assert_allclose(net.eval(np.array([0.25])), [0.25, 0.0], atol=0)
        np.testing.assert_allclose(net.eval(np.array([0.9])), [0.5, 0.4], atol=1e-15)

    @given(
        t=st.floats(-2, 3),
        tp=st.floats(-2, 3),
        q=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_gate_identities(self, t, tp, q):
        net = rn.rho_gate((0.0, 1.0), q)
        rho_t = net.eval(np.array([t]))
        rho_tp = net.eval(np.array([tp]))
        assert rho_t.sum() == pytest.approx(np.clip(t, 0, 1), abs=1e-12)
        assert np.abs(rho_t - rho_tp).sum() <= abs(t - tp) + 1e-12
        if 0 <= t <= 1 and 0 <= tp <= 1:
            assert np.abs(rho_t - rho_tp).sum() == pytest.approx(abs(t - tp), abs=1e-12)

    def test_closed_form_matches_net(self, rng):
        q = 7
        net = rn.rho_gate((0.3, 1.1), q)
        ts = rng.uniform(-0.5, 2.0, 200)
        np.testing.assert_allclose(
            net.eval(ts[:, None]), rn.rho_values((0.3, 1.1), q, ts), atol=1e-14
        )


class TestLipLowerBound:
    def test_constant_net(self):
        net = rn.affine_net([[0.0]], [5.0])
        assert rn.lip_lower_bound(net, [[0, 1]], 100, seed=1) == 0.0

    def test_affine_slope(self):
        net = rn.affine_net([[3.0]])
        assert rn.lip_lower_bound(net, [[0, 1]], 10_000, seed=1) >= 2.99

    def test_hat_slope(self):
        from charflow.lip_interp import hat1d

        net = hat1d(0.1, 5)
        assert rn.lip_lower_bound(net, [[0, 1]], 10_000, seed=1) >= 9.9

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            rn.lip_lower_bound(rn.identity_net(1), [[1, 1]], 10, seed=0)


class TestLayerSize:
    def test_size_counts_nonzeros(self):
        layer = rn.AffineLayer([[1.0, 0.0], [0.0, 2.0]], [0.0, 3.0], rn.IDENTITY)
        assert rn.ReluNetwork([layer]).size() == 3


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_compose_eval_property(seed):
    rng = np.random.default_rng(seed)
    f = random_net(rng, 2, 2, int(rng.integers(1, 4)))
    g = random_net(rng, 3, 2, int(rng.integers(1, 4)))
    x = rng.normal(size=(20, 3))
    np.testing.assert_allclose(
        rn.compose(f, g).eval(x), f.eval(g.eval(x)), atol=1e-12
    )
