import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charflow import lip_interp as li


def tensor_hat_value(indices, h, x):
    """Direct tensor-product formula of a tensor hat."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.ones(x.shape[0])
    for j, i in enumerate(indices):
        out = out * li.hat_value(h, i, x[:, j])
    return out


class TestHat1d:
    def test_node_value(self):
        assert li.hat1d(1.0, 0).eval(np.array([0.0]))[0] == 1.0

    def test_shifted_scaled(self):
        net = li.hat1d(0.5, 2)
        assert net.eval(np.array([1.0]))[0] == 1.0
        assert net.eval(np.array([1.25]))[0] == 0.5

    def test_dense_sweep_vs_formula(self):
        net = li.hat1d(0.25, 1)
        xs = np.linspace(0.0, 1.0, 2001)
        np.testing.assert_allclose(
            net.eval(xs[:, None])[:, 0], li.hat_value(0.25, 1, xs), atol=1e-14
        )

    def test_support_and_lipschitz(self):
        h, i = 0.25, 2
        net = li.hat1d(h, i)
        outside = np.array([[(i - 1) * h - 1e-9], [(i + 1) * h + 1e-9]])
        assert np.abs(net.eval(outside)).max() <= 1e-14
        from charflow.relu_net import lip_lower_bound

        low = lip_lower_bound(net, [[0, 1]], 4000, seed=2)
        assert 1 / h - 0.1 <= low <= 1 / h + 1e-9


class TestSquareAndProduct:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_square_bounds(self, n):
        net = li.square_net(n)
        xs = np.linspace(0, 1, 4001)
        err = np.abs(net.eval(xs[:, None])[:, 0] - xs**2).max()
        assert err <= 0.25 * 4.0**-n + 1e-15
        # derivative via slopes of the dense sweep
        slopes = np.diff(net.eval(xs[:, None])[:, 0]) / np.diff(xs)
        true = 2 * 0.5 * (xs[1:] + xs[:-1])
        assert np.abs(slopes - true).max() <= 2.0**-n + 1e-3

    def test_square_monotone_zero_at_zero(self):
        net = li.square_net(5)
        xs = np.linspace(0.0, 1.5, 601)
        vals = net.eval(xs[:, None])[:, 0]
        assert net.eval(np.array([0.0]))[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)

    def test_product_zero_origin_exact_faces_tiny(self):
        net = li.product_net(2, 1e-2)
        assert net.eval(np.array([0.0, 0.0]))[0] == 0.0
        # zero faces cancel exactly in exact arithmetic; float evaluation
        # leaves lane-grouping rounding dust far below any tolerance
        assert abs(net.eval(np.array([0.0, 0.7]))[0]) <= 1e-15

    def test_product_at_ones(self):
        net = li.product_net(2, 1e-3)
        assert abs(net.eval(np.array([1.0, 1.0]))[0] - 1.0) <= 1e-3

    @pytest.mark.parametrize("s,delta", [(2, 1e-2), (3, 1e-2), (2, 1e-3)])
    def test_product_sup_and_gradient(self, s, delta, rng):
        net = li.product_net(s, delta)
        pts = rng.uniform(0, 1, size=(10_000, s))
        vals = net.eval(pts)[:, 0]
        assert np.abs(vals - pts.prod(axis=1)).max() <= delta
        # central-difference gradient at interior points
        inner = rng.uniform(0.05, 0.95, size=(300, s))
        h = 1e-4
        for j in range(s):
            e = np.zeros(s)
            e[j] = h
            fd = (net.eval(inner + e)[:, 0] - net.eval(inner - e)[:, 0]) / (2 * h)
            true = np.prod(np.delete(inner, j, axis=1), axis=1)
            assert np.abs(fd - true).max() <= 10 * delta

    def test_product_complexity_logarithmic(self):
        sizes = [li.product_net(2, 2.0**-k).size() for k in (4, 8, 12)]
        ks = np.array([4, 8, 12])
        ratio = np.array(sizes) / ks
        assert ratio.max() / ratio.min() <= 4.0

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            li.product_net(2, 1.5)


class TestTensorHat:
    def test_node_value(self):
        net = li.tensor_hat((2, 3), 0.25, 1e-2)
        val = net.eval(np.array([0.5, 0.75]))[0]
        assert abs(val - 1.0) <= 2e-2

    def test_outside_support_zero(self):
        h = 0.25
        net = li.tensor_hat((1, 1), h, 1e-2)
        # both coordinates outside: every hat channel is exactly zero
        pts = np.array([[0.75, 0.75], [1.0, 0.8], [0.9, 1.0]])
        assert np.abs(net.eval(pts)).max() == 0.0
        # generic outside points: zero up to float rounding dust
        rng = np.random.default_rng(5)
        outside = rng.uniform(0.5 + 1e-6, 1.0, size=(500, 2))
        assert np.abs(net.eval(outside)).max() <= 1e-13
        # the delivered interpolant evaluator masks to literal zeros
        grid = li.GridSpec(2, 4)
        sf = li.SampledFunction.from_function(
            lambda x: np.ones(x.shape[0]), grid, lip_bound=0.0
        )
        interp, _ = li.lip_stable_net(sf, 0.3)
        far = np.array([[2.5, 2.5], [-1.0, 0.5]])
        assert np.abs(interp.eval(far)).max() == 0.0

    def test_dense_grid_vs_tensor_product(self, rng):
        h, delta = 0.25, 5e-3
        net = li.tensor_hat((2, 1), h, delta)
        pts = rng.uniform(0, 1, size=(4000, 2))
        ref = tensor_hat_value((2, 1), h, pts)
        assert np.abs(net.eval(pts)[:, 0] - ref).max() <= 2 * delta


class TestGridAndSamples:
    def test_grid_nodes(self):
        g = li.GridSpec(2, 2)
        assert g.nodes().shape == (9, 2)
        assert g.h * g.q == pytest.approx(1.0, abs=1e-15)

    def test_sampled_function_validation(self):
        g = li.GridSpec(1, 10)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        sf.validate(seed=0)
        bad = li.SampledFunction.from_function(lambda x: 5 * x[:, 0], g, lip_bound=1.0)
        with pytest.raises(ValueError):
            bad.validate(seed=0)


class TestLipStableNet:
    def test_constant_function(self):
        g = li.GridSpec(1, 4)
        sf = li.SampledFunction.from_function(
            lambda x: np.full(x.shape[0], 5.0), g, lip_bound=0.0
        )
        net, rep = li.lip_stable_net(sf, 0.1, reference_fn=lambda x: np.full(x.shape[0], 5.0))
        nodes = g.nodes()
        np.testing.assert_allclose(net.eval(nodes)[:, 0], 5.0, atol=1e-12)
        assert rep["measured_sup_error"] <= 0.1

    def test_linear_exact_at_nodes(self):
        g = li.GridSpec(1, 40)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        net, rep = li.lip_stable_net(sf, 0.05, reference_fn=lambda x: x[:, 0])
        nodes = g.nodes()
        np.testing.assert_allclose(net.eval(nodes)[:, 0], nodes[:, 0], atol=1e-14)
        assert rep["measured_sup_error"] <= 0.05

    def test_2d_kink_function(self, rng):
        delta = 0.02
        g = li.GridSpec(2, 100)
        fn = lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
        net, rep = li.lip_stable_net(sf, delta)
        xs = np.linspace(0, 1, 200)
        grid_pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        err = np.abs(net.eval(grid_pts)[:, 0] - fn(grid_pts)).max()
        assert err <= delta
        lip_low = li._interpolant_lip(net, g.box, rng)
        assert lip_low <= li.CALIBRATED["c3"] * (1 + sf.sup_bound) * 1.0

    def test_grid_too_coarse_refusal(self):
        g = li.GridSpec(1, 5)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        with pytest.raises(li.GridTooCoarse) as exc:
            li.lip_stable_net(sf, 0.05)
        assert exc.value.required_q >= 40

    @pytest.mark.parametrize("s,q,delta", [(1, 10, 0.25), (2, 8, 0.3)])
    def test_materialization_equivalence(self, s, q, delta, rng):
        g = li.GridSpec(s, q)
        fn = (
            (lambda x: np.abs(x[:, 0] - 0.4))
            if s == 1
            else (lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1])
        )
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
        net, _ = li.lip_stable_net(sf, delta)
        mono = net.materialize()
        pts = rng.uniform(-0.3, 1.3, size=(500, s))
        np.testing.assert_allclose(net.eval(pts), mono.eval(pts), atol=1e-12)
        assert net.size() == mono.size()
        assert net.depth() == mono.depth()

    def test_materialization_equivalence_shifted_box(self, rng):
        g = li.GridSpec(2, 8, box=[[-1.0, 2.0], [0.5, 1.5]])
        fn = lambda x: 0.2 * np.abs(x[:, 0]) + 0.1 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=0.2)
        net, _ = li.lip_stable_net(sf, 0.25)
        mono = net.materialize()
        pts = rng.uniform([-1.2, 0.3], [2.2, 1.7], size=(400, 2))
        np.testing.assert_allclose(net.eval(pts), mono.eval(pts), atol=1e-12)
        assert net.size() == mono.size()

    def test_interpolant_bounded_by_sup(self, rng):
        # interpolant stability: nodal coefficients bounded by sup(g)
        g = li.GridSpec(2, 12)
        fn = lambda x: np.sin(3 * x[:, 0]) * 0.5 + 0.2 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.6)
        assert np.abs(sf.values).max() <= sf.sup_bound + 1e-15

    def test_complexity_band(self):
        # size / (delta^-s log2(1/delta)) stays in a factor-4 band
        for s in (1, 2):
            ratios = []
            for k in (4, 6, 8, 10):
                delta = 2.0**-k
                q = int(np.ceil(2.0 / delta))
                g = li.GridSpec(s, q)
                fn = (
                    (lambda x: np.abs(x[:, 0] - 0.5))
                    if s == 1
                    else (lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1])
                )
                sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
                net, rep = li.lip_stable_net(sf, delta)
                ratios.append(rep["size"] / (delta**-s * k))
            assert max(ratios) / min(ratios) <= 4.0


class TestPartitionOfUnity:
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_hat_sum_near_one(self, x1, x2):
        h, delta = 0.25, 1e-3
        q = 4
        total = 0.0
        for i in range(q + 1):
            for j in range(q + 1):
                net = _cached_hat((i, j), h, delta)
                total += net.eval(np.array([x1, x2]))[0]
        assert abs(total - 1.0) <= 2 * delta * 4  # <= 4 active hats


_HATS = {}


def _cached_hat(idx, h, delta):
    key = (idx, h, delta)
    if key not in _HATS:
        _HATS[key] = li.tensor_hat(idx, h, delta)
    return _HATS[key]


def test_calibration_runs():
    consts = li.calibrate_constants(seed=1)
    assert consts["c1"] > 0 and consts["c2"] > 0 and consts["c3"] > 0
    assert consts["c3"] <= li.CALIBRATED["c3"] + 1e-9
    assert consts["C"] <= li.CALIBRATED["C"] + 1e-9
