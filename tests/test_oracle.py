import numpy as np
import pytest

from charflow import catalog, oracle
from charflow import transport_core as tc


def const_problem(values=(1.0, -1.0), u0_spec=None, f_spec=None):
    comps = [catalog.make_component({"kind": "constant", "value": v}) for v in values]
    d_y = len(values)
    conv = tc.AffineConvection(1, d_y, [1.0 / d_y] * d_y, comps)
    u0 = catalog.make_u0(u0_spec) if u0_spec else None
    f = catalog.make_f(f_spec) if f_spec else None
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]], u0=u0, f=f)


class TestRk4:
    def test_constant_field_exact(self):
        field = lambda t, x, y: np.ones_like(x) * 0.3
        z, est = oracle.rk4_char(field, 0.0, 1.0, np.zeros((3, 1)), None)
        np.testing.assert_allclose(z, 0.3, atol=1e-15)

    def test_parameter_field(self):
        field = lambda t, x, y: y[:, :1]
        z, _ = oracle.rk4_char(field, 0.0, 1.0, np.zeros((1, 1)), np.array([[0.3]]))
        assert z[0, 0] == pytest.approx(0.3, abs=1e-14)

    def test_linear_field_exponential(self):
        field = lambda t, x, y: y[:, :1] * x
        x0 = np.array([[1.0], [0.5]])
        y = np.array([[0.3], [-0.7]])
        z, _ = oracle.rk4_char(field, 0.0, 1.0, x0, y, oracle.OdeConfig(steps=256))
        np.testing.assert_allclose(z[:, 0], x0[:, 0] * np.exp(y[:, 0]), atol=1e-9)

    def test_tolerance_control(self):
        field = lambda t, x, y: np.cos(5 * x)
        cfg = oracle.OdeConfig(steps=4, tol=1e-10)
        z1, est = oracle.rk4_char(field, 0.0, 1.0, np.array([[0.2]]), None, cfg)
        assert est <= 1e-10

    def test_missed_tolerance_raises(self):
        field = lambda t, x, y: np.cos(5 * x)
        cfg = oracle.OdeConfig(steps=4, tol=1e-30, max_steps=16)
        with pytest.raises(oracle.OracleToleranceError) as exc:
            oracle.rk4_char(field, 0.0, 1.0, np.array([[0.2]]), None, cfg)
        assert exc.value.tol == 1e-30 and exc.value.est > 1e-30

    def test_nonfinite_rejected(self):
        field = lambda t, x, y: np.full_like(x, np.inf)
        with pytest.raises(FloatingPointError):
            oracle.rk4_char(field, 0.0, 1.0, np.array([[0.0]]), None)

    def test_semigroup(self, rng):
        field = lambda t, x, y: np.cos(x + t[:, None] if np.ndim(t) else x)
        field = lambda t, x, y: np.cos(x) * (1 + 0.1 * np.asarray(t)[:, None])
        x = rng.uniform(0, 1, (50, 1))
        full, _ = oracle.rk4_char(field, 0.0, 1.0, x, None, oracle.OdeConfig(steps=128))
        half, _ = oracle.rk4_char(field, 0.0, 0.4, x, None, oracle.OdeConfig(steps=128))
        rest, _ = oracle.rk4_char(
            field, np.full(50, 0.4), np.ones(50), half, None, oracle.OdeConfig(steps=128)
        )
        np.testing.assert_allclose(full, rest, atol=1e-9)

    def test_dense_output(self, rng):
        field = lambda t, x, y: np.full_like(x, 0.5)
        end, est, (times, states) = oracle.rk4_char(
            field, 0.0, 1.0, np.zeros((2, 1)), None, oracle.OdeConfig(steps=8), dense=True
        )
        assert times.shape[0] == states.shape[0] == 17  # 2*steps + 1 knots
        np.testing.assert_allclose(states[-1], end, atol=1e-15)
        np.testing.assert_allclose(states[:, 0, 0], 0.5 * times[:, 0], atol=1e-15)

    def test_backward_forward_inversion(self, rng):
        field = lambda t, x, y: y[:, :1] * np.cos(x)
        x = rng.uniform(0, 1, (50, 1))
        y = rng.uniform(-1, 1, (50, 1))
        fwd, _ = oracle.rk4_char(field, 0.0, 1.0, x, y, oracle.OdeConfig(steps=128))
        back, _ = oracle.rk4_char(field, 1.0, 0.0, fwd, y, oracle.OdeConfig(steps=128))
        np.testing.assert_allclose(back, x, atol=1e-8)


class TestSolutionOracle:
    def test_zero_source_constant_field(self, rng):
        prob = const_problem(u0_spec={"kind": "hat", "center": 0.5, "width": 1.0})
        t, x, y = prob.sample_inputs(300, seed=4)
        vals = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=64))
        _, u_fn = oracle.exact_const(prob)
        np.testing.assert_allclose(vals, u_fn(t, x, y), atol=1e-10)

    def test_unit_source(self, rng):
        prob = const_problem(f_spec={"kind": "constant", "value": 1.0})
        t, x, y = prob.sample_inputs(200, seed=5)
        vals = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=64))
        np.testing.assert_allclose(vals, t, atol=1e-12)

    def test_missed_tolerance_raises(self):
        comps = [catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(
            conv, 1.0, [[0.0, 1.0]], f=catalog.make_f({"kind": "constant", "value": 1.0})
        )
        t, x, y = prob.sample_inputs(20, seed=5)
        cfg = oracle.OdeConfig(steps=4, tol=1e-30, max_steps=16)
        with pytest.raises(oracle.OracleToleranceError):
            oracle.solution_oracle(prob, t, x, y, cfg)

    def test_manufactured_polynomial(self, rng):
        # u(t, x, y) = p(x - t a(y)) with p piecewise-linear hat: transport
        # of the initial profile along straight characteristics
        prob = const_problem(
            values=(1.0, 0.5), u0_spec={"kind": "hat", "center": 0.3, "width": 0.8}
        )
        t, x, y = prob.sample_inputs(300, seed=6)
        a_of_y = 0.5 * y[:, 0] + 0.25 * y[:, 1]
        foot = x[:, 0] - t * a_of_y
        expect = np.maximum(0.0, 1.0 - np.abs((foot - 0.3) / 0.8))
        vals = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=64))
        np.testing.assert_allclose(vals, expect, atol=1e-8)


class TestExactConst:
    def test_values(self):
        prob = const_problem(values=(1.0,))
        z_fn, _ = oracle.exact_const(prob)
        z = z_fn(0.5, np.array([[1.0]]), np.array([[-0.4]]))
        assert z[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_hat_transport(self):
        prob = const_problem(
            values=(1.0,), u0_spec={"kind": "hat", "center": 0.0, "width": 1.0}
        )
        _, u_fn = oracle.exact_const(prob)
        val = u_fn(1.0, np.array([[0.25]]), np.array([[0.25]]))
        assert val[0] == pytest.approx(1.0, abs=1e-14)

    def test_cross_oracle_agreement(self, rng):
        prob = const_problem(values=(1.0, -0.5))
        z_fn, _ = oracle.exact_const(prob)
        t, x, y = prob.sample_inputs(100, seed=7)
        field = prob.field_evaluator()
        zr, _ = oracle.rk4_char(field, np.zeros(100), t, x, y)
        np.testing.assert_allclose(z_fn(t, x, y), zr, atol=1e-12)

    def test_rejects_varying_field(self):
        comps = [catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            oracle.exact_const(prob)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            oracle.OdeConfig(steps=2)
