import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
from charflow import catalog, oracle
from charflow import transport_core as tc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_problem(stem):
    return tc.problem_from_dict(json.loads((CONFIGS / f"{stem}.json").read_text())["problem"])


def reference_sweep(field, t0, t1, x, y, steps, record=False):
    """Reference: one RK4 run over all rows at once, each row with its
    own interval, as the oracle ran before its pairs were stacked."""
    x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    n, m = x.shape
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), (n,)).copy()
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n,))
    h = (t1 - t0) / steps
    t = t0
    z = x
    times = [t0.copy()] if record else None
    states = [x.copy()] if record else None
    for _ in range(steps):
        k1 = field(t, z, y)
        k2 = field(t + 0.5 * h, z + 0.5 * h[:, None] * k1, y)
        k3 = field(t + 0.5 * h, z + 0.5 * h[:, None] * k2, y)
        k4 = field(t + h, z + h[:, None] * k3, y)
        z = z + (h / 6.0)[:, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if record:
            times.append(t.copy())
            states.append(z.copy())
    if record:
        return np.stack(times), np.stack(states)
    return z


def reference_rk4_char(field, t0, t1, x, y, config, dense=False):
    """Reference: the Richardson loop as two separate runs per pair."""
    steps = config.steps
    coarse = reference_sweep(field, t0, t1, x, y, steps)
    while True:
        fine = reference_sweep(field, t0, t1, x, y, 2 * steps)
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        if config.tol is None or est <= config.tol or 2 * steps >= config.max_steps:
            break
        coarse, steps = fine, 2 * steps
    endpoint = fine + (fine - coarse) / 15.0
    if dense:
        return endpoint, est, reference_sweep(field, t0, t1, x, y, 2 * steps, record=True)
    return endpoint, est


def reference_solution(problem, t, x, y, config):
    """Reference: trace back to the foot, then integrate the source
    forward again from the extrapolated foot (two traces per query)."""
    field = problem.field_evaluator()
    n, m = x.shape
    foot, _ = oracle.rk4_char(field, t, np.zeros(n), x, y, config)
    u0_vals = np.where(problem.inside_eval_box(foot), problem.u0_values(foot, y), 0.0)

    def augmented(s, state, yv):
        z = state[:, :m]
        return np.hstack([field(s, z, yv), problem.f_values(s, z, yv)[:, None]])

    state0 = np.hstack([foot, np.zeros((n, 1))])
    state, _ = oracle.rk4_char(augmented, np.zeros(n), t, state0, y, config)
    return u0_vals + state[:, m]


def cosine_field(m, d_y=2):
    """Affine field of d_y cosine components in R^m: rows independent."""
    comps = [
        catalog.make_component({"kind": "cosine", "amp": 1.2, "freq": 1.3, "phase": 0.4 * j}, m)
        for j in range(d_y)
    ]
    return tc.AffineConvection(m, d_y, [1.0 / d_y] * d_y, comps).eval


def grouped_field(m):
    """Affine field with two cosines of one frequency, summed as one
    cos/sin pair, and a bump: it offers ``at``, so the oracle binds it."""
    comps = [
        catalog.make_component({"kind": "cosine", "amp": 1.2, "freq": 1.3, "phase": 0.4}, m),
        catalog.make_component({"kind": "bump", "center": 0.5, "width": 0.8}, m),
        catalog.make_component({"kind": "cosine", "amp": 0.9, "freq": 1.3, "phase": -1.0}, m),
    ]
    return tc.AffineConvection(m, 3, [0.4, 0.3, 0.3], comps)


class BindCounter:
    """A field offered only through ``at``, recording the rows of each binding."""

    def __init__(self, field):
        self.field = field
        self.rows = []

    def at(self, y):
        self.rows.append(len(y))
        return self.field.at(y)


def moving_field(m):
    """Affine field whose components depend on t (m columns differ)."""
    comps = [
        catalog.FieldComponent(
            lambda t, x, ph=ph: np.cos(0.7 * x + ph + 0.5 * np.asarray(t)[:, None]),
            m=m, sup=1.0, lip_x=0.7, lip_t=0.5, time_independent=False,
        )
        for ph in (0.0, 0.9)
    ]
    return tc.AffineConvection(m, 2, [0.5, 0.5], comps).eval


def per_row_intervals(rng, n, backward):
    """Per-row (t0, t1) with every third row of zero length."""
    t0 = rng.uniform(0.0, 1.0, n)
    span = rng.uniform(0.1, 1.0, n) * (-1.0 if backward else 1.0)
    span[::3] = 0.0
    return t0, t0 + span


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


BLOCK = 7  # block rows of the stacked-pair tests, through BLOCK_BYTES


def small_blocks(monkeypatch, m):
    monkeypatch.setattr(oracle, "BLOCK_BYTES", 8 * m * BLOCK)
    assert oracle.block_rows(m) == BLOCK


class TestStackedPair:
    """The stacked Richardson pair in row blocks equals two separate runs."""

    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("backward", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_two_runs(self, monkeypatch, rng, n, backward, m):
        small_blocks(monkeypatch, m)
        t0, t1 = per_row_intervals(rng, n, backward)
        x = rng.uniform(0.0, 1.0, (n, m))
        y = rng.uniform(-1.0, 1.0, (n, 3))
        cfg = oracle.OdeConfig(steps=8)
        for field in (cosine_field(m), moving_field(m), grouped_field(m)):
            got = oracle.rk4_char(field, t0, t1, x, y, cfg)
            ref = reference_rk4_char(field, t0, t1, x, y, cfg)
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_coarse_and_fine_endpoints(self, monkeypatch, rng):
        # the pair's two runs themselves, not only their extrapolation
        small_blocks(monkeypatch, 2)
        n = 2 * BLOCK + 1
        t0, t1 = per_row_intervals(rng, n, backward=False)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = rng.uniform(-1.0, 1.0, (n, 2))
        field = moving_field(2)
        coarse, fine = oracle._pair(field, t0, t1, x, y, 8)
        assert np.array_equal(coarse, reference_sweep(field, t0, t1, x, y, 8))
        assert np.array_equal(fine, reference_sweep(field, t0, t1, x, y, 16))

    @pytest.mark.parametrize("n", [BLOCK - 1, 2 * BLOCK + 1])
    def test_without_parameters(self, monkeypatch, rng, n):
        small_blocks(monkeypatch, 1)
        field = lambda t, x, y: np.cos(x) * (1 + 0.1 * t[:, None])
        t0, t1 = per_row_intervals(rng, n, backward=True)
        x = rng.uniform(0.0, 1.0, (n, 1))
        cfg = oracle.OdeConfig(steps=8)
        got = oracle.rk4_char(field, t0, t1, x, None, cfg)
        ref = reference_rk4_char(field, t0, t1, x, None, cfg)
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("n", [BLOCK - 1, 2 * BLOCK + 1])
    def test_doubling_path(self, monkeypatch, rng, n):
        small_blocks(monkeypatch, 2)
        t0, t1 = per_row_intervals(rng, n, backward=False)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = rng.uniform(-1.0, 1.0, (n, 2))
        cfg = oracle.OdeConfig(steps=4, tol=1e-10)
        field = moving_field(2)
        got = oracle.rk4_char(field, t0, t1, x, y, cfg)
        ref = reference_rk4_char(field, t0, t1, x, y, cfg)
        assert got[1] <= 1e-10
        assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    @pytest.mark.parametrize("n", [BLOCK - 1, 2 * BLOCK + 1])
    def test_dense(self, monkeypatch, rng, n):
        small_blocks(monkeypatch, 2)
        t0, t1 = per_row_intervals(rng, n, backward=True)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = rng.uniform(-1.0, 1.0, (n, 2))
        cfg = oracle.OdeConfig(steps=4, tol=1e-8)
        field = cosine_field(2)
        end, est, (times, states) = oracle.rk4_char(field, t0, t1, x, y, cfg, dense=True)
        ref_end, ref_est, (ref_times, ref_states) = reference_rk4_char(
            field, t0, t1, x, y, cfg, dense=True
        )
        assert np.array_equal(end, ref_end) and est == ref_est
        assert np.array_equal(times, ref_times) and np.array_equal(states, ref_states)

    def test_config_batches(self):
        # the problems of the repo's configs at the real block budget
        for stem in ("affine_m1_dy4", "cosine_m2_dy2"):
            prob = config_problem(stem)
            n = oracle.block_rows(prob.m) + 1
            t, x, y = prob.sample_inputs(n, seed=11)
            cfg = oracle.OdeConfig(steps=32, tol=1e-3)
            field = prob.field_evaluator()
            got = oracle.rk4_char(field, np.zeros(n), t, x, y, cfg)
            ref = reference_rk4_char(field, np.zeros(n), t, x, y, cfg)
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]

    def test_field_calls(self):
        # 8 calls per coarse step instead of 12 when n fits one block
        calls = []
        field = cosine_field(1)
        counted = lambda t, x, y: calls.append(len(x)) or field(t, x, y)
        n = 150
        x = np.linspace(0.0, 1.0, n)[:, None]
        oracle.rk4_char(counted, 0.0, 1.0, x, np.zeros((n, 2)), oracle.OdeConfig(steps=32))
        assert len(calls) == 256
        assert calls.count(2 * n) == calls.count(n) == 128

    def test_binds_once_per_pass(self, monkeypatch, rng):
        # the pair pass binds its stacked rows and its fine rows, each
        # doubling binds once per block; binding changes no bit
        small_blocks(monkeypatch, 2)
        n = 2 * BLOCK + 1
        t0, t1 = per_row_intervals(rng, n, backward=False)
        x = rng.uniform(0.0, 1.0, (n, 2))
        y = rng.uniform(-1.0, 1.0, (n, 3))
        field = BindCounter(grouped_field(2))
        runs = ((oracle.OdeConfig(steps=8), 0), (oracle.OdeConfig(steps=4, tol=1e-9), 1))
        for cfg, doublings in runs:
            field.rows.clear()
            got = oracle.rk4_char(field, t0, t1, x, y, cfg)
            ref = reference_rk4_char(field.field.eval, t0, t1, x, y, cfg)
            assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]
            blocks = [BLOCK, BLOCK, 1]
            pair = [r for b in blocks for r in (2 * b, b)]
            assert field.rows == pair + blocks * doublings

    def test_solution_oracle_binds_once_per_pass(self):
        prob = config_problem("solution_affine")
        n = 50
        t, x, y = prob.sample_inputs(n, seed=12)
        cfg = oracle.OdeConfig(steps=32, tol=1e-3)
        expect = oracle.solution_oracle(prob, t, x, y, cfg)
        prob.convection = BindCounter(prob.convection)
        got = oracle.solution_oracle(prob, t, x, y, cfg)
        assert np.array_equal(got, expect)
        assert prob.convection.rows == [2 * n, n]

    def test_memory_bounded(self):
        # past one block, the peak grows by the (n, m) result arrays only
        prob = config_problem("affine_m1_dy4")
        field = prob.field_evaluator()
        cfg = oracle.OdeConfig(steps=32, tol=5e-4)
        small = oracle.block_rows(prob.m)
        peaks = []
        for n in (small, 8 * small):
            t, x, y = prob.sample_inputs(n, seed=3)
            t0 = np.zeros(n)
            tracemalloc.start()
            oracle.rk4_char(field, t0, t, x, y, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        result_array = 7 * small * prob.m * 8  # the growth of one (n, m) array
        assert peaks[1] - peaks[0] <= 3 * result_array


class TestSolutionOracle:
    def test_zero_source_constant_field(self, rng):
        prob = const_problem(u0_spec={"kind": "hat", "center": 0.5, "width": 1.0})
        t, x, y = prob.sample_inputs(300, seed=4)
        vals = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=64))
        _, u_fn = reference.exact_const(prob)
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


class TestSingleTrace:
    """solution_oracle makes one backward trace that carries the source."""

    def test_u0_part_at_plain_foot(self):
        prob = config_problem("solution_affine")
        t, x, y = prob.sample_inputs(200, seed=8)
        cfg = oracle.OdeConfig(steps=32, tol=1e-3)
        seen = []
        u0_values = prob.u0_values
        prob.u0_values = lambda foot, yv: seen.append(foot.copy()) or u0_values(foot, yv)
        oracle.solution_oracle(prob, t, x, y, cfg)
        foot, _ = oracle.rk4_char(prob.field_evaluator(), t, np.zeros(200), x, y, cfg)
        (traced_foot,) = seen
        assert np.array_equal(traced_foot, foot)
        assert np.array_equal(u0_values(traced_foot, y), u0_values(foot, y))

    def test_closed_form_ramp_source(self):
        # constant field a(y), clamp never bites: the source integral is
        # a polynomial in t, which RK4 integrates exactly
        base, xc, tcf, lo, hi = 0.5, 0.25, 0.75, -5.0, 5.0
        prob = const_problem(
            values=(1.0, -0.5),
            u0_spec={"kind": "hat", "center": 0.4, "width": 0.9},
            f_spec={
                "kind": "ramp-t", "base": base, "x_coeff": xc, "t_coeff": tcf,
                "lo": lo, "hi": hi,
            },
        )
        t, x, y = prob.sample_inputs(300, seed=9)
        a = 0.5 * y[:, 0] - 0.25 * y[:, 1]
        xs = x[:, 0]
        foot = xs - t * a
        expect = (
            np.maximum(0.0, 1.0 - np.abs((foot - 0.4) / 0.9))
            + base * t
            + xc * ((xs - lo) * t - a * t**2 / 2.0) / (hi - lo)
            + tcf * t**2 / 2.0
        )
        vals = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=32))
        np.testing.assert_allclose(vals, expect, rtol=0.0, atol=1e-12)

    def test_agrees_with_forward_retrace(self):
        prob = config_problem("solution_affine")
        t, x, y = prob.sample_inputs(200, seed=10)
        cfg = oracle.OdeConfig(steps=32, tol=1e-3)
        got = oracle.solution_oracle(prob, t, x, y, cfg)
        np.testing.assert_allclose(got, reference_solution(prob, t, x, y, cfg), rtol=0.0, atol=1e-10)

    def test_one_rk4_char_call(self, monkeypatch):
        prob = config_problem("solution_affine")
        t, x, y = prob.sample_inputs(50, seed=12)
        calls = []
        rk4_char = oracle.rk4_char
        monkeypatch.setattr(
            oracle, "rk4_char", lambda *args: calls.append(1) or rk4_char(*args)
        )
        oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=32, tol=1e-3))
        assert len(calls) == 1

    def test_oracle_imports_nothing_from_the_package(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0 and not (node.module or "").startswith("charflow")
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("charflow") for a in node.names)


class TestExactConst:
    def test_values(self):
        prob = const_problem(values=(1.0,))
        z_fn, _ = reference.exact_const(prob)
        z = z_fn(0.5, np.array([[1.0]]), np.array([[-0.4]]))
        assert z[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_hat_transport(self):
        prob = const_problem(
            values=(1.0,), u0_spec={"kind": "hat", "center": 0.0, "width": 1.0}
        )
        _, u_fn = reference.exact_const(prob)
        val = u_fn(1.0, np.array([[0.25]]), np.array([[0.25]]))
        assert val[0] == pytest.approx(1.0, abs=1e-14)

    def test_cross_oracle_agreement(self, rng):
        prob = const_problem(values=(1.0, -0.5))
        z_fn, _ = reference.exact_const(prob)
        t, x, y = prob.sample_inputs(100, seed=7)
        field = prob.field_evaluator()
        zr, _ = oracle.rk4_char(field, np.zeros(100), t, x, y)
        np.testing.assert_allclose(z_fn(t, x, y), zr, atol=1e-12)

    def test_rejects_varying_field(self):
        comps = [catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        with pytest.raises(ValueError):
            reference.exact_const(prob)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            oracle.OdeConfig(steps=2)

    def test_max_steps_below_first_pair_refused(self):
        # the first Richardson pair already runs 2 * steps
        with pytest.raises(ValueError):
            oracle.OdeConfig(steps=32, max_steps=32)
        with pytest.raises(ValueError):
            oracle.OdeConfig(steps=4, max_steps=7)
        assert oracle.OdeConfig(steps=4, max_steps=8).max_steps == 8
        assert oracle.OdeConfig(steps=4, max_steps=16).max_steps == 16
