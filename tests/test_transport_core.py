import math

import numpy as np
import pytest

from charflow import catalog, oracle
from charflow import comp_calculus as cc
from charflow import transport_core as tc


def cosine_problem(d_y=4, freq=0.2, T_hat=1.0, u0_spec=None, f_spec=None):
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": freq, "phase": 0.7 * j}
        )
        for j in range(d_y)
    ]
    conv = tc.AffineConvection(1, d_y, [1.0 / d_y] * d_y, comps)
    u0 = catalog.make_u0(u0_spec) if u0_spec else None
    f = catalog.make_f(f_spec) if f_spec else None
    return tc.TransportProblem(conv, T_hat, [[0.0, 1.0]], u0=u0, f=f)


def cosine_problem_m2():
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}, m=2
        )
        for j in range(2)
    ]
    conv = tc.AffineConvection(2, 2, [0.5, 0.5], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0], [0.0, 1.0]])


def time_dependent_problem():
    """Affine field whose components move in t: every slab is per-cell."""
    comps = [
        catalog.FieldComponent(
            lambda t, x, ph=ph: np.cos(x + ph + np.asarray(t)[:, None]),
            m=1, sup=1.0, lip_x=1.0, lip_t=1.0, time_independent=False,
        )
        for ph in (0.0, 0.7)
    ]
    conv = tc.AffineConvection(1, 2, [0.5, 0.5], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])


def constant_problem_m2():
    """m = 2 constant components: one grid cell, so the sweep contracts
    the coefficient tables before the lookup."""
    comps = [
        catalog.FieldComponent(
            lambda t, x, v=v: np.tile(v, (x.shape[0], 1)), m=2, sup=1.0, lip_x=0.0
        )
        for v in ([1.0, -0.5], [0.25, 1.0])
    ]
    conv = tc.AffineConvection(2, 2, [0.5, 0.5], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0], [0.0, 1.0]])


def assert_time_sets_match_single_calls(net, rng, n=12):
    """(r, n) query times give the rows of r single-time evaluations."""
    prob, grid = net.problem, net.grid
    x = rng.uniform(prob.domain[:, 0], prob.domain[:, 1], (n, prob.m))
    y = rng.uniform(-1, 1, (n, prob.d_y))
    junctions = grid.junctions()
    times = np.stack(
        [
            rng.uniform(0.0, prob.T_hat, n),
            np.resize(junctions, n),  # exactly on junctions, 0 and T_hat included
            rng.uniform(*grid.slab(0), n),
            rng.uniform(*grid.slab(grid.K - 1), n),
        ]
    )
    got = net.eval(times, x, y)
    assert got.shape == (len(times), n, prob.m)
    for r, t in enumerate(times):
        np.testing.assert_array_equal(got[r], net.eval(t, x, y))


def per_node_eval_parts(net, t, x, y):
    """Reference: one backward chain for t and one per active source node."""
    foot = net.back_net.eval(t, x, y)
    u0_part = net.u0_net.eval(foot)[:, 0]
    rho = tc.rho_values((0.0, net.problem.T_hat), net.q_src, t)
    f_part = np.zeros(len(t))
    for i, f_net in enumerate(net.f_nets):
        active = rho[:, i] > 0
        if not np.any(active):
            continue
        sigma = np.maximum(t[active] - net.xi[i], 0.0)
        feet_i = net.back_net.eval(sigma, x[active], y[active])
        f_part[active] += rho[active, i] * f_net.eval(feet_i)[:, 0]
    return u0_part, f_part


def four_chain_lipschitz(net, n_samples, seed):
    """Reference (lip_xy, lip_t): one chain per evaluation, as sampled by
    lipschitz_certificate."""
    problem = net.problem
    rng = np.random.default_rng(seed)
    t, x, y = problem.sample_inputs(n_samples, seed)
    dx = rng.uniform(-1, 1, size=(n_samples, problem.m + problem.d_y))
    dx *= 1e-4 / np.maximum(np.abs(dx).max(axis=1, keepdims=True), 1e-300)
    x2 = np.clip(x + dx[:, : problem.m], problem.domain[:, 0], problem.domain[:, 1])
    y2 = np.clip(y + dx[:, problem.m :], -1.0, 1.0)
    num = np.abs(net.eval(t, x2, y2) - net.eval(t, x, y)).max(axis=1)
    den = np.maximum(np.abs(x2 - x).max(axis=1), np.abs(y2 - y).max(axis=1))
    lip_xy = float((num[den > 0] / den[den > 0]).max())
    t2 = np.clip(t + rng.uniform(-1e-4, 1e-4, size=n_samples), 0.0, problem.T_hat)
    num = np.abs(net.eval(t2, x, y) - net.eval(t, x, y)).max(axis=1)
    den = np.abs(t2 - t)
    lip_t = float((num[den > 0] / den[den > 0]).max())
    return lip_xy, lip_t


def junction_values(net, x, y):
    """Seeds entering each slab of a char net, shape (K+1, n, m)."""
    w = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ws = [w]
    for slab in net.slabs:
        w = slab.junction(w, y)
        ws.append(w)
    return np.stack(ws)


def check_builder(conv, interval, N, box, n_samples=500, seed=0):
    """Sampled consistency check of a general field's builder contract."""
    rep = conv.rep_builder(interval, N)
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float)
    pts = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, box.shape[0]))
    z, y = pts[:, : conv.m], pts[:, conv.m :]
    mid = 0.5 * (interval[0] + interval[1])
    ref = conv.eval(np.full(n_samples, mid), z, y)
    err = float(np.max(np.abs(rep.eval(pts) - ref)))
    budget = conv.a_norm / float(conv.gf(N)) + conv.a_norm * (
        interval[1] - interval[0]
    ) * (conv.L_t or 0.0)
    return {"sampled_error": err, "contract_budget": budget, "ok": err <= budget}


def naive_slab_eval(slab, t, w, y):
    """Per-sample reference for an affine slab's arithmetic."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    conv, q = slab.conv, slab.q
    out = np.empty_like(w)
    for r in range(w.shape[0]):
        Z = [w[r].copy() for _ in range(q)]
        for sweep in range(slab.mu):
            vals = []
            for i in range(q):
                acc = np.zeros(conv.m)
                for j in range(conv.d_y):
                    nets = slab.interpolants.nets[j][0 if slab._shared else i]
                    acc += (
                        conv.omega[j]
                        * y[r, j]
                        * np.array([nets[c].eval(Z[i])[0] for c in range(conv.m)])
                    )
                vals.append(acc)
            if sweep < slab.mu - 1:
                Z = [
                    w[r]
                    + sum(
                        tc.rho_values(slab.interval, q, slab.midpoints[i])[k] * vals[k]
                        for k in range(q)
                    )
                    for i in range(q)
                ]
        rho = tc.rho_values(slab.interval, q, t[r])
        out[r] = w[r] + sum(rho[k] * vals[k] for k in range(q))
    return out


def edge_times(interval, q):
    """Cell boundaries tau_0, tau_1, tau_{q//2}, tau_{q-1}, tau_q of the
    slab's ramps, and one time 0.1 |I| before and after the slab."""
    lo, hi = interval
    taus = lo + (hi - lo) * np.array([0, 1, q // 2, q - 1, q]) / q
    return np.concatenate([taus, [lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo)]])


def zero_field_problem():
    comps = [catalog.make_component({"kind": "constant", "value": 0.0})]
    conv = tc.AffineConvection(1, 1, [1.0], comps, validate=False)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])


class TestMacroGrid:
    def test_unit_case(self):
        g = tc.macro_grid(1.0, 1.0)
        assert g.interval_length == 0.5 and g.K == 2

    def test_fractional(self):
        g = tc.macro_grid(2.0, 3.0)
        assert g.interval_length == pytest.approx(1 / 6) and g.K == 12

    def test_single_slab(self):
        assert tc.macro_grid(0.5, 1.0).K == 1

    def test_slabs_cover_horizon(self):
        g = tc.macro_grid(1.3, 2.0)
        assert g.K * g.slab_length == pytest.approx(1.3)
        assert g.slab_length <= g.interval_length + 1e-15


class TestSchedule:
    def test_eta_example(self):
        assert tc.eta_tolerance(0.1, 2) == pytest.approx(
            (math.exp(0.5) - 1) * 0.1 * math.exp(-1)
        )

    def test_mu_example(self):
        assert tc.mu_iterations(1 / 8) == 2

    def test_tau_and_q_example(self):
        eta = tc.eta_tolerance(0.1, 2)
        tau = tc.tau_from_eta(eta)
        assert tau == pytest.approx(math.exp(-0.5) * eta)
        assert math.ceil(2 * 1.0 * 0.5 / tau) == 70

    def test_schedule_certifies_internal_half(self):
        prob = cosine_problem()
        grid = tc.macro_grid(1.0, prob.convection.norm)
        sched = tc.schedule(0.1, grid, prob)
        assert sched.eps_internal == 0.05
        assert sched.q >= 1 and sched.mu >= 1
        assert sched.delta < 1

    def test_resource_refusal(self):
        prob = cosine_problem()
        grid = tc.macro_grid(1.0, prob.convection.norm)
        with pytest.raises(tc.ResourceCeiling) as exc:
            tc.schedule(1e-7, grid, prob)
        assert exc.value.predicted_cost > 0


class TestPicardNumeric:
    def test_constant_field_one_sweep_exact(self):
        field = lambda t, x, y: np.full_like(x, 0.7)
        at = tc.picard_numeric(field, (0.0, 0.4), np.array([[0.2]]), None, 1)
        assert at(0.3)[0, 0] == pytest.approx(0.2 + 0.3 * 0.7, abs=1e-12)

    def test_zero_sweeps_identity(self):
        field = lambda t, x, y: np.ones_like(x)
        at = tc.picard_numeric(field, (0.0, 0.5), np.array([[0.3]]), None, 0)
        assert at(0.5)[0, 0] == 0.3

    def test_error_halves_per_sweep(self, rng):
        comp = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})
        conv = tc.AffineConvection(1, 1, [1.0], [comp])
        grid = tc.macro_grid(1.0, conv.norm)
        interval = grid.slab(0)
        field = lambda t, x, y: conv.eval(t, x, y)
        n = 200
        x = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, 1))
        t = rng.uniform(interval[0], interval[1], n)
        zr, _ = oracle.rk4_char(
            field, np.full(n, interval[0]), t, x, y, oracle.OdeConfig(steps=32, tol=1e-9)
        )
        for k in range(1, 7):
            at = tc.picard_numeric(field, interval, x, y, k, time_grid=2048)
            assert np.abs(at(t) - zr).max() <= 2.0 ** (-k - 1)


class TestSlabNet:
    def test_zero_field_identity(self, rng):
        prob = zero_field_problem()
        slab = tc.build_slab_net(prob, (0.0, 0.5), tau=0.01)
        t = rng.uniform(0, 0.5, 20)
        w = rng.uniform(0, 1, (20, 1))
        y = rng.uniform(-1, 1, (20, 1))
        np.testing.assert_allclose(slab.at_times(t, w, y), w, atol=1e-14)

    def test_constant_in_x_field_quadrature_exact(self, rng):
        # constant components: only the implantation term remains, and the
        # interpolant of a constant is exact
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], [comp for comp in comps])
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        slab = tc.build_slab_net(prob, (0.0, 0.5), tau=0.01)
        t = rng.uniform(0, 0.5, 50)
        w = rng.uniform(0, 1, (50, 1))
        y = rng.uniform(-1, 1, (50, 1))
        expect = w + t[:, None] * y
        bound = conv.omega1 * 0.5 * slab.delta
        assert np.abs(slab.at_times(t, w, y) - expect).max() <= max(bound, 1e-12)

    def test_one_step_error_vs_fine_reference(self, rng):
        comp = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})
        conv = tc.AffineConvection(1, 1, [1.0], [comp])
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        grid = tc.macro_grid(1.0, conv.norm)
        interval = grid.slab(0)
        tau = 0.01
        slab = tc.build_slab_net(prob, interval, tau)
        field = lambda t, x, y: conv.eval(t, x, y)
        n = 1000
        w = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, 1))
        t = rng.uniform(interval[0], interval[1], n)
        phi = tc.picard_numeric(field, interval, w, y, 1, time_grid=4096)
        assert np.abs(slab.at_times(t, w, y) - phi(t)).max() <= tau

    def test_one_step_bound_formula(self):
        prob = cosine_problem(d_y=2)
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=0.02)
        # case with slab averages: (L|I| + 1) A |I| / (2q) dominates the
        # quadrature part; the full budget must stay below tau
        assert slab.one_step_error_bound() <= 0.02 + 1e-12

    def test_naive_reference_agreement(self, rng):
        prob = cosine_problem(d_y=2)
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=0.05, mu=3)
        t = np.concatenate([rng.uniform(*grid.slab(0), 4), edge_times(slab.interval, slab.q)])
        w = rng.uniform(0, 1, (len(t), 1))
        y = rng.uniform(-1, 1, (len(t), 2))
        np.testing.assert_allclose(
            slab.at_times(t, w, y), naive_slab_eval(slab, t, w, y), atol=1e-12
        )

    @pytest.mark.parametrize("general", [False, True], ids=["affine", "general"])
    def test_single_slab_matches_char_net_slabs(self, general):
        # build_slab_net at the schedule's (tau, mu) derives the same q,
        # delta and representation budget N as build_char_net's slabs
        budgets = []
        if general:
            conv, eps = TestGeneralConvection.make_general(), 0.2
            builder = conv.rep_builder
            conv.rep_builder = lambda sub, N: budgets.append(N) or builder(sub, N)
        else:
            conv, eps = cosine_problem(d_y=2).convection, 0.1
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        net = tc.build_char_net(prob, eps)
        sched = net.sched
        slab = tc.build_slab_net(prob, net.grid.slab(0), tau=sched.tau, mu=sched.mu)
        assert type(slab) is type(net.slabs[0])
        for built in net.slabs:
            assert (slab.q, slab.delta, slab.mu) == (built.q, built.delta, built.mu)
        # time-independent field: one representation per slab of the net,
        # then one for the single slab, all with the schedule's N
        assert (sched.N is not None) == general
        assert budgets == [sched.N] * (net.grid.K + 1 if general else 0)

    @pytest.mark.parametrize("f", ["midpoint", "end", "array"])
    def test_gate_in_place(self, rng, f):
        # _gate(..., out=) is the one gate formula, computed in place
        slab = tc.build_slab_net(cosine_problem(d_y=2), (0.0, 0.5), tau=0.05)
        n, q = 7, slab.q
        if f == "midpoint":
            f, w, shape = 0.5, rng.uniform(0, 1, (n, 1, 1)), (n, q, 1)
        elif f == "end":
            f, w, shape = 1.0, rng.uniform(0, 1, (n, 1)), (n, 1)
        else:
            f, w, shape = rng.uniform(0, 1, (n, 1)), rng.uniform(0, 1, (n, 1)), (n, 1)
        V = rng.uniform(-1, 1, shape)
        S = rng.uniform(-1, 1, shape)
        want = slab._gate(w, V, S, f)
        np.testing.assert_array_equal(want, w + slab.cell * (S - (1.0 - f) * V))
        out = np.empty(shape)
        assert slab._gate(w, V, S, f, out=out) is out
        np.testing.assert_array_equal(out, want)
        slab._gate(w, V, S, f, out=V)
        np.testing.assert_array_equal(V, want)

    def test_contraction_of_sweeps(self, rng):
        # two sweeps from distinct quadrature-state seeds contract by >= 2
        prob = cosine_problem(d_y=1)
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=0.01)
        w = rng.uniform(0, 1, (30, 1))
        y = rng.uniform(-1, 1, (30, 1))
        za = rng.uniform(-0.5, 1.5, (30, slab.q, 1))
        zb = rng.uniform(-0.5, 1.5, (30, slab.q, 1))

        plan = slab._sweep_plan(y)

        def sweep(Z):
            V = plan(Z)
            return w[:, None, :] + slab.cell * (np.cumsum(V, axis=1) - 0.5 * V)

        num = np.abs(sweep(za) - sweep(zb)).max(axis=(1, 2))
        den = np.abs(za - zb).max(axis=(1, 2))
        assert (num / den).max() <= 0.5 + 1e-9


class TestFusedSweep:
    """One sweep evaluates all interpolants of a slab from stacked tables."""

    # the s = 1 shared slab is TestSlabNet.test_naive_reference_agreement
    @pytest.mark.parametrize(
        "make_problem, tau, contract_first",
        [
            (cosine_problem_m2, 0.2, False),
            (time_dependent_problem, 0.1, False),
            (constant_problem_m2, 0.2, True),
        ],
        ids=["s2_shared", "s1_per_cell", "s2_one_cell"],
    )
    def test_naive_reference_agreement(self, rng, make_problem, tau, contract_first):
        prob = make_problem()
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(1), tau=tau, mu=2)
        assert slab._shared == prob.convection.time_independent()
        # both orders of weighting and lookup are covered
        assert [g[3] for g in slab.interpolants.groups] == [contract_first]
        t = np.concatenate([rng.uniform(*grid.slab(1), 3), edge_times(slab.interval, slab.q)])
        n = len(t)
        w = rng.uniform(prob.eval_box[:, 0], prob.eval_box[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        np.testing.assert_allclose(
            slab.at_times(t, w, y), naive_slab_eval(slab, t, w, y), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "make_problem, eps",
        [
            (lambda: cosine_problem(d_y=2), 0.1),
            (cosine_problem_m2, 0.4),
            (time_dependent_problem, 0.4),
            (
                lambda: tc.TransportProblem(
                    TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]]
                ),
                0.2,
            ),
        ],
        ids=["s1_shared", "s2_shared", "s1_per_cell", "general_shared"],
    )
    def test_rows_independent_of_blocks(self, make_problem, eps):
        prob = make_problem()
        net = tc.build_char_net(prob, eps)
        slab = net.slabs[0]
        step = int(tc.BLOCK_BYTES // (8 * slab.row_floats))
        n = 2 * step + 3  # three row blocks in slab 0, the last one partial
        t, x, y = prob.sample_inputs(n, seed=21)
        got = net.eval(t, x, y)
        for r in range(n):
            one = slice(r, r + 1)
            np.testing.assert_array_equal(got[one], net.eval(t[one], x[one], y[one]))
        rev = slice(None, None, -1)
        np.testing.assert_array_equal(got[rev], net.eval(t[rev], x[rev], y[rev]))

    def test_zero_beyond_ghost_knots(self):
        # the ghost knots at -h and 1+h end the boundary hat ramps: states
        # past them get exactly np.interp's values, zero
        prob = cosine_problem(d_y=3)
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=0.05)
        interp = slab.interpolants
        net = interp.nets[0][0][0]
        h = net.grid.h
        lo, hi = net.grid.box[0]
        xu = np.array([-5.0, -2 * h, -h, -h * (1 - 1e-9), 1 + h * (1 - 1e-9), 1 + h, 1 + 3 * h, 7.0])
        knots = np.concatenate(([-h], np.arange(net.grid.q + 1) * h, [1 + h]))
        ref = np.interp(xu, knots, np.concatenate(([0.0], net.coeffs, [0.0])))
        got = net.eval(lo + xu[:, None] * (hi - lo))[:, 0]
        outside = (xu <= -h) | (xu >= 1 + h)
        np.testing.assert_array_equal(got[outside], ref[outside])
        assert np.all(got[outside] == 0.0)
        np.testing.assert_allclose(got[~outside], ref[~outside], rtol=0, atol=1e-12)
        # the fused sweep: every interpolant vanishes past the ghost knots
        Z = np.resize(lo + xu[outside] * (hi - lo), slab.q).reshape(1, -1, 1)
        V = interp.plan(np.ones((1, prob.d_y)))(Z)
        assert V.shape == Z.shape and np.all(V == 0.0)

    @pytest.mark.parametrize(
        "make_problem, tau, contracted",
        [
            (lambda: cosine_problem(d_y=3), 0.05, True),
            (lambda: cosine_problem(d_y=2), 0.2, False),
            (time_dependent_problem, 0.1, False),
        ],
        ids=["contracted", "shared_table", "per_cell"],
    )
    def test_knot_plan_matches_two_gathers(self, rng, make_problem, tau, contracted):
        # the s = 1 plan's lookup, bit for bit: gather a state's two knot
        # entries from its own row's table and lerp base + (next - base) * frac
        prob = make_problem()
        grid = tc.macro_grid(1.0, prob.convection.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=tau)
        interp = slab.interpolants
        ((_, tables, js, first),) = interp.groups
        assert first == contracted
        q, qg, h = slab.q, interp.grid.q, interp.grid.h
        lo, hi = interp.grid.box[0]
        # knots 0, h and 1, the ghost knots -h and 1+h, states beyond them,
        # whose cell is the top one, and interior states, spread over rows
        special = [0.0, h, 1.0, -h, 1 + h, -3 * h, 1 + 3 * h, -5.0, 7.0]
        n = 12
        xu = np.concatenate([special, rng.uniform(-0.2, 1.2, n * q - len(special))])
        Z = (lo + xu * (hi - lo)).reshape(n, q, 1)
        weights = rng.uniform(-1, 1, (n, prob.d_y)) * prob.convection.omega

        u = np.clip((Z[..., 0] - lo) / (hi - lo) / h, -1.0, qg + 1.0)
        cell = np.minimum(np.floor(u), qg)
        left = cell.astype(int) + 1
        frac = u - cell
        # the top cell's right end is the last entry of the state's table
        assert left.min() == 0 and left.max() + 1 == qg + 2 == tables.shape[1] - 1
        w = weights[:, js]
        if first:
            per_row = np.einsum("rk,k...->r...", w, tables)[..., 0]
            rows = np.arange(n)[:, None]
            base, nxt = per_row[rows, left], per_row[rows, left + 1]
            ref = base + (nxt - base) * frac
        else:
            table = np.broadcast_to(np.arange(q) if len(tables) > 1 else 0, (n, q))
            base, nxt = tables[table, left, 0], tables[table, left + 1, 0]
            vals = base + (nxt - base) * frac[..., None]
            ref = np.einsum("nqmk,nk->nqm", vals[:, :, None, :], w)[..., 0]

        plan = interp.plan(weights)
        plan(rng.uniform(lo, hi, Z.shape))  # the buffers keep nothing between sweeps
        np.testing.assert_array_equal(plan(Z)[..., 0], ref)

    def test_eval_memory_bounded(self):
        import json
        import tracemalloc
        from pathlib import Path

        cfg = Path(__file__).resolve().parent.parent / "configs" / "affine_m1_dy4.json"
        prob = tc.problem_from_dict(json.loads(cfg.read_text())["problem"])
        net = tc.build_char_net(prob, 0.1)
        peaks = []
        for n in (1000, 8000):
            t, x, y = prob.sample_inputs(n, seed=3)
            tracemalloc.start()
            try:
                net.eval(t, x, y)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 * 2**20


class TestRhoGateSize:
    @pytest.mark.parametrize("interval,q", [((0.0, 0.5), 7), ((0.3, 1.1), 12), ((0.0, 1.0), 1)])
    def test_analytic_count_matches_built_net(self, interval, q):
        from charflow.relu_net import rho_gate

        assert tc._rho_gate_size(interval, q) == rho_gate(interval, q).size()


class TestCharNetwork:
    def test_constant_parameter_field(self, rng):
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        net = tc.build_char_net(prob, 0.05)
        t, x, y = prob.sample_inputs(2000, seed=3)
        assert np.abs(net.eval(t, x, y) - (x + t[:, None] * y)).max() <= 0.05

    def test_affine_field_certified(self, rng):
        prob = cosine_problem(d_y=4)
        net = tc.build_char_net(prob, 0.1)
        t, x, y = prob.sample_inputs(2000, seed=4)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(2000), t, x, y,
            oracle.OdeConfig(steps=32, tol=1e-4),
        )
        assert np.abs(net.eval(t, x, y) - ref).max() <= 0.1

    def test_junction_telescoping(self, rng):
        prob = cosine_problem(d_y=2, freq=1.0)
        net = tc.build_char_net(prob, 0.1)
        sched, grid = net.sched, net.grid
        field = net.oracle_field()
        for k in range(grid.K):
            lo, hi = grid.slab(k)
            t = rng.uniform(lo, hi, 300)
            x = rng.uniform(0, 1, (300, 1))
            y = rng.uniform(-1, 1, (300, prob.d_y))
            ref, _ = oracle.rk4_char(
                field, np.zeros(300), t, x, y, oracle.OdeConfig(steps=32, tol=1e-5)
            )
            err = np.abs(net.eval(t, x, y) - ref).max()
            budget = 2 * (
                sched.eta
                + sum(sched.eta * math.exp((k - j) / 2) for j in range(k))
            )
            assert err <= budget

    def test_junction_exact_consistency(self, rng):
        # adjacent slabs agree exactly at junctions: the next slab's value
        # at its left edge is the frozen seed from the previous slab
        prob = cosine_problem(d_y=2)
        net = tc.build_char_net(prob, 0.1)
        x = rng.uniform(0, 1, (50, 1))
        y = rng.uniform(-1, 1, (50, 2))
        seeds = junction_values(net, x, y)
        for k in range(1, net.grid.K):
            lo = net.grid.slab(k)[0]
            vals = net.slabs[k].at_times(np.full(50, lo), seeds[k], y)
            np.testing.assert_array_equal(vals, seeds[k])

    @pytest.mark.parametrize("kind", ["char", "solution"])
    def test_refuses_queries_outside_domain(self, kind):
        if kind == "char":
            prob = cosine_problem(d_y=2)
            net = tc.build_char_net(prob, 0.1)
        else:
            prob = cosine_problem(d_y=2, f_spec={"kind": "constant", "value": 1.0})
            net = tc.build_solution_net(prob, 0.2)
        t, x, y = prob.sample_inputs(6, seed=3)
        t[:2] = 0.0, prob.T_hat  # the closed ends are inside
        net.eval(t, x, y)
        for arr, idx, value in [
            (t, 1, -1e-12),
            (t, 2, prob.T_hat + 1e-12),
            (t, 3, np.nan),
            (x, (4, 0), prob.domain[0, 1] + 1e-12),
            (x, (5, 0), prob.domain[0, 0] - 0.5),
            (y, (0, 1), 1.0 + 1e-12),
            (y, (1, 0), -2.0),
        ]:
            saved = arr[idx]
            arr[idx] = value
            with pytest.raises(ValueError, match="query refused"):
                net.eval(t, x, y)
            arr[idx] = saved

    def test_certificate_threshold_eps_uniform(self):
        # the stability threshold does not grow when eps shrinks
        prob = cosine_problem(d_y=2)
        certs = [
            tc.lipschitz_certificate(tc.build_char_net(prob, eps), n_samples=200, seed=1)
            for eps in (0.1, 0.025)
        ]
        assert certs[1]["xy_threshold"] == certs[0]["xy_threshold"]
        assert certs[1]["t_threshold"] <= certs[0]["t_threshold"]

    def test_backward_direction(self, rng):
        prob = cosine_problem(d_y=2)
        net = tc.build_char_net(prob, 0.1, direction="backward")
        t, x, y = prob.sample_inputs(500, seed=8)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(500), t, x, y,
            oracle.OdeConfig(steps=32, tol=1e-4),
        )
        assert np.abs(net.eval(t, x, y) - ref).max() <= 0.1

    def test_time_lipschitz_of_built_net(self, rng):
        prob = cosine_problem(d_y=4)
        net = tc.build_char_net(prob, 0.1)
        cert = tc.lipschitz_certificate(net, n_samples=3000, seed=5)
        conv = prob.convection
        assert cert["lip_t"] <= conv.A + conv.omega1 * net.sched.delta + 1e-9
        assert cert["pass_t"] and cert["pass_xy"]

    @pytest.mark.parametrize(
        "make_problem, eps",
        [(lambda: cosine_problem(d_y=2), 0.1), (cosine_problem_m2, 0.4)],
        ids=["affine_m1", "affine_m2"],
    )
    def test_time_sets_match_single_calls(self, rng, make_problem, eps):
        net = tc.build_char_net(make_problem(), eps)
        assert net.grid.K >= 2
        assert_time_sets_match_single_calls(net, rng)

    def test_certificate_matches_four_chain_reference(self):
        prob = cosine_problem(d_y=2, freq=1.0)
        net = tc.build_char_net(prob, 0.1)
        cert = tc.lipschitz_certificate(net, n_samples=300, seed=7)
        assert (cert["lip_xy"], cert["lip_t"]) == four_chain_lipschitz(net, 300, 7)

    def test_zero_field_certificate(self, rng):
        prob = zero_field_problem()
        net = tc.build_char_net(prob, 0.1)
        t, x, y = prob.sample_inputs(200, seed=2)
        np.testing.assert_allclose(net.eval(t, x, y), x, atol=1e-13)
        cert = tc.lipschitz_certificate(net, n_samples=1000, seed=2)
        assert cert["lip_t"] <= 1e-10
        assert cert["lip_xy"] <= 1.0 + 1e-9


class TestGeneralConvection:
    @staticmethod
    def make_general(L_t=0.0):
        m, d_y = 1, 2

        def evaluator(t, x, y):
            return 0.5 * (y[:, :1] * np.cos(x) + y[:, 1:2] * np.sin(x))

        gf = cc.GrowthFunction("exp", 1.0, 0.2)

        def rep_builder(interval, N):
            gen = cc.GenericFactor(
                lambda z: np.hstack([0.5 * np.cos(z[:, :1]), 0.5 * np.sin(z[:, :1])]),
                in_dim=1, out_dim=2, lip=0.5, sup=0.5,
                dep_sets=[(0,), (0,)], box=[[-1.6, 2.6]],
            )
            par = cc.ParallelFactor([gen, cc.IdentityFactor(d_y)], split_input=True)
            bil = cc.MultilinearFactor(
                lambda v: v[:, :1] * v[:, 2:3] + v[:, 1:2] * v[:, 3:4],
                in_dim=4, out_dim=1, lip=1.5, sup=1.0,
            )
            return cc.CompRep([par, bil])

        return tc.GeneralConvection(
            m, d_y, evaluator, A=1.0, L=1.5, a_norm=1.5, gf=gf,
            rep_builder=rep_builder, L_t=L_t,
        )

    def test_builder_contract(self):
        conv = self.make_general()
        out = check_builder(
            conv, (0.0, 0.3), 20, np.array([[-1.6, 2.6], [-1, 1], [-1, 1]])
        )
        assert out["ok"]

    def test_general_char_build(self, rng):
        conv = self.make_general()
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        net = tc.build_char_net(prob, 0.2)
        t, x, y = prob.sample_inputs(300, seed=9)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(300), t, x, y,
            oracle.OdeConfig(steps=32, tol=1e-4),
        )
        assert np.abs(net.eval(t, x, y) - ref).max() <= 0.2
        cert = tc.lipschitz_certificate(net, n_samples=500, seed=1)
        assert cert["pessimistic"]

    def test_time_sets_match_single_calls(self, rng):
        prob = tc.TransportProblem(self.make_general(), 1.0, [[0.0, 1.0]])
        assert_time_sets_match_single_calls(tc.build_char_net(prob, 0.2), rng)

    def test_cell_nets_see_whole_row_blocks(self, rng):
        # a time-dependent field has one implanted net per quadrature cell;
        # its row blocks are sized by one net's evaluation, not by all q
        # states of a row, so 200 rows take one block: mu * q evaluations
        conv = self.make_general(L_t=0.5)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        grid = tc.macro_grid(1.0, conv.norm)
        slab = tc.build_slab_net(prob, grid.slab(0), tau=0.05, mu=2)
        assert not slab._shared and len(slab._nets) == slab.q
        calls = []
        for net in slab._nets:
            net.eval = lambda x, f=net.eval: calls.append(len(x)) or f(x)
        n = 200
        w = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, 2))
        slab.at_times(rng.uniform(*grid.slab(0), n), w, y)
        assert calls == [n] * (slab.mu * slab.q)

    def test_normalization_rejected(self):
        with pytest.raises(ValueError):
            tc.GeneralConvection(
                1, 1, lambda t, x, y: x, A=0.5, L=0.4, a_norm=0.3,
                gf=cc.GrowthFunction("alg", 1, 1), rep_builder=None,
            )


class TestPredictedComplexity:
    def test_affine_arithmetic(self):
        prob = cosine_problem(d_y=4)
        prob.convection.L = 1.0  # match the stated example: L = 1
        val = tc.predicted_complexity(prob, 0.1, "char")
        ratio = math.exp(1.0) / 0.1
        expect = 4 * 1 * 1 * 1 * ratio**2 * math.log2(ratio) ** 2
        assert val == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(6.70e4, rel=2e-2)

    def test_dy_doubling_exact(self):
        p2 = cosine_problem(d_y=2)
        p4 = cosine_problem(d_y=4)
        # identical A, L by the omega = 1/d_y normalization
        assert tc.predicted_complexity(p4, 0.05, "char") == pytest.approx(
            2 * tc.predicted_complexity(p2, 0.05, "char")
        )

    def test_solution_beta(self):
        assert tc.solution_beta(1, 2.0) == 1.0
        assert tc.solution_beta(1, 0.5) == 4.0


class TestSolutionNetwork:
    def test_zero_source_constant_field(self, rng):
        comps = [
            catalog.make_component({"kind": "constant", "value": 1.0}),
            catalog.make_component({"kind": "constant", "value": -1.0}),
        ]
        conv = tc.AffineConvection(1, 2, [0.5, 0.5], comps)
        u0 = catalog.make_u0({"kind": "hat", "center": 0.5, "width": 1.0})
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]], u0=u0)
        net = tc.build_solution_net(prob, 0.1)
        t, x, y = prob.sample_inputs(400, seed=11)
        _, u_fn = oracle.exact_const(prob)
        assert np.abs(net.eval(t, x, y) - u_fn(t, x, y)).max() <= 0.1

    def test_pure_source(self, rng):
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(
            conv, 1.0, [[0.0, 1.0]], f=catalog.make_f({"kind": "constant", "value": 1.0})
        )
        net = tc.build_solution_net(prob, 0.1)
        t, x, y = prob.sample_inputs(300, seed=12)
        assert np.abs(net.eval(t, x, y) - t).max() <= 0.1

    def test_source_sign_flag(self, rng):
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(
            conv, 1.0, [[0.0, 1.0]], f=catalog.make_f({"kind": "constant", "value": 1.0})
        )
        plus = tc.build_solution_net(prob, 0.1, source_sign=1.0)
        minus = tc.build_solution_net(prob, 0.1, source_sign=-1.0)
        t, x, y = prob.sample_inputs(100, seed=13)
        u0p, fp = plus.eval_parts(t, x, y)
        np.testing.assert_allclose(plus.eval(t, x, y), u0p + fp, atol=1e-14)
        np.testing.assert_allclose(minus.eval(t, x, y), u0p - fp, atol=1e-14)

    def test_shared_chain_matches_per_node_reference(self):
        prob = cosine_problem(
            d_y=2,
            u0_spec={"kind": "hat", "center": 0.5, "width": 1.0},
            f_spec={"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25},
        )
        net = tc.build_solution_net(prob, 0.2)
        assert net.q_src > 1 and net.back_net.grid.K > 1
        t, x, y = prob.sample_inputs(40, seed=14)
        got = net.eval_parts(t, x, y)
        ref = per_node_eval_parts(net, t, x, y)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])

    def test_report_carries_budget(self):
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        u0 = catalog.make_u0({"kind": "hat", "center": 0.5, "width": 1.0})
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]], u0=u0)
        net = tc.build_solution_net(prob, 0.2)
        assert net.report["certified_bound"] <= 0.2
        assert net.report["size"] > 0 and net.report["depth"] > 0


class TestProblemFiles:
    def test_roundtrip(self, tmp_path):
        doc = {
            "field": {
                "type": "affine",
                "m": 1,
                "d_y": 2,
                "omega": [0.5, 0.5],
                "components": [
                    {"kind": "constant", "value": 1.0},
                    {"kind": "constant", "value": -1.0},
                ],
            },
            "u0": {"kind": "hat", "center": 0.5, "width": 1.0},
            "f": None,
            "T_hat": 1.0,
            "domain": [[0.0, 1.0]],
        }
        path = tmp_path / "prob.json"
        import json

        path.write_text(json.dumps(doc))
        prob = tc.problem_from_dict(json.loads(path.read_text()))
        assert prob.d_y == 2 and prob.convection.A == 1.0

    @pytest.mark.parametrize("T_hat", [1.0, 2.0])
    def test_ramp_t_sup_holds_on_horizon(self, T_hat):
        doc = {
            "field": {"d_y": 1, "components": [{"kind": "constant", "value": 1.0}]},
            "f": {"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25},
            "T_hat": T_hat,
        }
        prob = tc.problem_from_dict(doc)
        rng = np.random.default_rng(0)
        t = np.concatenate([rng.uniform(0.0, T_hat, 2000), [T_hat]])
        box = prob.eval_box
        x = rng.uniform(box[:, 0], box[:, 1], (len(t), 1))
        assert np.abs(prob.f_values(t, x)).max() <= prob.f.sup
        if T_hat == 1.0:
            assert prob.f.sup == 1.0  # unchanged where the old bound held
