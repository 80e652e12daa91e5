import json
import math
from pathlib import Path

import numpy as np
import pytest

import reference
from charflow import budget, catalog, oracle
from charflow import comp_calculus as cc
from charflow import transport_core as tc
from charflow.relu_net import difference_quotient


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


def cosine_problem_m2(u0_spec=None, f_spec=None):
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}, m=2
        )
        for j in range(2)
    ]
    conv = tc.AffineConvection(2, 2, [0.5, 0.5], comps)
    u0 = catalog.make_u0(u0_spec) if u0_spec else None
    f = catalog.make_f(f_spec) if f_spec else None
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0], [0.0, 1.0]], u0=u0, f=f)


def mixed_sup_problem_m2():
    """m = 2 cosine components of amplitudes 1 and 4, whose sups alone
    would pick different sawtooth depths."""
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": amp, "freq": 0.2, "phase": 0.7 * j}, m=2
        )
        for j, amp in enumerate((1.0, 4.0))
    ]
    conv = tc.AffineConvection(2, 2, [0.5, 0.125], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0], [0.0, 1.0]])


def cosine_problem_m3():
    """m = 3: eight cell corners, and an odd last factor that the product
    tree passes through a level."""
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}, m=3
        )
        for j in range(2)
    ]
    conv = tc.AffineConvection(3, 2, [0.5, 0.5], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]] * 3)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_problem(stem):
    """The problem of configs/<stem>.json."""
    cfg = CONFIGS / f"{stem}.json"
    return tc.problem_from_dict(json.loads(cfg.read_text())["problem"])


def build_slab_net(problem, interval, tau, mu=1):
    """One-step map with certified |Phi - net| <= tau on the slab.

    A single slab of the problem's net kind, for single-application
    studies: the one-step terms solved for tau, as a char net's slabs
    solve them for the schedule's tau.
    """
    conv = problem.convection
    slab_class = tc._slab_class(conv)
    sl = interval[1] - interval[0]
    step = budget._solve_step(problem, sl, tau, mu, f"slab for tau={tau}", slab_class.budget)
    sched = budget.Schedule(tau, tau, 1, sl, tau, mu, tau, **step)
    return slab_class.chain(conv, [interval], sched, problem.eval_box)[0]


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


def time_dependent_problem_m2():
    """m = 2 affine field that moves in t: per-cell tables, each state
    reading its cell's table."""
    comps = [
        catalog.FieldComponent(
            lambda t, x, ph=ph: np.cos(0.2 * x + ph + 0.2 * np.asarray(t)[:, None]),
            m=2, sup=1.0, lip_x=0.2, lip_t=0.2, time_independent=False,
        )
        for ph in (0.0, 0.7)
    ]
    conv = tc.AffineConvection(2, 2, [0.5, 0.5], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0], [0.0, 1.0]])


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
    junctions = reference.junctions(grid)
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
    """Reference: one backward chain for t and one per active source node,
    with one source net per node, each built on its own by
    lip_stable_net; their tables are the network's source stack."""
    prob, tol = net.problem, net.report["eps_tilde"]
    grid = tc.lip_interp.GridSpec.for_tolerance(prob.eval_box, prob.f.lip_x, tol)
    f_nets = []
    for i, xi in enumerate(net.xi):
        sf = tc.lip_interp.SampledFunction.from_function(
            lambda pts: prob.f.f(np.full(len(pts), xi), pts), grid, prob.f.lip_x, prob.f.sup
        )
        f_net = tc.lip_interp.lip_stable_net(sf, tol)[0]
        size = f_net.values.size
        np.testing.assert_array_equal(
            net.sources.values[0, i * size : (i + 1) * size], f_net.values.ravel()
        )
        f_nets.append(f_net)
    foot = net.back_net.eval(t, x, y)
    u0_part = net.u0_net.eval(foot)[:, 0]
    rho = tc.rho_values((0.0, net.problem.T_hat), net.q_src, t)
    f_part = np.zeros(len(t))
    for i, f_net in enumerate(f_nets):
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


def two_chain_lipschitz(net, n_samples, seed):
    """Reference (lip_xy, lip_t) in two junction chains: (x, y) at
    {t, t2}, then (x2, y2) at t, the samples of lipschitz_certificate."""
    problem = net.problem
    rng = np.random.default_rng(seed)
    t, x, y = problem.sample_inputs(n_samples, seed)
    dx = rng.uniform(-1, 1, size=(n_samples, problem.m + problem.d_y))
    dx *= 1e-4 / np.maximum(np.abs(dx).max(axis=1, keepdims=True), 1e-300)
    x2 = np.clip(x + dx[:, : problem.m], problem.domain[:, 0], problem.domain[:, 1])
    y2 = np.clip(y + dx[:, problem.m :], -1.0, 1.0)
    t2 = np.clip(t + rng.uniform(-1e-4, 1e-4, size=n_samples), 0.0, problem.T_hat)
    z, z_t2 = net.eval(np.stack([t, t2]), x, y)
    lip_xy = difference_quotient(np.hstack([x, y]), np.hstack([x2, y2]), z, net.eval(t, x2, y2))
    lip_t = difference_quotient(t[:, None], t2[:, None], z, z_t2)
    return lip_xy, lip_t


def at_times(slab, t, w, y):
    """Slab values at query times ``t`` (n,) from seeds ``w`` (n, m).

    No row carries on, so each sweeps only the cells up to its time.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    n = w.shape[0]
    ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    return slab.eval_with_junction(t, w, y, ones, zeros)[0]


def junction(slab, w, y):
    """Seeds of the next slab: the slab's values at its right end."""
    w = np.atleast_2d(np.asarray(w, dtype=float))
    n = w.shape[0]
    ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    return slab.eval_with_junction(np.zeros(n), w, y, zeros, ones)[1]


def junction_values(net, x, y):
    """Seeds entering each slab of a char net, shape (K+1, n, m)."""
    w = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    ws = [w]
    for slab in net.slabs:
        w = junction(slab, w, y)
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


def full_sweep_eval(net, t, x, y):
    """Reference for ``net.eval`` in which every slab carries every row on,
    so each row sweeps all q cells of all K slabs."""
    t = np.asarray(t, dtype=float)
    times = t if t.ndim > 1 else t[None]
    k_idx = np.clip(
        np.floor(times / net.grid.slab_length).astype(int), 0, net.grid.K - 1
    )
    out = np.empty(times.shape + (x.shape[1],))
    w, carry = x, np.ones(x.shape[0], dtype=bool)
    for k, slab in enumerate(net.slabs):
        mask = k_idx == k
        out[mask], w = slab.eval_with_junction(times, w, y, mask, carry)
    return out if t.ndim > 1 else out[0]


def slab_nets(slab):
    """Reference: a slab's interpolants built one net at a time, nets[j][i][c]
    for output c of component j averaged over subinterval i, each from
    its own column of the average sampled on the slab's grid.  Each is
    built at the slab's one sawtooth depth, that of its largest
    component sup."""
    grid, sup = slab.grid, slab.conv.A_circ
    nets = []
    for comp in slab.conv.components:
        per_i = []
        for sub in slab.subintervals:
            avg = comp.slab_average(sub)
            per_c = []
            for c in range(slab.conv.m):
                sf = tc.lip_interp.SampledFunction.from_function(
                    lambda pts: avg(pts)[:, c], grid, comp.lip_x, sup
                )
                per_c.append(tc.lip_interp.lip_stable_net(sf, slab.delta)[0])
            per_i.append(per_c)
        nets.append(per_i)
    return nets


def naive_slab_eval(slab, t, w, y):
    """Per-sample reference for an affine slab's arithmetic."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    w = np.atleast_2d(np.asarray(w, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    conv, q = slab.conv, slab.q
    all_nets = slab_nets(slab)
    out = np.empty_like(w)
    for r in range(w.shape[0]):
        Z = [w[r].copy() for _ in range(q)]
        for sweep in range(slab.mu):
            vals = []
            for i in range(q):
                acc = np.zeros(conv.m)
                for j in range(conv.d_y):
                    nets = all_nets[j][0 if slab._shared else i]
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
        g = tc.MacroGrid(1.0, 1.0)
        assert g.interval_length == 0.5 and g.K == 2

    def test_fractional(self):
        g = tc.MacroGrid(2.0, 3.0)
        assert g.interval_length == pytest.approx(1 / 6) and g.K == 12

    def test_single_slab(self):
        assert tc.MacroGrid(0.5, 1.0).K == 1

    def test_slabs_cover_horizon(self):
        g = tc.MacroGrid(1.3, 2.0)
        assert g.K * g.slab_length == pytest.approx(1.3)
        assert g.slab_length <= g.interval_length + 1e-15


def constant_problem():
    """A = L = 1: two slabs of length 1/2 on [0, 1]."""
    comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
    conv = tc.AffineConvection(1, 1, [1.0], comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])


def term(terms, name):
    """The term ``name`` of a budget: (name, share, parameter, solve, bound)."""
    return next(t for t in terms if t[0] == name)


class TestSchedule:
    def test_eta_example(self):
        # the sweeps' half of eps = 0.2, telescoped over K = 2 slabs
        prob = constant_problem()
        sched = budget.schedule(0.2, tc.MacroGrid(1.0, 1.0), prob, budget.AFFINE)
        assert sched.K == 2
        assert sched.eta == pytest.approx((math.exp(0.5) - 1) * 0.1 * math.exp(-1))

    def test_mu_example(self):
        _, share, param, solve, bound = term(budget.AFFINE_TERMS, "sweep contraction")
        assert (share, param) == (0.5, "mu")
        conv = constant_problem().convection
        assert solve(1 / 8, conv, 0.5) == 2
        assert bound(budget.Schedule(0.2, 0.1, 2, 0.5, 1 / 8, 2, 1 / 8, 1, 1.0), conv) == 1 / 8

    def test_tau_and_q_example(self):
        prob = constant_problem()
        sched = budget.schedule(0.2, tc.MacroGrid(1.0, 1.0), prob, budget.AFFINE)
        assert sched.tau == pytest.approx(math.exp(-0.5) * sched.eta)
        # the quadrature term's share, 1/4 of eps, is half of tau
        _, share, param, solve, bound = term(budget.AFFINE_TERMS, "quadrature")
        assert (share, param) == (0.25, "q")
        assert solve(sched.tau / 2, prob.convection, 0.5) == 70 == sched.q
        assert bound(sched, prob.convection) <= sched.tau / 2

    def test_schedule_certifies_internal_half(self):
        prob = cosine_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        sched = budget.schedule(0.1, grid, prob, budget.AFFINE)
        assert sched.eps_internal == 0.05
        assert sched.q >= 1 and sched.mu >= 1
        assert sched.delta < 1

    def test_resource_refusal(self):
        prob = cosine_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        with pytest.raises(tc.ResourceCeiling) as exc:
            budget.schedule(1e-7, grid, prob, budget.AFFINE)
        assert exc.value.predicted_cost > 0

    def test_slab_build_obeys_ceilings(self):
        # a constant field needs one grid cell, but tau = 1e-6 on a slab
        # of length 1/3 needs q = 666667 quadrature nodes
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], comps)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        with pytest.raises(tc.ResourceCeiling, match="q=666667, grid knots=1"):
            build_slab_net(prob, (0.0, 1.0 / 3.0), tau=1e-6)


def halved_quadrature(terms):
    """``terms`` with the quadrature term solved for half its q."""
    return tuple(
        (name, share, param, (lambda b, conv, sl, f=solve: f(b, conv, sl) // 2), bound)
        if name == "quadrature"
        else (name, share, param, solve, bound)
        for name, share, param, solve, bound in terms
    )


class TestLedger:
    @staticmethod
    def assert_ledger(report, names, eps):
        ledger = report["ledger"]
        assert list(ledger) == names
        assert all(type(v) is float and v >= 0.0 for v in ledger.values())
        assert sum(ledger.values()) <= eps
        json.dumps(report)

    @pytest.mark.parametrize("stem", ["affine_m1_dy4", "cosine_m2_dy2", "solution_affine"])
    def test_within_eps_on_every_rung(self, stem):
        cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
        prob = config_problem(stem)
        char_names = [t[0] for t in budget.AFFINE_TERMS]
        for eps in cfg["eps_ladder"]:
            if cfg["kind"] == "char":
                self.assert_ledger(tc.build_char_net(prob, eps).report, char_names, eps)
                continue
            net = tc.build_solution_net(prob, eps)
            self.assert_ledger(net.report, [t[0] for t in budget.SOLUTION_TERMS], eps)
            assert net.report["certified_bound"] == sum(net.report["ledger"].values())
            self.assert_ledger(net.report["char_report"], char_names, net.report["eps_tilde"])

    @pytest.mark.parametrize("terms", ["AFFINE_TERMS", "GENERAL_TERMS"])
    def test_shares_sum_to_one(self, terms):
        assert sum(share for _, share, *_ in getattr(budget, terms)) == 1.0

    @pytest.mark.parametrize("make_problem", [cosine_problem, cosine_problem_m2], ids=["m1", "m2"])
    def test_coarse_eps_builds(self, make_problem):
        # eps = 10 gives delta > 1/2: the grid is sized at delta, which
        # lip_stable_net certifies like any other tolerance
        prob = make_problem()
        net = tc.build_char_net(prob, 10.0)
        assert net.report["delta"] > 0.5
        self.assert_ledger(net.report, [t[0] for t in budget.AFFINE_TERMS], 10.0)
        t, x, y = prob.sample_inputs(200, seed=4)
        ref, _ = oracle.rk4_char(net.oracle_field(), np.zeros(len(t)), t, x, y)
        assert np.abs(net.eval(t, x, y) - ref).max() <= 10.0

    def test_general_within_eps(self):
        # the representation term is charged too
        prob = tc.TransportProblem(TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]])
        report = tc.build_char_net(prob, 0.2).report
        self.assert_ledger(report, [t[0] for t in budget.GENERAL_TERMS], 0.2)
        assert report["ledger"]["representation"] > 0.0

    def test_half_quadrature_refused(self, monkeypatch):
        halved = budget.AFFINE._replace(terms=halved_quadrature(budget.AFFINE_TERMS))
        monkeypatch.setattr(tc.AffineSlabNet, "budget", halved)
        with pytest.raises(tc.ResourceCeiling, match="characteristic bound"):
            tc.build_char_net(config_problem("affine_m1_dy4"), 0.1)
        # the solution's backward net
        with pytest.raises(tc.ResourceCeiling, match="characteristic bound"):
            tc.build_solution_net(config_problem("solution_affine"), 0.1)

    def test_solution_ledger_refused(self, monkeypatch):
        # one source node leaves the quadrature term alone above eps
        terms = [
            (name, (lambda e, p: 1) if solve else None, bound)
            for name, solve, bound in budget.SOLUTION_TERMS
        ]
        monkeypatch.setattr(budget, "SOLUTION_TERMS", tuple(terms))
        with pytest.raises(tc.ResourceCeiling, match="solution bound"):
            tc.build_solution_net(config_problem("solution_affine"), 0.1)


class TestPicardNumeric:
    def test_constant_field_one_sweep_exact(self):
        field = lambda t, x, y: np.full_like(x, 0.7)
        at = reference.picard_numeric(field, (0.0, 0.4), np.array([[0.2]]), None, 1)
        assert at(0.3)[0, 0] == pytest.approx(0.2 + 0.3 * 0.7, abs=1e-12)

    def test_zero_sweeps_identity(self):
        field = lambda t, x, y: np.ones_like(x)
        at = reference.picard_numeric(field, (0.0, 0.5), np.array([[0.3]]), None, 0)
        assert at(0.5)[0, 0] == 0.3

    def test_error_halves_per_sweep(self, rng):
        comp = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})
        conv = tc.AffineConvection(1, 1, [1.0], [comp])
        grid = tc.MacroGrid(1.0, conv.norm)
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
            at = reference.picard_numeric(field, interval, x, y, k, time_grid=2048)
            assert np.abs(at(t) - zr).max() <= 2.0 ** (-k - 1)


class TestSlabNet:
    def test_zero_field_identity(self, rng):
        prob = zero_field_problem()
        slab = build_slab_net(prob, (0.0, 0.5), tau=0.01)
        t = rng.uniform(0, 0.5, 20)
        w = rng.uniform(0, 1, (20, 1))
        y = rng.uniform(-1, 1, (20, 1))
        np.testing.assert_allclose(at_times(slab, t, w, y), w, atol=1e-14)

    def test_constant_in_x_field_quadrature_exact(self, rng):
        # constant components: only the implantation term remains, and the
        # interpolant of a constant is exact
        comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
        conv = tc.AffineConvection(1, 1, [1.0], [comp for comp in comps])
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        slab = build_slab_net(prob, (0.0, 0.5), tau=0.01)
        t = rng.uniform(0, 0.5, 50)
        w = rng.uniform(0, 1, (50, 1))
        y = rng.uniform(-1, 1, (50, 1))
        expect = w + t[:, None] * y
        bound = conv.omega1 * 0.5 * slab.delta
        assert np.abs(at_times(slab, t, w, y) - expect).max() <= max(bound, 1e-12)

    def test_one_step_error_vs_fine_reference(self, rng):
        comp = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})
        conv = tc.AffineConvection(1, 1, [1.0], [comp])
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        grid = tc.MacroGrid(1.0, conv.norm)
        interval = grid.slab(0)
        tau = 0.01
        slab = build_slab_net(prob, interval, tau)
        field = lambda t, x, y: conv.eval(t, x, y)
        n = 1000
        w = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, 1))
        t = rng.uniform(interval[0], interval[1], n)
        phi = reference.picard_numeric(field, interval, w, y, 1, time_grid=4096)
        assert np.abs(at_times(slab, t, w, y) - phi(t)).max() <= tau

    def test_one_step_bound_formula(self):
        prob = cosine_problem(d_y=2)
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=0.02)
        # the one-step terms at the slab's q and delta: A |I| / q and
        # |omega|_1 |I| delta, a half of tau each
        sl = grid.slab_length
        sched = budget.Schedule(0.02, 0.02, 1, sl, 0.02, slab.mu, 0.02, slab.q, slab.delta)
        bounds = [bound(sched, prob.convection) for *_, bound in budget.AFFINE_TERMS[1:]]
        assert max(bounds) <= 0.01 + 1e-12
        assert sum(bounds) <= 0.02 + 1e-12

    def test_naive_reference_agreement(self, rng):
        prob = cosine_problem(d_y=2)
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=0.05, mu=3)
        t = np.concatenate([rng.uniform(*grid.slab(0), 4), edge_times(slab.interval, slab.q)])
        w = rng.uniform(0, 1, (len(t), 1))
        y = rng.uniform(-1, 1, (len(t), 2))
        np.testing.assert_allclose(
            at_times(slab, t, w, y), naive_slab_eval(slab, t, w, y), atol=1e-12
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
        slab = build_slab_net(prob, net.grid.slab(0), tau=sched.tau, mu=sched.mu)
        assert type(slab) is type(net.slabs[0])
        for built in net.slabs:
            assert (slab.q, slab.delta, slab.mu) == (built.q, built.delta, built.mu)
        # time-independent field: one representation per slab of the net,
        # then one for the single slab, all with the schedule's N
        assert (sched.N is not None) == general
        assert budgets == [sched.N] * (net.grid.K + 1 if general else 0)

    @pytest.mark.parametrize("f", ["midpoint", "end", "array"])
    def test_gate_in_place(self, rng, f):
        # ramp_gate(..., out=) is the one gate formula, computed in place:
        # it adds the increments in sweep units, or scaled by the grid
        # spacing to add them to x
        slab = build_slab_net(cosine_problem(d_y=2), (0.0, 0.5), tau=0.05)
        n, q = 7, slab.q
        if f == "midpoint":
            f, w, shape = 0.5, rng.uniform(0, 1, (n, 1, 1)), (n, q, 1)
        elif f == "end":
            f, w, shape = 1.0, rng.uniform(0, 1, (n, 1)), (n, 1)
        else:
            f, w, shape = rng.uniform(0, 1, (n, 1)), rng.uniform(0, 1, (n, 1)), (n, 1)
        V = rng.uniform(-1, 1, shape)
        S = rng.uniform(-1, 1, shape)
        want = tc.ramp_gate(w, V, S, f)
        np.testing.assert_array_equal(want, w + (S - (1.0 - f) * V))
        want_x = tc.ramp_gate(w, V, S, f, slab.unit)
        np.testing.assert_array_equal(want_x, w + slab.unit * (S - (1.0 - f) * V))
        out = np.empty(shape)
        assert tc.ramp_gate(w, V, S, f, out=out) is out
        np.testing.assert_array_equal(out, want)
        tc.ramp_gate(w, V, S, f, slab.unit, out=V)
        np.testing.assert_array_equal(V, want_x)

    def test_contraction_of_sweeps(self, rng):
        # two sweeps from distinct quadrature-state seeds contract by >= 2
        prob = cosine_problem(d_y=1)
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=0.01)
        # in the slab's sweep units and cell-major (m, q, n) layout, as
        # the sweeps run
        u = slab._states(rng.uniform(0, 1, (30, 1))).T[:, None, :]
        y = rng.uniform(-1, 1, (30, 1))
        q = slab.q
        za, zb = (
            slab._states(rng.uniform(-0.5, 1.5, (30 * q, 1))).reshape(30, q).T[None]
            for _ in range(2)
        )

        plan = slab._sweep_plan(y, tc.SweepWork())

        def sweep(Z):
            V = plan(Z)
            return u + (np.cumsum(V, axis=1) - 0.5 * V)

        num = np.abs(sweep(za) - sweep(zb)).max(axis=(0, 1))
        den = np.abs(za - zb).max(axis=(0, 1))
        assert (num / den).max() <= 0.5 + 1e-9


def assert_bits_equal(a, b):
    """Equal bit patterns: tells -0 from +0 and compares NaN payloads."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


class TestRunningSums:
    """running_sums pairs two rows per complex lane; each row's sums are
    np.cumsum's, bit for bit."""

    @pytest.mark.parametrize("shape", [(1, 50, 8), (2, 30, 7), (1, 9, 1), (3, 1, 5), (40, 6)])
    def test_matches_cumsum(self, rng, shape):
        # even and odd row counts, one row, one cell, and the (cells, rows)
        # source sums of a solution net
        V = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        assert_bits_equal(tc.running_sums(V, np.empty_like(V)), np.cumsum(V, axis=-2))

    def test_special_values(self, rng):
        V = rng.standard_normal((2, 40, 9))
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        V.flat[rng.choice(V.size, 200, replace=False)] = rng.choice(special, 200)
        V[:, :, 3] = -0.0  # a row of negative zeros keeps its sign
        V[0, :, 8] = np.inf  # the odd last row
        V[1, 0, 8] = np.nan
        with np.errstate(invalid="ignore"):  # inf - inf
            got = tc.running_sums(V, np.empty_like(V))
            want = np.cumsum(V, axis=1)
        assert_bits_equal(got, want)
        assert np.all(np.signbit(got[:, :, 3]))

    @pytest.mark.parametrize("n", [6, 7])
    def test_broadcast_first_sweep(self, rng, n):
        # a shared slab's first sweep looks up one seed per row and
        # broadcasts it along the cells: the lanes read that view as it is
        prob = cosine_problem(d_y=2)
        slab = build_slab_net(prob, (0.0, 0.5), tau=0.05)
        assert slab._shared
        u = slab._states(rng.uniform(0, 1, (n, 1)))
        plan = slab._sweep_plan(rng.uniform(-1, 1, (n, prob.d_y)), tc.SweepWork())
        V = np.broadcast_to(plan(u.T[:, None, :]), (1, slab.q, n))
        assert V.strides[1] == 0
        assert_bits_equal(tc.running_sums(V, np.empty(V.shape)), np.cumsum(V, axis=1))

    @pytest.mark.parametrize(
        "make_problem, tau", [(lambda: cosine_problem(d_y=3), 0.05), (cosine_problem_m2, 0.2)],
        ids=["s1", "s2"],
    )
    def test_forward_odd_rows(self, rng, make_problem, tau):
        # an odd row count: the last row's sums are its own cumsum
        prob = make_problem()
        slab = build_slab_net(prob, (0.0, 0.25), tau=tau, mu=2)
        n = 7
        w = rng.uniform(prob.domain[:, 0], prob.domain[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        V, S = slab._forward(slab._states(w), y, slab.q, tc.SweepWork())
        assert V.shape == (prob.m, slab.q, n)
        assert_bits_equal(S, np.cumsum(V, axis=1))


class TestFusedSweep:
    """One sweep evaluates all interpolants of a slab from stacked tables."""

    # the s = 1 shared slab, whose tables are contracted with the row
    # weights before the lookup, is TestSlabNet.test_naive_reference_agreement
    @pytest.mark.parametrize(
        "make_problem, tau",
        [
            (cosine_problem_m2, 0.2),
            (time_dependent_problem, 0.1),
            (constant_problem_m2, 0.2),
            (cosine_problem_m3, 0.2),
            (time_dependent_problem_m2, 0.2),
            (mixed_sup_problem_m2, 0.2),
        ],
        ids=["s2_shared", "s1_per_cell", "s2_one_cell", "s3_shared", "s2_per_cell", "s2_mixed_sups"],
    )
    def test_naive_reference_agreement(self, rng, make_problem, tau):
        prob = make_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(1), tau=tau, mu=2)
        assert slab._shared == prob.convection.time_independent()
        # one table set of every component's outputs, weighted after the lookup
        assert not slab.contract
        assert slab.net.values.shape[0] == prob.d_y * prob.m
        t = np.concatenate([rng.uniform(*grid.slab(1), 3), edge_times(slab.interval, slab.q)])
        n = len(t)
        w = rng.uniform(prob.eval_box[:, 0], prob.eval_box[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        np.testing.assert_allclose(
            at_times(slab, t, w, y), naive_slab_eval(slab, t, w, y), rtol=0, atol=1e-12
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
            (cosine_problem_m3, 0.6),
            (time_dependent_problem_m2, 0.6),
        ],
        ids=["s1_shared", "s2_shared", "s1_per_cell", "general_shared", "s3_shared", "s2_per_cell"],
    )
    def test_rows_independent_of_blocks(self, make_problem, eps):
        prob = make_problem()
        net = tc.build_char_net(prob, eps)
        slab = net.slabs[0]
        step = slab.block_rows()
        n = 2 * step + 3  # three row blocks in slab 0, the last one partial
        t, x, y = prob.sample_inputs(n, seed=21)
        # rows that end in slab 0 at different cells: the first block
        # sweeps further than most of its rows read
        t[:step] = np.linspace(*net.grid.slab(0), step, endpoint=False)
        got = net.eval(t, x, y)
        for r in range(n):
            one = slice(r, r + 1)
            np.testing.assert_array_equal(got[one], net.eval(t[one], x[one], y[one]))
        rev = slice(None, None, -1)
        np.testing.assert_array_equal(got[rev], net.eval(t[rev], x[rev], y[rev]))
        # blocks of an odd number of rows, whose last row takes its own
        # running sums
        for s in net.slabs:
            s.block_rows = lambda: 5
        np.testing.assert_array_equal(got, net.eval(t, x, y))

    def test_mixed_sups_one_depth(self):
        # components whose sups alone pick different sawtooth depths are
        # built and counted at the deeper one, that of the largest sup
        prob, eps = mixed_sup_problem_m2(), 0.4
        net = tc.build_char_net(prob, eps)
        delta = min(net.report["delta"], 1.0)
        depths = [
            tc.lip_interp.product_depth_param(2, delta * tc.lip_interp.c_star(2, comp.sup))
            for comp in prob.convection.components
        ]
        assert depths[0] < depths[1]
        for slab in net.slabs:
            assert slab.net is net.slabs[0].net
            assert slab.net.sawtooth_depth == depths[1]
            sizes = tc.lip_interp.table_sizes(
                slab.grid, reference.coefficients(slab.net), depths[1]
            )
            assert slab.net_size == sizes.sum()
        assert (net.report["size"], net.report["depth"]) == (4145725770125, 726)
        t, x, y = prob.sample_inputs(300, seed=0)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(len(t)), t, x, y,
            oracle.OdeConfig(steps=32, tol=eps / 100.0),
        )
        assert np.abs(net.eval(t, x, y) - ref).max() <= eps

    def test_zero_beyond_ghost_knots(self):
        # the ghost knots at -h and 1+h end the boundary hat ramps: states
        # past them get exactly np.interp's values, zero
        prob = cosine_problem(d_y=3)
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=0.05)
        # entry 0 of the slab's table 0: component 0, subinterval 0, output 0
        net = slab.net
        h = net.grid.h
        lo, hi = net.grid.box[0]
        xu = np.array([-5.0, -2 * h, -h, -h * (1 - 1e-9), 1 + h * (1 - 1e-9), 1 + h, 1 + 3 * h, 7.0])
        knots = np.concatenate(([-h], np.arange(net.grid.q + 1) * h, [1 + h]))
        ref = np.interp(xu, knots, np.concatenate(([0.0], reference.coefficients(net)[0, 0], [0.0])))
        got = net.eval(lo + xu[:, None] * (hi - lo))[:, 0]
        outside = (xu <= -h) | (xu >= 1 + h)
        np.testing.assert_array_equal(got[outside], ref[outside])
        assert np.all(got[outside] == 0.0)
        np.testing.assert_allclose(got[~outside], ref[~outside], rtol=0, atol=1e-12)
        # the fused sweep: every interpolant vanishes past the ghost knots
        Z = slab.grid.to_grid(np.resize(lo + xu[outside] * (hi - lo), slab.q))
        Z = Z.reshape(1, -1, 1)
        V = slab._sweep_plan(np.ones((1, prob.d_y)), tc.SweepWork())(Z)
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
        # entries from its own row's table and lerp base + (next - base) * frac,
        # with weights omega_j y_j * cell / spacing, in grid units
        prob = make_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=tau)
        assert slab.contract == contracted
        q, qg = slab.q, slab.grid.q
        # (d_y, L, table size): component j's table of each subinterval
        tables = slab.net.values.reshape(prob.d_y, -1, qg + 3)
        # knots 0, 1 and qg, the ghost knots -1 and qg + 1, states beyond
        # them, interior states spread over rows, and last the top state
        # qg + 1 in the last row, whose table is the last one stacked
        special = [0.0, 1.0, qg, -1.0, qg + 1.0, -3.0, qg + 3.0, -5.0 * qg, 7.0 * qg]
        n = 12
        inner = rng.uniform(-0.2 * qg, 1.2 * qg, n * q - len(special) - 1)
        Z = np.concatenate([special, inner, [qg + 1.0]]).reshape(n, q, 1)
        y = rng.uniform(-1, 1, (n, prob.d_y))
        weights = y * prob.convection.omega

        u = np.clip(Z[..., 0], -1.0, qg + 1.0)
        cell = np.floor(u)
        left = cell.astype(int) + 1
        frac = u - cell
        # the top state reads its table's last entry, the ghost zero
        assert left.min() == 0 and left.max() == qg + 2 == tables.shape[2] - 1
        assert left[-1, -1] == qg + 2
        w = weights * (slab.cell / slab.grid.spacing[0])
        if slab.contract:
            per_row = np.einsum("rk,kt->rt", w, tables[:, 0])
            per_row = np.pad(per_row, [(0, 0), (0, 1)])  # next of the last entry
            rows = np.arange(n)[:, None]
            base, nxt = per_row[rows, left], per_row[rows, left + 1]
            ref = base + (nxt - base) * frac
        else:
            padded = np.pad(tables, [(0, 0), (0, 0), (0, 1)])
            table = np.broadcast_to(np.arange(q) if tables.shape[1] > 1 else 0, (n, q))
            base, nxt = padded[:, table, left], padded[:, table, left + 1]
            vals = base + (nxt - base) * frac
            # weighted and summed over the components in their order
            ref = np.zeros((n, q))
            for j in range(prob.d_y):
                ref += vals[j] * w[:, j, None]

        plan = slab._sweep_plan(y, tc.SweepWork())
        states = Z.transpose(2, 1, 0)  # cell-major (m, q, n), as the sweeps run
        plan(rng.uniform(0, qg, states.shape))  # the buffers keep nothing between sweeps
        got = plan(states)[0].T
        np.testing.assert_array_equal(got, ref)
        assert got[-1, -1] == 0.0

    def test_top_state_reads_own_table(self):
        # the top state qg + 1 reads the last entry of its own table, a
        # ghost zero with slope zero, so no index leaves the stacked tables
        grid = tc.lip_interp.GridSpec(1, 4)
        tables = np.array(
            [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 0.0], [0.0, -1.0, 2.0, -3.0, 4.0, -5.0, 0.0]]
        )
        values = tables.reshape(1, -1)  # one entry per knot
        slopes = tc.lip_interp.knot_slopes(values)
        starts = np.array([0, 7, 0, 7, 0, 7])
        lookup = tc.lip_interp.KnotLookup(grid, values, slopes, starts)
        out = lookup(np.array([[5.0, 4.0, 3.5, 9.0, 1e9, 5.0]]))
        np.testing.assert_array_equal(lookup.index, [6, 12, 4, 13, 6, 13])
        np.testing.assert_array_equal(out, [[0.0, -5.0, 4.5, 0.0, 0.0, 0.0]])

    @pytest.mark.parametrize(
        "make_problem, tau",
        [
            (lambda: cosine_problem(d_y=3), 0.05),
            (lambda: cosine_problem(d_y=2), 0.2),
            (cosine_problem_m2, 0.2),
            (constant_problem_m2, 0.2),
            (
                lambda: tc.TransportProblem(
                    TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]]
                ),
                0.1,
            ),
            (cosine_problem_m3, 0.2),
        ],
        ids=[
            "s1_contracted", "s1_shared_table", "s2_shared", "s2_one_cell", "general_shared",
            "s3_shared",
        ],
    )
    def test_seed_sweep_matches_q_copies(self, rng, make_problem, tau):
        # a shared slab sweeps its constant seeds once per row; that equals
        # sweeping q copies of them, bit for bit
        prob = make_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(1), tau=tau, mu=3)
        assert slab._shared
        n = 9
        w = rng.uniform(prob.domain[:, 0], prob.domain[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        u = slab._states(w)
        plan = slab._sweep_plan(y, tc.SweepWork())
        seed_states = u.T[:, None, :]  # cell-major (m, 1, n)
        seeds = plan(seed_states).copy()
        copies = plan(np.repeat(seed_states, slab.q, axis=1))
        assert seeds.shape == (prob.m, 1, n)
        np.testing.assert_array_equal(np.broadcast_to(seeds, copies.shape), copies)

        # the whole forward pass against one that sweeps q copies first
        for slab.mu in (1, 3):
            Z = np.repeat(seed_states, slab.q, axis=1)
            for k in range(slab.mu):
                V = plan(Z).copy()
                S = np.cumsum(V, axis=1)
                Z = seed_states + (S - 0.5 * V)
            got_V, got_S = slab._forward(u, y, slab.q, tc.SweepWork())
            np.testing.assert_array_equal(got_V, V)
            np.testing.assert_array_equal(got_S, S)

    @pytest.mark.parametrize(
        "make_problem, tau, shared",
        [
            (lambda: cosine_problem(d_y=2), 0.2, True),
            (time_dependent_problem, 0.1, False),
        ],
        ids=["shared", "per_cell"],
    )
    def test_first_sweep_states(self, rng, make_problem, tau, shared):
        # a shared slab's first sweep looks up one seed per row; a per-cell
        # slab's networks differ by cell, so it sweeps all q states
        prob = make_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=tau, mu=3)
        assert slab._shared == shared
        plan_of = slab._sweep_plan
        states = []

        def recording(y, work):
            sweep = plan_of(y, work)
            return lambda Z: states.append(Z.shape[1]) or sweep(Z)

        slab._sweep_plan = recording
        n = 5
        w = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        slab._forward(slab._states(w), y, slab.q, tc.SweepWork())
        assert states == [1 if shared else slab.q] + [slab.q] * (slab.mu - 1)

    def test_eval_memory_bounded(self):
        assert_eval_memory_bounded(config_problem("affine_m1_dy4"), 0.1, (1000, 8000))

    def test_eval_memory_bounded_m2(self):
        assert_eval_memory_bounded(cosine_problem_m2(), 0.4, (500, 4000))


def assert_eval_memory_bounded(prob, eps, sizes, build=tc.build_char_net):
    """Peak traced memory of an eval barely grows from n = sizes[0] to
    sizes[1]: unbounded row blocks would hold sweep temporaries of
    (rows, q, point width) floats, tens of MB at the larger size, and a
    solution net's unchunked backward chain q_src + 1 feet per query."""
    import tracemalloc

    net = build(prob, eps)
    peaks = []
    for n in sizes:
        t, x, y = prob.sample_inputs(n, seed=3)
        tracemalloc.start()
        try:
            net.eval(t, x, y)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 4 * 2**20


class TestCausalTruncation:
    """A row sweeps only the cells that its gated times read."""

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
            (
                lambda: tc.TransportProblem(
                    TestGeneralConvection.make_general(L_t=0.5), 1.0, [[0.0, 1.0]]
                ),
                0.4,
            ),
            (cosine_problem_m3, 0.4),
            (time_dependent_problem_m2, 0.6),
        ],
        ids=[
            "s1_shared", "s2_shared", "s1_per_cell", "general_shared", "general_per_cell",
            "s3_shared", "s2_per_cell",
        ],
    )
    def test_matches_full_sweeps(self, rng, make_problem, eps):
        prob = make_problem()
        net = tc.build_char_net(prob, eps)
        assert net.grid.K >= 2
        # 0, T_hat, the junctions, cell boundaries of every slab, and random
        edges = [edge_times(slab.interval, slab.q)[:5] for slab in net.slabs]
        special = np.concatenate([[0.0, prob.T_hat], reference.junctions(net.grid), *edges])
        t = np.concatenate([special, rng.uniform(0.0, prob.T_hat, 20)])
        n = len(t)
        x = rng.uniform(prob.domain[:, 0], prob.domain[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        np.testing.assert_array_equal(net.eval(t, x, y), full_sweep_eval(net, t, x, y))
        times = np.stack([t, rng.permutation(t), rng.uniform(0.0, prob.T_hat, n)])
        np.testing.assert_array_equal(
            net.eval(times, x, y), full_sweep_eval(net, times, x, y)
        )
        # blocks of an odd number of rows, whose last row takes its own
        # running sums
        want = full_sweep_eval(net, times, x, y)
        for slab in net.slabs:
            slab.block_rows = lambda: 5
        np.testing.assert_array_equal(net.eval(times, x, y), want)

    @pytest.mark.parametrize(
        "make_problem, tau",
        [
            (lambda: cosine_problem(d_y=2), 0.02),
            (cosine_problem_m2, 0.05),
            (time_dependent_problem, 0.05),
        ],
        ids=["s1_shared", "s2_shared", "s1_per_cell"],
    )
    def test_sweeps_stop_at_last_gated_cell(self, rng, make_problem, tau):
        prob = make_problem()
        grid = tc.MacroGrid(1.0, prob.convection.norm)
        slab = build_slab_net(prob, grid.slab(1), tau=tau, mu=2)
        (lo, hi), q = slab.interval, slab.q
        n, step = 60, 7  # blocks of 7 rows, the last one partial
        times = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (2, n))
        edges = edge_times(slab.interval, q)
        times[0, : len(edges)] = edges
        mask = rng.uniform(size=(2, n)) < 0.6
        carry = rng.uniform(size=n) < 0.3
        w = rng.uniform(prob.domain[:, 0], prob.domain[:, 1], (n, prob.m))
        y = rng.uniform(-1, 1, (n, prob.d_y))
        # J, the last cell a row's gated times read, and the cells it needs
        last = np.where(mask, tc.ramp_cell(times, lo, slab.cell, q)[0], -1).max(axis=0)
        need = np.where(carry, q, last + 1)
        assert (need == 0).any() and (need == q).any()
        assert np.count_nonzero((need > 0) & (need < q)) > 2 * step

        row_of = {tuple(u): r for r, u in enumerate(slab._states(w))}
        forward, calls = slab._forward, []

        def recording(u, y, p, work):
            calls.append(([row_of[tuple(s)] for s in u], p))
            return forward(u, y, p, work)

        slab._forward = recording
        slab.block_rows = lambda: step
        got = slab.eval_with_junction(times, w, y, mask, carry)
        # the rows that read a cell are swept once, in blocks ordered by
        # need, each sweeping the largest need among its rows
        swept = [r for rows, _ in calls for r in rows]
        assert sorted(swept) == list(np.flatnonzero(need > 0))
        assert [len(rows) for rows, _ in calls[:-1]] == [step] * (len(calls) - 1)
        assert [p for _, p in calls] == [need[rows].max() for rows, _ in calls]
        for (a, _), (b, _) in zip(calls, calls[1:]):
            assert need[a].max() <= need[b].min()

        # a row alone in its block: a terminal row sweeps J + 1 cells, a
        # carried row all q, and its values are those of the shared block
        calls.clear()
        slab.block_rows = lambda: 1
        alone = slab.eval_with_junction(times, w, y, mask, carry)
        for (row,), p in calls:
            assert p == (q if carry[row] else last[row] + 1)
        for a, b in zip(got, alone):
            np.testing.assert_array_equal(a, b)

    def test_block_rows(self, monkeypatch):
        # an m >= 2 affine block holds at least MIN_STATES quadrature
        # states; the m = 1 slabs of the ladder and the solution configs,
        # and general slabs, keep the bytes rule.  Both give an even
        # count of rows: the bytes rule rounds down, the floor up.
        def bytes_rule(slab):
            rows = max(1, int(tc.BLOCK_BYTES // (8 * slab.row_floats)))
            return rows - rows % 2 if rows > 1 else rows

        for eps, rows in ((0.4, 54), (0.2, 28)):
            slab = tc.build_char_net(cosine_problem_m2(), eps).slabs[0]
            floor = -(-tc.MIN_STATES // slab.q)
            assert slab.block_rows() == rows == floor + floor % 2 > bytes_rule(slab)
        ladder = tc.build_char_net(config_problem("affine_m1_dy4"), 0.05).slabs[0]
        solution = tc.build_solution_net(config_problem("solution_affine"), 0.1)
        back = solution.back_net.slabs[0]
        assert [ladder.block_rows(), back.block_rows()] == [40, 12]
        assert [bytes_rule(ladder), bytes_rule(back)] == [40, 12]
        prob = tc.TransportProblem(TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]])
        general = tc.build_char_net(prob, 0.2).slabs[0]
        # a floor eight times higher would give it more rows; it has none
        monkeypatch.setattr(tc, "MIN_STATES", 8 * tc.MIN_STATES)
        assert general.block_rows() == bytes_rule(general) < -(-tc.MIN_STATES // general.q)


class TestBuildOnce:
    """A build samples each slab average once, builds each stack of
    tables in one call and counts its sizes once."""

    def test_slab_average_once_per_output_column(self, monkeypatch):
        import dataclasses

        prob = time_dependent_problem_m2()
        conv = prob.convection
        calls, builds = [], []

        def counting(fn):
            return lambda t, x: calls.append(1) or fn(t, x)

        comps = [dataclasses.replace(c, fn=counting(c.fn)) for c in conv.components]
        counted = tc.TransportProblem(
            tc.AffineConvection(conv.m, conv.d_y, conv.omega, comps), prob.T_hat, prob.domain
        )
        stable_stack = tc.lip_interp.stable_stack
        monkeypatch.setattr(
            tc.lip_interp,
            "stable_stack",
            lambda *args: builds.append(args[1].shape) or stable_stack(*args),
        )
        net = tc.build_char_net(counted, 0.4)
        # one average per component and quadrature cell, each a Gauss rule
        # in time, for all m output columns together
        q, K = net.sched.q, net.grid.K
        assert len(calls) == K * q * conv.d_y * catalog.GAUSS_ORDER
        # one build per slab, of its q cells' d_y * m columns
        slab = net.slabs[0]
        nodes = (slab.grid.q + 1) ** conv.m
        assert builds == [(q, conv.d_y * conv.m, nodes)] * K
        # the columns of each average are the tables of the m nets, each
        # in its ring of zero ghost nodes
        stack = slab.net
        size = math.prod(stack.table_shape)
        for j, comp in enumerate(conv.components):
            for i, sub in enumerate(net.slabs[0].subintervals):
                avg = comp.slab_average(sub)
                for c in range(conv.m):
                    ref = tc.lip_interp.SampledFunction.from_function(
                        lambda pts: avg(pts)[:, c], slab.grid, comp.lip_x, comp.sup
                    )
                    table = stack.values[j * conv.m + c, i * size : (i + 1) * size]
                    np.testing.assert_array_equal(table, np.pad(ref.values, 1).ravel())

    def test_source_sampled_once(self):
        import dataclasses

        prob = config_problem("solution_affine")
        calls = []
        fn = prob.f.fn
        f = dataclasses.replace(prob.f, fn=lambda t, x: calls.append(len(x)) or fn(t, x))
        counted = tc.TransportProblem(prob.convection, prob.T_hat, prob.domain, prob.u0, f)
        net = tc.build_solution_net(counted, 0.1)
        # every source time at every node of the source grid, in one call
        assert calls == [net.q_src * (net.sources.grid.q + 1)]

    def test_size_once_per_net(self, monkeypatch):
        builds, counts, sized = [], [], []
        stable_stack, table_sizes = tc.lip_interp.stable_stack, tc.lip_interp.table_sizes

        def recording_stack(*args):
            builds.append(args[1].shape[:2])
            return stable_stack(*args)

        def recording_sizes(grid, coeffs, depth):
            counts.append(coeffs.shape[:2])
            return table_sizes(grid, coeffs, depth)

        monkeypatch.setattr(tc.lip_interp, "stable_stack", recording_stack)
        monkeypatch.setattr(tc.lip_interp, "table_sizes", recording_sizes)
        monkeypatch.setattr(tc.lip_interp.InterpolantNet, "size", lambda net: sized.append(net))
        net = tc.build_solution_net(config_problem("solution_affine"), 0.1)
        # the backward slabs' one set of two components, u0, the sources:
        # one count per table set, and no net counted on its own
        assert builds == counts == [(1, 2), (1, 1), (net.q_src, 1)]
        assert sized == []
        assert net.report["size"] == 25355372052

    @pytest.mark.parametrize(
        "eps,size,depth",
        [
            (0.2, 2978252366, 82),
            (0.1, 25355372052, 91),
            (0.05, 222061284706, 100),
            (0.025, 1939195543605, 109),
        ],
    )
    def test_solution_size_and_depth_pinned(self, eps, size, depth):
        net = tc.build_solution_net(config_problem("solution_affine"), eps)
        assert (net.report["size"], net.report["depth"]) == (size, depth)


class TestRhoGateSize:
    @pytest.mark.parametrize("interval,q", [((0.0, 0.5), 7), ((0.3, 1.1), 12), ((0.0, 1.0), 1)])
    def test_analytic_count_matches_built_net(self, interval, q):
        assert tc._rho_gate_size(interval, q) == reference.rho_gate(interval, q).size()


class TestCharNetwork:
    @pytest.mark.parametrize(
        "make_problem, eps, pinned",
        [
            (cosine_problem_m2, 0.2, (20487070889, 294, 601240.310388622)),
            (cosine_problem_m3, 0.4, (366367500698, 456, 796426.662589722)),
        ],
    )
    def test_tensor_hat_complexity_pinned(self, make_problem, eps, pinned):
        # the s >= 2 tables' ghost ring leaves size, depth and predicted
        # as they were counted on the coefficients alone
        net = tc.build_char_net(make_problem(), eps)
        assert (net.size(), net.depth(), net.report["predicted"]) == pinned

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
            vals = at_times(net.slabs[k], np.full(50, lo), seeds[k], y)
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

    @pytest.mark.parametrize("kind", ["char", "solution"])
    def test_empty_batch(self, kind):
        prob = cosine_problem(d_y=2, f_spec={"kind": "constant", "value": 1.0})
        build = tc.build_char_net if kind == "char" else tc.build_solution_net
        net = build(prob, 0.2)
        t, x, y = prob.sample_inputs(0, seed=3)
        got = net.eval(t, x, y)
        assert got.shape == ((0, prob.m) if kind == "char" else (0,))
        if kind == "char":
            assert net.eval(np.zeros((3, 0)), x, y).shape == (3, 0, prob.m)
            t, x, y = prob.sample_inputs(4, seed=3)
            assert net.eval(np.zeros((0, 4)), x, y).shape == (0, 4, prob.m)

    def test_m2_builds_compose_no_template_twice(self, monkeypatch):
        # the tensor-hat template is counted once per (s, n) per process:
        # a second build of the same ladder composes no ReLU network
        import json
        from pathlib import Path

        from charflow import comp_calculus, lip_interp, relu_net

        cfg = Path(__file__).resolve().parent.parent / "configs" / "cosine_m2_dy2.json"
        doc = json.loads(cfg.read_text())
        calls = []
        for mod in (relu_net, lip_interp, comp_calculus, tc):
            for name in ("compose", "parallelize"):
                if hasattr(mod, name):
                    fn = getattr(mod, name)

                    def counted(*args, fn=fn, **kwargs):
                        calls.append(fn)
                        return fn(*args, **kwargs)

                    monkeypatch.setattr(mod, name, counted)
        lip_interp.template_counts.cache_clear()
        made = []
        for _ in range(2):
            for eps in doc["eps_ladder"]:
                net = tc.build_char_net(tc.problem_from_dict(doc["problem"]), eps)
                assert net.size() > 0
            made.append(len(calls))
        assert made[0] > 0 and made[1] == made[0]

    def test_m2_certified_at_harness_size(self):
        # a convergence rung of the m = 2 field as the harness runs it:
        # 200 queries against the RK4 oracle, the 2000-sample certificate
        prob, eps, seed = cosine_problem_m2(), 0.4, 7
        net = tc.build_char_net(prob, eps)
        t, x, y = prob.sample_inputs(200, seed)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(len(t)), t, x, y,
            oracle.OdeConfig(steps=32, tol=eps / 100.0),
        )
        assert np.abs(net.eval(t, x, y) - ref).max() <= eps
        cert = tc.lipschitz_certificate(net, n_samples=2000, seed=seed)
        assert cert["pass_xy"] and cert["pass_t"]

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

    @pytest.mark.parametrize(
        "make_net",
        [
            lambda: tc.build_char_net(cosine_problem(d_y=2, freq=1.0), 0.1),
            lambda: tc.build_char_net(cosine_problem_m2(), 0.4),
            lambda: tc.build_char_net(cosine_problem(d_y=2), 0.1, direction="backward"),
            lambda: tc.build_char_net(
                tc.TransportProblem(TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]]), 0.2
            ),
        ],
        ids=["affine_m1", "affine_m2", "backward", "general"],
    )
    def test_certificate_is_one_chain(self, monkeypatch, make_net):
        # one junction chain of 2n rows gives the two-chain quotients bit
        # for bit: a row's values do not depend on the other rows
        net = make_net()
        want = two_chain_lipschitz(net, 300, 7)
        calls = []
        chain = tc.CharNetwork.eval
        monkeypatch.setattr(tc.CharNetwork, "eval", lambda *a: calls.append(1) or chain(*a))
        cert = tc.lipschitz_certificate(net, n_samples=300, seed=7)
        assert (cert["lip_xy"], cert["lip_t"]) == want
        assert len(calls) == 1

    def test_zero_field_certificate(self, rng):
        prob = zero_field_problem()
        net = tc.build_char_net(prob, 0.1)
        t, x, y = prob.sample_inputs(200, seed=2)
        np.testing.assert_allclose(net.eval(t, x, y), x, atol=1e-13)
        cert = tc.lipschitz_certificate(net, n_samples=1000, seed=2)
        assert cert["lip_t"] <= 1e-10
        assert cert["lip_xy"] <= 1.0 + 1e-9


def per_component_eval(conv, t, x, y):
    """Reference: the field summed from zeros, component by component in
    order, through ``fn``; ``at`` computes exactly this when no two
    time-independent cosines share a frequency."""
    n = x.shape[0]
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    out = np.zeros((n, 1))
    for j, comp in enumerate(conv.components):
        term = (conv.omega[j] * y[:, j])[:, None] * comp.fn(t, x)
        if term.shape == out.shape:
            out += term
        else:
            out = out + term
    if out.shape[1] < conv.m:
        return np.concatenate([out] * conv.m, axis=1)
    return out


MIXED_SPECS = [
    {"kind": "cosine", "amp": 1.2, "freq": 1.3, "phase": 0.4},
    {"kind": "bump", "center": 0.4, "width": 0.6, "amp": 0.9},
    {"kind": "cosine", "amp": -0.7, "freq": 0.45, "phase": 2.2},
    {"kind": "cosine", "amp": 0.8, "freq": 1.3, "phase": -1.1},
    {"kind": "constant", "value": -0.6},
    {"kind": "cosine", "amp": 1.0, "freq": 2.5, "phase": 0.3},
    {"kind": "cosine", "amp": 0.5, "freq": 0.45, "phase": 0.0},
    {"kind": "piecewise-linear", "knots": [-1.0, 0.5, 2.0], "values": [0.2, 1.0, -0.4]},
    {"kind": "cosine", "amp": 1.5, "freq": 1.3, "phase": 3.0},
]


def spec_field(specs, m, omega=None):
    comps = [catalog.make_component(spec, m) for spec in specs]
    d_y = len(specs)
    omega = [1.0 / d_y] * d_y if omega is None else omega
    return tc.AffineConvection(m, d_y, omega, comps, validate=False)


class TestAffineField:
    """``eval`` sums the cosines of one frequency as one cos/sin pair."""

    def samples(self, conv, rng, n=4000):
        t = rng.uniform(0.0, 1.0, n)
        x = rng.uniform(-1.5, 2.5, (n, conv.m))
        y = rng.uniform(-1.0, 1.0, (n, conv.d_y))
        return t, x, y

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("m", [1, 2])
    def test_grouped_equals_component_sum(self, rng, m, reverse):
        # two frequencies with three and two cosines, a lone cosine, and
        # bump, constant and piecewise-linear components
        omega = np.linspace(0.05, 0.25, len(MIXED_SPECS))
        conv = spec_field(MIXED_SPECS, m, omega)
        if reverse:
            conv = conv.reversed_negated(1.0)
        t, x, y = self.samples(conv, rng)
        expect = sum(
            (w * y[:, j])[:, None] * comp(t, x)
            for j, (w, comp) in enumerate(zip(conv.omega, conv.components))
        )
        got = conv.eval(t, x, y)
        assert got.shape == (len(t), m)
        scale = sum(w * comp.sup for w, comp in zip(conv.omega, conv.components))
        assert np.max(np.abs(got - expect)) <= 4 * np.spacing(scale)
        assert not np.array_equal(got, per_component_eval(conv, t, x, y))  # grouping took over

    def test_reversed_negates(self, rng):
        conv = spec_field(MIXED_SPECS, 1)
        t, x, y = self.samples(conv, rng)
        back = conv.reversed_negated(1.0)
        assert np.array_equal(back.eval(t, x, y), -conv.eval(t, x, y))
        waves = [c.wave for c in back.components if c.wave is not None]
        assert waves[0] == (-1.2, 1.3, 0.4)

    @pytest.mark.parametrize("m", [1, 2])
    def test_no_shared_frequency_bit_identical(self, rng, m):
        # one cosine per frequency
        specs = [s for s in MIXED_SPECS if s["kind"] != "cosine"] + [
            {"kind": "cosine", "amp": 0.3 * (1 + j), "freq": freq, "phase": j}
            for j, freq in enumerate((0.45, 1.3, 2.5))
        ]
        conv = spec_field(specs, m)
        t, x, y = self.samples(conv, rng)
        assert np.array_equal(conv.eval(t, x, y), per_component_eval(conv, t, x, y))

    @pytest.mark.parametrize("problem", [time_dependent_problem, time_dependent_problem_m2])
    def test_time_dependent_bit_identical(self, rng, problem):
        conv = problem().convection
        for field in (conv, conv.reversed_negated(1.0)):
            t, x, y = self.samples(field, rng)
            assert np.array_equal(field.eval(t, x, y), per_component_eval(field, t, x, y))

    def test_time_dependent_waves_stay_lone(self, rng):
        # a component that moves in t is summed through fn, even when it
        # declares the frequency of another cosine
        moving = catalog.FieldComponent(
            lambda t, x: np.cos(1.3 * x[:, :1] + np.asarray(t)[:, None]),
            m=1, sup=1.0, lip_x=1.3, lip_t=1.0, time_independent=False,
            wave=(1.0, 1.3, 0.0),
        )
        fixed = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.3})
        conv = tc.AffineConvection(1, 2, [0.5, 0.5], [moving, fixed])
        t, x, y = self.samples(conv, rng)
        assert np.array_equal(conv.eval(t, x, y), per_component_eval(conv, t, x, y))

    def test_at_rows_independent(self, rng):
        # a row's bits do not depend on the other rows of its batch
        conv = spec_field(MIXED_SPECS, 2)
        t, x, y = self.samples(conv, rng, n=301)
        whole = conv.at(y)(t, x)
        for part in (slice(0, 1), slice(7, 150), slice(150, 301)):
            assert np.array_equal(conv.at(y[part])(t[part], x[part]), whole[part])


class TestPiecewiseLinearSpec:
    def spec(self, knots, values):
        return {"kind": "piecewise-linear", "knots": knots, "values": values}

    def test_decreasing_knots_refused(self):
        # np.interp would read these as 0 at 0.25, 0.5 and 0.75
        with pytest.raises(ValueError, match="increasing"):
            catalog.make_component(self.spec([1.0, 0.5, 0.0], [0, 1, 0]))

    def test_repeated_knot_refused(self):
        with pytest.raises(ValueError, match="increasing"):
            catalog.make_component(self.spec([0.0, 0.5, 0.5, 1.0], [0, 1, 0, 1]))

    def test_length_mismatch_refused(self):
        with pytest.raises(ValueError, match="one value per knot"):
            catalog.make_component(self.spec([0.0, 0.5, 1.0], [0, 1]))

    def test_single_knot_refused(self):
        with pytest.raises(ValueError, match="at least two knots"):
            catalog.make_component(self.spec([0.5], [1.0]))

    def test_increasing_knots_accepted(self):
        comp = catalog.make_component(self.spec([0.0, 0.5, 1.0], [0, 1, 0]))
        x = np.array([[0.25], [0.5], [0.75]])
        assert np.array_equal(comp(0.0, x)[:, 0], [0.5, 1.0, 0.5])
        assert comp.lip_x == 2.0 and comp.sup == 1.0


class TestGeneralConvection:
    @staticmethod
    def make_general(L_t=0.0, bil_lip=1.5):
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
                in_dim=4, out_dim=1, lip=bil_lip, sup=1.0,
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

    def test_general_size_and_depth_pinned(self):
        # a shared slab stands for its q cells with one implanted chain,
        # a time-dependent slab implants one chain per cell; both count
        # the same size
        for L_t, chains in ((0.0, 1), (0.5, 152)):
            prob = tc.TransportProblem(self.make_general(L_t=L_t), 1.0, [[0.0, 1.0]])
            net = tc.build_char_net(prob, 0.2)
            assert (net.size(), net.depth()) == (282787505, 78)
            assert {len(slab._nets) for slab in net.slabs} == {chains}

    def test_implant_bound_refused_past_its_charge(self):
        # the implant error is the factor errors times the declared
        # Lipschitz constants after them; the implant term charges
        # a_norm * delta for it
        for eps in (0.2, 0.1):
            prob = tc.TransportProblem(self.make_general(), 1.0, [[0.0, 1.0]])
            tc.build_char_net(prob, eps)
        prob = tc.TransportProblem(self.make_general(bil_lip=1e3), 1.0, [[0.0, 1.0]])
        with pytest.raises(tc.ResourceCeiling, match="implant error"):
            tc.build_char_net(prob, 0.2)

    def test_time_sets_match_single_calls(self, rng):
        prob = tc.TransportProblem(self.make_general(), 1.0, [[0.0, 1.0]])
        assert_time_sets_match_single_calls(tc.build_char_net(prob, 0.2), rng)

    def test_cell_nets_see_whole_row_blocks(self, rng):
        # a time-dependent field has one implanted net per quadrature cell;
        # its row blocks are sized by one net's evaluation, not by all q
        # states of a row, so 200 rows take one block: mu * q evaluations
        conv = self.make_general(L_t=0.5)
        prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
        grid = tc.MacroGrid(1.0, conv.norm)
        slab = build_slab_net(prob, grid.slab(0), tau=0.05, mu=2)
        assert not slab._shared and len(slab._nets) == slab.q
        calls = []
        for net in slab._nets:
            net.eval = lambda x, f=net.eval: calls.append(len(x)) or f(x)
        n = 200
        w = rng.uniform(0, 1, (n, 1))
        y = rng.uniform(-1, 1, (n, 2))
        at_times(slab, rng.uniform(*grid.slab(0), n), w, y)
        assert calls == [n] * (slab.mu * slab.q)

    def test_normalization_rejected(self):
        with pytest.raises(ValueError):
            tc.GeneralConvection(
                1, 1, lambda t, x, y: x, A=0.5, L=0.4, a_norm=0.3,
                gf=cc.GrowthFunction("alg", 1, 1), rep_builder=None,
            )


class TestGridSizing:
    """Every grid sized from a tolerance is lip_interp.GridSpec.for_tolerance;
    the pinned cells per axis are the builds' grids on the slab, datum and
    implant boxes."""

    @pytest.mark.parametrize("stem,eps,q", [("affine_m1_dy4", 0.05, 389), ("cosine_m2_dy2", 0.4, 49)])
    def test_slab_grid(self, stem, eps, q):
        prob = config_problem(stem)
        net = tc.build_char_net(prob, eps)
        want = tc.lip_interp.GridSpec.for_tolerance(
            prob.eval_box, prob.convection.Lam, net.report["delta"]
        )
        for slab in net.slabs:
            grid = slab.grid
            assert grid.q == want.q == q
            np.testing.assert_array_equal(grid.box, want.box)

    def test_datum_grids(self):
        prob = config_problem("solution_affine")
        net = tc.build_solution_net(prob, 0.1)
        e = net.report["eps_tilde"]
        for grid, datum, q in [(net.u0_net.grid, prob.u0, 448), (net.sources.grid, prob.f, 112)]:
            want = tc.lip_interp.GridSpec.for_tolerance(prob.eval_box, datum.lip_x, e)
            assert grid.q == want.q == q

    def test_implant_grids(self):
        prob = tc.TransportProblem(TestGeneralConvection.make_general(), 1.0, [[0.0, 1.0]])
        slab = tc.build_char_net(prob, 0.2).slabs[0]
        generic, _ = slab._nets[0].factors[0].children
        # the slab splits its delta over the representation's two factors
        source = generic.source
        want = tc.lip_interp.GridSpec.for_tolerance(source.box, source.lip, slab.delta / 2)
        for interp in generic.nets:
            assert interp.grid.q == want.q == 5741


class TestPredictedComplexity:
    def test_affine_arithmetic(self):
        prob = cosine_problem(d_y=4)
        prob.convection.L = 1.0  # match the stated example: L = 1
        val = budget.AFFINE.complexity(prob, 0.1)
        ratio = math.exp(1.0) / 0.1
        expect = 4 * 1 * 1 * 1 * ratio**2 * math.log2(ratio) ** 2
        assert val == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(6.70e4, rel=2e-2)

    def test_dy_doubling_exact(self):
        p2 = cosine_problem(d_y=2)
        p4 = cosine_problem(d_y=4)
        # identical A, L by the omega = 1/d_y normalization
        assert budget.AFFINE.complexity(p4, 0.05) == pytest.approx(
            2 * budget.AFFINE.complexity(p2, 0.05)
        )

    def test_solution_beta(self):
        assert budget.solution_beta(1, 2.0) == 1.0
        assert budget.solution_beta(1, 0.5) == 4.0


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
        _, u_fn = reference.exact_const(prob)
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

    def test_shared_chain_matches_per_node_reference(self):
        # the source part sums the same terms as the per-node reference
        # in running-sum order, so it agrees to rounding, not bit for bit
        data = {
            "u0_spec": {"kind": "hat", "center": 0.5, "width": 1.0},
            "f_spec": {"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25},
        }
        for prob, eps in [
            (cosine_problem(d_y=2, **data), 0.2),
            (cosine_problem_m2(**data), 0.7),
        ]:
            net = tc.build_solution_net(prob, eps)
            assert net.q_src > 1 and net.back_net.grid.K > 1
            t, x, y = prob.sample_inputs(40, seed=14)
            # the ends of the horizon and of the first and last source cells
            T, q = prob.T_hat, net.q_src
            t[:4] = 0.0, T, T / q, (q - 1) * T / q
            got = net.eval_parts(t, x, y)
            ref = per_node_eval_parts(net, t, x, y)
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_allclose(got[1], ref[1], rtol=0, atol=1e-12)

    def test_eval_memory_bounded(self):
        # the backward chain holds q_src + 1 feet per query; chunks of
        # queries keep the peak from growing with n
        assert_eval_memory_bounded(
            config_problem("solution_affine"), 0.1, (500, 4000), tc.build_solution_net
        )

    def test_chunks_match_one_chain(self, monkeypatch):
        # a query's values do not depend on the chunk it lands in
        prob = cosine_problem(
            d_y=2,
            u0_spec={"kind": "hat", "center": 0.5, "width": 1.0},
            f_spec={"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25},
        )
        net = tc.build_solution_net(prob, 0.2)
        t, x, y = prob.sample_inputs(50, seed=15)
        whole = net.eval_parts(t, x, y)
        monkeypatch.setattr(tc, "CHAIN_FEET", 7 * (net.q_src + 1))
        for a, b in zip(net.eval_parts(t, x, y), whole):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("eps", [8.0, 20.0])
    def test_coarse_eps_builds(self, eps):
        # eps >= 7 T M puts the flow and data accuracy eps_tilde above 1
        prob = cosine_problem(
            d_y=2,
            u0_spec={"kind": "hat", "center": 0.5, "width": 1.0},
            f_spec={"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25},
        )
        net = tc.build_solution_net(prob, eps)
        assert net.report["eps_tilde"] > 1.0
        assert sum(net.report["ledger"].values()) <= eps
        t, x, y = prob.sample_inputs(200, seed=16)
        ref = oracle.solution_oracle(prob, t, x, y)
        assert np.abs(net.eval(t, x, y) - ref).max() <= eps

    def test_m2_config_within_eps(self):
        # configs/solution_m2_dy2.json at its coarse rung: an s >= 2 datum
        # net, stacked s >= 2 source nets and an m = 2 backward chain
        cfg = json.loads((CONFIGS / "solution_m2_dy2.json").read_text())
        prob = config_problem("solution_m2_dy2")
        eps = cfg["eps_ladder"][0]
        net = tc.build_solution_net(prob, eps)
        back = net.back_net.slabs[0]
        assert net.u0_net.s == net.sources.s == back.grid.s == 2
        t, x, y = prob.sample_inputs(cfg["n_samples"], cfg["seed"])
        ref = oracle.solution_oracle(prob, t, x, y, oracle.OdeConfig(steps=32, tol=eps / 100))
        assert np.abs(net.eval(t, x, y) - ref).max() <= eps

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
