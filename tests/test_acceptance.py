"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Builds shared across criteria (the characteristic ladder) are
cached in module-scoped fixtures.
"""

import time

import numpy as np
import pytest

import reference
from charflow import catalog, harness, oracle
from charflow import comp_calculus as cc
from charflow import lip_interp as li
from charflow import transport_core as tc

LADDER = [0.1, 0.05, 0.025]


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    assert ok, f"{name}: {detail}"


def ladder_problem(d_y=4):
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}
        )
        for j in range(d_y)
    ]
    conv = tc.AffineConvection(1, d_y, [1.0 / d_y] * d_y, comps)
    return tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])


@pytest.fixture(scope="module")
def char_ladder():
    """Criterion-5 builds: eps -> (net, measured sup error on 10^4 samples)."""
    problem = ladder_problem()
    out = {}
    t0 = time.perf_counter()
    for eps in LADDER:
        net = tc.build_char_net(problem, eps)
        t, x, y = problem.sample_inputs(10_000, seed=20240817)
        ref, _ = oracle.rk4_char(
            net.oracle_field(), np.zeros(len(t)), t, x, y,
            oracle.OdeConfig(steps=32, tol=eps / 100.0),
        )
        err = float(np.abs(net.eval(t, x, y) - ref).max())
        out[eps] = (net, err)
    out["wall_time"] = time.perf_counter() - t0
    out["problem"] = problem
    return out


def test_criterion_01_picard_contraction():
    t0 = time.perf_counter()
    comp = catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0})
    conv = tc.AffineConvection(1, 1, [1.0], [comp])
    grid = tc.MacroGrid(1.0, conv.norm)  # |I| L = 1/2 with L = 2
    interval = grid.slab(0)
    field = lambda t, x, y: conv.eval(t, x, y)
    rng = np.random.default_rng(42)
    n = 1000
    x = rng.uniform(0, 1, (n, 1))
    y = rng.uniform(-1, 1, (n, 1))
    t = rng.uniform(interval[0], interval[1], n)
    ref, est = oracle.rk4_char(
        field, np.full(n, interval[0]), t, x, y, oracle.OdeConfig(steps=32, tol=1e-9)
    )
    assert est <= 1e-9
    worst = []
    for k in range(1, 7):
        at = reference.picard_numeric(field, interval, x, y, k, time_grid=2048)
        err = float(np.abs(at(t) - ref).max())
        worst.append((k, err, 2.0 ** (-k - 1)))
        assert err <= 2.0 ** (-k - 1), f"k={k}: {err} > {2.0 ** (-k - 1)}"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (fixed-point contraction)",
        elapsed < 5.0,
        f"k=1..6 all below 2^-(k+1), worst margin x{min(b / e for _, e, b in worst):.1f}, {elapsed:.1f}s",
    )


def test_criterion_02_quadrature_bounds():
    t0 = time.perf_counter()
    out = harness.check_quadrature_properties(seed=11, n_functions=100)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (quadrature and gate bounds)",
        out["violations"] == 0 and out["gate_err"] <= 1e-12 and elapsed < 5.0,
        f"0 violations on 100 functions, gate identities to {out['gate_err']:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_product_and_interpolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    # product networks: sup and central-difference gradient accuracy
    for delta in (1e-2, 1e-3):
        for s in (2, 3):
            net = li.product_net(s, delta)
            pts = rng.uniform(0, 1, size=(10_000, s))
            sup = np.abs(net.eval(pts)[:, 0] - pts.prod(axis=1)).max()
            assert sup <= delta, f"product s={s} delta={delta}: sup {sup}"
            inner = rng.uniform(0.05, 0.95, size=(200, s))
            h = 1e-4
            for j in range(s):
                e = np.zeros(s)
                e[j] = h
                fd = (net.eval(inner + e)[:, 0] - net.eval(inner - e)[:, 0]) / (2 * h)
                true = np.prod(np.delete(inner, j, axis=1), axis=1)
                assert np.abs(fd - true).max() <= 10 * delta
    # interpolation networks: measured sup error at the two deltas
    fn2 = lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1]
    for s, delta in ((2, 1e-2), (1, 1e-3)):
        fn = (lambda x: np.abs(x[:, 0] - 0.5)) if s == 1 else fn2
        q = int(np.ceil(2.0 / delta))
        sf = li.SampledFunction.from_function(fn, li.GridSpec(s, q), lip_bound=1.0)
        net, rep = li.lip_stable_net(sf, delta)
        pts = rng.uniform(0, 1, size=(10_000, s))
        sup = np.abs(net.eval(pts)[:, 0] - fn(pts)).max()
        assert sup <= delta, f"interpolant s={s}: sup {sup} > {delta}"
    # complexity band: size / (delta^-s log2(1/delta)) within a factor 4
    bands = {}
    for s in (1, 2):
        ratios = []
        fn = (lambda x: np.abs(x[:, 0] - 0.5)) if s == 1 else fn2
        for k in range(4, 11):
            delta = 2.0**-k
            q = int(np.ceil(2.0 / delta))
            sf = li.SampledFunction.from_function(fn, li.GridSpec(s, q), lip_bound=1.0)
            net, rep = li.lip_stable_net(sf, delta)
            ratios.append(rep["size"] / (delta**-s * k))
        bands[s] = max(ratios) / min(ratios)
        assert bands[s] <= 4.0, f"s={s} band {bands[s]}"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (product/interpolation networks)",
        elapsed < 60.0,
        f"sup and gradient budgets met; size bands s1={bands[1]:.2f} s2={bands[2]:.2f}, {elapsed:.1f}s",
    )


def test_criterion_04_composition_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    algebra = harness.check_algebra(seed=44, n_reps=50)
    assert algebra["ok"], algebra
    # implant error soundness on 20 random two-factor representations
    for trial in range(20):
        a1, b1 = rng.uniform(0.3, 1.2), rng.uniform(-0.4, 0.4)
        a2 = rng.uniform(0.3, 1.2)
        f1 = cc.GenericFactor(
            lambda z, a=a1, b=b1: np.abs(a * z[:, :1] + b),
            1, 1, lip=abs(a1), sup=abs(a1) * 1.5 + abs(b1), box=[[-1.0, 1.5]],
        )
        f2 = cc.GenericFactor(
            lambda z, a=a2: np.minimum(a * z[:, :1], 1.0),
            1, 1, lip=abs(a2), sup=max(1.0, abs(a2) * 3.0), box=[[-0.5, 2.5]],
        )
        rep = cc.CompRep([f1, f2, cc.LinearFactor([[1.0]])])
        deltas = [rng.uniform(0.005, 0.02), rng.uniform(0.005, 0.02), 0.0]
        imp, bound = cc.implant(rep, deltas)
        pts = rng.uniform(-1.0, 1.5, (2000, 1))
        err = np.abs(imp.eval(pts) - rep.eval(pts)).max()
        assert err <= bound, f"trial {trial}: {err} > {bound}"
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (composition algebra)",
        elapsed < 30.0,
        f"additivity exact, ordering on 50 reps, implant soundness on 20 reps, {elapsed:.1f}s",
    )


def test_criterion_05_end_to_end_characteristics(char_ladder):
    lines = []
    for eps in LADDER:
        net, err = char_ladder[eps]
        assert err <= eps, f"eps={eps}: measured {err}"
        lines.append(f"eps={eps}: err={err:.2e}")
    elapsed = char_ladder["wall_time"]
    _report(
        "criterion 5 (end-to-end characteristics)",
        elapsed < 300.0,
        "; ".join(lines) + f", {elapsed:.0f}s total",
    )


def test_criterion_06_rate_slope(char_ladder):
    fit = harness.fit_rate([(eps, char_ladder[eps][0].report["size"]) for eps in LADDER])
    ok = 1.5 <= fit["slope"] <= 3.5
    _report(
        "criterion 6 (rate slope)",
        ok,
        f"slope {fit['slope']:.2f} in [1.5, 3.5] (target m+1 = 2)",
    )


def test_criterion_07_dy_linearity():
    sizes = []
    for d_y in (2, 4, 8):
        problem = ladder_problem(d_y)
        net = tc.build_char_net(problem, 0.05)
        sizes.append(net.report["size"])
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    ok = all(1.6 <= r <= 2.5 for r in ratios)
    _report(
        "criterion 7 (d_y linearity)",
        ok,
        f"size ratios per doubling {['%.3f' % r for r in ratios]} in [1.6, 2.5]",
    )


def test_criterion_08_lipschitz_stability(char_ladder):
    problem = char_ladder["problem"]
    conv = problem.convection
    details = []
    for eps in LADDER:
        net, _ = char_ladder[eps]
        cert = tc.lipschitz_certificate(net, n_samples=3000, seed=8)
        assert cert["pass_xy"], f"eps={eps}: lip_xy {cert['lip_xy']} > {cert['xy_threshold']}"
        assert cert["pass_t"], f"eps={eps}: lip_t {cert['lip_t']} > {cert['t_threshold']}"
        details.append(f"eps={eps}: xy={cert['lip_xy']:.2f}<={cert['xy_threshold']:.2f}")
    _report("criterion 8 (Lipschitz stability)", True, "; ".join(details))


@pytest.fixture(scope="module")
def solution_case_c():
    comps = [
        catalog.make_component(
            {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}
        )
        for j in range(2)
    ]
    conv = tc.AffineConvection(1, 2, [0.5, 0.5], comps)
    u0 = catalog.make_u0({"kind": "hat", "center": 0.5, "width": 1.0})
    f = catalog.make_f({"kind": "ramp-t", "base": 0.5, "x_coeff": 0.25, "t_coeff": 0.25})
    problem = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]], u0=u0, f=f)
    net = tc.build_solution_net(problem, 0.1)
    t, x, y = problem.sample_inputs(600, seed=91)
    u0_part, f_part = net.eval_parts(t, x, y)
    ref = oracle.solution_oracle(problem, t, x, y, oracle.OdeConfig(steps=64, tol=1e-3))
    return {"u0_part": u0_part, "f_part": f_part, "ref": ref, "net": net}


def test_criterion_09_solution_networks(solution_case_c):
    t0 = time.perf_counter()
    eps = 0.1
    # (a) zero source, constant field: transported initial profile
    comps = [
        catalog.make_component({"kind": "constant", "value": 1.0}),
        catalog.make_component({"kind": "constant", "value": -1.0}),
    ]
    conv = tc.AffineConvection(1, 2, [0.5, 0.5], comps)
    u0 = catalog.make_u0({"kind": "hat", "center": 0.5, "width": 1.0})
    prob_a = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]], u0=u0)
    net_a = tc.build_solution_net(prob_a, eps)
    t, x, y = prob_a.sample_inputs(800, seed=92)
    _, u_fn = reference.exact_const(prob_a)
    err_a = float(np.abs(net_a.eval(t, x, y) - u_fn(t, x, y)).max())
    assert err_a <= eps

    # (b) zero datum, unit source: u = t
    prob_b = tc.TransportProblem(
        conv, 1.0, [[0.0, 1.0]], f=catalog.make_f({"kind": "constant", "value": 1.0})
    )
    net_b = tc.build_solution_net(prob_b, eps)
    t, x, y = prob_b.sample_inputs(400, seed=93)
    err_b = float(np.abs(net_b.eval(t, x, y) - t).max())
    assert err_b <= eps

    # (c) affine field with data and source, against the tracing oracle
    err_c = float(
        np.abs(
            solution_case_c["u0_part"] + solution_case_c["f_part"] - solution_case_c["ref"]
        ).max()
    )
    assert err_c <= eps
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9 (solution networks)",
        elapsed < 300.0,
        f"(a) {err_a:.2e} (b) {err_b:.2e} (c) {err_c:.2e} all <= {eps}, {elapsed:.0f}s+fixture",
    )


def test_criterion_10_sign_resolution(solution_case_c):
    eps = 0.1
    plus = float(
        np.abs(
            solution_case_c["u0_part"] + solution_case_c["f_part"] - solution_case_c["ref"]
        ).max()
    )
    minus = float(
        np.abs(
            solution_case_c["u0_part"] - solution_case_c["f_part"] - solution_case_c["ref"]
        ).max()
    )
    ok = plus <= eps and minus > 10 * eps
    _report(
        "criterion 10 (source-sign resolution)",
        ok,
        f"plus-sign err {plus:.2e} <= {eps}; minus-sign err {minus:.2f} > {10 * eps}",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        problem={
            "field": {
                "type": "affine",
                "m": 1,
                "d_y": 4,
                "omega": [0.25] * 4,
                "components": [
                    {"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase": 0.7 * j}
                    for j in range(4)
                ],
            },
            "u0": {"kind": "hat", "center": 0.5, "width": 1.0},
            "f": None,
            "T_hat": 1.0,
            "domain": [[0.0, 1.0]],
        },
        eps_ladder=[0.1],
        n_samples=500,
        seed=31415,
        kind="char",
    )
    harness.run_convergence(cfg, out_dir=str(tmp_path / "run1"))
    harness.run_convergence(cfg, out_dir=str(tmp_path / "run2"))
    a = (tmp_path / "run1" / "convergence.csv").read_bytes()
    b = (tmp_path / "run2" / "convergence.csv").read_bytes()
    _report("criterion 11 (determinism)", a == b, "same-seed CSVs byte-identical")
