"""Experiment driver: convergence ladders, scaling studies, certificates.

Subcommands: ``convergence`` (eps ladder -> CSV + SVG), ``dy-scaling``
(parametric-dimension sweep), ``lipschitz`` (stability certificates),
``properties`` (quadrature / contraction / algebra invariant suites),
``calibrate`` (interpolation constants).  CSV rows follow the fixed
header and reproduce byte-identically for a fixed seed; the canonical
config hash lands in a sidecar meta file.  Exit code 0 only if every
non-SKIP row passes.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import catalog, lip_interp, oracle, transport_core as tc
from .relu_net import rho_values

CSV_HEADER = ["eps", "measured_err", "size", "depth", "predicted", "lip_xy", "lip_t", "status", "seed"]


@dataclass
class ExperimentConfig:
    problem: dict
    eps_ladder: list
    n_samples: int = 2000
    seed: int = 12345
    kind: str = "char"
    direction: str = "forward"
    d_y_list: list = field(default_factory=lambda: [2, 4, 8])
    component_family: dict = None

    def __post_init__(self):
        if len(self.eps_ladder) >= 2 and not all(
            a > b for a, b in zip(self.eps_ladder, self.eps_ladder[1:])
        ):
            raise ValueError("eps ladder must be strictly decreasing")
        if self.kind not in ("char", "solution"):
            raise ValueError("kind must be 'char' or 'solution'")

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            doc = json.load(fh)
        return cls(**doc)

    def canonical_hash(self):
        blob = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class CertReport:
    eps: float
    measured_err: float
    size: int
    depth: int
    predicted: float
    lip_xy: float
    lip_t: float
    status: str
    seed: int
    wall_time: float = 0.0

    def csv_row(self):
        return [
            repr(float(self.eps)),
            repr(float(self.measured_err)) if math.isfinite(self.measured_err) else "nan",
            str(int(self.size)),
            str(int(self.depth)),
            repr(float(self.predicted)),
            repr(float(self.lip_xy)),
            repr(float(self.lip_t)),
            self.status,
            str(int(self.seed)),
        ]


# ---------------------------------------------------------------------------
# building and certification


def _build(problem, eps, cfg):
    """The net of one rung and the characteristic net its certificate checks.

    That is the characteristic net itself, or a solution net's backward
    characteristic net.
    """
    if cfg.kind == "char":
        net = tc.build_char_net(problem, eps, direction=cfg.direction)
        return net, net
    net = tc.build_solution_net(problem, eps)
    return net, net.back_net


def _build_and_certify(problem, eps, cfg):
    """One ladder rung: build, measure against the matching oracle, certify."""
    t0 = time.time()
    try:
        net, char_net = _build(problem, eps, cfg)
    except tc.ResourceCeiling as exc:
        return CertReport(
            eps, math.nan, 0, 0, exc.predicted_cost, 0.0, 0.0, "SKIP", cfg.seed
        )
    t, x, y = problem.sample_inputs(cfg.n_samples, cfg.seed)
    ocfg = oracle.OdeConfig(steps=32, tol=eps / 100.0)
    approx = net.eval(t, x, y)
    try:
        if cfg.kind == "char":
            ref, _ = oracle.rk4_char(
                net.oracle_field(), np.zeros(len(t)), t, x, y, ocfg
            )
        else:
            ref = oracle.solution_oracle(problem, t, x, y, ocfg)
    except oracle.OracleToleranceError:
        err = math.nan  # no trusted reference, so the rung cannot pass
    else:
        err = float(np.max(np.abs(approx - ref)))
    cert = tc.lipschitz_certificate(char_net, n_samples=2000, seed=cfg.seed)
    status = "PASS" if (err <= eps and cert["pass_xy"] and cert["pass_t"]) else "FAIL"
    return CertReport(
        eps, err, net.report["size"], net.report["depth"], net.report["predicted"],
        cert["lip_xy"], cert["lip_t"], status, cfg.seed,
        wall_time=time.time() - t0,
    )


def run_convergence(cfg, out_dir=None):
    """Build the ladder, write CSV (+ SVG), return the reports."""
    problem = tc.problem_from_dict(cfg.problem)
    reports = [_build_and_certify(problem, eps, cfg) for eps in cfg.eps_ladder]
    if out_dir is not None:
        _write_outputs(cfg, reports, out_dir, "convergence")
    return reports


def run_dy_scaling(cfg, out_dir=None):
    """Fixed eps, varying parametric dimension; returns (reports, ratios)."""
    eps = cfg.eps_ladder[0]
    reports = []
    for d_y in cfg.d_y_list:
        problem = tc.problem_from_dict(problem_dict_for_dy(cfg, d_y))
        reports.append(_build_and_certify(problem, eps, cfg))
    sizes = [r.size for r in reports]
    ratios = [b / a for a, b in zip(sizes, sizes[1:]) if a > 0]
    if out_dir is not None:
        _write_outputs(cfg, reports, out_dir, "dy_scaling")
    return reports, ratios


def problem_dict_for_dy(cfg, d_y):
    """Instantiate the component family at a parametric dimension.

    Keeps A = 1 by weighting omega_j = 1/d_y, so the macro grid and all
    tolerances are identical across the sweep.
    """
    fam = cfg.component_family or {
        "kind": "cosine",
        "amp": 1.0,
        "freq": 0.2,
        "phase_step": 0.7,
    }
    comps = []
    for j in range(d_y):
        spec = {k: v for k, v in fam.items() if k != "phase_step"}
        if fam.get("kind") == "cosine":
            spec["phase"] = j * fam.get("phase_step", 0.7)
        comps.append(spec)
    doc = dict(cfg.problem)
    doc["field"] = dict(cfg.problem["field"])
    doc["field"]["d_y"] = d_y
    doc["field"]["components"] = comps
    doc["field"]["omega"] = [1.0 / d_y] * d_y
    return doc


def fit_rate(rows):
    """log2(size) vs log2(1/eps) least squares: {slope, intercept, residual}.

    ``rows`` is a CSV path or a list of (eps, size) pairs; needs >= 3
    non-SKIP entries.
    """
    if isinstance(rows, (str,)):
        pairs = []
        with open(rows) as fh:
            for rec in csv.DictReader(fh):
                if rec["status"] != "SKIP":
                    pairs.append((float(rec["eps"]), float(rec["size"])))
    else:
        pairs = [(float(e), float(s)) for e, s in rows]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 rungs")
    xs = np.log2([1.0 / e for e, _ in pairs])
    ys = np.log2([s for _, s in pairs])
    if len(set(xs)) < 2:
        raise ValueError("degenerate ladder")
    A = np.vstack([xs, np.ones_like(xs)]).T
    coef, res, *_ = np.linalg.lstsq(A, ys, rcond=None)
    residual = float(np.sqrt(res[0] / len(xs))) if len(res) else 0.0
    return {"slope": float(coef[0]), "intercept": float(coef[1]), "residual": residual}


# ---------------------------------------------------------------------------
# invariant property suites (shared by the CLI and the test suite)


def check_quadrature_properties(seed=0, n_functions=100):
    """Quadrature and gate bounds on random piecewise-linear functions.

    For each random test function the midpoint-gate quadrature must obey
    the Lipschitz bound |I|^2 L' / (2q) and the average-variant bound
    |I| sup|g| / (2q); integrals come from the exact closed form of the
    piecewise-linear integrand (independent oracle).  Gate identities
    (ramp sum and time contraction) are checked to 1e-12.
    """
    rng = np.random.default_rng(seed)
    violations = 0
    worst = {"lip_margin": math.inf, "avg_margin": math.inf, "gate_err": 0.0}
    for _ in range(n_functions):
        lo = rng.uniform(-1, 1)
        length = rng.uniform(0.3, 2.0)
        hi = lo + length
        q = int(rng.integers(3, 40))
        knots = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, 6)]))
        vals = rng.uniform(-2, 2, knots.size)
        lip = float(np.max(np.abs(np.diff(vals) / np.maximum(np.diff(knots), 1e-12))))
        sup = float(np.max(np.abs(vals)))

        def g(s):
            return np.interp(s, knots, vals)

        def exact_integral(t):
            # closed-form integral of the piecewise-linear g on [lo, t]
            ks = np.concatenate([knots[knots < t], [t]])
            ks = ks[ks >= lo]
            vs = np.interp(ks, knots, vals)
            return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ks)))

        cell = length / q
        xi = lo + (np.arange(q) + 0.5) * cell
        g_xi = g(xi)
        g_avg = np.array(
            [
                (exact_integral(lo + (i + 1) * cell) - exact_integral(lo + i * cell))
                / cell
                for i in range(q)
            ]
        )
        for t in rng.uniform(lo, hi, 5):
            rho = rho_values((lo, hi), q, t)
            lhs = exact_integral(t)
            err_lip = abs(lhs - float(rho @ g_xi))
            err_avg = abs(lhs - float(rho @ g_avg))
            bound_lip = length**2 * lip / (2 * q)
            bound_avg = length * sup / (2 * q)
            if err_lip > bound_lip * (1 + 1e-9) or err_avg > bound_avg * (1 + 1e-9):
                violations += 1
            worst["lip_margin"] = min(worst["lip_margin"], bound_lip - err_lip)
            worst["avg_margin"] = min(worst["avg_margin"], bound_avg - err_avg)
        # gate identities
        t1, t2 = rng.uniform(lo, hi, 2)
        rho1, rho2 = rho_values((lo, hi), q, t1), rho_values((lo, hi), q, t2)
        sum_err = abs(rho1.sum() - np.clip(t1 - lo, 0, length))
        contraction = np.abs(rho1 - rho2).sum() - abs(t1 - t2)
        worst["gate_err"] = max(worst["gate_err"], sum_err, contraction)
    return {"violations": violations, **worst, "ok": violations == 0 and worst["gate_err"] <= 1e-12}


def check_contraction(seed=0, n_seeds=50):
    """Two fixed-point sweeps from distinct seeds contract by >= 2."""
    rng = np.random.default_rng(seed)
    comps = [
        catalog.make_component({"kind": "cosine", "amp": 1.0, "freq": 1.0, "phase": 0.3})
    ]
    conv = tc.AffineConvection(1, 1, [1.0], comps)
    grid = tc.MacroGrid(1.0, conv.norm)
    interval = grid.slab(0)
    field = lambda t, x, y: conv.eval(t, x, y)
    worst = 0.0
    for _ in range(n_seeds):
        x = rng.uniform(0, 1, (1, 1))
        y = rng.uniform(-1, 1, (1, 1))
        za = rng.uniform(-0.5, 1.5, (1, 1))
        zb = rng.uniform(-0.5, 1.5, (1, 1))
        ts = np.linspace(interval[0], interval[1], 33)
        pa = _sweep_from(field, interval, x, y, za)
        pb = _sweep_from(field, interval, x, y, zb)
        num = max(abs(pa(t) - pb(t)) for t in ts)
        worst = max(worst, num / abs(za - zb)[0, 0])
    return {"max_ratio": float(worst), "ok": worst <= 0.5 + 1e-9}


def _sweep_from(field, interval, x, y, z_const):
    lo, hi = interval
    q = 512
    cell = (hi - lo) / q
    xs = lo + (np.arange(q) + 0.5) * cell
    vals = field(xs, np.full((q, 1), z_const[0, 0]), np.repeat(y, q, axis=0))[:, 0]

    def at(t):
        rho = rho_values((lo, hi), q, t)
        return x[0, 0] + float(rho @ vals)

    return at


def check_algebra(seed=0, n_reps=50):
    """Complexity additivity and regularizer ordering on random chains."""
    from . import comp_calculus as cc

    rng = np.random.default_rng(seed)
    box = [[0.0, 1.0]]
    failures = 0
    for _ in range(n_reps):
        n1, n2 = rng.integers(1, 4, 2)
        r1 = _random_rep(rng, int(n1))
        r2 = _random_rep(rng, int(n2))
        comp = cc.compose_reps(r2, r1)
        if cc.complexity(comp) != cc.complexity(r1) + cc.complexity(r2):
            failures += 1
        srep = cc.sum_reps(r1, r1)
        if cc.complexity(srep) != 2 * cc.complexity(r1):
            failures += 1
        low_o, up_o = cc.comp_norm_interval(r1, cc.Regularizer("lip_factors"), box, 500, seed)
        low_f, up_f = cc.comp_norm_interval(r1, cc.Regularizer("lip_full"), box, 500, seed)
        n = len(r1.factors)
        if not (up_o <= up_f * (1 + 1e-12) and up_f <= max(1.0, up_o**n) * (1 + 1e-9)):
            failures += 1
    return {"failures": failures, "ok": failures == 0}


def _random_rep(rng, n_general):
    from . import comp_calculus as cc

    factors = []
    for _ in range(n_general):
        a, b = rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5)
        factors.append(
            cc.GenericFactor(
                lambda z, a=a, b=b: np.abs(a * z[:, :1] + b),
                1, 1, lip=abs(a), sup=abs(a) * 1.5 + abs(b), box=[[-1.0, 2.0]],
            )
        )
    factors.append(cc.LinearFactor([[float(rng.uniform(0.5, 2.0))]]))
    return cc.CompRep(factors)


# ---------------------------------------------------------------------------
# output plumbing


def _write_outputs(cfg, reports, out_dir, stem):
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    write_csv(csv_path, reports)
    meta = {
        "config_hash": cfg.canonical_hash(),
        "seed": cfg.seed,
        "kind": cfg.kind,
        "direction": cfg.direction,
    }
    with open(os.path.join(out_dir, f"{stem}.meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    rows = [r for r in reports if r.status != "SKIP"]
    if len(rows) >= 2:
        xs = [math.log2(1.0 / r.eps) for r in rows]
        write_svg_lines(
            os.path.join(out_dir, f"{stem}.svg"),
            xs,
            [[math.log2(max(r.size, 1)) for r in rows],
             [math.log2(max(r.predicted, 1e-300)) for r in rows]],
            ["measured log2 size", "predicted log2 size"],
            f"{stem}: log2 size vs log2(1/eps)",
        )
    return csv_path


def write_csv(path, reports):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow(r.csv_row())
    return path


def write_svg_lines(path, xs, ys_list, labels, title, width=640, height=420):
    """Minimal hand-rolled SVG polyline chart (no plotting dependency)."""
    pad = 50
    all_y = [y for ys in ys_list for y in ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(all_y), max(all_y)
    x_span = (x1 - x0) or 1.0
    y_span = (y1 - y0) or 1.0

    def sx(x):
        return pad + (x - x0) / x_span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / y_span * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
    ]
    for k, (ys, label) in enumerate(zip(ys_list, labels)):
        pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
        color = colors[k % len(colors)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width-pad}" y="{pad + 16*k}" text-anchor="end" '
            f'fill="{color}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return path


# ---------------------------------------------------------------------------
# CLI


def main(argv=None):
    parser = argparse.ArgumentParser(prog="charflow")
    sub = parser.add_subparsers(dest="command", required=True)
    config_commands = ("convergence", "dy-scaling", "lipschitz")
    for name in config_commands:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name != "lipschitz":  # the certificate writes no file
            p.add_argument("--out", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--kind", choices=["char", "solution"], default=None)
        p.add_argument(
            "--direction", choices=["forward", "backward"], default=None
        )
    p = sub.add_parser("properties")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("calibrate")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.command in config_commands:
        cfg = ExperimentConfig.from_file(args.config)
        for key in ("seed", "kind", "direction"):
            if getattr(args, key) is not None:
                setattr(cfg, key, getattr(args, key))

    statuses = []
    if args.command == "properties":
        for name, check in (
            ("quadrature", check_quadrature_properties),
            ("contraction", check_contraction),
            ("algebra", check_algebra),
        ):
            res = check(args.seed)
            statuses.append("PASS" if res["ok"] else "FAIL")
            print(f"{name}: {statuses[-1]} {res}")
    elif args.command == "calibrate":
        import os

        consts = lip_interp.calibrate_constants(args.seed)
        os.makedirs(args.out, exist_ok=True)
        path = f"{args.out}/calibration.json"
        with open(path, "w") as fh:
            json.dump(consts, fh, indent=2, sort_keys=True)
        print(f"calibration written to {path}: "
              f"c1={consts['c1']:.3g} c2={consts['c2']:.3g} c3={consts['c3']:.3g} C={consts['C']:.3g}")
    elif args.command == "convergence":
        reports = run_convergence(cfg, out_dir=args.out)
        for r in reports:
            print(
                f"eps={r.eps}: {r.status} err={r.measured_err:.3e} size={r.size} "
                f"lip_xy={r.lip_xy:.3g} lip_t={r.lip_t:.3g} ({r.wall_time:.1f}s)"
            )
        rows = [(r.eps, r.size) for r in reports if r.status != "SKIP"]
        if len(rows) >= 3:
            fit = fit_rate(rows)
            print(f"rate fit: slope={fit['slope']:.3f} intercept={fit['intercept']:.2f}")
        statuses = [r.status for r in reports]
    elif args.command == "dy-scaling":
        reports, ratios = run_dy_scaling(cfg, out_dir=args.out)
        for d_y, r in zip(cfg.d_y_list, reports):
            print(f"d_y={d_y}: {r.status} size={r.size} err={r.measured_err:.3e}")
        print(f"size ratios per step: {[round(x, 3) for x in ratios]}")
        statuses = [r.status for r in reports]
    else:
        problem = tc.problem_from_dict(cfg.problem)
        for eps in cfg.eps_ladder:
            try:
                _, char_net = _build(problem, eps, cfg)
            except tc.ResourceCeiling as exc:
                statuses.append("SKIP")
                print(f"eps={eps}: SKIP (predicted cost {exc.predicted_cost:.3g})")
                continue
            cert = tc.lipschitz_certificate(char_net, seed=cfg.seed)
            statuses.append("PASS" if (cert["pass_xy"] and cert["pass_t"]) else "FAIL")
            print(
                f"eps={eps}: {statuses[-1]} lip_xy={cert['lip_xy']:.4g} "
                f"(<= {cert['xy_threshold']:.4g}) lip_t={cert['lip_t']:.4g} "
                f"(<= {cert['t_threshold']:.4g})"
            )
    # SKIP rows (builds refused by the resource ceiling) never fail a run
    return 1 if "FAIL" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
