import json
from pathlib import Path

import numpy as np
import pytest

from charflow import budget, harness
from charflow import transport_core as tc

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


SMOKE_PROBLEM = {
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


def smoke_config(**over):
    base = dict(
        problem=SMOKE_PROBLEM,
        eps_ladder=[0.2, 0.1],
        n_samples=500,
        seed=7,
        kind="char",
    )
    base.update(over)
    return harness.ExperimentConfig(**base)


def config_file(tmp_path, **over):
    """Write a one-rung smoke config for the CLI; returns its path."""
    doc = dict(problem=SMOKE_PROBLEM, eps_ladder=[0.2], n_samples=200, seed=5, kind="char")
    doc.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFitRate:
    def test_synthetic_square_law(self):
        rows = [(0.5**k, (1 / 0.5**k) ** 2) for k in range(1, 6)]
        fit = harness.fit_rate(rows)
        assert fit["slope"] == pytest.approx(2.0, abs=1e-9)
        assert fit["residual"] <= 1e-9

    def test_needs_three_rungs(self):
        with pytest.raises(ValueError):
            harness.fit_rate([(0.1, 10), (0.05, 20)])

    def test_degenerate_ladder(self):
        with pytest.raises(ValueError):
            harness.fit_rate([(0.1, 10), (0.1, 20), (0.1, 30)])

    def test_reads_csv(self, tmp_path):
        cfg = smoke_config(eps_ladder=[0.4, 0.2, 0.1])
        reports = harness.run_convergence(cfg, out_dir=str(tmp_path))
        fit = harness.fit_rate(str(tmp_path / "convergence.csv"))
        assert np.isfinite(fit["slope"])


class TestConvergence:
    def test_smoke_all_pass(self):
        reports = harness.run_convergence(smoke_config())
        assert all(r.status == "PASS" for r in reports)
        assert all(r.measured_err <= r.eps for r in reports)

    def test_deterministic_csv(self, tmp_path):
        cfg = smoke_config()
        harness.run_convergence(cfg, out_dir=str(tmp_path / "a"))
        harness.run_convergence(cfg, out_dir=str(tmp_path / "b"))
        a = (tmp_path / "a" / "convergence.csv").read_bytes()
        b = (tmp_path / "b" / "convergence.csv").read_bytes()
        assert a == b

    def test_csv_header_fixed(self, tmp_path):
        harness.run_convergence(smoke_config(), out_dir=str(tmp_path))
        first = (tmp_path / "convergence.csv").read_text().splitlines()[0]
        assert first == "eps,measured_err,size,depth,predicted,lip_xy,lip_t,status,seed"

    def test_skip_on_resource_refusal(self):
        cfg = smoke_config(eps_ladder=[0.1, 1e-8])
        reports = harness.run_convergence(cfg)
        assert reports[0].status == "PASS"
        assert reports[1].status == "SKIP"
        assert reports[1].predicted > 0  # refusal carries the predicted cost

    def test_skip_before_any_table(self, monkeypatch):
        # eps = 0.002 on the m = 2 config asks for 9720 grid cells per
        # axis, 9721^2 nodes per table: the schedule refuses it
        cfg = harness.ExperimentConfig.from_file(CONFIG_DIR / "cosine_m2_dy2.json")
        problem = tc.problem_from_dict(cfg.problem)
        grid = tc.MacroGrid(problem.T_hat, problem.convection.norm)
        with pytest.raises(tc.ResourceCeiling, match="9720 cells per axis") as exc:
            budget.schedule(0.002, grid, problem, budget.AFFINE)
        assert exc.value.predicted_cost == 9721**2
        assert tc.ResourceCeiling is tc.lip_interp.ResourceCeiling

        def no_tables(*args):
            raise AssertionError("interpolant tables built")

        monkeypatch.setattr(tc, "SlabInterpolants", no_tables)
        report = harness._build_and_certify(problem, 0.002, cfg)
        assert report.status == "SKIP"
        assert report.predicted == 9721**2

    def test_fail_when_oracle_misses_tolerance(self, monkeypatch):
        # an oracle that cannot meet its tolerance gives no trusted reference
        problem = dict(SMOKE_PROBLEM)
        problem["field"] = dict(
            SMOKE_PROBLEM["field"],
            components=[
                {"kind": "cosine", "amp": 1.0, "freq": 1.0, "phase": p} for p in (0.0, 0.7)
            ],
        )
        ode_config = harness.oracle.OdeConfig
        monkeypatch.setattr(
            harness.oracle,
            "OdeConfig",
            lambda **kw: ode_config(steps=4, tol=1e-30, max_steps=16),
        )
        (report,) = harness.run_convergence(smoke_config(problem=problem, eps_ladder=[0.2]))
        assert report.status == "FAIL"
        assert np.isnan(report.measured_err)

    def test_meta_sidecar(self, tmp_path):
        cfg = smoke_config()
        harness.run_convergence(cfg, out_dir=str(tmp_path))
        meta = json.loads((tmp_path / "convergence.meta.json").read_text())
        assert meta["seed"] == cfg.seed
        assert meta["config_hash"] == cfg.canonical_hash()

    def test_svg_written(self, tmp_path):
        harness.run_convergence(smoke_config(), out_dir=str(tmp_path))
        svg = (tmp_path / "convergence.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg


class TestSolutionKind:
    def test_solution_rung(self):
        problem = dict(SMOKE_PROBLEM)
        problem["f"] = {"kind": "constant", "value": 1.0}
        cfg = smoke_config(problem=problem, eps_ladder=[0.2], n_samples=100, kind="solution")
        reports = harness.run_convergence(cfg)
        assert reports[0].status == "PASS"
        assert reports[0].measured_err <= 0.2


class TestDyScaling:
    def test_baseline_and_ratios(self):
        cfg = smoke_config(
            eps_ladder=[0.2],
            d_y_list=[1, 2],
            component_family={"kind": "cosine", "amp": 1.0, "freq": 0.2, "phase_step": 0.7},
        )
        reports, ratios = harness.run_dy_scaling(cfg)
        assert len(reports) == 2 and all(r.status == "PASS" for r in reports)
        assert ratios[0] > 1.0

    def test_same_seed_determinism(self):
        cfg = smoke_config(eps_ladder=[0.2], d_y_list=[2, 4])
        r1, _ = harness.run_dy_scaling(cfg)
        r2, _ = harness.run_dy_scaling(cfg)
        assert [r.csv_row() for r in r1] == [r.csv_row() for r in r2]


class TestConfig:
    def test_ladder_must_decrease(self):
        with pytest.raises(ValueError):
            smoke_config(eps_ladder=[0.1, 0.2])

    def test_kind_validated(self):
        with pytest.raises(ValueError):
            smoke_config(kind="nonsense")

    def test_hash_stable_and_sensitive(self):
        c1, c2 = smoke_config(), smoke_config()
        assert c1.canonical_hash() == c2.canonical_hash()
        assert smoke_config(seed=8).canonical_hash() != c1.canonical_hash()


class TestShippedConfigs:
    def test_every_config_loads(self):
        assert CONFIGS
        for path in CONFIGS:
            cfg = harness.ExperimentConfig.from_file(path)
            problem = tc.problem_from_dict(cfg.problem)
            assert problem.d_y == cfg.problem["field"]["d_y"], path.name


class TestPropertySuites:
    def test_quadrature(self):
        out = harness.check_quadrature_properties(seed=1)
        assert out["ok"] and out["violations"] == 0
        assert out["gate_err"] <= 1e-12

    def test_contraction(self):
        assert harness.check_contraction(seed=1)["ok"]

    def test_algebra(self):
        assert harness.check_algebra(seed=1)["ok"]


class TestCli:
    def test_properties_command(self, capsys):
        assert harness.main(["properties", "--seed", "2"]) == 0

    def test_convergence_command(self, tmp_path, capsys):
        cfg_path = config_file(tmp_path, n_samples=300)
        rc = harness.main(["convergence", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "convergence.csv").exists()

    def test_dy_scaling_command(self, tmp_path, capsys):
        cfg_path = config_file(tmp_path, d_y_list=[1, 2])
        rc = harness.main(["dy-scaling", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["d_y=1", "d_y=2", "size ratios per step"]
        assert all(" PASS " in line for line in lines[:2])
        rows = (tmp_path / "out" / "dy_scaling.csv").read_text().splitlines()
        assert len(rows) == 3  # header plus one row per d_y

    def test_lipschitz_command(self, tmp_path):
        assert harness.main(["lipschitz", "--config", config_file(tmp_path)]) == 0

    def test_lipschitz_command_skips_rung_above_ceiling(self, tmp_path, capsys):
        # eps 1e-8 needs q = 1381699437 slab cells: a SKIP line, exit 0
        doc = json.loads((CONFIG_DIR / "constant_smoke.json").read_text())
        doc["eps_ladder"] = [0.1, 1e-8]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert harness.main(["lipschitz", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("eps=0.1: PASS ")
        assert lines[1].startswith("eps=1e-08: SKIP (predicted cost ")

    def test_lipschitz_command_certifies_solution_back_net(self, tmp_path, monkeypatch):
        certified = []
        certify = tc.lipschitz_certificate

        def record(net, **kwargs):
            certified.append(net)
            return certify(net, **kwargs)

        monkeypatch.setattr(tc, "lipschitz_certificate", record)
        cfg_path = config_file(tmp_path)
        assert harness.main(["lipschitz", "--config", cfg_path, "--kind", "solution"]) == 0
        assert [net.direction for net in certified] == ["backward"]
        with pytest.raises(SystemExit):
            harness.main(["lipschitz", "--config", cfg_path, "--out", str(tmp_path)])

    def test_calibrate_command(self, tmp_path):
        assert harness.main(["calibrate", "--out", str(tmp_path), "--seed", "1"]) == 0
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert {"c1", "c2", "c3", "C", "c_star", "evidence"} <= set(doc)
