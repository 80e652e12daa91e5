"""charflow benchmark: one certified rung per workload, timed stage by stage.

Run from the root of a checkout (nothing is installed; ``src/`` is put
on the import path):

    python3 perfbench/run.py --workload char_ladder --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

A rung calls the package's public functions in the order and with the
settings of ``harness._build_and_certify``: build the net, evaluate it
on the query batch, run the RK4 oracle with ``OdeConfig(steps=32,
tol=eps/100)``, then the Lipschitz certificate.  Rungs repeat, on the
same seeded inputs, until ``--seconds`` have passed; the end-to-end
metrics are medians over them.  ``--trace 1`` instead runs one traced
rung, then one untraced rung, and reports the per-layer metrics.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads: the closed loop has one
# caller, and numpy's OpenBLAS would otherwise start up to 64 threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Workload:
    """One certified rung.  ``expect`` pins size, depth and predicted
    exactly: evaluation work must leave the complexity columns of the
    CSV unchanged."""

    config: str  # experiment config holding the problem, relative to ROOT
    kind: str  # "char" or "solution"
    eps: float
    n_query: int  # query batch for eval and the oracle
    n_cert: int  # samples of the Lipschitz certificate
    n_probe: int  # fixed accuracy probe, drawn with the config's own seed
    setup_builds: int  # builds before the rungs, for a steady setup_s
    expect: dict


WORKLOADS = {
    # The convergence-ladder rung of ROADMAP aim 1: s=1 np.interp
    # lookups, einsum/cumsum sweeps, one large forward chain per eval,
    # and the memory-heavy case.
    "char_ladder": Workload(
        "configs/affine_m1_dy4.json", "char", 0.05, 10_000, 2000, 2000, 20,
        {"size": 102441335, "depth": 78, "predicted": 646236.3069255968},
    ),
    # Build-heavy (interpolant size accounting) and 36 small backward
    # chains per query batch instead of one large one.
    "solution": Workload(
        "configs/solution_affine.json", "solution", 0.1, 200, 300, 100, 2,
        {"size": 25355372052, "depth": 91, "predicted": 1869031.403195293},
    ),
    # m=2: tensor-hat interpolants through ReluNetwork templates, no
    # np.interp at all.  No config of the repo reaches m >= 2.
    "char_m2": Workload(
        "perfbench/problems/char_m2.json", "char", 0.2, 150, 50, 50, 20,
        {"size": 20487070889, "depth": 294, "predicted": 601240.310388622},
    ),
}

END_TO_END_UNITS = {
    "rung_s": "s",
    "setup_s": "s",
    "eval_samples_per_s": "1/s",
    "certify_s": "s",
    "peak_rss_mb": "MB",
    "measured_err": "1",
}


def _import_charflow():
    src = ROOT / "src"
    if not (src / "charflow" / "__init__.py").is_file():
        raise SystemExit(f"charflow sources not found under {src}")
    sys.path.insert(0, str(src))
    import numpy as np
    from charflow import catalog, harness, lip_interp, oracle, relu_net
    from charflow import transport_core

    return {
        "np": np,
        "catalog": catalog,
        "harness": harness,
        "lip_interp": lip_interp,
        "oracle": oracle,
        "relu_net": relu_net,
        "transport_core": transport_core,
    }


class OracleProbe:
    """Records every Richardson estimate of ``oracle.rk4_char`` against
    its tolerance.  ``solution_oracle`` discards the estimate, so the
    check needs this wrapper on every run, traced or not."""

    def __init__(self, oracle):
        self.ratios = []
        original = oracle.rk4_char

        def rk4_char(field, t0, t1, x, y, config=oracle.OdeConfig(), dense=False):
            result = original(field, t0, t1, x, y, config, dense)
            self.ratios.append(result[1] / config.tol)
            return result

        oracle.rk4_char = rk4_char

    def take(self):
        ratios, self.ratios = self.ratios, []
        return max(ratios)


class Bench:
    def __init__(self, wl, seed, mods):
        self.wl = wl
        self.seed = seed
        self.np = mods["np"]
        self.tc = mods["transport_core"]
        self.oracle = mods["oracle"]
        with open(ROOT / wl.config) as fh:
            doc = json.load(fh)
        self.problem = self.tc.problem_from_dict(doc["problem"])
        self.probe_seed = doc["seed"]
        self.est_probe = OracleProbe(self.oracle)

    def build(self):
        tc, wl = self.tc, self.wl
        if wl.kind == "char":
            return tc.build_char_net(self.problem, wl.eps, direction="forward")
        return tc.build_solution_net(self.problem, wl.eps)

    def check_build(self, net):
        """Failures of the pinned complexity quantities, as strings."""
        got = {k: net.report[k] for k in ("size", "depth", "predicted")}
        return [
            f"{k}={got[k]!r} (expected {self.wl.expect[k]!r})"
            for k in got
            if got[k] != self.wl.expect[k]
        ]

    def _against_oracle(self, net, t, x, y, stage):
        """Evaluate and compare with the oracle: (err, est/tol, failures)."""
        np, oracle, wl = self.np, self.oracle, self.wl
        approx = stage("eval", net.eval, t, x, y)
        ocfg = oracle.OdeConfig(steps=32, tol=wl.eps / 100.0)
        if wl.kind == "char":
            ref, _ = stage(
                "oracle", oracle.rk4_char, net.oracle_field(), np.zeros(len(t)), t, x, y, ocfg
            )
        else:
            ref = stage("oracle", oracle.solution_oracle, self.problem, t, x, y, ocfg)
        err = float(np.max(np.abs(approx - ref)))
        est_over_tol = self.est_probe.take()
        failures = []
        if not err <= wl.eps:
            failures.append(f"err={err!r} > eps={wl.eps}")
        if not est_over_tol <= 1.0:
            failures.append(f"oracle estimate is {est_over_tol:.3g} x tol")
        return err, est_over_tol, failures

    def probe_accuracy(self, net):
        """Error on the fixed probe batch drawn with the config's seed."""
        t, x, y = self.problem.sample_inputs(self.wl.n_probe, self.probe_seed)
        return self._against_oracle(net, t, x, y, _call)

    def rung(self, span):
        """One certified rung: (stage times, err, est/tol, failures)."""
        times = {}

        def stage(name, fn, *args, **kwargs):
            start = perf_counter()
            with span(f"stage.{name}"):
                out = fn(*args, **kwargs)
            times[name] = perf_counter() - start
            return out

        start = perf_counter()
        net = stage("build", self.build)
        t, x, y = self.problem.sample_inputs(self.wl.n_query, self.seed)
        err, est_over_tol, failures = self._against_oracle(net, t, x, y, stage)
        cert = stage(
            "certify",
            self.tc.lipschitz_certificate,
            net if self.wl.kind == "char" else net.back_net,
            n_samples=self.wl.n_cert,
            seed=self.seed,
        )
        times["rung"] = perf_counter() - start

        failures += self.check_build(net)
        if not (cert["pass_xy"] and cert["pass_t"]):
            failures.append(f"certificate failed: lip_xy={cert['lip_xy']} lip_t={cert['lip_t']}")
        return times, err, est_over_tol, failures


def _call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _nospan(name):
    return nullcontext()


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    mods = _import_charflow()
    bench = Bench(wl, seed, mods)

    errors = []
    builds = []
    for _ in range(wl.setup_builds):
        start = perf_counter()
        net = bench.build()
        builds.append(perf_counter() - start)
        errors += bench.check_build(net)
    rungs = []

    def rung(span=_nospan):
        times, err, est, failures = bench.rung(span)
        # Builds are deterministic and every rung of a run sees the same
        # inputs, so the error must repeat bit for bit.
        if rungs and err != rungs[0][1]:
            failures.append(f"err={err!r} differs from the first rung's {rungs[0][1]!r}")
        rungs.append((times, err, est, failures))
        return times

    if trace:
        from spans import Tracer, layer_metrics

        del net
        # The traced rung goes first, so that ru_maxrss growth inside
        # char_eval is not hidden by an earlier evaluation's peak.
        tracer = Tracer()
        tracer.install(mods)
        try:
            traced = rung(tracer.span)
        finally:
            tracer.uninstall()
        untraced = rung()
        metrics = layer_metrics(tracer, wl.n_query)
        metrics["oracle.est_over_tol"] = (rungs[0][2], "ratio")
        metrics["trace.untraced_rung_s"] = (untraced["rung"], "s")
        metrics["trace.traced_rung_s"] = (traced["rung"], "s")
        metrics["trace.overhead_s"] = (traced["rung"] - untraced["rung"], "s")
    else:
        measured_err, _, bad = bench.probe_accuracy(net)
        errors += bad
        del net
        # Start another rung only if it should end within the run.
        deadline = perf_counter() + seconds
        while not rungs or perf_counter() + statistics.median(
            r[0]["rung"] for r in rungs
        ) <= deadline:
            builds.append(rung()["build"])
        times = [r[0] for r in rungs]

        def med(key):
            return statistics.median(t[key] for t in times)

        metrics = {
            "rung_s": med("rung"),
            "setup_s": statistics.median(builds),
            "eval_samples_per_s": wl.n_query / med("eval"),
            "certify_s": statistics.median(t["oracle"] + t["certify"] for t in times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "measured_err": measured_err,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        print(f"{name}: rungs {[round(t['rung'], 3) for t in times]}, builds {len(builds)}")
    failed = sum(1 for r in rungs if r[3])
    for line in errors + [f for r in rungs for f in r[3]]:
        print(f"FAIL {name}: {line}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(rungs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args):
    """Each workload in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            raise SystemExit(f"{name}: exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for key, val in result["metrics"].items():
        print(f"{key:50s} {val['value']:<24.10g} {val['unit']}")
    if args.trace == 0:
        frac = result["failed"] / result["attempted"]
        print(f"{'failed_frac':50s} {frac:<24.10g} ratio")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
