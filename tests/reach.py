"""Check that every function in ``src/charflow`` is on a production path.

Run from the root of a checkout, with Python 3.11 or later (it matches
code objects by their qualified names):

    PYTHONPATH=src python tests/reach.py

In one process under ``sys.setprofile`` it runs

- every ``python -m charflow ...`` command of the CI workflow
  (``.github/workflows/tier1.yml``), parsed from the file so that the two
  lists cannot drift, with each ``--out`` moved to a temporary directory;
- ``run_workload`` of ``perfbench/run.py`` for each workload, at one
  second, untraced and traced;
- ``tests/test_acceptance.py``.

It exits 1 if a function or method defined in ``src/charflow`` is reached
by none of them and ``ALLOWED`` does not name it, or if an ``ALLOWED``
entry is reached or names nothing.  Test-only reference code belongs in
``tests/reference.py``; code that a later change will put on a path is
allowlisted with that reason.  (Nested functions and lambdas are not
checked: they run when the function that makes them does.)
"""

import ast
import contextlib
import io
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "charflow"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"

GENERAL = "general fields: problem files cannot express a GeneralConvection yet"
REFUSAL = "refusal: no production run exceeds a ceiling or misses a tolerance"

# unreached on purpose: "module.qualname" -> the reason
ALLOWED = {
    **dict.fromkeys(
        [
            "budget._general_complexity",
            "budget._general_thresholds",
            "comp_calculus.GenericFactor.s_inf",
            "comp_calculus.GrowthFunction.__call__",
            "comp_calculus.GrowthFunction.__post_init__",
            "comp_calculus.IdentityFactor.complexity",
            "comp_calculus.IdentityFactor.eval",
            "comp_calculus.IdentityFactor.s_inf",
            "comp_calculus.ImplantedFactor.complexity",
            "comp_calculus.ImplantedFactor.s_inf",
            "comp_calculus.LinearFactor.s_inf",
            "comp_calculus.MultilinearFactor.complexity",
            "comp_calculus.MultilinearFactor.eval",
            "comp_calculus.MultilinearFactor.s_inf",
            "comp_calculus.ParallelFactor.eval",
            "comp_calculus.ParallelFactor.lip",
            "comp_calculus.ParallelFactor.s_inf",
            "comp_calculus.ParallelFactor.sup",
            "comp_calculus.eval_width",
            "comp_calculus.gamma_inverse",
            "comp_calculus.s_infinity",
            "transport_core.GeneralConvection.__init__",
            "transport_core.GeneralConvection.eval",
            "transport_core.GeneralConvection.norm",
            "transport_core.GeneralConvection.time_independent",
            "transport_core.GeneralSlabNet.__init__",
            "transport_core.GeneralSlabNet._sweep_plan",
            "transport_core.GeneralSlabNet.chain",
            "transport_core.GeneralSlabNet.depth",
            "transport_core.GeneralSlabNet.interpolant_size",
            # the states of a slab that sweeps in x: the general slab's
            "transport_core.SlabNet._states",
        ],
        GENERAL,
    ),
    "catalog.gauss_rule": "time-dependent fields: problem files cannot express one yet",
    "lip_interp.SampledFunction.validate": "declared bounds are not yet checked at build time",
    "lip_interp.ResourceCeiling.__init__": REFUSAL,
    "lip_interp.GridTooCoarse.__init__": REFUSAL,
    "oracle.OracleToleranceError.__init__": REFUSAL,
    "oracle._sweep": "runs only when the oracle's first Richardson pair misses its tolerance",
    "lip_interp.InterpolantNet.size": "read only by the traced benchmark's span of that name",
}


def defined():
    """``module.qualname`` of every function and method in ``src/charflow``,
    mapped to its (file, qualname)."""
    found = {}

    def walk(body, path, prefix, module):
        for node in body:
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, prefix + node.name + ".", module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                found[f"{module}.{qualname}"] = (str(path), qualname)

    for path in sorted(SRC.resolve().glob("*.py")):
        walk(ast.parse(path.read_text()).body, path, "", path.stem)
    return found


def ci_commands():
    """The argument lists of the workflow's ``python -m charflow`` commands,
    each once."""
    commands = []
    for line in WORKFLOW.read_text().splitlines():
        match = re.search(r"python -m charflow (.+)$", line)
        if match:
            argv = shlex.split(match.group(1))
            if argv not in commands:
                commands.append(argv)
    if not commands:
        raise SystemExit(f"no charflow command found in {WORKFLOW}")
    return commands


def run_cli(out_dir):
    from charflow import harness

    failed = []
    for argv in ci_commands():
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv = argv[:i] + [str(Path(out_dir) / argv[i])] + argv[i + 1 :]
        with contextlib.redirect_stdout(io.StringIO()):
            code = harness.main(argv)
        print(f"charflow {' '.join(argv)}: exit {code}")
        if code:
            failed.append(argv)
    return failed


def run_benchmark():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    from charflow import oracle

    failed = []
    for name in run.WORKLOADS:
        for trace in (0, 1):
            # each run wraps oracle.rk4_char for its probe; unwrap it after
            rk4_char = oracle.rk4_char
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    result = run.run_workload(name, 1, 1.0, trace)
            finally:
                oracle.rk4_char = rk4_char
            print(f"perfbench {name} trace {trace}: correct {result['correct']}")
            if not result["correct"]:
                failed.append((name, trace))
    return failed


def run_acceptance():
    import pytest

    code = pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]
    )
    return [] if code == 0 else [f"pytest exit {int(code)}"]


def main():
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    failed = []
    sys.setprofile(profile)
    try:
        with tempfile.TemporaryDirectory() as out_dir:
            failed += run_cli(out_dir)
        failed += run_benchmark()
        failed += run_acceptance()
    finally:
        sys.setprofile(None)

    called = {(str(Path(code.co_filename).resolve()), code.co_qualname) for code in reached}
    names = defined()
    unreached = sorted(name for name, key in names.items() if key not in called)
    errors = [f"a run failed: {f}" for f in failed]
    errors += [
        f"{name} is reached by no production run: move it to tests/reference.py, "
        "or allowlist it with its reason"
        for name in unreached
        if name not in ALLOWED
    ]
    errors += [f"allowlisted {name} no longer exists" for name in ALLOWED if name not in names]
    errors += [
        f"allowlisted {name} is reached: drop it from ALLOWED"
        for name in ALLOWED
        if name in names and name not in unreached
    ]
    print(f"{len(names)} functions, {len(unreached)} unreached, {len(ALLOWED)} allowlisted")
    for line in errors:
        print(f"FAIL {line}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
