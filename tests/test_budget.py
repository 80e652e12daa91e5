"""The certified arithmetic of :mod:`charflow.budget`, pinned.

``PINS`` holds, for every rung of every config under ``configs/``, the
``Schedule`` of the characteristic net a build certifies (a solution's
backward net) and its ledger, and for a solution rung also its
``eps_tilde``, ``q_src`` and solution ledger, as computed before the
budget had a module of its own.  They are compared with ``==``: a change
to the budget's arithmetic, down to the last bit, shows here.
"""

import ast
import dataclasses
import json
from pathlib import Path

import pytest

from charflow import budget
from charflow import transport_core as tc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config(stem):
    return json.loads((CONFIGS / f"{stem}.json").read_text())


PINS = {
    ("affine_m1_dy4", 0.1): {
        "schedule": {
            "eps": 0.1, "eps_internal": 0.05, "K": 3, "slab_length": 0.3333333333333333,
            "eta": 0.007237464051150624, "mu": 7, "tau": 0.004389743845590857, "q": 152,
            "delta": 0.006584615768386285, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.026986317115999886, "quadrature": 0.024978478622881654,
            "implant": 0.024999999999999994,
        },
    },
    ("affine_m1_dy4", 0.05): {
        "schedule": {
            "eps": 0.05, "eps_internal": 0.025, "K": 3, "slab_length": 0.3333333333333333,
            "eta": 0.003618732025575312, "mu": 8, "tau": 0.0021948719227954283, "q": 304,
            "delta": 0.0032923078841931427, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.013493158557999943, "quadrature": 0.012489239311440827,
            "implant": 0.012499999999999997,
        },
    },
    ("affine_m1_dy4", 0.025): {
        "schedule": {
            "eps": 0.025, "eps_internal": 0.0125, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.001809366012787656, "mu": 9,
            "tau": 0.0010974359613977142, "q": 608, "delta": 0.0016461539420965714,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.0067465792789999715, "quadrature": 0.006244619655720414,
            "implant": 0.006249999999999999,
        },
    },
    ("constant_smoke", 0.1): {
        "schedule": {
            "eps": 0.1, "eps_internal": 0.05, "K": 2, "slab_length": 0.5,
            "eta": 0.011932560927059556, "mu": 6, "tau": 0.007237464051150625, "q": 139,
            "delta": 0.007237464051150625, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.032736057447163486, "quadrature": 0.024850709286676157,
            "implant": 0.025,
        },
    },
    ("constant_smoke", 0.05): {
        "schedule": {
            "eps": 0.05, "eps_internal": 0.025, "K": 2, "slab_length": 0.5,
            "eta": 0.005966280463529778, "mu": 7, "tau": 0.0036187320255753126, "q": 277,
            "delta": 0.0036187320255753126, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.016368028723581743, "quadrature": 0.012470211519306808,
            "implant": 0.0125,
        },
    },
    ("cosine_m2_dy2", 0.4): {
        "schedule": {
            "eps": 0.4, "eps_internal": 0.2, "K": 3, "slab_length": 0.3333333333333333,
            "eta": 0.028949856204602498, "mu": 5, "tau": 0.017558975382363427, "q": 38,
            "delta": 0.02633846307354514, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.10794526846399954, "quadrature": 0.09991391449152662,
            "implant": 0.09999999999999998,
        },
    },
    ("cosine_m2_dy2", 0.2): {
        "schedule": {
            "eps": 0.2, "eps_internal": 0.1, "K": 3, "slab_length": 0.3333333333333333,
            "eta": 0.014474928102301249, "mu": 6, "tau": 0.008779487691181713, "q": 76,
            "delta": 0.01316923153677257, "N": None,
        },
        "ledger": {
            "sweep contraction": 0.05397263423199977, "quadrature": 0.04995695724576331,
            "implant": 0.04999999999999999,
        },
    },
    ("solution_affine", 0.1): {
        "eps_tilde": 0.014285714285714287, "q_src": 35,
        "solution_ledger": {
            "u0 foot + net": 0.028571428571428574,
            "source net + foot": 0.01785714285714286,
            "source quadrature": 0.010816326530612244,
        },
        "schedule": {
            "eps": 0.014285714285714287, "eps_internal": 0.0071428571428571435, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.0010339234358786608, "mu": 9,
            "tau": 0.0006271062636558367, "q": 1064, "delta": 0.0009406593954837552,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.0067465792789999715,
            "quadrature": 0.0035683540889830936, "implant": 0.0035714285714285713,
        },
    },
    ("solution_ladder", 0.2): {
        "eps_tilde": 0.028571428571428574, "q_src": 18,
        "solution_ledger": {
            "u0 foot + net": 0.05714285714285715, "source net + foot": 0.03571428571428572,
            "source quadrature": 0.021219135802469133,
        },
        "schedule": {
            "eps": 0.028571428571428574, "eps_internal": 0.014285714285714287, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.0020678468717573216, "mu": 8,
            "tau": 0.0012542125273116735, "q": 532, "delta": 0.0018813187909675103,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.013493158557999943, "quadrature": 0.007136708177966187,
            "implant": 0.007142857142857143,
        },
    },
    ("solution_ladder", 0.1): {
        "eps_tilde": 0.014285714285714287, "q_src": 35,
        "solution_ledger": {
            "u0 foot + net": 0.028571428571428574,
            "source net + foot": 0.01785714285714286,
            "source quadrature": 0.010816326530612244,
        },
        "schedule": {
            "eps": 0.014285714285714287, "eps_internal": 0.0071428571428571435, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.0010339234358786608, "mu": 9,
            "tau": 0.0006271062636558367, "q": 1064, "delta": 0.0009406593954837552,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.0067465792789999715,
            "quadrature": 0.0035683540889830936, "implant": 0.0035714285714285713,
        },
    },
    ("solution_ladder", 0.05): {
        "eps_tilde": 0.0071428571428571435, "q_src": 70,
        "solution_ledger": {
            "u0 foot + net": 0.014285714285714287,
            "source net + foot": 0.00892857142857143,
            "source quadrature": 0.00538265306122449,
        },
        "schedule": {
            "eps": 0.0071428571428571435, "eps_internal": 0.0035714285714285718, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.0005169617179393304, "mu": 10,
            "tau": 0.00031355313182791837, "q": 2127, "delta": 0.0004703296977418776,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.0033732896394999858,
            "quadrature": 0.0017850158677376643, "implant": 0.0017857142857142857,
        },
    },
    ("solution_m2_dy2", 0.8): {
        "eps_tilde": 0.1142857142857143, "q_src": 5,
        "solution_ledger": {
            "u0 foot + net": 0.2285714285714286, "source net + foot": 0.14285714285714288,
            "source quadrature": 0.08,
        },
        "schedule": {
            "eps": 0.1142857142857143, "eps_internal": 0.05714285714285715, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.008271387487029287, "mu": 6,
            "tau": 0.005016850109246694, "q": 133, "delta": 0.007525275163870041,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.05397263423199977, "quadrature": 0.02854683271186475,
            "implant": 0.02857142857142857,
        },
    },
    ("solution_m2_dy2", 0.4): {
        "eps_tilde": 0.05714285714285715, "q_src": 9,
        "solution_ledger": {
            "u0 foot + net": 0.1142857142857143, "source net + foot": 0.07142857142857144,
            "source quadrature": 0.043209876543209874,
        },
        "schedule": {
            "eps": 0.05714285714285715, "eps_internal": 0.028571428571428574, "K": 3,
            "slab_length": 0.3333333333333333, "eta": 0.004135693743514643, "mu": 7,
            "tau": 0.002508425054623347, "q": 266, "delta": 0.0037626375819350207,
            "N": None,
        },
        "ledger": {
            "sweep contraction": 0.026986317115999886, "quadrature": 0.014273416355932374,
            "implant": 0.014285714285714285,
        },
    },
}


def test_pins_cover_every_rung():
    rungs = {
        (path.stem, eps)
        for path in CONFIGS.glob("*.json")
        for eps in json.loads(path.read_text())["eps_ladder"]
    }
    assert set(PINS) == rungs


@pytest.mark.parametrize("stem, eps", list(PINS), ids=[f"{s}@{e}" for s, e in PINS])
def test_budget_pinned(stem, eps):
    cfg = config(stem)
    prob = tc.problem_from_dict(cfg["problem"])
    pins = PINS[stem, eps]
    if cfg["kind"] == "char":
        char = tc.build_char_net(prob, eps)
    else:
        net = tc.build_solution_net(prob, eps)
        assert net.report["eps_tilde"] == pins["eps_tilde"]
        assert net.report["q_src"] == pins["q_src"]
        assert list(net.report["ledger"].items()) == list(pins["solution_ledger"].items())
        char = net.back_net
    assert dataclasses.asdict(char.sched) == pins["schedule"]
    assert list(char.report["ledger"].items()) == list(pins["ledger"].items())


@pytest.mark.parametrize("stem", ["solution_affine", "solution_m2_dy2"])
@pytest.mark.parametrize("T_hat", [1.0, 0.7, 1.3])
def test_accuracy_solve(stem, T_hat):
    # the solve of SOLUTION_TERMS gives the accuracy eps / (7 T M), bit
    # for bit
    doc = config(stem)["problem"]
    prob = tc.problem_from_dict({**doc, "T_hat": T_hat})
    for eps in (0.8, 0.3, 0.2, 0.1, 0.07, 0.05, 0.013):
        want = eps / (7.0 * prob.T_hat * prob.M)
        assert budget.solution_schedule(eps, prob)[0] == want


def test_net_kinds_carry_their_budget():
    # the slab class is the one choice of a net kind, and its budget rides
    # on it; transport_core reaches schedule by name, as perfbench wraps it
    assert tc.AffineSlabNet.budget is budget.AFFINE
    assert tc.GeneralSlabNet.budget is budget.GENERAL
    assert tc.schedule is budget.schedule


def test_budget_reads_no_net_module():
    # budget.py imports nothing from transport_core and tells no
    # convection type from another with isinstance
    tree = ast.parse(Path(budget.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
            assert not any("transport_core" in name for name in names)
        elif isinstance(node, ast.Import):
            assert not any("transport_core" in a.name for a in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            assert node.func.id != "isinstance"
