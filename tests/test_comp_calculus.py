import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from charflow import comp_calculus as cc


def affine_field_rep(m=1, d_y=3, box_z=(-1.0, 2.0)):
    """Depth-two representation of an affine parametric field (m = 1)."""
    fields = [
        lambda z: np.cos(z[:, :1]),
        lambda z: np.sin(z[:, :1]),
        lambda z: 0.5 * np.cos(2 * z[:, :1]),
    ][:d_y]

    def g1(z):
        x = z[:, :1]
        y = z[:, 1 : 1 + d_y]
        return np.hstack([y] + [f(x) for f in fields])

    gen = cc.GenericFactor(
        g1,
        in_dim=1 + d_y,
        out_dim=d_y + d_y * m,
        lip=1.0,
        sup=1.0,
        dep_sets=[(1 + j,) for j in range(d_y)] + [(0,)] * (d_y * m),
        box=[[box_z[0], box_z[1]]] + [[-1, 1]] * d_y,
    )

    def g2(v):
        y, r = v[:, :d_y], v[:, d_y:]
        return np.sum(y * r, axis=1, keepdims=True)

    bil = cc.MultilinearFactor(g2, in_dim=2 * d_y, out_dim=1, lip=2.0, sup=1.0)
    return cc.CompRep([gen, bil])


class TestSparsityAndComplexity:
    def test_single_linear_factor(self):
        rep = cc.CompRep([cc.LinearFactor([[2.0, 1.0]])])
        assert cc.s_infinity(rep) == 1

    def test_affine_field_sparsity(self):
        assert cc.s_infinity(affine_field_rep()) == 1  # m = 1

    def test_identity_sparsity_zero(self):
        rep = cc.CompRep([cc.IdentityFactor(2), cc.LinearFactor(np.eye(2))])
        assert cc.s_infinity(rep) == 0 or cc.s_infinity(rep) == 1
        assert rep.factors[0].s_inf() == 0

    def test_affine_field_complexity(self):
        # d_y (1 + m^2) + 1 with m = 1, d_y = 3
        assert cc.complexity(affine_field_rep()) == 7

    def test_compose_additivity(self):
        r1 = affine_field_rep()
        r2 = cc.CompRep([cc.LinearFactor([[1.0]]), cc.LinearFactor([[2.0]])])
        comp = cc.compose_reps(r2, r1)
        assert cc.complexity(comp) == cc.complexity(r1) + cc.complexity(r2)

    def test_sum_additivity_exact(self):
        f = cc.GenericFactor(
            lambda z: np.abs(z[:, :1]), 1, 1, lip=1.0, sup=1.0, box=[[-1, 1]]
        )
        r1 = cc.CompRep([f, cc.LinearFactor([[1.0]])])
        r2 = cc.CompRep([cc.LinearFactor([[0.5]])])
        s = cc.sum_reps(r1, r2)
        assert cc.complexity(s) == cc.complexity(r1) + cc.complexity(r2)
        x = np.linspace(-1, 1, 11)[:, None]
        np.testing.assert_allclose(s.eval(x), r1.eval(x) + r2.eval(x), atol=1e-14)

    def test_identity_rep_complexity_zero(self):
        rep = cc.CompRep([cc.IdentityFactor(1), cc.LinearFactor([[1.0]])])
        assert rep.factors[0].complexity() == 0


class TestCompNorm:
    def test_single_affine(self):
        rep = cc.CompRep([cc.LinearFactor([[2.0]])])
        low, up = cc.comp_norm_interval(rep, cc.Regularizer("lip_full"), [[0, 1]])
        assert up == 2.0
        assert 1.9 <= low <= up

    def test_affine_field_upper(self):
        rep = affine_field_rep()
        # |||a|||  <=  A + Lam |omega|_1 = 2  given lip data above
        low, up = cc.comp_norm_interval(
            rep, cc.Regularizer("lip_full"), [[-1, 2]] + [[-1, 1]] * 3
        )
        assert up == 2.0
        assert low <= up

    def test_ordering_lipfactors_vs_full(self):
        rep = affine_field_rep()
        box = [[-1, 2]] + [[-1, 1]] * 3
        _, up_o = cc.comp_norm_interval(rep, cc.Regularizer("lip_factors"), box)
        _, up_f = cc.comp_norm_interval(rep, cc.Regularizer("lip_full"), box)
        n = len(rep.factors)
        assert up_o <= up_f <= max(1.0, up_o**n)


class TestGrowth:
    def test_gamma_inverse_alg(self):
        assert cc.gamma_inverse(cc.GrowthFunction("alg", 1, 2), 9.0) == pytest.approx(3.0)

    def test_gamma_inverse_exp(self):
        gf = cc.GrowthFunction("exp", 1, 1)
        assert cc.gamma_inverse(gf, math.e) == pytest.approx(1.0)

    def test_gamma_inverse_roundtrip(self):
        gf = cc.GrowthFunction("alg", 2, 0.5)
        assert cc.gamma_inverse(gf, 8.0) == pytest.approx(16.0)
        assert gf(16.0) == pytest.approx(8.0)

    def test_gamma_inverse_domain(self):
        with pytest.raises(ValueError):
            cc.gamma_inverse(cc.GrowthFunction("alg", 1, 1), -1.0)
        with pytest.raises(ValueError):
            cc.gamma_inverse(cc.GrowthFunction("exp", 2, 1), 1.0)


class TestImplant:
    def test_exact_factors_passthrough(self, rng):
        rep = cc.CompRep(
            [
                cc.LinearFactor([[1.0], [2.0]]),
                cc.MultilinearFactor(
                    lambda v: v[:, :1] * v[:, 1:2], 2, 1, lip=2.0, sup=4.0
                ),
            ]
        )
        imp, bound = cc.implant(rep, [0.0, 0.0])
        assert bound == 0.0
        x = rng.uniform(-1, 1, (50, 1))
        np.testing.assert_allclose(imp.eval(x), 2 * x * x, atol=1e-14)

    def test_two_factor_bound(self):
        f1 = cc.GenericFactor(
            lambda z: np.abs(z[:, :1] - 0.3), 1, 1, lip=1.0, sup=0.7, box=[[0, 1]]
        )
        f2 = cc.GenericFactor(
            lambda z: np.minimum(z[:, :1], 0.8), 1, 1, lip=1.0, sup=0.8, box=[[0, 1.5]]
        )
        rep = cc.CompRep([f1, f2, cc.LinearFactor([[1.0]])])
        imp, bound = cc.implant(rep, [0.01, 0.01, 0.0])
        assert bound == pytest.approx(0.01 + 0.01 * 1.0, abs=1e-12)

    def test_implanted_chain_is_a_comp_rep(self, rng):
        # implanting keeps the composition: same sparsity, additive
        # complexity, and the algebra of representations still applies
        f1 = cc.GenericFactor(
            lambda z: np.abs(z[:, :1] - 0.3), 1, 1, lip=1.0, sup=0.7, box=[[0, 1]]
        )
        f2 = cc.GenericFactor(
            lambda z: np.minimum(z[:, :1], 0.8), 1, 1, lip=1.0, sup=0.8, box=[[0, 1.5]]
        )
        last = cc.LinearFactor([[1.0]])
        rep = cc.CompRep([f1, f2, last])
        imp, _ = cc.implant(rep, [0.01, 0.01, 0.0])
        assert isinstance(imp, cc.CompRep)
        nets = [net for f in imp.factors[:-1] for net in f.nets]
        assert len(nets) == 2
        assert cc.complexity(imp) == last.complexity() + sum(n.size() for n in nets)
        assert cc.s_infinity(imp) == cc.s_infinity(rep)
        x = rng.uniform(0, 1, (100, 1))
        doubled = cc.sum_reps(imp, imp)
        np.testing.assert_allclose(doubled.eval(x), 2 * imp.eval(x), atol=1e-14)
        assert cc.complexity(doubled) == 2 * cc.complexity(imp)
        outer = cc.CompRep([cc.LinearFactor([[3.0]])])
        np.testing.assert_allclose(
            cc.compose_reps(outer, imp).eval(x), 3 * imp.eval(x), atol=1e-14
        )

    def test_implant_error_soundness(self, rng):
        rep = affine_field_rep()
        imp, bound = cc.implant(rep, [0.01, 0.0])
        pts = np.hstack(
            [rng.uniform(-1, 2, (5000, 1)), rng.uniform(-1, 1, (5000, 3))]
        )
        err = np.abs(imp.eval(pts) - rep.eval(pts)).max()
        assert err <= bound

    def test_sparsity_preserved(self):
        rep = affine_field_rep()
        imp, _ = cc.implant(rep, [0.05, 0.0])
        assert cc.s_infinity(imp) == cc.s_infinity(rep)

    def test_to_relu_network(self, rng):
        f1 = cc.GenericFactor(
            lambda z: np.abs(z[:, :1] - 0.3), 1, 1, lip=1.0, sup=0.7, box=[[0, 1]]
        )
        rep = cc.CompRep([f1, cc.LinearFactor([[2.0]])])
        imp, _ = cc.implant(rep, [0.05, 0.0])
        net = reference.to_relu_network(imp)
        x = rng.uniform(0, 1, (200, 1))
        np.testing.assert_allclose(net.eval(x), imp.eval(x), atol=1e-12)

    def test_eval_width(self):
        # an s = 1 interpolant holds one value per point, so the parallel
        # stage's output is the widest array; an s = 2 one holds the hat
        # factors of its 4 cell corners, 2 per corner
        gen = cc.GenericFactor(
            lambda z: np.hstack([np.cos(z[:, :1]), np.sin(z[:, :1])]),
            1, 2, lip=1.0, sup=1.0, box=[[0, 1]],
        )
        bil = cc.MultilinearFactor(
            lambda v: v[:, :1] * v[:, 2:3] + v[:, 1:2] * v[:, 3:4], 4, 1,
            lip=2.0, sup=2.0,
        )
        rep = cc.CompRep([cc.ParallelFactor([gen, cc.IdentityFactor(2)]), bil])
        imp, _ = cc.implant(rep, [0.1, 0.0])
        assert cc.eval_width(imp) == 4
        f2 = cc.GenericFactor(
            lambda z: z[:, :1] * z[:, 1:2], 2, 1, lip=1.0, sup=1.0,
            box=[[0, 1], [0, 1]],
        )
        imp2, _ = cc.implant(cc.CompRep([f2, cc.LinearFactor([[1.0]])]), [0.1, 0.0])
        assert cc.eval_width(imp2) == imp2.factors[0].nets[0].point_floats() == 8

    def test_resource_refusal(self):
        f = cc.GenericFactor(
            lambda z: z[:, :1] * 0.0, 2, 1, lip=1.0, sup=1.0, box=[[0, 1], [0, 1]]
        )
        rep = cc.CompRep([f, cc.LinearFactor([[1.0]])])
        with pytest.raises(cc.lip_interp.ResourceCeiling):
            cc.implant(rep, [1e-9, 0.0])


def test_build_report_is_plain_json():
    import json

    from charflow import catalog, transport_core as tc

    comps = [catalog.make_component({"kind": "constant", "value": 1.0})]
    conv = tc.AffineConvection(1, 1, [1.0], comps)
    prob = tc.TransportProblem(conv, 1.0, [[0.0, 1.0]])
    net = tc.build_char_net(prob, 0.2)
    json.dumps(net.report)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_complexity_additivity_property(seed):
    rng = np.random.default_rng(seed)
    from charflow.harness import _random_rep

    r1 = _random_rep(rng, int(rng.integers(1, 4)))
    r2 = _random_rep(rng, int(rng.integers(1, 4)))
    assert cc.complexity(cc.compose_reps(r2, r1)) == cc.complexity(r1) + cc.complexity(r2)
    assert cc.complexity(cc.sum_reps(r1, r2)) == cc.complexity(r1) + cc.complexity(r2)
