import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from charflow import lip_interp as li


def hat_value(h, i, x):
    """Direct formula for the hat, the oracle of hat1d."""
    u = np.asarray(x, dtype=float) / h - i
    return np.maximum(0.0, 1.0 - np.abs(u))


def tensor_hat_value(indices, h, x):
    """Direct tensor-product formula of a tensor hat."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.ones(x.shape[0])
    for j, i in enumerate(indices):
        out = out * hat_value(h, i, x[:, j])
    return out


class TestHat1d:
    def test_node_value(self):
        assert li.hat1d(1.0, 0).eval(np.array([0.0]))[0] == 1.0

    def test_shifted_scaled(self):
        net = li.hat1d(0.5, 2)
        assert net.eval(np.array([1.0]))[0] == 1.0
        assert net.eval(np.array([1.25]))[0] == 0.5

    def test_dense_sweep_vs_formula(self):
        net = li.hat1d(0.25, 1)
        xs = np.linspace(0.0, 1.0, 2001)
        np.testing.assert_allclose(
            net.eval(xs[:, None])[:, 0], hat_value(0.25, 1, xs), atol=1e-14
        )

    def test_support_and_lipschitz(self):
        h, i = 0.25, 2
        net = li.hat1d(h, i)
        outside = np.array([[(i - 1) * h - 1e-9], [(i + 1) * h + 1e-9]])
        assert np.abs(net.eval(outside)).max() <= 1e-14
        low = reference.lip_lower_bound(net, [[0, 1]], 4000, seed=2)
        assert 1 / h - 0.1 <= low <= 1 / h + 1e-9


class TestSquareAndProduct:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_square_bounds(self, n):
        net = li.square_net(n)
        xs = np.linspace(0, 1, 4001)
        err = np.abs(net.eval(xs[:, None])[:, 0] - xs**2).max()
        assert err <= 0.25 * 4.0**-n + 1e-15
        # derivative via slopes of the dense sweep
        slopes = np.diff(net.eval(xs[:, None])[:, 0]) / np.diff(xs)
        true = 2 * 0.5 * (xs[1:] + xs[:-1])
        assert np.abs(slopes - true).max() <= 2.0**-n + 1e-3

    def test_square_monotone_zero_at_zero(self):
        net = li.square_net(5)
        xs = np.linspace(0.0, 1.5, 601)
        vals = net.eval(xs[:, None])[:, 0]
        assert net.eval(np.array([0.0]))[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-15)

    def test_product_zero_origin_exact_faces_tiny(self):
        net = li.product_net(2, 1e-2)
        assert net.eval(np.array([0.0, 0.0]))[0] == 0.0
        # zero faces cancel exactly in exact arithmetic; float evaluation
        # leaves lane-grouping rounding dust far below any tolerance
        assert abs(net.eval(np.array([0.0, 0.7]))[0]) <= 1e-15

    def test_product_at_ones(self):
        net = li.product_net(2, 1e-3)
        assert abs(net.eval(np.array([1.0, 1.0]))[0] - 1.0) <= 1e-3

    @pytest.mark.parametrize("s,delta", [(2, 1e-2), (3, 1e-2), (2, 1e-3)])
    def test_product_sup_and_gradient(self, s, delta, rng):
        net = li.product_net(s, delta)
        pts = rng.uniform(0, 1, size=(10_000, s))
        vals = net.eval(pts)[:, 0]
        assert np.abs(vals - pts.prod(axis=1)).max() <= delta
        # central-difference gradient at interior points
        inner = rng.uniform(0.05, 0.95, size=(300, s))
        h = 1e-4
        for j in range(s):
            e = np.zeros(s)
            e[j] = h
            fd = (net.eval(inner + e)[:, 0] - net.eval(inner - e)[:, 0]) / (2 * h)
            true = np.prod(np.delete(inner, j, axis=1), axis=1)
            assert np.abs(fd - true).max() <= 10 * delta

    def test_product_complexity_logarithmic(self):
        sizes = [li.product_net(2, 2.0**-k).size() for k in (4, 8, 12)]
        ks = np.array([4, 8, 12])
        ratio = np.array(sizes) / ks
        assert ratio.max() / ratio.min() <= 4.0

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            li.product_net(2, 1.5)


def closed_form_points(rng, n, s):
    """Random points of [0, 1]^s, the dyadic knots, 0, 1 and zero faces."""
    knots = np.arange(2**n + 1) / 2**n
    pts = [rng.uniform(0, 1, (500, s)), np.resize(knots, (len(knots), s))]
    pts += [np.zeros((1, s)), np.ones((1, s))]
    for j in range(s):
        face = rng.uniform(0, 1, (50, s))
        face[:, j] = 0.0
        pts.append(face)
    return np.concatenate(pts)


class TestClosedForm:
    """square_values / product_values are elementwise twins of the nets."""

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14])
    def test_square_values(self, n, rng):
        x = np.concatenate([rng.uniform(-0.5, 1, 1000), np.arange(2**n + 1) / 2**n])
        got = reference.square_values(x, n)
        np.testing.assert_allclose(got, li.square_net(n).eval(x[:, None])[:, 0], rtol=0, atol=1e-12)
        # bit for bit the chord k^2 + (2k + 1) r of the knot cell, in units
        # of 4^-n, as the net's layers give it
        t = x * 2.0**n
        k = np.clip(np.floor(t), 0.0, 2.0**n - 1.0)
        chord = np.maximum(k * k + (t - k) * (2.0 * k + 1.0), 0.0) * 4.0**-n
        np.testing.assert_array_equal(got, chord)
        # exact at the knots, zero on (-inf, 0]
        knots = np.arange(2**n + 1) / 2**n
        np.testing.assert_array_equal(reference.square_values(knots, n), knots**2)
        assert np.all(reference.square_values(np.array([-3.0, -1e-300, 0.0]), n) == 0.0)

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_mult2(self, n, rng):
        uv = closed_form_points(rng, n, 2)
        np.testing.assert_allclose(
            reference.product_values(uv.T, n), li.mult2_net(n).eval(uv)[:, 0], rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [1e-2, 1e-5, 1e-9])
    def test_product_values(self, s, delta, rng):
        n = li.product_depth_param(s, delta)
        v = closed_form_points(rng, 6, s)
        got = reference.product_values(v.T, n)
        np.testing.assert_allclose(got, li.product_net(s, delta).eval(v)[:, 0], rtol=0, atol=1e-12)
        # the zero faces give a literal zero, the net only rounding dust
        assert np.all(got[np.any(v == 0.0, axis=1)] == 0.0)
        # the net clamps its inputs to [0, 1] first
        wide = rng.uniform(-0.5, 1.5, (300, s))
        np.testing.assert_allclose(
            reference.product_values(wide.T, n), li.product_net(s, delta).eval(wide)[:, 0],
            rtol=0, atol=1e-12,
        )


class TestTensorHat:
    def test_node_value(self):
        net = li.tensor_hat((2, 3), 0.25, 1e-2)
        val = net.eval(np.array([0.5, 0.75]))[0]
        assert abs(val - 1.0) <= 2e-2

    def test_outside_support_zero(self):
        h = 0.25
        net = li.tensor_hat((1, 1), h, 1e-2)
        # both coordinates outside: every hat channel is exactly zero
        pts = np.array([[0.75, 0.75], [1.0, 0.8], [0.9, 1.0]])
        assert np.abs(net.eval(pts)).max() == 0.0
        # generic outside points: zero up to float rounding dust
        rng = np.random.default_rng(5)
        outside = rng.uniform(0.5 + 1e-6, 1.0, size=(500, 2))
        assert np.abs(net.eval(outside)).max() <= 1e-13
        # the delivered interpolant evaluator masks to literal zeros
        grid = li.GridSpec(2, 4)
        sf = li.SampledFunction.from_function(
            lambda x: np.ones(x.shape[0]), grid, lip_bound=0.0
        )
        interp, _ = li.lip_stable_net(sf, 0.3)
        far = np.array([[2.5, 2.5], [-1.0, 0.5]])
        assert np.abs(interp.eval(far)).max() == 0.0

    def test_dense_grid_vs_tensor_product(self, rng):
        h, delta = 0.25, 5e-3
        net = li.tensor_hat((2, 1), h, delta)
        pts = rng.uniform(0, 1, size=(4000, 2))
        ref = tensor_hat_value((2, 1), h, pts)
        assert np.abs(net.eval(pts)[:, 0] - ref).max() <= 2 * delta


class TestGridAndSamples:
    def test_grid_nodes(self):
        g = li.GridSpec(2, 2)
        assert g.nodes().shape == (9, 2)
        assert g.h * g.q == pytest.approx(1.0, abs=1e-15)

    def test_sampled_function_validation(self):
        g = li.GridSpec(1, 10)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        sf.validate(seed=0)
        bad = li.SampledFunction.from_function(lambda x: 5 * x[:, 0], g, lip_bound=1.0)
        with pytest.raises(ValueError):
            bad.validate(seed=0)


class TestLipStableNet:
    def test_constant_function(self):
        g = li.GridSpec(1, 4)
        sf = li.SampledFunction.from_function(
            lambda x: np.full(x.shape[0], 5.0), g, lip_bound=0.0
        )
        net, _ = li.lip_stable_net(sf, 0.1)
        nodes = g.nodes()
        np.testing.assert_allclose(net.eval(nodes)[:, 0], 5.0, atol=1e-12)
        pts = np.random.default_rng(0).uniform(0, 1, (2000, 1))
        assert np.abs(net.eval(pts)[:, 0] - 5.0).max() <= 0.1

    def test_linear_exact_at_nodes(self):
        g = li.GridSpec(1, 40)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        net, _ = li.lip_stable_net(sf, 0.05)
        nodes = g.nodes()
        np.testing.assert_allclose(net.eval(nodes)[:, 0], nodes[:, 0], atol=1e-14)
        pts = np.random.default_rng(0).uniform(0, 1, (2000, 1))
        assert np.abs(net.eval(pts)[:, 0] - pts[:, 0]).max() <= 0.05

    def test_2d_kink_function(self, rng):
        delta = 0.02
        g = li.GridSpec(2, 100)
        fn = lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
        net, rep = li.lip_stable_net(sf, delta)
        xs = np.linspace(0, 1, 200)
        grid_pts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        err = np.abs(net.eval(grid_pts)[:, 0] - fn(grid_pts)).max()
        assert err <= delta
        lip_low = li._interpolant_lip(net, g.box, rng)
        assert lip_low <= li.CALIBRATED["c3"] * (1 + sf.sup_bound) * 1.0

    def test_grid_too_coarse_refusal(self):
        g = li.GridSpec(1, 5)
        sf = li.SampledFunction.from_function(lambda x: x[:, 0], g, lip_bound=1.0)
        with pytest.raises(li.GridTooCoarse) as exc:
            li.lip_stable_net(sf, 0.05)
        assert exc.value.required_q >= 40

    @pytest.mark.parametrize("s,q,delta", [(1, 10, 0.25), (2, 8, 0.3), (3, 3, 0.75)])
    def test_materialization_equivalence(self, s, q, delta, rng):
        g = li.GridSpec(s, q)
        fn = (
            (lambda x: np.abs(x[:, 0] - 0.4))
            if s == 1
            else (lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1:].sum(axis=1) / (s - 1))
        )
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
        net, _ = li.lip_stable_net(sf, delta)
        mono = reference.materialize(net)
        pts = rng.uniform(-0.3, 1.3, size=(500, s))
        np.testing.assert_allclose(net.eval(pts), mono.eval(pts), atol=1e-12)
        assert net.size() == mono.size()
        assert net.depth() == mono.depth()

    def test_materialization_equivalence_shifted_box(self, rng):
        g = li.GridSpec(2, 8, box=[[-1.0, 2.0], [0.5, 1.5]])
        fn = lambda x: 0.2 * np.abs(x[:, 0]) + 0.1 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=0.2)
        net, _ = li.lip_stable_net(sf, 0.25)
        mono = reference.materialize(net)
        pts = rng.uniform([-1.2, 0.3], [2.2, 1.7], size=(400, 2))
        np.testing.assert_allclose(net.eval(pts), mono.eval(pts), atol=1e-12)
        assert net.size() == mono.size()

    def test_interpolant_bounded_by_sup(self, rng):
        # interpolant stability: nodal coefficients bounded by sup(g)
        g = li.GridSpec(2, 12)
        fn = lambda x: np.sin(3 * x[:, 0]) * 0.5 + 0.2 * x[:, 1]
        sf = li.SampledFunction.from_function(fn, g, lip_bound=1.6)
        assert np.abs(sf.values).max() <= sf.sup_bound + 1e-15

    def test_complexity_band(self):
        # size / (delta^-s log2(1/delta)) stays in a factor-4 band
        for s in (1, 2):
            ratios = []
            for k in (4, 6, 8, 10):
                delta = 2.0**-k
                q = int(np.ceil(2.0 / delta))
                g = li.GridSpec(s, q)
                fn = (
                    (lambda x: np.abs(x[:, 0] - 0.5))
                    if s == 1
                    else (lambda x: np.abs(x[:, 0] - 0.5) + 0.3 * x[:, 1])
                )
                sf = li.SampledFunction.from_function(fn, g, lip_bound=1.0)
                net, rep = li.lip_stable_net(sf, delta)
                ratios.append(rep["size"] / (delta**-s * k))
            assert max(ratios) / min(ratios) <= 4.0


class TestForTolerance:
    BOX = np.array([[-1.0, 2.0], [0.0, 1.0]])

    def test_cells_on_widest_side(self):
        # ceil(2 * 0.5 * 3 / 0.1)
        grid = li.GridSpec.for_tolerance(self.BOX, 0.5, 0.1)
        assert (grid.s, grid.q) == (2, 30)
        np.testing.assert_array_equal(grid.box, self.BOX)

    @pytest.mark.parametrize("lip,tol", [(0.0, 0.1), (1.0, math.inf)])
    def test_one_cell(self, lip, tol):
        assert li.GridSpec.for_tolerance(self.BOX, lip, tol).q == 1

    def test_node_ceiling(self):
        unit = np.tile([0.0, 1.0], (2, 1))
        # 1999 cells per axis are 2000^2 = NODE_CEILING nodes
        assert li.GridSpec.for_tolerance(unit, 1.0, 2.0 / 1998.5).q == 1999
        with pytest.raises(li.ResourceCeiling) as exc:
            li.GridSpec.for_tolerance(unit, 1.0, 2.0 / 1999.5)
        assert exc.value.predicted_cost == 2001**2

    @pytest.mark.parametrize("s,lip,tol", [(1, 1.0, 0.05), (2, 0.7, 0.03), (1, 0.3, 0.011)])
    def test_lip_stable_net_reads_the_same_count(self, s, lip, tol):
        box = np.tile([-0.5, 1.5], (s, 1))
        fn = lambda x: lip * np.abs(x - 0.3).max(axis=1)
        grid = li.GridSpec.for_tolerance(box, lip, tol)
        li.lip_stable_net(li.SampledFunction.from_function(fn, grid, lip), tol)
        coarser = li.GridSpec(s, grid.q - 1, box=box)
        with pytest.raises(li.GridTooCoarse) as exc:
            li.lip_stable_net(li.SampledFunction.from_function(fn, coarser, lip), tol)
        assert exc.value.required_q == grid.q

    def test_any_positive_tolerance(self):
        # the product tolerance is min(delta, 1) * c_star
        unit = np.tile([0.0, 1.0], (2, 1))
        for delta in (0.5, 1.0, 4.0):
            grid = li.GridSpec.for_tolerance(unit, 1.0, delta)
            sf = li.SampledFunction.from_function(lambda x: x.sum(axis=1) / 2, grid, 1.0)
            _, rep = li.lip_stable_net(sf, delta)
            assert rep["delta_inner"] == min(delta, 1.0) * li.c_star(2, sf.sup_bound)
        with pytest.raises(ValueError):
            li.lip_stable_net(sf, 0.0)


def template_walk(net, u, tables, lead=None):
    """Reference for the s >= 2 lookup (:class:`li.CornerLookup`): the
    hats of each cell corner in turn, through the tensor-hat template
    network, the hat of the node at 0 with h = 1 in local coordinates."""
    q, s = net.grid.q, net.s
    template = li.compose(
        li.product_net(s, net.delta_inner), li.hat_bank([0] * s, 1.0)
    )
    trailing = tables.shape[s + 1 :]
    flat = tables.reshape((-1,) + trailing)
    cell = np.floor(u).astype(int)
    out = np.zeros((u.shape[0],) + trailing)
    for corner in np.ndindex(*(2,) * s):
        node = cell + np.asarray(corner)
        valid = np.all((node >= 0) & (node <= q), axis=1)
        local = u - node
        active = valid & np.all(np.abs(local) < 1.0, axis=1)
        if not np.any(active):
            continue
        index = tuple(node[active].T)
        which = 0 if lead is None else lead[active]
        coeff = flat[np.ravel_multi_index((which,) + index, tables.shape[: s + 1])]
        vals = template.eval(local[active])[:, 0]
        out[active] += coeff * vals.reshape((-1,) + (1,) * len(trailing))
    return out


def row_major_weighted_sum(net, u, tables, lead=None):
    """Reference for the s >= 2 lookup in the row-major layout: points
    ``u`` (n, s), tables (L,) + (q + 1,) * s + trailing, a result
    (n,) + trailing, and every array with its short corner and axis
    dimensions innermost.  The corners' products are summed in corner
    order, as the lookup documents."""
    n, s = u.shape
    q = net.grid.q
    bits = np.array(list(np.ndindex(*(2,) * s)), dtype=np.intp)
    axes = np.arange(s)
    offsets = (q + 1) ** axes[::-1]
    cell = np.floor(u)
    # (n, 2, s): the hat factors, 1 - frac and frac, and the nodes of
    # the low and the high node
    factor = np.empty((n, 2, s))
    np.subtract(u, cell, out=factor[:, 1])
    np.subtract(1.0, factor[:, 1], out=factor[:, 0])
    node = cell[:, None, :] + np.array([[0.0], [1.0]])
    index = np.minimum(np.maximum(node, 0.0), q)
    factor *= index == node
    index = index.astype(np.intp) * offsets
    # (n, 2^s): the corners' hat values and table indices
    hats = reference.product_values(np.moveaxis(factor[:, bits, axes], -1, 0), net.sawtooth_depth)
    index = index[:, bits, axes].sum(axis=-1)
    if lead is not None:
        index += (lead * (q + 1) ** s)[:, None]
    trailing = tables.shape[s + 1 :]
    coeff = tables.reshape((-1,) + trailing).take(index, axis=0)
    hats = hats.reshape(hats.shape + (1,) * len(trailing))
    out = np.zeros((n,) + trailing)
    for c in range(2**s):
        out += hats[:, c] * coeff[:, c]
    return out


def weighted_sum(net, u, tables, lead=None):
    """Reference for the s >= 2 lookup: the axis-major lookup that
    preceded it, on tables without the ghost ring.

    ``u`` (s, n) are points in grid units, ``tables`` (E, L * (q + 1)^s)
    entry-major, and point r reads table ``lead[r]`` (table 0 if None).
    Forms the hat factors of each axis's low and high node (2, s, n),
    zero for a node off the grid, one :func:`reference.product_values` over
    the axes' factors broadcast to the corners' hats (2^s, n), the
    corners' indices at node indices clipped to the grid, one gather
    (E, 2^s, n), and sums the corners' products in corner order onto a
    zero.  Returns (E, n).
    """
    s, n = u.shape
    q = net.grid.q
    size = (q + 1) ** s
    steps = np.array([0.0, 1.0])[:, None, None]
    offsets = (q + 1) ** np.arange(s)[::-1, None]
    corner_axes = [tuple(2 if k == j else 1 for k in range(s)) for j in range(s)]
    cell = np.floor(u)
    factor = np.empty((2, s, n))
    np.subtract(u, cell, out=factor[1])
    np.subtract(1.0, factor[1], out=factor[0])
    node = cell + steps
    index = np.minimum(np.maximum(node, 0.0), q)
    factor *= index == node
    index = index.astype(np.intp) * offsets
    # axis j's two nodes broadcast along axis j of the corners
    along = [a + (n,) for a in corner_axes]
    hats = reference.product_values(
        [factor[:, j].reshape(along[j]) for j in range(s)], net.sawtooth_depth
    ).reshape(2**s, n)
    corner = sum(index[:, j].reshape(along[j]) for j in range(s)).reshape(2**s, n)
    if lead is not None:
        corner += lead * size
    coeff = tables.take(corner, axis=1)
    coeff *= hats
    out = np.zeros((len(tables), n))
    for c in range(2**s):
        out += coeff[:, c]
    return out


def stack_lookup(net, u, tables, lead=None):
    """The s >= 2 lookup, :meth:`li.InterpolantNet.lookup`, of ``tables``
    on ``net``'s grid and sawtooth depth, on the row-major arguments of
    :func:`row_major_weighted_sum`, with the result in its layout."""
    s = net.s
    trailing = tables.shape[s + 1 :]
    entries = tables.reshape(tables.shape[: s + 1] + (-1,))
    stack = li.InterpolantNet(net.grid, np.moveaxis(entries, -1, 1), delta_inner=net.delta_inner)
    out = stack.lookup(len(u), lead)(np.ascontiguousarray(u.T))
    return out.T.reshape((len(u),) + trailing)


def weighted_sum_points(rng, s, q):
    """Points in grid units: inside cells, on cell faces, on nodes, on the
    grid boundary, on the boundary hat ramps, and far beyond them last."""
    inside = rng.uniform(0, q, (300, s))
    faces = inside.copy()
    faces[:100, 0] = np.round(faces[:100, 0])  # on a cell face
    faces[100:200] = np.round(faces[100:200])  # on a node
    faces[200:, -1] = rng.choice([0.0, q], 100)  # on the grid boundary
    ramps = rng.uniform(-1.5, q + 1.5, (300, s))  # the boundary hat ramps
    far = rng.choice([-1.0, 1.0], (50, s)) * rng.uniform(q + 1, 1e6, (50, s))
    return np.concatenate([inside, faces, ramps, far])


LOOKUP_CASES = [(2, 6, 1e-3), (3, 3, 1e-2), (4, 2, 1e-7)]


class TestWeightedSum:
    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    @pytest.mark.parametrize("trailing", [(), (2,), (2, 3)], ids=["one", "contracted", "weighted_after"])
    def test_matches_template_walk(self, s, q, delta, trailing, rng):
        net = li.InterpolantNet(
            li.GridSpec(s, q), rng.standard_normal((q + 1,) * s), delta_inner=delta
        )
        tables = rng.standard_normal((3,) + (q + 1,) * s + trailing)
        u = weighted_sum_points(rng, s, q)
        lead = rng.integers(0, 3, len(u))
        for which in (None, lead):
            got = stack_lookup(net, u, tables, which)
            assert got.shape == (len(u),) + trailing
            np.testing.assert_allclose(
                got, template_walk(net, u, tables, which), rtol=0, atol=1e-12
            )
            # past the boundary hat ramps every corner is off the grid
            assert np.all(got[-50:] == 0.0)

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    @pytest.mark.parametrize("trailing", [(), (2,), (2, 3)], ids=["one", "contracted", "weighted_after"])
    def test_matches_row_major_reference(self, s, q, delta, trailing, rng):
        # the axis-major lookup makes every element's float operations of
        # the row-major one, in the same order: equal bit for bit
        net = li.InterpolantNet(
            li.GridSpec(s, q), rng.standard_normal((q + 1,) * s), delta_inner=delta
        )
        tables = rng.standard_normal((3,) + (q + 1,) * s + trailing)
        u = weighted_sum_points(rng, s, q)
        lead = rng.integers(0, 3, len(u))
        for which in (None, lead):
            np.testing.assert_array_equal(
                stack_lookup(net, u, tables, which),
                row_major_weighted_sum(net, u, tables, which),
            )


def assert_same_bits(got, want):
    """Equal values and equal zero signs."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestCornerLookup:
    """The s >= 2 lookup equals :func:`weighted_sum`, the lookup it
    replaced, bit for bit and zero sign for zero sign."""

    @staticmethod
    def make(rng, s, q, delta, n_tables=3, entries=2):
        coeffs = rng.standard_normal((n_tables, entries) + (q + 1,) * s)
        # zero coefficients of both signs, and a table of negative zeros,
        # whose every corner product is -0
        coeffs.reshape(-1)[::5] = 0.0
        coeffs.reshape(-1)[2::5] = -0.0
        coeffs[-1, -1] = -0.0
        flat = np.ascontiguousarray(coeffs.swapaxes(0, 1)).reshape(entries, -1)
        return li.InterpolantNet(li.GridSpec(s, q), coeffs, delta_inner=delta), flat

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    def test_prefix_after_full_call(self, s, q, delta, rng):
        stack, flat = self.make(rng, s, q, delta)
        u = np.ascontiguousarray(weighted_sum_points(rng, s, q).T)
        p = u.shape[1]
        which = rng.integers(0, 3, p)
        lookup = stack.lookup(p, which)
        for k in (p, p - 77, 1, p):
            got = lookup(u[:, :k])
            assert got.shape == (2, k) and np.shares_memory(got, lookup.out)
            assert_same_bits(got, weighted_sum(stack, u[:, :k], flat, which[:k]))
        assert np.all(lookup(u)[:, -50:] == 0.0)

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    def test_per_cell_tables(self, s, q, delta, rng):
        # cell-major states, as a per-cell slab sweeps them: state
        # i * n + r reads the table of quadrature cell i
        cells, n = 4, 60
        stack, flat = self.make(rng, s, q, delta, n_tables=cells)
        u = np.ascontiguousarray(weighted_sum_points(rng, s, q)[: cells * n].T)
        which = np.repeat(np.arange(cells), n)
        got = stack.lookup(cells * n, which)(u)
        assert_same_bits(got, weighted_sum(stack, u, flat, which))
        # and with which=None every state reads table 0
        assert_same_bits(stack.lookup(cells * n)(u), weighted_sum(stack, u, flat))

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    def test_zero_signs(self, s, q, delta, rng):
        # on nodes, on faces, on the ring and past it; the table of -0
        # gives +0 everywhere, as 0 + c_0 + ... does
        stack, flat = self.make(rng, s, q, delta)
        nodes = rng.integers(-2, q + 3, (200, s)).astype(float)
        u = np.ascontiguousarray(np.concatenate([nodes, weighted_sum_points(rng, s, q)]).T)
        which = np.full(u.shape[1], 2)
        got = stack.lookup(u.shape[1], which)(u)
        want = weighted_sum(stack, u, flat, which)
        assert_same_bits(got, want)
        assert np.all(got[-1] == 0.0) and not np.any(np.signbit(got[-1]))

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    def test_corners_read_own_table(self, s, q, delta, rng):
        # the clip to the ghost ring and the cap of the low node at q keep
        # every corner of every point, far ones included, in the point's
        # own table; a corner past the ring would read another table
        stack, flat = self.make(rng, s, q, delta)
        u = np.ascontiguousarray(weighted_sum_points(rng, s, q).T)
        which = rng.integers(0, 3, u.shape[1])
        lookup = stack.lookup(u.shape[1], which)
        lookup(u)
        size = (q + 3) ** s
        assert np.all(lookup.index.reshape(2**s, -1) // size == which)

    @pytest.mark.parametrize("s,q,delta", LOOKUP_CASES)
    def test_nan_state(self, s, q, delta, rng):
        # as in the knot lookup: the cast of a NaN warns, its value is NaN
        stack, flat = self.make(rng, s, q, delta)
        u = np.ascontiguousarray(weighted_sum_points(rng, s, q).T)
        u[-1, 5] = np.nan
        lookup = stack.lookup(u.shape[1])
        with pytest.warns(RuntimeWarning, match="invalid value"):
            got = lookup(u)
        assert np.all(np.isnan(got[:, 5]))
        keep = np.arange(u.shape[1]) != 5
        assert_same_bits(got[:, keep], weighted_sum(stack, u[:, keep], flat))


class TestTemplateCounts:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_pinned_to_composed_template(self, s):
        for n in range(1, 13):
            delta = max(li.product_error_bounds(s, n))
            if delta >= 1.0:
                continue
            assert li.product_depth_param(s, delta) == n
            template = li.compose(li.product_net(s, delta), li.hat_bank([0] * s, 1.0))
            size, depth = li.template_counts(s, n)
            assert (size, depth) == (template.size() + s, template.depth())
            # + s: the template's hats have one zero bias per axis, which
            # the hats of an interior node do not
            interior = li.compose(li.product_net(s, delta), li.hat_bank([2] * s, 0.25))
            assert interior.size() == size


def stack_points(rng, grid):
    """Points of ``grid``'s box: knots, inside, within one cell past the
    box (the boundary hats' ghost ramps), and far beyond it last."""
    s, box, h = grid.s, grid.box, grid.spacing
    knots = grid.nodes()[rng.integers(0, (grid.q + 1) ** s, 100)]
    inside = rng.uniform(box[:, 0], box[:, 1], (100, s))
    ramps = inside.copy()
    ramps[:, 0] = rng.choice([-1.0, 1.0], 100) * rng.uniform(0, h[0], 100)
    ramps[:, 0] += np.where(ramps[:, 0] < 0, box[0, 0], box[0, 1])
    far = rng.choice([-1.0, 1.0], (50, s)) * rng.uniform(3.0, 1e6, (50, s))
    return np.concatenate([knots, inside, ramps, far])


class TestTableStack:
    """Stacked tables: L tables of E entries in one :class:`li.InterpolantNet`."""

    @pytest.mark.parametrize("s,q", [(1, 9), (2, 5), (3, 3)])
    def test_equals_per_net_eval(self, s, q, rng):
        grid = li.GridSpec(s, q, box=np.tile([-0.5, 1.5], (s, 1)))
        coeffs = rng.standard_normal((4,) + (q + 1,) * s)
        nets = [li.InterpolantNet(grid, c, delta_inner=1e-4) for c in coeffs]
        stack = li.InterpolantNet(grid, coeffs[:, None], delta_inner=1e-4)
        x = stack_points(rng, grid)
        which = rng.integers(0, len(nets), len(x))
        got = stack(np.ascontiguousarray(grid.to_grid(x).T), which)
        assert got.shape == (1, len(x))
        for i, net in enumerate(nets):
            np.testing.assert_array_equal(got[0, which == i], net.eval(x[which == i])[:, 0])
        assert np.all(got[:, -50:] == 0.0)

    @pytest.mark.parametrize("s,q", [(1, 9), (2, 5), (3, 3)])
    def test_entries_equal_per_net_eval(self, s, q, rng):
        # L = 3 tables of E = 2 entries per node: entry e of table l is
        # net [l][e]; a lookup made for p points serves a prefix of them
        grid = li.GridSpec(s, q, box=np.tile([-0.5, 1.5], (s, 1)))
        coeffs = rng.standard_normal((3, 2) + (q + 1,) * s)
        nets = [[li.InterpolantNet(grid, c, delta_inner=1e-4) for c in per_l] for per_l in coeffs]
        stack = li.InterpolantNet(grid, coeffs, delta_inner=1e-4)
        assert stack.values.shape == (2, 3 * nets[0][0].values.size)
        x = stack_points(rng, grid)
        u = np.ascontiguousarray(grid.to_grid(x).T)
        p, k = len(x), len(x) - 60
        which = rng.integers(0, 3, p)
        lookup, first = stack.lookup(p, which), stack.lookup(p)
        for points in (k, p, k):  # a call keeps nothing for the next one
            got = lookup(u[:, :points])
            assert got.shape == (2, points)
            for e in range(2):
                for i in range(3):
                    sel = which[:points] == i
                    want = nets[i][e].eval(x[:points][sel])[:, 0]
                    np.testing.assert_array_equal(got[e, sel], want)
                # which=None: every point reads table 0
                np.testing.assert_array_equal(
                    first(u[:, :points])[e], nets[0][e].eval(x[:points])[:, 0]
                )
        # eval gives every entry of table 0
        np.testing.assert_array_equal(stack.eval(x), first(u).T)
        assert np.all(lookup(u)[:, -50:] == 0.0)

    def test_s1_eval_keeps_its_slopes(self, rng, monkeypatch):
        # an s = 1 net lays out its table and the table's knot slopes
        # once, and every eval looks up those same arrays; its values are
        # a fresh net's, bit for bit, and the net keeps no lookup
        grid = li.GridSpec(1, 9, box=np.array([[-0.5, 1.5]]))
        coeffs = rng.standard_normal(10)
        net = li.InterpolantNet(grid, coeffs)
        x = stack_points(rng, grid)
        fresh = li.InterpolantNet(grid, coeffs)
        want = fresh(np.ascontiguousarray(grid.to_grid(x).T))[0]
        np.testing.assert_array_equal(net.eval(x)[:, 0], want)
        values, slopes = net.values, net.slopes
        np.testing.assert_array_equal(slopes[0], li.knot_slopes(np.pad(coeffs, 1)))
        read = []
        init = li.KnotLookup.__init__

        def recording_init(lookup, grid, values, slopes, starts):
            read.append((values, slopes))
            init(lookup, grid, values, slopes, starts)

        monkeypatch.setattr(li.KnotLookup, "__init__", recording_init)
        for _ in range(2):
            np.testing.assert_array_equal(net.eval(x)[:, 0], want)
        assert len(read) == 2 and all(v is values and d is slopes for v, d in read)
        assert net.values is values and net.slopes is slopes
        lookups = (li.KnotLookup, li.CornerLookup, li.InterpolantNet)
        assert not any(isinstance(v, lookups) for v in vars(net).values())

    def test_contracted_rows(self, rng):
        # s = 1: row r's table is sum_e w[r, e] * entry e, with its slopes
        grid = li.GridSpec(1, 7)
        coeffs = rng.standard_normal((3, 8))
        stack = li.InterpolantNet(grid, coeffs[None])
        w = rng.standard_normal((5, 3))
        rows = stack.contracted(w, li.InterpolantNet(grid, np.zeros((5, 1, 8))))
        want = np.einsum("re,et->rt", w, np.pad(coeffs, ((0, 0), (1, 1))))
        np.testing.assert_array_equal(rows.values, want.reshape(1, -1))
        np.testing.assert_array_equal(rows.slopes, li.knot_slopes(rows.values))
        # rewritten in place for other weights of as many rows
        again = stack.contracted(2.0 * w, out=rows)
        assert again is rows
        np.testing.assert_array_equal(rows.values, 2.0 * want.reshape(1, -1))

    def test_refuses_mixed_nets(self):
        # nets of one grid join only at one sawtooth depth and table count
        grid = li.GridSpec(2, 3)
        values = np.ones((2, 1, 16))
        mixed = [li.stable_stack(grid, values, 0.5, 0.5, sup)[0] for sup in (1.0, 1e6)]
        assert len({stack.sawtooth_depth for stack in mixed}) == 2
        fewer = li.stable_stack(grid, values[:1], 0.5, 0.5, 1.0)[0]
        for stacks in (mixed, [mixed[0], fewer]):
            with pytest.raises(ValueError, match="one grid and sawtooth depth"):
                li.InterpolantNet.joined(stacks)
        joined = li.InterpolantNet.joined([mixed[0], mixed[0]])
        np.testing.assert_array_equal(joined.values, np.vstack([mixed[0].values] * 2))


class TestGhostRing:
    """Every table sits in one ring of zero ghost nodes, written as the
    tables are laid out; sizes and depth read the coefficients alone."""

    @pytest.mark.parametrize("s,q", [(2, 5), (3, 3)])
    def test_stable_stack_ring(self, s, q, rng):
        grid = li.GridSpec(s, q, box=np.tile([-0.5, 1.5], (s, 1)))
        samples = rng.uniform(-1.0, 1.0, (3, 2, (q + 1) ** s))
        samples[1, 0, ::3] = 0.0
        net, sizes, depth = li.stable_stack(grid, samples, 2.0, 0.5, 1.0)
        assert net.table_shape == (q + 3,) * s
        assert net.values.shape == (2, 3 * (q + 3) ** s)
        coeffs = samples.reshape((3, 2) + (q + 1,) * s)
        tables = net.values.reshape((2, 3) + net.table_shape)
        interior = (slice(None),) * 2 + (slice(1, -1),) * s
        np.testing.assert_array_equal(tables[interior], coeffs.swapaxes(0, 1))
        ring = np.ones(tables.shape, dtype=bool)
        ring[interior] = False
        assert np.all(tables[ring] == 0.0) and not np.any(np.signbit(tables[ring]))
        np.testing.assert_array_equal(tables[0, 0], np.pad(coeffs[0, 0], 1))
        np.testing.assert_array_equal(reference.coefficients(net), coeffs)
        # eval reads the net's own tables, laid out once, with no copy
        x = rng.uniform(-1.0, 2.0, (40, s))
        fresh = li.InterpolantNet(grid, coeffs, delta_inner=net.delta_inner)
        want = fresh(np.ascontiguousarray(grid.to_grid(x).T))
        np.testing.assert_array_equal(net.eval(x), want.T)
        net.values *= 2.0
        np.testing.assert_array_equal(net.eval(x), 2.0 * want.T)
        # the sizes and depth count the coefficients, not the ring
        np.testing.assert_array_equal(sizes, li.table_sizes(grid, coeffs, net.sawtooth_depth))
        assert net.size() == per_axis_size(net) == sizes.sum()
        one = li.InterpolantNet(grid, coeffs[0, 0], delta_inner=net.delta_inner)
        assert one.size() == per_axis_size(one) == sizes[0, 0]
        assert depth == net.depth() == li.template_counts(s, net.sawtooth_depth)[1]

    def test_joined_refuses_other_layouts(self, rng):
        # one sawtooth depth, but another grid or dimension
        def stack(s, q):
            values = rng.uniform(-1.0, 1.0, (1, 1, (q + 1) ** s))
            return li.stable_stack(li.GridSpec(s, q), values, 2.0, 0.5, 1.0)[0]

        base = stack(2, 4)
        for other in (stack(2, 5), stack(3, 4)):
            assert other.sawtooth_depth == base.sawtooth_depth or other.s != 2
            with pytest.raises(ValueError, match="one grid and sawtooth depth"):
                li.InterpolantNet.joined([base, other])
        joined = li.InterpolantNet.joined([base, stack(2, 4)])
        assert joined.values.shape == (2, 7**2)
        # a net that was looked up has let go of its coefficients
        base.lookup(1)
        with pytest.raises(ValueError, match="looked up"):
            li.InterpolantNet.joined([base, stack(2, 4)])


class TestStableStack:
    """One stacked build gives, bit for bit, the tables and exactly the
    sizes and depth of a lip_stable_net build per table."""

    def assert_equals_per_table_builds(self, grid, values, tol, lip, sup):
        stack, sizes, depth = li.stable_stack(grid, values, tol, lip, sup)
        n_tables, entries = values.shape[:2]
        assert sizes.shape == (n_tables, entries)
        size = math.prod(stack.table_shape)
        for i in range(n_tables):
            for e in range(entries):
                sf = li.SampledFunction(grid, values[i, e], lip, sup)
                net, rep = li.lip_stable_net(sf, tol)
                assert (rep["size"], rep["depth"]) == (sizes[i, e], depth)
                assert net.size() == per_axis_size(net) == sizes[i, e]
                assert net.sawtooth_depth == stack.sawtooth_depth
                table = stack.values[e, i * size : (i + 1) * size]
                np.testing.assert_array_equal(table, net.values.ravel())
        if grid.s == 1:
            np.testing.assert_array_equal(stack.slopes, li.knot_slopes(stack.values))
        return stack, sizes

    @pytest.mark.parametrize(
        "s,lo,hi,lip,tol",
        [
            (1, 0.0, 1.0, 1.0, 0.05),
            (1, -0.5, 1.5, 0.8, 0.1),
            (2, 0.0, 1.0, 0.7, 0.1),
            (2, -0.5, 1.5, 1.0, 0.5),
        ],
    )
    def test_equals_per_table_builds(self, s, lo, hi, lip, tol, rng):
        grid = li.GridSpec.for_tolerance(np.tile([lo, hi], (s, 1)), lip, tol)
        nodes = (grid.q + 1) ** s
        values = rng.uniform(-1.0, 1.0, (3, 2, nodes))
        values[0, 1] = 0.0  # a table of zeros has size 0
        values[1, 0, ::3] = 0.0  # inactive nodes, some on the grid's low end
        values[2, 1, 1::2] = 0.0
        stack, sizes = self.assert_equals_per_table_builds(grid, values, tol, lip, 1.0)
        assert sizes[0, 1] == 0 and np.all(sizes[[0, 1, 2], [0, 0, 0]] > 0)
        # a fused hat-layer bias k - i - lo / (h (hi - lo)) is zero at some
        # node i of each axis on these grids (q is a multiple of 4 on
        # [-0.5, 1.5]), and the count subtracts it
        assert grid.q % 4 == 0 or lo == 0.0
        hat = li.template_counts(s, stack.sawtooth_depth)[0]
        full = (values != 0.0).sum(axis=2) * hat
        assert np.all(sizes[full > 0] < full[full > 0])

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("value", [0.0, 0.75])
    def test_constant_datum_one_cell(self, s, value):
        # lip 0: one cell per axis, every node the constant
        grid = li.GridSpec.for_tolerance(np.tile([0.0, 1.0], (s, 1)), 0.0, 0.1)
        assert grid.q == 1
        values = np.full((2, 1, 2**s), value)
        _, sizes = self.assert_equals_per_table_builds(grid, values, 0.1, 0.0, abs(value))
        assert np.all((sizes == 0) == (value == 0.0))

    def test_grid_too_coarse(self):
        grid = li.GridSpec(1, 9)
        with pytest.raises(li.GridTooCoarse) as exc:
            li.stable_stack(grid, np.zeros((2, 1, 10)), 0.1, 1.0, 1.0)
        assert exc.value.required_q == 20


def per_axis_size(net):
    """Reference size count of the nets of ``net``'s tables: their active
    nodes' hats less the zero fused hat-layer biases, summed axis by
    axis over every node index."""
    mask = reference.coefficients(net) != 0.0
    total = int(mask.sum()) * li.template_counts(net.s, net.sawtooth_depth)[0]
    i = np.arange(net.grid.q + 1)
    for j, (lo, hi) in enumerate(net.grid.box):
        counts = mask.sum(axis=tuple(d for d in range(mask.ndim) if d != 2 + j))
        zeros = sum(k - i - lo / (net.grid.h * (hi - lo)) == 0.0 for k in (1, 0, -1))
        total -= int(zeros @ counts)
    return total


class TestPartitionOfUnity:
    @given(st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_hat_sum_near_one(self, x1, x2):
        h, delta = 0.25, 1e-3
        q = 4
        total = 0.0
        for i in range(q + 1):
            for j in range(q + 1):
                net = _cached_hat((i, j), h, delta)
                total += net.eval(np.array([x1, x2]))[0]
        assert abs(total - 1.0) <= 2 * delta * 4  # <= 4 active hats


_HATS = {}


def _cached_hat(idx, h, delta):
    key = (idx, h, delta)
    if key not in _HATS:
        _HATS[key] = li.tensor_hat(idx, h, delta)
    return _HATS[key]


def test_calibration_runs():
    consts = li.calibrate_constants(seed=1)
    assert consts["c1"] > 0 and consts["c2"] > 0 and consts["c3"] > 0
    assert consts["c3"] <= li.CALIBRATED["c3"] + 1e-9
    assert consts["C"] <= li.CALIBRATED["C"] + 1e-9
