"""Hat functions, product networks, and Lipschitz-stable interpolant nets.

The constructions are the finitely-parametrized backbone of the whole
package: exact ReLU hat functions, an approximate s-fold product network
accurate in value and first derivative with log(1/delta) cost, tensor-hat
bumps with exact support containment, and interpolant networks for
arbitrary Lipschitz functions with certified sup error and stable
Lipschitz constants.

The multiplication network uses the polarization

    u*v = ((u+v)/2)^2 - ((u-v)/2)^2

with both squares realized by the same sawtooth-telescope network.  This
variant keeps every intermediate value inside [0,1] (the square argument
(u+v)/2 always dominates |u-v|/2 and the telescoped square interpolates
x^2 from above), and it vanishes identically whenever one factor is
exactly zero, which is what makes tensor-hat supports exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .relu_net import (
    IDENTITY,
    RELU,
    AffineLayer,
    ReluNetwork,
    affine_net,
    compose,
    parallelize,
    sum_nets,
)

# Constants measured by the `calibrate` harness command on this
# implementation (see calibrate_constants); shipped as defaults with
# headroom over the measured values (c1 ~ 338, c2 ~ 3.25, c3 ~ 0.73,
# C ~ 0.5 on the calibration corpus).
CALIBRATED = {
    "c1": 400.0,  # size(N_delta) <= c1 * Lip^s * delta^-s * log2(1/delta)
    "c2": 4.0,    # depth(N_delta) <= c2 * log2(1/delta)
    "c3": 1.0,    # Lip(N_delta) <= c3 * (1 + sup(g)) * Lip(g)
    "C": 0.75,    # |g - g_h| <= C * h * Lip(g)
}


def c_star(s, sup_norm):
    """Inner product-net tolerance ratio for interpolant assembly.

    At most 2^s tensor hats overlap any point, so budgeting half the
    target accuracy for them requires delta* = delta / (2^(s+2) sup).
    """
    return 1.0 / (2 ** (s + 2) * max(1.0, sup_norm))


# ---------------------------------------------------------------------------
# hat functions


def hat1d(h, i):
    """Exact net for phi((x - i*h)/h) with phi(t) = max(0, 1 - |t|).

    Realized as the second divided difference of the ReLU:
    relu(u+1) - 2*relu(u) + relu(u-1) with u = x/h - i.  Support is
    [(i-1)h, (i+1)h] and the Lipschitz constant is exactly 1/h.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    w = np.array([[1.0 / h], [1.0 / h], [1.0 / h]])
    b = np.array([1.0 - i, -float(i), -1.0 - i])
    out = np.array([[1.0, -2.0, 1.0]])
    return ReluNetwork(
        [AffineLayer(w, b, RELU), AffineLayer(out, np.zeros(1), IDENTITY)]
    )


def hat_value(h, i, x):
    """Direct formula for the hat, used as test oracle."""
    u = np.asarray(x, dtype=float) / h - i
    return np.maximum(0.0, 1.0 - np.abs(u))


# ---------------------------------------------------------------------------
# squaring and multiplication


def square_net(n):
    """Telescoped-sawtooth approximation of x^2 on [0,1].

    Piecewise-linear interpolant of x^2 at spacing 2^-n: sup error is
    exactly 4^-n / 4 and the derivative deviates from 2x by at most
    2^-n.  Monotone on [0, inf), zero on (-inf, 0], and exact at the
    dyadic nodes.  Depth n+1, width 5.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # channels after each hidden layer: teeth of t_{k-1} (3), x passthrough,
    # accumulator of sum g_j / 4^j (from layer 2 on)
    tooth = np.array([2.0, -4.0, 2.0])
    layers = [
        AffineLayer(
            np.array([[1.0], [1.0], [1.0], [1.0]]),
            np.array([0.0, -0.5, -1.0, 0.0]),
            RELU,
        )
    ]
    for k in range(2, n + 1):
        cols = 4 if k == 2 else 5
        w = np.zeros((5, cols))
        b = np.zeros(5)
        for r, shift in enumerate((0.0, -0.5, -1.0)):
            w[r, :3] = tooth
            b[r] = shift
        w[3, 3] = 1.0
        w[4, :3] = tooth / 4.0 ** (k - 1)
        if cols == 5:
            w[4, 4] = 1.0
        layers.append(AffineLayer(w, b, RELU))
    if n == 1:
        final = np.array([[-2.0, 4.0, -2.0, 1.0]]) / 4.0
        final[0, 3] = 1.0
    else:
        final = np.zeros((1, 5))
        final[0, :3] = -tooth / 4.0**n
        final[0, 3] = 1.0
        final[0, 4] = -1.0
    layers.append(AffineLayer(final, np.zeros(1), IDENTITY))
    return ReluNetwork(layers)


def mult2_net(n):
    """Product of two numbers in [0,1] via polarized squares.

    Output is S((u+v)/2) - S(|u-v|/2) with S = square_net(n); sup
    error at most 4^-n / 4, derivative error at most 2^-n, range
    contained in [0,1].  In exact arithmetic the output vanishes
    identically when u or v is zero (both square arguments coincide);
    float evaluation leaves sub-1e-15 rounding dust on the zero faces
    but stays exactly zero at the origin.
    """
    prep = ReluNetwork(
        [
            AffineLayer(
                np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]]),
                np.zeros(3),
                RELU,
            ),
            AffineLayer(
                np.array([[0.5, 0.0, 0.0], [0.0, 0.5, 0.5]]),
                np.zeros(2),
                IDENTITY,
            ),
        ]
    )
    sq = square_net(n)
    pair = parallelize(
        [compose(sq, affine_net([[1.0, 0.0]])), compose(sq, affine_net([[0.0, 1.0]]))]
    )
    return compose(affine_net([[1.0, -1.0]]), compose(pair, prep))


def clamp_net(dim, lo=0.0, hi=1.0):
    """Componentwise clamp to [lo, hi]: relu(x - lo) - relu(x - hi) + lo."""
    w1 = np.zeros((2 * dim, dim))
    b1 = np.zeros(2 * dim)
    for j in range(dim):
        w1[2 * j, j] = 1.0
        b1[2 * j] = -lo
        w1[2 * j + 1, j] = 1.0
        b1[2 * j + 1] = -hi
    w2 = np.zeros((dim, 2 * dim))
    for j in range(dim):
        w2[j, 2 * j] = 1.0
        w2[j, 2 * j + 1] = -1.0
    return ReluNetwork(
        [AffineLayer(w1, b1, RELU), AffineLayer(w2, np.full(dim, lo), IDENTITY)]
    )


def product_error_bounds(s, n):
    """Certified sup and gradient error bounds of the product tree."""
    e0 = 0.25 * 4.0 ** (-n)
    e1 = 2.0 ** (-n)
    val = (s - 1) * e0
    d = max(1, math.ceil(math.log2(s)))
    der = d * (e1 + val) * (1.0 + e1 + val) ** (d - 1)
    return val, der


def product_depth_param(s, delta):
    """Smallest sawtooth depth meeting value and gradient budgets."""
    n = 1
    while max(product_error_bounds(s, n)) > delta:
        n += 1
        if n > 60:
            raise ValueError("delta too small for float64 construction")
    return n


def product_net(s, delta):
    """ReLU approximation of (v_1,...,v_s) -> prod v_j on [0,1]^s.

    Sup error and sampled-gradient error are both at most delta; the
    output is exactly zero at the origin and vanishes on the zero
    faces up to float rounding dust.  Size and depth scale like
    log2(1/delta) with s-dependent constants.  Inputs are clamped to
    [0,1] first.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    n = product_depth_param(s, delta)
    mult = mult2_net(n)
    net = clamp_net(s)
    width = s
    while width > 1:
        stage = []
        for j in range(0, width - 1, 2):
            sel = np.zeros((2, width))
            sel[0, j] = 1.0
            sel[1, j + 1] = 1.0
            stage.append(compose(mult, affine_net(sel)))
        if width % 2 == 1:
            sel = np.zeros((1, width))
            sel[0, width - 1] = 1.0
            stage.append(affine_net(sel))
        net = compose(parallelize(stage), net)
        width = (width + 1) // 2
    return net


# ---------------------------------------------------------------------------
# tensor-product hat networks


def hat_bank(indices, h):
    """Stack of univariate hats: x in R^s -> (phi_{i_j,h}(x_j))_j."""
    indices = list(indices)
    s = len(indices)
    nets = []
    for j, i in enumerate(indices):
        sel = np.zeros((1, s))
        sel[0, j] = 1.0
        nets.append(compose(hat1d(h, i), affine_net(sel)))
    return parallelize(nets)


def tensor_hat(indices, h, delta):
    """Approximate tensor-product hat with support containment.

    Approximates prod_j phi_{i_j,h}(x_j) with sup error <= delta.  The
    product network vanishes whenever a factor is zero (exactly so in
    exact arithmetic; float evaluation leaves sub-1e-13 dust), so the
    support is contained in the support of the exact tensor hat by
    construction, with no separate gating.  The interpolant evaluator
    built on top masks inactive cells to literal zeros.
    """
    indices = list(indices)
    s = len(indices)
    if s == 1:
        return hat1d(h, indices[0])
    return compose(product_net(s, delta), hat_bank(indices, h))


# ---------------------------------------------------------------------------
# grids and sampled functions


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid with q cells per axis on an axis-aligned box."""

    s: int
    q: int
    box: np.ndarray = None  # shape (s, 2); defaults to the unit cube

    def __post_init__(self):
        if self.s < 1 or self.q < 1:
            raise ValueError("need s >= 1 and q >= 1")
        box = self.box
        if box is None:
            box = np.tile(np.array([0.0, 1.0]), (self.s, 1))
        box = np.asarray(box, dtype=float).reshape(self.s, 2)
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValueError("box must have positive widths")
        object.__setattr__(self, "box", box)

    @property
    def h(self):
        return 1.0 / self.q

    def axis_nodes(self, j):
        return np.linspace(self.box[j, 0], self.box[j, 1], self.q + 1)

    def nodes(self):
        """All grid nodes, shape ((q+1)^s, s), C-order over indices."""
        axes = [self.axis_nodes(j) for j in range(self.s)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def to_unit(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.box[:, 0]) / (self.box[:, 1] - self.box[:, 0])

    def unit_lip(self, lip_box):
        """Max-norm Lipschitz bound after mapping the box to the unit cube."""
        return lip_box * float(np.max(self.box[:, 1] - self.box[:, 0]))


@dataclass
class SampledFunction:
    """Grid samples of a Lipschitz function with declared norms.

    ``values`` holds g at all grid nodes in index order, shape
    (q+1,)*s.  ``lip_bound`` is a max-norm Lipschitz bound on the box,
    ``sup_bound`` bounds |g|.
    """

    grid: GridSpec
    values: np.ndarray
    lip_bound: float
    sup_bound: float = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.q + 1,) * self.grid.s
        if self.values.shape != expected:
            self.values = self.values.reshape(expected)
        if self.sup_bound is None:
            self.sup_bound = float(np.max(np.abs(self.values)))

    @classmethod
    def from_function(cls, fn, grid, lip_bound, sup_bound=None):
        nodes = grid.nodes()
        vals = np.asarray(fn(nodes), dtype=float).reshape((grid.q + 1,) * grid.s)
        return cls(grid, vals, lip_bound, sup_bound)

    def validate(self, seed=0, n_pairs=200):
        """Spot-check the declared Lipschitz bound on random node pairs."""
        rng = np.random.default_rng(seed)
        shape = self.values.shape
        h = self.grid.h * np.max(self.grid.box[:, 1] - self.grid.box[:, 0])
        a = np.stack([rng.integers(0, n, size=n_pairs) for n in shape], axis=1)
        b = np.stack([rng.integers(0, n, size=n_pairs) for n in shape], axis=1)
        for ia, ib in zip(a, b):
            dist = np.abs(ia - ib).max()
            if dist == 0:
                continue
            dv = abs(self.values[tuple(ia)] - self.values[tuple(ib)])
            if dv > self.lip_bound * h * dist * (1 + 1e-9):
                raise ValueError("sampled values violate declared Lipschitz bound")


class GridTooCoarse(ValueError):
    """Raised when the sampled grid cannot meet the requested accuracy."""

    def __init__(self, required_q, grid_q):
        self.required_q = required_q
        self.grid_q = grid_q
        super().__init__(
            f"grid with q={grid_q} too coarse; rebuild with q >= {required_q}"
        )


# ---------------------------------------------------------------------------
# Lipschitz-stable interpolant networks


def knot_slopes(values):
    """Differences values[l + 1] - values[l] along axis 0.

    The last entry, which no lookup reads, is zero.
    """
    slopes = np.empty_like(values)
    np.subtract(values[1:], values[:-1], out=slopes[:-1])
    slopes[-1] = 0.0
    return slopes


class KnotLookup:
    """s = 1 hat sums over stacked knot tables, for a fixed number of points.

    ``values`` (L * (q + 3),) + trailing stacks L tables laid out like
    :attr:`InterpolantNet.table` on ``grid``, whose entries may be blocks
    of values, one per interpolant; ``slopes`` are their
    :func:`knot_slopes`.  Point r reads the table that starts at
    ``starts[r]``.  Everything but the points is fixed here, so a call
    is one in-place pass over work buffers made once.
    """

    def __init__(self, grid, values, slopes, starts):
        self.grid = grid
        self.values = values
        self.slopes = slopes
        # table entry of cell -1, the ghost knot at -h, is entry 0
        self.origin = starts + 1
        p = len(starts)
        self.u = np.empty(p)
        self.cell = np.empty(p)
        self.index = np.empty(p, dtype=np.intp)
        self.base = np.empty((p,) + values.shape[1:])

    def __call__(self, x, out):
        """Hat sums at the points ``x`` (p,) of the grid's box, into ``out``.

        The two cell ends are the only active hats, with exact weights:
        out = values[l] + slopes[l] * (u - cell) at grid coordinate u.
        """
        q, u, cell, index = self.grid.q, self.u, self.cell, self.index
        lo, hi = self.grid.box[0]
        np.subtract(x, lo, out=u)
        u /= hi - lo
        u /= self.grid.h
        # clipping to the ghost knots gives literal zeros beyond [-h, 1+h]
        np.clip(u, -1.0, q + 1.0, out=u)
        np.floor(u, out=cell)
        np.minimum(cell, q, out=cell)
        np.copyto(index, cell, casting="unsafe")
        index += self.origin
        u -= cell
        # The clip puts every index in its point's own table, with
        # index + 1 at most its last entry, so mode="clip" never changes
        # a read: it only lets take write into out without a buffered
        # copy.  A NaN point escapes the clip; its cast warns and its
        # value comes out NaN.
        self.slopes.take(index, axis=0, out=out, mode="clip")
        out *= u.reshape(u.shape + (1,) * (out.ndim - 1))
        self.values.take(index, axis=0, out=self.base, mode="clip")
        out += self.base
        return out


class InterpolantNet:
    """Weighted sum of tensor-hat networks over a uniform grid.

    Functionally identical to the monolithic ReLU network obtained by
    parallelizing all tensor hats and fusing the weighted sum into the
    output layers (see :meth:`materialize`, cross-checked in tests),
    but stores one shared hat template plus the coefficient array so
    that evaluation touches only the <= 2^s hats active at each point.
    ``table`` is the coefficient array as :class:`KnotLookup` (s = 1,
    with its ``slopes``) or :meth:`weighted_sum` (s >= 2) reads it.
    ``size()`` and ``depth()`` report the exact monolithic counts.
    """

    def __init__(self, grid, coeffs, delta_inner=None):
        self.grid = grid
        self.coeffs = np.asarray(coeffs, dtype=float).reshape(
            (grid.q + 1,) * grid.s
        )
        self.s = grid.s
        self.delta_inner = delta_inner
        if grid.s == 1:
            self.template = None
            # ghost zero-nodes at -h and 1+h carry the boundary hat ramps
            self.table = np.concatenate(([0.0], self.coeffs, [0.0]))
            self.slopes = knot_slopes(self.table)
        else:
            self.table = self.coeffs
            if delta_inner is None:
                raise ValueError("s >= 2 interpolants need delta_inner")
            # template in local hat coordinates u = x_unit/h - i
            self.template = compose(
                product_net(grid.s, delta_inner),
                parallelize(
                    [
                        compose(hat1d(1.0, 0), affine_net(_unit_row(grid.s, j)))
                        for j in range(grid.s)
                    ]
                ),
            )

    @property
    def in_dim(self):
        return self.s

    @property
    def out_dim(self):
        return 1

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if self.s == 1:
            n = x.shape[0]
            lookup = KnotLookup(
                self.grid, self.table, self.slopes, np.zeros(n, dtype=np.intp)
            )
            out = lookup(x[:, 0], np.empty(n))[:, None]
        else:
            out = self.weighted_sum(self.grid.to_unit(x), self.table[None])[:, None]
        return out[0] if single else out

    def weighted_sum(self, xu, tables, lead=None):
        """Hat sums sum_node tables[lead, node] * hat_node(xu), s >= 2.

        ``xu`` (n, s) are points in unit-cube coordinates of this net's
        grid.  ``tables`` has shape (L,) + ``table.shape`` + trailing
        axes: L coefficient tables laid out like :attr:`table`, whose
        entries may be blocks of values, one per interpolant sharing
        this grid and hat template.  Point r reads table ``lead[r]``
        (table 0 if ``lead`` is None).  Returns (n,) + trailing axes.

        Only the 2^s cell corners, the hats active at a point, are
        evaluated: one template evaluation per corner for all points and
        all trailing entries at once.  s = 1 nets are looked up by
        :class:`KnotLookup` instead.
        """
        q, s = self.grid.q, self.s
        trailing = tables.shape[s + 1 :]
        flat = tables.reshape((-1,) + trailing)
        u = xu / self.grid.h
        cell = np.floor(u).astype(int)
        out = np.zeros((xu.shape[0],) + trailing)
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
            vals = self.template.eval(local[active])[:, 0]
            out[active] += coeff * vals.reshape((-1,) + (1,) * len(trailing))
        return out

    # -- exact structural accounting -------------------------------------

    def _hat_layer_bias(self, j, i, k):
        # fused first-layer bias of the axis-j hat channel k in {1,0,-1}
        lo, hi = self.grid.box[j]
        return k - i - lo / (self.grid.h * (hi - lo))

    def _active_mask(self):
        return self.coeffs != 0.0

    def size(self):
        mask = self._active_mask()
        n_active = int(mask.sum())
        if n_active == 0:
            return 0
        if self.s == 1:
            per = 3 + 3 + 3  # hat weights, biases, readout row
        else:
            per = _template_body_size(self.template, self.s)
        total = n_active * per
        # subtract fused hat-layer biases that happen to be exactly zero
        i = np.arange(self.grid.q + 1)
        for j in range(self.s):
            counts = mask.sum(axis=tuple(d for d in range(self.s) if d != j))
            zeros = sum(self._hat_layer_bias(j, i, k) == 0.0 for k in (1, 0, -1))
            total -= int(zeros @ counts)
        return total

    def depth(self):
        if self.s == 1:
            return 2
        return self.template.depth()

    def materialize(self, max_nodes=2000):
        """Assemble the literal monolithic ReLU network (small grids only).

        The dense block-diagonal layers grow quadratically with the
        active-node count, so large interpolants refuse; the structured
        evaluator is the production representation.
        """
        mask = self._active_mask()
        n_active = int(mask.sum())
        if n_active > max_nodes:
            raise ResourceWarning(
                f"materializing {n_active} tensor hats exceeds the {max_nodes} cap"
            )
        nets, weights = [], []
        for idx in np.argwhere(mask):
            nets.append(self._global_hat(tuple(idx)))
            weights.append(self.coeffs[tuple(idx)])
        return sum_nets(nets, weights)

    def _global_hat(self, indices):
        # tensor hat in original x coordinates: unit-map fused into hats
        widths = self.grid.box[:, 1] - self.grid.box[:, 0]
        scale = np.diag(1.0 / widths)
        shift = -self.grid.box[:, 0] / widths
        to_unit = affine_net(scale, shift)
        if self.s == 1:
            return compose(hat1d(self.grid.h, indices[0]), to_unit)
        bank = hat_bank(indices, self.grid.h)
        return compose(
            compose(product_net(self.s, self.delta_inner), bank), to_unit
        )


def _unit_row(s, j):
    row = np.zeros((1, s))
    row[0, j] = 1.0
    return row


def _template_body_size(template, s):
    # template hats sit at index 0 with h=1: biases (1, 0, -1) per axis,
    # i.e. one zero bias each; a generic interior hat has all three nonzero.
    return template.size() + s


def lip_stable_net(sf, delta, reference_fn=None):
    """Lipschitz-stable network approximation of a sampled function.

    Returns (net, report).  The network is the weighted tensor-hat sum
    over the sampled grid; certified sup error <= delta requires the
    grid spacing h <= delta / (2 * lip); otherwise :class:`GridTooCoarse`
    reports the required q.  The report carries h, the inner product-net
    tolerance, exact size and depth, and, when a reference callable is
    supplied, the sup error measured at 2000 seeded random points.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    grid = sf.grid
    lip_unit = grid.unit_lip(sf.lip_bound)
    if lip_unit > 0:
        required_h = delta / (2.0 * lip_unit)
        if grid.h > required_h * (1 + 1e-12):
            raise GridTooCoarse(math.ceil(1.0 / required_h), grid.q)
    delta_inner = delta * c_star(grid.s, sf.sup_bound)
    net = InterpolantNet(
        grid, sf.values, delta_inner=None if grid.s == 1 else delta_inner
    )
    report = {
        "s": grid.s,
        "h": grid.h,
        "delta": delta,
        "delta_inner": None if grid.s == 1 else delta_inner,
        "size": net.size(),
        "depth": net.depth(),
        "measured_sup_error": None,
    }
    if reference_fn is not None:
        rng = np.random.default_rng(0)
        pts = rng.uniform(grid.box[:, 0], grid.box[:, 1], size=(2000, grid.s))
        ref = np.asarray(reference_fn(pts), dtype=float).reshape(-1)
        report["measured_sup_error"] = float(
            np.max(np.abs(net.eval(pts)[:, 0] - ref))
        )
    return net, report


# ---------------------------------------------------------------------------
# calibration


def calibrate_constants(seed=0):
    """Measure the construction constants on reference builds.

    Returns a dict with the empirical c1 (size law), c2 (depth law),
    c3 (Lipschitz amplification), C (interpolation error constant) and
    the c_star formula values, plus the evidence grid sizes.
    """
    rng = np.random.default_rng(seed)
    evidence = []
    c1 = c2 = c3 = big_c = 0.0
    for s in (1, 2):
        for k in (4, 6, 8):
            delta = 2.0**-k
            lip = 1.0
            q = math.ceil(2.0 * lip / delta)
            grid = GridSpec(s, q)
            # kink off the grid so the interpolation error is realized
            kink = 0.5 + 0.41 * grid.h

            def g(x, kink=kink):
                x = np.atleast_2d(x)
                return np.abs(x[:, 0] - kink) + (
                    0.3 * x[:, 1] if s > 1 else 0.0
                )

            sf = SampledFunction.from_function(g, grid, lip_bound=lip)
            net, rep = lip_stable_net(sf, delta, reference_fn=g)
            c1 = max(c1, rep["size"] * delta**s / (lip**s * k))
            c2 = max(c2, rep["depth"] / k)
            box = np.tile([0.0, 1.0], (s, 1))
            low = _interpolant_lip(net, box, rng)
            c3 = max(c3, low / ((1.0 + sf.sup_bound) * lip))
            pts = rng.uniform(0, 1, size=(2000, s))
            err = np.max(np.abs(net.eval(pts)[:, 0] - g(pts)))
            big_c = max(big_c, err / (grid.h * lip))
            evidence.append({"s": s, "delta": delta, "q": q, "size": rep["size"]})
    return {
        "c1": c1,
        "c2": c2,
        "c3": c3,
        "C": big_c,
        "c_star": {s: c_star(s, 1.0) for s in (1, 2, 3)},
        "evidence": evidence,
    }


def _interpolant_lip(net, box, rng, n=2000):
    lo, hi = box[:, 0], box[:, 1]
    a = rng.uniform(lo, hi, size=(n, len(lo)))
    d = rng.uniform(-1, 1, size=(n, len(lo)))
    d *= 1e-4 / np.maximum(np.abs(d).max(axis=1, keepdims=True), 1e-300)
    b = np.clip(a + d, lo, hi)
    num = np.abs(net.eval(a) - net.eval(b)).max(axis=1)
    den = np.abs(a - b).max(axis=1)
    ok = den > 0
    return float((num[ok] / den[ok]).max())
