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

import functools
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
    difference_quotient,
    parallelize,
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

# the most nodes an interpolation grid sized from a tolerance may have
NODE_CEILING = 4_000_000


class ResourceCeiling(RuntimeError):
    """Requested accuracy exceeds the configured build budget."""

    def __init__(self, message, predicted_cost):
        super().__init__(f"{message} (predicted cost {predicted_cost:.3g})")
        self.predicted_cost = predicted_cost


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


def sawtooth(t, k, w, n):
    """The value of :func:`square_net` (n) times 4^n, in place: the
    sawtooth formula of the closed form that :class:`CornerLookup` runs.

    ``t`` (2, ...) holds x 2^n for the squares of a pair, its sums in
    ``t[0]`` and its differences in ``t[1]``, and becomes k^2 + (2k+1) r,
    with the knot cell k = floor(x 2^n), capped at 2^n - 1 in ``t[0]``,
    and r = x 2^n - k; ``k`` and ``w`` are work arrays of t's shape.  A
    difference's x is at most 1/2 < 1, where the cap changes nothing.
    The net's two sign guards, k >= 0 and a result >= 0, change nothing
    for x >= 0 and are left out.
    """
    np.floor(t, out=k)
    np.minimum(k[0], 2.0**n - 1.0, out=k[0])
    t -= k
    np.multiply(k, 2.0, out=w)
    w += 1.0
    t *= w
    np.square(k, out=k)
    t += k
    return t


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
    exact arithmetic; float evaluation of its layers leaves sub-1e-13
    dust), so the support is contained in the support of the exact
    tensor hat by construction, with no separate gating.  Interpolants
    evaluate its closed form instead, which :class:`CornerLookup` runs
    on the 2^s corners of a point's cell, and which gives literal zeros
    outside the support.
    """
    indices = list(indices)
    s = len(indices)
    if s == 1:
        return hat1d(h, indices[0])
    return compose(product_net(s, delta), hat_bank(indices, h))


@functools.lru_cache(maxsize=None)
def template_counts(s, n):
    """(size, depth) of an interpolant's tensor hat at sawtooth depth n.

    Composed once per (s, n) as the hat of node 0 with h = 1, whose
    biases (1, 0, -1) have one zero per axis that an interior hat's do
    not have: size adds s.
    """
    delta = None if s == 1 else max(product_error_bounds(s, n))
    # the bounds fall strictly in n, so this delta selects n again
    assert s == 1 or product_depth_param(s, delta) == n
    template = tensor_hat([0] * s, 1.0, delta)
    return template.size() + s, template.depth()


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

    @property
    def spacing(self):
        """Cell length per axis in box coordinates."""
        return (self.box[:, 1] - self.box[:, 0]) / self.q

    def to_grid(self, x):
        """Grid units (x - lo) / spacing: node i of an axis sits at i."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return (x - self.box[:, 0]) / self.spacing

    @classmethod
    def for_tolerance(cls, box, lip, tol):
        """The grid on ``box`` (s, 2) at which :func:`lip_stable_net`
        certifies sup error ``tol`` for a ``lip``-Lipschitz function.

        It has :meth:`cells_for` cells per axis.  A grid of more than
        ``NODE_CEILING`` nodes is refused with :class:`ResourceCeiling`,
        whose predicted cost is its node count.
        """
        box = np.asarray(box, dtype=float)
        q = cls.cells_for(box, lip, tol)
        nodes = (q + 1) ** len(box)
        if nodes > NODE_CEILING:
            raise ResourceCeiling(
                f"interpolation grid of {q} cells per axis needs {nodes} nodes "
                f"(ceiling {NODE_CEILING})",
                nodes,
            )
        return cls(len(box), q, box=box)

    @staticmethod
    def cells_for(box, lip, tol):
        """ceil(2 * lip * width / tol) with the widest side of ``box``: the
        spacing h <= tol / (2 * lip) in the max norm.  One cell when the
        function is constant (``lip == 0``) or ``tol`` is infinite.
        """
        if lip == 0 or not math.isfinite(tol):
            return 1
        width = float(np.max(box[:, 1] - box[:, 0]))
        return int(math.ceil(2.0 * lip * width / tol))


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


def knot_slopes(values, out=None):
    """Differences values[..., l + 1] - values[..., l] along the last axis,
    in ``out`` if given.

    The last entry, which no lookup reads, is zero.
    """
    slopes = np.empty_like(values) if out is None else out
    np.subtract(values[..., 1:], values[..., :-1], out=slopes[..., :-1])
    slopes[..., -1] = 0.0
    return slopes


_ONE_BITS = np.float64(1.0).view(np.uint64)


class KnotLookup:
    """s = 1 hat sums over stacked knot tables, for at most p points.

    ``values`` (E, L * (q + 3)) are the L tables of an
    :class:`InterpolantNet` on ``grid``, E values per knot, and
    ``slopes`` their :func:`knot_slopes`.  Point r of p reads the table
    that starts at entry ``starts[r]``.  Everything but the points is fixed here, so a
    call is one in-place pass over work buffers made once.  A call may
    pass k < p points: its points are the first k.

    A call keeps its points' cells and the knot values and slopes it
    gathered for them.  The next call of as many points, each in its
    kept cell (0 <= x - cell < 1, and not x = -0.0 in cell +0.0),
    reuses them and reads no table: the same float operations on the
    same operands, so the same bits.  The kept entries hold only while
    the tables do: after rewriting them in place, call :meth:`forget`.
    """

    def __init__(self, grid, values, slopes, starts):
        self.top = grid.q + 1.0
        self.values = values
        self.slopes = slopes
        # table entry of cell -1, the ghost knot at -h, is entry 0
        self.origin = starts + 1
        p = len(starts)
        self.u = np.empty(p)
        # the points' cell fractions as a row, which every entry shares
        self.frac = self.u.reshape(1, p)
        self.cell = np.empty(p)
        self.index = np.empty(p, dtype=np.intp)
        self.out = np.empty(len(values) * p)
        # the knot values and slopes gathered for the kept cells
        self.base = np.empty(len(values) * p)
        self.rise = np.empty(len(values) * p)
        self.kept = 0  # the point count of the kept cells, 0 if none

    def forget(self):
        """Drop the kept cells: the next call reads the tables."""
        self.kept = 0

    def __call__(self, x):
        """Hat sums (E, k) at the points ``x`` (1, k) in grid units.

        The two cell ends are the only active hats, with exact weights:
        values[:, l] + slopes[:, l] * (u - cell) at grid coordinate u.
        The result is a view of a buffer that the next call rewrites.
        """
        k = x.shape[1]
        u, cell = self.u[:k], self.cell[:k]
        shape = (len(self.values), k)
        slopes = self.rise[: shape[0] * k].reshape(shape)
        base = self.base[: shape[0] * k].reshape(shape)
        # A point with 0 <= x - cell < 1 lies in [-1, q + 2).  Up to
        # q + 1 the clip leaves it and floors it to its kept cell, and
        # x - cell = +0.0 only where x == cell, whose full fraction is
        # +0.0 too.  Past q + 1 the full path reads the top ghost knot at
        # fraction 0, the kept one at a positive fraction, and both give
        # its zero value plus its zero slope times the fraction.
        if not (k and k == self.kept and self._inside(x[0], u, cell)):
            self._gather(x[0], u, cell, slopes, base)
            self.kept = k
        out = self.out[: shape[0] * k].reshape(shape)
        np.multiply(slopes, self.frac[:, :k], out=out)
        out += base
        return out

    @staticmethod
    def _inside(x, u, cell):
        """Whether 0 <= x - cell < 1 at every point, with no -0.0; the
        fractions x - cell are left in ``u``."""
        np.subtract(x, cell, out=u)
        # As unsigned integers the bits of +0.0 <= u < 1.0 are those below
        # 1.0's: -0.0 (x = -0.0 in a kept cell +0.0, whose full fraction
        # is +0.0), negatives and NaNs have the sign or all exponent bits
        # set.  So one maximum checks both ends.
        return u.view(np.uint64).max() < _ONE_BITS

    def _gather(self, x, u, cell, slopes, base):
        """The points' cells and fractions, and their knots' slopes and
        values, read from the tables."""
        index = self.index[: len(u)]
        # clipping to the ghost knots gives literal zeros beyond them: the
        # top state q + 1 reads its table's last entry, whose value and
        # slope are both zero
        np.clip(x, -1.0, self.top, out=u)
        np.floor(u, out=cell)
        np.copyto(index, cell, casting="unsafe")
        index += self.origin[: len(u)]
        u -= cell
        # The clip puts every index in its point's own table, so
        # mode="clip" never changes a read: it only lets take write into
        # the buffers without a copy.  A NaN point escapes the clip; its
        # cast warns and its value comes out NaN.
        self.slopes.take(index, axis=1, out=slopes, mode="clip")
        self.values.take(index, axis=1, out=base, mode="clip")


class CornerLookup:
    """s >= 2 hat sums over stacked tensor tables, for at most p points.

    The twin of :class:`KnotLookup`.  ``values`` (E, L * (q + 3)^s) are
    the L tables of an :class:`InterpolantNet` on ``grid``, each in its
    ring of zero ghost nodes, E values per node, and ``depth`` is the
    net's one sawtooth depth, which all its E * L interpolants share.
    Point r of p reads the table that starts at entry ``starts[r]``.
    The table strides, the corners' offsets and the work buffers are
    made here, so a call is one in-place pass.  A call may pass k < p
    points: its points are the first k.
    """

    def __init__(self, grid, depth, values, starts):
        s, q, p = grid.s, grid.q, len(starts)
        self.top = q + 1.0
        self.cap = float(q)
        self.depth = depth
        self.values = values
        strides = (q + 3) ** np.arange(s)[::-1]
        self.strides = strides.astype(float)
        # a table's entry 0 is the ghost node (-1, ..., -1)
        self.origin = starts + strides.sum()
        # corner (b_0, ..., b_{s-1}) of a cell, in C order over the b_j,
        # is node cell + b
        self.corners = (np.array(list(np.ndindex((2,) * s))) @ strides)[:, None]
        corners = 2**s
        self.u, self.cell = np.empty(s * p), np.empty(s * p)
        self.factor = np.empty(2 * s * p)
        self.flat = np.empty(p)
        self.base = np.empty(p, dtype=np.intp)
        self.index = np.empty(corners * p, dtype=np.intp)
        # the product tree's pairs in the order a call forms them: a
        # product of a and b factor groups holds len(a) * len(b) corners
        groups, self.products = [2] * s, []
        while len(groups) > 1:
            pairs = [a * b for a, b in zip(groups[0::2], groups[1::2])]
            self.products += [np.empty(size * p) for size in pairs]
            groups = pairs + groups[len(pairs) * 2 :]
        # a pair's squares, sum and difference, and their cells and 2k + 1
        self.work = [np.empty(2 * corners * p) for _ in range(3)]
        self.coef = np.empty(len(values) * corners * p)
        self.out = np.empty(len(values) * p)

    def __call__(self, x):
        """Hat sums (E, k) at the points ``x`` (s, k) in grid units.

        The hats active at a point are those of its cell's 2^s corners.
        Clipping the point to the ghost ring [-1, q + 1] and capping its
        cell's low node at q puts every corner on a node of the table,
        a ghost one with a zero value where the node is off the grid, so
        no corner needs a mask: a point past the ghosts reads ghost
        corners and corners whose hat factor is 0, a literal 0.  The hat
        factors of each axis, 1 - f at the low node and f at the high
        one for the fraction f of the cell, lie in [0, 1], so the
        product tree runs without the clamp to [0, 1] of
        :func:`product_net` and the sign guards of its squares, which
        would change no bit (:func:`sawtooth`).  Each pair is
        S((a + b) / 2) - S(|a - b| / 2) with S the value of
        :func:`square_net`, and an odd last factor passes to the next
        level.  The corners' products
        are summed in corner order 0, ..., 2^s - 1 onto a zero.  The
        result is a view of a buffer that the next call rewrites.
        """
        s, k = x.shape
        n = self.depth
        u = self.u[: s * k].reshape(s, k)
        cell = self.cell[: s * k].reshape(s, k)
        np.clip(x, -1.0, self.top, out=u)
        np.floor(u, out=cell)
        np.minimum(cell, self.cap, out=cell)
        # The factors scaled by c = 2^(n-1): a pair's square arguments
        # (a + b) / 2 and |a - b| / 2 enter the sawtooth as x 2^n, and
        # (v 0.5) 2^n = (v c), fl(ca + cb) = c fl(a + b) and
        # c - cf = c (1 - f) hold bit for bit, since scaling by a power
        # of two is exact unless a value falls below 2^-1021.
        c = 2.0 ** (n - 1)
        factor = self.factor[: 2 * s * k].reshape(s, 2, k)
        np.subtract(u, cell, out=factor[:, 1])
        factor[:, 1] *= c
        np.subtract(c, factor[:, 1], out=factor[:, 0])
        # the index of each point's corner 0, its table folded in; a NaN
        # point's cast warns, and its value comes out NaN
        flat, base = self.flat[:k], self.base[:k]
        np.matmul(self.strides, cell, out=flat)
        np.copyto(base, flat, casting="unsafe")
        base += self.origin[:k]
        corners = len(self.corners)
        index = self.index[: corners * k].reshape(corners, k)
        np.add(base, self.corners, out=index)
        # the product tree over the axes' factor pairs, a product of
        # groups of a and b corners giving a * b corners in C order
        v, products = list(factor), iter(self.products)
        while len(v) > 1:
            last = len(v) == 2
            level = [
                self._product(a, b, next(products), n, last)
                for a, b in zip(v[0::2], v[1::2])
            ]
            v = level + v[len(level) * 2 :]
        entries = len(self.values)
        coef = self.coef[: entries * corners * k].reshape(entries, corners, k)
        # every corner is a node of its point's table, so mode="clip"
        # never changes a read; it lets take write into coef unbuffered
        self.values.take(index, axis=1, out=coef, mode="clip")
        # each element adds its corners' products in order onto a zero,
        # as 0 + c_0 + c_1 + ... does
        out = self.out[: entries * k].reshape(entries, k)
        coef *= v[0]
        np.add(coef[:, 0], 0.0, out=out)
        for c in range(1, corners):
            out += coef[:, c]
        return out

    def _product(self, a, b, out, n, last):
        """The pair products of factor groups ``a`` (A, k) and ``b``
        (B, k), scaled by c = 2^(n-1), into ``out``: (A * B, k) in C
        order, scaled by 4^-n if ``last``, else by c for the next level.

        S(x) 4^n - S(y) 4^n is exact where S(x) - S(y) is, so one
        scaling of the difference, by 4^-n or 4^-n c = 2^(-n-1), gives
        the product net's S(x) - S(y) (times c) bit for bit, unless a
        value falls below 2^-1021.
        """
        k = a.shape[1]
        shape = (2, len(a), len(b), k)
        t, cells, w = (buf[: math.prod(shape)].reshape(shape) for buf in self.work)
        np.add(a[:, None], b[None], out=t[0])
        np.subtract(a[:, None], b[None], out=t[1])
        np.abs(t[1], out=t[1])
        sawtooth(t, cells, w, n)
        prod = out[: len(a) * len(b) * k].reshape(len(a) * len(b), k)
        np.subtract(t[0], t[1], out=prod.reshape(shape[1:]))
        prod *= 4.0**-n if last else 2.0 ** (-n - 1)
        return prod


class InterpolantNet:
    """Tensor-hat interpolant networks on one grid: L tables of E entries.

    Each net is a weighted sum of tensor-hat networks over a uniform
    grid, functionally identical to the monolithic ReLU network that
    parallelizes its tensor hats and fuses the weighted sum into the
    output layers (assembled in the tests as a cross-check), but stored
    as its coefficients and evaluated from the closed form of the <= 2^s
    hats active at each point.  ``coeffs`` (L, E) + (q + 1,) * s are the
    coefficients of L tables on ``grid``, each node holding E values,
    such as an affine slab's averaged components per subinterval; one
    net is the case L = E = 1, and its (q + 1)^s coefficients may come
    in any shape.  ``sawtooth_depth`` is the one depth n of the hats'
    product network (None for s = 1), set by ``delta_inner``, which
    s >= 2 needs.

    The tables are held entry-major, ``values`` (E, L * table size): row
    e is entry e of every node of the L tables, one table after another,
    each of shape ``table_shape``: the grid in a ring of zero ghost
    nodes, at -h and 1 + h on each axis.  For s = 1 the ghosts carry the
    boundary hat ramps, and the net holds the tables'
    :func:`knot_slopes` along the last axis; for s >= 2 they put every
    cell corner of a point in the ring on a node.  ``values`` is written
    when first read, the ring in the same copy: a net that is never
    looked up is never copied.  Until then the net holds ``coeffs``
    themselves, not a copy.  A lookup gives point r's hat sums (E,) in
    table ``which[r]``: a :class:`KnotLookup` for s = 1, a
    :class:`CornerLookup` for s >= 2.
    ``size()`` and ``depth()`` report the exact monolithic counts
    through :func:`template_counts`; nothing here builds a network.
    """

    def __init__(self, grid, coeffs, delta_inner=None):
        self.grid = grid
        self.s = grid.s
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != grid.s + 2:
            coeffs = coeffs.reshape((1, 1) + (grid.q + 1,) * grid.s)
        self._coeffs = coeffs
        self.n_tables = len(coeffs)
        self.delta_inner = delta_inner
        self.sawtooth_depth = None
        self.table_shape = (grid.q + 3,) * grid.s
        if grid.s > 1:
            if delta_inner is None:
                raise ValueError("s >= 2 interpolants need delta_inner")
            self.sawtooth_depth = product_depth_param(grid.s, delta_inner)

    @functools.cached_property
    def values(self):
        # the coefficients, in one copy, into their rings
        coeffs, self._coeffs = self._coeffs, None
        entries = coeffs.shape[1]
        values = np.zeros((entries, self.n_tables) + self.table_shape)
        values[(slice(None),) * 2 + (slice(1, -1),) * self.s] = coeffs.swapaxes(0, 1)
        return values.reshape(entries, -1)

    @functools.cached_property
    def slopes(self):
        """The s = 1 values' :func:`knot_slopes`."""
        return knot_slopes(self.values)

    def lookup(self, p, which=None):
        """The lookup of at most p points, a reusable callable.

        It maps points u (s, k), k <= p, in grid units
        (:meth:`GridSpec.to_grid`), axis-major, to their hat sums (E, k):
        point r reads table ``which[r]`` of ``which`` (p,), or table 0
        if ``which`` is None.  What does not depend on the points, the
        table offsets and the work buffers, is made here: a
        :class:`KnotLookup` for s = 1, a :class:`CornerLookup` for
        s >= 2.
        """
        size = math.prod(self.table_shape)
        starts = np.zeros(p, dtype=np.intp) if which is None else which * size
        if self.s > 1:
            return CornerLookup(self.grid, self.sawtooth_depth, self.values, starts)
        return KnotLookup(self.grid, self.values, self.slopes, starts)

    def contracted(self, w, out):
        """The s = 1 net with one table per row: table r is
        sum_e w[r, e] * entry e of this net's one table.

        ``w`` is (n, E); the result is written into ``out``, a net of n
        tables of one entry on this grid, and returned.
        """
        n = len(w)
        np.einsum("re,et->rt", w, self.values, out=out.values.reshape(n, -1))
        knot_slopes(out.values, out=out.slopes)
        return out

    def __call__(self, u, which=None):
        """One lookup of the points ``u`` (s, k): (E, k)."""
        return self.lookup(u.shape[1], which)(u)

    def point_floats(self, entries=1):
        """Floats per point of the largest array of one evaluation.

        ``entries`` is the number of values each table entry holds, E.
        For s = 1 that array is one entry per point.  For s >= 2 the
        largest are the corners' gathered entries, E * 2^s per point,
        and the work arrays of the product tree's last pair, its sum and
        difference squares of the 2^s corners, 2^(s+1) per point
        (:class:`CornerLookup`): 2^s * max(2, entries).
        """
        if self.s == 1:
            return entries
        return 2**self.s * max(2, entries)

    def eval(self, x):
        """The values (n, E) of table 0 at the points ``x`` (n, s), or (E,)
        at one point (s,): a lookup of the net's own tables."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        out = self(np.ascontiguousarray(self.grid.to_grid(x).T)).T
        return out[0] if single else out

    # -- exact structural accounting -------------------------------------

    def size(self):
        """The summed exact size of the L * E nets (:func:`table_sizes`),
        counted on their tables' interiors."""
        tables = self.values.reshape((len(self.values), self.n_tables) + self.table_shape)
        coeffs = tables[(slice(None),) * 2 + (slice(1, -1),) * self.s]
        return int(table_sizes(self.grid, coeffs, self.sawtooth_depth).sum())

    def depth(self):
        return template_counts(self.s, self.sawtooth_depth)[1]


def table_sizes(grid, coeffs, sawtooth_depth):
    """Exact monolithic sizes of interpolants on ``grid``, all in one pass.

    ``coeffs`` (...) + (q+1,)*s are coefficient arrays of nets with
    sawtooth depth ``sawtooth_depth``; the result (...) holds each one's
    size: its active (nonzero) nodes times the size of a tensor hat
    (:func:`template_counts`), less the fused hat-layer biases that
    happen to be exactly zero.  The axis-j hat channel k in {1, 0, -1}
    of node i has the fused first-layer bias k - i - lo / (h (hi - lo)),
    which is zero at one node index i at most, so each zero bias is
    counted once per active node on that index's grid plane.
    """
    s = grid.s
    mask = coeffs != 0.0
    axes = tuple(range(mask.ndim - s, mask.ndim))
    total = mask.sum(axis=axes) * template_counts(s, sawtooth_depth)[0]
    for j, (lo, hi) in enumerate(grid.box):
        shift = lo / (grid.h * (hi - lo))
        for k in (1, 0, -1):
            i = round(k - shift)
            if 0 <= i <= grid.q and k - i - shift == 0.0:
                total -= mask.take(i, axis=axes[j]).sum(axis=axes[:-1])
    return total


def stable_stack(grid, values, delta, lip, sup):
    """Lipschitz-stable interpolant nets of L tables on one grid, stacked.

    ``values`` (L, E, nodes) are samples at ``grid.nodes()`` of L tables
    of E entries each, every entry a ``lip``-Lipschitz function bounded
    by ``sup``.  Returns ``(net, sizes, depth)``: the
    :class:`InterpolantNet` of the L tables, the exact size of each
    entry's net (L, E) (:func:`table_sizes`) and the nets' one depth.
    Certified sup error <= delta requires the cells per axis that
    :meth:`GridSpec.for_tolerance` gives for delta; a coarser grid
    raises :class:`GridTooCoarse`.  The inner product-net tolerance is
    min(delta, 1) * :func:`c_star`, so all nets share one sawtooth
    depth.  The net keeps a reference to ``values`` until its first
    lookup, so a caller must not rewrite them before.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    cells = GridSpec.cells_for(grid.box, lip, delta)
    if grid.q < cells:
        raise GridTooCoarse(cells, grid.q)
    values = np.asarray(values, dtype=float)
    coeffs = values.reshape(values.shape[:2] + (grid.q + 1,) * grid.s)
    delta_inner = None if grid.s == 1 else min(delta, 1.0) * c_star(grid.s, sup)
    net = InterpolantNet(grid, coeffs, delta_inner=delta_inner)
    sizes = table_sizes(grid, coeffs, net.sawtooth_depth)
    return net, sizes, net.depth()


def lip_stable_net(sf, delta):
    """Lipschitz-stable network approximation of a sampled function.

    Returns (net, report): the one-table case of :func:`stable_stack`,
    with the function's declared Lipschitz and sup bounds.  The report
    carries h, the inner product-net tolerance and exact size and depth.
    """
    grid = sf.grid
    net, sizes, depth = stable_stack(
        grid, sf.values[None, None], delta, sf.lip_bound, sf.sup_bound
    )
    report = {
        "s": grid.s,
        "h": grid.h,
        "delta": delta,
        "delta_inner": net.delta_inner,
        "size": int(sizes[0, 0]),
        "depth": depth,
    }
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
            box = np.tile([0.0, 1.0], (s, 1))
            grid = GridSpec.for_tolerance(box, lip, delta)
            # kink off the grid so the interpolation error is realized
            kink = 0.5 + 0.41 * grid.h

            def g(x, kink=kink):
                x = np.atleast_2d(x)
                return np.abs(x[:, 0] - kink) + (
                    0.3 * x[:, 1] if s > 1 else 0.0
                )

            sf = SampledFunction.from_function(g, grid, lip_bound=lip)
            net, rep = lip_stable_net(sf, delta)
            c1 = max(c1, rep["size"] * delta**s / (lip**s * k))
            c2 = max(c2, rep["depth"] / k)
            low = _interpolant_lip(net, box, rng)
            c3 = max(c3, low / ((1.0 + sf.sup_bound) * lip))
            pts = rng.uniform(0, 1, size=(2000, s))
            err = np.max(np.abs(net.eval(pts)[:, 0] - g(pts)))
            big_c = max(big_c, err / (grid.h * lip))
            evidence.append({"s": s, "delta": delta, "q": grid.q, "size": rep["size"]})
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
    return difference_quotient(a, b, net.eval(a), net.eval(b))
