"""Literal ReLU assemblies and closed forms that the tests compare against.

The package evaluates its networks in structured form: interpolants as
coefficient tables read by closed-form lookups, quadrature gates as
clamped ramps.  The functions here build the monolithic networks and
the elementwise closed forms those evaluators must equal, so that the
tests can check values, sizes and depths against them.  No production
run calls them.
"""

import numpy as np

from charflow import comp_calculus as cc
from charflow.lip_interp import sawtooth, tensor_hat
from charflow.relu_net import (
    IDENTITY,
    RELU,
    AffineLayer,
    ReluNetwork,
    affine_net,
    compose,
    difference_quotient,
    parallelize,
)

# ---------------------------------------------------------------------------
# network algebra


def identity_net(dim):
    """Network computing x -> x exactly."""
    return ReluNetwork([AffineLayer(np.eye(dim), np.zeros(dim), IDENTITY)])


def passthrough_cost(net, depth):
    """Exact extra nonzeros pad_to_depth(net, depth) will introduce."""
    extra = depth - net.depth()
    if extra <= 0:
        return 0
    final = net.layers[-1]
    # negated copy of the final layer + identity ReLU chain + recombination
    return final.size() + (extra - 1) * 2 * net.out_dim + 2 * net.out_dim


def sum_nets(nets, weights=None):
    """Weighted sum of networks with equal in- and output dimensions.

    Realized as a linear readout fused onto the parallelization, so
    the result adds no depth and no extra nonzeros beyond padding.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("sum of empty list")
    m = nets[0].out_dim
    if any(n.out_dim != m for n in nets):
        raise ValueError("sum requires equal output dims")
    if weights is None:
        weights = [1.0] * len(nets)
    summer = np.hstack([w * np.eye(m) for w in weights])
    return compose(affine_net(summer), parallelize(nets))


def rho_gate(interval, q):
    """Clamped-ramp quadrature gates for an interval split into q cells.

    Output i (1-based i, 0-based index i-1) is
    ``relu(t - tau_{i-1}) - relu(t - tau_i)`` with breakpoints
    ``tau_i = lo + i*|I|/q``: zero left of its cell, a unit ramp on the
    cell, and the constant cell width to the right.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not q >= 1:
        raise ValueError("q must be >= 1")
    if not hi > lo:
        raise ValueError("interval must have positive length")
    taus = lo + (hi - lo) * np.arange(q + 1) / q
    w1 = np.ones((2 * q, 1))
    b1 = np.empty(2 * q)
    b1[0::2] = -taus[:-1]
    b1[1::2] = -taus[1:]
    w2 = np.zeros((q, 2 * q))
    for i in range(q):
        w2[i, 2 * i] = 1.0
        w2[i, 2 * i + 1] = -1.0
    return ReluNetwork(
        [AffineLayer(w1, b1, RELU), AffineLayer(w2, np.zeros(q), IDENTITY)]
    )


def lip_lower_bound(net, box, n_samples, seed):
    """Sampled lower bound for the max-norm Lipschitz constant on a box.

    Uses half global random pairs and half short-step pairs; exact for
    piecewise-linear nets whenever some sampled pair lies inside a
    single linear piece of maximal slope.  Deterministic per seed.
    """
    box = np.asarray(box, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    if np.any(hi <= lo):
        raise ValueError("degenerate box")
    if len(lo) != net.in_dim:
        raise ValueError("box dim != network in_dim")
    rng = np.random.default_rng(seed)
    n_glob = max(1, n_samples // 2)
    n_loc = max(1, n_samples - n_glob)

    a = rng.uniform(lo, hi, size=(n_glob, len(lo)))
    b = rng.uniform(lo, hi, size=(n_glob, len(lo)))
    best = difference_quotient(a, b, net.eval(a), net.eval(b))

    h = 1e-3 * np.min(hi - lo)
    base = rng.uniform(lo, hi, size=(n_loc, len(lo)))
    step = rng.uniform(-1.0, 1.0, size=(n_loc, len(lo)))
    step *= h / np.maximum(np.abs(step).max(axis=1, keepdims=True), 1e-300)
    other = np.clip(base + step, lo, hi)
    return max(best, difference_quotient(base, other, net.eval(base), net.eval(other)))


# ---------------------------------------------------------------------------
# closed forms of the product network


def square_values(x, n):
    """Elementwise values of :func:`lip_interp.square_net` (n) at an array
    ``x`` <= 1.

    On the knot cell k = clip(floor(x 2^n), 0, 2^n - 1) the net is the
    chord of x^2, max((2k+1) x / 2^n - k (k+1) / 4^n, 0), computed here
    as (k^2 + (2k+1) r) / 4^n with r = x 2^n - k (:func:`sawtooth`), a
    sum of nonnegative terms on [0, 1]: exactly zero at 0 and for x < 0.
    (Beyond 1 the net rises like x, but its callers only feed [0, 1].)
    """
    t = np.empty(np.shape(x))
    np.multiply(x, 2.0**n, out=t)
    sawtooth(t, np.empty_like(t), np.empty_like(t), n)
    t *= 4.0**-n
    return t


def product_values(v, n):
    """Elementwise values of :func:`lip_interp.product_net` over the
    factors ``v``.

    ``v`` is a sequence of the s factors, arrays that broadcast together
    (the rows of an (s, ...) array are one); ``n`` is the sawtooth depth
    :func:`lip_interp.product_depth_param` picks.  The twin of the net's
    layers: clamp to [0, 1], then a pairwise tree of products
    S((a + b) / 2) - S(|a - b| / 2) with S = :func:`square_values`, an
    odd last factor passed through to the next level.  A zero factor
    makes the product exactly zero, because both square arguments of
    its pair coincide.  Factors that vary along different axes give the
    outer product: each pair is formed once per combination of its two
    factors, and every element sees the same operations.
    :class:`lip_interp.CornerLookup` runs the same tree on hat factors,
    which lie in [0, 1] already, with the clamp and sign guards left out
    and power-of-two scalings folded.
    """
    v = [np.minimum(np.maximum(f, 0.0), 1.0) for f in v]
    while len(v) > 1:
        level = []
        for a, b in zip(v[0::2], v[1::2]):
            prod = square_values((a + b) * 0.5, n)
            prod -= square_values(np.abs(a - b) * 0.5, n)
            level.append(prod)
        if len(v) % 2:
            level.append(v[-1])
        v = level
    return v[0]


# ---------------------------------------------------------------------------
# monolithic interpolant networks


def coefficients(net):
    """The coefficients (L, E) + (q + 1,) * s of an
    :class:`lip_interp.InterpolantNet`: its tables without the ghost
    ring, a view."""
    tables = net.values.reshape((len(net.values), net.n_tables) + net.table_shape)
    return tables[(slice(None),) * 2 + (slice(1, -1),) * net.s].swapaxes(0, 1)


def global_hat(net, indices):
    """The tensor hat of node ``indices`` of ``net``'s grid in original x
    coordinates: the map to the unit box fused into the hats."""
    grid = net.grid
    widths = grid.box[:, 1] - grid.box[:, 0]
    scale = np.diag(1.0 / widths)
    shift = -grid.box[:, 0] / widths
    to_unit = affine_net(scale, shift)
    return compose(tensor_hat(indices, grid.h, net.delta_inner), to_unit)


def materialize(net, max_nodes=2000):
    """The literal monolithic ReLU network of a one-table net (small
    grids only).

    The dense block-diagonal layers grow quadratically with the
    active-node count, so large interpolants refuse; the structured
    evaluator is the production representation.
    """
    coeffs = coefficients(net)[0, 0]
    mask = coeffs != 0.0
    n_active = int(mask.sum())
    if n_active > max_nodes:
        raise ResourceWarning(
            f"materializing {n_active} tensor hats exceeds the {max_nodes} cap"
        )
    nets, weights = [], []
    for idx in np.argwhere(mask):
        nets.append(global_hat(net, tuple(idx)))
        weights.append(coeffs[tuple(idx)])
    return sum_nets(nets, weights)


# ---------------------------------------------------------------------------
# compositions and macro grids


def factor_as_net(f):
    """The exact ReLU realization of an identity, linear or implanted
    factor."""
    if isinstance(f, cc.IdentityFactor):
        return identity_net(f.dim)
    if isinstance(f, cc.LinearFactor):
        return affine_net(f.matrix)
    if isinstance(f, cc.ImplantedFactor):
        nets = []
        for i, interp in enumerate(f.nets):
            deps = list(f.source.dep_sets[i])
            sel = np.zeros((len(deps), f.in_dim))
            for r, dcol in enumerate(deps):
                sel[r, dcol] = 1.0
            nets.append(compose(materialize(interp), affine_net(sel)))
        return parallelize(nets)
    raise ValueError(f"factor {type(f).__name__} has no exact ReLU realization")


def to_relu_network(rep):
    """One monolithic network of a :class:`comp_calculus.CompRep`; only
    identity, linear and implanted factors have a ReLU realization."""
    net = None
    for f in rep.factors:
        stage = factor_as_net(f)
        net = stage if net is None else compose(stage, net)
    return net


def junctions(grid):
    """The K + 1 slab ends 0, ..., T_hat of a :class:`transport_core.MacroGrid`."""
    return np.linspace(0.0, grid.T_hat, grid.K + 1)
