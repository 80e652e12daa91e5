"""Exact feed-forward ReLU networks with bit-exact weight accounting.

Networks are immutable stacks of affine layers with ReLU or identity
activation; the output layer is always affine (identity activation).
All constructors and combinators below are exact: composing, stacking
and summing networks never changes the represented function beyond
float rounding, and ``size()`` counts nonzero weights and biases of
the stored matrices.
"""

from __future__ import annotations

import numpy as np

RELU = "relu"
IDENTITY = "identity"


class AffineLayer:
    """One affine map plus componentwise activation.

    ``weights`` has shape (out_dim, in_dim); ``biases`` has shape
    (out_dim,).  The size contribution is the number of nonzero
    weights plus the number of nonzero biases.
    """

    __slots__ = ("weights", "biases", "activation")

    def __init__(self, weights, biases, activation=RELU):
        weights = np.atleast_2d(np.asarray(weights, dtype=float))
        biases = np.asarray(biases, dtype=float).reshape(-1)
        if weights.shape[0] != biases.shape[0]:
            raise ValueError(
                f"weight rows ({weights.shape[0]}) != bias length ({biases.shape[0]})"
            )
        if activation not in (RELU, IDENTITY):
            raise ValueError(f"unknown activation {activation!r}")
        self.weights = weights
        self.biases = biases
        self.activation = activation
        self.weights.setflags(write=False)
        self.biases.setflags(write=False)

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def size(self):
        return int(np.count_nonzero(self.weights) + np.count_nonzero(self.biases))

    def apply(self, x):
        z = x @ self.weights.T
        z += self.biases
        if self.activation == RELU:
            np.maximum(z, 0.0, out=z)
        return z


class ReluNetwork:
    """Ordered affine layers; the final layer has identity activation."""

    __slots__ = ("layers",)

    def __init__(self, layers):
        layers = list(layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"layer dims incompatible: {a.out_dim} -> {b.in_dim}"
                )
        if layers[-1].activation != IDENTITY:
            raise ValueError("final layer must have identity activation")
        self.layers = tuple(layers)

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def depth(self):
        return len(self.layers)

    def size(self):
        return sum(layer.size() for layer in self.layers)

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x):
        """Forward pass; accepts a single vector or an (n, in_dim) batch."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        z = np.atleast_2d(x)
        if z.shape[1] != self.in_dim:
            raise ValueError(f"input dim {z.shape[1]} != network in_dim {self.in_dim}")
        for layer in self.layers:
            z = layer.apply(z)
        return z[0] if single else z


# ---------------------------------------------------------------------------
# basic constructors


def identity_net(dim):
    """Network computing x -> x exactly."""
    return ReluNetwork([AffineLayer(np.eye(dim), np.zeros(dim), IDENTITY)])


def affine_net(weights, biases=None):
    """Single-layer network for x -> Wx + b."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if biases is None:
        biases = np.zeros(weights.shape[0])
    return ReluNetwork([AffineLayer(weights, biases, IDENTITY)])


def scale_net(net, c):
    """Network for c * net(x); scales the output layer only."""
    last = net.layers[-1]
    scaled = AffineLayer(c * last.weights, c * last.biases, IDENTITY)
    return ReluNetwork(list(net.layers[:-1]) + [scaled])


# ---------------------------------------------------------------------------
# composition algebra


def compose(outer, inner, report=False):
    """Exact composition outer(inner(x)).

    The inner network's identity output layer is fused with the outer
    network's first affine layer, so no extra layer is introduced.
    With ``report=True`` also returns the fusion bookkeeping (size of
    the fused layer vs the two layers it replaced).
    """
    if inner.out_dim != outer.in_dim:
        raise ValueError(
            f"compose dim mismatch: inner out {inner.out_dim} != outer in {outer.in_dim}"
        )
    w_in, b_in = inner.layers[-1].weights, inner.layers[-1].biases
    first = outer.layers[0]
    fused = AffineLayer(
        first.weights @ w_in,
        first.weights @ b_in + first.biases,
        first.activation,
    )
    net = ReluNetwork(list(inner.layers[:-1]) + [fused] + list(outer.layers[1:]))
    if report:
        replaced = inner.layers[-1].size() + first.size()
        info = {
            "fused_layer_size": fused.size(),
            "replaced_layers_size": replaced,
            "fusion_overhead": fused.size() - replaced,
        }
        return net, info
    return net


def passthrough_cost(net, depth):
    """Exact extra nonzeros pad_to_depth(net, depth) will introduce."""
    extra = depth - net.depth()
    if extra <= 0:
        return 0
    final = net.layers[-1]
    # negated copy of the final layer + identity ReLU chain + recombination
    return final.size() + (extra - 1) * 2 * net.out_dim + 2 * net.out_dim


def pad_to_depth(net, depth):
    """Deepen a network without changing its function.

    Signed values are carried across the added ReLU layers using the
    exact identity x = relu(x) - relu(-x), doubling the passthrough
    channel width.
    """
    extra = depth - net.depth()
    if extra < 0:
        raise ValueError("cannot pad to a smaller depth")
    if extra == 0:
        return net
    final = net.layers[-1]
    m = net.out_dim
    lift = AffineLayer(
        np.vstack([final.weights, -final.weights]),
        np.concatenate([final.biases, -final.biases]),
        RELU,
    )
    mid = [AffineLayer(np.eye(2 * m), np.zeros(2 * m), RELU) for _ in range(extra - 1)]
    recombine = AffineLayer(
        np.hstack([np.eye(m), -np.eye(m)]), np.zeros(m), IDENTITY
    )
    return ReluNetwork(list(net.layers[:-1]) + [lift] + mid + [recombine])


def parallelize(nets, report=False):
    """Stack networks over a shared input: out_dim is the sum of out_dims.

    Nets of different depth are padded via :func:`pad_to_depth`; the
    size overhead over the plain sum of sizes is exactly the sum of
    :func:`passthrough_cost` values, reported on request.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("parallelize of empty list")
    d0 = nets[0].in_dim
    if any(n.in_dim != d0 for n in nets):
        raise ValueError("parallelize requires equal input dims")
    target = max(n.depth() for n in nets)
    cost = sum(passthrough_cost(n, target) for n in nets)
    padded = [pad_to_depth(n, target) for n in nets]

    layers = []
    for j in range(target):
        blocks = [n.layers[j] for n in padded]
        acts = {layer.activation for layer in blocks}
        if len(acts) != 1:
            raise AssertionError("padded nets disagree on activation pattern")
        if j == 0:
            weights = np.vstack([layer.weights for layer in blocks])
        else:
            rows = sum(layer.out_dim for layer in blocks)
            cols = sum(layer.in_dim for layer in blocks)
            weights = np.zeros((rows, cols))
            r = c = 0
            for layer in blocks:
                weights[r : r + layer.out_dim, c : c + layer.in_dim] = layer.weights
                r += layer.out_dim
                c += layer.in_dim
        biases = np.concatenate([layer.biases for layer in blocks])
        layers.append(AffineLayer(weights, biases, blocks[0].activation))
    net = ReluNetwork(layers)
    if report:
        return net, {"passthrough_cost": cost}
    return net


def sum_nets(nets, weights=None, report=False):
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
    stacked = parallelize(nets, report=True)
    stacked, info = stacked
    summer = np.hstack([w * np.eye(m) for w in weights])
    net = compose(affine_net(summer), stacked)
    if report:
        return net, info
    return net


# ---------------------------------------------------------------------------
# quadrature gates


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


def rho_values(interval, q, t):
    """Closed-form gate values; vectorized over t, shape (..., q)."""
    lo, hi = float(interval[0]), float(interval[1])
    taus = lo + (hi - lo) * np.arange(q + 1) / q
    t = np.asarray(t, dtype=float)[..., None]
    return np.maximum(t - taus[:-1], 0.0) - np.maximum(t - taus[1:], 0.0)


# ---------------------------------------------------------------------------
# sampled Lipschitz estimation


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
    best = _pair_quotient(net, a, b)

    h = 1e-3 * np.min(hi - lo)
    base = rng.uniform(lo, hi, size=(n_loc, len(lo)))
    step = rng.uniform(-1.0, 1.0, size=(n_loc, len(lo)))
    step *= h / np.maximum(np.abs(step).max(axis=1, keepdims=True), 1e-300)
    other = np.clip(base + step, lo, hi)
    return max(best, _pair_quotient(net, base, other))


def _pair_quotient(net, a, b):
    num = np.abs(net.eval(a) - net.eval(b)).max(axis=1)
    den = np.abs(a - b).max(axis=1)
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float((num[ok] / den[ok]).max())
