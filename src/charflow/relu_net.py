"""Exact feed-forward ReLU networks with bit-exact weight accounting.

Networks are immutable stacks of affine layers with ReLU or identity
activation; the output layer is always affine (identity activation).
All constructors and combinators below are exact: composing and
stacking networks never changes the represented function beyond float
rounding, and ``size()`` counts nonzero weights and biases of
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

    __slots__ = ("weights", "biases", "activation", "_matrix")

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
        # the right factor of apply's product, padded to two columns
        matrix = weights.T
        if weights.shape[0] == 1:
            matrix = np.hstack([matrix, np.zeros_like(matrix)])
        self._matrix = matrix

    @property
    def in_dim(self):
        return self.weights.shape[1]

    @property
    def out_dim(self):
        return self.weights.shape[0]

    def size(self):
        return int(np.count_nonzero(self.weights) + np.count_nonzero(self.biases))

    def apply(self, x):
        # numpy hands a product with one row or one column to BLAS gemv,
        # whose rounding differs from gemm's and changes with the number
        # of rows; at least two of each keeps a row's value independent
        # of the batch it is evaluated in
        rows = len(x)
        if rows == 1:
            x = np.concatenate([x, x])
        z = x @ self._matrix
        if z.shape != (rows, self.out_dim):
            z = z[:rows, : self.out_dim]
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


def affine_net(weights, biases=None):
    """Single-layer network for x -> Wx + b."""
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    if biases is None:
        biases = np.zeros(weights.shape[0])
    return ReluNetwork([AffineLayer(weights, biases, IDENTITY)])


# ---------------------------------------------------------------------------
# composition algebra


def compose(outer, inner):
    """Exact composition outer(inner(x)).

    The inner network's identity output layer is fused with the outer
    network's first affine layer, so no extra layer is introduced.
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
    return ReluNetwork(list(inner.layers[:-1]) + [fused] + list(outer.layers[1:]))


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


def parallelize(nets):
    """Stack networks over a shared input: out_dim is the sum of out_dims.

    Nets of different depth are padded via :func:`pad_to_depth`, whose
    added nonzeros are the only size overhead over the plain sum of
    sizes.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("parallelize of empty list")
    d0 = nets[0].in_dim
    if any(n.in_dim != d0 for n in nets):
        raise ValueError("parallelize requires equal input dims")
    target = max(n.depth() for n in nets)
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
    return ReluNetwork(layers)


# ---------------------------------------------------------------------------
# quadrature gates


def rho_values(interval, q, t):
    """Closed-form gate values; vectorized over t, shape (..., q)."""
    lo, hi = float(interval[0]), float(interval[1])
    taus = lo + (hi - lo) * np.arange(q + 1) / q
    t = np.asarray(t, dtype=float)[..., None]
    return np.maximum(t - taus[:-1], 0.0) - np.maximum(t - taus[1:], 0.0)


# ---------------------------------------------------------------------------
# sampled Lipschitz estimation


def difference_quotient(a_in, b_in, a_out, b_out):
    """Largest |a_out - b_out| / |a_in - b_in| over the rows whose inputs
    differ, both in the max norm over a row; 0.0 if none differ."""
    num = np.abs(a_out - b_out).max(axis=1)
    den = np.abs(a_in - b_in).max(axis=1)
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float((num[ok] / den[ok]).max())
