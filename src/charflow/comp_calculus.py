"""Compositional representations, complexity accounting, and implantation.

A composition is an ordered chain of factors (generic Lipschitz maps,
linear / multilinear maps, identities, or implanted interpolant
networks), held by one type, :class:`CompRep`.  The module tracks
dimension-sparsity and the dependency-count complexity of such chains,
certifies composition-norm intervals, inverts growth-rate laws, and
turns a chain into a finitely parametrized network by replacing each
generic component with a Lipschitz-stable interpolant network.  The
implanted chain is again a :class:`CompRep` with the same structure and
the same ``s_infinity``.

Every factor except an implanted one carries its max-norm Lipschitz
bound ``lip`` and sup bound ``sup`` as attributes (``math.inf`` where
none is declared).  An implanted factor has none: its interpolant's
Lipschitz constant is calibrated, not proven.

Complexity convention (dependency counting): generic components count
the size of their dependency set, linear factors count their nonzero
matrix entries, multilinear factors of degree >= 2 count one per factor,
identities count zero, and implanted factors count the size of their
interpolant networks.  This makes complexity exactly additive under
composition and (after fusing output layers) under sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import lip_interp
from .relu_net import difference_quotient


# ---------------------------------------------------------------------------
# growth functions


@dataclass(frozen=True)
class GrowthFunction:
    """Rate law gamma(r) = C * r^alpha (kind='alg') or C * e^(alpha r)."""

    kind: str
    C: float
    alpha: float

    def __post_init__(self):
        if self.kind not in ("alg", "exp"):
            raise ValueError("kind must be 'alg' or 'exp'")
        if self.C <= 0 or self.alpha <= 0:
            raise ValueError("C and alpha must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "alg":
            return self.C * r**self.alpha
        return self.C * np.exp(self.alpha * r)


def gamma_inverse(gf, s):
    """Exact inverse of the growth law at value s."""
    if s <= 0:
        raise ValueError("argument must be positive")
    if gf.kind == "alg":
        return (s / gf.C) ** (1.0 / gf.alpha)
    if s <= gf.C:
        raise ValueError("exponential growth inverse needs s > C")
    return math.log(s / gf.C) / gf.alpha


# ---------------------------------------------------------------------------
# factors


@dataclass
class IdentityFactor:
    dim: int

    def __post_init__(self):
        self.in_dim = self.out_dim = self.dim
        self.lip, self.sup = 1.0, math.inf

    def eval(self, z):
        return np.atleast_2d(np.asarray(z, dtype=float))

    def s_inf(self):
        return 0

    def complexity(self):
        return 0


@dataclass
class LinearFactor:
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        self.out_dim, self.in_dim = self.matrix.shape
        # exact max-norm operator norm: maximal absolute row sum
        self.lip = float(np.max(np.sum(np.abs(self.matrix), axis=1)))
        self.sup = math.inf

    def eval(self, z):
        return np.atleast_2d(np.asarray(z, dtype=float)) @ self.matrix.T

    def s_inf(self):
        return 1

    def complexity(self):
        return int(np.count_nonzero(self.matrix))


@dataclass
class MultilinearFactor:
    """Exact multilinear map of degree >= 2; never implanted."""

    evaluator: callable
    in_dim: int
    out_dim: int
    lip: float
    sup: float

    def eval(self, z):
        return np.atleast_2d(
            np.asarray(self.evaluator(np.atleast_2d(np.asarray(z, dtype=float))))
        ).reshape(-1, self.out_dim)

    def s_inf(self):
        return 1

    def complexity(self):
        return 1


@dataclass
class GenericFactor:
    """Lipschitz factor given by an evaluator plus dependency metadata.

    ``dep_sets`` lists, per output component, the input coordinates the
    component actually depends on (None means all of them).  ``box``
    is the factor's input domain, required for implantation.
    """

    evaluator: callable
    in_dim: int
    out_dim: int
    lip: float
    sup: float
    dep_sets: list = None
    box: np.ndarray = None

    def __post_init__(self):
        if self.dep_sets is None:
            self.dep_sets = [tuple(range(self.in_dim))] * self.out_dim
        self.dep_sets = [tuple(d) for d in self.dep_sets]
        if len(self.dep_sets) != self.out_dim:
            raise ValueError("need one dependency set per output component")
        if self.box is not None:
            self.box = np.asarray(self.box, dtype=float).reshape(self.in_dim, 2)

    def eval(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return np.asarray(self.evaluator(z), dtype=float).reshape(-1, self.out_dim)

    def s_inf(self):
        return max(len(d) for d in self.dep_sets)

    def complexity(self):
        return sum(len(d) for d in self.dep_sets)

    def component_function(self, i):
        """Component i as a function of its dependency-set coordinates."""
        deps = self.dep_sets[i]
        if self.box is None:
            raise ValueError("generic factor has no box; cannot restrict")
        center = self.box.mean(axis=1)

        def fn(u):
            u = np.atleast_2d(np.asarray(u, dtype=float))
            z = np.tile(center, (u.shape[0], 1))
            z[:, list(deps)] = u
            return self.eval(z)[:, i]

        return fn, self.box[list(deps)]


@dataclass
class ParallelFactor:
    """Factors applied side by side; used by sum_reps depth alignment.

    With ``split_input`` the children read disjoint slices of the input
    vector, otherwise they all read the same input.
    """

    children: list
    split_input: bool = True

    def __post_init__(self):
        self.out_dim = sum(c.out_dim for c in self.children)
        if self.split_input:
            self.in_dim = sum(c.in_dim for c in self.children)
        else:
            dims = {c.in_dim for c in self.children}
            if len(dims) != 1:
                raise ValueError("shared-input children must agree on in_dim")
            self.in_dim = dims.pop()

    def eval(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        outs = []
        ofs = 0
        for c in self.children:
            if self.split_input:
                outs.append(c.eval(z[:, ofs : ofs + c.in_dim]))
                ofs += c.in_dim
            else:
                outs.append(c.eval(z))
        return np.hstack(outs)

    def s_inf(self):
        return max(c.s_inf() for c in self.children)

    def complexity(self):
        return sum(c.complexity() for c in self.children)

    # read on demand: an implanted child carries no declared bound
    @property
    def lip(self):
        return max(c.lip for c in self.children)

    @property
    def sup(self):
        return max(c.sup for c in self.children)


# ---------------------------------------------------------------------------
# compositional representations


class CompRep:
    """Ordered factor chain; the final factor is linear or multilinear."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("empty factor list")
        for a, b in zip(factors, factors[1:]):
            if a.out_dim != b.in_dim:
                raise ValueError(
                    f"factor dims incompatible: {a.out_dim} -> {b.in_dim}"
                )
        if not isinstance(factors[-1], (LinearFactor, MultilinearFactor)):
            raise ValueError("final factor must be linear or multilinear")
        self.factors = factors

    @property
    def in_dim(self):
        return self.factors[0].in_dim

    @property
    def out_dim(self):
        return self.factors[-1].out_dim

    def eval(self, x):
        z = np.atleast_2d(np.asarray(x, dtype=float))
        for f in self.factors:
            z = f.eval(z)
        return z


def s_infinity(rep):
    """Dimension-sparsity: max component dependency over non-final factors.

    A single-factor representation is scored by its one (final) factor.
    """
    factors = rep.factors[:-1] if len(rep.factors) > 1 else rep.factors
    return max(f.s_inf() for f in factors)


def complexity(rep):
    """Dependency-count complexity of the chain (exactly additive)."""
    return sum(f.complexity() for f in rep.factors)


def compose_reps(outer, inner):
    """Representation of outer(inner(.)); complexity adds exactly."""
    if inner.out_dim != outer.in_dim:
        raise ValueError("compose_reps dim mismatch")
    return CompRep(inner.factors + outer.factors)


def sum_reps(rep_a, rep_b):
    """Representation of the pointwise sum; complexity adds exactly.

    Shorter chains are padded with zero-cost identity factors before
    the final layer; the two final linear factors fuse into one whose
    nonzero count is the sum of theirs.
    """
    if rep_a.in_dim != rep_b.in_dim or rep_a.out_dim != rep_b.out_dim:
        raise ValueError("sum_reps needs equal in- and output dims")
    fa = list(rep_a.factors)
    fb = list(rep_b.factors)
    if not isinstance(fa[-1], LinearFactor) or not isinstance(fb[-1], LinearFactor):
        raise ValueError("sum_reps requires linear final factors")
    n = max(len(fa), len(fb))
    fa = _pad_before_final(fa, n)
    fb = _pad_before_final(fb, n)
    parallel = [ParallelFactor([a, b], split_input=False) for a, b in [(fa[0], fb[0])]]
    parallel += [
        ParallelFactor([a, b], split_input=True) for a, b in zip(fa[1:-1], fb[1:-1])
    ]
    fused = LinearFactor(np.hstack([fa[-1].matrix, fb[-1].matrix]))
    return CompRep(parallel + [fused])


def _pad_before_final(factors, n):
    pads = [IdentityFactor(factors[-1].in_dim)] * (n - len(factors))
    return factors[:-1] + pads + [factors[-1]]


# ---------------------------------------------------------------------------
# regularizers and composition norms


@dataclass(frozen=True)
class Regularizer:
    """'lip_full' scores factors and tail compositions; 'lip_factors'
    scores factor norms only."""

    kind: str = "lip_full"

    def __post_init__(self):
        if self.kind not in ("lip_full", "lip_factors"):
            raise ValueError("unknown regularizer kind")


def comp_norm_interval(rep, reg, box, n_samples=2000, seed=0):
    """[lower, upper] bracket of the regularizer value of a chain.

    The upper bound uses declared factor Lipschitz data with the
    product bound for tail compositions; the lower bound samples
    difference quotients of factors and tail compositions along inputs
    drawn from the box.
    """
    lips = [f.lip for f in rep.factors]
    rng = np.random.default_rng(seed)
    box = np.asarray(box, dtype=float).reshape(rep.in_dim, 2)
    a = rng.uniform(box[:, 0], box[:, 1], size=(n_samples, rep.in_dim))
    d = rng.uniform(-1, 1, size=a.shape)
    scale = 1e-4 * np.min(box[:, 1] - box[:, 0])
    d *= scale / np.maximum(np.abs(d).max(axis=1, keepdims=True), 1e-300)
    b = np.clip(a + d, box[:, 0], box[:, 1])

    # propagate both point clouds through the chain
    za, zb = a, b
    stages_a, stages_b = [a], [b]
    for f in rep.factors:
        za, zb = f.eval(za), f.eval(zb)
        stages_a.append(za)
        stages_b.append(zb)

    n = len(rep.factors)
    lower = 0.0
    upper = 0.0
    for ell in range(n):
        sup = rep.factors[ell].sup
        fac_lip1 = max(lips[ell], sup if np.isfinite(sup) else 0.0)
        sampled_fac = max(
            difference_quotient(
                stages_a[ell], stages_b[ell], stages_a[ell + 1], stages_b[ell + 1]
            ),
            float(np.abs(stages_a[ell + 1]).max()),
        )
        if reg.kind == "lip_full":
            tail_upper = float(np.prod(lips[ell + 1 :])) if ell + 1 < n else 1.0
            sampled_tail = (
                difference_quotient(
                    stages_a[ell + 1], stages_b[ell + 1], stages_a[-1], stages_b[-1]
                )
                if ell + 1 < n
                else 0.0
            )
            upper = max(upper, fac_lip1, tail_upper)
            lower = max(lower, min(sampled_fac, fac_lip1), min(sampled_tail, tail_upper))
        else:
            upper = max(upper, fac_lip1)
            lower = max(lower, min(sampled_fac, fac_lip1))
    return [lower, upper]



# ---------------------------------------------------------------------------
# implantation


class ImplantedFactor:
    """Generic factor with each component replaced by an interpolant net.

    It has no ``lip`` or ``sup``: an interpolant's Lipschitz constant is
    calibrated, not proven, so ``implant`` bounds the chain from the
    source factors' declared data.
    """

    def __init__(self, source, nets):
        self.source = source
        self.nets = nets  # one InterpolantNet per output component
        self.in_dim = source.in_dim
        self.out_dim = source.out_dim

    def eval(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        cols = []
        for i, net in enumerate(self.nets):
            deps = list(self.source.dep_sets[i])
            cols.append(net.eval(z[:, deps])[:, 0])
        return np.stack(cols, axis=1)

    def s_inf(self):
        return self.source.s_inf()

    def complexity(self):
        return sum(net.size() for net in self.nets)


def eval_width(f):
    """Widest per-point array that evaluating ``f`` allocates, in floats.

    ``f`` is a factor or a :class:`CompRep`; implanted interpolants count
    the temporaries of their evaluation
    (:meth:`lip_interp.InterpolantNet.point_floats`).
    """
    if isinstance(f, CompRep):
        return max(eval_width(g) for g in f.factors)
    widths = [f.in_dim, f.out_dim]
    if isinstance(f, ParallelFactor):
        widths += [eval_width(c) for c in f.children]
    elif isinstance(f, ImplantedFactor):
        widths += [net.point_floats() for net in f.nets]
    return max(widths)


def implant(rep, deltas):
    """Replace generic factors by Lipschitz-stable interpolant networks.

    ``deltas`` gives one tolerance per factor (entries for exact factors
    are ignored).  Returns (CompRep, error_bound): the implanted chain
    keeps the factor structure, so its ``s_infinity`` is the source's
    and its ``complexity`` adds the interpolant sizes to the exact
    factors' counts.  The bound delta_n + sum_j delta_j * L_tail(j)
    comes from the declared Lipschitz chain; exact factors contribute
    zero.  Each interpolant's grid is
    :meth:`lip_interp.GridSpec.for_tolerance`, which refuses one above
    its node ceiling with :class:`lip_interp.ResourceCeiling`.
    """
    deltas = list(deltas)
    if len(deltas) != len(rep.factors):
        raise ValueError("need one delta per factor")
    lips = [f.lip for f in rep.factors]
    new_factors = []
    error = 0.0
    for j, f in enumerate(rep.factors):
        tail = float(np.prod(lips[j + 1 :])) if j + 1 < len(rep.factors) else 1.0
        new_f, err_j = _implant_factor(f, deltas[j])
        new_factors.append(new_f)
        error += err_j * tail
    return CompRep(new_factors), error


def _implant_factor(f, delta):
    if isinstance(f, ParallelFactor):
        outs = [_implant_factor(c, delta) for c in f.children]
        return (
            ParallelFactor([o[0] for o in outs], split_input=f.split_input),
            max(o[1] for o in outs),
        )
    if not isinstance(f, GenericFactor):
        return f, 0.0
    nets = []
    for i in range(f.out_dim):
        fn, sub_box = f.component_function(i)
        grid = lip_interp.GridSpec.for_tolerance(sub_box, f.lip, delta)
        sf = lip_interp.SampledFunction.from_function(
            fn, grid, lip_bound=f.lip, sup_bound=f.sup
        )
        net, _ = lip_interp.lip_stable_net(sf, delta)
        nets.append(net)
    return ImplantedFactor(f, nets), delta
