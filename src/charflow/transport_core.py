"""Certified network surrogates for parametric transport problems.

The pipeline follows the constructive route: a macro time grid on which
the characteristic fixed-point map contracts with factor 1/2, per-slab
one-step maps combining clamped-ramp quadrature gates with interpolant
networks of the (slab-averaged) convection components, self-composed
for a logarithmic number of sweeps, and concatenated across slabs by
freezing junction values.  Solution surrogates compose the backward
characteristic network with data networks and a source quadrature.

Built networks are composite evaluators in the generous sense: exact
multilinear gates (counted 1 each in the dependency-count complexity)
coupling ReLU subnetworks.  Evaluation computes the same function as
the literal layered assembly: the interpolants of a slab share one grid
and are summed in one fused sweep, which agrees with per-interpolant
evaluation up to float rounding; tests cross-check it against a naive
per-sample reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog, lip_interp
from .comp_calculus import eval_width, gamma_inverse, implant
from .relu_net import rho_values

E_HALF = math.exp(0.5)

# build budget: quadrature nodes per slab (and source nodes of a solution
# net) and interpolation-grid cells per axis
Q_CEILING = 200_000
KNOT_CEILING = 2_000_000
# guard added to the evaluation box for the network's own speed excess
BOX_MARGIN = 0.1


class ResourceCeiling(RuntimeError):
    """Requested accuracy exceeds the configured build budget."""

    def __init__(self, message, predicted_cost):
        super().__init__(f"{message} (predicted cost {predicted_cost:.3g})")
        self.predicted_cost = predicted_cost


# ---------------------------------------------------------------------------
# convection fields


class AffineConvection:
    """a(t, x; y) = sum_j y_j * omega_j * comp_j(t, x) on y in [-1,1]^d_y.

    Components carry sup bound A_circ and spatial Lipschitz bound Lam;
    the induced bounds are A = |omega|_1 * A_circ and L = A + Lam*|omega|_1.
    Normalization 1 <= A <= L is required; rescale time otherwise.
    """

    def __init__(self, m, d_y, omega, components, validate=True):
        self.m = m
        self.d_y = d_y
        self.omega = np.asarray(omega, dtype=float).reshape(d_y)
        if np.any(self.omega < 0):
            raise ValueError("omega weights must be nonnegative")
        if len(components) != d_y:
            raise ValueError("need one component per parameter direction")
        self.components = list(components)
        self.A_circ = max(c.sup for c in components)
        self.Lam = max(c.lip_x for c in components)
        self.omega1 = float(np.sum(self.omega))
        self.A = self.omega1 * self.A_circ
        self.L = self.A + self.Lam * self.omega1
        if validate and not (1.0 <= self.A <= self.L):
            raise ValueError(
                f"normalization 1 <= A <= L violated (A={self.A}, L={self.L}); "
                "rescale time so the field bound is at least one"
            )

    @property
    def norm(self):
        # the composition-norm bound playing the role of the field norm
        return self.L

    def eval(self, t, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.zeros((x.shape[0], self.m))
        for j, comp in enumerate(self.components):
            out += (self.omega[j] * y[:, j])[:, None] * comp(t, x)
        return out

    def constant_in_tx(self):
        return self.Lam == 0.0 and all(c.time_independent for c in self.components)

    def time_independent(self):
        return all(c.time_independent for c in self.components)

    def reversed_negated(self, t_ref):
        comps = [c.reversed_negated(t_ref) for c in self.components]
        return AffineConvection(self.m, self.d_y, self.omega, comps, validate=False)


class GeneralConvection:
    """Convection field given by an evaluator plus a representation builder.

    ``rep_builder(interval, N)`` must return a CompRep on (z, y) that
    approximates the slab average (case with averaging) or a midpoint
    sample (case with a declared time-Lipschitz constant) of the field
    over the interval, with error at most gamma(N)^-1 * a_norm and
    composition norm at most a_norm.  The declared a_norm is the
    user's bound for the time-uniform field norm; a sampled check is
    available but no proof.
    """

    def __init__(self, m, d_y, evaluator, A, L, a_norm, gf, rep_builder, L_t=None):
        self.m = m
        self.d_y = d_y
        self.evaluator = evaluator
        self.A = float(A)
        self.L = float(L)
        self.a_norm = float(a_norm)
        self.gf = gf
        self.rep_builder = rep_builder
        self.L_t = L_t
        if not (1.0 <= self.A <= self.L <= self.a_norm):
            raise ValueError("need 1 <= A <= L <= a_norm; rescale time")

    @property
    def norm(self):
        return self.a_norm

    def eval(self, t, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return np.asarray(self.evaluator(t, x, y), dtype=float).reshape(
            x.shape[0], self.m
        )

    def constant_in_tx(self):
        return False

    def time_independent(self):
        return self.L_t == 0.0


# ---------------------------------------------------------------------------
# problem container


class TransportProblem:
    """Cauchy data for the linear parametric transport equation.

    ``domain`` is the spatial box D carrying the initial datum; the
    characteristic evaluation box inflates D by A*T_hat per axis (plus
    a small guard for the network's own speed excess) so trajectories
    and all interpolation grids stay inside.
    """

    def __init__(self, convection, T_hat, domain, u0=None, f=None):
        self.convection = convection
        self.T_hat = float(T_hat)
        self.domain = np.asarray(domain, dtype=float).reshape(convection.m, 2)
        self.u0 = u0
        self.f = f
        infl = convection.A * self.T_hat + BOX_MARGIN
        self.eval_box = np.column_stack(
            [self.domain[:, 0] - infl, self.domain[:, 1] + infl]
        )

    @property
    def m(self):
        return self.convection.m

    @property
    def d_y(self):
        return self.convection.d_y

    @property
    def M(self):
        vals = [1.0]
        if self.u0 is not None:
            vals.append(self.u0.norm)
        if self.f is not None:
            vals.append(self.f.norm)
        return max(vals)

    def field_evaluator(self):
        return lambda t, x, y: self.convection.eval(t, x, y)

    def u0_values(self, x, y=None):
        if self.u0 is None:
            return np.zeros(np.atleast_2d(x).shape[0])
        return self.u0.u0(x, y)

    def f_values(self, t, x, y=None):
        if self.f is None:
            return np.zeros(np.atleast_2d(x).shape[0])
        return self.f.f(t, x, y)

    def check_queries(self, t, x, y):
        """Refuse queries outside [0, T_hat] x D x [-1,1]^d_y with ValueError."""
        checks = {
            "t outside [0, T_hat]": (t >= 0.0) & (t <= self.T_hat),
            "x outside the domain": (x >= self.domain[:, 0]) & (x <= self.domain[:, 1]),
            "y outside [-1, 1]^d_y": (y >= -1.0) & (y <= 1.0),
        }
        refused = [name for name, ok in checks.items() if not np.all(ok)]
        if refused:
            raise ValueError("query refused: " + ", ".join(refused))

    def inside_eval_box(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(
            (x >= self.eval_box[:, 0]) & (x <= self.eval_box[:, 1]), axis=1
        )

    def sample_inputs(self, n, seed):
        """Random (t, x, y) samples over [0, T_hat] x D x [-1,1]^d_y."""
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, self.T_hat, size=n)
        x = rng.uniform(self.domain[:, 0], self.domain[:, 1], size=(n, self.m))
        y = rng.uniform(-1.0, 1.0, size=(n, self.d_y))
        return t, x, y


# ---------------------------------------------------------------------------
# macro grid and schedule


@dataclass(frozen=True)
class MacroGrid:
    """Macro time slabs making the fixed-point map a 1/2-contraction."""

    T_hat: float
    a_norm: float

    def __post_init__(self):
        if self.T_hat <= 0 or self.a_norm < 1.0:
            raise ValueError("need T_hat > 0 and a_norm >= 1")

    @property
    def interval_length(self):
        return 1.0 / (2.0 * self.a_norm)

    @property
    def K(self):
        return int(math.ceil(self.T_hat / self.interval_length))

    @property
    def slab_length(self):
        return self.T_hat / self.K

    def junctions(self):
        return np.linspace(0.0, self.T_hat, self.K + 1)

    def slab(self, k):
        return (k * self.slab_length, (k + 1) * self.slab_length)


def macro_grid(T_hat, a_norm):
    return MacroGrid(T_hat, a_norm)


def eta_tolerance(eps, K):
    """Per-slab budget such that the junction telescoping sums to eps."""
    return (E_HALF - 1.0) * eps * math.exp(-K / 2.0)


def mu_iterations(eta):
    """Sweeps halving the error to eta: ceil(|log2(1/(2 eta))|), >= 1."""
    return max(1, int(math.ceil(abs(math.log2(1.0 / (2.0 * eta))))))


def tau_from_eta(eta):
    """One-step tolerance absorbing the in-slab error accumulation."""
    return eta / E_HALF


@dataclass
class Schedule:
    """All build parameters derived from a target accuracy."""

    eps: float
    eps_internal: float
    K: int
    slab_length: float
    eta: float
    mu: int
    tau: float
    q: int
    delta: float
    N: int = None  # general fields only


def schedule(eps, grid, problem):
    """Derive (eta, mu, tau, q, delta[, N]) for a public accuracy target.

    The assembly certifies twice the per-stage target, so everything is
    computed for eps/2.  Refuses with the predicted cost when the
    quadrature count or the interpolation grids exceed the ceilings.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    conv = problem.convection
    eps_int = eps / 2.0
    eta = eta_tolerance(eps_int, grid.K)
    mu = mu_iterations(eta)
    tau = tau_from_eta(eta)
    sl = grid.slab_length
    q, delta, n_budget, lam = _slab_class(conv).design(conv, sl, tau)
    knots = _grid_cells(lam, problem.eval_box, delta)
    cost = q * problem.d_y * knots * mu * grid.K
    if q > Q_CEILING or knots > KNOT_CEILING:
        raise ResourceCeiling(
            f"schedule for eps={eps} needs q={q}, grid knots={knots}", cost
        )
    return Schedule(eps, eps_int, grid.K, sl, eta, mu, tau, q, delta, n_budget)


def _grid_cells(lip, box, tol):
    """Interpolation-grid cells per axis for sup error ``tol`` on ``box``.

    ceil(2 * lip * width / tol) with the box's widest side, the spacing
    at which :func:`lip_interp.lip_stable_net` certifies ``tol``; one
    cell when the function is constant (``lip == 0``) or ``tol`` is
    infinite.
    """
    if lip == 0 or not np.isfinite(tol):
        return 1
    width = float(np.max(box[:, 1] - box[:, 0]))
    return int(math.ceil(2.0 * lip * width / tol))


# ---------------------------------------------------------------------------
# numeric fixed-point reference (mid fidelity, not the certified pipeline)


def picard_numeric(field, interval, x, y, k, time_grid=4096):
    """k midpoint-quadrature sweeps of the fixed-point map on one slab.

    Returns a callable t -> values (vectorized over the sample batch);
    the initial sweep starts from the constant-in-time seed x.  Requires
    the contraction precondition |I| * L <= 1/2 via the caller.
    """
    lo, hi = float(interval[0]), float(interval[1])
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
    q = int(time_grid)
    cell = (hi - lo) / q
    xs = lo + (np.arange(q) + 0.5) * cell
    Z = np.repeat(x[:, None, :], q, axis=1)
    for sweep in range(max(0, k - 1)):
        V = _field_on_grid(field, xs, Z, y)
        Z = x[:, None, :] + cell * (np.cumsum(V, axis=1) - 0.5 * V)
    V_last = _field_on_grid(field, xs, Z, y) if k >= 1 else None

    def at(t):
        t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
        if k == 0:
            return x.copy()
        rho = rho_values((lo, hi), q, t)
        return x + np.einsum("nq,nqm->nm", rho, V_last)

    return at


def _field_on_grid(field, xs, Z, y):
    n, q, m = Z.shape
    flat = Z.reshape(n * q, m)
    ts = np.tile(xs, n)
    yy = np.repeat(np.atleast_2d(y), q, axis=0) if np.ndim(y) > 1 else y
    return field(ts, flat, yy).reshape(n, q, m)


# ---------------------------------------------------------------------------
# slab networks


# Row blocks keep the largest temporary of one network evaluation in a
# sweep, rows * row_floats floats, at half of glibc's default 128 KB
# mmap and trim thresholds.  An evaluation holds several temporaries of
# that size at once; past the thresholds freed blocks go back to the
# kernel, and the page faults of touching them again cost more than the
# sweep arithmetic.  A per-cell general slab evaluates its q cell nets
# one at a time, so only its sweep state (rows, q, m) is larger; that is
# made a few times per sweep, not in each of the q evaluations.
BLOCK_BYTES = 64 * 1024


def _subintervals(conv, interval, q):
    """Intervals on which a slab's spatial networks represent the field.

    The whole slab if the field is time-independent, else each of the
    q quadrature cells.
    """
    if conv.time_independent():
        return [interval]
    lo, hi = interval
    cell = (hi - lo) / q
    midpoints = lo + (np.arange(q) + 0.5) * cell
    return [(c - 0.5 * cell, c + 0.5 * cell) for c in midpoints]


class SlabNet:
    """One-slab characteristic network: ``mu`` fixed-point sweeps and a gate.

    Structure: quadrature gates in t, spatial networks of the slab
    field, and the exact multilinear gate
    x + sum_i rho_i(t) * V_i, where the sweep state V (n, q, m) holds
    the field values at the quadrature states after the last sweep.
    The clamped ramps make that sum a lookup in the running sums of V
    (:meth:`_gate`), which gives the sweeps' midpoint states, the values
    at query times and the junction alike.
    V depends on the seeds ``w`` and the parameters ``y`` only, so one
    sweep state answers any number of query times.  Subclasses build
    the spatial networks and supply ``chain(conv, intervals, sched,
    eval_box)``, which builds the slabs on consecutive intervals,
    ``_sweep_plan(y)``, the sweep of one row block with parameters y:
    a function from quadrature states Z (n, q, m) to the field values
    at them, which may return the same buffer on every call,
    ``row_floats``, the floats per row of the largest temporary of one
    network evaluation in a sweep, and ``interpolant_size()``.
    """

    def __init__(self, conv, interval, sched):
        self.conv = conv
        self.interval = interval
        self.q = sched.q
        self.mu = sched.mu
        self.delta = sched.delta
        lo, hi = interval
        self.cell = (hi - lo) / self.q
        self.midpoints = lo + (np.arange(self.q) + 0.5) * self.cell
        self._shared = conv.time_independent()
        self.subintervals = _subintervals(conv, interval, self.q)

    def _forward(self, w, y):
        """Run mu sweeps from seeds ``w`` (n, m).

        Returns the field values V (n, q, m) at the quadrature states of
        the last sweep and their running sums S = cumsum(V) over the cells.
        The sweep is planned once; the states and running sums are
        rewritten in place by each sweep.
        """
        sweep = self._sweep_plan(y)
        Z = np.repeat(w[:, None, :], self.q, axis=1)
        S = np.empty_like(Z)
        for k in range(self.mu):
            V = sweep(Z)
            np.cumsum(V, axis=1, out=S)
            if k < self.mu - 1:
                self._gate(w[:, None, :], V, S, 0.5, out=Z)
        return V, S

    def _gate(self, w, V, S, f, out=None):
        """The gate w + sum_i rho_i(t) V_i at a time t in quadrature cell j.

        ``V`` and ``S`` hold V_j and S_j = V_0 + ... + V_j, and ``f`` is
        the fraction of cell j that lies before t: the ramps of the
        earlier cells are full and ramp j has risen f * cell, so the sum
        is cell * (S_j - (1 - f) V_j).  Cell midpoints are f = 1/2, the
        slab's right end is j = q - 1 with f = 1.  Computed in ``out``
        if given, which may be ``V`` but not ``w`` or ``S``.
        """
        out = np.multiply(1.0 - f, V, out=out)
        np.subtract(S, out, out=out)
        np.multiply(self.cell, out, out=out)
        return np.add(w, out, out=out)

    def at_times(self, t, w, y):
        """Slab values at query times ``t`` (n,) from seeds ``w`` (n, m)."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        return self.eval_with_junction(t, w, y, np.ones(w.shape[0], dtype=bool))[0]

    def junction(self, w, y):
        """Seeds of the next slab: the slab's values at its right end."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        n = w.shape[0]
        return self.eval_with_junction(np.zeros(n), w, y, np.zeros(n, dtype=bool))[1]

    def eval_with_junction(self, t, w, y, mask):
        """Gate the masked query times against one sweep state.

        ``w`` (n, m) are the seeds of the rows pushed through the slab;
        ``t`` and the boolean ``mask`` have shape (n,) or (r, n), one
        row per set of query times.  Returns the values at ``t[mask]``
        in that (row-major) order and the junction values of all n rows.
        Sweeps, gates and the junction run in blocks of rows sized by
        ``BLOCK_BYTES``, so memory does not grow with n; a row's values
        do not depend on which other rows share its block.
        """
        w = np.atleast_2d(np.asarray(w, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = w.shape[0]
        times = np.asarray(t, dtype=float).reshape(-1, n)
        mask = np.asarray(mask, dtype=bool).reshape(times.shape)
        gated = np.empty(times.shape + (w.shape[1],))
        w_next = np.empty_like(w)
        step = max(1, int(BLOCK_BYTES // (8 * self.row_floats)))
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            wb = w[rows]
            V, S = self._forward(wb, y[rows])
            # the block's gated entries, all time sets together, each at
            # cell j = floor(u) and fraction f = u - j of its time; clamping
            # u to [0, q] clamps t to the slab as the ramps do, giving the
            # seeds below it and the junction value above it
            r, c = np.nonzero(mask[:, rows])
            u = np.clip((times[r, lo + c] - self.interval[0]) / self.cell, 0.0, self.q)
            j = np.minimum(u.astype(np.intp), self.q - 1)
            f = (u - j)[:, None]
            gated[r, lo + c] = self._gate(wb[c], V[c, j], S[c, j], f)
            self._gate(wb, V[:, -1], S[:, -1], 1.0, out=w_next[rows])
        return gated[mask], w_next

    def size(self):
        # mu sweeps of (q*d_y interpolants + one multilinear gate),
        # plus the t-quadrature gate network of the final sweep
        return self.mu * (self.interpolant_size() + 1) + _rho_gate_size(
            self.interval, self.q
        )


class SlabInterpolants:
    """Interpolant networks of one affine slab, stacked for a fused sweep.

    ``nets[j][i][c]`` interpolates output c of component j averaged over
    subinterval i.  All share one grid on the evaluation box, so one
    sweep maps the quadrature states to the unit cube once and visits
    the active hats once for every interpolant.  Components whose hat
    templates agree (equal ``delta_inner``, always so for s = 1) form a
    group; its coefficient tables are stacked to shape
    (subintervals,) + table shape + (m, group size), or to
    (group size,) + table shape + (m,) for a group that is contracted
    with the row weights before the lookup.  :meth:`plan` makes the
    sweep of one row block.
    """

    def __init__(self, conv, subintervals, eval_box, delta, q):
        self.q = q
        self.grid = lip_interp.GridSpec(
            conv.m, _grid_cells(conv.Lam, eval_box, delta), box=eval_box
        )
        self.nets = []
        for comp in conv.components:
            per_j = []
            for sub in subintervals:
                avg = comp.slab_average(sub)
                comp_nets = []
                for c in range(conv.m):
                    sf = lip_interp.SampledFunction.from_function(
                        lambda pts, cc=c, a=avg: a(pts)[:, cc],
                        self.grid,
                        lip_bound=comp.lip_x,
                        sup_bound=comp.sup,
                    )
                    net, _ = lip_interp.lip_stable_net(sf, min(delta, 0.5))
                    comp_nets.append(net)
                per_j.append(comp_nets)
            self.nets.append(per_j)
        by_template = {}
        for j, per_j in enumerate(self.nets):
            by_template.setdefault(per_j[0][0].delta_inner, []).append(j)
        m, s = conv.m, self.grid.s
        self.groups = []
        self.point_width = float(m)
        for js in by_template.values():
            net = self.nets[js[0]][0][0]
            tables = np.array(
                [
                    [[self.nets[j][i][c].table for j in js] for c in range(m)]
                    for i in range(len(subintervals))
                ]
            )
            tables = np.ascontiguousarray(np.moveaxis(tables, (1, 2), (-2, -1)))
            # A shared table is contracted with the row weights before the
            # lookup when a row's combined table is smaller than the
            # coefficients its q states would gather at the 2^s corners.
            per_table = tables[0].size // len(js)
            first = len(subintervals) == 1 and per_table < 2**s * q * m
            if first:
                tables = np.ascontiguousarray(np.moveaxis(tables[0], -1, 0))
            self.groups.append((net, tables, js, first))
            if s == 1 and not first:
                # knot rows of all subintervals, with their slopes
                values = tables.reshape(-1, len(js))
                self.knots = values, lip_interp.knot_slopes(values)
            widths = [per_table / q if first else m * len(js)]
            if net.template is not None:
                widths += [layer.out_dim for layer in net.template.layers]
            self.point_width = max(self.point_width, *widths)
        every = [net for per_j in self.nets for per_i in per_j for net in per_i]
        self.size = sum(net.size() for net in every)
        self.depth = max(net.depth() for net in every)

    def plan(self, weights):
        """The sweep of one row block: states Z (n, q, m) -> V (n, q, m).

        V[:, i] = sum_j weights[:, j] * N_{j,i}(Z[:, i]) for row weights
        ``weights`` (n, d_y).  What does not depend on the states is
        made here, once per row block: a contracted group's per-row
        tables, the table each state reads and, for s = 1, the knot
        slopes and the lookup's buffers, so that each sweep is one pass.
        For s = 1 the returned V is one buffer, rewritten by every call.
        """
        n, q, m = len(weights), self.q, self.grid.s
        if m == 1:
            return self._knot_plan(weights)
        steps = []
        for net, tables, js, first in self.groups:
            w = weights[:, js]
            if first:
                per_row = np.einsum("rk,k...->r...", w, tables)
                steps.append((net, per_row, np.repeat(np.arange(n), q), None))
            else:
                lead = None if len(tables) == 1 else np.tile(np.arange(q), n)
                steps.append((net, tables, lead, w))

        def sweep(Z):
            xu = self.grid.to_unit(Z.reshape(n * q, m))
            V = None
            for net, tables, lead, w in steps:
                vals = net.weighted_sum(xu, tables, lead)
                if w is not None:
                    vals = np.einsum("nqmk,nk->nqm", vals.reshape(n, q, m, -1), w)
                vals = vals.reshape(n, q, m)
                V = vals if V is None else V + vals
            return V

        return sweep

    def _knot_plan(self, weights):
        """:meth:`plan` for s = 1: one group, looked up by a KnotLookup."""
        ((_, tables, js, first),) = self.groups
        n, q, stride = len(weights), self.q, self.grid.q + 3
        w = weights[:, js]
        if first:
            values = np.einsum("rk,k...->r...", w, tables).reshape(-1)
            slopes = lip_interp.knot_slopes(values)
            starts = np.repeat(np.arange(n) * stride, q)
            V = np.empty((n, q, 1))
            out = V.reshape(-1)
        else:
            values, slopes = self.knots
            if len(tables) == 1:
                starts = np.zeros(n * q, dtype=np.intp)
            else:
                starts = np.tile(np.arange(q) * stride, n)
            out = np.empty((n * q, len(js)))
        lookup = lip_interp.KnotLookup(self.grid, values, slopes, starts)

        def sweep(Z):
            lookup(Z.reshape(-1), out)
            if first:
                return V
            return np.einsum("nqmk,nk->nqm", out.reshape(n, q, 1, -1), w)

        return sweep


class AffineSlabNet(SlabNet):
    """One-slab network for an affine field.

    The spatial networks are interpolants of the slab-averaged
    components, coupled by the exact trilinear gate
    x + sum_i rho_i(t) sum_j y_j omega_j N_{j,i}(z_i),
    with the slab's :class:`SlabInterpolants` as the networks N.
    """

    def __init__(self, conv, interval, sched, interpolants):
        super().__init__(conv, interval, sched)
        self.interpolants = interpolants
        # one fused evaluation covers all q states of a row
        self.row_floats = self.q * interpolants.point_width

    @classmethod
    def chain(cls, conv, intervals, sched, eval_box):
        """Slabs on ``intervals``.

        A time-independent component is its own slab average, so all
        slabs of such a field share one set of interpolants.
        """
        box = np.asarray(eval_box, dtype=float)

        def interpolants(interval):
            subs = _subintervals(conv, interval, sched.q)
            return SlabInterpolants(conv, subs, box, sched.delta, sched.q)

        if conv.time_independent():
            shared = interpolants(intervals[0])
            return [cls(conv, iv, sched, shared) for iv in intervals]
        return [cls(conv, iv, sched, interpolants(iv)) for iv in intervals]

    @staticmethod
    def design(conv, sl, tau):
        """(q, delta, N, grid Lipschitz bound) for one-step error tau.

        Inverts :meth:`one_step_error_bound`: the quadrature term
        A |I| / q and the implant term |omega|_1 |I| delta get tau/2 each.
        """
        q = max(1, int(math.ceil(2.0 * conv.A * sl / tau)))
        delta = tau / (2.0 * sl * conv.omega1) if conv.omega1 > 0 else math.inf
        return q, delta, None, conv.Lam

    def _sweep_plan(self, y):
        return self.interpolants.plan(self.conv.omega * y)

    def interpolant_size(self):
        # a shared set of interpolants stands for q identical copies
        return (self.q if self._shared else 1) * self.interpolants.size

    def depth(self):
        return self.mu * (self.interpolants.depth + 1) + 2

    def one_step_error_bound(self):
        """Certified |Phi - net| bound for one application (tau by design)."""
        quad = self.conv.A * (self.interval[1] - self.interval[0]) / self.q
        impl = (
            self.conv.omega1
            * (self.interval[1] - self.interval[0])
            * (self.delta if np.isfinite(self.delta) else 0.0)
        )
        return quad + impl


class GeneralSlabNet(SlabNet):
    """One-slab network for a general field via implanted representations."""

    def __init__(self, conv, interval, sched):
        super().__init__(conv, interval, sched)
        self._nets = []
        for sub in self.subintervals:
            rep = conv.rep_builder(sub, sched.N)
            depth = len(rep.factors)
            per_comp = self.delta / max(1, depth)
            implanted, _ = implant(rep, [per_comp] * depth)
            self._nets.append(implanted)
        # each quadrature state enters an implanted net as a point (z, y);
        # the shared net sees all q states of a row in one evaluation, a
        # cell net one state per row
        width = max(conv.m + conv.d_y, *(eval_width(net) for net in self._nets))
        self.row_floats = width * (self.q if self._shared else 1)

    @classmethod
    def chain(cls, conv, intervals, sched, eval_box):
        """Slabs on ``intervals``; the implanted nets ignore ``eval_box``."""
        return [cls(conv, iv, sched) for iv in intervals]

    @staticmethod
    def design(conv, sl, tau):
        """(q, delta, N, grid Lipschitz bound) for one-step error tau.

        Inverts :meth:`one_step_error_bound`: the quadrature term
        2 A |I| / q and the implant term a_norm delta get tau/2 each;
        N is the representation budget with gamma(N) >= 2 |I| a_norm / (tau/2).
        """
        q = max(1, int(math.ceil(2.0 * conv.A * sl / (tau / 2.0))))
        n_budget = int(math.ceil(gamma_inverse(conv.gf, 2.0 * sl * conv.a_norm / (tau / 2.0))))
        delta = tau / (2.0 * conv.a_norm)
        return q, delta, n_budget, conv.L

    def _sweep_plan(self, y):
        n, q, m = len(y), self.q, self.conv.m
        if self._shared:
            ys = np.repeat(y, q, axis=0)

            def sweep(Z):
                flat = np.hstack([Z.reshape(n * q, m), ys])
                return self._nets[0].eval(flat).reshape(n, q, m)

            return sweep

        def sweep(Z):
            V = np.empty((n, q, m))
            for i in range(q):
                V[:, i, :] = self._nets[i].eval(np.hstack([Z[:, i, :], y]))
            return V

        return sweep

    def interpolant_size(self):
        return (self.q if self._shared else 1) * sum(net.size() for net in self._nets)

    def depth(self):
        return self.mu * 4 + 2

    def one_step_error_bound(self):
        quad = 2.0 * self.conv.A * (self.interval[1] - self.interval[0]) / self.q
        return quad + self.conv.a_norm * self.delta


def _rho_gate_size(interval, q):
    """Exact nonzero count of rho_gate(interval, q) without building it."""
    lo, hi = interval
    taus = lo + (hi - lo) * np.arange(q + 1) / q
    nnz_b = int(np.count_nonzero(taus[:-1])) + int(np.count_nonzero(taus[1:]))
    return 2 * q + nnz_b + 2 * q


def build_slab_net(problem, interval, tau, mu=1):
    """One-step map with certified |Phi - net| <= tau on the slab.

    Convenience wrapper used for single-application studies; the full
    pipeline goes through :func:`build_char_net`.
    """
    conv = problem.convection
    sl = interval[1] - interval[0]
    slab_cls = _slab_class(conv)
    q, delta, n_budget, _ = slab_cls.design(conv, sl, tau)
    sched = Schedule(tau, tau, 1, sl, tau, mu, tau, q, delta, n_budget)
    return slab_cls.chain(conv, [interval], sched, problem.eval_box)[0]


def _slab_class(conv):
    return AffineSlabNet if isinstance(conv, AffineConvection) else GeneralSlabNet


# ---------------------------------------------------------------------------
# characteristic networks


class CharNetwork:
    """Per-slab networks concatenated by frozen junction values.

    Evaluation dispatches each query time to its owning slab; junction
    seeds are the previous slab evaluated at the junction, exactly as
    the construction prescribes.  ``direction='backward'`` means the
    network was built for the time-reversed negated field and returns
    positions after flowing backward for the queried duration.
    """

    def __init__(self, problem, grid, sched, slabs, direction):
        self.problem = problem
        self.grid = grid
        self.sched = sched
        self.slabs = slabs
        self.direction = direction
        self.report = {}

    def eval(self, t, x, y):
        """Network values at query times ``t`` for samples (x, y).

        ``t`` has shape (n,), giving (n, m), or (r, n) for r sets of
        query times of the same n samples, giving (r, n, m).  The
        junction chain runs once per (x, y) batch: slab k sweeps only
        the rows whose latest query time lies in slab k or later, and
        gates every time set it owns while its sweep state is live.
        Queries outside [0, T_hat] x domain x [-1, 1]^d_y raise
        ``ValueError``: the certificate does not cover them.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = x.shape[0]
        t = np.asarray(t, dtype=float)
        self.problem.check_queries(t, x, y)
        times = t if t.ndim > 1 else np.broadcast_to(t, (1, n))
        k_idx = np.clip(
            np.floor(times / self.grid.slab_length).astype(int), 0, self.grid.K - 1
        )
        k_last = k_idx.max(axis=0)
        out = np.empty(times.shape + (x.shape[1],))
        rows = np.arange(n)
        w = x
        for k in range(int(k_last.max()) + 1):
            live = k_last[rows] >= k
            rows, w = rows[live], w[live]
            mask = k_idx[:, rows] == k
            vals, w = self.slabs[k].eval_with_junction(
                times[:, rows], w, y[rows], mask
            )
            r_idx, c_idx = np.nonzero(mask)
            out[r_idx, rows[c_idx]] = vals
        return out if t.ndim > 1 else out[0]

    def __call__(self, t, x, y):
        return self.eval(t, x, y)

    def size(self):
        return sum(s.size() for s in self.slabs)

    def depth(self):
        return sum(s.depth() for s in self.slabs)

    def oracle_field(self):
        """Field whose exact characteristics this network approximates.

        For backward builds the stored problem already carries the
        time-reversed, negated field.
        """
        return self.problem.field_evaluator()


def build_char_net(problem, eps, direction="forward"):
    """Certified characteristic surrogate: sup error <= eps on the box.

    The backward variant runs the identical pipeline on the
    time-reversed, negated field (same bounds, same affine structure)
    and approximates backward flow durations.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    conv = problem.convection
    if direction == "backward":
        if isinstance(conv, GeneralConvection):
            raise NotImplementedError("backward builds require affine fields")
        conv = conv.reversed_negated(problem.T_hat)
        problem = TransportProblem(
            conv, problem.T_hat, problem.domain, problem.u0, problem.f
        )
    grid = macro_grid(problem.T_hat, max(1.0, conv.norm))
    sched = schedule(eps, grid, problem)
    intervals = [grid.slab(k) for k in range(grid.K)]
    slabs = _slab_class(conv).chain(conv, intervals, sched, problem.eval_box)
    net = CharNetwork(problem, grid, sched, slabs, direction)
    net.report = {
        "eps": eps,
        "direction": direction,
        "K": grid.K,
        "mu": sched.mu,
        "q": sched.q,
        "delta": sched.delta,
        "tau": sched.tau,
        "size": net.size(),
        "depth": net.depth(),
        "predicted": predicted_complexity(problem, eps, "char"),
    }
    return net


def predicted_complexity(problem, eps, kind):
    """Closed-form complexity predictions for plotting against measurements.

    kind='char': affine fields use the d_y-linear bound
    d_y m^2 A T (e^(LT)/eps)^(m+1) log2(e^(LT)/eps)^2; general fields
    the growth-law branches.  kind='solution' uses the m+1+beta power
    with beta = max(1, (m+1)/alpha) at data smoothness alpha = m+1.
    """
    conv = problem.convection
    m, d_y, T = problem.m, problem.d_y, problem.T_hat
    ratio = math.exp(conv.norm * T) / eps
    if kind == "char":
        if isinstance(conv, AffineConvection):
            return d_y * m**2 * conv.A * T * ratio ** (m + 1) * math.log2(
                ratio
            ) ** 2
        gf = conv.gf
        s = m  # dimension-sparsity of the builder reps
        base = conv.A * T * 2**s * conv.a_norm ** (2 * s)
        if gf.kind == "alg":
            return (
                base
                * gf.C ** (-1.0 / gf.alpha)
                * ratio ** ((1 + s) * (1 + gf.alpha) / gf.alpha)
                * math.log2(ratio) ** 2
            )
        return (
            base
            * gf.alpha ** (-(1 + s))
            * ratio ** (1 + s)
            * math.log2(ratio) ** (3 + s)
        )
    if kind == "solution":
        beta = solution_beta(m, float(m + 1))
        return d_y * ratio ** (m + 1 + beta) * math.log2(ratio) ** 2
    raise ValueError("kind must be 'char' or 'solution'")


def solution_beta(m, alpha):
    return max(1.0, (m + 1) / alpha)


# ---------------------------------------------------------------------------
# Lipschitz certificates


def lipschitz_certificate(net, n_samples=4000, seed=0):
    """Sampled Lipschitz lower bounds vs the theory thresholds.

    Samples difference quotients separately in t (frozen x, y) and in
    (x, y) jointly (frozen t).  PASS requires the (x,y) bound below
    e^(L_hat * T) with L_hat = A + 1/T + c3 (1 + A_circ) Lam |omega|_1,
    and the t bound below A + |omega|_1 * delta; c3 is the calibrated
    Lipschitz amplification constant.
    """
    problem = net.problem
    conv = problem.convection
    c3 = lip_interp.CALIBRATED["c3"]
    rng = np.random.default_rng(seed)
    n = n_samples
    t, x, y = problem.sample_inputs(n, seed)

    # perturbations; drawing dx before t2 keeps each seed's samples
    dx = rng.uniform(-1, 1, size=(n, problem.m + problem.d_y))
    scale = 1e-4
    dx *= scale / np.maximum(np.abs(dx).max(axis=1, keepdims=True), 1e-300)
    x2 = np.clip(x + dx[:, : problem.m], problem.domain[:, 0], problem.domain[:, 1])
    y2 = np.clip(y + dx[:, problem.m :], -1.0, 1.0)
    t2 = np.clip(t + rng.uniform(-scale, scale, size=n), 0.0, problem.T_hat)
    # two junction chains: (x, y) at {t, t2} and (x2, y2) at t
    z, z_t2 = net.eval(np.stack([t, t2]), x, y)

    # (x, y) direction
    num = np.abs(net.eval(t, x2, y2) - z).max(axis=1)
    den = np.maximum(
        np.abs(x2 - x).max(axis=1), np.abs(y2 - y).max(axis=1)
    )
    ok = den > 0
    lip_xy = float((num[ok] / den[ok]).max()) if np.any(ok) else 0.0

    # t direction
    num = np.abs(z_t2 - z).max(axis=1)
    den = np.abs(t2 - t)
    ok = den > 0
    lip_t = float((num[ok] / den[ok]).max()) if np.any(ok) else 0.0

    T = problem.T_hat
    if isinstance(conv, AffineConvection):
        delta = net.sched.delta if np.isfinite(net.sched.delta) else 0.0
        l_hat = conv.A + 1.0 / T + c3 * (1.0 + conv.A_circ) * conv.Lam * conv.omega1
        xy_threshold = math.exp(l_hat * T)
        t_threshold = conv.A + conv.omega1 * delta
        pessimistic = False
    else:
        n_budget = net.sched.N or 1
        l_hat = (c3 * (1.0 + conv.A) * conv.a_norm) ** n_budget
        xy_threshold = math.exp(min(l_hat, 700.0 / max(T, 1e-9)) * T)
        t_threshold = conv.a_norm * (1.0 + net.sched.delta)
        pessimistic = True
    return {
        "lip_xy": lip_xy,
        "lip_t": lip_t,
        "xy_threshold": xy_threshold,
        "t_threshold": t_threshold,
        "pass_xy": lip_xy <= xy_threshold,
        "pass_t": lip_t <= t_threshold * (1 + 1e-9),
        "pessimistic": pessimistic,
        "c3": c3,
    }


# ---------------------------------------------------------------------------
# solution networks


class SolutionNetwork:
    """u surrogate: data network on backward feet plus source quadrature.

    u(t,x,y) ~ N_u0(B(t,x,y)) + sign * sum_i rho_i(t) N_f,i(B(t-xi_i,x,y))
    where B is the backward characteristic network.  ``source_sign``
    defaults to +1; the acceptance suite pins the sign against the
    solution oracle.
    """

    def __init__(self, problem, back_net, u0_net, f_nets, q_src, source_sign, report):
        self.problem = problem
        self.back_net = back_net
        self.u0_net = u0_net
        self.f_nets = f_nets
        self.q_src = q_src
        self.source_sign = source_sign
        self.report = report
        T = problem.T_hat
        self.xi = (np.arange(q_src) + 0.5) * T / q_src if q_src else np.array([])

    def eval_parts(self, t, x, y):
        """(initial-datum part, signed-source part before sign)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = x.shape[0]
        # one backward chain for the query times and every source node
        sigma = np.maximum(t[None, :] - self.xi[:, None], 0.0)
        feet = self.back_net.eval(np.vstack([t[None, :], sigma]), x, y)
        u0_part = (
            self.u0_net.eval(feet[0])[:, 0] if self.u0_net is not None else np.zeros(n)
        )
        if not self.f_nets:
            return u0_part, np.zeros(n)
        rho = rho_values((0.0, self.problem.T_hat), self.q_src, t)
        f_part = np.zeros(n)
        for i, f_net in enumerate(self.f_nets):
            active = rho[:, i] > 0
            if not np.any(active):
                continue
            f_part[active] += rho[active, i] * f_net.eval(feet[1 + i, active])[:, 0]
        return u0_part, f_part

    def eval(self, t, x, y):
        u0_part, f_part = self.eval_parts(t, x, y)
        return u0_part + self.source_sign * f_part

    def __call__(self, t, x, y):
        return self.eval(t, x, y)

    def size(self):
        # data net + backward net, plus one backward-net copy per source
        # node, plus the source quadrature gate and trilinear coupling
        back_size = self.back_net.size()
        total = back_size
        if self.u0_net is not None:
            total += self.u0_net.size()
        for f_net in self.f_nets:
            total += f_net.size() + back_size
        if self.f_nets:
            total += _rho_gate_size((0.0, self.problem.T_hat), self.q_src) + 1
        return total

    def depth(self):
        d = self.back_net.depth()
        if self.u0_net is not None:
            d += self.u0_net.depth()
        if self.f_nets:
            d += max(f.depth() for f in self.f_nets)
        return d


def _datum_net(problem, datum, tol, is_source=False, at_time=None):
    """Interpolant network of a datum on the evaluation box."""
    q_grid = _grid_cells(datum.lip_x, problem.eval_box, tol)
    grid = lip_interp.GridSpec(problem.m, q_grid, box=problem.eval_box)
    if is_source:
        fn = lambda pts: datum.f(np.full(pts.shape[0], at_time), pts)
    else:
        fn = lambda pts: datum.u0(pts)
    sf = lip_interp.SampledFunction.from_function(
        fn, grid, lip_bound=datum.lip_x, sup_bound=datum.sup
    )
    net, _ = lip_interp.lip_stable_net(sf, tol)
    return net


def build_solution_net(problem, eps, source_sign=1.0):
    """Certified solution surrogate with sup error <= eps.

    Follows the composed-representation assembly: eps_tilde =
    eps / (7 T M), backward characteristics and data networks at
    accuracy eps_tilde, source quadrature with q = ceil(T / (2 eps_tilde))
    nodes.  The certified bound recomputes the full error budget from
    the actual tolerances and refuses if it exceeds eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    T, M = problem.T_hat, problem.M
    eps_t = eps / (7.0 * T * M)
    if not problem.convection.time_independent():
        raise NotImplementedError(
            "solution assembly anchors backward flows at the query time; "
            "time-dependent convection needs per-anchor builds"
        )
    back = build_char_net(problem, eps_t, direction="backward")
    u0_net = (
        _datum_net(problem, problem.u0, eps_t) if problem.u0 is not None else None
    )
    f_nets = []
    q_src = 0
    if problem.f is not None:
        q_src = int(math.ceil(T / (2.0 * eps_t)))
        if q_src > Q_CEILING:
            raise ResourceCeiling("source quadrature too fine", q_src)
        xi = (np.arange(q_src) + 0.5) * T / q_src
        f_nets = [
            _datum_net(problem, problem.f, eps_t, is_source=True, at_time=node)
            for node in xi
        ]

    # executable error budget
    lip_u0 = problem.u0.lip_x if problem.u0 is not None else 0.0
    bound = lip_u0 * eps_t + (eps_t if problem.u0 is not None else 0.0)
    if problem.f is not None:
        speed = problem.convection.A + 1.0
        l_g = problem.f.lip_t + problem.f.lip_x * speed
        quad = T**2 * l_g / (2.0 * q_src) + problem.f.lip_x * problem.convection.A * (
            T / q_src
        ) ** 2 / 2.0
        bound += T * (eps_t + problem.f.lip_x * eps_t) + quad
    if bound > eps:
        raise ResourceCeiling(
            f"solution bound {bound:.3g} exceeds target {eps}", bound
        )
    report = {
        "eps": eps,
        "eps_tilde": eps_t,
        "q_src": q_src,
        "certified_bound": bound,
        "char_report": back.report,
        "source_sign": source_sign,
    }
    net = SolutionNetwork(problem, back, u0_net, f_nets, q_src, source_sign, report)
    report["size"] = net.size()
    report["depth"] = net.depth()
    report["predicted"] = predicted_complexity(problem, eps, "solution")
    return net


# ---------------------------------------------------------------------------
# problem files


def problem_from_dict(doc):
    """Build a TransportProblem from a parsed problem-definition document."""
    fspec = doc["field"]
    m = int(fspec.get("m", 1))
    d_y = int(fspec["d_y"])
    comps = [catalog.make_component(c, m=m) for c in fspec["components"]]
    omega = fspec.get("omega", [1.0 / d_y] * d_y)
    if fspec.get("type", "affine") != "affine":
        raise ValueError("problem files support affine fields")
    conv = AffineConvection(m, d_y, omega, comps)
    T_hat = float(doc.get("T_hat", 1.0))
    u0 = catalog.make_u0(doc["u0"]) if "u0" in doc and doc["u0"] else None
    f = catalog.make_f(doc["f"], T_hat) if "f" in doc and doc["f"] else None
    return TransportProblem(conv, T_hat, doc.get("domain", [[0.0, 1.0]] * m), u0, f)
