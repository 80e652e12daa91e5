"""Certified network surrogates for parametric transport problems.

The pipeline follows the constructive route: a macro time grid on which
the characteristic fixed-point map contracts with factor 1/2, per-slab
one-step maps combining clamped-ramp quadrature gates with interpolant
networks of the (slab-averaged) convection components, self-composed
for a logarithmic number of sweeps, and concatenated across slabs by
freezing junction values.  Solution surrogates compose the backward
characteristic network with data networks and a source quadrature.

Each slab class carries its net kind's error budget (:mod:`charflow.budget`),
which a build solves for its parameters and keeps in ``report["ledger"]``.

Built networks are composite evaluators in the generous sense: exact
multilinear gates (counted 1 each in the dependency-count complexity)
coupling ReLU subnetworks.  Evaluation computes the same function as
the literal layered assembly: the interpolants of an affine slab are one
set of tables on one grid, built by one :func:`lip_interp.stable_stack`
call and summed in one fused sweep, which agrees with per-interpolant
evaluation up to float rounding; tests cross-check it against a naive
per-sample reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog, lip_interp
from .budget import AFFINE, GENERAL, certify, char_ledger, schedule
from .budget import solution_complexity, solution_schedule
from .comp_calculus import complexity, eval_width, implant
from .lip_interp import ResourceCeiling
# nothing here calls rho_values; perfbench/spans.py wraps this module's name
from .relu_net import difference_quotient, rho_values  # noqa: F401

# guard added to the evaluation box for the network's own speed excess
BOX_MARGIN = 0.1


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
        # the frequencies that two or more time-independent cosines share,
        # which ``at`` sums as one cos/sin pair, and the other components
        by_freq = {}
        for j, comp in enumerate(self.components):
            if comp.wave is not None and comp.time_independent:
                by_freq.setdefault(comp.wave[1], []).append(j)
        self._groups = [(freq, js) for freq, js in by_freq.items() if len(js) >= 2]
        grouped = {j for _, js in self._groups for j in js}
        self._lone = [j for j in range(d_y) if j not in grouped]
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

    def at(self, y):
        """The field at fixed parameters y (n, d_y): (t, x) -> values (n, m).

        The per-row work is done here, once: the columns omega_j * y_j,
        and for each frequency f shared by two or more time-independent
        cosines, A_f = sum_j omega_j y_j amp_j cos(phase_j) and B_f =
        sum_j omega_j y_j amp_j sin(phase_j).  Each call then adds
        A_f cos(f x_1) - B_f sin(f x_1), one cos/sin pair per frequency,
        to the sum of the other components' terms, which each call
        through ``fn``.  The coefficients are multiply-adds over columns
        in a fixed order, so every row's bits are independent of the
        other rows.  Components given as one column (every catalog
        kind) are summed as columns and spread over the m columns once.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        cols = [(self.omega[j] * y[:, j])[:, None] for j in range(self.d_y)]
        lone = [(cols[j], self.components[j].fn) for j in self._lone]
        waves = []
        for freq, js in self._groups:
            amps = [(j, *self.components[j].wave) for j in js]
            A = sum(cols[j] * (amp * math.cos(phase)) for j, amp, _, phase in amps)
            B = sum(cols[j] * (amp * math.sin(phase)) for j, amp, _, phase in amps)
            waves.append((freq, A, B))
        m = self.m

        def field(t, x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            n = x.shape[0]
            out = None
            if lone:
                t = np.asarray(t, dtype=float)
                if t.shape != (n,):
                    t = np.broadcast_to(t, (n,))
                out = np.zeros((n, 1))
                for col, fn in lone:
                    term = col * fn(t, x)
                    if term.shape == out.shape:
                        out += term
                    else:
                        out = out + term
            for freq, A, B in waves:
                arg = freq * x[:, :1]
                sin = np.sin(arg)
                wave = np.cos(arg, out=arg)
                wave *= A
                sin *= B
                wave -= sin
                if out is None:
                    out = wave
                else:
                    out += wave
            if out.shape[1] < m:
                return np.concatenate([out] * m, axis=1)
            return out

        return field

    def eval(self, t, x, y):
        """Field values (n, m) at times t (n,) or scalar, x (n, m), y (n, d_y).

        Rows are independent.  The same as ``at(y)(t, x)``; a caller
        that evaluates many times at one y, as the oracle does, binds
        once with :meth:`at`.
        """
        return self.at(y)(t, x)

    __call__ = eval

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

    __call__ = eval

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
        """The field as the oracle takes it: called as (t, x, y), and an
        affine field also binds fixed parameters with ``at(y)``."""
        return self.convection

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
# macro grid


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

    def slab(self, k):
        return (k * self.slab_length, (k + 1) * self.slab_length)


# ---------------------------------------------------------------------------
# slab networks


# Row blocks keep the largest temporary of one network evaluation in a
# sweep, rows * row_floats floats, within 128 KiB, glibc's default mmap
# threshold.  On the m = 1 slabs measured that temporary is the rows'
# contracted knot tables: 41 rows of 392 floats on the ladder's slabs,
# 128576 bytes, and 12 rows of 1364 on the solution's backward slabs,
# 130944 bytes, both below the 131072 at which malloc maps a request.
# A block holds several arrays near that size at once, some 1 MB, which
# :class:`SweepWork` keeps for the next block, so that malloc does not
# trim them back to the kernel and fault them in again.  With the
# cell-major states this measured best: against 64 KiB, 128 KiB ran the
# ladder rung's evaluation 10% and the solution's 15% faster, and both
# certificates 22% faster; 256 KiB was no faster on either (README
# block table) and holds twice the memory.  A per-cell general slab
# evaluates its q cell nets one at a time, so only its sweep state
# (m, q, rows) is larger; that is made once per block, not in each of
# the q evaluations.
#
# An affine block also holds at least MIN_STATES quadrature states.  An
# m = 2 sweep is some 35 numpy calls per pass, 29 of them its corner
# lookup, and at the few rows the bytes rule allows it (12 rows of
# q = 76 states on char_m2's field) their call overhead outweighs the
# arithmetic: the floor's 28 rows evaluate char_m2's 150 queries in 15.9
# ms against 21.4 ms, 54 rows take 15.0-16.4 ms, no steady gain, and
# 108 rows 17.4 ms (medians of 9 and 15 interleaved runs).  On the
# m = 1 slabs measured the bytes rule gives more rows than the floor.
# Neither bound depends on the number of rows evaluated, so memory
# stays bounded.
BLOCK_BYTES = 128 * 1024
MIN_STATES = 2048


class SweepWork:
    """Work memory that the row blocks of one slab evaluation share.

    A block of n rows keeps its sweep states, running sums and lookup
    buffers here, made for all q cells: in the cell-major layout the
    arrays of the first p cells are a prefix of them.  So each block
    reuses the memory of the block before it.  A block's arrays come to
    some 1 MB; freed at the end of every block, malloc would hand what
    lies above its 128 KiB trim threshold back to the kernel, and the
    next block would fault it in again.  A block of another row count
    (the last, partial one) makes its own and drops the old ones, so
    one set is kept at a time.
    """

    def __init__(self):
        self._kept = {}

    def keep(self, key, n, make):
        """The object ``make()`` gives for blocks of n rows, kept under ``key``."""
        if self._kept.get(key, (n,))[0] != n:
            del self._kept[key]  # before the new one is made
        if key not in self._kept:
            self._kept[key] = (n, make())
        return self._kept[key][1]

    def prefix(self, key, n, size, shape):
        """The first prod(``shape``) floats of the ``size``-float buffer kept
        under ``key`` for blocks of n rows, as a C-contiguous array."""
        buf = self.keep(key, n, lambda: np.empty(size))
        return buf[: math.prod(shape)].reshape(shape)


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


def ramp_cell(t, lo, cell, q):
    """Cell j of times ``t`` clamped to q cells from ``lo``, and the
    fraction f of cell j that lies before t."""
    s = np.clip((t - lo) / cell, 0.0, q)
    j = np.minimum(s.astype(np.intp), q - 1)
    return j, s - j


def paired_rows(rows, up):
    """A row count of a full block: ``rows`` rounded to an even count, so
    that :func:`running_sums` pairs every row, ``up`` or down; at most
    one row stays one row."""
    if rows <= 1 or rows % 2 == 0:
        return max(rows, 1)
    return rows + 1 if up else rows - 1


def running_sums(V, out):
    """Running sums of ``V`` over its cells, axis -2, into ``out``.

    ``V`` holds rows along its last axis, and ``out`` is
    np.cumsum(V, axis=-2), bit for bit.  numpy's accumulate loop adds one
    element per step, so adjacent rows are paired as the real and
    imaginary parts of one complex128: complex addition adds the parts
    separately with the rounding of two float additions, so each step
    adds two rows.  An odd last row is summed on its own.  ``V`` may be
    a broadcast view; its last axis must be contiguous.
    """
    even = V.shape[-1] & ~1
    if even:
        lanes = out[..., :even].view(np.complex128)
        np.cumsum(V[..., :even].view(np.complex128), axis=-2, out=lanes)
    if even < V.shape[-1]:
        np.cumsum(V[..., even:], axis=-2, out=out[..., even:])
    return out


def ramp_gate(w, V, S, f, unit=None, out=None):
    """The gate w + sum_i rho_i(t) V_i at a time t in quadrature cell j.

    ``V`` and ``S`` hold the increments V_j and S_j = V_0 + ... + V_j,
    and ``f`` is the fraction of cell j that lies before t
    (:func:`ramp_cell`): the ramps of the earlier cells are full and
    ramp j has risen f * cell, so the sum is S_j - (1 - f) V_j in units
    of the cell, scaled by ``unit`` if given.  Cell midpoints are
    f = 1/2, the right end is j = q - 1 with f = 1.  Computed in ``out``
    if given, which may be ``V`` but not ``w`` or ``S``.
    """
    out = np.multiply(1.0 - f, V, out=out)
    np.subtract(S, out, out=out)
    if unit is not None:
        np.multiply(unit, out, out=out)
    return np.add(w, out, out=out)


class SlabNet:
    """One-slab characteristic network: ``mu`` fixed-point sweeps and a gate.

    Structure: quadrature gates in t, spatial networks of the slab
    field, and the exact multilinear gate
    x + sum_i rho_i(t) * V_i, where the sweep state V (m, q, n) holds
    the field values at the quadrature states after the last sweep.
    The clamped ramps make that sum a lookup in the running sums of V
    (:func:`ramp_gate`), which gives the sweeps' midpoint states, the values
    at query times and the junction alike.
    V depends on the seeds ``w`` and the parameters ``y`` only, so one
    sweep state answers any number of query times.

    Every sweep state is cell-major, (m, p, n): axis, cell, row, with
    the n rows of a block innermost.  Each array of a sweep then runs
    along the rows, the running sums over the cells take two rows per
    step (:func:`running_sums`), and the interpolants' lookups
    (:meth:`lip_interp.InterpolantNet.lookup`) read the states as points
    (m, p * n) with no transpose.

    A slab sweeps in its own units: states u with x = x_0 + ``unit`` * u
    per axis, and increments V that already carry the cell length, so a
    gate adds S_j - (1 - f) V_j to the seed's state with no unit factor.
    ``unit`` is None for slabs that sweep in x itself.  Subclasses build
    the spatial networks and supply ``chain(conv, intervals, sched,
    eval_box)``, which builds the slabs on consecutive intervals,
    ``_states(w)``, the states of seeds ``w`` (n, m),
    ``_sweep_plan(y, work)``, the sweep of one row block with
    parameters y: a function from states Z (m, p, n), the states of the
    first p <= q quadrature cells or p = 1 seed per row, to the
    increments at them, (m, p, n) with a contiguous last axis, which may
    return views of one buffer, kept in the block's :class:`SweepWork`
    ``work``, on every call, ``row_floats``, the floats per row of the
    largest temporary of one network evaluation in a sweep, and
    ``interpolant_size()``.
    """

    unit = None

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

    def _states(self, w):
        return w

    def _forward(self, u, y, p, work):
        """Run mu sweeps over the first p cells from seed states ``u`` (n, m).

        Returns the increments V (m, p, n) at the quadrature states of
        the last sweep and their running sums S = cumsum(V) over the
        cells (:func:`running_sums`).  The gate is causal, cell i of a
        sweep reading only cells <= i of the sweep before, so these are
        the first p cells of a sweep over all q, bit for bit.  The sweep
        is planned once; the states and running sums are rewritten in
        place by each sweep.  The seeds (m, 1, n) are constant along the
        cells, so a slab whose networks do not depend on the cell
        evaluates its first sweep once per row and broadcasts it.  The
        states, the running sums and the plan's buffers are taken from
        ``work`` (:class:`SweepWork`), which the blocks of one
        evaluation share; V and S are views of them.
        """
        sweep = self._sweep_plan(y, work)
        n, m = u.shape
        seeds = np.ascontiguousarray(u.T)[:, None, :]
        Z, S = (work.prefix(key, n, m * self.q * n, (m, p, n)) for key in "ZS")
        if self._shared:
            V = np.broadcast_to(sweep(seeds), Z.shape)
        else:
            Z[...] = seeds
            V = sweep(Z)
        for k in range(self.mu):
            if k:
                V = sweep(Z)
            running_sums(V, S)
            if k < self.mu - 1:
                ramp_gate(seeds, V, S, 0.5, out=Z)
        return V, S

    def block_rows(self):
        """Rows per block: one network evaluation's largest temporary of
        a sweep stays within ``BLOCK_BYTES``, in an even count of rows
        (:func:`paired_rows`)."""
        return paired_rows(int(BLOCK_BYTES // (8 * self.row_floats)), up=False)

    def eval_with_junction(self, t, w, y, mask, carry):
        """Gate the masked query times against one sweep state.

        ``w`` (n, m) are the seeds of the rows pushed through the slab;
        ``t`` and the boolean ``mask`` have shape (n,) or (r, n), one
        row per set of query times, and the boolean ``carry`` (n,) marks
        the rows that go on to the next slab.  Returns the values at
        ``t[mask]`` in that (row-major) order and the junction values of
        the carried rows, in their order.

        A row sweeps only the cells it reads: all q if it is carried,
        since the junction is the last cell, else the cells up to the
        last one its masked times gate (:func:`ramp_cell`), and none if
        it has no masked time.  The rows are ordered by that need and
        run in blocks of :meth:`block_rows` rows, each sweeping the
        largest need among its rows, so memory does not grow with n.
        A row's values depend neither on the other rows of its block nor
        on how many cells its block sweeps.  The gated entries and the
        junctions are gathered from the block's (m, p, n) sweep state as
        (entries, m) views.
        """
        w = np.atleast_2d(np.asarray(w, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = w.shape[0]
        times = np.asarray(t, dtype=float).reshape(-1, n)
        mask = np.asarray(mask, dtype=bool).reshape(times.shape)
        carry = np.asarray(carry, dtype=bool).reshape(n)
        lo_t = self.interval[0]
        need = np.zeros(n, dtype=np.intp)
        r, c = np.nonzero(mask)
        np.maximum.at(need, c, ramp_cell(times[r, c], lo_t, self.cell, self.q)[0] + 1)
        need[carry] = self.q
        # rows that read no cell are not swept
        order = np.argsort(need, kind="stable")[np.count_nonzero(need == 0) :]
        gated = np.empty(times.shape + (w.shape[1],))
        w_next = np.empty_like(w)
        step = self.block_rows()
        work = SweepWork()
        for lo in range(0, len(order), step):
            rows = order[lo : lo + step]
            p = need[rows[-1]]
            wb = w[rows]
            V, S = self._forward(self._states(wb), y[rows], p, work)
            # the block's gated entries, all time sets together; a time
            # clamped to the slab gives the seeds below it and the
            # junction value above it
            r, c = np.nonzero(mask[:, rows])
            cols = rows[c]
            j, f = ramp_cell(times[r, cols], lo_t, self.cell, self.q)
            gated[r, cols] = ramp_gate(
                wb[c], V[:, j, c].T, S[:, j, c].T, f[:, None], self.unit
            )
            # a block holding a carried row sweeps all q cells
            c = carry[rows]
            w_next[rows[c]] = ramp_gate(wb[c], V[:, -1, c].T, S[:, -1, c].T, 1.0, self.unit)
        return gated[mask], w_next[carry]

    def size(self):
        # mu sweeps of (q*d_y interpolants + one multilinear gate),
        # plus the t-quadrature gate network of the final sweep
        return self.mu * (self.interpolant_size() + 1) + _rho_gate_size(
            self.interval, self.q
        )


class AffineSlabNet(SlabNet):
    """One-slab network for an affine field.

    The spatial networks are interpolants of the slab-averaged
    components, coupled by the exact trilinear gate
    x + sum_i rho_i(t) sum_j y_j omega_j N_{j,i}(z_i).
    ``tables`` are what :func:`lip_interp.stable_stack` gives for all of
    them, built once by :meth:`chain`: ``net``, a
    :class:`lip_interp.InterpolantNet` of one table per subinterval
    whose entry j * m + c holds output c of component j, its exact sizes
    and its depth.  They share one grid on the evaluation box (``grid``),
    whose units the sweep states keep, and one sawtooth depth, so one
    sweep visits the active hats once for every interpolant.  An m = 1
    net with one table is contracted with the row weights before the
    lookup (``contract``) when a row's table is smaller than the entries
    its q states gather.  Every table sits in a ring of zero ghost
    nodes, so an m >= 2 lookup is one :class:`lip_interp.CornerLookup`
    over the states' cell corners, with no mask.
    """

    budget = AFFINE

    def __init__(self, conv, interval, sched, tables):
        super().__init__(conv, interval, sched)
        self.net, sizes, self.net_depth = tables
        self.net_size = int(sizes.sum())
        self.grid = self.net.grid
        # sweeps run in the interpolation grid's units
        self.unit = self.grid.spacing
        m, size = conv.m, math.prod(self.net.table_shape)
        self.contract = m == 1 and self.net.n_tables == 1 and size < 2 * self.q
        # one fused evaluation covers all q states of a row; a contracted
        # net's per-row table counts per state too
        entries = m if self.contract else m * conv.d_y
        point_width = max(
            float(m), self.net.point_floats(entries), size / self.q if self.contract else 0
        )
        self.row_floats = self.q * point_width

    def block_rows(self):
        # and at least MIN_STATES quadrature states per block
        return max(super().block_rows(), paired_rows(-(-MIN_STATES // self.q), up=True))

    @classmethod
    def chain(cls, conv, intervals, sched, eval_box):
        """Slabs on ``intervals``.

        A slab's tables are one :func:`lip_interp.stable_stack` call, on
        one average of each component per subinterval, sampled on the
        grid nodes for all m outputs at once.  A time-independent
        component is its own slab average, so all slabs of such a field
        share one set of tables.
        """
        grid = lip_interp.GridSpec.for_tolerance(eval_box, conv.Lam, sched.delta)
        nodes = grid.nodes()
        m, d_y = conv.m, conv.d_y

        def tables(interval):
            subs = _subintervals(conv, interval, sched.q)
            avgs = np.empty((len(subs), d_y * m, len(nodes)))
            per_comp = avgs.reshape(len(subs), d_y, m, len(nodes))
            for j, comp in enumerate(conv.components):
                for i, sub in enumerate(subs):
                    per_comp[i, j] = comp.slab_average(sub)(nodes).T
            return lip_interp.stable_stack(grid, avgs, sched.delta, conv.Lam, conv.A_circ)

        if conv.time_independent():
            shared = tables(intervals[0])
            return [cls(conv, iv, sched, shared) for iv in intervals]
        return [cls(conv, iv, sched, tables(iv)) for iv in intervals]

    def _states(self, w):
        return self.grid.to_grid(w)

    def _sweep_plan(self, y, work):
        """The sweep of one row block: states Z (m, p, n) -> V (m, p, n).

        Z holds the states of the first p <= q quadrature cells of each
        of the n rows, or p = 1 seed per row if the tables are shared by
        all cells, in grid units, cell-major as :class:`SlabNet` keeps
        them.  V[:, i, r] = sum_j omega_j y[r, j] N_{j,i}(Z[:, i, r]) *
        cell / spacing: the increments in grid units.  The weights, with
        the cell length folded in, and a contracted slab's per-row tables
        are made here, once per row block.  The lookup, made for all q
        cells, and V's buffer are kept in ``work`` (:class:`SweepWork`)
        per row count, so the blocks of one evaluation reuse them and a
        sweep is one pass; V is rewritten by every call.

        A sweep reads the states as the points (m, p * n) of the lookup,
        with no copy.  A contracted lookup reads each state's row table
        and gives the increments.  Otherwise the lookup gives the d_y * m
        values (d_y, m, p, n), read from the state's cell's table if the
        tables are per cell, and one einsum multiplies them by the row
        weights (d_y, m, n) and sums over j in the order of j.
        """
        n, m, q = len(y), self.grid.s, self.q
        w = (self.conv.omega * y)[:, None] * (self.cell / self.grid.spacing)[:, None]
        if self.contract:
            # state i * n + r reads row r's table
            def row_lookup():
                rows = lip_interp.InterpolantNet(self.grid, np.zeros((n, 1, self.grid.q + 1)))
                return rows, rows.lookup(q * n, np.tile(np.arange(n), q))

            rows, lookup = work.keep("lookup", n, row_lookup)
            self.net.contracted(w[:, 0], out=rows)
            return lambda Z: lookup(Z.reshape(m, -1)).reshape(Z.shape)
        # state i * n + r reads cell i's table if the tables are per cell
        lookup = work.keep(
            "lookup",
            n,
            lambda: self.net.lookup(q * n, None if self._shared else np.repeat(np.arange(q), n)),
        )
        w = np.ascontiguousarray(w.transpose(2, 1, 0))

        def sweep(Z):
            p = Z.shape[1]
            vals = lookup(Z.reshape(m, p * n)).reshape(-1, m, p, n)
            out = work.prefix("V", n, m * q * n, (m, p, n))
            return np.einsum("kapn,kan->apn", vals, w, out=out)

        return sweep

    def interpolant_size(self):
        # a shared set of interpolants stands for q identical copies
        return (self.q if self._shared else 1) * self.net_size

    def depth(self):
        return self.mu * (self.net_depth + 1) + 2


class GeneralSlabNet(SlabNet):
    """One-slab network for a general field via implanted representations."""

    budget = GENERAL

    def __init__(self, conv, interval, sched, charge):
        super().__init__(conv, interval, sched)
        self._nets = []
        for sub in self.subintervals:
            rep = conv.rep_builder(sub, sched.N)
            depth = len(rep.factors)
            per_comp = self.delta / max(1, depth)
            implanted, bound = implant(rep, [per_comp] * depth)
            if bound > charge:
                raise ResourceCeiling(
                    f"implant error {bound:.3g} exceeds the {charge:.3g} "
                    "that its budget term charges",
                    bound,
                )
            self._nets.append(implanted)
        # each quadrature state enters an implanted net as a point (z, y);
        # the shared net sees all q states of a row in one evaluation, a
        # cell net one state per row
        width = max(conv.m + conv.d_y, *(eval_width(net) for net in self._nets))
        self.row_floats = width * (self.q if self._shared else 1)

    @classmethod
    def chain(cls, conv, intervals, sched, eval_box):
        """Slabs on ``intervals``; the implanted nets ignore ``eval_box``.

        A slab refuses an implant whose bound exceeds the ``charge`` of
        the implant term.
        """
        charge = next(bound for name, *_, bound in cls.budget.terms if name == "implant")
        return [cls(conv, iv, sched, charge(sched, conv)) for iv in intervals]

    def _sweep_plan(self, y, work):
        # sweeps run in x; the increments carry the cell length.  An
        # implanted net takes its points as rows (points, m + d_y) and
        # gives rows (points, m), so the states enter and the increments
        # leave it point-major, in cell-major point order.
        n, m = len(y), self.conv.m
        if self._shared:
            ys = {}  # the parameters of each state, per p

            def sweep(Z):
                p = Z.shape[1]
                if p not in ys:
                    ys[p] = np.tile(y, (p, 1))
                flat = np.hstack([Z.reshape(m, p * n).T, ys[p]])
                V = self.cell * self._nets[0].eval(flat)
                return np.ascontiguousarray(V.T).reshape(m, p, n)

            return sweep

        def sweep(Z):
            p = Z.shape[1]
            V = np.empty((m, p, n))
            for i in range(p):
                V[:, i, :] = self._nets[i].eval(np.hstack([Z[:, i, :].T, y])).T
            V *= self.cell
            return V

        return sweep

    def interpolant_size(self):
        return (self.q if self._shared else 1) * sum(complexity(net) for net in self._nets)

    def depth(self):
        return self.mu * 4 + 2


def _rho_gate_size(interval, q):
    """Exact nonzero count of the quadrature gate network of q cells on
    ``interval``, without building it: output i is the clamped ramp
    relu(t - tau_{i-1}) - relu(t - tau_i) at tau_i = lo + i |I| / q."""
    lo, hi = interval
    taus = lo + (hi - lo) * np.arange(q + 1) / q
    nnz_b = int(np.count_nonzero(taus[:-1])) + int(np.count_nonzero(taus[1:]))
    return 2 * q + nnz_b + 2 * q


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
        gates every time set it owns while its sweep state is live.  It
        passes on the junctions of the rows with a later time; a row
        whose latest time it owns sweeps only the cells up to that time.
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
        k_last = k_idx.max(axis=0, initial=-1)
        out = np.empty(times.shape + (x.shape[1],))
        rows = np.arange(n)
        w = x
        for k in range(int(k_last.max(initial=-1)) + 1):
            mask = k_idx[:, rows] == k
            carry = k_last[rows] > k
            vals, w = self.slabs[k].eval_with_junction(
                times[:, rows], w, y[rows], mask, carry
            )
            r_idx, c_idx = np.nonzero(mask)
            out[r_idx, rows[c_idx]] = vals
            rows = rows[carry]
        return out if t.ndim > 1 else out[0]

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

    ``report["ledger"]`` holds the error terms at the schedule's
    parameters (:func:`char_ledger`); a ledger summing above eps is
    refused with :class:`ResourceCeiling`.  The backward variant runs
    the identical pipeline on the time-reversed, negated field (same
    bounds, same affine structure) and approximates backward flow
    durations.
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
    grid = MacroGrid(problem.T_hat, max(1.0, conv.norm))
    slab_class = _slab_class(conv)  # the net kind: its slabs and budget
    sched = schedule(eps, grid, problem, slab_class.budget)
    ledger = char_ledger(slab_class.budget.terms, sched, conv)
    certify(ledger, eps, "characteristic")
    intervals = [grid.slab(k) for k in range(grid.K)]
    slabs = slab_class.chain(conv, intervals, sched, problem.eval_box)
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
        "predicted": slab_class.budget.complexity(problem, eps),
        "ledger": ledger,
    }
    return net


# ---------------------------------------------------------------------------
# Lipschitz certificates


def lipschitz_certificate(net, n_samples=4000, seed=0):
    """Sampled Lipschitz lower bounds vs the theory thresholds.

    Samples difference quotients separately in t (frozen x, y) and in
    (x, y) jointly (frozen t).  PASS requires each bound below its
    threshold in the net kind's budget, at c3, the calibrated Lipschitz
    amplification constant.
    """
    problem = net.problem
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
    # one junction chain of 2n rows: (x, y) at {t, t2} and (x2, y2) at
    # {t, t}; a row's values do not depend on the other rows
    times = np.stack([np.tile(t, 2), np.concatenate([t2, t])])
    at_t, at_t2 = net.eval(times, np.vstack([x, x2]), np.vstack([y, y2]))
    z, z_x2, z_t2 = at_t[:n], at_t[n:], at_t2[:n]

    lip_xy = difference_quotient(np.hstack([x, y]), np.hstack([x2, y2]), z, z_x2)
    lip_t = difference_quotient(t[:, None], t2[:, None], z, z_t2)

    xy_threshold, t_threshold, pessimistic = net.slabs[0].budget.thresholds(problem, net.sched, c3)
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

# A solution evaluation runs its queries in chunks whose backward chain
# holds at most CHAIN_FEET feet, q_src + 1 per query: the chain and the
# source lookup each hold several arrays of that many entries.
CHAIN_FEET = 2**14


class SolutionNetwork:
    """u surrogate: data network on backward feet plus source quadrature.

    u(t,x,y) ~ N_u0(B(t,x,y)) + sum_i rho_i(t) N_f,i(B(t-xi_i,x,y))
    where B is the backward characteristic network.  ``sources`` is the
    :class:`lip_interp.InterpolantNet` of the q_src source nets N_f,i, one
    table per source time xi_i (None without a source), gated like the
    slabs by :func:`ramp_gate`.  ``data_size`` is the summed size of the
    data nets, counted once at build.
    """

    def __init__(self, problem, back_net, u0_net, sources, q_src, report, data_size):
        self.problem = problem
        self.back_net = back_net
        self.u0_net = u0_net
        self.sources = sources
        self.data_size = data_size
        self.q_src = q_src
        self.report = report
        T = problem.T_hat
        self.xi = source_times(T, q_src) if q_src else np.array([])
        if sources is not None:
            self.cell = T / q_src

    def eval_parts(self, t, x, y):
        """(initial-datum part, source part): their sum is :meth:`eval`.

        Runs in chunks of ``CHAIN_FEET // (q_src + 1)`` queries, so memory
        does not grow with the number of queries; a query's values do not
        depend on its chunk.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        step = max(1, CHAIN_FEET // (self.q_src + 1))
        chunks = [
            self._eval_chunk(t[lo : lo + step], x[lo : lo + step], y[lo : lo + step])
            for lo in range(0, max(len(x), 1), step)
        ]
        return tuple(np.concatenate(part) for part in zip(*chunks))

    def _eval_chunk(self, t, x, y):
        n, m = x.shape
        # one backward chain for the query times and every source node
        sigma = np.maximum(t[None, :] - self.xi[:, None], 0.0)
        feet = self.back_net.eval(np.vstack([t[None, :], sigma]), x, y)
        u0_part = (
            self.u0_net.eval(feet[0])[:, 0] if self.u0_net is not None else np.zeros(n)
        )
        if self.sources is None:
            return u0_part, np.zeros(n)
        # V_i: source net i at the feet of node i
        q = self.q_src
        u = self.sources.grid.to_grid(feet[1:].reshape(-1, m))
        V = self.sources(np.ascontiguousarray(u.T), np.repeat(np.arange(q), n))
        V = V.reshape(q, n)
        S = running_sums(V, np.empty_like(V))
        j, f = ramp_cell(t, 0.0, self.cell, q)
        cols = np.arange(n)
        return u0_part, ramp_gate(0.0, V[j, cols], S[j, cols], f, self.cell)

    def eval(self, t, x, y):
        u0_part, f_part = self.eval_parts(t, x, y)
        return u0_part + f_part

    def size(self):
        # data net + backward net, plus one backward-net copy per source
        # node, plus the source quadrature gate and trilinear coupling
        n_src = 0 if self.sources is None else self.q_src
        total = self.data_size + (1 + n_src) * self.back_net.size()
        if n_src:
            total += _rho_gate_size((0.0, self.problem.T_hat), self.q_src) + 1
        return total

    def depth(self):
        d = self.back_net.depth()
        if self.u0_net is not None:
            d += self.u0_net.depth()
        if self.sources is not None:
            d += self.sources.depth()
        return d


def source_times(T, q_src):
    """The source quadrature's nodes: the midpoints of q_src cells of [0, T]."""
    return (np.arange(q_src) + 0.5) * T / q_src


def _datum_net(problem, datum, tol):
    """Interpolant network of the initial datum on the evaluation box, and
    its size."""
    grid = lip_interp.GridSpec.for_tolerance(problem.eval_box, datum.lip_x, tol)
    sf = lip_interp.SampledFunction.from_function(
        datum.u0, grid, lip_bound=datum.lip_x, sup_bound=datum.sup
    )
    net, report = lip_interp.lip_stable_net(sf, tol)
    return net, report["size"]


def _source_stack(problem, tol, q_src):
    """The source nets at the q_src source times, one stack, and their
    summed size: f is sampled once at every (time, grid node) pair."""
    f = problem.f
    grid = lip_interp.GridSpec.for_tolerance(problem.eval_box, f.lip_x, tol)
    nodes = grid.nodes()
    times = np.repeat(source_times(problem.T_hat, q_src), len(nodes))
    values = f.f(times, np.tile(nodes, (q_src, 1))).reshape(q_src, 1, len(nodes))
    stack, sizes, _ = lip_interp.stable_stack(grid, values, tol, f.lip_x, f.sup)
    return stack, int(sizes.sum())


def build_solution_net(problem, eps):
    """Certified solution surrogate with sup error <= eps.

    Follows the composed-representation assembly: backward
    characteristics and data networks at the accuracy eps_tilde, with the
    source quadrature's nodes, as :func:`budget.solution_schedule` solves
    them; ``report["ledger"]`` holds its terms, ``certified_bound`` their sum.
    """
    if not problem.convection.time_independent():
        raise NotImplementedError(
            "solution assembly anchors backward flows at the query time; "
            "time-dependent convection needs per-anchor builds"
        )
    eps_t, q_src, ledger, bound = solution_schedule(eps, problem)
    back = build_char_net(problem, eps_t, direction="backward")
    u0_net, data_size = (
        _datum_net(problem, problem.u0, eps_t) if problem.u0 is not None else (None, 0)
    )
    sources = None
    if problem.f is not None:
        sources, size = _source_stack(problem, eps_t, q_src)
        data_size += size
    report = {
        "eps": eps,
        "eps_tilde": eps_t,
        "q_src": q_src,
        "certified_bound": bound,
        "ledger": ledger,
        "char_report": back.report,
    }
    net = SolutionNetwork(problem, back, u0_net, sources, q_src, report, data_size)
    report["size"] = net.size()
    report["depth"] = net.depth()
    report["predicted"] = solution_complexity(problem, eps)
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
