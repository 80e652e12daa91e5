"""Independent high-accuracy references for characteristics and solutions.

Every network the package builds is certified against these: a classic
fixed-step RK4 integrator with step-doubling Richardson error control
for trajectories, and a backward trace for the transport solution
itself.  Everything here is deterministic and vectorized over sample
batches.

The coarse and fine runs of a Richardson pair share one pass: each
coarse step advances the stacked rows [coarse; fine], which is also the
first of the two fine steps, then the fine rows alone.  A pair thus
costs 8 field calls per coarse step instead of 12.  The pass runs over
blocks of rows, so its working memory is bounded whatever the sample
count.  A field must evaluate its rows independently; the endpoints
are then bit-identical to two separate runs, for any block split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bytes of one (rows, width) state array of a block; a block's working
# set is a few dozen such arrays, so it stays cache-sized.
BLOCK_BYTES = 1 << 14


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step RK4 configuration.

    ``tol`` drives the step-doubling loop: steps double until the
    Richardson estimate |z_h - z_{h/2}| falls below it, and a run that
    still misses it at ``max_steps`` raises :class:`OracleToleranceError`.
    The first pair already runs 2 * ``steps``, so ``max_steps`` must
    be at least that.
    """

    steps: int = 64
    tol: float = None
    max_steps: int = 1 << 16

    def __post_init__(self):
        if self.steps < 4:
            raise ValueError("need at least 4 steps")
        if self.max_steps < 2 * self.steps:
            raise ValueError("max_steps below the first pair's 2 * steps")


class OracleToleranceError(RuntimeError):
    """The oracle's error estimate misses its tolerance at ``max_steps``."""

    def __init__(self, est, tol):
        super().__init__(f"RK4 error estimate {est:.3g} exceeds tol {tol:.3g}")
        self.est = est
        self.tol = tol


def block_rows(width):
    """Rows of one block for states of ``width`` columns."""
    return max(1, BLOCK_BYTES // (8 * width))


def _rk4_step(field, h, y, width):
    """One RK4 step of every row with its own step ``h``: (t, z) -> (t + h, z').

    The factors 0.5 h, h and h / 6 are made once per pass, at the
    states' full ``width``: a product with an (n, 1) column broadcast
    over the columns costs several times one of two (n, width) arrays.
    Every operation rounds as in the textbook form, so no bit changes.
    """
    half = 0.5 * h
    hh, hc, h6 = (np.repeat(v[:, None], width, axis=1) for v in (half, h, h / 6.0))

    def step(t, z):
        tm = t + half
        te = t + h
        k1 = field(t, z, y)
        k2 = field(tm, z + hh * k1, y)
        k3 = field(tm, z + hh * k2, y)
        k4 = field(te, z + hc * k3, y)
        return te, z + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return step


def _check_finite(z):
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("nonfinite field values during integration")


def _pair(field, t0, t1, x, y, steps):
    """Coarse (``steps``) and fine (2 * ``steps``) endpoints of one block."""
    n, width = x.shape
    h = np.concatenate([(t1 - t0) / steps, (t1 - t0) / (2 * steps)])
    both = _rk4_step(field, h, y if y is None else np.concatenate([y, y]), width)
    fine = _rk4_step(field, h[n:], y, width)
    t = np.concatenate([t0, t0])
    z = np.concatenate([x, x])
    for _ in range(steps):
        t, z = both(t, z)
        t[n:], z[n:] = fine(t[n:], z[n:])
    _check_finite(z)
    return z[:n], z[n:]


def _sweep(field, t0, t1, x, y, steps, record=False):
    """One RK4 run of one block: its endpoint, or with ``record`` (times, states)."""
    step = _rk4_step(field, (t1 - t0) / steps, y, x.shape[1])
    t, z = t0, x
    times = [t0] if record else None
    states = [x] if record else None
    for _ in range(steps):
        t, z = step(t, z)
        if record:
            times.append(t)
            states.append(z)
    _check_finite(z)
    if record:
        return np.stack(times), np.stack(states)
    return z


def rk4_char(field, t0, t1, x, y, config=OdeConfig(), dense=False):
    """Trajectory endpoint of dz/dt = field(t, z, y) from (t0, x) to t1.

    Integrates forward or backward depending on the sign of t1 - t0;
    ``t0``/``t1`` may be scalars or per-row vectors, and ``y`` is None
    or holds one row per row of ``x``.  Returns (Richardson-
    extrapolated endpoint, error_estimate); the estimate compares the
    run against one with doubled steps, and when a tolerance is set,
    steps double until the estimate meets it or
    :class:`OracleToleranceError` is raised.  The first pair runs in
    one stacked pass; each later doubling adds a single run.  With
    ``dense`` the return becomes (endpoint, estimate, (times, states))
    holding the trajectory at the finest accepted resolution.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), (n,))
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n,))
    rows = block_rows(m)
    blocks = [slice(lo, lo + rows) for lo in range(0, n, rows)]

    def run(b, fn, *args):
        return fn(field, t0[b], t1[b], x[b], y if y is None else y[b], *args)

    coarse = np.empty((n, m))
    fine = np.empty((n, m))
    for b in blocks:
        coarse[b], fine[b] = run(b, _pair, config.steps)
    steps = 2 * config.steps
    while True:
        est = max(float(np.max(np.abs(fine[b] - coarse[b]))) for b in blocks) / 15.0
        if config.tol is None or est <= config.tol or steps >= config.max_steps:
            break
        coarse, fine, steps = fine, coarse, 2 * steps
        for b in blocks:
            fine[b] = run(b, _sweep, steps)
    if config.tol is not None and est > config.tol:
        raise OracleToleranceError(est, config.tol)
    for b in blocks:  # the extrapolated endpoint overwrites the coarse run
        coarse[b] = fine[b] + (fine[b] - coarse[b]) / 15.0
    if dense:
        times = np.empty((steps + 1, n))
        states = np.empty((steps + 1, n, m))
        for b in blocks:
            times[:, b], states[:, b] = run(b, _sweep, steps, True)
        return coarse, est, (times, states)
    return coarse, est


def solution_oracle(problem, t, x, y, config=OdeConfig()):
    """Transport solution u(t, x, y) by one backward trace per query.

    Traces from (t, x) back to time zero along the characteristic,
    carrying the foot point and v with dv/ds = f(s, z(s), y), v(t) = 0
    (quadrature at RK4's own order, error-controlled together with the
    trajectory).  Then u = u0(foot) - v(0).  Foot points outside the
    problem's evaluation box use the zero extension of the initial
    datum.
    """
    field = problem.field_evaluator()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    if problem.f is None:
        foot, _ = rk4_char(field, t, np.zeros(n), x, y, config)
        return _u0_at(problem, foot, y)

    def traced(s, state, yv):
        z = state[:, :m]
        out = np.empty_like(state)
        out[:, :m] = field(s, z, yv)
        out[:, m] = problem.f_values(s, z, yv)
        return out

    state0 = np.hstack([x, np.zeros((n, 1))])
    state, _ = rk4_char(traced, t, np.zeros(n), state0, y, config)
    return _u0_at(problem, state[:, :m], y) - state[:, m]


def _u0_at(problem, foot, y):
    """u0 at the foot points, zero outside the evaluation box."""
    vals = problem.u0_values(foot, y)
    return np.where(problem.inside_eval_box(foot), vals, 0.0)
