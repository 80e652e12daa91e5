"""Independent high-accuracy references for characteristics and solutions.

Every network the package builds is certified against these: a classic
fixed-step RK4 integrator with step-doubling Richardson error control
for trajectories, and a backward-trace + quadrature evaluator for the
transport solution itself.  Everything here is deterministic and
vectorized over sample batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step RK4 configuration.

    ``tol`` drives the step-doubling loop: steps double until the
    Richardson estimate |z_h - z_{h/2}| falls below it, and a run that
    still misses it at ``max_steps`` raises :class:`OracleToleranceError`.
    """

    steps: int = 64
    tol: float = None
    max_steps: int = 1 << 16

    def __post_init__(self):
        if self.steps < 4:
            raise ValueError("need at least 4 steps")


class OracleToleranceError(RuntimeError):
    """The oracle's error estimate misses its tolerance at ``max_steps``."""

    def __init__(self, est, tol):
        super().__init__(f"RK4 error estimate {est:.3g} exceeds tol {tol:.3g}")
        self.est = est
        self.tol = tol


def _rk4_sweep(field, t0, t1, x, y, steps, record=False):
    """Vectorized RK4 with per-sample endpoints.

    ``t0``/``t1`` may be scalars or per-sample vectors; each row
    integrates its own interval with its own step size.  With
    ``record`` the whole trajectory is returned as (times, states) of
    shapes (steps+1, n) and (steps+1, n, m).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float)).copy()
    n, m = x.shape
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), (n,)).copy()
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n,))
    h = (t1 - t0) / steps
    t = t0
    z = x
    times = [t0.copy()] if record else None
    states = [x.copy()] if record else None
    for _ in range(steps):
        k1 = field(t, z, y)
        k2 = field(t + 0.5 * h, z + 0.5 * h[:, None] * k1, y)
        k3 = field(t + 0.5 * h, z + 0.5 * h[:, None] * k2, y)
        k4 = field(t + h, z + h[:, None] * k3, y)
        z = z + (h / 6.0)[:, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if record:
            times.append(t.copy())
            states.append(z.copy())
    if not np.all(np.isfinite(z)):
        raise FloatingPointError("nonfinite field values during integration")
    if record:
        return np.stack(times), np.stack(states)
    return z


def rk4_char(field, t0, t1, x, y, config=OdeConfig(), dense=False):
    """Trajectory endpoint of dz/dt = field(t, z, y) from (t0, x) to t1.

    Integrates forward or backward depending on the sign of t1 - t0.
    Returns (Richardson-extrapolated endpoint, error_estimate); the
    estimate compares the run against one with doubled steps, and when
    a tolerance is set, steps double until the estimate meets it or
    :class:`OracleToleranceError` is raised.  With ``dense``
    the return becomes (endpoint, estimate, (times, states)) holding
    the trajectory at the finest accepted resolution.
    """
    steps = config.steps
    coarse = _rk4_sweep(field, t0, t1, x, y, steps)
    while True:
        fine = _rk4_sweep(field, t0, t1, x, y, 2 * steps)
        est = float(np.max(np.abs(fine - coarse))) / 15.0
        if config.tol is None or est <= config.tol or 2 * steps >= config.max_steps:
            break
        coarse, steps = fine, 2 * steps
    if config.tol is not None and est > config.tol:
        raise OracleToleranceError(est, config.tol)
    endpoint = fine + (fine - coarse) / 15.0
    if dense:
        path = _rk4_sweep(field, t0, t1, x, y, 2 * steps, record=True)
        return endpoint, est, path
    return endpoint, est


def solution_oracle(problem, t, x, y, config=OdeConfig()):
    """Transport solution u(t, x, y) by backward tracing.

    Traces backward along the characteristic to the foot point at time
    zero, evaluates the initial datum there, and accumulates the source
    integral along the characteristic by augmenting the forward RK4
    system with dv/ds = f(s, z(s), y) (Simpson-type quadrature at RK4's
    own order, error-controlled together with the trajectory).
    Foot points outside the problem's evaluation box use the zero
    extension of the initial datum.
    """
    field = problem.field_evaluator()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, m = x.shape
    t = np.broadcast_to(np.asarray(t, dtype=float), (n,))
    foot, _ = rk4_char(field, t, np.zeros(n), x, y, config)

    u0_vals = problem.u0_values(foot, y)
    inside = problem.inside_eval_box(foot)
    u0_vals = np.where(inside, u0_vals, 0.0)

    if problem.f is None:
        return u0_vals

    def augmented(s, state, yv):
        z = state[:, :m]
        dz = field(s, z, yv)
        dv = problem.f_values(s, z, yv)
        return np.hstack([dz, dv[:, None]])

    state0 = np.hstack([foot, np.zeros((n, 1))])
    state, _ = rk4_char(augmented, np.zeros(n), t, state0, y, config)
    return u0_vals + state[:, m]


def exact_const(problem):
    """Closed-form characteristic and solution for constant-in-(t,x) fields.

    Returns (z_fn, u_fn) with z(t, x, y) = x + t*a(y) and, for zero
    source, u(t, x, y) = u0(x - t*a(y), y).
    """
    if not problem.convection.constant_in_tx():
        raise ValueError("field is not constant in (t, x)")
    field = problem.field_evaluator()

    def a_of_y(y, n):
        probe = np.zeros((n, problem.m))
        return field(np.zeros(n), probe, y)

    def z_fn(t, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return x + t[:, None] * a_of_y(y, x.shape[0])

    def u_fn(t, x, y):
        if problem.f is not None:
            raise ValueError("closed form implemented for zero source only")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        foot = x - t[:, None] * a_of_y(y, x.shape[0])
        vals = problem.u0_values(foot, y)
        return np.where(problem.inside_eval_box(foot), vals, 0.0)

    return z_fn, u_fn
