"""Built-in analytic profiles for convection components and problem data.

Problem definition files refer to these by kind.  Each field component
is a map (t, x) -> R^m with declared sup / Lipschitz bounds; data
profiles cover initial values u0(x, y) and sources f(t, x, y).  All
evaluators are vectorized: t has shape (n,), x has shape (n, m), y has
shape (n, d_y).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Gauss-Legendre nodes of the time average of a time-dependent component
GAUSS_ORDER = 20


@functools.cache
def gauss_rule():
    """Read-only GAUSS_ORDER-point Gauss-Legendre (nodes, weights) on [-1, 1].

    Made on first use: importing numpy.polynomial costs about 1 MB of
    resident memory, which only time-dependent fields need.
    """
    rule = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@dataclass(frozen=True)
class FieldComponent:
    """One convection component with certified bounds.

    ``fn(t, x)`` returns shape (n, m).  ``sup`` bounds |fn|, ``lip_x``
    the spatial max-norm Lipschitz constant, ``lip_t`` the temporal one
    (0 for time-independent components).
    """

    fn: callable
    m: int
    sup: float
    lip_x: float
    lip_t: float = 0.0
    time_independent: bool = True

    def __call__(self, t, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return np.asarray(self.fn(t, x), dtype=float).reshape(x.shape[0], self.m)

    def slab_average(self, interval):
        """Spatial map w -> average of fn(., w) over the interval.

        Exact (the component itself) for time-independent components;
        otherwise GAUSS_ORDER-point Gauss-Legendre quadrature in time,
        vectorized over w.
        """
        lo, hi = float(interval[0]), float(interval[1])
        if self.time_independent:
            return lambda x: self(lo, x)
        nodes, weights = gauss_rule()
        ts = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * weights  # normalized: sum = 1/2 * 2 = 1

        def avg(x):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            acc = np.zeros((x.shape[0], self.m))
            for tv, wv in zip(ts, ws):
                acc += wv * self(tv, x)
            return acc

        return avg

    def reversed_negated(self, t_ref):
        """Component of the time-reversed, negated field s -> -fn(t_ref - s)."""
        if self.time_independent:
            neg = lambda t, x: -self.fn(t, x)
        else:
            neg = lambda t, x: -self.fn(t_ref - np.asarray(t, dtype=float), x)
        return FieldComponent(
            neg, self.m, self.sup, self.lip_x, self.lip_t, self.time_independent
        )


@dataclass(frozen=True)
class DataProfile:
    """Initial datum u0(x, y) or source f(t, x, y) with certified bounds.

    ``norm`` plays the role of the approximation-class norm bound and
    defaults to max(sup, lip).
    """

    fn: callable
    sup: float
    lip_x: float
    lip_t: float = 0.0
    norm: float = None

    def __post_init__(self):
        if self.norm is None:
            object.__setattr__(self, "norm", max(self.sup, self.lip_x, self.lip_t))

    def u0(self, x, y=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.fn(x), dtype=float).reshape(x.shape[0])

    def f(self, t, x, y=None):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = np.broadcast_to(np.asarray(t, dtype=float), (x.shape[0],))
        return np.asarray(self.fn(t, x), dtype=float).reshape(x.shape[0])


def _clamp01(v):
    return np.clip(v, 0.0, 1.0)


def make_component(spec, m=1):
    """Field component from a catalog spec dict.

    Kinds: constant {value}; cosine {amp, freq, phase}; bump {center,
    width, amp}; piecewise-linear {knots, values}.  All are functions
    of the first spatial coordinate (and constant in time).
    """
    kind = spec["kind"]
    if kind == "constant":
        c = float(spec.get("value", 1.0))
        return FieldComponent(
            lambda t, x: np.full((x.shape[0], m), c), m, abs(c), 0.0
        )
    if kind == "cosine":
        amp = float(spec.get("amp", 1.0))
        freq = float(spec.get("freq", 1.0))
        phase = float(spec.get("phase", 0.0))
        return FieldComponent(
            lambda t, x: np.tile(
                amp * np.cos(freq * x[:, :1] + phase), (1, m)
            ),
            m,
            abs(amp),
            abs(amp * freq),
        )
    if kind == "bump":
        center = float(spec.get("center", 0.5))
        width = float(spec.get("width", 1.0))
        amp = float(spec.get("amp", 1.0))
        return FieldComponent(
            lambda t, x: np.tile(
                amp
                * np.maximum(0.0, 1.0 - np.abs((x[:, :1] - center) / width)),
                (1, m),
            ),
            m,
            abs(amp),
            abs(amp / width),
        )
    if kind == "piecewise-linear":
        knots = np.asarray(spec["knots"], dtype=float)
        vals = np.asarray(spec["values"], dtype=float)
        slopes = np.diff(vals) / np.diff(knots)
        lip = float(np.max(np.abs(slopes))) if len(slopes) else 0.0
        return FieldComponent(
            lambda t, x: np.tile(
                np.interp(x[:, 0], knots, vals)[:, None], (1, m)
            ),
            m,
            float(np.max(np.abs(vals))),
            lip,
        )
    raise ValueError(f"unknown field component kind {kind!r}")


def make_u0(spec):
    """Initial-datum profile: hat {center, width, amp}; constant {value};
    ramp {lo, hi, amp}; zero."""
    kind = spec["kind"]
    if kind == "zero":
        return DataProfile(lambda x: np.zeros(x.shape[0]), 0.0, 0.0)
    if kind == "constant":
        c = float(spec.get("value", 1.0))
        return DataProfile(lambda x: np.full(x.shape[0], c), abs(c), 0.0)
    if kind == "hat":
        center = float(spec.get("center", 0.5))
        width = float(spec.get("width", 1.0))
        amp = float(spec.get("amp", 1.0))
        return DataProfile(
            lambda x: amp
            * np.maximum(0.0, 1.0 - np.abs((x[:, 0] - center) / width)),
            abs(amp),
            abs(amp / width),
        )
    if kind == "ramp":
        lo = float(spec.get("lo", 0.0))
        hi = float(spec.get("hi", 1.0))
        amp = float(spec.get("amp", 1.0))
        return DataProfile(
            lambda x: amp * _clamp01((x[:, 0] - lo) / (hi - lo)),
            abs(amp),
            abs(amp / (hi - lo)),
        )
    raise ValueError(f"unknown u0 kind {kind!r}")


def make_f(spec, T_hat=1.0):
    """Source profile: zero; constant {value}; ramp-in-x plus linear-in-t
    {base, x_coeff, t_coeff, lo, hi}.  Declared bounds hold for
    t in [0, T_hat]."""
    kind = spec["kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        c = float(spec.get("value", 1.0))
        return DataProfile(lambda t, x: np.full(x.shape[0], c), abs(c), 0.0)
    if kind == "ramp-t":
        base = float(spec.get("base", 0.5))
        xc = float(spec.get("x_coeff", 0.25))
        tc = float(spec.get("t_coeff", 0.25))
        lo = float(spec.get("lo", 0.0))
        hi = float(spec.get("hi", 1.0))
        return DataProfile(
            lambda t, x: base + xc * _clamp01((x[:, 0] - lo) / (hi - lo)) + tc * t,
            abs(base) + abs(xc) + abs(tc) * max(1.0, T_hat),  # sup over t <= T_hat
            abs(xc / (hi - lo)),
            abs(tc),
        )
    raise ValueError(f"unknown source kind {kind!r}")
