"""The certified arithmetic: the error budget of every net kind.

A net kind certifies eps as a sum of named error terms, held in one
tuple.  :func:`schedule` solves a characteristic kind's (``AFFINE`` or
``GENERAL``, chosen once with its slab class) for the build parameters,
:func:`solution_schedule` the solution's; a ledger above eps is refused.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .comp_calculus import gamma_inverse
from .lip_interp import GridSpec, ResourceCeiling

E_HALF = math.exp(0.5)

# build budget: quadrature nodes per slab (and source nodes of a solution
# net).  Interpolation grids have their own, lip_interp.NODE_CEILING nodes,
# which GridSpec.for_tolerance applies to every grid sized from a tolerance.
Q_CEILING = 200_000


# A characteristic term is (name, share of eps, parameter,
# solve(budget, conv, slab_length), bound(sched, conv)): solve gives the
# parameter that holds the term's error to its budget, and bound the
# error at the schedule's parameters.  The sweep contraction, first,
# errs per slab; the other terms per application of the one-step map,
# and grow by e^(1/2) within the slab.  A slab's error grows by
# e^(|I| L) <= e^(1/2) at each later junction, so errors e on K slabs
# end within e e^(K/2) / (e^(1/2) - 1).  The sweeps and the one-step
# terms have half of eps each, eta per slab and tau = eta / e^(1/2) per
# step, and a term of share s gets 2 s of its half's budget.
#
# An affine slab quadratures the slab-averaged components and
# interpolates them to delta, which the weights y_j omega_j carry into
# |omega|_1 |I| delta.  A general slab quadratures the field itself, at
# twice the cost, and implants a representation that itself errs by
# |I| a_norm / gamma(N), with the implant's budget split between them.
# Every net kind's shares sum to 1.


def _sweeps(eta, conv, sl):
    """mu with 2^-mu / 2 <= eta: a seed errs by A |I| <= 1/2, and each
    sweep contracts the error by |I| L <= 1/2."""
    return max(1, int(math.ceil(abs(math.log2(1.0 / (2.0 * eta))))))


SWEEP_CONTRACTION = ("sweep contraction", 0.5, "mu", _sweeps, lambda s, conv: 0.5 * 2.0**-s.mu)

AFFINE_TERMS = (
    SWEEP_CONTRACTION,
    (
        "quadrature", 0.25, "q",
        lambda b, conv, sl: max(1, int(math.ceil(conv.A * sl / b))),
        lambda s, conv: conv.A * s.slab_length / s.q,
    ),
    (
        "implant", 0.25, "delta",
        lambda b, conv, sl: b / (sl * conv.omega1) if conv.omega1 > 0 else math.inf,
        lambda s, conv: conv.omega1 * s.slab_length * s.delta if conv.omega1 > 0 else 0.0,
    ),
)

GENERAL_TERMS = (
    SWEEP_CONTRACTION,
    (
        "quadrature", 0.25, "q",
        lambda b, conv, sl: max(1, int(math.ceil(2.0 * conv.A * sl / b))),
        lambda s, conv: 2.0 * conv.A * s.slab_length / s.q,
    ),
    (
        "implant", 0.125, "delta",
        lambda b, conv, sl: b / conv.a_norm,
        lambda s, conv: conv.a_norm * s.delta,
    ),
    (
        "representation", 0.125, "N",
        lambda b, conv, sl: int(math.ceil(gamma_inverse(conv.gf, sl * conv.a_norm / b))),
        lambda s, conv: s.slab_length * conv.a_norm / float(conv.gf(s.N)),
    ),
)


def _slab_budget(eps, K):
    """Error per slab that the junction telescoping over K slabs keeps
    within eps."""
    return (E_HALF - 1.0) * eps * math.exp(-K / 2.0)


def char_ledger(terms, sched, conv):
    """Each term's error at the schedule's parameters, carried to the
    net's output: name -> float."""
    carry = math.exp(sched.K / 2.0) / (E_HALF - 1.0)
    (name, _, _, _, bound), *steps = terms
    ledger = {name: bound(sched, conv) * carry}
    for name, _, _, _, bound in steps:
        ledger[name] = bound(sched, conv) * E_HALF * carry
    return ledger


def certify(ledger, eps, what):
    """The ledger's sum; :class:`ResourceCeiling` if it exceeds eps."""
    total = sum(ledger.values())
    if total > eps:
        raise ResourceCeiling(f"{what} bound {total:.3g} exceeds target {eps}", total)
    return total


def _affine_thresholds(p, sched, c3):
    """(x, y) below e^(L_hat T), L_hat = A + 1/T + c3 (1 + A_circ) Lam
    |omega|_1, and t below A + |omega|_1 delta; not pessimistic."""
    conv, T = p.convection, p.T_hat
    delta = sched.delta if math.isfinite(sched.delta) else 0.0
    l_hat = conv.A + 1.0 / T + c3 * (1.0 + conv.A_circ) * conv.Lam * conv.omega1
    return math.exp(l_hat * T), conv.A + conv.omega1 * delta, False


def _general_thresholds(p, sched, c3):
    """(x, y) below e^(L_hat T), L_hat = (c3 (1 + A) a_norm)^N short of
    overflow, and t below a_norm (1 + delta); pessimistic."""
    conv, T = p.convection, p.T_hat
    l_hat = (c3 * (1.0 + conv.A) * conv.a_norm) ** (sched.N or 1)
    xy_threshold = math.exp(min(l_hat, 700.0 / max(T, 1e-9)) * T)
    return xy_threshold, conv.a_norm * (1.0 + sched.delta), True


def _affine_complexity(p, eps):
    """d_y m^2 A T (e^(LT)/eps)^(m+1) log2(e^(LT)/eps)^2, linear in d_y."""
    ratio = math.exp(p.convection.norm * p.T_hat) / eps
    return p.d_y * p.m**2 * p.convection.A * p.T_hat * ratio ** (p.m + 1) * math.log2(ratio) ** 2


def _general_complexity(p, eps):
    """The growth-law branches, algebraic and exponential."""
    conv, T, gf = p.convection, p.T_hat, p.convection.gf
    ratio = math.exp(conv.norm * T) / eps
    s = p.m  # dimension-sparsity of the builder reps
    base = conv.A * T * 2**s * conv.a_norm ** (2 * s)
    if gf.kind == "alg":
        law = (1 + s) * (1 + gf.alpha) / gf.alpha
        return base * gf.C ** (-1.0 / gf.alpha) * ratio**law * math.log2(ratio) ** 2
    return base * gf.alpha ** (-(1 + s)) * ratio ** (1 + s) * math.log2(ratio) ** (3 + s)


# A characteristic net kind's terms, the Lipschitz constant that sizes its
# grids (conv -> float), its certificate's thresholds ((problem, sched, c3)
# -> (xy, t, pessimistic)) and its complexity law ((problem, eps) -> float).
CharBudget = namedtuple("CharBudget", "terms grid_lip thresholds complexity")

AFFINE = CharBudget(AFFINE_TERMS, lambda conv: conv.Lam, _affine_thresholds, _affine_complexity)
GENERAL = CharBudget(GENERAL_TERMS, lambda conv: conv.L, _general_thresholds, _general_complexity)


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


def schedule(eps, grid, problem, kind):
    """Solve the net kind's error terms for a public accuracy target.

    ``kind`` is the net kind's :class:`CharBudget`.  The sweeps get eps/2
    (``eps_internal``), eta per slab, and the one-step map the other
    half, tau per step.  Refuses with the predicted cost when the
    quadrature count or the interpolation grids exceed the ceilings.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    (_, share, _, sweeps, _), *_ = kind.terms
    eps_int = eps / 2.0
    eta = _slab_budget(eps_int, grid.K)
    sl = grid.slab_length
    mu = sweeps(eta * (2.0 * share), problem.convection, sl)
    tau = eta / E_HALF
    step = _solve_step(problem, sl, tau, mu * grid.K, f"schedule for eps={eps}", kind)
    return Schedule(eps, eps_int, grid.K, sl, eta, mu, tau, **step)


def _solve_step(problem, sl, tau, sweeps, label, kind):
    """The one-step terms' parameters for slabs of length ``sl`` whose
    one-step map errs by at most ``tau``: {"q": q, "delta": delta[, "N": N]}.

    Refuses with :class:`ResourceCeiling` when the interpolation grid
    exceeds its node ceiling (:meth:`lip_interp.GridSpec.for_tolerance`)
    or the quadrature count exceeds ``Q_CEILING``; the latter's predicted
    cost counts ``sweeps`` slab sweeps.
    """
    conv = problem.convection
    _, *steps = kind.terms
    step = {param: solve(tau * (2.0 * share), conv, sl) for _, share, param, solve, _ in steps}
    q = step["q"]
    grid = GridSpec.for_tolerance(problem.eval_box, kind.grid_lip(conv), step["delta"])
    if q > Q_CEILING:
        raise ResourceCeiling(
            f"{label} needs q={q}, grid knots={grid.q}",
            q * problem.d_y * grid.q * sweeps,
        )
    return step


# The solution's terms at the flow and data accuracy e = eps_tilde and q
# source nodes: (name, solve(e, problem), bound(e, q, problem)).  A
# backward foot off by e moves a datum by its Lipschitz constant times
# e, and a data net errs by e; the source adds both over [0, T].
# eps_tilde = eps / (7 T M) gives foot and net a seventh of eps each, and
# the source quadrature, solved for q from eps_tilde, the other three.


def _source_quadrature_error(e, q, p):
    """Midpoint rule on q nodes for the source along the backward flow,
    whose integrand is l_g-Lipschitz in time, plus the feet's drift."""
    if p.f is None:
        return 0.0
    T, A = p.T_hat, p.convection.A
    l_g = p.f.lip_t + p.f.lip_x * (A + 1.0)
    return T**2 * l_g / (2.0 * q) + p.f.lip_x * A * (T / q) ** 2 / 2.0


SOLUTION_TERMS = (
    ("u0 foot + net", None, lambda e, q, p: p.u0.lip_x * e + e if p.u0 is not None else 0.0),
    (
        "source net + foot", None,
        lambda e, q, p: p.T_hat * (e + p.f.lip_x * e) if p.f is not None else 0.0,
    ),
    (
        "source quadrature",
        lambda e, p: int(math.ceil(p.T_hat / (2.0 * e))) if p.f is not None else 0,
        _source_quadrature_error,
    ),
)


def solution_schedule(eps, problem):
    """``SOLUTION_TERMS`` solved for eps: (eps_tilde, q_src, ledger, its
    sum); q_src above ``Q_CEILING`` or a sum above eps is refused."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    eps_t = eps / (7.0 * problem.T_hat * problem.M)  # the accuracy's solve
    # the source quadrature is the one term with a parameter of its own
    (q_src,) = (solve(eps_t, problem) for _, solve, _ in SOLUTION_TERMS if solve)
    if q_src > Q_CEILING:
        raise ResourceCeiling("source quadrature too fine", q_src)
    ledger = {name: bound(eps_t, q_src, problem) for name, _, bound in SOLUTION_TERMS}
    return eps_t, q_src, ledger, certify(ledger, eps, "solution")


def solution_beta(m, alpha):
    return max(1.0, (m + 1) / alpha)


def solution_complexity(p, eps):
    """The m+1+beta power, beta = max(1, (m+1)/alpha) at alpha = m+1."""
    ratio = math.exp(p.convection.norm * p.T_hat) / eps
    return p.d_y * ratio ** (p.m + 1 + solution_beta(p.m, float(p.m + 1))) * math.log2(ratio) ** 2
