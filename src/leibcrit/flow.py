"""Gradient descent of F inside a single GL(n)-orbit.

Within a distinguished orbit F attains its minimum exactly at the critical
set, which is a single unitary orbit; descending F from any starting
product therefore converges to the critical point of the isomorphism
class when one exists.  The descent direction at mu is the orbit tangent
generated by the moment matrix, projected off the radial direction; each
step is followed by renormalization to the unit sphere and accepted only
if it decreases F (backtracking line search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bracket import Bracket, _check_tol, gl_act, inf_act, inner_product
from .moment import DEFAULT_CRITICAL_TOL, MomentReport, criticality_decompose, moment_matrix

__all__ = ["FlowTrace", "descend", "perturb_in_orbit"]

_STEP0 = 0.1  # the trial step is _STEP0 / |M|, a dimensionless step scale
_MAX_ITER = 50_000
_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4  # sufficient-decrease fraction of the slope
_SHRINK = 0.5  # step factor per backtrack
_MAX_PERTURB_COND = 1e4  # gl_act's round-off left the orbit from cond 8.6e4 on


@dataclass(frozen=True)
class FlowTrace:
    final_bracket: Bracket
    F_history: np.ndarray
    residual_history: np.ndarray
    iterations: int
    converged: bool
    final_report: MomentReport
    message: str = field(default="", compare=False)


def descend(mu0: Bracket, tol: float = DEFAULT_CRITICAL_TOL) -> FlowTrace:
    """Minimize F over the orbit of mu0, stopping at a certified critical point.

    Iterates are kept at unit norm; convergence means the tangential
    residual of M.mu dropped below ``tol``.  A line-search underflow
    is reported as non-convergence with a diagnostic message.
    """
    _check_tol(tol)
    if mu0.is_zero:
        raise ValueError("cannot flow from the zero bracket")
    mu = mu0.normalized()
    f_hist: list[float] = []
    r_hist: list[float] = []
    message = ""
    converged = False
    it = 0
    while it <= _MAX_ITER:
        m = moment_matrix(mu)
        norm_m = float(np.linalg.norm(m))
        f = float(np.vdot(m, m).real)  # |mu| = 1
        v = inf_act(m, mu).coeffs
        v_perp = v - inner_product(Bracket(mu.dim, v), mu) * mu.coeffs
        res = float(np.linalg.norm(v_perp)) / norm_m
        f_hist.append(f)
        r_hist.append(res)
        if res < tol:
            converged = True
            if it > 0:
                # a gradient limit is only guaranteed to sit in the closure
                # of the starting orbit; isomorphism to the start is not
                # certified (and genuinely fails for some inputs)
                message = "limit may lie outside the starting orbit (closure limit)"
            break
        if it == _MAX_ITER:
            message = "iteration limit reached"
            break

        h = _STEP0 / norm_m
        slope = float(np.vdot(v_perp, v_perp).real)
        # the slack keeps progress possible once per-step decreases of F
        # fall below its floating-point resolution near the minimum
        slack = 1e-14 * max(1.0, f)
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            cand = mu.coeffs - h * v_perp
            cand_b = Bracket(mu.dim, cand / np.linalg.norm(cand))
            mc = moment_matrix(cand_b)
            f_cand = float(np.vdot(mc, mc).real)
            if f_cand <= f - _ARMIJO_C * h * slope + slack:
                accepted = cand_b
                break
            h *= _SHRINK
        if accepted is None:
            message = "line search underflow"
            break
        mu = accepted
        it += 1

    final_report = criticality_decompose(mu, tol)
    return FlowTrace(
        final_bracket=mu,
        F_history=np.array(f_hist),
        residual_history=np.array(r_hist),
        iterations=it,
        converged=converged,
        final_report=final_report,
        message=message,
    )


def perturb_in_orbit(mu: Bracket, magnitude: float, seed: int) -> Bracket:
    """Move mu inside its orbit by exp(a) for a seeded random a of given norm;
    an exp(a) that is not finite or has condition number above 1e4 is rejected."""
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(
            f"perturbation magnitude must be a finite nonnegative number, got {magnitude!r}"
        )
    if magnitude == 0.0:
        return mu
    import scipy.linalg  # here, so that importing the package does not load scipy

    rng = np.random.default_rng(seed)
    n = mu.dim
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= magnitude / np.linalg.norm(a)
    with np.errstate(over="ignore", invalid="ignore"):
        g = scipy.linalg.expm(a)
    cond = float(np.linalg.cond(g)) if np.isfinite(g).all() else math.inf
    if cond > _MAX_PERTURB_COND:
        raise ValueError(f"perturbation magnitude {magnitude!r} is too large: the move has"
                         f" condition number {cond:.3g} (at most {_MAX_PERTURB_COND:.0e})")
    return gl_act(g, mu)
