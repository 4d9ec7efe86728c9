"""Gradient descent of F inside a single GL(n)-orbit.

Within a distinguished orbit F attains its minimum exactly at the critical
set, which is a single unitary orbit; descending F from any starting
product therefore converges to the critical point of the isomorphism
class when one exists.  The descent moves a group element G, not the
coefficients: every iterate is mu = G.mu0 / |G.mu0|, recomputed from the
fixed unit start mu0, so round-off cannot carry it out of the orbit.

Each step moves G along M less a part in V_G = span{I, G X G^-1 : X a
derivation of mu0}, which moves mu only by scaling or not at all, so the
slope and mu's first-order move do not depend on that part.  It is taken
in the frame of an anchor A, with R = G A^-1: b is Z = R^-1 M R minus its
Frobenius projection onto V_A, and the step is the Cayley transform
R <- R (I + h b/2)^-1 (I - h b/2), G = R A.  V_A's orthonormal basis is
factored at A = I, and again at A = G once |Z| > 2 |M| (closure descents).
Its length h is the Barzilai-Borwein step |s|^2 / Re<s, y> from the last
move s of mu and the change y of the tangential gradient, clamped to
[0.01, 10] / |M|; it is accepted only if it decreases F (backtracking
line search).  When the orbit has no critical point, F tends to its
infimum only as G leaves every compact set; the condition number of the
final G tells the two cases apart.  A real start has real derivations and
a real moment matrix, so it descends in GL(n, R), in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bracket import Bracket, _base_change, _check_tol, gl_act
from .linalg import derivation_space
from .moment import (
    DEFAULT_CRITICAL_TOL,
    MomentReport,
    _moment_matrix,
    _moment_tangent,
    criticality_decompose,
    moment_matrix,
)

__all__ = ["FlowStep", "FlowTrace", "descend", "perturb_in_orbit"]

_STEP0 = 0.1  # first and fallback step, _STEP0 / |M|, a dimensionless step scale
_STEP_MIN, _STEP_MAX = 0.01, 10.0  # clamp of the Barzilai-Borwein step, times 1 / |M|
_MAX_ITER = 50_000
_MAX_BACKTRACKS = 60
_ARMIJO_C = 1e-4  # sufficient-decrease fraction of the slope
_SHRINK = 0.5  # step factor per backtrack
#: A group element with a larger condition number is taken to leave the
#: orbit: gl_act's round-off left it from cond 8.6e4 on, descents whose
#: limit lies in the orbit end below cond 2, and closure limits above 1e7.
_ORBIT_COND = 1e4
_REFRESH = 2.0  # refactor the projection basis at G once |R^-1 M R| > _REFRESH |M|


class FlowStep(NamedTuple):
    """An iterate's F and tangential residual, and the line-search trials and basis
    refactoring of the step that reached it (0 and False at the start)."""

    F: float
    residual: float
    trials: int
    refactored: bool


@dataclass(frozen=True)
class FlowTrace:
    """A descent's records, one per iterate from the start on, and its limit.  ``cond_g``
    is the condition number of the group element G that carries the unit start to the
    limit; the step count and verdict are read from the records and the limit's certificate."""

    steps: tuple[FlowStep, ...]
    final_report: MomentReport
    cond_g: float
    message: str = field(default="", compare=False)

    @property
    def F_history(self) -> np.ndarray:
        return np.array([s.F for s in self.steps])

    @property
    def residual_history(self) -> np.ndarray:
        return np.array([s.residual for s in self.steps])

    @property
    def final_bracket(self) -> Bracket:
        return self.final_report.mu

    @property
    def iterations(self) -> int:
        return len(self.steps) - 1

    @property
    def converged(self) -> bool:
        return self.final_report.is_critical


def descend(mu0: Bracket, tol: float = DEFAULT_CRITICAL_TOL) -> FlowTrace:
    """Minimize F over the orbit of mu0, stopping at a certified critical point.

    Iterates are kept at unit norm; convergence means the tangential
    residual of M.mu dropped below ``tol``.  A converged limit reached by
    a group element with condition number above 1e4 is flagged as a
    closure limit.  A line-search underflow is reported as
    non-convergence with a diagnostic message.
    """
    _check_tol(tol)
    if mu0.is_zero:
        raise ValueError("cannot flow from the zero bracket")
    mu = mu0.normalized()
    n, c0 = mu.dim, mu.coeffs
    ders = np.array(derivation_space(mu)).reshape(-1, n, n)
    eye = np.eye(n)
    g = ginv = eye
    anchor = r = eye  # A, G at the last refactoring, and R = G A^-1
    q = _vertical_basis(ders, eye, eye)
    # the iterate G.mu0 / |G.mu0| as a bare coefficient tensor, and its moment matrix
    c, m = c0, moment_matrix(mu)
    steps: list[FlowStep] = []
    trials, refactored = 0, False  # of the step that reached the iterate
    message = ""
    prev = None  # (coefficients, tangential gradient) of the last iterate
    for it in range(_MAX_ITER + 1):
        norm_m = float(np.linalg.norm(m))
        f = float(np.vdot(m, m).real)  # |mu| = 1
        v_perp, _, res = _moment_tangent(m, c)  # the final report's residual, on its mu
        steps.append(FlowStep(f, res, trials, refactored))
        if res < tol:
            break
        if it == _MAX_ITER:
            message = "iteration limit reached"
            break

        h = _STEP0 / norm_m
        if prev is not None:
            s, y = c - prev[0], v_perp - prev[1]
            sy = float(np.vdot(s, y).real)
            if sy > 0:
                h = min(max(float(np.vdot(s, s).real) / sy, _STEP_MIN / norm_m), _STEP_MAX / norm_m)
        z = anchor @ ginv @ m @ r  # R^-1 M R, M in the anchor frame
        refactored = bool(np.linalg.norm(z) > _REFRESH * norm_m)
        if refactored:
            anchor, r, z = g, eye, m
            q = _vertical_basis(ders, g, ginv)
        b = z - (q @ (q.conj().T @ z.ravel())).reshape(n, n)
        slope = float(np.vdot(v_perp, v_perp).real)
        # the slack keeps progress possible once per-step decreases of F
        # fall below its floating-point resolution near the minimum
        slack = 1e-14 * max(1.0, f)
        for trials in range(1, _MAX_BACKTRACKS + 1):
            half = 0.5 * h * b
            r_cand = r @ np.linalg.solve(eye + half, eye - half)
            g_cand = r_cand @ anchor
            ginv_cand = np.linalg.inv(g_cand)
            cand = _base_change(g_cand, ginv_cand, c0)
            cand /= np.linalg.norm(cand)
            mc = _moment_matrix(cand)
            f_cand = float(np.vdot(mc, mc).real)
            if f_cand <= f - _ARMIJO_C * h * slope + slack:
                break
            h *= _SHRINK
        else:
            message = "line search underflow"
            break
        prev = (c, v_perp)
        c, m, g, ginv, r = cand, mc, g_cand, ginv_cand, r_cand

    final_report = criticality_decompose(Bracket(n, c), tol)
    cond_g = float(np.linalg.cond(g))
    if final_report.is_critical and cond_g > _ORBIT_COND:
        message = (f"limit may lie outside the starting orbit (closure limit):"
                   f" cond(G) = {cond_g:.3g} > {_ORBIT_COND:.0e}")
    return FlowTrace(steps=tuple(steps), final_report=final_report, cond_g=cond_g, message=message)


def _vertical_basis(ders: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """An orthonormal basis of span{I, G X G^-1 : X in ders}, as columns of length n^2."""
    span = np.column_stack([np.eye(len(g)).ravel(), (g @ ders @ ginv).reshape(-1, g.size).T])
    return np.linalg.qr(span)[0]


def perturb_in_orbit(mu: Bracket, magnitude: float, seed: int) -> Bracket:
    """Move mu inside its orbit by exp(a) for a seeded random a of given norm;
    an exp(a) that is not finite or has condition number above 1e4 is rejected."""
    if not (math.isfinite(magnitude) and magnitude >= 0):
        raise ValueError(
            f"perturbation magnitude must be a finite nonnegative number, got {magnitude!r}"
        )
    if magnitude == 0.0:
        return mu
    rng = np.random.default_rng(seed)
    n = mu.dim
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= magnitude / np.linalg.norm(a)
    with np.errstate(over="ignore", invalid="ignore"):
        g = _expm(a)
    cond = float(np.linalg.cond(g)) if np.isfinite(g).all() else math.inf
    if cond > _ORBIT_COND:
        raise ValueError(f"perturbation magnitude {magnitude!r} is too large: the move has"
                         f" condition number {cond:.3g} (at most {_ORBIT_COND:.0e})")
    return gl_act(g, mu)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (Higham 2005): the degree-18 Taylor sum
    of a / 2^s, whose 1-norm is at most 1/2, truncates at about
    0.5^19 / 19! ~ 1.6e-23, then s squarings.  An a whose 1-norm overflows
    gives a non-finite result."""
    s = max(0, math.frexp(float(np.linalg.norm(a, 1)))[1] + 1)  # |a|_1 < 2^(s - 1)
    x = a * math.ldexp(1.0, -s)
    e = term = np.eye(a.shape[0], dtype=a.dtype)
    for k in range(1, 19):
        term = term @ x / k
        e = e + term
    for _ in range(s):
        e = e @ e
    return e
