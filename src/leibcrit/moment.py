"""Moment matrix, the functional F, criticality certificates and types.

For a nonzero product mu on C^n the Hermitian moment matrix is

    M = 2 sum_i L_i L_i* - 2 sum_i L_i* L_i - 2 sum_i R_i* R_i,

where L_i, R_i are left/right multiplication by the i-th basis vector.
Its trace is always -2 |mu|^2, and the scale- and unitary-invariant
functional studied here is F = tr(M^2) / |mu|^4.

The projective class of mu is a critical point of F exactly when
M = c I + D for a real constant c and a derivation D of mu, in which
case c = tr(M^2)/tr(M) < 0 and there is a constant s > 0 making the
eigenvalues of s D coprime integers; those integers with their
multiplicities form the critical type, and they determine F through
:func:`critical_value_formula`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bracket import Bracket, _check_tol, _inf_act, inf_act
from .linalg import hermitian_eigen

__all__ = [
    "MomentReport",
    "CriticalType",
    "IrrationalTypeError",
    "moment_matrix",
    "functional_value",
    "criticality_decompose",
    "critical_type",
    "critical_value_formula",
    "DEFAULT_CRITICAL_TOL",
    "DEFAULT_TYPE_TOL",
    "DEFAULT_MAX_DENOMINATOR",
]

DEFAULT_CRITICAL_TOL = 1e-8
DEFAULT_TYPE_TOL = 1e-6
DEFAULT_MAX_DENOMINATOR = 100

#: |mu|^2 is accepted when its cube, the scale of |M.mu|^2, is a normal float.
_NORM_SQ_RANGE = (sys.float_info.min ** (1 / 3), sys.float_info.max ** (1 / 3))


class IrrationalTypeError(ArithmeticError):
    """No positive constant makes the spectrum integral within tolerance."""


@dataclass(frozen=True)
class CriticalType:
    """Coprime integer spectrum with multiplicities.

    ``ks`` and ``ds`` are stored as tuples.  ``scale`` is the positive constant
    relating the certified derivation part D to the integers, ``scale * eig(D) ~ ks``;
    it is excluded from equality so types compare by their integer data alone.
    """

    ks: tuple[int, ...]
    ds: tuple[int, ...]
    scale: float = field(compare=False, default=1.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ks", tuple(self.ks))
        object.__setattr__(self, "ds", tuple(self.ds))
        if len(self.ks) != len(self.ds) or not self.ks:
            raise ValueError("ks and ds must be nonempty and of equal length")
        if any(d <= 0 for d in self.ds):
            raise ValueError("multiplicities must be positive")
        if any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError("ks must be strictly increasing")
        nonzero = [abs(k) for k in self.ks if k != 0]
        if nonzero and math.gcd(*nonzero) != 1:
            raise ValueError("nonzero entries must be coprime")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    @property
    def n(self) -> int:
        return sum(self.ds)

    @classmethod
    def zero(cls, n: int) -> "CriticalType":
        return cls((0,), (n,), 1.0)

    def __str__(self) -> str:
        ks = "<".join(str(k) for k in self.ks)
        ds = ",".join(str(d) for d in self.ds)
        return f"({ks};{ds})"


@dataclass(frozen=True)
class MomentReport:
    """Moment matrix of a product with its criticality certificate.

    Stored, and checked on construction: a nonzero product ``mu`` with |mu|^2 in
    range, as it was passed, and a finite positive ``tol``.  Derived from ``mu``,
    so that a report cannot certify another product, on the first read: ``M``;
    M = c I + D with c = tr(M^2)/tr(M); ``residual_tangent``, the certifying
    |T(M)| / (|M| |mu|), T(M) the part of M.mu orthogonal to mu; the cross-check
    ``residual_decomp``, the distance |P(M)| / |M| from M to ker T = span_R{I} +
    Hermitian derivations, P the projection onto the row space of T, by one CGLS
    solve from T(M); ``eigen``; ``type``.  On each read: ``norm_sq = |mu|^2``,
    ``F = tr(M^2) / norm_sq^2``, ``is_critical = residual_tangent < tol``,
    ``derivation_defect = |D.mu| / |mu|``.
    """

    mu: Bracket
    tol: float

    def __post_init__(self) -> None:
        _check_tol(self.tol)
        if self.mu.is_zero:
            raise ValueError("the zero bracket has no projective class")
        if not _NORM_SQ_RANGE[0] <= self.mu.norm_sq <= _NORM_SQ_RANGE[1]:
            raise ValueError("|mu|^2 is outside the float range; rescale")

    def certifies(self, mu: Bracket) -> bool:
        """Whether this is a report of mu: ``self.mu`` is mu or has its coefficients."""
        return self.mu is mu or np.array_equal(self.mu.coeffs, mu.coeffs)

    @cached_property
    def M(self) -> np.ndarray:
        return moment_matrix(self.mu)

    @cached_property
    def c(self) -> float:
        return float(np.vdot(self.M, self.M).real) / float(np.trace(self.M).real)

    @cached_property
    def D(self) -> np.ndarray:
        return self.M - self.c * np.eye(self.mu.dim)

    @cached_property
    def _tangent_M(self) -> tuple[np.ndarray, float, float]:
        return _moment_tangent(self.M, self.mu.coeffs)

    @cached_property
    def residual_tangent(self) -> float:
        return self._tangent_M[2]

    @cached_property
    def residual_decomp(self) -> float:
        t, scale, _ = self._tangent_M  # on mu/|mu| and M/|M|, whose tangent is T(M)/(|M||mu|)
        u, _ = _row_space_projection(t / scale, self.mu.coeffs / self.mu.norm)
        return float(np.linalg.norm(u))

    @property
    def norm_sq(self) -> float:
        return self.mu.norm_sq

    @property
    def F(self) -> float:
        return float(np.vdot(self.M, self.M).real) / self.norm_sq**2

    @property
    def is_critical(self) -> bool:
        return self.residual_tangent < self.tol

    @property
    def derivation_defect(self) -> float:
        return inf_act(self.D, self.mu).norm / self.mu.norm

    @cached_property
    def eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """``hermitian_eigen(D / norm_sq)``, ascending eigenvalues and orthonormal eigenvectors:
        the one decomposition that the type (its values) and the structure grading read."""
        return hermitian_eigen(self.D / self.norm_sq)

    @cached_property
    def type(self) -> CriticalType | None:
        """Critical type of ``D / norm_sq`` from the eigenvalues of ``eigen``, so that no cut
        depends on the scale of mu, with its scale divided back by ``norm_sq`` (the
        zero type keeps scale 1); None when not critical or the spectrum is not rational."""
        if not self.is_critical:
            return None
        try:
            t = _spectrum_type(self.eigen[0])
        except IrrationalTypeError:
            return None
        return t if t.ks == (0,) else replace(t, scale=t.scale / self.norm_sq)


def moment_matrix(mu: Bracket) -> np.ndarray:
    """Hermitian moment matrix of mu (zero bracket gives the zero matrix)."""
    return _moment_matrix(mu.coeffs)


def _moment_matrix(c: np.ndarray) -> np.ndarray:
    """:func:`moment_matrix` of the coefficient tensor c."""
    n = c.shape[0]
    # Gram matrices of the slices c[:, :, u], c[:, u, :] and c[u, :, :] as rows
    s1, s2 = c.reshape(n * n, n).T, c.transpose(1, 0, 2).reshape(n, n * n)
    s3 = c.reshape(n, n * n)
    m = 2.0 * (s1 @ s1.conj().T - s2.conj() @ s2.T - s3.conj() @ s3.T)
    return 0.5 * (m + m.conj().T)


def functional_value(mu: Bracket) -> float:
    """F = tr(M^2) / |mu|^4; invariant under scaling and unitary base change."""
    return MomentReport(mu, DEFAULT_CRITICAL_TOL).F


#: CGLS stops once |T* r| <= _CGLS_RTOL, the scale of T*T x for unit mu and x.
_CGLS_RTOL = 1e-13


def _tangent(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T(a): the part of a.mu orthogonal to mu, for mu with the nonzero
    coefficient tensor c, as a coefficient tensor.

    For Hermitian a, <a.mu, mu> = tr(a M) / 2 is real and I.mu = -mu, so
    T(a) = 0 exactly when a lies in span_R{I} + Hermitian derivations.
    """
    v = _inf_act(a, c)
    # .item() is a Python float or complex, as c is real or complex
    return v - np.vdot(c, v).item() / float(np.vdot(c, c).real) * c


def _moment_tangent(m: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, float, float]:
    """T(M), |M| |mu| and the certifying residual |T(M)| / (|M| |mu|), for the moment
    matrix m of the product with the nonzero coefficient tensor c."""
    t = _tangent(m, c)
    scale = float(np.linalg.norm(m)) * math.sqrt(float(np.vdot(c, c).real))
    return t, scale, float(np.linalg.norm(t)) / scale


def _inf_act_adjoint(r: np.ndarray, c_conj: np.ndarray) -> np.ndarray:
    """Adjoint of a -> a.mu on Hermitian maps (Re tr(a b*) pairing) at the
    coefficient tensor r, given the conjugated coefficients of mu; on r
    orthogonal to mu it is also the adjoint of :func:`_tangent`."""
    n = r.shape[0]
    x = r.reshape(n * n, n).T @ c_conj.reshape(n * n, n)
    x -= c_conj.reshape(n, n * n) @ r.reshape(n, n * n).T
    x -= c_conj.transpose(1, 0, 2).reshape(n, n * n) @ r.transpose(1, 0, 2).reshape(n, n * n).T
    return 0.5 * (x + x.conj().T)


def _row_space_projection(r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Projection of a unit Hermitian map x onto the row space of T =
    :func:`_tangent` at the unit coefficient tensor c, given r = T x, with
    the number of CGLS iterations it took.

    CGLS on ``T y = r`` started at 0 stays in the row space of T and
    converges to its min-norm solution, which is that projection; x minus
    it is the nearest point of span_R{I} + Hermitian derivations.  It stops
    once |T* r| <= ``_CGLS_RTOL``, not relative to its value at the start,
    which is round-off at a critical point.  Raises ``numpy.linalg.LinAlgError``
    after 2 n^2 + 10 iterations: twice the n^2 steps it takes in exact
    arithmetic, plus a margin.
    """
    cap = 2 * c.shape[0]**2 + 10
    c_conj = c.conj()
    s = _inf_act_adjoint(r, c_conj)
    y = np.zeros_like(s)
    gamma = float(np.vdot(s, s).real)
    p = s
    it = 0
    while gamma > _CGLS_RTOL**2:
        if it == cap:
            raise np.linalg.LinAlgError(
                f"CGLS did not converge in {cap} iterations"
                f" (|T* r| = {math.sqrt(gamma):.3g})"
            )
        it += 1
        q = _tangent(p, c)
        alpha = gamma / float(np.vdot(q, q).real)
        y = y + alpha * p
        r = r - alpha * q
        s = _inf_act_adjoint(r, c_conj)
        gamma, gamma_old = float(np.vdot(s, s).real), gamma
        p = s + (gamma / gamma_old) * p
    return y, it


def criticality_decompose(mu: Bracket, tol: float = DEFAULT_CRITICAL_TOL) -> MomentReport:
    """The report of a nonzero product; its CGLS cross-check runs, and can raise, here."""
    rep = MomentReport(mu, tol)
    rep.residual_decomp  # computed and kept by the report
    return rep


def critical_type(d: np.ndarray) -> CriticalType:
    """Integer type of a Hermitian map with (projectively) rational spectrum.

    Ascending eigenvalues w are clustered in runs with no step above
    ``DEFAULT_TYPE_TOL * max(1, max |w|)``, the largest |eigenvalue|; the
    cluster representatives are scaled by the positive constant reconstructed
    from their ratios by continued fractions (denominators bounded by
    ``DEFAULT_MAX_DENOMINATOR``) so that they become coprime integers, to a
    rounding error below ``DEFAULT_TYPE_TOL``.  Raises
    :class:`IrrationalTypeError` when no admissible constant exists.
    """
    return _spectrum_type(hermitian_eigen(d)[0])


def _spectrum_type(w: np.ndarray) -> CriticalType:
    """:func:`critical_type` of a Hermitian map with the ascending eigenvalues w."""
    n = len(w)
    if n == 0:
        raise ValueError("empty matrix has no type")
    ws = w.tolist()
    gap = DEFAULT_TYPE_TOL * max(1.0, abs(ws[0]), abs(ws[-1]))  # w ascends
    # clusters are the runs of ascending eigenvalues with no step above gap
    cuts = [0, *(i for i in range(1, n) if ws[i] - ws[i - 1] > gap), n]
    mults = [b - a for a, b in zip(cuts, cuts[1:])]
    # each mean sums its run as np.mean does (pairwise), so it is that mean bit for bit
    reps = [float(w[a:a + m].sum()) / m for a, m in zip(cuts, mults)]
    ref = max(reps, key=abs)
    if abs(ref) <= gap:
        return CriticalType.zero(n)

    fracs = [Fraction(r / ref).limit_denominator(DEFAULT_MAX_DENOMINATOR) for r in reps]
    common = math.lcm(*(fr.denominator for fr in fracs))
    ints = [fr.numerator * (common // fr.denominator) for fr in fracs]
    sign = 1 if ref > 0 else -1
    ints = [sign * m for m in ints]
    g = math.gcd(*(abs(m) for m in ints if m != 0))
    ks = [m // g for m in ints]
    scale = common / (g * abs(ref))
    err = max(abs(scale * r - k) for r, k in zip(reps, ks))
    if err >= DEFAULT_TYPE_TOL:
        raise IrrationalTypeError(
            f"no admissible scaling found (best rounding error {err:.3g})"
        )
    return CriticalType(ks, mults, scale)


def critical_value_formula(t: CriticalType, n: int) -> float:
    """Value of F forced by a critical type in dimension n: the exact rational, rounded once."""
    if t.n != n:
        raise ValueError(f"type has total multiplicity {t.n}, expected {n}")
    if t.ks == (0,):
        return 4.0 / n
    s1 = sum(k * d for k, d in zip(t.ks, t.ds))
    s2 = sum(k * k * d for k, d in zip(t.ks, t.ds))
    denom = n - Fraction(s1 * s1, s2)
    if denom == 0:  # only the types (1; n) and (-1; n)
        raise ValueError(f"inadmissible type {t}: degenerate denominator")
    return float(4 / denom)
