"""Structural analysis: series, center, gradings and the critical-point
structure checks for symmetric Leibniz products.

At a critical point with certificate M = c I + D, the eigenspaces of D
grade the algebra.  For a symmetric Leibniz product with nonnegative type
the checks below verify numerically that the zero eigenspace l_0 is a
reductive Lie subalgebra acting by normal operators through its center,
and that the positive eigenspace l_+ is the nilpotent radical, itself a
critical point of the type with the zero entry removed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bracket import Bracket, _base_change, _inf_act, _max_defect_norm, check_identities
from .linalg import RANK_RTOL, _nullspace, _subspace_product, _unit_coeffs
from .moment import CriticalType, MomentReport, criticality_decompose

__all__ = [
    "StructureProfile",
    "StructureVerdict",
    "structure_profile",
    "verify_structure_theorem",
]

KILLING_MIN_SV = 1e-6


@dataclass(frozen=True)
class StructureProfile:
    """Series and center dimensions; each flag holds when its series ends at 0."""

    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int

    @property
    def is_solvable(self) -> bool:
        return self.derived_dims[-1] == 0

    @property
    def is_nilpotent(self) -> bool:
        return self.lower_central_dims[-1] == 0


@dataclass(frozen=True)
class StructureVerdict:
    """Outcome of the four structural checks at a symmetric critical point.

    Residuals are normalized to the unit-norm bracket.  When the positive
    part restricts to the zero product, ``degenerate_abelian_nilradical``
    is set and no restricted type is reported (the zero product has no
    projective class).  ``lminus_min_nonnormality`` reports, when the
    negative part is nonzero, the smallest observed non-normality of right
    multiplications by sampled unit vectors in it; None when vacuous.
    """

    adjoint_closed: bool
    adjoint_residual: float
    l0_reductive: bool
    l0_residual: float
    killing_min_sv: float | None
    center_normal: bool
    center_residual: float
    nilradical_ok: bool
    nilradical_residual: float
    is_nilpotent_radical: bool
    degenerate_abelian_nilradical: bool
    restricted_type: CriticalType | None
    type_matches: bool
    lminus_min_nonnormality: float | None

    @property
    def all_passed(self) -> bool:
        return (
            self.adjoint_closed
            and self.l0_reductive
            and self.center_normal
            and self.nilradical_ok
        )


def _series_dims(first: np.ndarray, step) -> tuple[int, ...]:
    """Ranks of the descending series C^n, first, step(first), ... of basis
    arrays until it hits zero or stabilizes."""
    dims, current = list(first.shape), first
    while 0 < dims[-1] < dims[-2]:
        current = step(current)
        dims.append(current.shape[1])
    return tuple(dims)


def _center_subspace(c: np.ndarray) -> np.ndarray:
    """Basis of the center {x : c(x, .) = c(., x) = 0} of the coefficients c
    (a block of a unit product): the joint nullspace of both actions, with
    singular values up to ``RANK_RTOL``."""
    n = c.shape[0]
    # rows (j, k): coefficients of mu(x, e_j) and mu(e_j, x) in e_k
    left_rows = c.transpose(1, 2, 0).reshape(n * n, n)
    right_rows = c.transpose(0, 2, 1).reshape(n * n, n)
    return _nullspace(np.vstack([left_rows, right_rows]), abs_tol=RANK_RTOL)


def structure_profile(mu: Bracket) -> StructureProfile:
    """Derived/lower-central series dimensions, center and the two flags of
    mu.  Every rank is cut at ``RANK_RTOL`` on mu/|mu|, so none depends on
    the scale.  Both series start from the one [mu, mu]."""
    c, full = _unit_coeffs(mu), np.eye(mu.dim)
    derived_algebra = _subspace_product(c, full, full)
    return StructureProfile(
        derived_dims=_series_dims(derived_algebra, lambda s: _subspace_product(c, s, s)),
        lower_central_dims=_series_dims(derived_algebra, lambda s: _subspace_product(c, full, s)),
        center_dim=_center_subspace(c).shape[1],
    )


def _killing_min_sv(c: np.ndarray) -> float:
    """Smallest singular value of the Killing form of the coefficients c,
    relative to the largest."""
    r = c.shape[0]
    # tr(ad_a ad_b) = sum_jk c[a, j, k] c[b, k, j]
    k = c.reshape(r, r * r) @ c.transpose(0, 2, 1).reshape(r, r * r).T
    s = np.linalg.svd(k, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def _strip_zero(t: CriticalType) -> CriticalType | None:
    """The type with the zero eigenvalue removed; None when nothing remains."""
    pairs = [(k, d) for k, d in zip(t.ks, t.ds) if k != 0]
    if not pairs:
        return None
    ks, ds = zip(*pairs)
    return CriticalType(ks, ds, t.scale)


def _outside(c: np.ndarray, xs: slice, ys: slice, part: slice) -> float:
    """Largest norm off the coordinates ``part`` of c(e_a, e_b), a in ``xs``, b in ``ys``."""
    return _max_defect_norm(np.delete(c[xs, ys], part, axis=-1))


def _mult_ops(c: np.ndarray, part: slice, x: np.ndarray) -> np.ndarray:
    """Transposed left and right multiplications by the columns of x, coordinates on ``part``."""
    n, r = c.shape[0], x.shape[0]
    blocks = (c[part], c[:, part].swapaxes(0, 1))  # c[p, j, k] and c[i, p, k] as [p, i, k]
    return np.concatenate([(x.T @ b.reshape(r, n * n)).reshape(-1, n, n) for b in blocks])


def _nonnormality(ops: np.ndarray) -> np.ndarray:
    """|[X, X*]| of each X in a stack, zero exactly when X is normal."""
    adj = ops.conj().swapaxes(-1, -2)
    return np.linalg.norm(ops @ adj - adj @ ops, axis=(-2, -1))


# Each clause reads the unit product c in an orthonormal eigenbasis of D, where
# l_-, l_0 and l_+ are the index blocks neg, zero and pos, and returns (passed,
# residual, ...) in the order of its StructureVerdict fields; (ii) appends the
# center of l_0, in l_0's basis, for (iii).  Ranks of blocks are cut on the unit
# product, never on the norm of a block alone, which may be round-off.


def _adjoint_closure(c: np.ndarray, zero: slice, tol: float) -> tuple[bool, float]:
    """(i) Adjoints of the multiplications by l_0 are again derivations."""
    defects = (_inf_act(op.conj(), c) for op in _mult_ops(c, zero, np.eye(zero.stop - zero.start)))
    res = max((math.sqrt(float(np.vdot(d, d).real)) for d in defects), default=0.0)
    return res < tol, res


def _l0_reductive(c: np.ndarray, zero: slice, tol: float) -> tuple:
    """(ii) l_0 is a Lie subalgebra, the sum of its center and its derived
    algebra h, with a nondegenerate Killing form on h.  Returns (passed,
    residual, Killing singular-value ratio, center of l_0)."""
    r0 = zero.stop - zero.start
    if r0 == 0:
        return True, 0.0, None, np.zeros((0, 0))
    closure = _outside(c, zero, zero, zero)
    restr0 = Bracket(r0, c[zero, zero, zero])
    idr0 = check_identities(restr0)
    # identity residuals are unit-normalized; undo for comparison
    lie_res = max(idr0.anticommutativity_residual, idr0.jacobi_residual) * restr0.norm
    c0 = restr0.coeffs
    z = _center_subspace(c0)
    h = _subspace_product(c0, np.eye(r0), np.eye(r0))
    decomp_res = 1.0
    if z.shape[1] + h.shape[1] == r0:
        decomp_res = float(np.linalg.norm(z @ z.conj().T + h @ h.conj().T - np.eye(r0)))
    killing_sv = _killing_min_sv(_base_change(h.conj().T, h, c0)) if h.shape[1] > 0 else None
    killing_ok = killing_sv is None or killing_sv > KILLING_MIN_SV
    res = max(closure, lie_res, decomp_res)
    return res < tol and killing_ok, res, killing_sv, z


def _center_normal(c: np.ndarray, zero: slice, center: np.ndarray, tol: float) -> tuple[bool, float]:
    """(iii) Multiplications by the center of l_0 are normal operators."""
    res = float(_nonnormality(_mult_ops(c, zero, center)).max(initial=0.0))
    return res < tol, res


def _nilradical(c: np.ndarray, pos: slice, parent_type: CriticalType, tol: float) -> tuple:
    """(iv) l_+ is a nilpotent two-sided ideal realizing the stripped type.

    Returns (passed, ideal residual, nilpotent, degenerate, restricted type,
    type matches).  A positive part restricting to the zero product is
    degenerate: reported, not compared, as it has no projective class.  An
    l_+ that is all of c reads parent_type, c's certified type; a proper one
    is re-certified.
    """
    rp = pos.stop - pos.start
    if rp == 0:
        return True, 0.0, True, False, None, _strip_zero(parent_type) is None
    ideal_res = max(_outside(c, pos, slice(None), pos), _outside(c, slice(None), pos, pos))
    restrp = Bracket(rp, c[pos, pos, pos])
    if restrp.norm <= tol:
        return ideal_res < tol, ideal_res, True, True, None, True
    cp, full = restrp.coeffs, np.eye(rp)
    derived_algebra = _subspace_product(cp, full, full)
    is_nilp = _series_dims(derived_algebra, lambda s: _subspace_product(cp, full, s))[-1] == 0
    restr_type = parent_type if rp == c.shape[0] else criticality_decompose(restrp, tol).type
    matches = restr_type == (_strip_zero(parent_type) or parent_type)
    return ideal_res < tol and is_nilp and matches, ideal_res, is_nilp, False, restr_type, matches


def _lminus_nonnormality(c: np.ndarray, neg: slice) -> float | None:
    """Smallest non-normality of the right multiplications by the basis
    vectors of l_- and their normalized pairwise sums, which should fail to
    be normal; None when l_- = 0."""
    rm = neg.stop - neg.start
    if rm == 0:
        return None
    e, (a, b) = np.eye(rm), np.triu_indices(rm, 1)
    x = np.hstack([e, (e[:, a] + e[:, b]) / np.sqrt(2)])
    return float(_nonnormality(np.tensordot(x, c[:, neg], (0, 1))).min())


def verify_structure_theorem(mu: Bracket, report: MomentReport) -> StructureVerdict:
    """Check the four structural properties of a symmetric critical point.

    Requires ``report.is_critical``, a rational ``report.type``, a
    symmetric Leibniz input (by :func:`check_identities`, which reads the
    residuals mu keeps once checked) and ``report.certifies(mu)``.  Every
    property is checked at ``report.tol`` on the unit product mu/|mu| written once
    in the eigenbasis ``report.eigen`` of D/|mu|^2, which the type was read from:
    its ascending eigenvalues follow the ascending entries of the type, so l_-,
    l_0 and l_+ are its first rm, next r0 and last columns, rm and r0 the
    multiplicities of the negative and zero entries.  The type of mu on l_+,
    unless that product is degenerate abelian (only reported), is compared
    against the parent type with the zero entry removed: ``report.type`` when
    rm = r0 = 0, as l_+ is then mu/|mu| in a unitary basis, else re-certified.
    """
    if not report.is_critical:
        raise ValueError("report does not certify a critical point")
    t = report.type
    if t is None:
        raise ValueError("report has no rational critical type")
    if not check_identities(mu).is_symmetric_leibniz:
        raise ValueError("bracket is not symmetric Leibniz")
    if not report.certifies(mu):
        raise ValueError("report does not certify this bracket")
    u = report.eigen[1]
    return _graded_verdict(_base_change(u.conj().T, u, mu.coeffs / mu.norm), t, report.tol)


def _graded_verdict(c: np.ndarray, t: CriticalType, tol: float) -> StructureVerdict:
    """The clauses on a unit product c graded by its certified type t."""
    rm = sum(d for k, d in zip(t.ks, t.ds) if k < 0)
    r0 = sum(d for k, d in zip(t.ks, t.ds) if k == 0)
    neg, zero, pos = slice(0, rm), slice(rm, rm + r0), slice(rm + r0, c.shape[0])
    *reductive, center = _l0_reductive(c, zero, tol)
    return StructureVerdict(
        *_adjoint_closure(c, zero, tol),
        *reductive,
        *_center_normal(c, zero, center, tol),
        *_nilradical(c, pos, t, tol),
        _lminus_nonnormality(c, neg),
    )
