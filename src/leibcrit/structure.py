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

from dataclasses import dataclass

import numpy as np

from .bracket import (Bracket, _base_change, _is_symmetric_leibniz, _max_defect_norm, check_identities,
                      inf_act)
from .linalg import (RANK_RTOL, Subspace, _nullspace, _subspace_product, hermitian_eigen, restrict,
                     subspace_product)
from .moment import CriticalType, MomentReport, criticality_decompose

__all__ = [
    "StructureProfile",
    "GradingDecomposition",
    "StructureVerdict",
    "structure_profile",
    "center_subspace",
    "grading_decomposition",
    "verify_structure_theorem",
]

KILLING_MIN_SV = 1e-6


@dataclass(frozen=True)
class StructureProfile:
    """Dimensions of the derived and lower central series plus flags."""

    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    is_solvable: bool
    is_nilpotent: bool


@dataclass(frozen=True)
class GradingDecomposition:
    """Eigenspaces of a certified derivation D, one per entry of its critical
    type, with their mean eigenvalues and their sums by sign of the type."""

    negative_part: Subspace
    zero_part: Subspace
    positive_part: Subspace
    eigenvalues: tuple[float, ...]
    eigenspaces: tuple[Subspace, ...]
    type: CriticalType


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


def _series_dims(first: Subspace, step) -> tuple[tuple[int, ...], bool]:
    """Ranks of the descending series C^n, first, step(first), ... until it
    hits zero or stabilizes, and whether it hit zero."""
    dims, current = [first.dim_ambient, first.rank], first
    while 0 < dims[-1] < dims[-2]:
        current = step(current)
        dims.append(current.rank)
    return tuple(dims), dims[-1] == 0


def center_subspace(mu: Bracket) -> Subspace:
    """{x : mu(x, .) = mu(., x) = 0} via the joint nullspace of both actions
    of mu/|mu|, with singular values up to ``RANK_RTOL``."""
    return _center_subspace(mu if mu.is_zero else mu.normalized())


def _center_subspace(mu: Bracket) -> Subspace:
    """:func:`center_subspace` on mu as given: a block of a unit product."""
    n = mu.dim
    c = mu.coeffs
    # rows (j, k): coefficients of mu(x, e_j) and mu(e_j, x) in e_k
    left_rows = c.transpose(1, 2, 0).reshape(n * n, n)
    right_rows = c.transpose(0, 2, 1).reshape(n * n, n)
    return Subspace(_nullspace(np.vstack([left_rows, right_rows]), abs_tol=RANK_RTOL))


def structure_profile(mu: Bracket) -> StructureProfile:
    """Derived/lower-central series dimensions, center and the two flags of
    mu.  Every rank is cut at ``RANK_RTOL`` on mu/|mu| (see
    :func:`~leibcrit.linalg.subspace_product` and :func:`center_subspace`),
    so none depends on the scale.  Both series start from the one [mu, mu]."""
    full = Subspace.full(mu.dim)
    derived_algebra = subspace_product(mu, full, full)
    derived, solvable = _series_dims(derived_algebra, lambda s: subspace_product(mu, s, s))
    lower, nilpotent = _series_dims(derived_algebra, lambda s: subspace_product(mu, full, s))
    center = center_subspace(mu)
    return StructureProfile(
        derived_dims=derived,
        lower_central_dims=lower,
        center_dim=center.rank,
        is_solvable=solvable,
        is_nilpotent=nilpotent,
    )


def grading_decomposition(report: MomentReport) -> GradingDecomposition:
    """Eigenspaces of the certified derivation ``report.D``, graded by its
    critical type.

    The ascending eigenvalues of D are split in order by the multiplicities
    of ``report.type`` (ascending, since its scale is positive); the sign of
    each integer puts its block in l_-, l_0 or l_+.  Raises ValueError when
    the report does not certify a critical point or has no rational type.
    """
    if not report.is_critical:
        raise ValueError("report does not certify a critical point")
    t = report.type
    if t is None:
        raise ValueError("report has no rational critical type")
    w, u = hermitian_eigen(report.D)
    bounds = np.cumsum((0,) + t.ds)
    blocks = list(zip(t.ks, bounds, bounds[1:]))

    def _part(sign: int) -> Subspace:
        cols = [u[:, a:b] for k, a, b in blocks if np.sign(k) == sign]
        return Subspace(np.hstack(cols)) if cols else Subspace.zero(len(w))

    return GradingDecomposition(
        negative_part=_part(-1),
        zero_part=_part(0),
        positive_part=_part(1),
        eigenvalues=tuple(float(np.mean(w[a:b])) for _, a, b in blocks),
        eigenspaces=tuple(Subspace(u[:, a:b]) for _, a, b in blocks),
        type=t,
    )


def _killing_min_sv(h_bracket: Bracket) -> float:
    """Smallest singular value of the Killing form, relative to the largest."""
    r, c = h_bracket.dim, h_bracket.coeffs
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
    return np.concatenate([np.tensordot(x, c[part], (0, 0)), np.tensordot(x, c[:, part], (0, 1))])


def _nonnormality(ops: np.ndarray) -> np.ndarray:
    """|[X, X*]| of each X in a stack, zero exactly when X is normal."""
    adj = ops.conj().swapaxes(-1, -2)
    return np.linalg.norm(ops @ adj - adj @ ops, axis=(-2, -1))


# Each clause reads the unit product c in an orthonormal eigenbasis of D, where
# l_-, l_0 and l_+ are the index blocks neg, zero and pos, and returns (passed,
# residual, ...) in the order of its StructureVerdict fields; (ii) appends the
# center of l_0, in l_0's basis, for (iii).  Ranks of blocks are cut on the unit
# product, never on a block's own norm, which may be round-off.


def _adjoint_closure(unit: Bracket, zero: slice, tol: float) -> tuple[bool, float]:
    """(i) Adjoints of the multiplications by l_0 are again derivations."""
    ops = _mult_ops(unit.coeffs, zero, np.eye(zero.stop - zero.start))
    res = max((inf_act(op.conj(), unit).norm for op in ops), default=0.0)
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
    lie_res = 0.0 if restr0.is_zero else max(
        idr0.anticommutativity_residual, idr0.jacobi_residual
    ) * restr0.norm  # identity residuals are unit-normalized; undo for comparison
    z = _center_subspace(restr0)
    full = Subspace.full(r0)
    h = _subspace_product(restr0, full, full)
    decomp_res = 1.0
    if z.rank + h.rank == r0:
        decomp_res = float(np.linalg.norm(z.projector() + h.projector() - np.eye(r0)))
    killing_sv = _killing_min_sv(restrict(restr0, h)) if h.rank > 0 else None
    killing_ok = killing_sv is None or killing_sv > KILLING_MIN_SV
    res = max(closure, lie_res, decomp_res)
    return res < tol and killing_ok, res, killing_sv, z.basis


def _center_normal(c: np.ndarray, zero: slice, center: np.ndarray, tol: float) -> tuple[bool, float]:
    """(iii) Multiplications by the center of l_0 are normal operators."""
    res = float(_nonnormality(_mult_ops(c, zero, center)).max(initial=0.0))
    return res < tol, res


def _nilradical(c: np.ndarray, pos: slice, parent_type: CriticalType, tol: float) -> tuple:
    """(iv) l_+ is a nilpotent two-sided ideal realizing the stripped type.

    Returns (passed, ideal residual, nilpotent, degenerate, restricted type,
    type matches).  A positive part restricting to the zero product is
    degenerate: reported, not compared, as it has no projective class.
    """
    rp = pos.stop - pos.start
    if rp == 0:
        return True, 0.0, True, False, None, _strip_zero(parent_type) is None
    ideal_res = max(_outside(c, pos, slice(None), pos), _outside(c, slice(None), pos, pos))
    restrp = Bracket(rp, c[pos, pos, pos])
    if restrp.norm <= tol:
        return ideal_res < tol, ideal_res, True, True, None, True
    full = Subspace.full(rp)
    derived_algebra = _subspace_product(restrp, full, full)
    is_nilp = _series_dims(derived_algebra, lambda s: _subspace_product(restrp, full, s))[1]
    restr_type = criticality_decompose(restrp, tol).type
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
    symmetric Leibniz input and a report of this product: |D.mu| at most
    ``report.tol * |M| * |mu|``, which for mu's own report is its tangent
    residual.  Every property is checked at ``report.tol`` on the unit
    product mu/|mu| written once in the eigenbasis of D that
    :func:`grading_decomposition` gives.  The restriction of mu to the
    positive eigenspace of D is re-certified and its type compared against
    the parent type with the zero entry removed, except in the degenerate
    abelian case which is only reported.
    """
    grading = grading_decomposition(report)
    if not _is_symmetric_leibniz(mu):
        raise ValueError("bracket is not symmetric Leibniz")
    defect = inf_act(report.D, mu).norm
    bound = report.tol * float(np.linalg.norm(report.M)) * mu.norm
    if not defect <= bound:
        raise ValueError(
            f"report does not certify this bracket (|D.mu| {defect:.3g} vs {bound:.3g})"
        )
    u = np.hstack([s.basis for s in grading.eigenspaces])
    c, tol = _base_change(u.conj().T, u, mu.coeffs / mu.norm), report.tol
    rm, r0 = grading.negative_part.rank, grading.zero_part.rank
    neg, zero, pos = slice(0, rm), slice(rm, rm + r0), slice(rm + r0, mu.dim)
    *reductive, center = _l0_reductive(c, zero, tol)
    return StructureVerdict(
        *_adjoint_closure(Bracket(mu.dim, c), zero, tol),
        *reductive,
        *_center_normal(c, zero, center, tol),
        *_nilradical(c, pos, grading.type, tol),
        _lminus_nonnormality(c, neg),
    )
