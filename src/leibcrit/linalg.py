"""Operator-level utilities: derivation spaces, Hermitian eigendecomposition
and orthonormal subspaces.

Linear maps are plain ndarrays of shape (n, n), real or complex; the
pairing used throughout is the trace form ``(A, B) = tr(A B*)``.  Each
function computes in the dtype of its inputs, so a real product (see
:class:`~leibcrit.bracket.Bracket`) gets real derivations, eigenvectors and
subspace bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bracket import Bracket, _base_change, _check_tol, _real_if_real

__all__ = [
    "Subspace",
    "is_hermitian",
    "hermitian_eigen",
    "derivation_space",
    "subspace_product",
    "restrict",
    "cluster_values",
    "RANK_RTOL",
]

#: Relative singular-value threshold for numerical rank decisions.
RANK_RTOL = 1e-9

#: Relative defect |a - a*| / |a| up to which a map counts as Hermitian.
HERMITIAN_CERT_TOL = 1e-12


def is_hermitian(a: np.ndarray) -> bool:
    return float(np.linalg.norm(a - a.conj().T)) <= HERMITIAN_CERT_TOL * float(np.linalg.norm(a))


def hermitian_eigen(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = U diag(w) U* with w ascending.

    Raises ValueError when h is not (certifiably) Hermitian.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix")
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian")
    w, u = np.linalg.eigh(h)
    return w, u


def _nullspace(m: np.ndarray, abs_tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of {v : m v = 0} with |m v| <= abs_tol.

    Tall and square inputs take a thin SVD, whose vh already has one row per
    column of m.  A wide input needs the full vh: the thin one lacks the
    trailing null directions beyond its rank.
    """
    rows, cols = m.shape
    if m.size == 0:
        return np.eye(cols, dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    small = np.ones(cols, dtype=bool)
    small[: s.size] = s <= abs_tol
    return vh.conj().T[:, small]


def _action_matrix(mu: Bracket) -> np.ndarray:
    """(n^3, n^2) matrix of the linear map a -> a.mu of :func:`~leibcrit.bracket.inf_act`.

    Column ``p * n + q`` is the image of the elementary map with a[p, q] = 1,
    so ``op @ a.ravel() == inf_act(a, mu).coeffs.ravel()``.
    """
    n = mu.dim
    c = mu.coeffs
    r = np.arange(n)
    op = np.zeros((n,) * 5, dtype=c.dtype)  # [i, j, k, p, q]
    op[:, :, r, r, :] = c[:, :, None, :]  # k = p: c[i, j, q]
    op[r, :, :, :, r] -= c.transpose(1, 2, 0)  # q = i: c[p, j, k]
    op[:, r, :, :, r] -= c.transpose(0, 2, 1)  # q = j: c[i, p, k]
    return op.reshape(n**3, n * n)


def derivation_space(mu: Bracket, tol: float = RANK_RTOL) -> list[np.ndarray]:
    """Orthonormal basis of the complex space of derivations of mu.

    The right singular vectors of the (n^3, n^2) matrix A of a -> a.mu whose
    singular values are at most ``tol * |mu|``; every returned map a thus
    satisfies ``|a.mu| <= tol * |mu|``.  They are taken from the SVD of the
    (n^2, n^2) factor R of A = QR, which has the same singular values and
    right singular vectors as A.  For the zero bracket all n^2 elementary
    maps are derivations.
    """
    _check_tol(tol)
    n = mu.dim
    if n == 0:
        return []
    r = np.linalg.qr(_action_matrix(mu), mode="r")
    null = _nullspace(r, abs_tol=tol * mu.norm)
    return [null[:, j].reshape(n, n) for j in range(null.shape[1])]


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of C^n stored as orthonormal columns, real when
    every imaginary part is 0."""

    basis: np.ndarray

    def __post_init__(self) -> None:
        b = _real_if_real(self.basis)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        gram = b.conj().T @ b
        if gram.size and np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-12 * max(1, b.shape[1]):
            raise ValueError("basis columns are not orthonormal")
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def dim_ambient(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    @classmethod
    def from_span(cls, n: int, vectors: np.ndarray) -> "Subspace":
        """Orthonormal span of the given column vectors.

        Rank is the number of singular values above ``RANK_RTOL`` times the
        largest one, so it does not depend on the scale of the vectors; an
        all-zero input spans the zero subspace.
        """
        return _span(np.asarray(vectors).reshape(n, -1), floor=0.0)

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def _span(m: np.ndarray, floor: float) -> Subspace:
    """:meth:`Subspace.from_span` of the columns of m, and the zero subspace
    also when no singular value exceeds ``floor``."""
    n = m.shape[0]
    if m.shape[1] == 0:
        return Subspace.zero(n)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] <= floor:
        return Subspace.zero(n)
    return Subspace(u[:, s > RANK_RTOL * s[0]])


def _products(mu: Bracket, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, ru * rw) matrix whose column a * rw + b is mu(u[:, a], w[:, b])."""
    n, ru, rw = mu.dim, u.shape[1], w.shape[1]
    left = (u.T @ mu.coeffs.reshape(n, n * n)).reshape(ru, n, n)
    return (w.T @ left).reshape(ru * rw, n).T


def subspace_product(mu: Bracket, u: Subspace, w: Subspace) -> Subspace:
    """Orthonormal span of all products mu(x, y) with x in u, y in w, with
    rank cut at ``RANK_RTOL`` (see :meth:`Subspace.from_span`) on mu/|mu|."""
    n = mu.dim
    if u.dim_ambient != n or w.dim_ambient != n:
        raise ValueError("ambient dimensions must match the bracket")
    return _subspace_product(mu if mu.is_zero else mu.normalized(), u, w)


def _subspace_product(mu: Bracket, u: Subspace, w: Subspace) -> Subspace:
    """:func:`subspace_product` on mu as given: a block of a unit product,
    whose products count as zero when none exceeds ``RANK_RTOL``."""
    if u.rank == 0 or w.rank == 0:
        return Subspace.zero(mu.dim)
    return _span(_products(mu, u.basis, w.basis), floor=RANK_RTOL)


def restrict(mu: Bracket, sub: Subspace) -> Bracket:
    """Compression of mu to a subspace, in its orthonormal basis.

    This is the honest restriction when the subspace is closed under mu;
    in general it is the orthogonal projection of the products.
    """
    b = sub.basis
    return Bracket(sub.rank, _base_change(b.conj().T, b, mu.coeffs))


def cluster_values(values: np.ndarray, gap: float) -> list[tuple[float, int, int]]:
    """Group ascending real values into clusters separated by more than gap.

    Returns (mean, start, stop) per cluster with stop exclusive.
    """
    out: list[tuple[float, int, int]] = []
    k = len(values)
    start = 0
    for i in range(1, k + 1):
        if i == k or values[i] - values[i - 1] > gap:
            out.append((float(np.mean(values[start:i])), start, i))
            start = i
    return out
