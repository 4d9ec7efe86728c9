"""Operator-level utilities: derivation spaces, Hermitian eigendecomposition
and the orthonormal spans of products behind the structure checks.

Linear maps are plain ndarrays of shape (n, n), real or complex; the
pairing used throughout is the trace form ``(A, B) = tr(A B*)``.  Each
function computes in the dtype of its inputs, so a real product (see
:class:`~leibcrit.bracket.Bracket`) gets real derivations, eigenvectors and
subspace bases.  A subspace is an array of orthonormal basis columns; the
private kernels take and return such arrays and coefficient tensors.
"""

from __future__ import annotations

import numpy as np

from .bracket import Bracket, _inf_act

__all__ = [
    "is_hermitian",
    "hermitian_eigen",
    "derivation_space",
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

    A tall m = QR gives way to its square factor R, with the same singular
    values and right singular vectors.  A wide m needs the full vh: the thin
    one lacks the trailing null directions beyond its rank.
    """
    rows, cols = m.shape
    if m.size == 0:
        return np.eye(cols, dtype=m.dtype)
    if rows > cols:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    small = np.ones(cols, dtype=bool)
    small[: s.size] = s <= abs_tol
    return vh.conj().T[:, small]


def _one_index_rows(c: np.ndarray, i: int) -> np.ndarray:
    """(n^2, n^2) rows of the matrix of a -> a.mu of :func:`~leibcrit.bracket.inf_act`
    for the first index i: row ``j * n + k`` is the equation (a.mu)[i, j, k] = 0,
    and column ``p * n + q`` the elementary map with a[p, q] = 1."""
    n = c.shape[0]
    r = np.arange(n)
    rows = np.zeros((n,) * 4, dtype=c.dtype)  # [j, k, p, q]
    rows[:, r, r, :] = c[i][:, None, :]  # k = p: c[i, j, q]
    rows[:, :, :, i] -= c.transpose(1, 2, 0)  # q = i: c[p, j, k]
    rows[r, :, :, r] -= c[i].T  # q = j: c[i, p, k]
    return rows.reshape(n * n, n * n)


def derivation_space(mu: Bracket) -> list[np.ndarray]:
    """Orthonormal basis of the derivations of mu, as arrays in mu's dtype:
    real for a real product, whose real derivations span the complex ones.

    Two exact solves at the cut ``RANK_RTOL * |mu|``, neither of which builds
    the (n^3, n^2) matrix of a -> a.mu.  The n^2 equations (a.mu)[i, j, k] = 0
    of the first index i with the heaviest multiplications,
    ``|c[i]|^2 + |c[:, i]|^2``, give orthonormal candidate maps V, among them
    every exact derivation; the maps of V's span whose n^3 equations, the
    (n^3, dim V) matrix of a.mu over V, are within the cut are returned.  So
    every returned map a satisfies ``|a.mu| <= RANK_RTOL * |mu|``.  The span
    differs from that of the full matrix's right singular vectors at the cut
    only where a near-derivation's one-index equations split across it.  For
    the zero bracket all n^2 elementary maps are derivations.
    """
    n = mu.dim
    if n == 0:
        return []
    c, tol = mu.coeffs, RANK_RTOL * mu.norm
    sq = np.abs(c) ** 2
    weight = sq.sum(axis=(1, 2)) + sq.sum(axis=(0, 2))
    cands = _nullspace(_one_index_rows(c, int(np.argmax(weight))), tol)
    images = _inf_act(cands.T.reshape(-1, n, n), c).reshape(-1, n**3).T
    null = cands @ _nullspace(images, tol)
    return [null[:, j].reshape(n, n) for j in range(null.shape[1])]


def _span(m: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the columns of m, keeping the singular
    values above ``RANK_RTOL``: m holds products on a unit product, so the cut
    is absolute, never relative to the largest, which may be round-off.  An m
    with no columns gives no columns."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > RANK_RTOL]


def _unit_coeffs(mu: Bracket) -> np.ndarray:
    """Coefficients of mu/|mu|, or of mu itself when it is zero."""
    return (mu if mu.is_zero else mu.normalized()).coeffs


def _products(c: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(n, ru * rw) matrix whose column a * rw + b is the product with
    coefficients c of u[:, a] and w[:, b]."""
    n, ru, rw = c.shape[0], u.shape[1], w.shape[1]
    left = (u.T @ c.reshape(n, n * n)).reshape(ru, n, n)
    return (w.T @ left).reshape(ru * rw, n).T


def _subspace_product(c: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal span of all products with coefficients c (a block of a
    unit product) of x in the span of u and y in the span of w."""
    return _span(_products(c, u, w))

