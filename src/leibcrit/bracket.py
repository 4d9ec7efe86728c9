"""Structure-constant tensors on C^n and the natural group actions.

A bilinear product mu on C^n is stored through its structure constants
``c[i, j, k]`` with respect to the standard orthonormal basis: the product
of ``e_i`` and ``e_j`` is ``sum_k c[i, j, k] e_k``.  The standard Hermitian
inner product on C^n induces the inner product on the space of products

    <mu, lam> = sum_{i,j,k} c_mu[i,j,k] * conj(c_lam[i,j,k]),

which is invariant under the unitary subgroup of the GL(n) action
implemented by :func:`gl_act`.

A product whose coefficients are all real is stored as a float64 tensor,
any other as complex128, and every kernel computes in the dtype of its
inputs: real products take numpy's real BLAS and LAPACK routines.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

__all__ = [
    "Bracket",
    "IdentityReport",
    "gl_act",
    "inf_act",
    "check_identities",
    "DEFAULT_IDENTITY_TOL",
]

DEFAULT_IDENTITY_TOL = 1e-9

#: Acting matrices with a larger condition number are rejected.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class Bracket:
    """Immutable bilinear product on C^n given by its coefficient tensor.

    ``coeffs`` is a read-only copy of the given tensor: float64 when every
    imaginary part is 0, complex128 otherwise.  Its identity residuals (see
    :func:`check_identities`) are computed on the first read and kept.
    """

    dim: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        arr = _real_if_real(self.coeffs)
        if arr.shape != (self.dim,) * 3:
            raise ValueError(
                f"coefficient tensor must have shape {(self.dim,) * 3}, got {arr.shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls, dim: int) -> "Bracket":
        return cls.from_entries(dim, {})

    @classmethod
    def from_entries(
        cls,
        dim: int,
        entries: Mapping[tuple[int, int, int], complex],
        *,
        antisymmetrize: bool = False,
    ) -> "Bracket":
        """Build a bracket from a sparse table of coefficients indexed from 1.

        With ``antisymmetrize=True`` every entry ``(i, j, k) -> v`` also
        contributes ``(j, i, k) -> -v``, which turns a Lie multiplication
        table (one product per unordered pair) into the full tensor.  The
        tensor is allocated in the table's dtype: float64 when every value
        is real, complex128 otherwise.  Raises ValueError when it does not
        fit in memory.
        """
        values = _real_if_real(list(entries.values()))
        try:
            c = np.zeros((dim, dim, dim), dtype=values.dtype)
        except MemoryError:
            size = dim**3 * values.itemsize / 2**30
            raise ValueError(f"a product of dimension {dim} needs {size:.3g} GiB"
                             " of coefficients, which does not fit in memory") from None
        for (i, j, k), v in zip(entries, values):
            ii, jj, kk = i - 1, j - 1, k - 1
            for idx in (ii, jj, kk):
                if not 0 <= idx < dim:
                    raise ValueError(f"index {(i, j, k)} out of range for dim {dim}")
            c[ii, jj, kk] += v
            if antisymmetrize:
                if ii == jj:
                    raise ValueError("antisymmetric table cannot have equal first indices")
                c[jj, ii, kk] -= v
        return cls(dim, c)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.coeffs, self.coeffs).real)

    @property
    def norm(self) -> float:
        nsq = self.norm_sq
        if sys.float_info.min <= nsq < math.inf:
            return math.sqrt(nsq)
        # |mu|^2 overflowed or lost precision to underflow: scale by max |c| first
        big = float(np.abs(self.coeffs).max(initial=0.0))
        if big == 0.0:
            return 0.0
        x = self.coeffs / big
        return big * math.sqrt(float(np.vdot(x, x).real))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs.any()

    @cached_property
    def _identity_residuals(self) -> tuple[float, float, float, float]:
        """Left Leibniz, right Leibniz, anticommutativity and Jacobi residuals
        of the unit product, in the field order of :class:`IdentityReport`."""
        if self.is_zero:
            return 0.0, 0.0, 0.0, 0.0
        c = self.coeffs / self.norm
        t, xy_z, d = _identity_terms(c)
        # x(yz) is t read as [b, c, a, k], y(xz) is x(yz) with a <-> b and
        # (xz)y is (xy)z with b <-> c; each defect is written into d
        x_yz = t.transpose(2, 0, 1, 3)
        np.subtract(x_yz, xy_z, out=d)
        d -= x_yz.transpose(1, 0, 2, 3)
        left = _max_defect_norm(d)
        np.subtract(xy_z, xy_z.transpose(0, 2, 1, 3), out=d)
        d -= x_yz
        right = _max_defect_norm(d)
        # Jacobi: x(yz) + y(zx) + z(xy), the first two t read as [b, c, a, k] and [c, a, b, k]
        np.add(x_yz, t.transpose(1, 2, 0, 3), out=d)
        d += t
        jac = _max_defect_norm(d)
        return left, right, _max_defect_norm(c + c.transpose(1, 0, 2)), jac

    def normalized(self) -> "Bracket":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero bracket")
        return Bracket(self.dim, self.coeffs / n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nnz = int(np.count_nonzero(self.coeffs))
        return f"Bracket(dim={self.dim}, nonzero={nnz}, norm_sq={self.norm_sq:.6g})"


def _real_if_real(x) -> np.ndarray:
    """A copy of x as float64 when every imaginary part is 0, else as complex128."""
    x = np.asarray(x)
    if np.iscomplexobj(x) and x.imag.any():
        return np.array(x, dtype=complex)
    return np.array(x.real, dtype=float)


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the defining identities, measured on the unit-norm bracket.

    Each residual is the maximum over basis triples (pairs for
    anticommutativity) of the norm of the corresponding defect vector.
    """

    left_residual: float
    right_residual: float
    anticommutativity_residual: float
    jacobi_residual: float
    tol: float

    @property
    def is_left_leibniz(self) -> bool:
        return self.left_residual <= self.tol

    @property
    def is_right_leibniz(self) -> bool:
        return self.right_residual <= self.tol

    @property
    def is_symmetric_leibniz(self) -> bool:
        return self.is_left_leibniz and self.is_right_leibniz

    @property
    def is_lie(self) -> bool:
        return (
            self.anticommutativity_residual <= self.tol
            and self.jacobi_residual <= self.tol
        )


def gl_act(g: np.ndarray, mu: Bracket) -> Bracket:
    """Base change of mu by an invertible matrix g.

    The new product sends (x, y) to ``g mu(g^-1 x, g^-1 y)``, so the orbit
    of mu under all invertible g is its isomorphism class.
    """
    g = np.asarray(g)
    n = mu.dim
    if g.shape != (n, n):
        raise ValueError(f"g must be {n}x{n}, got shape {g.shape}")
    if n == 0:
        return mu
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise ValueError(f"matrix is singular or ill-conditioned (cond={cond:.3g})")
    return Bracket(n, _base_change(g, np.linalg.inv(g), mu.coeffs))


def _base_change(g: np.ndarray, ginv: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of :func:`gl_act` by g, given its inverse ginv and the
    coefficient tensor c: three (n^2, n) or (n, n^2) matrix products,
    ``out[i, j, k] = sum ginv[a, i] ginv[b, j] g[k, m] c[a, b, m]``.  An (r, n)
    g and (n, r) ginv give the (r, r, r) compression to ginv's columns."""
    n, r = c.shape[0], g.shape[0]
    t = (c.reshape(n * n, n) @ g.T).reshape(n, n * r)  # [a, b, k]
    t = (ginv.T @ t).reshape(r, n, r)  # [i, b, k]
    return ginv.T @ t  # [i, j, k]


def inf_act(a: np.ndarray, mu: Bracket) -> Bracket:
    """Infinitesimal version of :func:`gl_act` for a matrix a.

    Sends (x, y) to ``a mu(x, y) - mu(a x, y) - mu(x, a y)``; the result is
    zero exactly when a is a derivation of mu.
    """
    a = np.asarray(a)
    n = mu.dim
    if a.shape != (n, n):
        raise ValueError(f"matrix must be {n}x{n}, got shape {a.shape}")
    return Bracket(n, _inf_act(a, mu.coeffs))


def _inf_act(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Coefficients of :func:`inf_act` by the (n, n) matrix a, or by each map
    of a stack (..., n, n), on the coefficient tensor c, in the dtype of the two."""
    n, at = c.shape[0], a.swapaxes(-1, -2)
    shape = a.shape[:-2] + (n, n, n)
    out = (c.reshape(n * n, n) @ at).reshape(shape)
    out -= (at @ c.reshape(n, n * n)).reshape(shape)
    out -= at[..., None, :, :] @ c
    return out


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def _max_defect_norm(t: np.ndarray) -> float:
    """Max over leading indices of the vector norm along the last axis: the
    square root of the largest row sum of squares of the float view, where a
    complex entry is its real and imaginary part side by side."""
    if t.size == 0:
        return 0.0
    v = np.ascontiguousarray(t).reshape(-1, t.shape[-1]).view(float)
    return math.sqrt(float(np.einsum("ij,ij->i", v, v).max()))


def _identity_terms(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """z(xy), (xy)z and a defect buffer for the unit coefficients c, as
    (n, n, n, n) views of one (3, n^2, n^2) workspace indexed [a, b, c, k]
    for the triple (x, y, z) = (e_a, e_b, e_c).

    t = z(xy), t[a, b, c, k] = sum_m c[a, b, m] c[c, m, k], and xy_z = (xy)z
    are two (n^2, n) @ (n, n^2) products written into the workspace.  The
    three share one block so that the allocator hands it back from call to
    call; as three separate n^4 arrays they are mapped, faulted in and
    unmapped again on most calls when products of other sizes run between.
    """
    n = c.shape[0]
    flat = c.reshape(n * n, n)
    w = np.empty((3, n * n, n * n), dtype=c.dtype)
    np.matmul(flat, c.transpose(1, 0, 2).reshape(n, n * n), out=w[0])
    np.matmul(flat, c.reshape(n, n * n), out=w[1])
    t, xy_z, d = w.reshape(3, n, n, n, n)
    return t, xy_z, d


def check_identities(mu: Bracket, tol: float = DEFAULT_IDENTITY_TOL) -> IdentityReport:
    """Residuals of the left/right Leibniz identities plus the Lie pair.

    The bracket is normalized to unit norm first so the residuals, and the
    flags derived from them, do not depend on the overall scale.  The
    residuals are computed once per bracket, on the first call; later calls
    with any ``tol`` read them back.
    """
    _check_tol(tol)
    return IdentityReport(*mu._identity_residuals, tol)
