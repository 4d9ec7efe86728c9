"""Output checks of the benchmark, computed without the library.

The benchmark judges the library's answers with its own small numpy
implementations of the defining formulas: the moment matrix and F, the
Leibniz and Lie identities, and unitary base change.  None of them calls
into ``leibcrit``, so a fault in a library layer cannot hide itself, and
the traced run sees only the calls an operation makes.
"""

from __future__ import annotations

import numpy as np

#: relative tolerance for F against an exactly known value
F_RTOL = 1e-8
#: relative tolerance for F at the end of a descent (the catalog's flow rows)
FLOW_F_RTOL = 1e-6
#: identity defects of the unit-norm product below this count as zero
IDENTITY_TOL = 1e-8


def moment_F(c: np.ndarray) -> float:
    """F = tr(M^2)/|mu|^4 from M = 2 sum L L* - 2 sum L* L - 2 sum R* R."""
    lm = c.transpose(0, 2, 1)  # lm[i] = matrix of x -> mu(e_i, x)
    rm = c.transpose(1, 2, 0)  # rm[i] = matrix of x -> mu(x, e_i)
    lh = lm.conj().transpose(0, 2, 1)
    rh = rm.conj().transpose(0, 2, 1)
    m = 2.0 * ((lm @ lh).sum(0) - (lh @ lm).sum(0) - (rh @ rm).sum(0))
    nsq = float(np.vdot(c, c).real)
    return float(np.vdot(m, m).real) / nsq**2


def identity_class(c: np.ndarray) -> str:
    """Identity class of the product c: lie, symmetric, left, right or none."""
    c = c / np.linalg.norm(c)
    x_yz = np.einsum("bcm,amk->abck", c, c)
    xy_z = np.einsum("abm,mck->abck", c, c)
    y_xz = np.einsum("acm,bmk->abck", c, c)
    xz_y = np.einsum("acm,mbk->abck", c, c)
    left = np.abs(x_yz - xy_z - y_xz).max() <= IDENTITY_TOL
    right = np.abs(xy_z - xz_y - x_yz).max() <= IDENTITY_TOL
    anti = np.abs(c + c.transpose(1, 0, 2)).max() <= IDENTITY_TOL
    if left and anti:
        return "lie"  # an anticommutative left Leibniz product satisfies Jacobi
    if left and right:
        return "symmetric"
    return "left" if left else "right" if right else "none"


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotate(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients of (x, y) -> g mu(g^-1 x, g^-1 y) for a unitary g."""
    h = g.conj().T
    return np.einsum("ia,jb,ijk,ck->abc", h, h, c, g, optimize=True)


def relerr(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
