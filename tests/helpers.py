"""Shared random generators and fixed products for the test suite."""

import numpy as np

from leibcrit.bracket import Bracket


def evaluate(mu: Bracket, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product of the vectors x and y under mu."""
    return np.einsum("i,j,ijk->k", x, y, mu.coeffs)


def direct_sum(mu1: Bracket, mu2: Bracket) -> Bracket:
    """Block-diagonal product on C^(n1+n2) with no cross terms."""
    n1, n2 = mu1.dim, mu2.dim
    c = np.zeros((n1 + n2,) * 3, dtype=complex)
    c[:n1, :n1, :n1] = mu1.coeffs
    c[n1:, n1:, n1:] = mu2.coeffs
    return Bracket(n1 + n2, c)


def random_bracket(n: int, rng: np.random.Generator, scale: float = 1.0) -> Bracket:
    c = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    return Bracket(n, scale * c)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (z + z.conj().T)


def random_invertible(n: int, rng: np.random.Generator, max_cond: float = 10.0) -> np.ndarray:
    """Random invertible matrix with condition number below max_cond."""
    while True:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(g) < max_cond:
            return g


def reference_action_matrix(mu: Bracket) -> np.ndarray:
    """(n^3, n^2) matrix of a -> a.mu by three einsums: row ``(i * n + j) * n + k``
    is (a.mu)[i, j, k] and column ``p * n + q`` the elementary map with a[p, q] = 1."""
    n, c, eye = mu.dim, mu.coeffs, np.eye(mu.dim)
    op = np.einsum("kp,ijq->ijkpq", eye, c)
    op -= np.einsum("qi,pjk->ijkpq", eye, c)
    op -= np.einsum("qj,ipk->ijkpq", eye, c)
    return op.reshape(n**3, n * n)


def irrational_type_s2() -> Bracket:
    """S2 moved by I + 1e-4 R (R standard normal, seed 3): critical at tol
    1e-2 (tangent residual 1.4e-4) and symmetric Leibniz, but its D has no
    rational type (rounding error 6.1e-5 against the 1e-6 type tolerance)."""
    from leibcrit.bracket import gl_act
    from leibcrit.catalog import get

    r = np.random.default_rng(3).standard_normal((3, 3))
    return gl_act(np.eye(3) + 1e-4 * r, get("S2").bracket)
