"""The tensor kernels against their einsum references.

``check_identities``, ``inf_act`` and its array kernel ``_inf_act``,
``gl_act``, ``restrict``, ``moment_matrix``, the adjoint of ``inf_act`` used
by the criticality cross-check and ``subspace_product`` are matrix products
of reshaped coefficient tensors; the structure checks' ``_outside`` reads
index blocks of one.  The ``reference_*`` helpers
below keep their former einsum forms; each kernel must agree with its
reference to 1e-13 * max(1, |ref|) on the catalog, the three families at
n = 3..12 in the catalog basis (stored real) and under a seeded unitary
(stored complex), random non-Leibniz products, the zero bracket and n = 0.
``check_identities`` writes its two (n^2, n) @ (n, n^2) products and its
defects into one workspace; its residuals must equal exactly those of the
same products and defects computed as fresh arrays.

The derivation solve builds the matrix of a -> a.mu by index assignment
and takes the SVD of its triangular factor; it must reproduce the einsum
matrix exactly and the dense SVD's null space to 1e-10.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import random_bracket, random_hermitian, random_invertible, random_unitary
from leibcrit.bracket import Bracket, _inf_act, _max_defect_norm, check_identities, gl_act, inf_act
from leibcrit.catalog import get, standard_rows
from leibcrit.linalg import (
    RANK_RTOL,
    Subspace,
    _action_matrix,
    _nullspace,
    _products,
    derivation_space,
    restrict,
    subspace_product,
)
from leibcrit.moment import _inf_act_adjoint, moment_matrix
from leibcrit.structure import _outside

RTOL = 1e-13


def reference_max_defect_norm(t: np.ndarray) -> float:
    if t.size == 0:
        return 0.0
    return float(np.sqrt((np.abs(t) ** 2).sum(axis=-1)).max())


def reference_check_identities(mu: Bracket) -> tuple[float, ...]:
    """(left, right, anticommutativity, Jacobi) residuals by six einsums."""
    if mu.is_zero:
        return 0.0, 0.0, 0.0, 0.0
    c = mu.coeffs / mu.norm
    x_yz = np.einsum("bcm,amk->abck", c, c)
    xy_z = np.einsum("abm,mck->abck", c, c)
    y_xz = np.einsum("acm,bmk->abck", c, c)
    xz_y = np.einsum("acm,mbk->abck", c, c)
    return (
        reference_max_defect_norm(x_yz - xy_z - y_xz),
        reference_max_defect_norm(xy_z - xz_y - x_yz),
        reference_max_defect_norm(c + c.transpose(1, 0, 2)),
        reference_max_defect_norm(
            x_yz + np.einsum("cam,bmk->abck", c, c) + np.einsum("abm,cmk->abck", c, c)
        ),
    )


def two_product_check_identities(mu: Bracket) -> tuple[float, ...]:
    """(left, right, anticommutativity, Jacobi) residuals from z(xy) and (xy)z,
    indexed [a, b, c, k], and their axis permutations, each product and
    each defect in a fresh array."""
    if mu.is_zero:
        return 0.0, 0.0, 0.0, 0.0
    n, c = mu.dim, mu.coeffs / mu.norm
    flat = c.reshape(n * n, n)
    t = (flat @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
    xy_z = (flat @ c.reshape(n, n * n)).reshape(n, n, n, n)
    x_yz = t.transpose(2, 0, 1, 3)
    return (
        _max_defect_norm(x_yz - xy_z - x_yz.transpose(1, 0, 2, 3)),
        _max_defect_norm(xy_z - xy_z.transpose(0, 2, 1, 3) - x_yz),
        _max_defect_norm(c + c.transpose(1, 0, 2)),
        _max_defect_norm(x_yz + t.transpose(1, 2, 0, 3) + t),
    )


def reference_inf_act(a: np.ndarray, mu: Bracket) -> np.ndarray:
    c = mu.coeffs
    return (
        np.einsum("km,ijm->ijk", a, c)
        - np.einsum("mi,mjk->ijk", a, c)
        - np.einsum("mj,imk->ijk", a, c)
    )


def reference_inf_act_adjoint(r: np.ndarray, c_conj: np.ndarray) -> np.ndarray:
    x = (
        np.einsum("ijp,ijq->pq", r, c_conj)
        - np.einsum("qjk,pjk->pq", r, c_conj)
        - np.einsum("iqk,ipk->pq", r, c_conj)
    )
    return 0.5 * (x + x.conj().T)


def reference_gl_act(g: np.ndarray, mu: Bracket) -> np.ndarray:
    ginv = np.linalg.inv(g)
    return np.einsum("ai,bj,kc,abc->ijk", ginv, ginv, g, mu.coeffs, optimize=True)


def reference_action_matrix(mu: Bracket) -> np.ndarray:
    n, c, eye = mu.dim, mu.coeffs, np.eye(mu.dim)
    op = np.einsum("kp,ijq->ijkpq", eye, c)
    op -= np.einsum("qi,pjk->ijkpq", eye, c)
    op -= np.einsum("qj,ipk->ijkpq", eye, c)
    return op.reshape(n**3, n * n)


def reference_derivation_projector(mu: Bracket) -> np.ndarray:
    """Projector onto the derivations, from the dense SVD of the (n^3, n^2) matrix."""
    null = _nullspace(reference_action_matrix(mu), abs_tol=RANK_RTOL * mu.norm)
    return null @ null.conj().T


def reference_moment_matrix(mu: Bracket) -> np.ndarray:
    c = mu.coeffs
    t1 = np.einsum("iju,ijv->uv", c, c.conj())
    t2 = np.einsum("ivj,iuj->uv", c, c.conj())
    t3 = np.einsum("vij,uij->uv", c, c.conj())
    m = 2.0 * (t1 - t2 - t3)
    return 0.5 * (m + m.conj().T)


def reference_products(mu: Bracket, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    n = mu.dim
    return np.einsum("ia,jb,ijk->kab", u, w, mu.coeffs).reshape(n, -1)


def reference_subspace_product(mu: Bracket, u: Subspace, w: Subspace) -> Subspace:
    n = mu.dim
    if u.rank == 0 or w.rank == 0:
        return Subspace.zero(n)
    return Subspace.from_span(n, reference_products(mu, u.basis, w.basis))


def reference_restrict(mu: Bracket, sub: Subspace) -> np.ndarray:
    b = sub.basis
    return np.einsum("ia,jb,ijk,kc->abc", b, b, mu.coeffs, b.conj())


def reference_outside(unit: Bracket, sub: Subspace, spec: str, *factors: np.ndarray) -> float:
    n = unit.dim
    prods = np.einsum(spec, *factors, unit.coeffs).reshape(n, -1)
    proj_out = np.eye(n, dtype=complex) - sub.projector()
    return float(np.linalg.norm(proj_out @ prods, axis=0).max(initial=0.0))


def assert_close(got, ref) -> None:
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    bound = RTOL * max(1.0, float(np.linalg.norm(ref)))
    assert float(np.linalg.norm(got - ref)) <= bound


def kernel_cases() -> list:
    cases = [pytest.param(e.bracket, id=f"row-{i}-{e.label}") for i, e in enumerate(standard_rows())]
    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in range(3, 13):
            mu = get(name, n=n).bracket
            cases.append(pytest.param(mu, id=f"{name}({n})"))
            u = random_unitary(n, np.random.default_rng([n, 1]))
            cases.append(pytest.param(gl_act(u, mu), id=f"{name}({n})@U"))
    for n in (1, 2, 3, 5, 8):
        for seed in range(3):
            mu = random_bracket(n, np.random.default_rng([n, seed]))
            cases.append(pytest.param(mu, id=f"random({n})/seed{seed}"))
    cases += [pytest.param(Bracket.zero(3), id="zero(3)"), pytest.param(Bracket.zero(0), id="zero(0)")]
    return cases


CASES = kernel_cases()


def case_rng(mu: Bracket) -> np.random.Generator:
    return np.random.default_rng([mu.dim, 7])


def random_subspace(n: int, rank: int, rng: np.random.Generator) -> Subspace:
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return Subspace(np.linalg.qr(z)[0])


def phase_multiple(mu: Bracket) -> Bracket:
    """e^{i pi/4} mu, stored complex whenever mu is nonzero."""
    return Bracket(mu.dim, np.exp(0.25j * np.pi) * mu.coeffs)


@pytest.mark.parametrize("mu", CASES)
def test_check_identities_matches_reference(mu):
    # both storages: a catalog-basis case is real, its phase multiple complex
    for case in (mu, phase_multiple(mu)):
        got = check_identities(case)
        ref = reference_check_identities(case)
        residuals = (got.left_residual, got.right_residual,
                     got.anticommutativity_residual, got.jacobi_residual)
        for value, want in zip(residuals, ref):
            assert abs(value - want) <= RTOL * max(1.0, want)
        tol = got.tol
        assert got.is_left_leibniz == (ref[0] <= tol)
        assert got.is_right_leibniz == (ref[1] <= tol)
        assert got.is_symmetric_leibniz == (ref[0] <= tol and ref[1] <= tol)
        assert got.is_lie == (ref[2] <= tol and ref[3] <= tol)


@pytest.mark.parametrize("mu", CASES)
def test_workspace_residuals_equal_fresh_arrays(mu):
    # the same products and the same defect arithmetic, so the residuals are bit-identical
    for case in (mu, phase_multiple(mu)):
        got = check_identities(case)
        residuals = (got.left_residual, got.right_residual,
                     got.anticommutativity_residual, got.jacobi_residual)
        assert residuals == two_product_check_identities(case)


@pytest.mark.parametrize("dtype", [float, complex])
def test_check_identities_peak_is_one_workspace(dtype):
    # the (3, n^2, n^2) workspace of z(xy), (xy)z and the defect buffer, plus
    # the unit coefficients and the n^3-sized temporaries (measured: 3.04 n^3)
    n = 20
    mu = get("mu_he", n=n).bracket
    mu = Bracket(n, mu.coeffs if dtype is float else phase_multiple(mu).coeffs)
    assert mu.coeffs.dtype == dtype
    itemsize = mu.coeffs.itemsize
    tracemalloc.start()
    try:
        check_identities(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 3 * n**4 * itemsize <= peak <= (3 * n**4 + 4 * n**3) * itemsize


@pytest.mark.parametrize("mu", CASES)
def test_inf_act_matches_reference(mu):
    rng = case_rng(mu)
    n = mu.dim
    for a in (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
              random_hermitian(n, rng), np.eye(n)):
        assert_close(inf_act(a, mu).coeffs, reference_inf_act(a.astype(complex), mu))


@pytest.mark.parametrize("mu", CASES)
def test_inf_act_kernel_matches_reference(mu):
    # the kernel computes in the dtype of a and the coefficients: real for real inputs
    rng = case_rng(mu)
    n, c = mu.dim, mu.coeffs
    real = rng.standard_normal((n, n))
    for a in (real, real + 1j * rng.standard_normal((n, n)), random_hermitian(n, rng)):
        got = _inf_act(a, c)
        assert got.dtype == np.result_type(a, c)
        assert_close(got, reference_inf_act(a.astype(complex), mu))


@pytest.mark.parametrize("mu", [case for case in CASES if case.values[0].dim])
def test_gl_act_matches_reference(mu):
    rng = case_rng(mu)
    n = mu.dim
    for g in (random_unitary(n, rng), random_invertible(n, rng), 2.0 * np.eye(n)):
        assert_close(gl_act(g, mu).coeffs, reference_gl_act(g.astype(complex), mu))


@pytest.mark.parametrize("mu", CASES)
def test_action_matrix_matches_reference(mu):
    np.testing.assert_array_equal(_action_matrix(mu), reference_action_matrix(mu))


def derivation_cases() -> list:
    cases = [pytest.param(e.bracket, id=f"row-{i}-{e.label}") for i, e in enumerate(standard_rows())]
    for name in ("mu_hy", "mu_he", "mu_sy"):
        cases += [pytest.param(get(name, n=n).bracket, id=f"{name}({n})") for n in range(3, 9)]
    return cases


@pytest.mark.parametrize("mu", derivation_cases())
def test_derivation_space_matches_dense_svd(mu):
    ders = derivation_space(mu)
    ref = reference_derivation_projector(mu)
    basis = np.array([d.ravel() for d in ders]).reshape(-1, mu.dim**2).T
    assert basis.shape[1] == round(np.trace(ref).real)
    assert float(np.linalg.norm(basis @ basis.conj().T - ref)) <= 1e-10


@pytest.mark.parametrize("mu", CASES)
def test_inf_act_adjoint_matches_reference(mu):
    rng = case_rng(mu)
    n = mu.dim
    r = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    c_conj = mu.coeffs.conj()
    for t in (r, mu.coeffs):
        assert_close(_inf_act_adjoint(t, c_conj), reference_inf_act_adjoint(t, c_conj))


@pytest.mark.parametrize("mu", CASES)
def test_moment_matrix_matches_reference(mu):
    assert_close(moment_matrix(mu), reference_moment_matrix(mu))


@pytest.mark.parametrize("mu", CASES)
def test_subspace_product_matches_reference(mu):
    n = mu.dim
    rng = case_rng(mu)
    full = Subspace.full(n)
    pairs = [(full, full), (Subspace.zero(n), full)]
    if n:
        pairs.append((random_subspace(n, max(1, n // 2), rng), random_subspace(n, max(1, n // 3), rng)))
    for u, w in pairs:
        if n:  # the einsum reference cannot reshape an empty result with n = 0
            assert_close(_products(mu, u.basis, w.basis), reference_products(mu, u.basis, w.basis))
        got, ref = subspace_product(mu, u, w), reference_subspace_product(mu, u, w)
        assert got.rank == ref.rank
        assert_close(got.projector(), ref.projector())


@pytest.mark.parametrize("mu", CASES)
def test_restrict_matches_reference(mu):
    n = mu.dim
    subs = [Subspace.full(n), Subspace.zero(n)]
    if n:
        subs.append(random_subspace(n, max(1, n // 2), case_rng(mu)))
    for sub in subs:
        got = restrict(mu, sub)
        assert got.dim == sub.rank
        assert_close(got.coeffs, reference_restrict(mu, sub))


@pytest.mark.parametrize("mu", [case for case in CASES if case.values[0].dim])
def test_outside_matches_reference(mu):
    # _outside reads index blocks, so sub is spanned by consecutive coordinate vectors
    n, r = mu.dim, max(1, mu.dim // 2)
    start = int(case_rng(mu).integers(n - r + 1))
    part, every = slice(start, start + r), slice(None)
    b = np.eye(n, dtype=complex)[:, part]
    sub = Subspace(b)
    for (xs, ys), spec, factors in (
        ((part, part), "ia,jb,ijk->kab", (b, b)),
        ((part, every), "ia,ijk->kaj", (b,)),
        ((every, part), "ja,ijk->kai", (b,)),
    ):
        got, ref = _outside(mu.coeffs, xs, ys, part), reference_outside(mu, sub, spec, *factors)
        assert abs(got - ref) <= RTOL * max(1.0, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_inf_act_adjoint_identity(n, seed):
    # Re <a.mu, r> = Re tr(a adj(r)*) for Hermitian a
    rng = np.random.default_rng([n, seed, 11])
    mu = random_bracket(n, rng)
    a = random_hermitian(n, rng)
    r = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    lhs = np.vdot(r, inf_act(a, mu).coeffs).real
    rhs = np.vdot(_inf_act_adjoint(r, mu.coeffs.conj()), a).real
    scale = inf_act(a, mu).norm * np.linalg.norm(r)
    assert abs(lhs - rhs) <= 1e-13 * scale
