"""The tensor kernels against their einsum references.

``check_identities``, ``inf_act`` and its array kernel ``_inf_act``,
``gl_act`` and its kernel ``_base_change`` (which also compresses a product
to orthonormal columns), ``moment_matrix``, the adjoint of ``inf_act`` used
by the criticality cross-check and the structure layer's
``_subspace_product`` are matrix products of reshaped coefficient tensors;
the structure checks' ``_outside`` reads index blocks of one.  The ``reference_*`` helpers
below keep their former einsum forms; each kernel must agree with its
reference to 1e-13 * max(1, |ref|) on the catalog, the three families at
n = 3..12 in the catalog basis (stored real) and under a seeded unitary
(stored complex), random non-Leibniz products, the zero bracket and n = 0.
``check_identities`` writes its two (n^2, n) @ (n, n^2) products and its
defects into one workspace; its residuals must equal exactly those of the
same products and defects computed as fresh arrays.

The derivation solve builds the n^2 rows of the matrix of a -> a.mu of one
first index by index assignment, and applies ``_inf_act`` to a stack of
candidate maps in one call; the rows must equal the matching rows of the
einsum matrix exactly for every index, the stacked kernel the per-map one
bit for bit, and the solve the dense SVD's null space to 1e-10, also on
S1 and m0(8) with the basis reversed, which moves the index of the
heaviest multiplications the solve starts from, and on m0(12) and its
perturbation, within a traced peak far below the dense matrix at n = 20.

``_span`` takes one thin SVD of its matrix.  ``_nullspace`` (so also
``_center_subspace`` and the derivation solve's second stage) factors a
tall matrix once and takes the SVD of the square factor.
``reference_span`` takes scipy's gesvd SVD of the whole matrix, another
LAPACK algorithm than ``_span``'s, and ``reference_nullspace`` numpy's
direct SVD of it; on the
product matrices and center stacks of the standard rows and of the three
families at n = 3..16, in both bases, on empty and one-row shapes and on
singular values at the ``RANK_RTOL`` cut, both routes must give the same
rank and projectors within 1e-12.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    random_bracket,
    random_hermitian,
    random_invertible,
    random_unitary,
    reference_action_matrix,
)
from leibcrit.bracket import (
    Bracket,
    _base_change,
    _inf_act,
    _max_defect_norm,
    check_identities,
    gl_act,
    inf_act,
)
from leibcrit.catalog import get, standard_rows
from leibcrit.flow import perturb_in_orbit
from leibcrit.linalg import (
    RANK_RTOL,
    _nullspace,
    _one_index_rows,
    _products,
    _span,
    _subspace_product,
    _unit_coeffs,
    derivation_space,
)
from leibcrit.moment import _inf_act_adjoint, moment_matrix
from leibcrit.structure import _center_subspace, _outside

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


def reference_products(c: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("ia,jb,ijk->kab", u, w, c).reshape(c.shape[0], -1)


def reference_subspace_product(c: np.ndarray, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Span of the products on the unit product c, cut at ``RANK_RTOL``."""
    n = c.shape[0]
    if u.shape[1] == 0 or w.shape[1] == 0:
        return np.zeros((n, 0))
    left, s, _ = np.linalg.svd(reference_products(c, u, w), full_matrices=False)
    return left[:, s > RANK_RTOL]


def reference_restrict(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ia,jb,ijk,kc->abc", b, b, c, b.conj())


def projector(b: np.ndarray) -> np.ndarray:
    return b @ b.conj().T


def reference_outside(unit: Bracket, b: np.ndarray, spec: str, *factors: np.ndarray) -> float:
    n = unit.dim
    prods = np.einsum(spec, *factors, unit.coeffs).reshape(n, -1)
    proj_out = np.eye(n, dtype=complex) - projector(b)
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


def random_subspace(n: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return np.linalg.qr(z)[0]


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
def test_stacked_inf_act_equals_each_map(mu):
    # the derivation solve's second stage applies _inf_act to all its candidates at once
    rng = case_rng(mu)
    n, c = mu.dim, mu.coeffs
    real = rng.standard_normal((4, n, n))
    for stack in (real, real + 1j * rng.standard_normal((4, n, n))):
        got = _inf_act(stack, c)
        assert got.shape == (4, n, n, n)
        for a, image in zip(stack, got):
            np.testing.assert_array_equal(image, _inf_act(a, c))


@pytest.mark.parametrize("mu", CASES)
def test_action_matrix_matches_reference(mu):
    # the derivation solve builds the matrix one first index at a time: n^2 rows each
    n, ref = mu.dim, reference_action_matrix(mu)
    for i in range(n):
        rows = _one_index_rows(mu.coeffs, i)
        assert rows.dtype == mu.coeffs.dtype
        np.testing.assert_array_equal(rows, ref[i * n * n : (i + 1) * n * n])


def reversed_basis(mu: Bracket) -> Bracket:
    """mu with its basis in reverse order, so that e_1 is the last catalog vector."""
    return gl_act(np.eye(mu.dim)[::-1], mu)


def derivation_cases() -> list:
    cases = [pytest.param(e.bracket, id=f"row-{i}-{e.label}") for i, e in enumerate(standard_rows())]
    for name in ("mu_hy", "mu_he", "mu_sy"):
        cases += [pytest.param(get(name, n=n).bracket, id=f"{name}({n})") for n in range(3, 9)]
    return cases + [
        pytest.param(reversed_basis(get("S1").bracket), id="S1-reversed"),
        pytest.param(reversed_basis(get("m0", n=8).bracket), id="m0(8)-reversed"),
        pytest.param(get("m0", n=12).bracket, id="m0(12)"),
        pytest.param(perturb_in_orbit(get("m0", n=12).bracket, 0.5, 2), id="m0(12)+0.5/seed2"),
    ]


@pytest.mark.parametrize("perturbed, bound_mb", [(False, 8.0), (True, 16.0)])
def test_derivation_space_peak_at_n20(perturbed, bound_mb):
    # the (n^3, n^2) matrix of a -> a.mu alone is 25.6 MB on the real m0(20) and
    # 51.2 MB on its complex perturbation; the two stages take one (n^2, n^2)
    # block and the (n^3, dim V) images of the dim V = 40 candidates
    mu = get("m0", n=20).bracket
    if perturbed:
        mu = perturb_in_orbit(mu, 0.5, 2)
    tracemalloc.start()
    try:
        ders = derivation_space(mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ders) == 39
    assert peak < bound_mb * 1e6


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
    n, c = mu.dim, _unit_coeffs(mu)
    rng = case_rng(mu)
    full = np.eye(n)
    pairs = [(full, full), (np.zeros((n, 0)), full)]
    if n:
        pairs.append((random_subspace(n, max(1, n // 2), rng), random_subspace(n, max(1, n // 3), rng)))
    for u, w in pairs:
        if n:  # the einsum reference cannot reshape an empty result with n = 0
            assert_close(_products(mu.coeffs, u, w), reference_products(mu.coeffs, u, w))
        got, ref = _subspace_product(c, u, w), reference_subspace_product(c, u, w)
        assert got.shape == ref.shape
        assert_close(projector(got), projector(ref))


@pytest.mark.parametrize("mu", CASES)
def test_restrict_matches_reference(mu):
    n = mu.dim
    subs = [np.eye(n), np.zeros((n, 0))]
    if n:
        subs.append(random_subspace(n, max(1, n // 2), case_rng(mu)))
    for b in subs:
        got = _base_change(b.conj().T, b, mu.coeffs)
        assert got.shape == (b.shape[1],) * 3
        assert_close(got, reference_restrict(mu.coeffs, b))


@pytest.mark.parametrize("mu", [case for case in CASES if case.values[0].dim])
def test_outside_matches_reference(mu):
    # _outside reads index blocks, so sub is spanned by consecutive coordinate vectors
    n, r = mu.dim, max(1, mu.dim // 2)
    start = int(case_rng(mu).integers(n - r + 1))
    part, every = slice(start, start + r), slice(None)
    b = np.eye(n, dtype=complex)[:, part]
    for (xs, ys), spec, factors in (
        ((part, part), "ia,jb,ijk->kab", (b, b)),
        ((part, every), "ia,ijk->kaj", (b,)),
        ((every, part), "ja,ijk->kai", (b,)),
    ):
        got, ref = _outside(mu.coeffs, xs, ys, part), reference_outside(mu, b, spec, *factors)
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


def reference_span(m: np.ndarray) -> np.ndarray:
    """Left singular vectors of m with singular values above the absolute cut
    ``RANK_RTOL``, from scipy's QR-iteration SVD (LAPACK gesvd), not the
    divide-and-conquer one (gesdd) that numpy and ``_span`` call."""
    u, s, _ = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    return u[:, s > RANK_RTOL]


def reference_nullspace(m: np.ndarray, abs_tol: float) -> np.ndarray:
    """Right singular vectors of the SVD of m itself at most abs_tol, with the
    full vh for a wide m."""
    rows, cols = m.shape
    if m.size == 0:
        return np.eye(cols, dtype=m.dtype)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    small = np.ones(cols, dtype=bool)
    small[: s.size] = s <= abs_tol
    return vh.conj().T[:, small]


def center_stack(c: np.ndarray) -> np.ndarray:
    """The (2 n^2, n) matrix whose null space ``_center_subspace`` takes."""
    n = c.shape[0]
    return np.vstack([c.transpose(1, 2, 0).reshape(n * n, n), c.transpose(0, 2, 1).reshape(n * n, n)])


def assert_same_subspace(got: np.ndarray, ref: np.ndarray) -> None:
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert float(np.linalg.norm(projector(got) - projector(ref))) <= 1e-12


def rank_cases() -> list:
    """Unit coefficients of the standard rows and of the three families at
    n = 3..16, in the catalog basis (real) and under a seeded unitary (complex)."""
    cases = [pytest.param(_unit_coeffs(e.bracket), id=f"row-{i}-{e.label}")
             for i, e in enumerate(standard_rows())]
    for name in ("mu_hy", "mu_he", "mu_sy"):
        for n in range(3, 17):
            mu = get(name, n=n).bracket
            rotated = gl_act(random_unitary(n, np.random.default_rng([n, 1])), mu)
            cases += [pytest.param(_unit_coeffs(mu), id=f"{name}({n})"),
                      pytest.param(_unit_coeffs(rotated), id=f"{name}({n})@U")]
    return cases


@pytest.mark.parametrize("c", rank_cases())
def test_span_matches_the_direct_svd(c):
    # the product matrices of both series: [l, l], then [l, [l, l]] and [[l, l], [l, l]]
    full = np.eye(c.shape[0])
    derived = reference_span(_products(c, full, full))
    for u, w in ((full, full), (full, derived), (derived, derived)):
        m = _products(c, u, w)
        assert_same_subspace(_span(m), reference_span(m))


@pytest.mark.parametrize("c", rank_cases())
def test_nullspace_matches_the_direct_svd(c):
    stack = center_stack(c)
    ref = reference_nullspace(stack, RANK_RTOL)
    assert_same_subspace(_nullspace(stack, RANK_RTOL), ref)
    assert_same_subspace(_center_subspace(c), ref)
    full = np.eye(c.shape[0])
    for m in (_products(c, full, full), _products(c, full, full).conj().T):
        assert_same_subspace(_nullspace(m, RANK_RTOL), reference_nullspace(m, RANK_RTOL))


@pytest.mark.parametrize("mu", derivation_cases())
def test_derivation_space_matches_the_direct_svd(mu):
    # reference_derivation_projector goes through _nullspace, so it takes the same route
    ders = derivation_space(mu)
    basis = np.array([d.ravel() for d in ders]).reshape(-1, mu.dim**2).T
    ref = reference_nullspace(reference_action_matrix(mu), RANK_RTOL * mu.norm)
    assert basis.shape == ref.shape
    assert float(np.linalg.norm(projector(basis) - projector(ref))) <= 1e-12


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (1, 5), (5, 1)])
def test_span_and_nullspace_of_degenerate_shapes(shape):
    m = np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape)
    for a in (m, (1 + 1j) * m):
        assert_same_subspace(_span(a), reference_span(a))
        assert_same_subspace(_nullspace(a, RANK_RTOL), reference_nullspace(a, RANK_RTOL))


def test_span_cut_is_absolute():
    # a product space whose largest singular value is itself small: the cut
    # stays at RANK_RTOL, so 1e-11 is round-off although it is 1e-8 of 1e-3
    m = np.diag([1e-3, 1e-11, 0.0])
    assert_same_subspace(_span(m), reference_span(m))
    assert _span(m).shape == (3, 1)


def test_rank_cut_at_the_boundary_diagonal():
    # singular values just above, at and just below RANK_RTOL, written on the
    # diagonal of a wide (span) and a tall (null space) matrix: both routes
    # keep the two above the cut and count the other three as null
    values = [1.0, np.nextafter(RANK_RTOL, 1.0), RANK_RTOL, np.nextafter(RANK_RTOL, 0.0), 0.0]
    wide = np.zeros((5, 8))
    wide[range(5), range(5)] = values
    assert_same_subspace(_span(wide), reference_span(wide))
    assert _span(wide).shape == (5, 2)
    assert_same_subspace(_nullspace(wide.T, RANK_RTOL), reference_nullspace(wide.T, RANK_RTOL))
    assert _nullspace(wide.T, RANK_RTOL).shape == (5, 3)
