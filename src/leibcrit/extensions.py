"""Constructive extensions of a nilpotent critical point.

Given a critical core lambda on C^m with certificate M = c I + D (c < 0,
positive integer type) and, for each generator A of an extending space of
dimension d1, action maps L_A, R_A on the core, the assembled product

    mu(A + X, B + Y) = [A, B]_f + L_A(Y) + R_B(X) + lambda(X, Y)

is again a critical point, of the core type with a zero eigenvalue of
multiplicity d1 prepended, provided the hypotheses below hold and the
extending generators are orthonormalized under the Gram form

    <A, B> = -(2/c) * (tr ad_A ad_B* + tr L_A L_B* + tr R_A R_B*)

where f is the Lie bracket of the extending algebra.  Hypotheses: every
action map commutes with D and is a derivation of the core; central
generators are central in f, their maps are normal and no nonzero central
combination acts by zero; maps of semisimple generators (and their ad) are
skew-Hermitian.  The solvable build is the general one with f = 0 and
every generator central, so the ad term of the Gram form vanishes there.
Nothing is trusted: the assembled product must pass the symmetric Leibniz
identities, or at least the left identity with every right action a
derivation of the result (the relaxed one-sided form of the conclusion),
and its criticality, constant and type are re-certified from scratch
before it is returned.

A clearly-labeled degenerate mode accepts the zero core (abelian
nilradical) when the caller supplies the intended constant ``core_c``
explicitly; its derivation is the identity, whose positive multiples
commute with every map alike.  The conclusion then rests entirely on the
final certification.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bracket import Bracket, _check_tol, _real_if_real, check_identities, gl_act, inf_act
from .moment import DEFAULT_CRITICAL_TOL, CriticalType, MomentReport, criticality_decompose

__all__ = [
    "ExtensionSpec",
    "ExtensionError",
    "HypothesisViolation",
    "NotSymmetricLeibniz",
    "GramNotPositive",
    "NotLie",
    "CertificationFailed",
    "build_solvable_extension",
    "build_general_extension",
]


#: The Gram form is positive definite when min/max of its eigenvalues exceeds this.
GRAM_MIN_EIG_RATIO = 1e-10
#: Largest relative change of the constant c from the core to the assembled product.
CONSTANT_RTOL = 1e-8


class ExtensionError(Exception):
    """Base class for extension-builder failures."""


class HypothesisViolation(ExtensionError):
    def __init__(self, clause: str, residual: float, detail: str = ""):
        self.clause = clause
        self.residual = residual
        msg = f"hypothesis {clause} violated (residual {residual:.3g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NotSymmetricLeibniz(ExtensionError):
    def __init__(self, left_residual: float, right_residual: float):
        self.left_residual = left_residual
        self.right_residual = right_residual
        super().__init__(
            "assembled product is not symmetric Leibniz "
            f"(left defect {left_residual:.3g}, right defect {right_residual:.3g})"
        )


class GramNotPositive(ExtensionError):
    pass


class NotLie(ExtensionError):
    pass


class CertificationFailed(ExtensionError):
    pass


@dataclass(frozen=True)
class ExtensionSpec:
    """Inputs of the extension builders.

    ``core`` is the critical core and ``core_report`` its report, or None;
    ``left_maps[a]`` / ``right_maps[a]`` are the maps L_A, R_A of the a-th
    extending generator.  For the general builder ``f_bracket`` holds the
    Lie bracket of the reductive extending algebra with ``semisimple`` and
    ``center`` naming the (0-based) generator indices of the two summands.
    The degenerate abelian-core mode sets ``core`` to the zero bracket and
    supplies ``core_c`` explicitly (the core derivation is D = I).
    """

    core: Bracket
    core_report: MomentReport | None
    left_maps: tuple[np.ndarray, ...]
    right_maps: tuple[np.ndarray, ...]
    f_bracket: Bracket | None = None
    semisimple: tuple[int, ...] = ()
    center: tuple[int, ...] = ()
    core_c: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "left_maps", tuple(_real_if_real(a) for a in self.left_maps))
        object.__setattr__(self, "right_maps", tuple(_real_if_real(a) for a in self.right_maps))
        if len(self.left_maps) != len(self.right_maps) or not self.left_maps:
            raise ValueError("need one (left, right) map pair per generator, at least one")
        m = self.core.dim
        if m < 1:
            raise ValueError("core dimension must be at least 1")
        for a in (*self.left_maps, *self.right_maps):
            if a.shape != (m, m):
                raise ValueError(f"action maps must be {m}x{m}")
        if self.f_bracket is None and (self.semisimple or self.center):
            raise ValueError("semisimple and center index the generators of f_bracket, which is None")

    @property
    def d1(self) -> int:
        return len(self.left_maps)

    @property
    def degenerate_core(self) -> bool:
        return self.core_c is not None


def _core_data(spec: ExtensionSpec, tol: float) -> tuple[np.ndarray, float, CriticalType]:
    """The core derivation, constant and type, honoring the degenerate mode."""
    m = spec.core.dim
    if spec.degenerate_core:
        if not spec.core.is_zero:
            raise ValueError("degenerate mode requires the zero core")
        if not spec.core_c < 0:
            raise ValueError("degenerate mode needs core_c < 0")
        return np.eye(m), spec.core_c, CriticalType((1,), (m,))
    rep = spec.core_report
    if rep is None:
        rep = criticality_decompose(spec.core, tol)
    elif not rep.certifies(spec.core):
        raise ValueError("core_report does not certify core")
    if not rep.is_critical:
        raise HypothesisViolation(
            "core criticality", rep.residual_tangent, "core is not a certified critical point"
        )
    t = rep.type
    if t is None:
        raise HypothesisViolation("core type", 0.0, "core has no rational critical type")
    if t.ks[0] <= 0:
        raise HypothesisViolation(
            "core type", 0.0, f"core type {t} must be strictly positive"
        )
    return rep.D, rep.c, t


def _require(clause: str, residual: float, tol: float, detail: str) -> None:
    """The pass/fail rule of every hypothesis read as a residual."""
    if residual > tol:
        raise HypothesisViolation(clause, residual, detail)


def _check_core_maps(spec: ExtensionSpec, d_core: np.ndarray, tol: float) -> None:
    """(i) Every action map commutes with D and is a derivation of the core."""
    maps = [(op, f"{side}_{a}", max(1.0, float(np.linalg.norm(op))))
            for a, pair in enumerate(zip(spec.left_maps, spec.right_maps))
            for side, op in zip("LR", pair)]
    d_scale = max(1.0, float(np.linalg.norm(d_core)))
    for op, name, scale in maps:
        r = float(np.linalg.norm(d_core @ op - op @ d_core)) / (d_scale * scale)
        _require("(i)", r, tol, f"[D, {name}] != 0")
    if spec.core.is_zero:
        return
    for op, name, scale in maps:
        r = inf_act(op, spec.core).norm / (spec.core.norm * scale)
        _require("core derivation", r, tol, f"{name} is not a derivation of the core")


def _check_normal_family(maps: list[np.ndarray], tol: float, clause: str) -> None:
    """[X_a, X_b*] = 0 pairwise, so every combination is a normal operator."""
    scale = max(1.0, max((float(np.linalg.norm(x)) for x in maps), default=1.0) ** 2)
    for i, a in enumerate(maps):
        for b in maps[i:]:
            r = float(np.linalg.norm(a @ b.conj().T - b.conj().T @ a)) / scale
            _require(clause, r, tol, "action maps are not a commuting normal family")


def _check_nonvanishing(pairs: list[tuple[np.ndarray, np.ndarray]], tol: float) -> None:
    """(ii) No nonzero combination of the generators acts by zero on the core."""
    stacked = np.stack([np.concatenate([l.ravel(), r.ravel()]) for l, r in pairs], axis=1)
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] <= tol or s[-1] <= tol * s[0]:
        raise HypothesisViolation(
            "(ii)", float(s[-1]) if s.size else 0.0,
            "some nonzero generator combination has zero left and right action",
        )


def _check_skew(maps: list[np.ndarray], tol: float, clause: str) -> None:
    for x in maps:
        r = float(np.linalg.norm(x + x.conj().T)) / max(1.0, float(np.linalg.norm(x)))
        _require(clause, r, tol, "map is not skew-Hermitian")


def _orthonormalize(gram: np.ndarray) -> np.ndarray:
    """Transition matrix s with s* gram s = I; raises when gram is not PD."""
    gram = 0.5 * (gram + gram.conj().T)
    w = np.linalg.eigvalsh(gram)
    if w[0] <= GRAM_MIN_EIG_RATIO * max(w[-1], 0.0):
        raise GramNotPositive(
            f"Gram matrix is not positive definite (eigenvalues {w[0]:.3g}..{w[-1]:.3g})"
        )
    chol = np.linalg.cholesky(gram)
    return np.linalg.inv(chol).conj().T


def _transform(maps: tuple[np.ndarray, ...], s: np.ndarray) -> list[np.ndarray]:
    return [sum(s[a, b] * maps[a] for a in range(s.shape[0])) for b in range(s.shape[1])]


def _assemble(
    core: Bracket,
    lmaps: list[np.ndarray],
    rmaps: list[np.ndarray],
    f_coeffs: np.ndarray,
) -> Bracket:
    d1, m = len(lmaps), core.dim
    n = d1 + m
    c = np.zeros((n, n, n), dtype=np.result_type(core.coeffs, f_coeffs, *lmaps, *rmaps))
    c[d1:, d1:, d1:] = core.coeffs
    for a in range(d1):
        c[a, d1:, d1:] = lmaps[a].T  # mu(A_a, e_j) = L_a e_j
        c[d1:, a, d1:] = rmaps[a].T  # mu(e_i, A_a) = R_a e_i
    c[:d1, :d1, :d1] = f_coeffs
    return Bracket(n, c)


def _identity_gate(out: Bracket, rmaps: list[np.ndarray], tol: float) -> None:
    """Accept symmetric Leibniz output, or left Leibniz with R in Der(out),
    each at the build's ``tol``; the core follows the len(rmaps) generators."""
    idr = check_identities(out, tol)
    if idr.is_symmetric_leibniz:
        return
    if idr.is_left_leibniz:
        worst, d1 = 0.0, len(rmaps)
        for r in rmaps:
            full = np.zeros((out.dim, out.dim), dtype=r.dtype)
            full[d1:, d1:] = r
            worst = max(worst, inf_act(full, out).norm / out.norm)
        if worst <= tol:
            return
    raise NotSymmetricLeibniz(idr.left_residual, idr.right_residual)


def _certify(
    out: Bracket, rmaps: list[np.ndarray], core_c: float, core_type: CriticalType, tol: float
) -> MomentReport:
    _identity_gate(out, rmaps, tol)
    rep = criticality_decompose(out, tol)
    if not rep.is_critical:
        raise CertificationFailed(
            f"assembled product is not critical (tangent residual {rep.residual_tangent:.3g})"
        )
    if abs(rep.c - core_c) > CONSTANT_RTOL * abs(core_c):
        raise CertificationFailed(
            f"constant changed: core {core_c:.12g} vs assembled {rep.c:.12g}"
        )
    expected = CriticalType((0,) + core_type.ks, (len(rmaps),) + core_type.ds)
    got = rep.type
    if got != expected:
        raise CertificationFailed(f"type {got} differs from expected {expected}")
    return rep


def _check_clauses(
    f: Bracket,
    lmaps: Sequence[np.ndarray],
    rmaps: Sequence[np.ndarray],
    semisimple: tuple[int, ...],
    center: tuple[int, ...],
    tol: float,
    when: str = "",
) -> None:
    """Central generators are central in f and act by a normal family;
    semisimple generators act skew-Hermitianly through ad, L and R."""
    ads = f.coeffs.transpose(0, 2, 1)  # ads[a] is the matrix of y -> f(e_a, y)
    for z in center:
        r = float(np.linalg.norm(ads[z])) / max(1.0, f.norm)
        _require("center" + when, r, tol, f"generator {z} is not central in f")
    _check_skew([ads[h] for h in semisimple], tol, "ad skewness" + when)
    _check_skew([lmaps[h] for h in semisimple], tol, "L skewness" + when)
    _check_skew([rmaps[h] for h in semisimple], tol, "R skewness" + when)
    _check_normal_family([lmaps[z] for z in center], tol, "(ii)" + when)
    _check_normal_family([rmaps[z] for z in center], tol, "(ii)" + when)


def _build(spec: ExtensionSpec, tol: float) -> tuple[Bracket, MomentReport]:
    """Check the hypotheses, orthonormalize, assemble and certify.  A spec
    without ``f_bracket`` has f = 0 and every generator central."""
    _check_tol(tol)
    d1 = spec.d1
    if spec.f_bracket is None:
        f, semisimple, center = Bracket.zero(d1), (), tuple(range(d1))
    else:
        f, semisimple, center = spec.f_bracket, spec.semisimple, spec.center
    d_core, core_c, core_type = _core_data(spec, tol)
    _check_core_maps(spec, d_core, tol)
    lmaps, rmaps = spec.left_maps, spec.right_maps
    _check_clauses(f, lmaps, rmaps, semisimple, center, tol)
    if center:
        _check_nonvanishing([(lmaps[z], rmaps[z]) for z in center], tol)

    ads = f.coeffs.transpose(0, 2, 1)
    gram = np.array([
        [-2.0 / core_c * sum(np.trace(x[a] @ x[b].conj().T) for x in (ads, lmaps, rmaps))
         for b in range(d1)]
        for a in range(d1)
    ])
    s = _orthonormalize(gram)
    lmaps, rmaps = _transform(lmaps, s), _transform(rmaps, s)
    f = gl_act(np.linalg.inv(s), f)  # f in the new basis
    # the hypotheses are stated in the orthonormal basis: re-verify there
    _check_clauses(f, lmaps, rmaps, semisimple, center, tol, " after orthonormalization")

    out = _assemble(spec.core, lmaps, rmaps, f.coeffs)
    return out, _certify(out, rmaps, core_c, core_type, tol)


def build_solvable_extension(
    spec: ExtensionSpec, tol: float = DEFAULT_CRITICAL_TOL
) -> tuple[Bracket, MomentReport]:
    """Extend the core by an abelian algebra acting through (L, R).

    This is :func:`build_general_extension` with f = 0 and every generator
    central: the same checks, Gram form and certification.  Returns the
    assembled product with its fresh criticality certificate; the result
    is solvable of the core type with (0; d1) prepended.
    """
    if spec.f_bracket is not None:
        raise ValueError("solvable extension takes no reductive bracket; use the general builder")
    return _build(spec, tol)


def build_general_extension(
    spec: ExtensionSpec, tol: float = DEFAULT_CRITICAL_TOL
) -> tuple[Bracket, MomentReport]:
    """Extend the core by a reductive Lie algebra f = semisimple + center.

    Semisimple generators must act skew-Hermitianly through ad, L and R;
    central generators obey the abelian-extension clauses.  The Gram form
    gains the tr(ad ad*) term.
    """
    f = spec.f_bracket
    if f is None:
        raise ValueError("general extension needs the reductive bracket f_bracket")
    d1 = spec.d1
    if f.dim != d1:
        raise ValueError(f"f_bracket has dimension {f.dim}, expected {d1}")
    if sorted((*spec.semisimple, *spec.center)) != list(range(d1)):
        raise ValueError("semisimple and center must partition the generator indices")
    idr_f = check_identities(f)
    if not f.is_zero and not idr_f.is_lie:
        raise NotLie(
            f"f_bracket is not a Lie algebra (anticommutativity defect "
            f"{idr_f.anticommutativity_residual:.3g}, Jacobi defect {idr_f.jacobi_residual:.3g})"
        )
    return _build(spec, tol)
