"""Shipped benchmark problems with certified reference solutions.

Three families:

* ``degenerate-line``: two variables, two redundant scalar constraints
  pinning the first coordinate, so the constraint Jacobian has rank one
  everywhere and the multiplier set at the solution is a whole line.
* ``cone-active``: the smallest nontrivial cone instance; the solution
  sits on the cone boundary with a boundary multiplier.
* ``eigencontrol-n49``: a 1-D finite-difference bilinear control problem
  (state u, scalar coefficient q, constraint -u'' + q u = 0) tuned so
  that q sits at a discrete eigenvalue of the Laplacian.  There the
  linearized constraint loses surjectivity and the multipliers form a
  line spanned by the eigenfunction.

Reference solutions come from closed forms or an enumeration oracle,
never from the solver itself, and every reference is certified by the
KKT residual when the benchmark is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

from typing import Callable

import numpy as np

from .csr import CSR, Pattern, pattern_of
from .diagnostics import ReferenceSolution, degeneracy_report
from .model import ConeSpec, KKTResidual, ProblemDef, empty_cone
from .spaces import Functional, InnerProductSpace, PrimalVec

#: eigencontrol's build and solve are O(n): sparse callbacks, banded
#: metrics and a closed-form reference.  The cap stays for what reads the
#: problem densely: the notes' full singular value decomposition and the
#: coercivity margin of `ssqp diagnose`, O(n^3) time and O(n^2) memory.
MAX_GRID_POINTS = 2000


#: A reference is certified when its KKT residual's total is at most this.
KKT_TOL = 1e-9


@dataclass
class BenchmarkProblem:
    """A problem with its certified reference, default start and notes.

    The reference is certified at construction, by one KKT residual:
    `reference_kkt`, which a builder that has evaluated it passes, or
    else the one evaluated here.  A total above KKT_TOL raises
    ValueError naming the benchmark.

    `describe` computes the notes; `notes` calls it on first read and
    caches the string.  For eigencontrol that is a dense singular value
    decomposition, O(n^3), which no solve needs.
    """

    name: str
    problem: ProblemDef
    reference: ReferenceSolution | None
    certified_radius: float
    describe: Callable[[], str]
    default_start_offset: np.ndarray = field(default=None)  # type: ignore[assignment]
    default_lambda0: np.ndarray = field(default=None)  # type: ignore[assignment]
    reference_kkt: KKTResidual | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.default_start_offset is None:
            self.default_start_offset = np.zeros(self.problem.Z.dim)
        if self.default_lambda0 is None:
            self.default_lambda0 = np.zeros(self.problem.Y.dim)
        if self.reference is not None:
            if self.reference_kkt is None:
                self.reference_kkt = self.problem.kkt_residual(
                    self.reference.z_star, self.reference.lambda_star)
            total = self.reference_kkt.total
            if total > KKT_TOL:
                raise ValueError(
                    f"{self.name}: reference fails the KKT test ({total:.3e})")

    @functools.cached_property
    def notes(self) -> str:
        return self.describe()

    def default_start(self) -> tuple[PrimalVec, Functional]:
        base = (
            self.reference.z_star.coords
            if self.reference is not None
            else np.zeros(self.problem.Z.dim)
        )
        z0 = self.problem.Z.vector(base + self.default_start_offset)
        lam0 = self.problem.Y.functional(self.default_lambda0)
        return z0, lam0


def _degeneracy_note(p: ProblemDef, z: PrimalVec) -> str:
    rep = degeneracy_report(p, z)
    svals = ", ".join(f"{s:.3e}" for s in rep.singular_values[:6])
    suffix = ", ..." if rep.singular_values.size > 6 else ""
    return (
        f"singular values at reference: [{svals}{suffix}]; "
        f"constraint qualification satisfied: {rep.rcq_satisfied}"
    )


def make_degenerate_line(mass_z=None, mass_y=None) -> BenchmarkProblem:
    """Rank-deficient two-variable instance with a line of multipliers.

    f(x) = x1 + |x|^2 / 2 and G(x) = (x1, x1 + x1^2): both constraints
    pin x1 = 0 near the origin, so G'(0) has rank one and every lambda
    with lambda1 + lambda2 = -1 is a multiplier.  Optional mass matrices
    change only the metric (and hence the projected multiplier), not the
    solution set.
    """
    Z = InnerProductSpace(mass_z) if mass_z is not None else InnerProductSpace.identity(2)
    Y = InnerProductSpace(mass_y) if mass_y is not None else InnerProductSpace.identity(2)
    if Z.dim != 2 or Y.dim != 2:
        raise ValueError("degenerate-line uses two-dimensional Z and Y")

    def f(z: PrimalVec) -> float:
        x = z.coords
        return float(x[0] + 0.5 * (x @ x))

    def grad_f(z: PrimalVec) -> Functional:
        x = z.coords
        return Functional(Z, np.array([1.0 + x[0], x[1]]))

    def G(z: PrimalVec) -> PrimalVec:
        x1 = z.coords[0]
        return PrimalVec(Y, np.array([x1, x1 + x1 * x1]))

    def jac_G(z: PrimalVec) -> np.ndarray:
        x1 = z.coords[0]
        return np.array([[1.0, 0.0], [1.0 + 2.0 * x1, 0.0]])

    def hess_L(z: PrimalVec, lam: Functional) -> np.ndarray:
        # second constraint contributes lam2 * d^2(x1^2)
        return np.array([[1.0 + 2.0 * lam.coeffs[1], 0.0], [0.0, 1.0]])

    problem = ProblemDef(Z, Y, empty_cone(Y), f, grad_f, G, jac_G, hess_L)
    z_star = Z.vector([0.0, 0.0])
    lam_hat = Y.functional([-0.5, -0.5])
    if mass_y is not None:
        # keep the stored anchor the metric projection of zero onto the line
        dist_dir = Y.apply_mass(np.ones(2))
        lam_hat = Y.functional(-dist_dir / dist_dir.sum())
    reference = ReferenceSolution(
        z_star=z_star,
        j_star=jac_G(z_star),
        g_star=grad_f(z_star).coeffs,
        cone=problem.cone,
        lambda_star=lam_hat,
    )
    return BenchmarkProblem(
        name="degenerate-line",
        problem=problem,
        reference=reference,
        certified_radius=0.1,
        describe=functools.partial(_degeneracy_note, problem, z_star),
        default_start_offset=np.array([0.1, 0.1]),
        default_lambda0=np.array([-0.6, -0.45]),
    )


def _cone_kkt_enumeration(H, center, cone: ConeSpec):
    """Reference oracle for quadratic f, identity G: enumerate activity
    patterns of the exact KKT system and return the feasible minimizer."""
    n = H.shape[0]
    YG = cone.generator_matrix
    m = cone.m
    best = None
    for size in range(m + 1):
        for active in combinations(range(m), size):
            # unknowns: x, lam, c_active; c_i = 0 off the pattern
            na = len(active)
            idx = list(active)
            A = np.zeros((2 * n + na, 2 * n + na))
            rhs = np.zeros(2 * n + na)
            A[:n, :n] = H
            A[:n, n : 2 * n] = np.eye(n)
            rhs[:n] = H @ center
            A[n : 2 * n, :n] = np.eye(n)
            if na:
                A[n : 2 * n, 2 * n :] = -YG[:, idx]
                A[2 * n :, n : 2 * n] = YG[:, idx].T
            try:
                sol = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                continue
            x, lam, c = sol[:n], sol[n : 2 * n], sol[2 * n :]
            if (c < -1e-12).any():
                continue
            if (YG.T @ lam > 1e-12).any():
                continue
            inactive = [i for i in range(m) if i not in active]
            full_c = np.zeros(m)
            full_c[idx] = c
            # feasibility of x itself: G(x) = x must equal YG @ full_c
            if np.abs(x - YG @ full_c).max() > 1e-10:
                continue
            val = 0.5 * (x - center) @ H @ (x - center)
            if best is None or val < best[0]:
                best = (val, x, lam)
    if best is None:
        raise RuntimeError("cone enumeration oracle found no KKT point")
    return best[1], best[2]


def make_cone_instance() -> BenchmarkProblem:
    """Distance-to-point objective constrained to the half-line cone.

    f(x) = |x - (0, -1)|^2 / 2 with G(x) = x required to lie in the cone
    spanned by y1 = (1, 0).  The solution is the cone vertex with the
    boundary multiplier (0, -1), pairing to zero against y1.
    """
    Z = InnerProductSpace.identity(2)
    Y = InnerProductSpace.identity(2)
    cone = ConeSpec(Y, (Y.vector([1.0, 0.0]),))
    center = np.array([0.0, -1.0])

    def f(z: PrimalVec) -> float:
        d = z.coords - center
        return float(0.5 * (d @ d))

    def grad_f(z: PrimalVec) -> Functional:
        return Functional(Z, z.coords - center)

    def G(z: PrimalVec) -> PrimalVec:
        return PrimalVec(Y, z.coords.copy())

    def jac_G(z: PrimalVec) -> np.ndarray:
        return np.eye(2)

    def hess_L(z: PrimalVec, lam: Functional) -> np.ndarray:
        return np.eye(2)

    problem = ProblemDef(Z, Y, cone, f, grad_f, G, jac_G, hess_L)
    x_star, lam_star = _cone_kkt_enumeration(np.eye(2), center, cone)
    z_star = Z.vector(x_star)
    reference = ReferenceSolution(
        z_star=z_star,
        j_star=jac_G(z_star),
        g_star=grad_f(z_star).coeffs,
        cone=cone,
        lambda_star=Y.functional(lam_star),
    )
    return BenchmarkProblem(
        name="cone-active",
        problem=problem,
        reference=reference,
        certified_radius=1.0,
        describe=functools.partial(_degeneracy_note, problem, z_star),
        default_start_offset=np.array([0.05, -0.85]),
        default_lambda0=np.array([0.0, 0.0]),
    )


def _fd_stencil(n: int) -> tuple[float, float]:
    """(a, d) = (-1/h^2, 2/h^2), the off-diagonal and diagonal entries of
    the n-point difference Laplacian."""
    h = 1.0 / (n + 1)
    return -1.0 / h**2, 2.0 / h**2


def fd_laplacian(n: int) -> CSR:
    """Central-difference Laplacian on n interior points of (0, 1), as a
    `CSR` matrix: row i holds a, d, a at columns i - 1, i, i + 1 (see
    `_fd_stencil`), the first and last rows without the column outside.

    Its pattern is made directly, not interned by `csr.pattern_of`, so it
    takes no place in that memo; the pattern is this matrix's alone.
    """
    a, d = _fd_stencil(n)
    # the 3 n entries k of the stencil rows, (k // 3, k // 3 + k % 3 - 1),
    # less the first and the last, whose columns lie outside
    k = np.arange(1, 3 * n - 1)
    indices = k // 3 + k % 3 - 1
    indptr = np.clip(3 * np.arange(n + 1) - 1, 0, 3 * n - 2)
    data = np.full(3 * n - 2, a)
    data[::3] = d
    for arr in (indptr, indices):
        arr.flags.writeable = False
    return CSR(Pattern((n, n), indptr, indices), data)


def fd_eigenvalue(n: int, mode: int) -> float:
    """Discrete eigenvalue of the n-point difference Laplacian."""
    h = 1.0 / (n + 1)
    return (2.0 / h**2) * (1.0 - np.cos(mode * np.pi * h))


def make_eigencontrol(
    n: int = 49,
    alpha: float = 1.0,
    q_d: float | None = None,
    u_d_mode: int = 1,
    u_d_amp: float = 0.0,
) -> BenchmarkProblem:
    """Discretized bilinear optimal control with an eigenvalue coefficient.

    State u on n interior grid points, scalar control q, constraint
    A u + q u = 0 with the difference Laplacian A.  The state lives in a
    discrete H^2 metric h (I + A^T A), the constraint space carries the
    lumped L^2 metric h I, and the objective is
    |u - u_d|_{L2}^2 / 2 + alpha (q - q_d)^2 / 2.

    With q_d at the discrete eigenvalue (the default) and u_d orthogonal
    to the eigenfunction, the branch of eigenfunction states and the
    trivial branch u = 0 meet at (0, q_d): the Jacobian there is rank
    deficient and the multipliers form a line along the eigenfunction.
    Both branch points, (u_d_amp phi, q_h) and (0, q_d), and their
    multipliers (multiples of phi) are known in closed form.  Each is
    certified by the KKT residual, and the reference is the certified
    branch with the smaller objective, the eigen branch on a tie.
    """
    if n < 3:
        raise ValueError("need at least 3 interior grid points")
    if n > MAX_GRID_POINTS:
        raise ValueError(f"the build supports at most {MAX_GRID_POINTS} points")
    # each comparison fails for NaN
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    for name, value in (("q_d", q_d), ("u_d_amp", u_d_amp)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 1 <= u_d_mode <= n:
        raise ValueError(f"u_d_mode must lie in 1..{n}")

    h = 1.0 / (n + 1)
    x_grid = h * np.arange(1, n + 1)
    A = fd_laplacian(n)
    lam_h = fd_eigenvalue(n, u_d_mode)
    q_h = -lam_h
    if q_d is None:
        q_d = q_h
    phi = np.sin(u_d_mode * np.pi * x_grid)
    u_d = u_d_amp * phi

    # Both metrics are written in band storage.  Z's is block diagonal:
    # the state's h (I + A^T A) in the first n columns, the control's mass
    # 1 in the last, with no coupling.  h (I + A^T A) is pentadiagonal:
    # with A's stencil a, d, row i of A^T A sums a a + d d + a a on the
    # diagonal (the first and last rows miss one a a), d a + a d next to
    # it and a a two off; so summed, the bands have the bits of
    # scipy.sparse's h * (I + A.T @ A).
    a, d = _fd_stencil(n)
    state_bands = np.zeros((3, n))
    state_bands[0] = 1.0 + (d * d + a * a + a * a)
    state_bands[0, [0, -1]] = 1.0 + (d * d + a * a)
    state_bands[1, :-1] = d * a + a * d
    state_bands[2, :-2] = a * a
    z_bands = np.zeros((3, n + 1))
    z_bands[:, :n] = h * state_bands
    z_bands[0, n] = 1.0
    Z = InnerProductSpace._banded(z_bands)
    Y = InnerProductSpace.diagonal(np.full(n, h))

    def split(z: PrimalVec) -> tuple[np.ndarray, float]:
        u = z.coords[:n]
        return u, float(z.coords[n])

    def f(z: PrimalVec) -> float:
        u, q = split(z)
        du = u - u_d
        return float(0.5 * h * (du @ du) + 0.5 * alpha * (q - q_d) ** 2)

    def grad_f(z: PrimalVec) -> Functional:
        u, q = split(z)
        return Functional(Z, np.concatenate([h * (u - u_d), [alpha * (q - q_d)]]))

    def G(z: PrimalVec) -> PrimalVec:
        u, q = split(z)
        return PrimalVec(Y, A.dot(u) + q * u)

    # The Jacobian [A + q I | u] and the arrow Hessian
    # [[h I, lam], [lam^T, alpha]] keep their sparsity patterns, interned
    # here once by `csr.pattern_of` (read-only, so a caller cannot edit
    # them), so each call only fills the data array of its pattern through
    # slots fixed here and returns it as a `csr.CSR`.  Row i of the
    # Jacobian stores A's row i and then u_i, so A's entries move on by
    # their row.
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    jac_indptr = A.indptr + np.arange(n + 1)
    u_slots = jac_indptr[1:] - 1
    a_slots = np.arange(A.nnz) + rows
    jac_indices = np.empty(A.nnz + n, dtype=A.indices.dtype)
    jac_indices[a_slots] = A.indices
    jac_indices[u_slots] = n
    on_diagonal = A.indices == rows
    # the arrow stores (i, i) and (i, n) in each row i < n, then row n
    arrow_indptr = np.append(2 * np.arange(n + 1), 3 * n + 1)
    arrow_indices = np.concatenate([
        np.column_stack([np.arange(n), np.full(n, n)]).ravel(), np.arange(n + 1),
    ])
    jac_pattern = pattern_of((n, n + 1), jac_indptr, jac_indices)
    arrow_pattern = pattern_of((n + 1, n + 1), arrow_indptr, arrow_indices)

    def jac_G(z: PrimalVec) -> CSR:
        u, q = split(z)
        data = np.empty(A.nnz + n)
        data[a_slots] = A.data + q * on_diagonal
        data[u_slots] = u
        return CSR(jac_pattern, data)

    def hess_L(z: PrimalVec, lam: Functional) -> CSR:
        data = np.empty(3 * n + 1)
        data[: 2 * n : 2] = h
        data[1 : 2 * n : 2] = data[2 * n : 3 * n] = lam.coeffs
        data[3 * n] = alpha
        return CSR(arrow_pattern, data)

    problem = ProblemDef(Z, Y, empty_cone(Y), f, grad_f, G, jac_G, hess_L)

    # Both branches in closed form.  On the eigen branch (c phi, q_h) the
    # objective is h |phi|^2 (c - u_d_amp)^2 / 2 plus a constant, so
    # c = u_d_amp; the trivial branch is (0, q_d).  At either point the
    # state rows of stationarity read (A + q I) lam = h (u_d - u), a
    # multiple of the eigenfunction phi, so the multipliers are t phi with
    # t fixed by the remaining row (or 0 where that row leaves it free).
    # eigen_t grows like 1 / u_d_amp.  It is computed in Python floats,
    # which overflow to inf without a warning, and a branch whose
    # multiplier has no finite squared norm |t phi|^2_{Y*} is rejected
    # before its KKT residual, whose dual norms would overflow.
    phi_sq, shift = float(phi @ phi), float(lam_h + q_d)
    eigen_t = (float(alpha) * float(q_d - q_h) / (float(u_d_amp) * phi_sq)
               if u_d_amp else 0.0)
    trivial_t = h * float(u_d_amp) / shift if shift else 0.0
    branches = {
        "eigen": (Z.vector(np.concatenate([u_d, [q_h]])), eigen_t),
        "trivial": (Z.vector(np.concatenate([np.zeros(n), [q_d]])), trivial_t),
    }
    residuals = {name: problem.kkt_residual(z, Y.functional(t * phi))
                 for name, (z, t) in branches.items()
                 if math.isfinite(t * t * phi_sq / h)}
    certified = [name for name, kkt in residuals.items() if kkt.total <= KKT_TOL]
    # the certified branch with the smaller objective, eigen on a tie; the
    # notes describe the eigen point when neither branch certifies
    best = min(certified, key=lambda name: f(branches[name][0]), default="eigen")
    z_star, t_star = branches[best]
    # At (0, q_h) the Jacobian is [A - lam_h I | 0]; A's eigenvalues are
    # simple, so the multiplier set is lambda* + span{phi}, declared here.
    # Elsewhere the projector works the set out from the Jacobian.
    at_eigenvalue = not z_star.coords[:n].any() and z_star.coords[n] == q_h
    reference = ReferenceSolution(
        z_star=z_star,
        j_star=jac_G(z_star),
        g_star=grad_f(z_star).coeffs,
        cone=problem.cone,
        lambda_star=Y.functional(t_star * phi),
        multiplier_directions=phi[:, None] if at_eigenvalue else None,
    ) if certified else None

    # Default start: eigenfunction + low-mode wiggle in u, small q shift,
    # normalized to a fraction of the certified radius in the Z metric.
    certified_radius = 2e-2
    phi2 = np.sin(2 * np.pi * x_grid)
    direction = np.concatenate([phi + 0.3 * phi2, [0.5]])
    direction /= Z.norm_arr(direction)
    offset = 0.5 * certified_radius * direction
    branches_note = (f"certified branches: {', '.join(certified)}" if certified
                     else "no reference certified for these parameters")
    return BenchmarkProblem(
        name=f"eigencontrol-n{n}",
        problem=problem,
        reference=reference,
        certified_radius=certified_radius,
        describe=lambda: f"{_degeneracy_note(problem, z_star)}; {branches_note}",
        default_start_offset=offset,
        default_lambda0=np.zeros(n),
        reference_kkt=residuals[best] if certified else None,
    )


_REGISTRY = {
    "degenerate-line": make_degenerate_line,
    "cone-active": make_cone_instance,
    "eigencontrol-n49": functools.partial(make_eigencontrol, n=49),
}


def list_benchmarks() -> list[str]:
    """Registered benchmark names, in registration order."""
    return list(_REGISTRY)


def get_benchmark(name: str, **overrides) -> BenchmarkProblem:
    """Build a registered benchmark; overrides reach the factory."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None
    return factory(**overrides)
