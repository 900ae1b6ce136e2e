"""One stabilized SQP subproblem: the saddle-point system at (z_k, lam_k, rho_k).

In coordinates the first-order system is

    H d + J^T l                      = -g
    J d - rho M_Y^{-1} (l - lam_k)   = sum_i c_i y_i,   c_i >= 0
    <l, y_i> <= 0,                     c_i <l, y_i> = 0

with d = z - z_k and l the new multiplier coefficients.  For K = {0} the
cone variables vanish and the symmetric indefinite matrix
[[H, J^T], [J, -rho M_Y^{-1}]] is factorized directly (Bunch-Kaufman).
The cone case runs a primal-dual active set iteration over the generator
complementarities, each trial pattern solved by the same factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.linalg import lapack

from .model import ConeSpec
from .spaces import Functional, InnerProductSpace, PrimalVec

#: Factorizations with a reciprocal condition estimate below this are
#: treated as singular; legitimate stabilized solves stay well above it.
RCOND_FLOOR = 1e-15


class SingularSubproblem(RuntimeError):
    """The assembled saddle matrix is numerically singular."""

    def __init__(self, message: str, condition_estimate: float = np.inf) -> None:
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NoConvergence(RuntimeError):
    """The active-set iteration found no sign-feasible pattern."""


@dataclass
class SaddleSystem:
    """Data of one subproblem: local derivatives plus (rho, lam_k).

    `spaceZ`/`spaceY` provide the metrics (massY enters the stabilization
    block, massZ only the residual norms); `zk` anchors the step so that
    solutions report z_next = z_k + d.  rho = 0 is accepted to expose the
    unstabilized (classical SQP) system for diagnostics.
    """

    H: np.ndarray
    J: np.ndarray
    g: np.ndarray
    Gval: np.ndarray
    rho: float
    lamk: Functional
    zk: PrimalVec
    spaceZ: InnerProductSpace
    spaceY: InnerProductSpace

    def __post_init__(self) -> None:
        self.H = np.asarray(self.H, dtype=float)
        self.J = np.asarray(self.J, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.Gval = np.asarray(self.Gval, dtype=float)
        nz, ny = self.spaceZ.dim, self.spaceY.dim
        if self.H.shape != (nz, nz) or self.J.shape != (ny, nz):
            raise ValueError("saddle system blocks have inconsistent shapes")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        scale = max(np.abs(self.H).max(), 1.0)
        if not np.isfinite(scale):
            raise ValueError("Hessian block is not finite")
        if np.abs(self.H - self.H.T).max() > 1e-10 * scale:
            raise ValueError("Hessian block is not symmetric to 1e-10")


@dataclass
class SubproblemSolution:
    """New iterate pair plus the active generator pattern (0-based)."""

    z_next: PrimalVec
    lam_next: Functional
    active_set: tuple[int, ...]
    inner_iterations: int
    stationarity_residual: float


def assemble_saddle_matrix(sys: SaddleSystem, active: tuple[int, ...] = (),
                           cone: ConeSpec | None = None) -> np.ndarray:
    """Symmetric saddle matrix, optionally bordered by active generators."""
    Minv = sys.spaceY.inverse_mass
    A = np.block([[sys.H, sys.J.T], [sys.J, -sys.rho * Minv]])
    if active:
        YA = cone.generator_matrix[:, list(active)]
        nz, na = sys.spaceZ.dim, len(active)
        top = np.vstack([np.zeros((nz, na)), -YA])
        A = np.block([[A, top], [top.T, np.zeros((na, na))]])
    return A


def _saddle_rhs(sys: SaddleSystem, n_active: int = 0) -> np.ndarray:
    Minv = sys.spaceY.inverse_mass
    rhs = np.concatenate(
        [-sys.g, -sys.Gval - sys.rho * (Minv @ sys.lamk.coeffs), np.zeros(n_active)]
    )
    return rhs


def _factor(A: np.ndarray, rhs: np.ndarray):
    """Bunch-Kaufman solve of A x = rhs and the reciprocal 1-norm condition
    estimate of A; returns (udut, ipiv, x, anorm, rcond)."""
    anorm = float(np.linalg.norm(A, 1))
    udut, ipiv, x, info = lapack.dsysv(A, rhs[:, None], lower=1)
    if info > 0:
        raise SingularSubproblem(
            f"saddle matrix is exactly singular (zero pivot at {info})"
        )
    if info < 0:
        raise RuntimeError(f"dsysv: illegal argument {-info}")
    rcond, _ = lapack.dsycon(udut, ipiv, anorm, lower=1)
    return udut, ipiv, x[:, 0], anorm, rcond


def _factor_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Bunch-Kaufman solve with a condition check and iterative refinement."""
    udut, ipiv, x, anorm, rcond = _factor(A, rhs)
    if rcond < RCOND_FLOOR:
        est = np.inf if rcond == 0.0 else 1.0 / rcond
        raise SingularSubproblem(
            f"saddle matrix is numerically singular "
            f"(condition estimate {est:.2e})",
            condition_estimate=est,
        )
    # Two refinement sweeps recover accuracy lost to scale disparities.
    for _ in range(2):
        r = rhs - A @ x
        if np.linalg.norm(r) <= 1e-15 * (anorm * np.linalg.norm(x) + 1e-300):
            break
        dx, _ = lapack.dsytrs(udut, ipiv, r[:, None], lower=1)
        x = x + dx[:, 0]
    return x


def _solution_from(sys: SaddleSystem, d: np.ndarray, l: np.ndarray,
                   active: tuple[int, ...], iterations: int) -> SubproblemSolution:
    stat = sys.spaceZ.dual_norm_arr(sys.g + sys.J.T @ l + sys.H @ d)
    return SubproblemSolution(
        z_next=PrimalVec(sys.spaceZ, sys.zk.coords + d),
        lam_next=Functional(sys.spaceY, l),
        active_set=active,
        inner_iterations=iterations,
        stationarity_residual=stat,
    )


def solve_equality(sys: SaddleSystem) -> SubproblemSolution:
    """Solve the K = {0} subproblem by one symmetric indefinite solve."""
    nz = sys.spaceZ.dim
    x = _factor_solve(assemble_saddle_matrix(sys), _saddle_rhs(sys))
    return _solution_from(sys, x[:nz], x[nz:], (), 1)


def saddle_condition_estimate(sys: SaddleSystem) -> float:
    """1-norm condition estimate of the assembled saddle matrix."""
    A = assemble_saddle_matrix(sys)
    try:
        *_, rcond = _factor(A, np.zeros(A.shape[0]))
    except SingularSubproblem:
        return np.inf
    return np.inf if rcond == 0.0 else 1.0 / rcond


def _solve_pattern(sys: SaddleSystem, cone: ConeSpec, active: tuple[int, ...]):
    """Solve with <l, y_i> = 0 enforced on `active`, c_i = 0 elsewhere."""
    nz, ny = sys.spaceZ.dim, sys.spaceY.dim
    A = assemble_saddle_matrix(sys, active, cone)
    x = _factor_solve(A, _saddle_rhs(sys, len(active)))
    d, l = x[:nz], x[nz : nz + ny]
    c = np.zeros(cone.m)
    c[list(active)] = x[nz + ny :]
    return d, l, c


def _pattern_feasible(cone: ConeSpec, l: np.ndarray, c: np.ndarray,
                      scale: float) -> bool:
    pairings = cone.generator_matrix.T @ l
    tol = 1e-10 * (1.0 + scale)
    return bool((c >= -tol).all() and (pairings <= tol).all())


def solve_cone(
    sys: SaddleSystem,
    cone: ConeSpec,
    initial_active: tuple[int, ...] | None = None,
) -> SubproblemSolution:
    """Primal-dual active set solve of the cone-constrained subproblem.

    The pattern update marks generator i active when c_i + <l, y_i> > 0
    (primal weight wins over dual slack).  Cycling falls back to exhaustive
    pattern enumeration, exact for the supported generator counts.  The
    initial pattern defaults to the pairings of lam_k; any starting
    pattern reaches the same solution (the subproblem maximizer is
    unique).
    """
    if cone.m == 0:
        raise ValueError("solve_cone requires at least one generator")
    if initial_active is None:
        pair0 = cone.pairings(sys.lamk)
        active = tuple(i for i in range(cone.m) if pair0[i] > -1e-10)
    else:
        active = tuple(sorted(initial_active))
    seen = set()
    max_sweeps = 2 ** min(cone.m, 12) + 5
    for sweep in range(1, max_sweeps + 1):
        seen.add(active)
        try:
            d, l, c = _solve_pattern(sys, cone, active)
        except SingularSubproblem:
            break
        scale = float(np.abs(l).max() + np.abs(c).max())
        if _pattern_feasible(cone, l, c, scale):
            return _solution_from(sys, d, l, active, sweep)
        pairings = cone.generator_matrix.T @ l
        active = tuple(i for i in range(cone.m) if c[i] + pairings[i] > 0.0)
        if active in seen:
            break
    if cone.m > 12:
        raise NoConvergence(
            "active-set iteration cycled; exhaustive enumeration supports "
            "at most 12 generators"
        )
    # Exhaustive fallback over all activity patterns.
    for size in range(cone.m + 1):
        for subset in combinations(range(cone.m), size):
            try:
                d, l, c = _solve_pattern(sys, cone, subset)
            except SingularSubproblem:
                continue
            scale = float(np.abs(l).max() + np.abs(c).max())
            if _pattern_feasible(cone, l, c, scale):
                return _solution_from(sys, d, l, subset, max_sweeps)
    raise NoConvergence("no sign-feasible active set exists for this subproblem")
