"""Numerical verification of the solver's structural hypotheses.

Given a reference solution, the multiplier set is the affine set
{mu : J*^T mu = -g*} intersected with the polar-cone inequalities; the
routines here project multipliers onto it, measure how coercive the
stabilized Hessian pencil is, quantify constraint degeneracy through
metric-weighted singular values, and certify the computable error
estimate empirically.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._scipy import lapack
from .csr import CSR, pattern_of
from .model import ConeSpec, ProblemDef, as_matrix, issparse, nnls, to_dense, transpose_dot
from .spaces import (Functional, InnerProductSpace, PrimalVec, _finite, _solved,
                     euclidean_norm)
from .subproblem import sparse_matrix, sparse_solver

logger = logging.getLogger(__name__)

#: A stored multiplier is a member when its stationarity residual and its
#: generator pairings vanish to this fraction of the size of their terms.
MEMBERSHIP_TOL = 1e-8

#: degeneracy_report counts a metric-weighted singular value as zero at
#: or below this fraction of the largest.
RANK_TOL_FACTOR = 1e-8


class InvalidReference(ValueError):
    """The stored multiplier set is empty or inconsistent."""


@dataclass
class ReferenceSolution:
    """Known solution z* plus the data describing its multiplier set.

    The multiplier set is {mu : j_star^T mu = -g_star, <mu, y_i> <= 0}.
    `lambda_star` stores one member (a reporting anchor), certified at
    construction by matrix-vector products: the stationarity residual and
    the positive generator pairings must be at most MEMBERSHIP_TOL times
    the size of the terms they sum.  The projector onto the set is
    factored on the first projection and cached here, so the data must
    not change after construction.  A sparse `j_star` stays sparse (as
    `CSR`), and the projector factors it as sparse saddle matrices are.

    A caller that knows the set in closed form may pass
    `multiplier_directions`, Y-coefficient columns (dim Y x d, d >= 0)
    whose span it asserts is all of N(j_star^T); the set is then
    lambda_star + their span and the projector factors nothing.  Only
    membership is certified, again by matrix-vector products: for each
    column n the largest entry of |j_star^T n| must be at most
    MEMBERSHIP_TOL times the largest of |j_star|^T |n|.  The columns must
    also be finite and of full column rank, and the cone {0}.
    Completeness is the caller's assertion: a missing direction shrinks
    the set and overstates distances.  The anchor is then only as exact
    as lambda_star, where the computed hull's anchor solves the
    stationarity system.
    """

    z_star: PrimalVec
    j_star: np.ndarray | CSR
    g_star: np.ndarray
    cone: ConeSpec
    lambda_star: Functional
    multiplier_directions: np.ndarray | None = None
    _projector: _Projector | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        J = self.j_star = as_matrix(self.j_star)
        self.g_star = np.asarray(self.g_star, dtype=float)
        lam = self.lambda_star.coeffs
        sizes = abs(J)  # |j_star|, shared with the directions' certificate
        residual = np.abs(transpose_dot(J, lam) + self.g_star).max()
        scale = 1.0 + np.abs(self.g_star).max() + transpose_dot(sizes, np.abs(lam)).max()
        pairing, polar_scale = 0.0, 1.0
        if self.cone.m:
            gens = self.cone.generator_matrix
            pairing = (gens.T @ lam).max()
            polar_scale += (np.abs(gens).T @ np.abs(lam)).max()
        # written so that NaN data fails too
        if not (residual <= MEMBERSHIP_TOL * scale
                and pairing <= MEMBERSHIP_TOL * polar_scale):
            raise InvalidReference(
                "stored multiplier is not in the multiplier set: stationarity "
                f"residual {residual:.3e}, largest generator pairing {pairing:.3e}"
            )
        if self.multiplier_directions is not None:
            self._certify_directions(sizes)

    def _certify_directions(self, sizes) -> None:
        N = self.multiplier_directions = np.asarray(self.multiplier_directions,
                                                    dtype=float)
        if N.ndim != 2 or N.shape[0] != self.space_y.dim:
            raise InvalidReference(
                f"multiplier_directions must have {self.space_y.dim} rows and "
                f"one column per direction, got shape {N.shape}")
        if self.cone.m:
            raise InvalidReference("multiplier_directions need the cone {0}")
        if not np.isfinite(N).all():
            raise InvalidReference("multiplier_directions are not finite")
        # per column, as lambda*'s residual: a bound entry by entry would
        # fail a direction whose zeros are rounded, such as sin(k pi x)
        residual = np.abs(transpose_dot(self.j_star, N)).max(axis=0, initial=0.0)
        scale = transpose_dot(sizes, np.abs(N)).max(axis=0, initial=0.0)
        if not (residual <= MEMBERSHIP_TOL * scale).all():
            raise InvalidReference(
                "a multiplier direction is not in the null space of j_star^T: "
                f"residual {residual.max():.3e}")
        if N.shape[1] and np.linalg.matrix_rank(N) < N.shape[1]:
            raise InvalidReference("multiplier_directions are linearly dependent")

    @property
    def space_y(self) -> InnerProductSpace:
        return self.lambda_star.space


@dataclass(frozen=True)
class _Projector:
    """The multiplier set in whitened coordinates w = L^{-1} mu, M_Y = L L^T.

    There the set is {anchor + basis t : polar t <= bound}.  With
    B = L^T j_star, `anchor` is the minimum-norm solution of B^T w = -g*
    and `basis` (k columns) an orthonormal basis of the null space of B^T;
    the rows of `polar` are the whitened generators whose pairing varies
    on the set, seen from that null space, and `bound` keeps those
    pairings nonpositive, or at the value lambda* takes if that is larger.
    `mu_anchor` and `mu_basis` are L anchor and L basis.  B is formed
    only for a dense j_star; a sparse one is never densified.
    """

    anchor: np.ndarray
    basis: np.ndarray
    mu_anchor: np.ndarray
    mu_basis: np.ndarray
    polar: np.ndarray
    bound: np.ndarray


def _factor_multiplier_set(ref: ReferenceSolution) -> _Projector:
    """Whitened affine hull of the multiplier set, once per reference.

    Declared `multiplier_directions` give the hull without a
    factorization: the basis is the Q factor of the whitened directions
    and the anchor the whitened lambda* less its part along that basis,
    so the anchor is as exact as the certified lambda*, and the span as
    complete as the caller asserted.  Otherwise a dense `j_star` is
    factored by a rank-revealing QR, a scipy.sparse one by inverse
    iteration (`_sparse_affine_hull`); both decide the rank by
    numpy.linalg.lstsq's default cut-off, eps max(shape) times the
    largest whitened column norm, which is |R_00| under column pivoting.
    Membership is decided once, at construction, so the projector never
    rejects: a pairing constant on the set was checked there, and each
    other pairing inequality is relaxed just enough that the certified
    member satisfies it, which is rounding unless lambda* carries a
    certified positive pairing.  The rank rule is not degeneracy_report's
    on purpose: a direction cut at its larger threshold would join the
    set although its members miss stationarity by that singular value.
    """
    Y = ref.space_y
    rcond = np.finfo(float).eps * max(ref.j_star.shape)
    w_star = Y.whiten_dual(ref.lambda_star.coeffs)
    if ref.multiplier_directions is not None:
        basis = np.linalg.qr(Y.whiten_dual(ref.multiplier_directions))[0]
        anchor, cond = w_star - basis @ (basis.T @ w_star), 1.0
    else:
        hull = _sparse_affine_hull if issparse(ref.j_star) else _dense_affine_hull
        anchor, basis, cond = hull(ref.j_star, ref.g_star, Y, rcond)
    W = ref.cone.whitened_generators
    polar = W.T @ basis
    # the computed null space is off by an angle of about rcond * cond,
    # so a generator inside range(B) shows a pairing gradient that small
    movable = (np.linalg.norm(polar, axis=1)
               > rcond * cond * np.linalg.norm(W, axis=0))
    polar = polar[movable]
    t_star = basis.T @ w_star
    return _Projector(
        anchor=anchor,
        basis=basis,
        mu_anchor=Y.unwhiten_dual(anchor),
        mu_basis=Y.unwhiten_dual(basis),
        polar=polar,
        bound=np.maximum(-(W.T @ anchor)[movable], polar @ t_star),
    )


def _dense_affine_hull(J: np.ndarray, g: np.ndarray, Y: InnerProductSpace,
                       rcond: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(anchor, basis, cond) of B^T w = -g for B = L^T J, by pivoted QR.

    The LAPACK calls scipy.linalg.qr(pivoting=True) and solve_triangular
    make, with the workspace sizes scipy asks for, without their
    wrappers, which at small sizes cost more than the calls.
    """
    B = _finite(Y.whiten(J))
    m = B.shape[0]
    qr, piv, tau = _lapack(lapack.dgeqp3, B, overwrite_a=1)[:3]
    piv -= 1  # LAPACK counts columns from 1
    diag = np.abs(np.diagonal(qr))
    rank = int(np.count_nonzero(diag > rcond * diag[0]))
    # Q is m x m: the first min(m, n) columns hold the reflectors, and
    # dorgqr sets the others before it reads them
    Q = np.empty((m, m), order="F")
    Q[:, : tau.size] = qr[:, : tau.size]
    Q = _lapack(lapack.dorgqr, Q, tau, overwrite_a=1)[0]
    # B[:, piv] = Q R, so B^T w = -g reads R^T (Q^T w) = -g[piv]; R^T is
    # the lower triangle of the transposed block (its upper one holds
    # reflectors, which dtrtrs does not read), the form solve_triangular
    # passes, whose rounding differs from an upper transposed solve's
    coords = (_solved(lapack.dtrtrs(qr[:rank, :rank].T, -g[piv[:rank]], lower=1), "dtrtrs")
              if rank else np.zeros(0))
    basis = Q[:, rank:].copy()  # keeps k columns, not all of Q
    cond = diag[0] / diag[rank - 1] if rank else 1.0
    return Q[:, :rank] @ coords, basis, cond


def _lapack(routine, *args, **kwargs) -> tuple:
    """routine(*args, **kwargs) with the optimal workspace, which a first
    call with lwork = -1 reports, as scipy asks for it; without the
    trailing work array and info."""
    lwork = int(routine(*args, lwork=-1, **kwargs)[-2][0])
    *out, _, info = routine(*args, lwork=lwork, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine.__name__} failed with info {info}")
    return tuple(out)


#: Columns of the sparse path's first null-space block; the block doubles
#: while every Ritz value is null.
START_BLOCK = 2

#: Limit on the sparse path's anchor refinements, which otherwise run
#: while each one at least halves the residual.
MAX_SWEEPS = 30


def _sparse_affine_hull(J: CSR, g: np.ndarray, Y: InnerProductSpace,
                        rcond: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(anchor, basis, cond) of B^T w = -g for B = L^T J, iteratively.

    The shifted Jordan-Wielandt matrix K = [[-s I, J], [J^T, -s I]], with
    s the rank cut-off on J's own scale, is factored once, as the sparse
    saddle matrices are (`subproblem.sparse_solver`).  The top-left
    block of K^{-1} is s (J J^T - s^2 I)^{-1}: it scales N(J^T) by -1/s
    and a range direction of singular value sigma by about s / sigma^2, so
    block inverse iteration through it finds N(J^T) without forming J J^T:
    each sweep shrinks a range direction against N(J^T) by (s / sigma)^2.
    A random block takes two sweeps.  Each solves through K,
    orthonormalizes, and rotates the block to the Ritz vectors of J^T Q,
    null ones first, which keeps the others orthogonal to N(J^T) and
    turns them towards the smallest nonzero singular values.  The rank
    and the basis come from a Rayleigh-Ritz SVD of B^T on the whitened
    block, and cond is the largest whitened column norm over the
    smallest Ritz value above the cut-off; while every Ritz value is
    null, the block doubles from START_BLOCK columns and starts again.
    The anchor solves K [x; y] = [0; -g], which gives J^T x = -g up to a
    relative s^2 / sigma^2, and is refined against the residual
    -g - J^T x until a refinement no longer halves it (one that does not
    lower it is dropped), at most MAX_SWEEPS times; whitened and cleared
    of its null-space component it is the minimum-norm solution.
    """
    n, m = J.shape
    massed, squares = _column_norms(J, Y)
    top = np.sqrt(Y.mass_scale * massed.max())
    s = rcond * np.sqrt(squares.max())
    if s == 0.0:  # J = 0, so the certified g* is 0 and the set is all of Y
        return np.zeros(n), np.eye(n), 1.0
    diagonal = np.arange(n + m + 1)  # the identity's indptr and indices
    identity = pattern_of((n + m, n + m), diagonal, diagonal[:-1])
    solve_K, _ = sparse_solver(sparse_matrix(
        n + m, [(0, 0, False, identity), (0, n, False, J.pattern),
                (n, 0, True, J.pattern)],
        [np.full(n + m, -s), J.data, J.data]))
    JT = J.T  # one transpose for every product below

    def solve(upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
        return solve_K(np.concatenate([upper, lower]))[:n]

    rng = np.random.default_rng(0)  # a local stream: no global state
    p = min(n, START_BLOCK)
    while True:
        X = rng.standard_normal((n, p))
        for _ in range(2):
            Q = np.linalg.qr(solve(X, np.zeros((m, p))))[0]
            X = Q @ _ritz(JT.dot(Q))[1][::-1].T  # ascending Ritz values: null first
        Q = np.linalg.qr(Y.whiten_dual(X))[0]
        svals, right = _ritz(JT.dot(Y.unwhiten_dual(Q)))
        kept = svals > rcond * top
        if kept.any() or p == n:
            break
        p = min(2 * p, n)
    basis = Q @ right[~kept].T
    cond = top / svals[kept].min() if kept.any() else 1.0

    x, residual = np.zeros(n), -g
    for _ in range(MAX_SWEEPS):
        refined = x + solve(np.zeros(n), residual)
        remaining = -g - transpose_dot(J, refined)
        before, after = np.linalg.norm(residual), np.linalg.norm(remaining)
        if not after < before:
            break
        x, residual = refined, remaining
        if after > 0.5 * before:
            break
    anchor = Y.whiten_dual(x)
    return anchor - basis @ (basis.T @ anchor), basis, cond


def _column_norms(J: CSR, Y: InnerProductSpace) -> tuple[np.ndarray, np.ndarray]:
    """The column sums of J o (M^ J) and of J o J (o the entrywise
    product, M^ = M_Y / tau): the squared whitened column norms of J over
    tau, and the squared column norms, by scipy.sparse."""
    J, Mh = J.to_scipy(), Y.scaled_mass(sparse=True).to_scipy()
    return (np.asarray(J.multiply(Mh @ J).sum(axis=0)).ravel(),
            np.asarray(J.multiply(J).sum(axis=0)).ravel())


def _ritz(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (rows) of C.

    A wide C (fewer rows than columns) gets its full right factor, with
    the missing singular values counted as zeros, so that no null
    direction of C is lost.
    """
    wide = C.shape[0] < C.shape[1]
    _, svals, right = np.linalg.svd(C, full_matrices=wide)
    return np.concatenate([svals, np.zeros(right.shape[0] - svals.size)]), right


def multiplier_distance(
    ref: ReferenceSolution, lam: Functional
) -> tuple[float, Functional]:
    """Dual-norm projection of lam onto the multiplier set at z*.

    Minimizes |lam - mu|_{Y*} subject to j_star^T mu = -g_star and, for a
    nontrivial cone, <mu, y_i> <= 0.  In whitened coordinates the affine
    part is anchor + span(basis), so a projection costs one triangular
    solve and k matrix-vector products; pairing constraints turn the k
    null-space coordinates into a least-distance problem.  The factored
    set is cached on `ref` by the first call.  Returns (distance,
    projection).
    """
    proj = ref._projector
    if proj is None:
        proj = ref._projector = _factor_multiplier_set(ref)
    v = ref.space_y.whiten_dual(lam.coeffs)
    # .dot is @ without matmul's dispatch, which dominates at small sizes
    t = proj.basis.T.dot(v)
    if proj.polar.size:
        t = t + _least_distance(-proj.polar, proj.polar @ t - proj.bound)
    dist = euclidean_norm(v - proj.anchor - proj.basis.dot(t))
    return dist, Functional(ref.space_y, proj.mu_anchor + proj.mu_basis.dot(t))


def _least_distance(G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Shortest x with G x >= h for a feasible system (Lawson & Hanson
    1974, ch. 23).

    Rows are scaled to unit normals.  For E = [G^T; h^T / max h] and
    f = e_{k+1}, the nonnegative least-squares solution u has residual
    r = E u - f with x = -max(h) r[:k] / r[k] and
    -r[k] = 1 / (1 + |x|^2 / max(h)^2); the constraints where u > 0 hold
    with equality at x.
    """
    k = G.shape[1]
    if h.max() <= 0.0:
        return np.zeros(k)
    norms = np.linalg.norm(G, axis=1)
    G = G / norms[:, None]
    h = h / norms
    E = np.vstack([G.T, h / h.max()])
    f = np.zeros(k + 1)
    f[k] = 1.0
    u, _ = nnls(E, f)
    # x lies in the span of the rows where u > 0 and meets them with
    # equality: re-solve that small system, which is more accurate than
    # the quotient of residual entries and stays defined when a set
    # pinched to a point makes r[k] vanish
    active = u > 0.0
    x, *_ = np.linalg.lstsq(G[active], h[active], rcond=None)
    return x


def _whitened_jacobian(J, Z: InnerProductSpace, Y: InnerProductSpace) -> np.ndarray:
    """C = L_Y^T J L_Z^{-T} for the metric factors M = L L^T, dense."""
    return Z.whiten_dual(Y.whiten(to_dense(J)).T).T


def coercivity_margin(H, J, Z: InnerProductSpace, Y: InnerProductSpace,
                      rho: float | Sequence[float]) -> float | list[float]:
    """Smallest eigenvalue of H + (1/rho) J^T M_Y J in the M_Z metric.

    The second term is the squared Y-norm of the linearized constraint,
    so the margin measures how much the stabilization term restores
    coercivity of an indefinite Hessian.  It is computed whitened, as the
    smallest eigenvalue of L_Z^{-1} H L_Z^{-T} + C^T C / rho.  A sequence
    of rho gives the list of their margins; H and J are whitened once.
    """
    if not (np.asarray(rho) > 0).all():  # written so that NaN fails too
        raise ValueError("rho must be positive")
    C = _whitened_jacobian(J, Z, Y)
    H, CtC = Z.whiten_dual(Z.whiten_dual(to_dense(H)).T), C.T @ C
    margins = []
    for r in np.atleast_1d(rho):
        A = CtC / r  # 0.5 (A + A^T) for A = H + C^T C / rho, formed in place
        A += H
        A += A.T  # numpy reads the overlapping A.T from a copy
        A *= 0.5
        margins.append(_smallest_eigenvalue(A))
    return margins if np.ndim(rho) else margins[0]


def _smallest_eigenvalue(A: np.ndarray) -> float:
    """scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])[0] of a symmetric
    A: its LAPACK call, dsyevr for the first eigenvalue only, with the
    workspace sizes dsyevr_lwork reports, without its wrapper."""
    lwork, liwork, _ = lapack.dsyevr_lwork(A.shape[0], lower=1)
    w, _, _, _, info = lapack.dsyevr(_finite(A), compute_v=0, range="I", il=1, iu=1,
                                     lower=1, lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info {info}")
    return float(w[0])


@dataclass
class DegeneracyReport:
    singular_values: np.ndarray
    rank_tol: float
    rcq_satisfied: bool


def degeneracy_report(p: ProblemDef, z: PrimalVec) -> DegeneracyReport:
    """Metric-weighted singular values of the constraint Jacobian at z.

    The Jacobian is whitened by the Cholesky factors of both mass
    matrices, so the singular values measure the map Z -> Y in the
    correct norms.  Surjectivity (the equality-constrained constraint
    qualification) holds when the smallest of the Y.dim values exceeds
    rank_tol = RANK_TOL_FACTOR * largest: this flags a qualification
    that nearly fails, while the projector (`_factor_multiplier_set`)
    cuts at eps max(shape) |L_Y^T J|, for the null space to rounding.
    """
    C = _whitened_jacobian(p.jac_G(z), p.Z, p.Y)
    svals = np.linalg.svd(C, compute_uv=False)
    rank_tol = RANK_TOL_FACTOR * (svals[0] if svals.size else 0.0)
    surjective = svals.size >= p.Y.dim and bool(svals[p.Y.dim - 1] > rank_tol)
    return DegeneracyReport(svals, float(rank_tol), surjective)


def error_estimate_ratio(
    ref: ReferenceSolution, p: ProblemDef, samples
) -> float:
    """Largest ratio (true error) / (computable residual) over samples.

    Each sample is a (z, lam) pair; the computable residual is the KKT
    stationarity plus feasibility residual at (z, lam), which is
    |L'_z(z, lam)|_{Z*} + |G(z)|_Y for K = {0}.  Samples at the reference
    itself (0/0) are skipped; a vanishing residual with nonzero error
    yields infinity.
    """
    worst = 0.0
    for i, (z, lam) in enumerate(samples):
        num = p.Z.norm_arr(z.coords - ref.z_star.coords)
        num += multiplier_distance(ref, lam)[0]
        den = p.kkt_residual(z, lam).eta
        if den <= 1e-15:
            if num <= 1e-13:
                continue
            logger.warning(
                "sample %d has zero residual but error %.3e; ratio is infinite",
                i, num,
            )
            return float(np.inf)
        worst = max(worst, num / den)
    return worst
