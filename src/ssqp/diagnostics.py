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

import numpy as np
import scipy.linalg

from .model import ConeSpec, ProblemDef, nnls, to_dense
from .spaces import Functional, InnerProductSpace, PrimalVec

logger = logging.getLogger(__name__)

#: A stored multiplier is a member when its stationarity residual and its
#: generator pairings vanish to this fraction of the size of their terms.
MEMBERSHIP_TOL = 1e-8


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
    not change after construction.  A scipy.sparse `j_star` is stored
    dense, as the projector's QR needs.
    """

    z_star: PrimalVec
    j_star: np.ndarray
    g_star: np.ndarray
    cone: ConeSpec
    lambda_star: Functional
    _projector: _Projector | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.j_star = to_dense(self.j_star)
        self.g_star = np.asarray(self.g_star, dtype=float)
        lam = self.lambda_star.coeffs
        residual = np.abs(self.j_star.T @ lam + self.g_star).max()
        scale = (1.0 + np.abs(self.g_star).max()
                 + (np.abs(self.j_star).T @ np.abs(lam)).max())
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
    `mu_anchor` and `mu_basis` are L anchor and L basis.
    """

    anchor: np.ndarray
    basis: np.ndarray
    mu_anchor: np.ndarray
    mu_basis: np.ndarray
    polar: np.ndarray
    bound: np.ndarray


def _factor_multiplier_set(ref: ReferenceSolution) -> _Projector:
    """Rank-revealing QR of the whitened Jacobian, once per reference.

    Membership is decided once, at construction, so the projector never
    rejects: a pairing constant on the set was checked there, and each
    other pairing inequality is relaxed just enough that the certified
    member satisfies it, which is rounding unless lambda* carries a
    certified positive pairing.
    """
    Y = ref.space_y
    B = Y.whiten(ref.j_star)
    Q, R, piv = scipy.linalg.qr(B, overwrite_a=True, pivoting=True)
    diag = np.abs(np.diag(R))
    # numpy.linalg.lstsq's default cut-off, with |R_00| as the largest
    # singular value
    rcond = np.finfo(float).eps * max(B.shape)
    rank = int(np.count_nonzero(diag > rcond * diag[0]))
    # B[:, piv] = Q R, so B^T w = -g* reads R^T (Q^T w) = -g*[piv]
    coords = scipy.linalg.solve_triangular(
        R[:rank, :rank], -ref.g_star[piv[:rank]], trans="T"
    )
    anchor = Q[:, :rank] @ coords
    basis = Q[:, rank:].copy()  # keeps k columns, not all of Q
    W = ref.cone.whitened_generators
    polar = W.T @ basis
    # the computed null space is off by an angle of about rcond * cond(R),
    # so a generator inside range(B) shows a pairing gradient that small
    cond = diag[0] / diag[rank - 1] if rank else 1.0
    movable = (np.linalg.norm(polar, axis=1)
               > rcond * cond * np.linalg.norm(W, axis=0))
    polar = polar[movable]
    t_star = basis.T @ Y.whiten_dual(ref.lambda_star.coeffs)
    return _Projector(
        anchor=anchor,
        basis=basis,
        mu_anchor=Y.unwhiten_dual(anchor),
        mu_basis=Y.unwhiten_dual(basis),
        polar=polar,
        bound=np.maximum(-(W.T @ anchor)[movable], polar @ t_star),
    )


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
    t = proj.basis.T @ v
    if proj.polar.size:
        t = t + _least_distance(-proj.polar, proj.polar @ t - proj.bound)
    dist = float(np.linalg.norm(v - proj.anchor - proj.basis @ t))
    return dist, Functional(ref.space_y, proj.mu_anchor + proj.mu_basis @ t)


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


def coercivity_margin(H, J, massZ, massY, rho: float) -> float:
    """Smallest eigenvalue of H + (1/rho) J^T massY J in the massZ metric.

    The second term is the squared Y-norm of the linearized constraint,
    so the margin measures how much the stabilization term restores
    coercivity of an indefinite Hessian.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    H = to_dense(H)
    J = to_dense(J)
    massZ = np.asarray(massZ, dtype=float)
    massY = np.asarray(massY, dtype=float)
    A = H + (J.T @ massY @ J) / rho
    A = 0.5 * (A + A.T)
    try:
        eigs = scipy.linalg.eigh(
            A, 0.5 * (massZ + massZ.T), eigvals_only=True,
            subset_by_index=[0, 0],
        )
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ValueError("massZ must be symmetric positive definite") from exc
    return float(eigs[0])


@dataclass
class DegeneracyReport:
    singular_values: np.ndarray
    rank_tol: float
    rcq_satisfied: bool


def degeneracy_report(
    p: ProblemDef, z: PrimalVec, rank_tol_factor: float = 1e-8
) -> DegeneracyReport:
    """Metric-weighted singular values of the constraint Jacobian at z.

    The Jacobian is whitened by the Cholesky factors of both mass
    matrices, so the singular values measure the map Z -> Y in the
    correct norms.  Surjectivity (the equality-constrained constraint
    qualification) holds when the smallest of the Y.dim values exceeds
    rank_tol = rank_tol_factor * largest.
    """
    J = to_dense(p.jac_G(z))
    # Jt = L_Y^T J L_Z^{-T} for the metric factors M = L L^T
    Jt = p.Z.whiten_dual(p.Y.whiten(J).T).T
    svals = np.linalg.svd(Jt, compute_uv=False)
    rank_tol = rank_tol_factor * (svals[0] if svals.size else 0.0)
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
