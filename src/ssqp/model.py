"""Problem definitions: objective, constraint map, cone, Lagrangian, KKT test.

A problem is

    min f(z)   subject to   G(z) in K,

where K is either {0} or the cone spanned with nonnegative weights by a
fixed list of linearly independent generators in the constraint space Y.
Derivatives are user-supplied callbacks; `validate_problem` cross-checks
them against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .csr import CSR, as_csr, issparse, transpose_dot
from .spaces import (
    DimensionMismatch,
    Functional,
    InnerProductSpace,
    PrimalVec,
    euclidean_norm,
    max_entry,
)


@dataclass
class ConeSpec:
    """Finitely generated cone K = {sum_i c_i y_i : c_i >= 0} in Y.

    An empty generator list encodes K = {0}.  Generators must be linearly
    independent in the Y metric: the Gram matrix of pairwise inner products
    is formed at construction and its smallest eigenvalue must exceed
    1e-10 times the largest.
    """

    space: InnerProductSpace
    generators: tuple[PrimalVec, ...]
    gram: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.generators = tuple(self.generators)
        if not self.generators:  # K = {0}: no columns, so no metric work
            self.generator_matrix = self._massed_generators = self.whitened_generators = (
                np.zeros((self.space.dim, 0)))
            self.gram = np.zeros((0, 0))
            return
        self.generator_matrix = np.column_stack([g.coords for g in self.generators])
        massed = self.space.apply_mass(self.generator_matrix)
        self.gram = self.generator_matrix.T @ massed
        self._massed_generators = massed
        #: L^T y_i for M_Y = L L^T: Y-distances to the cone become
        #: Euclidean, and <mu, y_i> = (L^T y_i) . (L^{-1} mu).
        self.whitened_generators = self.space.whiten(self.generator_matrix)
        eigs = np.linalg.eigvalsh(self.gram)
        if eigs[0] <= 1e-10 * eigs[-1]:
            raise ValueError("cone generators are not linearly independent in Y")

    @property
    def m(self) -> int:
        return len(self.generators)

    def pairings(self, l: Functional) -> np.ndarray:
        """<l, y_i> for every generator."""
        return self.generator_matrix.T.dot(l.coeffs)

    def coords(self, r: PrimalVec) -> tuple[np.ndarray, float]:
        """Split r into span{y_i} coordinates and the orthogonal remainder.

        Returns (c, residual) where gram c = [(r, y_i)_Y] and residual is
        the Y-norm of r - sum_i c_i y_i.
        """
        if self.m == 0:
            raise ValueError("cone coordinates need at least one generator")
        b = self._massed_generators.T @ r.coords
        c = np.linalg.solve(self.gram, b)
        rem = r.coords - self.generator_matrix @ c
        return c, self.space.norm_arr(rem)


def empty_cone(space: InnerProductSpace) -> ConeSpec:
    return ConeSpec(space, ())


def as_matrix(M) -> np.ndarray | CSR:
    """A callback's matrix output: sparse as `CSR`, else a float array."""
    return as_csr(M) if issparse(M) else np.asarray(M, dtype=float)


def hessian_fault(H) -> str | None:
    """Why the matrix H, dense or sparse, is no Hessian: "not finite", or
    "not symmetric to 1e-10" relative to max(|H|_max, 1); None if it is.

    A sparse H is compared with its transpose through its canonical CSR
    arrays, without sparse arithmetic (`_sparse_asymmetry`)."""
    sparse = issparse(H)
    if sparse:
        H = as_csr(H)
        if not H.has_canonical_format:  # sorted, without duplicates
            H = H.to_scipy().copy()
            H.sum_duplicates()
            H = as_csr(H)
    scale = max(max_entry(np.abs(H.data if sparse else H)), 1.0)
    if not math.isfinite(scale):
        return "not finite"
    # a - b = -(b - a) exactly, so the finite dense H - H^T is antisymmetric
    # and its largest entry is its largest absolute entry
    asym = _sparse_asymmetry(H) if sparse else H - H.T
    if max_entry(asym) > 1e-10 * scale:
        return "not symmetric to 1e-10"
    return None


def _sparse_asymmetry(H) -> np.ndarray:
    """|H - H^T| at the stored entries of a canonical sparse H: each entry
    meets its mirror's value from its pattern's mirror map, or zero where
    H stores no mirror.  The entries of H^T outside H's pattern mirror
    those of H outside H^T's, so they add no other value."""
    H = as_csr(H)
    mirror, stored = H.pattern.mirror
    return np.abs(H.data - np.where(stored, H.data.take(mirror), 0.0))


def to_dense(M) -> np.ndarray:
    """A callback's matrix output as a dense float array."""
    return M.toarray() if issparse(M) else np.asarray(M, dtype=float)


@dataclass
class Evaluation:
    """The callback outputs at a point z that do not involve the
    multiplier: f'(z) and G(z) as coefficient arrays, and G'(z)."""

    g: np.ndarray
    Gval: np.ndarray
    J: np.ndarray | CSR


@dataclass
class ProblemDef:
    """Callbacks defining the optimization problem over spaces Z and Y.

    jac_G(z) maps Z coordinates to Y coordinates (Y.dim x Z.dim matrix);
    hess_L(z, lam) is the full Lagrangian Hessian, symmetric and affine in
    the multiplier.  Both may return a numpy array or a scipy.sparse
    matrix; sparse output keeps the subproblem sparse, and its saddle
    system is factored as a band with a dense border.  Callbacks must
    be pure so that distinct solves can share a ProblemDef.

    A sparse callback may build its output as a `csr.CSR`: the data
    array of the iterate on a `csr.Pattern` that the problem got once from
    `csr.pattern_of` when it was built.  Such output is taken in as it is,
    so the iterate builds no scipy.sparse matrix and looks no pattern up.
    """

    Z: InnerProductSpace
    Y: InnerProductSpace
    cone: ConeSpec
    f: Callable[[PrimalVec], float]
    grad_f: Callable[[PrimalVec], Functional]
    G: Callable[[PrimalVec], PrimalVec]
    jac_G: Callable[[PrimalVec], np.ndarray]
    hess_L: Callable[[PrimalVec, Functional], np.ndarray]

    def evaluate(self, z: PrimalVec) -> Evaluation:
        """grad_f, G and jac_G at z, one call each."""
        return Evaluation(self.grad_f(z).coeffs, self.G(z).coords,
                          _shaped("jac_G", self.jac_G(z), (self.Y.dim, self.Z.dim)))

    def lagrangian_grad(self, z: PrimalVec, lam: Functional,
                        at: Evaluation | None = None) -> Functional:
        """Coefficients of f'(z) + G'(z)* lam as a Z functional; `at` is
        `evaluate(z)` when the caller has it already."""
        at = at if at is not None else self.evaluate(z)
        return Functional(self.Z, at.g + at.J.T @ lam.coeffs)

    def kkt_residual(self, z: PrimalVec, lam: Functional,
                     at: Evaluation | None = None) -> "KKTResidual":
        """Residual of the first-order conditions at (z, lam).

        Stationarity is the Z* dual norm of the Lagrangian gradient.  For
        K = {0}, feasibility is |G(z)|_Y.  Otherwise it is the Y-distance
        of G(z) to the complementarity face {sum c_i y_i : c_i >= 0,
        c_i <l, y_i> = 0}, computed by nonnegative least squares, and the
        polar violation records any positive generator pairing.  `at` is
        `evaluate(z)` when the caller has it already.
        """
        at = at if at is not None else self.evaluate(z)
        # the coefficients of lagrangian_grad, without wrapping them
        stationarity = self.Z.dual_norm_arr(at.g + transpose_dot(at.J, lam.coeffs))
        m = self.cone.m
        if m == 0:
            return KKTResidual(stationarity, self.Y.norm_arr(at.Gval), 0.0)
        pairings = self.cone.pairings(lam)
        polar = float(max(0.0, pairings.max()))
        # Complementarity allows c_i > 0 only where <lam, y_i> vanishes.
        active_tol = 1e-9 * (1.0 + self.Y.dual_norm(lam))
        allowed = [i for i in range(m) if abs(pairings[i]) <= active_tol]
        feasibility = _cone_face_distance(self.cone, at.Gval, allowed)
        return KKTResidual(stationarity, feasibility, polar)


def _cone_face_distance(cone: ConeSpec, r: np.ndarray, allowed: list[int]) -> float:
    """Y-distance of r to {sum_{i in allowed} c_i y_i : c_i >= 0}.

    In whitened coordinates this is the residual norm of a nonnegative
    least-squares problem.  The norm of the residual vector is accurate
    to rounding in |r|; |r|^2 - c^T b would lose half the digits.
    """
    b = cone.space.whiten(r)
    if not allowed:
        return euclidean_norm(b)
    return nnls(cone.whitened_generators[:, allowed], b)[1]


def nnls(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """min |A x - b| over x >= 0 (Lawson & Hanson); returns (x, |A x - b|).

    The one projection engine of the package: cone-face distances and the
    polar part of multiplier-set projections both reduce to it once the
    metric is whitened away.
    """
    # scipy.optimize, with the scipy.linalg and scipy.sparse packages it
    # loads, takes about 0.28 s to import; only cones need it
    from scipy.optimize import nnls as lawson_hanson

    x, rnorm = lawson_hanson(A, b)
    return x, float(rnorm)


@dataclass
class KKTResidual:
    """Componentwise KKT residual; zero total means a KKT point.

    `eta` and `total` are summed once, at construction.
    """

    stationarity: float
    feasibility: float
    polar_violation: float
    #: the computable error estimate: stationarity plus feasibility
    eta: float = field(init=False)
    #: eta plus the polar violation
    total: float = field(init=False)

    def __post_init__(self) -> None:
        self.eta = self.stationarity + self.feasibility
        self.total = self.eta + self.polar_violation


def validate_problem(
    p: ProblemDef,
    points=None,
    seed: int = 0,
    n_points: int = 10,
    scale: float = 0.1,
    fd_tol: float = 1e-5,
) -> None:
    """Cross-check the supplied derivatives at sampled points.

    Verifies the shapes of jac_G and hess_L, jac_G against central finite
    differences of G (relative tolerance `fd_tol`), symmetry of hess_L to
    1e-10 and affinity of hess_L in the multiplier to 1e-10.  Raises
    ValueError on the first violation.
    """
    rng = np.random.default_rng(seed)
    if points is None:
        points = [
            p.Z.vector(scale * rng.standard_normal(p.Z.dim)) for _ in range(n_points)
        ]
    for z in points:
        J = to_dense(_shaped("jac_G", p.jac_G(z), (p.Y.dim, p.Z.dim)))
        Jfd = np.empty_like(J)
        for j in range(p.Z.dim):
            step = 1e-6 * (1.0 + abs(z.coords[j]))
            e = np.zeros(p.Z.dim)
            e[j] = step
            gp = p.G(p.Z.vector(z.coords + e)).coords
            gm = p.G(p.Z.vector(z.coords - e)).coords
            Jfd[:, j] = (gp - gm) / (2.0 * step)
        scale_J = max(np.abs(J).max(), 1.0)
        err = np.abs(J - Jfd).max()
        if err > fd_tol * scale_J:
            raise ValueError(
                f"jac_G disagrees with finite differences: {err:.3e} vs "
                f"tolerance {fd_tol * scale_J:.3e}"
            )
        lam1 = p.Y.functional(rng.standard_normal(p.Y.dim))
        lam2 = p.Y.functional(rng.standard_normal(p.Y.dim))
        H0, H1, H2, H12 = (
            _shaped("hess_L", p.hess_L(z, lam), (p.Z.dim, p.Z.dim))
            for lam in (p.Y.zero_functional(), lam1, lam2,
                        p.Y.functional(lam1.coeffs + lam2.coeffs))
        )
        for H in (H1, H2):
            fault = hessian_fault(H)
            if fault is not None:
                raise ValueError(f"hess_L is {fault}")
        H0, H1, H2, H12 = map(to_dense, (H0, H1, H2, H12))
        lin_err = np.abs((H12 - H0) - ((H1 - H0) + (H2 - H0))).max()
        if lin_err > 1e-10 * max(np.abs(H12).max(), 1.0):
            raise ValueError("hess_L is not affine in the multiplier to 1e-10")


def _shaped(name: str, M, shape: tuple[int, ...]) -> np.ndarray | CSR:
    """A callback's output as `as_matrix` gives it, checked for its shape
    and, for a `CSR`, for the length of its data: DimensionMismatch names
    the callback `name` and what it returned."""
    M = as_matrix(M)
    if M.shape != shape:
        raise DimensionMismatch(f"callback {name} returned shape {M.shape}, expected {shape}")
    if isinstance(M, CSR) and M.data.shape != (M.nnz,):
        raise DimensionMismatch(
            f"callback {name} returned data of shape {M.data.shape} on a pattern "
            f"of {M.nnz} entries")
    return M
