"""One stabilized SQP subproblem: the saddle-point system at (z_k, lam_k, rho_k).

In coordinates the first-order system is

    H d + J^T l                          = -g
    G + J d - rho M_Y^{-1} (l - lam_k)   = sum_i c_i y_i,   c_i >= 0
    <l, y_i> <= 0,                         c_i <l, y_i> = 0

with d = z - z_k and l the new multiplier coefficients.  M_Y^{-1} is
never formed.  With the dimensionless mass M^ = M_Y / tau, where
tau = trace(M_Y) / dim Y, the multiplier is written l = M^ s and the
second row is multiplied by M^.  The unknowns (d, s) then solve

    [[H,     J^T M^        ]  [d]   [-g                       ]
     [M^ J,  -(rho/tau) M^ ]] [s] = [-M^ G - (rho/tau) lam_k  ],

which is symmetric and indefinite.  Each active generator borders it by
-M^ y_i (a column of c_i in the second row, and the row <l, y_i> = 0).
For a lumped mass M_Y = tau I this is the classical matrix
[[H, J^T], [J, -rho M_Y^{-1}]] itself, so the scaling by tau keeps the
condition number, and RCOND_FLOOR, in the units of that matrix.

Dense blocks are factored by Bunch-Kaufman (LAPACK dsytrf).  When H or J
is a scipy.sparse matrix the system is assembled in CSC and factored as a
band with a dense border.  The rows and columns that store far more than
the median (eigencontrol's control q, a cone's active generators) form the
border, reverse Cuthill-McKee orders the rest into a narrow band, LAPACK
dgbtrf factors the band block and dgetrf the border's Schur complement.
This plan and the CSC layout, the symbolic work, are made once per
sparsity pattern and memoised (the projector's sparse solves share them).
splu takes over where the band would be mostly fill or the band block is
exactly singular.  For K = {0} one solve gives the step.  The cone case
runs a primal-dual active set iteration over the generator
complementarities, each trial pattern solved by the same factorization.

The sparse operations of an iterate run as maps on the CSR arrays, each
keyed by the exact pattern of its operands (`model.csr_pattern`: index
type, indptr and indices bytes), made from that key alone and memoised
(`functools.lru_cache`, the last PLAN_CACHE_SIZE patterns), so that a
changed pattern can never reuse a stale map.  Each map is structural: it
depends on the stored patterns only, never on the values, so an entry
whose value cancels exactly stays stored as 0.0.  Where scipy.sparse
stores an entry, the map gives it the same bits:

* `_sparse_plan`, the one symbolic object of a sparse matrix: the CSC
  layout, every term with the entry it adds to (a stored value of a
  block, or a term M^_ij J_jk of the product M^ J, in the order of
  scipy's csr_matmat), and the band plan above.  The values are one
  bincount over the terms, which adds each entry's terms from zero in
  that order, so every entry scipy's `M^ @ J` stores has scipy's bits.
  `sparse_solver` gathers a right-hand side into the plan's order once
  and puts the result back once;
* `model._mirror_map`: each entry's mirror and whether the pattern
  stores it, for the Hessian's symmetry test;
* `model.transpose_dot`, J^T l summed into the columns by bincount in
  storage order, as scipy's product with the CSC transpose sums it.

A subproblem of a few unknowns costs microseconds, so each step calls
its numpy and LAPACK routines directly: `ndarray.dot` makes the BLAS call
of `@` without matmul's dispatch, and `lapack.dsy*` are scipy's raw
wrappers.  The arithmetic is that of the spelled-out forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import lapack

from .model import (
    PLAN_CACHE_SIZE,
    ConeSpec,
    as_csr,
    csr_pattern,
    hessian_fault,
    issparse,
    pattern_arrays,
    transpose_dot,
)
from .spaces import Functional, InnerProductSpace, PrimalVec, euclidean_norm

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Factorizations with a reciprocal condition estimate below this are
#: treated as singular; legitimate stabilized solves stay well above it.
RCOND_FLOOR = 1e-15

#: solve_cone's fallback after an active-set cycle enumerates all 2^m
#: activity patterns only up to this many generators.
MAX_ENUMERATED_GENERATORS = 12

#: A row and column of a sparse saddle matrix joins the dense border when
#: it stores more than this many times the median count of entries of a
#: row plus its column; eigencontrol's control q and a cone's active
#: generators do, so the rest is a narrow band.
BORDER_DEGREE_RATIO = 4

#: The band path is taken when the band block holds at most this many
#: entries per stored entry of A.  A wider band is mostly fill, which
#: splu's fill-reducing order avoids.
BAND_FILL_LIMIT = 4


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
    unstabilized (classical SQP) system for diagnostics.  H and J may be
    scipy.sparse matrices; the system is then `sparse`, both are held as
    CSR and the solve uses the band LU with a dense border.  `scaled_mass`
    and `weight` are derived from spaceY and rho at construction: build a
    new system to change either.
    """

    H: np.ndarray | sp.csr_matrix
    J: np.ndarray | sp.csr_matrix
    g: np.ndarray
    Gval: np.ndarray
    rho: float
    lamk: Functional
    zk: PrimalVec
    spaceZ: InnerProductSpace
    spaceY: InnerProductSpace
    sparse: bool = field(init=False, default=False)
    #: M^ = M_Y / tau, in the storage the blocks use
    scaled_mass: np.ndarray | sp.csr_matrix = field(init=False, repr=False,
                                                     compare=False)
    #: rho / tau, the weight of -M^ in the stabilization block
    weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        H, J = self.H, self.J
        self.sparse = sparse = issparse(H) or issparse(J)
        if sparse:
            self.H = H = as_csr(H)
            self.J = J = as_csr(J)
        else:
            self.H = H = np.asarray(H, dtype=float)
            self.J = J = np.asarray(J, dtype=float)
        self.g = np.asarray(self.g, dtype=float)
        self.Gval = np.asarray(self.Gval, dtype=float)
        nz, Y = self.spaceZ.dim, self.spaceY
        if H.shape != (nz, nz) or J.shape != (Y.dim, nz):
            raise ValueError("saddle system blocks have inconsistent shapes")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        fault = hessian_fault(H)
        if fault is not None:
            raise ValueError(f"Hessian block is {fault}")
        self.scaled_mass = Y.scaled_mass(sparse)
        self.weight = self.rho / Y.mass_scale


@dataclass
class SubproblemSolution:
    """New iterate pair plus the active generator pattern (0-based)."""

    z_next: PrimalVec
    lam_next: Functional
    active_set: tuple[int, ...]
    #: saddle systems solved, one per trial pattern, singular ones included
    inner_iterations: int
    stationarity_residual: float


def assemble_saddle_matrix(sys: SaddleSystem, active: tuple[int, ...] = (),
                           cone: ConeSpec | None = None):
    """Inverse-free symmetric saddle matrix, optionally bordered by the
    active generators: a dense array, or CSC when the system is sparse.

    The CSC matrix is the `sparse_matrix` of the blocks H, (M^ J)^T, M^ J,
    -(rho/tau) M^ and the border, where M^ J is a product block: its
    values are summed from the terms M^_ij J_jk straight into the CSC
    values, and M^ J is never stored on its own."""
    Mh, weight = sys.scaled_mass, sys.weight
    border = -Mh.dot(cone.generator_matrix[:, list(active)]) if active else None
    nz = sys.spaceZ.dim
    n = nz + sys.spaceY.dim
    if sys.sparse:
        MJ, MJ_data = (csr_pattern(Mh), csr_pattern(sys.J)), (Mh.data, sys.J.data)
        blocks = [(0, 0, False, csr_pattern(sys.H)), (0, nz, True, MJ),
                  (nz, 0, False, MJ), (nz, nz, False, MJ[0])]
        data = [sys.H.data, MJ_data, MJ_data, -weight * Mh.data]
        if active:
            import scipy.sparse as sp

            B = sp.csr_matrix(border)
            B_pattern = csr_pattern(B)
            blocks += [(nz, n, False, B_pattern), (n, nz, True, B_pattern)]
            data += [B.data, B.data]
        return sparse_matrix(n + len(active), blocks, data)
    A = np.zeros((n + len(active), n + len(active)))
    A[:nz, :nz] = sys.H
    MJ = Mh.dot(sys.J)
    A[nz:n, :nz] = MJ
    A[:nz, nz:n] = MJ.T
    A[nz:n, nz:n] = -weight * Mh
    if active:
        A[nz:n, n:] = border
        A[n:, nz:n] = border.T
    return A


def sparse_matrix(n: int, blocks, data) -> sp.csc_matrix:
    """The n x n CSC matrix of `blocks`, with the values `data`.

    A block (row offset, column offset, transposed, pattern) places a CSR
    matrix, or its transpose, whose `pattern` is its `csr_pattern`, or the
    product M J of two, given as the pair of their patterns.  `data`
    holds one item per block: its data, or (M.data, J.data) for a
    product.  One bincount sums the terms `_sparse_plan` lists for each
    entry, from zero and in turn, so where scipy's `M @ J` stores an
    entry it has scipy's bits, an entry whose terms cancel exactly stays
    stored as 0.0, and a stored -0.0 comes out as +0.0.  The plan is
    memoised by the blocks' patterns, so an iterate only computes its
    terms; the matrix carries it as `plan`.
    """
    import scipy.sparse as sp

    plan = _sparse_plan(n, tuple(blocks))
    terms = np.concatenate([
        block if factors is None else block[0].take(factors[0]) * block[1].take(factors[1])
        for block, factors in zip(data, plan.factors)
    ])
    values = np.bincount(plan.entry, weights=terms, minlength=plan.indices.size)
    A = sp.csc_matrix((values, plan.indices, plan.indptr), shape=(n, n))
    A.plan = plan
    return A


def _saddle_rhs(sys: SaddleSystem, n_active: int = 0) -> np.ndarray:
    blocks = [-sys.g, -sys.scaled_mass.dot(sys.Gval) - sys.weight * sys.lamk.coeffs]
    if n_active:
        blocks.append(np.zeros(n_active))
    return np.concatenate(blocks)


def _factor(A):
    """Factor the saddle matrix; returns (solve, |A|_1, rcond).

    `solve(b)` applies A^{-1} and rcond estimates 1 / (|A|_1 |A^{-1}|_1).
    A dense A is factored by Bunch-Kaufman, with LAPACK's estimate dsycon;
    a sparse one by `sparse_solver`, with the same method (Hager's) run
    through its solve and |A|_1 summed in row order as np.linalg.norm sums.
    """
    if issparse(A):  # from sparse_matrix, with its plan
        anorm = float(np.bincount(A.plan.columns, weights=np.abs(A.data),
                                  minlength=A.shape[0]).max())
        solve = sparse_solver(A)
        inverse_norm = _inverse_norm_estimate(solve, A.plan.alternating)
        finite = np.isfinite(inverse_norm) and anorm != 0.0
        return solve, anorm, 1.0 / (anorm * inverse_norm) if finite else 0.0
    # np.linalg.norm(A, 1), the largest column sum, by its own reductions
    # without its dispatch and their Python wrappers
    anorm = float(np.maximum.reduce(np.add.reduce(np.abs(A), axis=0)))
    ldu, ipiv, info = lapack.dsytrf(A, lower=1)
    if info > 0:
        raise _exactly_singular(f"zero pivot at {info}")
    if info < 0:
        raise RuntimeError(f"dsytrf: illegal argument {-info}")
    rcond, _ = lapack.dsycon(ldu, ipiv, anorm, lower=1)

    def solve(b: np.ndarray) -> np.ndarray:
        return lapack.dsytrs(ldu, ipiv, b, lower=1)[0]

    return solve, anorm, rcond


@dataclass(frozen=True, eq=False)
class _SparsePlan:
    """The symbolic work for the blocks of one n x n `sparse_matrix`.

    `indptr` and `indices` are the CSC structure, `columns` each entry's
    column.  The terms come block by block, as `_block_terms` lists them;
    `entry` is each term's entry and `factors` holds, per block, None, or
    for a product the positions of each term's factors in M.data and
    J.data.  `alternating` is dlacn2's last test vector,
    (-1)^i (1 + i / (n - 1)).  `order` lists A's rows, also its columns:
    the band in reverse Cuthill-McKee order, then the k border rows;
    `position` is its inverse.  Entry e of A.data goes to slot `slots[e]`
    of one flat workspace holding, in turn, the band block in dgbtrf's
    storage (2 kl + ku + 1 rows, column-major), the border columns
    (nb x k, column-major), the border rows (k x nb) and the corner
    (k x k).  The index arrays an iterate reads are intp, which bincount
    and take use without a conversion.
    """

    indptr: np.ndarray
    indices: np.ndarray
    columns: np.ndarray
    entry: np.ndarray
    factors: tuple
    alternating: np.ndarray
    order: np.ndarray | None = None
    position: np.ndarray | None = None
    k: int = 0
    kl: int = 0
    ku: int = 0
    slots: np.ndarray | None = None


def _block_terms(pattern: tuple):
    """(rows, columns, factors) of the terms of one block, in intp.

    Those of a `csr_pattern` are its stored entries, in storage order,
    with factors None.  Those of a product (M, J) are the terms
    M_ij J_jk in the order of scipy's csr_matmat, M's entries in turn and
    for each the entries of J's row j, with the positions of their
    factors in M.data and J.data.
    """
    if len(pattern) == 3:  # one csr_pattern
        indptr, indices = pattern_arrays(pattern)
        return np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices.astype(np.intp), None
    (l_indptr, l_indices), (r_indptr, r_indices) = map(pattern_arrays, pattern)
    counts = np.diff(r_indptr).astype(np.intp)[l_indices]
    left = np.repeat(np.arange(l_indices.size), counts)
    right = (np.repeat(r_indptr[l_indices] - (np.cumsum(counts) - counts), counts)
             + np.arange(left.size))
    l_rows = np.repeat(np.arange(l_indptr.size - 1), np.diff(l_indptr))
    return l_rows[left], r_indices[right].astype(np.intp), (left, right)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sparse_plan(n: int, blocks: tuple) -> _SparsePlan:
    """The plan of `sparse_matrix`'s blocks, keyed by their offsets and
    exact patterns and made from that key alone, so no other pattern can
    reuse it."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    rows, cols, factors = [], [], []
    for r0, c0, transposed, pattern in blocks:
        major, minor, factor = _block_terms(pattern)
        rows.append((minor if transposed else major) + r0)
        cols.append((major if transposed else minor) + c0)
        factors.append(factor)
    # column-major, in intp: n * n overflows int32 from n = 46341
    key = np.concatenate(cols) * n + np.concatenate(rows)
    unique, entry = np.unique(key, return_inverse=True)
    columns, rows = np.divmod(unique, n)
    A = sp.csc_matrix((np.ones(rows.size), rows, np.searchsorted(columns, np.arange(n + 1))),
                      shape=(n, n))
    i = np.arange(n)
    alternating = (1.0 + i / max(n - 1, 1)) * np.where(i % 2, -1.0, 1.0)
    for shared in (A.indptr, A.indices, alternating):  # every matrix shares them
        shared.flags.writeable = False
    layout = (A.indptr, A.indices, columns, entry, tuple(factors), alternating)
    degree = np.bincount(columns, minlength=n) + np.bincount(rows, minlength=n)
    dense = degree > BORDER_DEGREE_RATIO * np.median(degree)
    inner, border = np.flatnonzero(~dense), np.flatnonzero(dense)
    band = inner[reverse_cuthill_mckee(A[inner][:, inner].tocsr(),
                                       symmetric_mode=False)]
    order = np.concatenate([band, border])
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    r, c = position[rows], position[columns]
    nb, k = band.size, border.size
    row_in, col_in = r < nb, c < nb
    offsets = (r - c)[row_in & col_in]
    kl, ku = int(offsets.max(initial=0)), int(-offsets.min(initial=0))
    if (kl + ku + 1) * nb > BAND_FILL_LIMIT * A.nnz:
        return _SparsePlan(*layout)
    ldab = 2 * kl + ku + 1
    border_cols = ldab * nb
    border_rows = border_cols + nb * k
    corner = border_rows + k * nb
    slots = np.select(
        [row_in & col_in, row_in, col_in],
        [kl + ku + r - c + ldab * c, border_cols + r + nb * (c - nb),
         border_rows + nb * (r - nb) + c],
        corner + k * (r - nb) + c - nb,
    )
    return _SparsePlan(*layout, order, position, k, kl, ku, slots)


def sparse_solver(A: sp.csc_matrix):
    """A^{-1} for a matrix from `sparse_matrix`, applied to a vector or to
    the columns of a block: the plan's band LU and the border's Schur
    complement S = A_KK - A_KB B^{-1} A_BK, or splu when the plan found
    the band too wide or the band block B is exactly singular."""
    order, k, kl, ku = A.plan.order, A.plan.k, A.plan.kl, A.plan.ku
    if order is not None:
        nb = order.size - k
        ldab = 2 * kl + ku + 1
        work = np.bincount(A.plan.slots, weights=A.data, minlength=ldab * nb + (2 * nb + k) * k)
        lu, piv, info = lapack.dgbtrf(work[: ldab * nb].reshape((ldab, nb), order="F"),
                                      kl, ku, overwrite_ab=1)
    if order is None or info > 0:
        # imported here to keep scipy.sparse.linalg out of `import ssqp`;
        # by now `_sparse_plan`'s scipy.sparse.csgraph import has loaded it
        from scipy.sparse.linalg import splu

        try:
            return splu(A).solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise _exactly_singular(str(exc)) from None
    if info < 0:
        raise RuntimeError(f"dgbtrf: illegal argument {-info}")
    position = A.plan.position
    if k:
        cut = ldab * nb
        border_cols = work[cut : cut + nb * k].reshape((nb, k), order="F")
        B_inv_cols = lapack.dgbtrs(lu, kl, ku, border_cols, piv, overwrite_b=1)[0]
        border_rows = work[cut + nb * k : cut + 2 * nb * k].reshape((k, nb))
        schur = work[cut + 2 * nb * k :].reshape((k, k)) - border_rows.dot(B_inv_cols)
        lu_s, piv_s, info = lapack.dgetrf(schur, overwrite_a=1)
        if info > 0:
            raise _exactly_singular(f"zero pivot at {nb + info}")

    def solve(b: np.ndarray) -> np.ndarray:
        # in the plan's order, gathered once and put back once
        w = b.take(order, axis=0)
        y = lapack.dgbtrs(lu, kl, ku, w[:nb], piv, overwrite_b=1)[0]
        if k:
            z = lapack.dgetrs(lu_s, piv_s, w[nb:] - border_rows.dot(y))[0]
            y -= B_inv_cols.dot(z)
            w[nb:] = z
        w[:nb] = y  # a block of columns is solved in a copy
        return w.take(position, axis=0)

    return solve


def _inverse_norm_estimate(solve, alternating: np.ndarray) -> float:
    """Hager's estimate of |A^{-1}|_1 (Higham 1988, Algorithm 4.1, with
    `alternating`, the last test vector of LAPACK's dlacn2), a lower bound
    reached in a few solves.  The saddle matrix is symmetric, so the
    solves with A^T that the method asks for are solves with A, as in
    dsycon."""
    n = alternating.size
    x = solve(np.full(n, 1.0 / n))
    est = float(np.abs(x).sum())
    if n == 1 or not np.isfinite(est):
        return est
    sign = np.where(x >= 0.0, 1.0, -1.0)
    z = np.abs(solve(sign))
    j = int(z.argmax())
    for _ in range(4):
        e = np.zeros(n)
        e[j] = 1.0
        x = solve(e)
        previous, est = est, float(np.abs(x).sum())
        new_sign = np.where(x >= 0.0, 1.0, -1.0)
        if est <= previous or (new_sign == sign).all():
            est = max(est, previous)
            break
        sign = new_sign
        z = np.abs(solve(sign))
        last, j = j, int(z.argmax())
        if z[last] == z[j]:
            break
    return max(est, 2.0 * float(np.abs(solve(alternating)).sum()) / (3.0 * n))


def _exactly_singular(detail: str) -> SingularSubproblem:
    return SingularSubproblem(f"saddle matrix is exactly singular ({detail})")


def _factor_solve(A, rhs: np.ndarray) -> np.ndarray:
    """Factored solve with a condition check and iterative refinement."""
    solve, anorm, rcond = _factor(A)
    if rcond < RCOND_FLOOR:
        est = np.inf if rcond == 0.0 else 1.0 / rcond
        raise SingularSubproblem(
            f"saddle matrix is numerically singular "
            f"(condition estimate {est:.2e})",
            condition_estimate=est,
        )
    x = solve(rhs)
    # Two refinement sweeps recover accuracy lost to scale disparities.
    for _ in range(2):
        r = rhs - A.dot(x)
        if euclidean_norm(r) <= 1e-15 * (anorm * euclidean_norm(x) + 1e-300):
            break
        x = x + solve(r)
    return x


def _solution_from(sys: SaddleSystem, d: np.ndarray, l: np.ndarray,
                   active: tuple[int, ...], iterations: int) -> SubproblemSolution:
    stat = sys.spaceZ.dual_norm_arr(sys.g + transpose_dot(sys.J, l) + sys.H.dot(d))
    return SubproblemSolution(
        z_next=PrimalVec(sys.spaceZ, sys.zk.coords + d),
        lam_next=Functional(sys.spaceY, l),
        active_set=active,
        inner_iterations=iterations,
        stationarity_residual=stat,
    )


def solve_equality(sys: SaddleSystem) -> SubproblemSolution:
    """Solve the K = {0} subproblem by one symmetric indefinite solve."""
    d, l, _ = _solve_pattern(sys)
    return _solution_from(sys, d, l, (), 1)


def saddle_condition_estimate(sys: SaddleSystem) -> float:
    """1-norm condition estimate of the assembled saddle matrix."""
    try:
        *_, rcond = _factor(assemble_saddle_matrix(sys))
    except SingularSubproblem:
        return np.inf
    return np.inf if rcond == 0.0 else 1.0 / rcond


def _solve_pattern(sys: SaddleSystem, cone: ConeSpec | None = None,
                   active: tuple[int, ...] = ()):
    """Solve with <l, y_i> = 0 enforced on `active`, c_i = 0 elsewhere."""
    nz, ny = sys.spaceZ.dim, sys.spaceY.dim
    A = assemble_saddle_matrix(sys, active, cone)
    x = _factor_solve(A, _saddle_rhs(sys, len(active)))
    d, l = x[:nz], sys.scaled_mass.dot(x[nz : nz + ny])
    if cone is None:
        return d, l, None
    c = np.zeros(cone.m)
    c[list(active)] = x[nz + ny :]
    return d, l, c


def _pattern_feasible(cone: ConeSpec, l: np.ndarray, c: np.ndarray,
                      scale: float) -> bool:
    pairings = cone.generator_matrix.T.dot(l)
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
    pattern enumeration for up to MAX_ENUMERATED_GENERATORS generators and
    raises NoConvergence above that.  The initial pattern defaults to the
    pairings of lam_k; any starting pattern reaches the same solution (the
    subproblem maximizer is unique).
    """
    if cone.m == 0:
        raise ValueError("solve_cone requires at least one generator")
    if initial_active is None:
        pair0 = cone.pairings(sys.lamk)
        active = tuple(i for i in range(cone.m) if pair0[i] > -1e-10)
    else:
        active = tuple(sorted(initial_active))
    seen = set()
    max_sweeps = 2 ** min(cone.m, MAX_ENUMERATED_GENERATORS) + 5
    for patterns in range(1, max_sweeps + 1):
        seen.add(active)
        try:
            d, l, c = _solve_pattern(sys, cone, active)
        except SingularSubproblem:
            break
        scale = float(np.abs(l).max() + np.abs(c).max())
        if _pattern_feasible(cone, l, c, scale):
            return _solution_from(sys, d, l, active, patterns)
        pairings = cone.generator_matrix.T.dot(l)
        active = tuple(i for i in range(cone.m) if c[i] + pairings[i] > 0.0)
        if active in seen:
            break
    if cone.m > MAX_ENUMERATED_GENERATORS:
        raise NoConvergence(
            "active-set iteration cycled; exhaustive enumeration supports "
            f"at most {MAX_ENUMERATED_GENERATORS} generators"
        )
    # Exhaustive fallback over all activity patterns.
    for size in range(cone.m + 1):
        for subset in combinations(range(cone.m), size):
            patterns += 1
            try:
                d, l, c = _solve_pattern(sys, cone, subset)
            except SingularSubproblem:
                continue
            scale = float(np.abs(l).max() + np.abs(c).max())
            if _pattern_feasible(cone, l, c, scale):
                return _solution_from(sys, d, l, subset, patterns)
    raise NoConvergence("no sign-feasible active set exists for this subproblem")
