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
is sparse (a `csr.CSR`, or a scipy.sparse matrix, taken in as one) the
system is assembled in CSC and factored as a band with a dense border.
The rows and columns that store far more than the median (eigencontrol's
control q, a cone's active generators) form the border, reverse
Cuthill-McKee orders the rest into a narrow band, LAPACK dgbtrf factors
the band block and dgetrf the border's Schur complement.  One multi-column
dgbtrs sweep solves the border columns with the factorization's other
right-hand sides: the step's, and the first and last test vectors of the
condition estimate.  This plan and the CSC layout, the symbolic work, are
made once per sparsity pattern and memoised (the projector's sparse
solves share them).  splu takes over where the band would be mostly fill
or the band block is exactly singular.  For K = {0} one solve gives the
step.  The cone case runs a primal-dual active set iteration over the
generator complementarities, each trial pattern solved by the same
factorization.

Every sparse matrix holds its pattern as a `csr.Pattern`, interned by
`csr.pattern_of`: a memo keyed by the pattern's exact bytes
(`functools.lru_cache`, the last PLAN_CACHE_SIZE patterns) gives each
pattern one object.  A callback that returns a `csr.CSR` looked its
pattern up there once, when its problem was built; a callback's scipy
matrix, a cone's border and a metric's M^ are looked up when they are
taken in, per call, per assembly and once per space.  Every map is then found by
the identity of those objects, never by their bytes, and is made from
the patterns alone, so that a changed pattern can never reuse a stale
map.  Each map is structural: it depends on the stored patterns only,
never on the values, so an entry whose value cancels exactly stays
stored as 0.0.  Where scipy.sparse stores an entry, the map gives it the
same bits:

* `_sparse_plan`, the one symbolic object of a sparse matrix, memoised by
  its blocks' pattern objects: the CSC layout, every term with the entry
  it adds to (a stored value of a block, or a term M^_ij J_jk of the
  product M^ J, in the order of scipy's csr_matmat), and the band plan
  above.  The values are one bincount over the terms, which adds each
  entry's terms from zero in that order, so every entry scipy's `M^ @ J`
  stores has scipy's bits.  M^ J's terms are formed once for both of its
  blocks.  `sparse_solver` gathers a right-hand side into the plan's
  order once and puts the result back once;
* the mirror map of the Hessian's pattern (`Pattern.mirror`), each
  entry's mirror and whether the pattern stores it, for the Hessian's
  symmetry test, kept on the pattern;
* the products J^T l, M^ v and A x, which call scipy.sparse's own kernels
  (`csr_matvec`, `csc_matvec`) on the arrays, or its public product
  where `csr._kernels` finds those private kernels gone or changed.

A subproblem of a few unknowns costs microseconds, so each step calls
its numpy and LAPACK routines directly: `ndarray.dot` makes the BLAS call
of `@` without matmul's dispatch, and `lapack.dsy*` are scipy's raw
wrappers, loaded without scipy.linalg (see `_scipy`).  The arithmetic is
that of the spelled-out forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from ._scipy import lapack
from .csr import CSC, CSR, PLAN_CACHE_SIZE, Pattern, as_csr
from .model import ConeSpec, hessian_fault, issparse
from .spaces import Functional, InnerProductSpace, PrimalVec, euclidean_norm

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
    sparse matrices; the system is then `sparse`, both are held as
    `CSR` and the solve uses the band LU with a dense border.  `scaled_mass`
    and `weight` are derived from spaceY and rho at construction: build a
    new system to change either.
    """

    H: np.ndarray | CSR
    J: np.ndarray | CSR
    g: np.ndarray
    Gval: np.ndarray
    rho: float
    lamk: Functional
    zk: PrimalVec
    spaceZ: InnerProductSpace
    spaceY: InnerProductSpace
    sparse: bool = field(init=False, default=False)
    #: M^ = M_Y / tau, in the storage the blocks use
    scaled_mass: np.ndarray | CSR = field(init=False, repr=False, compare=False)
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
        if (H.shape != (nz, nz) or J.shape != (Y.dim, nz)
                or sparse and (H.data.shape != (H.nnz,) or J.data.shape != (J.nnz,))):
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


def assemble_saddle_matrix(sys: SaddleSystem, active: tuple[int, ...] = (),
                           cone: ConeSpec | None = None):
    """Inverse-free symmetric saddle matrix, optionally bordered by the
    active generators: a dense array, or `CSC` when the system is sparse.

    The CSC matrix is the `sparse_matrix` of the blocks H, (M^ J)^T, M^ J,
    -(rho/tau) M^ and the border, where M^ J is a product block: its
    values are summed from the terms M^_ij J_jk straight into the CSC
    values, and M^ J is never stored on its own."""
    Mh, weight = sys.scaled_mass, sys.weight
    border = -Mh.dot(cone.generator_matrix[:, list(active)]) if active else None
    nz = sys.spaceZ.dim
    n = nz + sys.spaceY.dim
    if sys.sparse:
        MJ, MJ_data = (Mh.pattern, sys.J.pattern), (Mh.data, sys.J.data)
        blocks = [(0, 0, False, sys.H.pattern), (0, nz, True, MJ),
                  (nz, 0, False, MJ), (nz, nz, False, Mh.pattern)]
        data = [sys.H.data, MJ_data, MJ_data, -weight * Mh.data]
        if active:
            B = as_csr(border)
            blocks += [(nz, n, False, B.pattern), (n, nz, True, B.pattern)]
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


def sparse_matrix(n: int, blocks, data) -> CSC:
    """The n x n `CSC` matrix of `blocks`, with the values `data`.

    A block (row offset, column offset, transposed, pattern) places a CSR
    matrix, or its transpose, whose `pattern` is its `csr.Pattern`, or the
    product M J of two, given as the pair of their patterns.  `data`
    holds one item per block: its data, or (M.data, J.data) for a
    product.  One bincount sums the terms `_sparse_plan` lists for each
    entry, from zero and in turn, so where scipy's `M @ J` stores an
    entry it has scipy's bits, an entry whose terms cancel exactly stays
    stored as 0.0, and a stored -0.0 comes out as +0.0.  Blocks of one
    product pattern given the same data object share its terms, which
    are formed once.  The plan is memoised by the blocks' patterns, so
    an iterate only computes its terms; the matrix carries it as `plan`.
    """
    plan = _sparse_plan(n, tuple(blocks))
    formed: dict[tuple[int, int], np.ndarray] = {}

    def terms(block, factors) -> np.ndarray:
        if factors is None:
            return block
        key = (id(block), id(factors))
        if key not in formed:
            formed[key] = block[0].take(factors[0]) * block[1].take(factors[1])
        return formed[key]

    values = np.bincount(plan.entry, minlength=plan.pattern.nnz, weights=np.concatenate(
        [terms(block, factors) for block, factors in zip(data, plan.factors)]))
    A = CSC(plan.pattern, values)
    A.plan = plan
    return A


def _saddle_rhs(sys: SaddleSystem, n_active: int = 0) -> np.ndarray:
    blocks = [-sys.g, -sys.scaled_mass.dot(sys.Gval) - sys.weight * sys.lamk.coeffs]
    if n_active:
        blocks.append(np.zeros(n_active))
    return np.concatenate(blocks)


def _factor(A, rhs: np.ndarray | None = None):
    """Factor the saddle matrix; returns (solve, |A|_1, rcond, x).

    `solve(b)` applies A^{-1} and rcond estimates 1 / (|A|_1 |A^{-1}|_1).
    A dense A is factored by Bunch-Kaufman, with LAPACK's estimate dsycon,
    and x is None.  A sparse one is factored by `sparse_solver`, with the
    same method (Hager's) run through its solve and |A|_1 summed in row
    order as np.linalg.norm sums.  The estimate's first and last test
    vectors and `rhs`, when given, share the factorization's band sweep;
    x is then A^{-1} rhs, as `solve(rhs)` gives it.
    """
    if issparse(A):  # from sparse_matrix, with its plan
        n = A.shape[0]
        anorm = float(np.bincount(A.plan.pattern.major, weights=np.abs(A.data),
                                  minlength=n).max())
        given = () if rhs is None else (rhs,)
        solve, (first, last, *x) = sparse_solver(
            A, np.full(n, 1.0 / n), A.plan.alternating, *given)
        inverse_norm = _inverse_norm_estimate(solve, first, last)
        finite = np.isfinite(inverse_norm) and anorm != 0.0
        return (solve, anorm, 1.0 / (anorm * inverse_norm) if finite else 0.0,
                x[0] if x else None)
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

    return solve, anorm, rcond, None


@dataclass(frozen=True, eq=False)
class _SparsePlan:
    """The symbolic work for the blocks of one n x n `sparse_matrix`.

    `pattern` is the CSC structure, read as the CSR pattern of A^T, so
    that its `major` is each entry's column.  The terms come block by
    block, as `_block_terms` lists them; `entry` is each term's entry and
    `factors` holds, per block, None, or for a product the positions of
    each term's factors in M.data and J.data, one tuple per product
    pattern.  `alternating` is dlacn2's last test vector,
    (-1)^i (1 + i / (n - 1)).  `order` lists A's rows, also its columns:
    the band in reverse Cuthill-McKee order, then the k border rows;
    `position` is its inverse.  Entry e of A.data goes to slot `slots[e]`
    of one flat workspace holding, in turn, the band block in dgbtrf's
    storage (2 kl + ku + 1 rows, column-major), the border columns
    (nb x k, column-major), the border rows (k x nb) and the corner
    (k x k).  The index arrays an iterate reads are intp, which bincount
    and take use without a conversion.
    """

    pattern: Pattern
    entry: np.ndarray
    factors: tuple
    alternating: np.ndarray
    order: np.ndarray | None = None
    position: np.ndarray | None = None
    k: int = 0
    kl: int = 0
    ku: int = 0
    slots: np.ndarray | None = None


def _block_terms(pattern: Pattern | tuple[Pattern, Pattern]):
    """(rows, columns, factors) of the terms of one block, in intp.

    Those of a `Pattern` are its stored entries, in storage order, with
    factors None.  Those of a product (M, J) are the terms M_ij J_jk in
    the order of scipy's csr_matmat, M's entries in turn and for each the
    entries of J's row j, with the positions of their factors in M.data
    and J.data.
    """
    if isinstance(pattern, Pattern):
        return pattern.major, pattern.indices.astype(np.intp, copy=False), None
    M, J = pattern
    counts = np.diff(J.indptr)[M.indices]
    left = np.repeat(np.arange(M.nnz), counts)
    right = (np.repeat(J.indptr[M.indices] - (np.cumsum(counts) - counts), counts)
             + np.arange(left.size))
    return M.major[left], J.indices[right].astype(np.intp, copy=False), (left, right)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _sparse_plan(n: int, blocks: tuple) -> _SparsePlan:
    """The plan of `sparse_matrix`'s blocks, keyed by their offsets and
    patterns and made from that key alone.  Patterns are compared by
    identity, and `csr.pattern_of` gives each exact pattern one object,
    so no other pattern can reuse a plan."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    rows, cols, factors, made = [], [], [], {}
    for r0, c0, transposed, pattern in blocks:
        if pattern not in made:
            made[pattern] = _block_terms(pattern)
        major, minor, factor = made[pattern]
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
    layout = (Pattern((n, n), A.indptr, A.indices), entry, tuple(factors), alternating)
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


def sparse_solver(A: CSC, *rhs: np.ndarray):
    """A^{-1} for a matrix from `sparse_matrix`: (solve, [A^{-1} b for b in
    rhs]), where `solve` applies A^{-1} to a vector or to the columns of a
    block.

    It uses the plan's band LU and the border's Schur complement
    S = A_KK - A_KB B^{-1} A_BK, or splu when the plan found the band too
    wide or the band block B is exactly singular.  One multi-column
    dgbtrs sweep solves the border columns B^{-1} A_BK together with the
    band rows of the vectors `rhs`; dgbtrs solves column by column, so
    each solution has the bits `solve` gives it.
    """
    plan = A.plan
    order, k, kl, ku = plan.order, plan.k, plan.kl, plan.ku
    if order is not None:
        nb = order.size - k
        ldab = 2 * kl + ku + 1
        work = np.bincount(plan.slots, weights=A.data, minlength=ldab * nb + (2 * nb + k) * k)
        lu, piv, info = lapack.dgbtrf(work[: ldab * nb].reshape((ldab, nb), order="F"),
                                      kl, ku, overwrite_ab=1)
    if order is None or info > 0:
        # imported here to keep scipy.sparse.linalg (about 40 ms after
        # scipy.sparse) out of `import ssqp`; by now `_sparse_plan`'s
        # scipy.sparse.csgraph import has loaded it
        from scipy.sparse.linalg import splu

        try:
            solve = splu(A.to_scipy()).solve
        except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
            raise _exactly_singular(str(exc)) from None
        return solve, [solve(b) for b in rhs]
    if info < 0:
        raise RuntimeError(f"dgbtrf: illegal argument {-info}")
    position = plan.position
    # each right-hand side in the plan's order, gathered once and put back once
    gathered = [b.take(order) for b in rhs]
    cut = ldab * nb
    swept = np.empty((nb, k + len(rhs)), order="F")
    swept[:, :k] = work[cut : cut + nb * k].reshape((nb, k), order="F")
    for i, w in enumerate(gathered, k):
        swept[:, i] = w[:nb]
    swept = lapack.dgbtrs(lu, kl, ku, swept, piv, overwrite_b=1)[0]
    if k:
        B_inv_cols = swept[:, :k]
        border_rows = work[cut + nb * k : cut + 2 * nb * k].reshape((k, nb))
        schur = work[cut + 2 * nb * k :].reshape((k, k)) - border_rows.dot(B_inv_cols)
        lu_s, piv_s, info = lapack.dgetrf(schur, overwrite_a=1)
        if info > 0:
            raise _exactly_singular(f"zero pivot at {nb + info}")

    def finish(w: np.ndarray, y: np.ndarray) -> np.ndarray:
        """A^{-1} b for b gathered into w, whose band rows the band sweep
        has solved into y."""
        if k:
            z = lapack.dgetrs(lu_s, piv_s, w[nb:] - border_rows.dot(y))[0]
            y -= B_inv_cols.dot(z)
            w[nb:] = z
        w[:nb] = y  # a block of columns is solved in a copy
        return w.take(position, axis=0)

    def solve(b: np.ndarray) -> np.ndarray:
        w = b.take(order, axis=0)
        return finish(w, lapack.dgbtrs(lu, kl, ku, w[:nb], piv, overwrite_b=1)[0])

    solved = []
    for i, w in enumerate(gathered, k):
        w[:nb] = swept[:, i]  # where `solve`'s in-place sweep leaves it
        solved.append(finish(w, w[:nb]))
    return solve, solved


def _inverse_norm_estimate(solve, first: np.ndarray, last: np.ndarray) -> float:
    """Hager's estimate of |A^{-1}|_1 (Higham 1988, Algorithm 4.1, with the
    last test vector of LAPACK's dlacn2), a lower bound reached in a few
    solves.  `first` and `last` are A^{-1} applied to the first and last
    test vectors, e/n and (-1)^i (1 + i / (n - 1)), solved ahead with the
    factorization.  The saddle matrix is symmetric, so the solves with A^T
    that the method asks for are solves with A, as in dsycon."""
    n = first.size
    x = first
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
        last_j, j = j, int(z.argmax())
        if z[last_j] == z[j]:
            break
    return max(est, 2.0 * float(np.abs(last).sum()) / (3.0 * n))


def _exactly_singular(detail: str) -> SingularSubproblem:
    return SingularSubproblem(f"saddle matrix is exactly singular ({detail})")


def _factor_solve(A, rhs: np.ndarray) -> np.ndarray:
    """Factored solve with a condition check and iterative refinement."""
    solve, anorm, rcond, x = _factor(A, rhs)
    if rcond < RCOND_FLOOR:
        est = np.inf if rcond == 0.0 else 1.0 / rcond
        raise SingularSubproblem(
            f"saddle matrix is numerically singular "
            f"(condition estimate {est:.2e})",
            condition_estimate=est,
        )
    if x is None:
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
    return SubproblemSolution(
        z_next=PrimalVec(sys.spaceZ, sys.zk.coords + d),
        lam_next=Functional(sys.spaceY, l),
        active_set=active,
        inner_iterations=iterations,
    )


def solve_equality(sys: SaddleSystem) -> SubproblemSolution:
    """Solve the K = {0} subproblem by one symmetric indefinite solve."""
    d, l, _ = _solve_pattern(sys)
    return _solution_from(sys, d, l, (), 1)


def saddle_condition_estimate(sys: SaddleSystem) -> float:
    """1-norm condition estimate of the assembled saddle matrix."""
    try:
        rcond = _factor(assemble_saddle_matrix(sys))[2]
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
