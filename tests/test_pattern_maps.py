"""The maps on CSR arrays are structural and keep scipy.sparse's bits.

Each per-iterate sparse operation on a fixed pattern runs through a map
on the CSR arrays: J^T l, the Hessian's asymmetry through the mirror map
its interned pattern keeps, and `sparse_matrix`, whose plan, memoised by
its blocks' patterns, sums the product M^ J's terms straight into the
CSC values.
Each map depends on the stored patterns only, so a product block stores
an entry wherever a term exists, 0.0 where its terms cancel.  Over
generated canonical CSR matrices, with empty rows and columns and
explicitly stored zeros, each value scipy stores must equal scipy's in
every bit, and a changed pattern of the same shape and entry count must
get its own map.
"""

import dataclasses
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp import csr, subproblem
from ssqp.bench import fd_eigenvalue, make_eigencontrol
from ssqp.csr import _mirror_map, as_csr, transpose_dot
from ssqp.model import _sparse_asymmetry
from ssqp.solver import SolverOptions, run
from ssqp.subproblem import sparse_matrix

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import assume, given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


def _csr(rng, mask: np.ndarray, zeros: bool) -> sp.csr_matrix:
    """Canonical CSR storage of the entries in `mask`, with values of
    magnitudes 1e-8 to 1e8, a fifth of them stored zeros when `zeros`."""
    rows, cols = np.nonzero(mask)
    values = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-8, 8, rows.size)
    if zeros:
        values[rng.random(rows.size) < 0.2] = 0.0
    indptr = np.searchsorted(rows, np.arange(mask.shape[0] + 1))
    M = sp.csr_matrix((values, cols, indptr), shape=mask.shape)
    assert M.has_canonical_format and M.nnz == rows.size
    return M


@st.composite
def matrices(draw, square: bool = False):
    """(rng, CSR matrix): up to 9 x 9, a density from empty to full."""
    rows = draw(st.integers(1, 9))
    cols = rows if square else draw(st.integers(1, 9))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, _csr(rng, rng.random((rows, cols)) < density, draw(st.booleans()))


def _banded(rng, n: int, bandwidth: int, zeros: bool = False) -> sp.csr_matrix:
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    return _csr(rng, np.abs(offsets) <= bandwidth, zeros)


def _stored_twice(rng, J: sp.csr_matrix) -> sp.csr_matrix:
    """J with every entry stored twice and each row shuffled."""
    rows = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
    twice = np.tile(np.arange(J.nnz), 2)
    twice = twice[np.lexsort((rng.random(twice.size), rows[twice]))]
    return sp.csr_matrix((J.data[twice], J.indices[twice], 2 * J.indptr), shape=J.shape)


def _same(a, b) -> bool:
    """Equal in every bit, signs of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(matrices(), st.booleans())
def test_transpose_dot_is_scipys_product_with_the_transpose(drawn, canonical):
    rng, J = drawn
    if not canonical:
        J = _stored_twice(rng, J)
    l = rng.standard_normal(J.shape[0]) * 10.0 ** rng.uniform(-8, 8, J.shape[0])
    assert _same(transpose_dot(J, l), J.T.dot(l))
    dense = J.toarray()
    assert _same(transpose_dot(dense, l), dense.T.dot(l))


@PROPERTY
@given(matrices(), st.integers(0, 3), st.booleans())
def test_csr_products_are_scipys_with_or_without_its_kernels(drawn, columns, kernels):
    # A x and A^T x by scipy's private matvec kernels, or by the public
    # product that replaces them where a scipy lacks them
    rng, J = drawn
    A = as_csr(J)
    with mock.patch.object(csr, "_kernels", csr._kernels if kernels else lambda: None):
        for M, S in ((A, J), (A.T, J.T)):
            shape = (M.shape[1], columns) if columns else (M.shape[1],)
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            assert _same(M.dot(x), S @ x)


@pytest.mark.parametrize("kernel", ["csr_matvec", "csc_matvecs"])
def test_kernels_that_are_gone_or_wrong_are_not_used(monkeypatch, kernel):
    from scipy.sparse import _sparsetools

    assert csr._kernels() is not None  # this scipy's kernels pass the check
    for replacement in (None, lambda *args: None):  # gone, or computing nothing
        if replacement is None:
            monkeypatch.delattr(_sparsetools, kernel)
        else:
            monkeypatch.setattr(_sparsetools, kernel, replacement, raising=False)
        csr._kernels.cache_clear()
        try:
            assert csr._kernels() is None
        finally:
            monkeypatch.undo()
            csr._kernels.cache_clear()
    assert csr._kernels() is not None


@PROPERTY
@given(matrices(), st.integers(0, 2), st.booleans(), st.booleans())
def test_product_is_structural_with_scipys_values(drawn, bandwidth, general, transposed):
    # M^ J, or its transpose, for a diagonal or banded M^, or any sparse M
    rng, J = drawn
    n = J.shape[0]
    M = (_csr(rng, rng.random((n, n)) < 0.5, rng.random() < 0.5) if general
         else _banded(rng, n, bandwidth))
    _check_product(M, J, transposed)


def _product_matrix(M: sp.csr_matrix, J: sp.csr_matrix, transposed: bool = False):
    """The `sparse_matrix` of the one product block M J, or its transpose,
    at the top left of a square matrix."""
    n = max(M.shape[0], J.shape[1])
    return sparse_matrix(n, [(0, 0, transposed, (as_csr(M).pattern, as_csr(J).pattern))],
                         [(M.data, J.data)])


def _check_product(M: sp.csr_matrix, J: sp.csr_matrix, transposed: bool = False) -> None:
    """The matrix of the product block M J stores an entry, in canonical
    CSC, wherever a term M_ij J_jk exists; at each entry scipy's `M @ J`
    stores its value has scipy's bits, and elsewhere it is +0.0."""
    A = _product_matrix(M, J, transposed)
    assert A.has_canonical_format
    rows, cols = M.shape[0], J.shape[1]
    stored, dense = _mask(A.T), A.toarray().T  # the transpose's, as CSR
    if not transposed:
        stored, dense = stored.T, dense.T
    structural = _mask(M).astype(int) @ _mask(J).astype(int) > 0
    assert A.nnz == np.count_nonzero(structural)
    assert np.array_equal(stored[:rows, :cols], structural)
    want = M @ J
    dense = dense[:rows, :cols]
    assert _same(dense[_positions(want)], want.data)
    dropped = structural & ~_mask(want)
    assert _same(dense[dropped], np.zeros(np.count_nonzero(dropped)))


def test_keys_past_int32_give_scipys_csc():
    # n^2 overflows int32 from n = 46341: a tridiagonal CSR block, whose
    # column indices are int32, still sorts into scipy's CSC
    n = 50000
    S = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.5)],
                 [-1, 0, 1], format="csr")
    assert S.indices.dtype == np.int32
    A, want = sparse_matrix(n, [(0, 0, False, as_csr(S).pattern)], [S.data]), S.tocsc()
    for name in ("data", "indices", "indptr"):
        assert getattr(A, name).tobytes() == getattr(want, name).tobytes(), name


@PROPERTY
@given(matrices(square=True), st.booleans())
def test_asymmetry_is_the_transposes(drawn, symmetric):
    # one map for every pattern: a symmetric one stores each mirror, any
    # other meets zero where it stores none
    rng, M = drawn
    n = M.shape[0]
    mask = _mask(M) | (rng.random((n, n)) < 0.3)
    if symmetric:
        mask |= mask.T
    elif n > 1:  # (0, n - 1) stored without its mirror
        mask[0, n - 1], mask[n - 1, 0] = True, False
    H = _csr(rng, mask, rng.random() < 0.5)
    _, stored = _mirror_map(as_csr(H).pattern)
    assert stored.all() == np.array_equal(mask, mask.T)
    assert _same(_sparse_asymmetry(H), _dense_asymmetry(H))


@PROPERTY
@given(matrices(square=True), st.integers(0, 2**32 - 1))
def test_a_changed_pattern_of_one_shape_and_size_gets_its_own_map(drawn, seed):
    # one stored entry moved: the same shape and entry count, another
    # pattern, which must get maps and a plan of its own and their results
    rng, J = drawn
    mask = _mask(J)
    assume(mask.any() and not mask.all())
    pick = np.random.default_rng(seed)
    stored, free = np.argwhere(mask), np.argwhere(~mask)
    moved = mask.copy()
    moved[tuple(stored[pick.integers(len(stored))])] = False
    moved[tuple(free[pick.integers(len(free))])] = True
    K = _csr(rng, moved, False)
    assert K.shape == J.shape and K.nnz == J.nnz
    M = _banded(rng, J.shape[0], 1)
    for A in (J, K):  # J's maps are made first, then K's
        _check_product(M, A)
        l = rng.standard_normal(A.shape[0])
        assert _same(transpose_dot(A, l), A.T.dot(l))
        assert _same(_sparse_asymmetry(A), _dense_asymmetry(A))
    assert _product_matrix(M, J).plan is not _product_matrix(M, K).plan


def _positions(M: sp.csr_matrix) -> tuple[np.ndarray, np.ndarray]:
    """The (rows, columns) of M's stored entries, in storage order."""
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices


def _mask(M: sp.csr_matrix) -> np.ndarray:
    """The stored positions of M, stored zeros included."""
    mask = np.zeros(M.shape, dtype=bool)
    mask[_positions(M)] = True
    return mask


def _dense_asymmetry(H: sp.csr_matrix) -> np.ndarray:
    """|H - H^T| at H's stored entries, from the dense matrix."""
    D = H.toarray()
    return np.abs(D - D.T)[_positions(H)]


def _map_counts(monkeypatch, declared: bool):
    """(subproblems, mirror maps made, cache_info of the sparse plans,
    patterns looked up by their bytes) over one eigencontrol n = 1000
    solve with its reference, whose multiplier directions are declared or
    not.  The pattern and plan memos start empty, so every map is made
    anew."""
    mirrors, mirror_map = [], csr._mirror_map

    def counted(pattern):
        mirrors.append(pattern)
        return mirror_map(pattern)

    monkeypatch.setattr(csr, "_mirror_map", counted)
    csr._interned.cache_clear()
    subproblem._sparse_plan.cache_clear()
    bm = make_eigencontrol(n=1000)
    ref = bm.reference
    if not declared:
        ref = dataclasses.replace(ref, multiplier_directions=None)
    z, lam = bm.default_start()
    bm.problem.Y.scaled_mass(sparse=True)  # made once per space, on first use
    looked_up = sum(csr._interned.cache_info()[:2])
    report = run(bm.problem, z, lam, SolverOptions(), reference=ref)
    assert report.status.value == "Converged"
    subproblems = len(report.history) - 1
    assert subproblems >= 2
    looked_up = sum(csr._interned.cache_info()[:2]) - looked_up
    return subproblems, len(mirrors), subproblem._sparse_plan.cache_info(), looked_up


def test_eigencontrol_solve_builds_each_map_once(monkeypatch):
    # undeclared directions: the Hessian's mirror map, kept on its
    # pattern, and the plans of the saddle matrix, M^ J's terms included,
    # and of the projector's K are each made once; the later saddle
    # matrices find their plan by the patterns' identity; only K's
    # identity pattern is looked up by its bytes
    subproblems, mirrors, plan, looked_up = _map_counts(monkeypatch, declared=False)
    assert mirrors == 1
    # one saddle matrix per subproblem, and K
    assert (plan.misses, plan.hits) == (2, subproblems - 1)
    assert looked_up == 1


def test_declared_eigencontrol_solve_maps_only_its_subproblems(monkeypatch):
    # the declared projector needs no K, and the solve looks no pattern up
    subproblems, mirrors, plan, looked_up = _map_counts(monkeypatch, declared=True)
    assert mirrors == 1
    assert (plan.misses, plan.hits) == (1, subproblems - 1)
    assert looked_up == 0


def test_repeated_eigencontrol_builds_share_the_memos():
    # each build makes its own Laplacian pattern, outside the pattern
    # memo; the Jacobian's, the Hessian's and Y's M^ patterns, and the
    # saddle plan, are made by the first build and solve and found again
    csr._interned.cache_clear()
    subproblem._sparse_plan.cache_clear()
    for _ in range(4):
        bm = make_eigencontrol(n=1000)
        z, lam = bm.default_start()
        report = run(bm.problem, z, lam, SolverOptions(), reference=bm.reference)
        assert report.status.value == "Converged"
    assert subproblem._sparse_plan.cache_info().misses == 1
    assert csr._interned.cache_info().misses == 3


def test_a_cancelled_product_entry_keeps_the_saddle_plan():
    # u = 0 at every other grid point stores zeros in J's last column, so
    # entries of M^ J cancel on the first subproblem and not on the
    # second; the structural product keeps one pattern, and one plan
    n = 49
    bm = make_eigencontrol(n=n)
    phi = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    u = 0.01 * phi
    u[::2] = 0.0
    z = bm.problem.Z.vector(np.append(u, -fd_eigenvalue(n, 1) + 0.01))
    lam = bm.problem.Y.functional(0.01 * phi)
    subproblem._sparse_plan.cache_clear()
    report = run(bm.problem, z, lam, SolverOptions(), reference=bm.reference)
    assert report.status.value == "Converged"
    assert len(report.history) - 1 == 2
    assert subproblem._sparse_plan.cache_info().misses == 1
