"""The maps on CSR arrays agree bit for bit with scipy.sparse.

Each per-iterate sparse operation on a fixed pattern runs through a map
on the CSR arrays, memoised by the exact pattern: J^T l, the projector's
column sums of squares, the product M^ J and the Hessian's asymmetry.
Over generated canonical CSR matrices, with empty rows and columns and
explicitly stored zeros, each result must equal the scipy.sparse
expression it replaces in every bit, and a changed pattern of the same
shape and entry count must get its own map.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp import model, subproblem
from ssqp.bench import make_eigencontrol
from ssqp.diagnostics import _column_norms
from ssqp.model import _mirror_map, _sparse_asymmetry, csr_pattern, transpose_dot
from ssqp.solver import SolverOptions, run
from ssqp.spaces import InnerProductSpace
from ssqp.subproblem import product_map, sparse_product

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
@given(matrices(), st.integers(0, 2), st.booleans())
def test_product_is_scipys_product(drawn, bandwidth, general):
    # M^ J for a diagonal or banded M^, or any sparse M, as scipy forms it:
    # the same pattern in the same order and the same bits
    rng, J = drawn
    n = J.shape[0]
    M = (_csr(rng, rng.random((n, n)) < 0.5, rng.random() < 0.5) if general
         else _banded(rng, n, bandwidth))
    pattern, data = sparse_product(M, J)
    want = M @ J
    index_type, indptr, indices = pattern
    assert np.array_equal(np.frombuffer(indptr, index_type), want.indptr)
    assert np.array_equal(np.frombuffer(indices, index_type), want.indices)
    assert _same(data, want.data)
    # where scipy drops no exact zero, the map's own values are scipy's
    product = product_map(csr_pattern(M), csr_pattern(J))
    values = product.values(M.data, J.data)
    if values.all():
        assert product.pattern == pattern and _same(values, want.data)


@PROPERTY
@given(matrices(), st.integers(0, 2), st.booleans())
def test_column_norms_are_scipys_column_sums(drawn, bandwidth, canonical):
    # the projector's J o J and J o (M^ J) summed over each column, for a
    # diagonal or banded mass M_Y; a J stored otherwise takes scipy's path
    rng, J = drawn
    if not canonical and J.nnz:
        J = _stored_twice(rng, J)
    n = J.shape[0]
    mass = _banded(rng, n, bandwidth).toarray()
    mass = 0.5 * (np.abs(mass) + np.abs(mass).T) / 10.0 ** 8 + n * np.eye(n)
    Y = InnerProductSpace(sp.csr_matrix(mass))
    Mh = Y.scaled_mass(sparse=True)
    massed, squares = _column_norms(J, Y)
    assert _same(massed, np.asarray(J.multiply(Mh @ J).sum(axis=0)).ravel())
    assert _same(squares, np.asarray(J.multiply(J).sum(axis=0)).ravel())


@PROPERTY
@given(matrices(square=True), st.booleans())
def test_asymmetry_is_the_transposes(drawn, symmetric):
    # a symmetric pattern takes the mirror map, any other the binary search
    rng, M = drawn
    n = M.shape[0]
    mask = _mask(M) | (rng.random((n, n)) < 0.3)
    if symmetric:
        mask |= mask.T
    elif n > 1:  # (0, n - 1) stored without its mirror
        mask[0, n - 1], mask[n - 1, 0] = True, False
    H = _csr(rng, mask, rng.random() < 0.5)
    pattern_symmetric = np.array_equal(mask, mask.T)
    assert (_mirror_map(csr_pattern(H)) is not None) == pattern_symmetric
    got = _sparse_asymmetry(H)
    if pattern_symmetric:  # as computed before, through H's CSC arrays
        assert _same(got, np.abs(H.data - H.tocsc().data))
    assert _same(got, _dense_asymmetry(H))


@PROPERTY
@given(matrices(square=True), st.integers(0, 2**32 - 1))
def test_a_changed_pattern_of_one_shape_and_size_gets_its_own_map(drawn, seed):
    # one stored entry moved: the same shape and entry count, another
    # pattern, which must get maps of its own and their results
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
        _, data = sparse_product(M, A)
        assert _same(data, (M @ A).data)
        l = rng.standard_normal(A.shape[0])
        assert _same(transpose_dot(A, l), A.T.dot(l))
        assert _same(_sparse_asymmetry(A), _dense_asymmetry(A))
    assert (product_map(csr_pattern(M), csr_pattern(J))
            is not product_map(csr_pattern(M), csr_pattern(K)))


def _mask(M: sp.csr_matrix) -> np.ndarray:
    """The stored positions of M, stored zeros included."""
    mask = np.zeros(M.shape, dtype=bool)
    mask[np.repeat(np.arange(M.shape[0]), np.diff(M.indptr)), M.indices] = True
    return mask


def _dense_asymmetry(H: sp.csr_matrix) -> np.ndarray:
    """|H - H^T| at H's stored entries, from the dense matrix."""
    D = H.toarray()
    return np.abs(D - D.T)[np.repeat(np.arange(H.shape[0]), np.diff(H.indptr)), H.indices]


def _map_counts(declared: bool):
    """(subproblems, cache_info of the Hessian's mirror map, of M^ J's
    product map and of the sparse plans) over one eigencontrol n = 1000
    solve with its reference, declared or its undeclared twin."""
    maps = (model._mirror_map, subproblem.product_map, subproblem._sparse_plan)
    for memo in maps:
        memo.cache_clear()
    bm = make_eigencontrol(n=1000)
    ref = bm.reference
    if not declared:
        ref = dataclasses.replace(ref, multiplier_directions=None)
    z, lam = bm.default_start()
    report = run(bm.problem, z, lam, SolverOptions(), reference=ref)
    assert report.status.value == "Converged"
    subproblems = len(report.history) - 1
    assert subproblems >= 2
    return subproblems, *(memo.cache_info() for memo in maps)


def test_eigencontrol_solve_builds_each_map_once():
    # undeclared: the Hessian's mirror map, the product M^ J and the plans
    # of the saddle matrix and of the projector's K are each made once;
    # every later use hits
    subproblems, mirror, product, plan = _map_counts(declared=False)
    # one Hessian per subproblem
    assert (mirror.misses, mirror.hits) == (1, subproblems - 1)
    # one M^ J per subproblem, and the projector's J o (M^ J)
    assert (product.misses, product.hits) == (1, subproblems)
    # one saddle matrix per subproblem, and K
    assert (plan.misses, plan.hits) == (2, subproblems - 1)


def test_declared_eigencontrol_solve_maps_only_its_subproblems():
    # the declared projector needs no K and no J o (M^ J)
    subproblems, mirror, product, plan = _map_counts(declared=True)
    assert (mirror.misses, mirror.hits) == (1, subproblems - 1)
    assert (product.misses, product.hits) == (1, subproblems - 1)
    assert (plan.misses, plan.hits) == (1, subproblems - 1)
