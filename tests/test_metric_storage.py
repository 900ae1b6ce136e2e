"""Banded metric storage agrees with dense storage, over generated masses.

A scipy.sparse mass is stored in symmetric band form with a banded
Cholesky factor, a numpy one densely; every metric operation must give
the same result for the same matrix, up to rounding.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import cholesky_banded

from ssqp.spaces import InnerProductSpace, ProductSpace, _BandMetric

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def banded_masses(draw):
    """(M, sparse M, rng): a diagonally dominant, hence SPD, symmetric
    matrix of size 1-40 and bandwidth 0-3, scaled by 10^[-3, 3], and the
    same matrix in a drawn scipy.sparse format."""
    n = draw(st.integers(1, 40))
    b = min(draw(st.integers(0, 3)), n - 1)
    fmt = draw(st.sampled_from(["csr", "csc", "coo", "dia"]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = np.zeros((n, n))
    for i in range(1, b + 1):
        d = rng.uniform(-1.0, 1.0, n - i)
        M += np.diag(d, -i) + np.diag(d, i)
    M += np.diag(np.abs(M).sum(axis=1) + rng.uniform(0.1, 2.0, n))
    M *= scale
    return M, sp.csr_matrix(M).asformat(fmt), rng


def _agree(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert_allclose(got, want, rtol=1e-10,
                    atol=1e-10 * np.abs(want).max(initial=0.0))


@PROPERTY
@given(banded_masses())
def test_banded_storage_agrees_with_dense(case):
    M, sparse_M, rng = case
    B = rng.standard_normal((2, 2))
    P = B @ B.T + 2.0 * np.eye(2)
    pairs = [
        (InnerProductSpace(sparse_M), InnerProductSpace(M)),
        # a product with a banded part is banded, an all-dense one dense
        (ProductSpace([InnerProductSpace(sparse_M), InnerProductSpace(P)]),
         ProductSpace([InnerProductSpace(M), InnerProductSpace(P)])),
    ]
    for banded, dense in pairs:
        x = rng.standard_normal(banded.dim)
        X = rng.standard_normal((banded.dim, 3))
        for op in ("norm_arr", "dual_norm_arr"):
            _agree(getattr(banded, op)(x), getattr(dense, op)(x))
        for op in ("solve_mass", "apply_mass", "whiten", "whiten_dual",
                   "unwhiten_dual"):
            for arg in (x, X):
                _agree(getattr(banded, op)(arg), getattr(dense, op)(arg))
        _agree(banded.scaled_mass(), dense.scaled_mass())
        _agree(banded.scaled_mass(sparse=True).toarray(),
               dense.scaled_mass(sparse=True).toarray())
        _agree(banded.mass_scale, dense.mass_scale)
        _agree(banded.mass, dense.mass)


#: the widest band that LAPACK's dpbtrf factors column by column; past it
#: (its ilaenv crossover) it works in blocks of columns counted from the
#: matrix's first column, whose rounding depends on where a part starts
UNBLOCKED_BANDWIDTH = 64


@st.composite
def product_parts(draw):
    """1-3 spaces of size 1-90 and bandwidth 0-80, each stored banded or
    dense, at least one banded, with diagonally dominant masses."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 90))
        b = min(draw(st.integers(0, 80)), n - 1)
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        M = np.zeros((n, n))
        for i in range(1, b + 1):
            d = rng.uniform(-1.0, 1.0, n - i)
            M += np.diag(d, -i) + np.diag(d, i)
        M += np.diag(np.abs(M).sum(axis=1) + rng.uniform(0.1, 2.0, n))
        parts.append(M if draw(st.booleans()) else sp.csr_matrix(M))
    if not any(sp.issparse(M) for M in parts):
        parts[-1] = sp.csr_matrix(parts[-1])
    return [InnerProductSpace(M) for M in parts]


@PROPERTY
@given(product_parts())
def test_a_product_factors_its_stacked_bands(parts):
    # the product's bands are its parts' stacked (a dense part's to its
    # last nonzero subdiagonal), factored once: the bits of one
    # cholesky_banded of them at every bandwidth.  Up to the unblocked
    # bandwidth that is also the parts' own factors stacked, bit for bit;
    # past it they agree to rounding, |dL| <= (b + 1) eps max sqrt(M_ii)
    product = ProductSpace(parts)
    bands = [p._metric.bands() if isinstance(p._metric, _BandMetric)
             else _dense_bands(p.mass) for p in parts]
    rows = max(ab.shape[0] for ab in bands)

    def stacked(arrays):
        return np.hstack([np.pad(a, ((0, rows - a.shape[0]), (0, 0))) for a in arrays])

    factor = product._metric._factor
    assert np.array_equal(product._metric.bands(), stacked(bands))
    assert np.array_equal(factor, cholesky_banded(stacked(bands), lower=True))
    parts_factors = stacked([cholesky_banded(ab, lower=True) for ab in bands])
    if rows - 1 <= UNBLOCKED_BANDWIDTH:
        assert np.array_equal(factor, parts_factors)
    else:
        scale = math.sqrt(product._metric.bands()[0].max())
        assert_allclose(factor, parts_factors, rtol=0.0,
                        atol=rows * np.finfo(float).eps * scale)


def _dense_bands(M: np.ndarray) -> np.ndarray:
    """Lower band storage of a symmetric M, to its last nonzero subdiagonal."""
    rows, cols = np.nonzero(M)
    ab = np.zeros((int((rows - cols).max(initial=0)) + 1, M.shape[0]))
    for i in range(ab.shape[0]):
        ab[i, : M.shape[0] - i] = np.diagonal(M, -i)
    return ab
