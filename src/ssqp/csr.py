"""Sparse matrices as data arrays on shared sparsity patterns.

A sparse matrix of the package is a `CSR`: a `data` array on a `Pattern`,
the shape and the `indptr` and `indices` arrays of compressed sparse rows.
Patterns are interned: `pattern_of` looks an exact pattern up in a memo
keyed by its bytes (`functools.lru_cache`, the last PLAN_CACHE_SIZE
patterns), so that equal patterns are one object while it holds them.
Every map made from a pattern is then made once per object and found
again by identity, never by hashing bytes: the pattern's own maps (each
entry's row, the mirror map of a square pattern) are attributes of the
object, and `subproblem`'s saddle plans are memoised by the patterns of
their blocks.

A callback may return a `CSR` itself, its data on a pattern the problem
interned once, when it was built; it is taken in as it is.  A
scipy.sparse matrix, such as other callbacks' output, is taken in by
`as_csr`, which looks its pattern up on every call.

The products call scipy.sparse's matvec kernels on the arrays, the
functions scipy's own product calls, so every value has scipy's bits.
Their module is loaded by `_scipy.extension`, without scipy.sparse's
package import.  Those kernels are private to scipy: `_kernels` checks
them once against scipy's public product, and where they are gone or
disagree the products take the public route, a scipy matrix on the same
arrays.
"""

from __future__ import annotations

import sys
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from ._scipy import extension

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Patterns, and plans made from them, kept per memo; the least recently
#: used goes.
PLAN_CACHE_SIZE = 8


def issparse(M) -> bool:
    """Whether M is a `CSR` (or its transpose) or a scipy.sparse matrix.

    scipy.sparse is not imported for the test, so problems with dense
    callbacks never pay for that import (about 0.1 s of a CLI process,
    with the scipy layers it loads): no scipy.sparse matrix exists before
    some code imported it.
    """
    if isinstance(M, CSR):
        return True
    if isinstance(M, np.ndarray):
        return False
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(M)


class Pattern:
    """The sparsity pattern of a CSR matrix, with the maps made from it.

    `indptr` and `indices` are read-only index arrays of one dtype, intp
    for an interned pattern; `major` is each entry's row, in intp;
    `canonical` tells whether each row's indices increase
    strictly (sorted, no duplicates), and `mirror`, for a square
    canonical pattern, is `_mirror_map`'s.  Each map is made on first
    use and kept.  Build patterns through `pattern_of`, which shares one
    object per pattern, or directly for one that no other matrix shares.
    """

    def __init__(self, shape: tuple[int, int], indptr: np.ndarray,
                 indices: np.ndarray) -> None:
        self.shape = shape
        self.indptr = indptr
        self.indices = indices
        self.nnz = indices.size

    @cached_property
    def major(self) -> np.ndarray:
        major = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        major.flags.writeable = False
        return major

    @cached_property
    def canonical(self) -> bool:
        steps = np.diff(self.indices) > 0
        return bool((steps | (np.diff(self.major) != 0)).all())

    @cached_property
    def mirror(self) -> tuple[np.ndarray, np.ndarray]:
        return _mirror_map(self)


def pattern_of(shape, indptr, indices) -> Pattern:
    """The one `Pattern` of these CSR arrays, checked once and memoised
    by its content: the shape and the bytes of both arrays as intp."""
    indptr, indices = (np.asarray(a, dtype=np.intp) for a in (indptr, indices))
    return _interned(tuple(int(s) for s in shape), indptr.tobytes(), indices.tobytes())


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _interned(shape: tuple[int, int], indptr: bytes, indices: bytes) -> Pattern:
    indptr, indices = np.frombuffer(indptr, np.intp), np.frombuffer(indices, np.intp)
    rows, cols = shape
    if not (indptr.size == rows + 1 and indptr[0] == 0 and indptr[-1] == indices.size
            and (np.diff(indptr) >= 0).all()
            and ((indices >= 0) & (indices < cols)).all()):
        raise ValueError(f"indptr and indices are no CSR pattern of shape {shape}")
    return Pattern(shape, indptr, indices)


def _mirror_map(pattern: Pattern) -> tuple[np.ndarray, np.ndarray]:
    """(mirror, stored) of a canonical square pattern: for entry (i, j)
    the position of entry (j, i) in intp, found by binary search in
    row-major order, and whether the pattern stores it (where it does
    not, mirror is some valid position)."""
    n = pattern.shape[0]
    rows, indices = pattern.major, pattern.indices
    keys, mirror_keys = rows * n + indices, indices * n + rows
    mirror = np.minimum(np.searchsorted(keys, mirror_keys), max(keys.size - 1, 0))
    stored = keys.take(mirror) == mirror_keys
    for a in (mirror, stored):
        a.flags.writeable = False  # every caller shares them
    return mirror, stored


@lru_cache(maxsize=None)
def _kernels():
    """scipy.sparse's csr_matvec(s) and csc_matvec(s), by kind ("csr",
    "csc") and for a vector (False) or a block (True), or None when this
    scipy has no such kernels or they miss, on one small matrix, the
    exact product (its entries are small dyadic numbers)."""
    try:
        _sparsetools = extension("sparse", "_sparsetools")
        kernels = {(kind, block): getattr(_sparsetools, f"{kind}_matvec{'s' * block}")
                   for kind in ("csr", "csc") for block in (False, True)}
        pattern = Pattern((2, 3), np.array([0, 2, 3]), np.array([0, 2, 1]))
        data = np.array([1.5, -2.0, 3.0])
        dense = np.array([[1.5, 0.0, -2.0], [0.0, 3.0, 0.0]])
        x = np.array([[0.25, 1.0], [4.0, -1.0], [0.5, 2.0]])
        for kind, A in (("csr", dense), ("csc", dense.T)):
            for b in (x[: A.shape[1], 0], x[: A.shape[1]]):
                if not np.array_equal(
                        _kernel_product(kernels, kind, A.shape, pattern, data, b), A @ b):
                    return None
    except Exception:  # any change of the private module
        return None
    return kernels


def _kernel_product(kernels, kind: str, shape: tuple[int, int], pattern: Pattern,
                    data: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A x by the `kernels` of `_kernels`, called as scipy's product calls
    them, without its dispatch."""
    if x.ndim == 1:
        y = np.zeros(shape[0])
        kernels[kind, False](*shape, pattern.indptr, pattern.indices, data, x, y)
        return y
    y = np.zeros((shape[0], x.shape[1]))
    kernels[kind, True](*shape, x.shape[1], pattern.indptr, pattern.indices, data,
                        x.ravel(), y.ravel())
    return y


class CSR:
    """A sparse matrix stored by rows: `data` on a `Pattern`.

    It offers what the package uses of scipy's csr_matrix: the arrays,
    `dot` (also `@`) with a vector or a block of columns, `T` (a `CSC`
    sharing the arrays), `abs`, `toarray` and `to_scipy`, the scipy.sparse
    matrix with the same arrays.
    """

    format = "csr"

    def __init__(self, pattern: Pattern, data: np.ndarray) -> None:
        self.pattern = pattern
        self.data = data
        self.indptr, self.indices, self.nnz = pattern.indptr, pattern.indices, pattern.nnz

    @property
    def shape(self) -> tuple[int, int]:
        return self.pattern.shape

    @property
    def has_canonical_format(self) -> bool:
        return self.pattern.canonical

    @property
    def T(self) -> CSC:
        return CSC(self.pattern, self.data)

    def dot(self, x: np.ndarray) -> np.ndarray:
        kernels = _kernels()
        if kernels is None:
            return self.to_scipy() @ x
        return _kernel_product(kernels, self.format, self.shape, self.pattern, self.data, x)

    __matmul__ = dot

    def __abs__(self):
        return type(self)(self.pattern, np.abs(self.data))

    def toarray(self) -> np.ndarray:
        p = self.pattern
        out = np.zeros(p.shape)
        np.add.at(out, (p.major, p.indices), self.data)  # duplicates summed in turn
        return out

    def to_scipy(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


class CSC(CSR):
    """The transpose of a `CSR` matrix: its arrays read by columns, the
    compressed sparse columns of a matrix of the reversed shape."""

    format = "csc"

    @property
    def shape(self) -> tuple[int, int]:
        return self.pattern.shape[::-1]

    @property
    def T(self) -> CSR:
        return CSR(self.pattern, self.data)

    def toarray(self) -> np.ndarray:
        return CSR.toarray(self).T.copy()  # in C order, as scipy's

    def to_scipy(self) -> sp.csc_matrix:
        import scipy.sparse as sp

        return sp.csc_matrix((self.data, self.indices, self.indptr), shape=self.shape)


def as_csr(M) -> CSR:
    """M as a `CSR` matrix: M itself when it is one, else scipy's float
    CSR conversion of M on its interned pattern, sharing its data."""
    if type(M) is CSR:
        return M
    import scipy.sparse as sp

    if not (type(M) is sp.csr_matrix and M.dtype == np.float64):
        M = sp.csr_matrix(M.to_scipy() if isinstance(M, CSR) else M, dtype=float)
    return CSR(pattern_of(M.shape, M.indptr, M.indices), M.data)


def transpose_dot(J, v: np.ndarray) -> np.ndarray:
    """J^T v for a matrix J, dense or sparse, and a vector or a block v.

    A sparse J is read as `CSR`, and J^T v is the product of the `CSC`
    matrix J^T on the same arrays, which builds no J^T.
    """
    return (J if isinstance(J, np.ndarray) else as_csr(J)).T.dot(v)
