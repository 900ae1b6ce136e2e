"""Finite-dimensional Hilbert space models.

A space is R^dim equipped with a symmetric positive definite mass matrix
defining the inner product (u, v) = u^T M v.  Dual elements (functionals)
are stored as duality-pairing coefficient vectors, so that <l, v> is the
plain dot product of coefficients with coordinates; the Riesz map is then
multiplication by M^{-1} and the adjoint of an operator matrix acting on
functional coefficients is the plain transpose.

The mass matrix has one of two storages, chosen from the input:

* dense: a numpy array (or nested lists) is kept as an n x n array with a
  dense Cholesky factor, O(n^2) memory and an O(n^3) factorization;
* banded: a scipy.sparse matrix is kept in LAPACK's symmetric lower band
  storage, ab[i, j] = M[j + i, j] for bandwidth b, with the banded
  Cholesky factor in the same layout: O(n b) memory, an O(n b^2)
  factorization and O(n b) per metric operation.  `identity` and
  `diagonal` give banded storage with b = 0.

A `ProductSpace` is built from its block-diagonal mass by the same rule.

Both storages offer the same operations, and norms are computed in
whitened form on both.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from ._scipy import blas, lapack
from .csr import CSR, issparse, pattern_of

dnrm2, dtbmv, dtbsv, dtrmm, dtrmv, dtrsv = (
    blas.dnrm2, blas.dtbmv, blas.dtbsv, blas.dtrmm, blas.dtrmv, blas.dtrsv)
dpbtrf, dpbtrs, dpotrf, dpotrs, dtbtrs, dtrtrs = (
    lapack.dpbtrf, lapack.dpbtrs, lapack.dpotrf, lapack.dpotrs, lapack.dtbtrs, lapack.dtrtrs)


class DimensionMismatch(ValueError):
    """Operand does not match the dimension of the space it is used with."""


_FLOAT = np.dtype(float)


def _as_float_vector(x, dim: int, what: str) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype is _FLOAT and x.shape == (dim,):
        return x  # what the conversion below returns for such an x
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{what}: expected shape ({dim},), got {arr.shape}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, after the check scipy's check_finite makes.

    The metric's factorizations and solves call LAPACK directly, without
    scipy's wrappers: those cost ten times the call at small sizes, and
    their check would also rescan the whole Cholesky factor that
    construction has checked once.
    """
    if not np.isfinite(arr).all():
        raise ValueError("array must not contain infs or NaNs")
    return arr


def _solved(result: tuple[np.ndarray, int], routine: str) -> np.ndarray:
    """The solution of a LAPACK solve that returns (x, info)."""
    x, info = result
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info {info}")
    return x


def max_entry(entries: np.ndarray) -> float:
    """entries.max(initial=0.0), without the method's Python wrapper."""
    return float(np.maximum.reduce(entries, axis=None, initial=0.0))


def euclidean_norm(v: np.ndarray) -> float:
    """|v|_2 of a contiguous float vector by np.linalg.norm's own
    arithmetic, sqrt(v . v), without its dispatch (a few microseconds per
    call, more than the arithmetic at small sizes)."""
    return math.sqrt(v.dot(v))


def _check_square(shape) -> int:
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"mass matrix must be square, got shape {shape}")
    if shape[0] == 0:
        raise ValueError("mass matrix must have positive dimension")
    return shape[0]


def cho_factor(mass: np.ndarray) -> tuple[np.ndarray, bool]:
    """scipy.linalg.cho_factor(mass, lower=True) of a finite square mass:
    its LAPACK call, dpotrf, without its wrapper.  Returns (c, True), c
    the lower Cholesky factor in Fortran order, with mass's entries left
    above the diagonal."""
    c, info = dpotrf(mass, lower=1, clean=0)
    if info != 0:
        raise ValueError("mass matrix is not positive definite")
    return c, True


class _DenseMetric:
    """M as an n x n array with its dense Cholesky factor M = L L^T."""

    def __init__(self, mass) -> None:
        mass = np.array(mass, dtype=float)
        self.dim = _check_square(mass.shape)
        _finite(mass)
        scale = max(max_entry(np.abs(mass)), 1.0)
        # a - b = -(b - a) exactly, so the largest entry of the finite,
        # antisymmetric M - M^T is its largest absolute entry
        if max_entry(mass - mass.T) > 1e-12 * scale:
            raise ValueError("mass matrix is not symmetric (1e-12 relative)")
        mass = 0.5 * (mass + mass.T)
        # the BLAS triangular routines read only the lower triangle
        self._lower = cho_factor(mass)[0]
        mass.flags.writeable = False
        self._mass = mass

    def dense(self) -> np.ndarray:
        return self._mass

    def diagonal(self) -> np.ndarray:
        return self._mass.diagonal()

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._mass.dot(x)  # @ without matmul's dispatch

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solved(dpotrs(self._lower, rhs, lower=1), "dpotrs")

    def lower_product(self, x: np.ndarray, trans: bool) -> np.ndarray:
        cols = x.reshape(self.dim, -1)
        return dtrmm(1.0, self._lower, cols, lower=1, trans_a=int(trans)).reshape(x.shape)

    def lower_solve(self, x: np.ndarray) -> np.ndarray:
        return _solved(dtrtrs(self._lower, x, lower=1), "dtrtrs")

    def norm(self, x: np.ndarray) -> float:
        return dnrm2(dtrmv(self._lower, x, lower=1, trans=1))

    def dual_norm(self, a: np.ndarray) -> float:
        return dnrm2(dtrsv(self._lower, a, lower=1))

    def csr(self) -> CSR:
        rows, cols = np.nonzero(self._mass)
        return _csr(self.dim, rows, cols, self._mass[rows, cols])


def _csr(dim: int, rows: np.ndarray, cols: np.ndarray, data: np.ndarray) -> CSR:
    """The dim x dim `CSR` matrix of entries given row by row, columns
    ascending in each row."""
    indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=dim)))
    return CSR(pattern_of((dim, dim), indptr, cols), data)


def _sparse_bands(mass) -> np.ndarray:
    """Symmetrized lower band storage of a scipy.sparse mass matrix."""
    dim = _check_square(mass.shape)
    coo = mass.tocoo()
    data = np.asarray(coo.data, dtype=float)
    stored = data != 0.0
    rows, cols, data = coo.row[stored], coo.col[stored], data[stored]
    offset = rows.astype(np.intp) - cols
    b = int(np.abs(offset).max(initial=0))
    low, up = np.zeros((b + 1, dim)), np.zeros((b + 1, dim))
    below = offset >= 0
    # add.at sums duplicate entries, as scipy.sparse does
    np.add.at(low, (offset[below], cols[below]), data[below])
    np.add.at(up, (-offset[~below], rows[~below]), data[~below])
    scale = max(float(np.abs(data).max(initial=0.0)), 1.0)
    if float(np.abs(low[1:] - up[1:]).max(initial=0.0)) > 1e-12 * scale:
        raise ValueError("mass matrix is not symmetric (1e-12 relative)")
    low[1:] = 0.5 * (low[1:] + up[1:])
    return low


def _columns(op, arr: np.ndarray, **kw) -> np.ndarray:
    """op(arr, **kw), or a copy of arr when it has no columns (BLAS
    rejects empty operands)."""
    return arr.copy() if arr.size == 0 else op(arr, **kw)


def _along(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """v shaped to scale the rows of x, a vector or a matrix of columns."""
    return v if x.ndim == 1 else v[:, None]


class _BandMetric:
    """M in symmetric lower band storage ab[i, j] = M[j + i, j], i <= b,
    with its banded Cholesky factor M = L L^T in the same layout."""

    def __init__(self, ab: np.ndarray) -> None:
        # a copy the caller cannot edit, in Fortran order, which LAPACK and
        # BLAS take without a copy
        ab = np.array(ab, dtype=float, order="F")
        self.dim = ab.shape[1]
        if self.dim == 0:
            raise ValueError("mass matrix must have positive dimension")
        self.b = ab.shape[0] - 1
        # the LAPACK call scipy's cholesky_banded makes, without its wrapper
        factor, info = dpbtrf(_finite(ab), lower=1)
        if info != 0:
            raise ValueError("mass matrix is not positive definite")
        self._factor = factor
        self._ab = ab

    def dense(self) -> np.ndarray:
        mass = np.diag(self._ab[0])
        for i in range(1, self.b + 1):
            j = np.arange(self.dim - i)
            mass[j + i, j] = mass[j, j + i] = self._ab[i, : self.dim - i]
        mass.flags.writeable = False
        return mass

    def diagonal(self) -> np.ndarray:
        return self._ab[0]

    def bands(self) -> np.ndarray:
        return self._ab

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = _along(self._ab[0], x) * x
        for i in range(1, self.b + 1):
            d = _along(self._ab[i, :-i], x)
            out[i:] += d * x[:-i]
            out[:-i] += d * x[i:]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return _solved(dpbtrs(self._factor, rhs, lower=1), "dpbtrs")

    def lower_product(self, x: np.ndarray, trans: bool) -> np.ndarray:
        L = self._factor
        out = _along(L[0], x) * x
        for i in range(1, self.b + 1):
            d = _along(L[i, :-i], x)
            if trans:
                out[:-i] += d * x[i:]
            else:
                out[i:] += d * x[:-i]
        return out

    def lower_solve(self, x: np.ndarray) -> np.ndarray:
        out = _solved(dtbtrs(self._factor, x.reshape(self.dim, -1), uplo="L"), "dtbtrs")
        return out.reshape(x.shape)

    def norm(self, x: np.ndarray) -> float:
        return dnrm2(dtbmv(self.b, self._factor, x, lower=1, trans=1))

    def dual_norm(self, a: np.ndarray) -> float:
        return dnrm2(dtbsv(self.b, self._factor, a, lower=1))

    def csr(self) -> CSR:
        # M[r, r + d] = ab[|d|, min(r, r + d)] for the offsets |d| <= b
        offsets = np.arange(-self.b, self.b + 1)
        rows = np.arange(self.dim)[:, None]
        cols = rows + offsets
        inside = (cols >= 0) & (cols < self.dim)
        at = (np.abs(offsets), np.minimum(rows, cols) * inside)
        band = np.where(inside, self._ab[at], 0.0)
        rows, k = np.nonzero(band)
        return _csr(self.dim, rows, rows + offsets[k], band[rows, k])


class InnerProductSpace:
    """R^dim with inner product (u, v) = u^T mass v.

    A numpy `mass` is stored dense and a scipy.sparse one banded (see the
    module docstring); there is no option.  The mass matrix is checked
    for symmetry (1e-12 relative) and positive definiteness (Cholesky
    factorization must succeed).  The factor is cached and reused for
    every Riesz solve and norm.  Instances are not changed after
    construction (`dim` and `mass_scale` are plain attributes, to be
    read only) and are safe to share across threads.
    """

    def __init__(self, mass) -> None:
        self._set_metric(_BandMetric(_sparse_bands(mass)) if issparse(mass)
                         else _DenseMetric(mass))

    def _set_metric(self, metric: _DenseMetric | _BandMetric) -> None:
        self._metric = metric
        #: plain attributes, not properties: every element and every
        #: metric operation reads them
        self.dim: int = metric.dim
        #: tau = trace(M) / dim, the mean diagonal entry of the mass matrix
        self.mass_scale: float = float(metric.diagonal().sum()) / self.dim
        self._scaled_mass: dict[bool, np.ndarray | CSR] = {}
        self._inverse_mass: np.ndarray | None = None

    @classmethod
    def _banded(cls, ab) -> "InnerProductSpace":
        space = cls.__new__(cls)
        space._set_metric(_BandMetric(ab))
        return space

    @classmethod
    def identity(cls, dim: int) -> "InnerProductSpace":
        return cls._banded(np.ones((1, dim)))

    @classmethod
    def diagonal(cls, weights) -> "InnerProductSpace":
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError(f"weights must be a vector, got shape {weights.shape}")
        return cls._banded(weights[None, :])

    @property
    def mass(self) -> np.ndarray:
        """The mass matrix as a read-only dense array, materialized on each
        read on banded storage (O(n^2)); only tests read it."""
        return self._metric.dense()

    def scaled_mass(self, sparse: bool = False) -> np.ndarray | CSR:
        """M / tau, dense or as `CSR` without its zero entries; cached.
        The `CSR` one is M (1 / tau), as scipy.sparse divides.

        Dividing by tau makes the matrix dimensionless: M = tau I, a
        lumped mass, gives the identity.
        """
        scaled = self._scaled_mass.get(sparse)
        if scaled is None:
            if sparse:
                M = self._metric.csr()
                scaled = CSR(M.pattern, M.data * (1.0 / self.mass_scale))
            else:
                scaled = self._metric.dense() / self.mass_scale
                scaled.flags.writeable = False
            self._scaled_mass[sparse] = scaled
        return scaled

    @property
    def inverse_mass(self) -> np.ndarray:
        """Dense M^{-1}, computed once on first use and symmetrized.

        The program does not use it; it stays only until the benchmark's
        tracer (perfbench/tracer.py) stops patching it (ROADMAP B1).
        """
        if self._inverse_mass is None:
            inv = self._metric.solve(np.eye(self.dim))
            inv = 0.5 * (inv + inv.T)
            inv.flags.writeable = False
            self._inverse_mass = inv
        return self._inverse_mass

    # -- constructors for elements -------------------------------------

    def vector(self, coords) -> "PrimalVec":
        return PrimalVec(self, coords)

    def functional(self, coeffs) -> "Functional":
        return Functional(self, coeffs)

    def zero_vector(self) -> "PrimalVec":
        return PrimalVec(self, np.zeros(self.dim))

    def zero_functional(self) -> "Functional":
        return Functional(self, np.zeros(self.dim))

    # -- metric operations ----------------------------------------------

    def inner(self, u: "PrimalVec", v: "PrimalVec") -> float:
        """(u, v) = u^T M v."""
        a = _as_float_vector(u.coords, self.dim, "u")
        b = _as_float_vector(v.coords, self.dim, "v")
        return float(a @ self._metric.apply(b))

    def norm(self, u: "PrimalVec") -> float:
        return self.norm_arr(u.coords)

    def norm_arr(self, coords) -> float:
        """|x| = |L^T x|_2, which overflows only where |x| itself does."""
        return float(self._metric.norm(_as_float_vector(coords, self.dim, "coords")))

    def apply_mass(self, coords) -> np.ndarray:
        """M x for a vector or a matrix of columns."""
        return self._metric.apply(self._leading(coords))

    def solve_mass(self, rhs) -> np.ndarray:
        """M x = rhs via the cached factorization (the Riesz map on arrays)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.dim:
            raise DimensionMismatch(
                f"rhs: expected leading dimension {self.dim}, got {rhs.shape}"
            )
        return self._metric.solve(_finite(rhs))

    def riesz(self, l: "Functional") -> "PrimalVec":
        """Riesz representative: the v with (v, y) = <l, y> for all y."""
        coeffs = _as_float_vector(l.coeffs, self.dim, "coeffs")
        return PrimalVec(self, self.solve_mass(coeffs))

    def riesz_inverse(self, v: "PrimalVec") -> "Functional":
        """Functional with coefficients M v, the inverse of `riesz`."""
        return Functional(self, self.apply_mass(
            _as_float_vector(v.coords, self.dim, "coords")))

    def dual_norm(self, l: "Functional") -> float:
        return self.dual_norm_arr(l.coeffs)

    def dual_norm_arr(self, coeffs) -> float:
        """|l|_* = |L^{-1} l|_2, which overflows only where |l|_* itself does."""
        a = _as_float_vector(coeffs, self.dim, "coeffs")
        return float(self._metric.dual_norm(a))

    # -- whitening by the cached factor M = L L^T ---------------------------
    #
    # x -> L^T x maps the space isometrically onto Euclidean R^dim, and
    # l -> L^{-1} l does the same for its dual; each accepts a vector or a
    # matrix of columns.

    def whiten(self, coords) -> np.ndarray:
        """L^T x, so that |x| is the Euclidean norm of the result."""
        return _columns(self._metric.lower_product, self._leading(coords), trans=True)

    def whiten_dual(self, coeffs) -> np.ndarray:
        """L^{-1} l, so that |l|_* is the Euclidean norm of the result."""
        return _columns(self._metric.lower_solve, _finite(self._leading(coeffs)))

    def unwhiten_dual(self, w) -> np.ndarray:
        """L w, the inverse of `whiten_dual`."""
        return _columns(self._metric.lower_product, self._leading(w), trans=False)

    def _leading(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != self.dim:
            raise DimensionMismatch(
                f"expected leading dimension {self.dim}, got {arr.shape}"
            )
        return arr


@dataclass
class PrimalVec:
    """Element of an InnerProductSpace, stored as a coordinate vector."""

    space: InnerProductSpace
    coords: np.ndarray

    def __post_init__(self) -> None:
        self.coords = _as_float_vector(self.coords, self.space.dim, "coords")

    def norm(self) -> float:
        return self.space.norm(self)


@dataclass
class Functional:
    """Dual element over a predual space, stored as pairing coefficients.

    The pairing <l, v> is coeffs . coords, independent of the mass matrix;
    the metric enters only through `dual_norm` and `riesz`.
    """

    space: InnerProductSpace
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = _as_float_vector(self.coeffs, self.space.dim, "coeffs")

    def __call__(self, v: PrimalVec) -> float:
        x = _as_float_vector(v.coords, self.space.dim, "coords")
        return float(self.coeffs @ x)

    def dual_norm(self) -> float:
        return self.space.dual_norm(self)


class ProductSpace(InnerProductSpace):
    """Block product of spaces with block-diagonal mass.

    The product is the `InnerProductSpace` of that mass: a dense array
    for dense parts, or else their scipy.sparse `block_diag` (scipy.sparse
    is imported for it), banded with the largest bandwidth of its parts
    (a dense part counts to its last nonzero subdiagonal) and factored
    once.  Provides `split`/`join` between the stacked coordinate vector
    and the per-part coordinate vectors.
    """

    def __init__(self, parts) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("product of an empty list of spaces")
        metrics = [p._metric for p in parts]
        bounds = np.cumsum([0] + [p.dim for p in parts])
        self._bounds = tuple(int(b) for b in bounds)
        if all(isinstance(m, _DenseMetric) for m in metrics):
            mass = np.zeros((self._bounds[-1],) * 2)
            for m, lo, hi in zip(metrics, self._bounds, self._bounds[1:]):
                mass[lo:hi, lo:hi] = m.dense()
        else:
            import scipy.sparse as sp

            mass = sp.block_diag([m.csr().to_scipy() for m in metrics])
        super().__init__(mass)
        self.parts = parts

    def join(self, part_coords) -> np.ndarray:
        arrs = [
            _as_float_vector(c, p.dim, "part coords")
            for p, c in zip(self.parts, part_coords, strict=True)
        ]
        return np.concatenate(arrs)

    def split(self, coords) -> tuple[np.ndarray, ...]:
        arr = _as_float_vector(coords, self.dim, "coords")
        return tuple(
            arr[self._bounds[i] : self._bounds[i + 1]] for i in range(len(self.parts))
        )


def mass_from_spec(spec: str, dim: int | None = None) -> np.ndarray:
    """Parse a mass matrix from its configuration-file spelling.

    Accepted forms: ``identity`` (requires `dim`), ``diagonal: [w1, w2, ...]``
    and ``dense: [[...], [...]]``.  Returns the matrix; validity (symmetry,
    positive definiteness) is enforced by InnerProductSpace construction.
    """
    text = spec.strip()
    if text == "identity":
        if dim is None:
            raise ValueError("mass spec 'identity' requires a dimension")
        return np.eye(dim)
    for prefix in ("diagonal:", "dense:"):
        if text.startswith(prefix):
            try:
                data = ast.literal_eval(text[len(prefix) :].strip())
            except (ValueError, SyntaxError) as exc:
                raise ValueError(f"malformed mass spec: {spec!r}") from exc
            arr = np.asarray(data, dtype=float)
            mat = np.diag(arr) if prefix == "diagonal:" else arr
            if dim is not None and mat.shape[0] != dim:
                raise ValueError(
                    f"mass spec has dimension {mat.shape[0]}, expected {dim}"
                )
            return mat
    raise ValueError(
        f"unrecognized mass spec {spec!r}; use 'identity', 'diagonal: [..]' "
        "or 'dense: [[..]]'"
    )
