"""Finite-dimensional Hilbert space models.

A space is R^dim equipped with a symmetric positive definite mass matrix
defining the inner product (u, v) = u^T M v.  Dual elements (functionals)
are stored as duality-pairing coefficient vectors, so that <l, v> is the
plain dot product of coefficients with coordinates; the Riesz map is then
multiplication by M^{-1} and the adjoint of an operator matrix acting on
functional coefficients is the plain transpose.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import block_diag, cho_factor, cho_solve, solve_triangular
from scipy.linalg.blas import dtrmm

if TYPE_CHECKING:
    import scipy.sparse as sp


class DimensionMismatch(ValueError):
    """Operand does not match the dimension of the space it is used with."""


def _as_float_vector(x, dim: int, what: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,):
        raise DimensionMismatch(f"{what}: expected shape ({dim},), got {arr.shape}")
    return arr


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, after the check scipy's check_finite makes.

    The metric's solves skip scipy's own check, which would also rescan
    the whole Cholesky factor that construction has checked once.
    """
    if not np.isfinite(arr).all():
        raise ValueError("array must not contain infs or NaNs")
    return arr


class InnerProductSpace:
    """R^dim with inner product (u, v) = u^T mass v.

    The mass matrix is checked for symmetry (1e-12 relative) and positive
    definiteness (Cholesky factorization must succeed).  The factor is
    cached and reused for every Riesz solve and dual norm.  Instances are
    immutable after construction and safe to share across threads.
    """

    def __init__(self, mass) -> None:
        mass = np.array(mass, dtype=float)
        if mass.ndim != 2 or mass.shape[0] != mass.shape[1]:
            raise ValueError(f"mass matrix must be square, got shape {mass.shape}")
        if mass.shape[0] == 0:
            raise ValueError("mass matrix must have positive dimension")
        scale = max(float(np.abs(mass).max()), 1.0)
        if float(np.abs(mass - mass.T).max()) > 1e-12 * scale:
            raise ValueError("mass matrix is not symmetric (1e-12 relative)")
        mass = 0.5 * (mass + mass.T)
        try:
            self._chol = cho_factor(mass, lower=True)
        except np.linalg.LinAlgError as exc:
            raise ValueError("mass matrix is not positive definite") from exc
        mass.flags.writeable = False
        self._mass = mass
        self._dim = mass.shape[0]
        self._mass_scale = float(np.trace(mass)) / self._dim
        self._scaled_mass: dict[bool, np.ndarray | sp.csr_matrix] = {}
        self._inverse_mass: np.ndarray | None = None

    @classmethod
    def identity(cls, dim: int) -> "InnerProductSpace":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, weights) -> "InnerProductSpace":
        return cls(np.diag(np.asarray(weights, dtype=float)))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def mass(self) -> np.ndarray:
        return self._mass

    @property
    def mass_scale(self) -> float:
        """tau = trace(M) / dim, the mean diagonal entry of the mass matrix."""
        return self._mass_scale

    def scaled_mass(self, sparse: bool = False) -> np.ndarray | sp.csr_matrix:
        """M / tau, dense or as CSR without its zero entries; cached.

        Dividing by tau makes the matrix dimensionless: M = tau I, a
        lumped mass, gives the identity.
        """
        scaled = self._scaled_mass.get(sparse)
        if scaled is None:
            scaled = self._mass / self._mass_scale
            if sparse:
                import scipy.sparse as sp

                scaled = sp.csr_matrix(scaled)
            else:
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
            inv = cho_solve(self._chol, np.eye(self._dim))
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
        return PrimalVec(self, np.zeros(self._dim))

    def zero_functional(self) -> "Functional":
        return Functional(self, np.zeros(self._dim))

    # -- metric operations ----------------------------------------------

    def inner(self, u: "PrimalVec", v: "PrimalVec") -> float:
        """(u, v) = u^T M v."""
        a = _as_float_vector(u.coords, self._dim, "u")
        b = _as_float_vector(v.coords, self._dim, "v")
        return float(a @ self._mass @ b)

    def norm(self, u: "PrimalVec") -> float:
        return self.norm_arr(u.coords)

    def norm_arr(self, coords) -> float:
        a = _as_float_vector(coords, self._dim, "coords")
        return float(np.sqrt(max(a @ self._mass @ a, 0.0)))

    def apply_mass(self, coords) -> np.ndarray:
        return self._mass @ _as_float_vector(coords, self._dim, "coords")

    def solve_mass(self, rhs) -> np.ndarray:
        """M x = rhs via the cached factorization (the Riesz map on arrays)."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self._dim:
            raise DimensionMismatch(
                f"rhs: expected leading dimension {self._dim}, got {rhs.shape}"
            )
        return cho_solve(self._chol, _finite(rhs), check_finite=False)

    def riesz(self, l: "Functional") -> "PrimalVec":
        """Riesz representative: the v with (v, y) = <l, y> for all y."""
        coeffs = _as_float_vector(l.coeffs, self._dim, "coeffs")
        return PrimalVec(self, self.solve_mass(coeffs))

    def riesz_inverse(self, v: "PrimalVec") -> "Functional":
        """Functional with coefficients M v, the inverse of `riesz`."""
        return Functional(self, self.apply_mass(v.coords))

    def dual_norm(self, l: "Functional") -> float:
        return self.dual_norm_arr(l.coeffs)

    def dual_norm_arr(self, coeffs) -> float:
        a = _as_float_vector(coeffs, self._dim, "coeffs")
        return float(np.sqrt(max(a @ self.solve_mass(a), 0.0)))

    # -- whitening by the cached factor M = L L^T ---------------------------
    #
    # x -> L^T x maps the space isometrically onto Euclidean R^dim, and
    # l -> L^{-1} l does the same for its dual; each accepts a vector or a
    # matrix of columns.

    def whiten(self, coords) -> np.ndarray:
        """L^T x, so that |x| is the Euclidean norm of the result."""
        return self._triangular_product(coords, trans=True)

    def whiten_dual(self, coeffs) -> np.ndarray:
        """L^{-1} l, so that |l|_* is the Euclidean norm of the result."""
        return solve_triangular(self._chol[0], _finite(self._leading(coeffs)),
                                lower=True, check_finite=False)

    def unwhiten_dual(self, w) -> np.ndarray:
        """L w, the inverse of `whiten_dual`."""
        return self._triangular_product(w, trans=False)

    def _leading(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim not in (1, 2) or arr.shape[0] != self._dim:
            raise DimensionMismatch(
                f"expected leading dimension {self._dim}, got {arr.shape}"
            )
        return arr

    def _triangular_product(self, x, trans: bool) -> np.ndarray:
        # cho_factor leaves junk above the diagonal; trmm reads only below
        arr = self._leading(x)
        cols = arr.reshape(self._dim, -1)
        if cols.shape[1] == 0:
            return arr.copy()
        out = dtrmm(1.0, self._chol[0], cols, lower=1, trans_a=int(trans))
        return out.reshape(arr.shape)


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

    Provides `split`/`join` between the stacked coordinate vector and the
    per-part coordinate vectors.
    """

    def __init__(self, parts) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("product of an empty list of spaces")
        super().__init__(block_diag(*(p.mass for p in parts)))
        self.parts = parts
        bounds = np.cumsum([0] + [p.dim for p in parts])
        self._bounds = tuple(int(b) for b in bounds)

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
