"""Coercivity margins over generated problems, against scipy's generalized
symmetric-definite eigensolver and against the scalings the definition
implies.

The margin is the smallest eigenvalue of H + J^T M_Y J / rho in the M_Z
metric.  ssqp computes it whitened, through the spaces' own factors; the
reference forms the pencil from the mass matrices and hands both to
scipy.linalg.eigh.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from ssqp.diagnostics import coercivity_margin
from ssqp.spaces import InnerProductSpace

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

from saddle_reference import spd

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

TOL = 1e-12


def banded(rng, n: int, b: int) -> np.ndarray:
    """A symmetric matrix of bandwidth b, diagonally dominant with a
    margin of at least 0.5 per row, so SPD and well conditioned."""
    M = np.zeros((n, n))
    for i in range(1, min(b, n - 1) + 1):
        d = rng.uniform(-1.0, 1.0, n - i)
        M += np.diag(d, -i) + np.diag(d, i)
    return M + np.diag(np.abs(M).sum(axis=1) + rng.uniform(0.5, 2.0, n))


@st.composite
def margin_problems(draw):
    """(H, J, mass_z, mass_y, rho): a symmetric, possibly indefinite H,
    a Gaussian J, SPD metrics of sizes 1-6 and 1-4 scaled by 10^[-1, 1],
    and rho in 10^[-4, 0].  Each mass is a pair (M, banded): M dense with
    eigenvalues in [0.5, 2], or of bandwidth 0-2 and stored as
    scipy.sparse, so that its space keeps band storage."""
    nz, ny = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = []
    for n in (nz, ny):
        b = draw(st.none() | st.integers(0, 2))
        M = spd(rng, n) if b is None else banded(rng, n, b)
        M *= 10.0 ** draw(st.floats(-1.0, 1.0))
        masses.append((M, b is not None))
    B = rng.standard_normal((nz, nz))
    H = 0.5 * (B + B.T)
    J = rng.standard_normal((ny, nz))
    rho = 10.0 ** draw(st.floats(-4.0, 0.0))
    return H, J, masses[0], masses[1], rho


def space(mass, scale: float = 1.0) -> InnerProductSpace:
    """The space of scale times the mass, in the storage drawn for it."""
    M, is_banded = mass
    M = scale * M
    return InnerProductSpace(sp.csr_matrix(M) if is_banded else M)


@PROPERTY
@given(margin_problems(), st.floats(0.1, 10.0))
def test_margin_matches_generalized_eigensolve(problem, c):
    H, J, mz, my, rho = problem
    Z, Y = space(mz), space(my)
    margin = coercivity_margin(H, J, Z, Y, rho)
    A = H + J.T @ my[0] @ J / rho
    eigs = scipy.linalg.eigh(A, mz[0], eigvals_only=True)
    # TOL times the forward-error bound of both solvers without its eps,
    # |A|_2 |M_Z^{-1}|_2 (Golub & Van Loan, sec. 8.7), or times the
    # largest eigenvalue for the scalings: 4500 eps, where 3000 draws
    # came within 22, 115 and 24 eps
    bound = np.linalg.norm(A, 2) * np.linalg.norm(np.linalg.inv(mz[0]), 2)
    assert margin == pytest.approx(eigs[0], rel=TOL, abs=TOL * bound)
    spread = TOL * np.abs(eigs).max()
    # c M_Y weighs the constraint term as rho / c does
    assert coercivity_margin(H, J, Z, space(my, c), rho) == pytest.approx(
        coercivity_margin(H, J, Z, Y, rho / c), rel=TOL, abs=spread)
    # c M_Z divides every pencil eigenvalue by c
    assert coercivity_margin(H, J, space(mz, c), Y, rho) == pytest.approx(
        margin / c, rel=TOL, abs=spread / c)
