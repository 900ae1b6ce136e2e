"""One band sweep per factorization keeps every bit of the solves.

`sparse_solver` solves the border columns B^{-1} A_BK and the vectors it
is given in one multi-column dgbtrs call, and `_factor` gives it the step's
right-hand side and Hager's first and last test vectors.  Over generated
saddle matrices with a border of k = 0, 1 or 2 rows and columns, and over
matrices whose band would be mostly fill (the splu fallback), each batched
solution must equal `solve` applied to its vector alone, and `_factor`'s
rcond the estimate of `saddle_reference.hager_rcond`, one solve at a time,
bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp.spaces import InnerProductSpace
from ssqp.subproblem import SaddleSystem, _factor, assemble_saddle_matrix, sparse_solver
from saddle_reference import hager_rcond

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


def _system(rng, n: int, k: int, rho: float, wide: bool) -> SaddleSystem:
    """n states and k controls: H couples each control to every state (an
    arrow), J = [K | U] with K tridiagonal and U full, M_Y a band.  `wide`
    adds symmetric state couplings at random distances, which no band
    order keeps narrow."""
    h = 1.0 / (n + 1)
    H = np.diag(np.append(rng.uniform(0.5, 1.5, n) * h, rng.uniform(1.0, 4.0, k)))
    H[:n, n:] = rng.standard_normal((n, k)) * h
    if wide:
        i, j = rng.integers(0, n, (2, 3 * n))
        H[i, j] += 0.1 * h * rng.standard_normal(3 * n)
    H[n:, :n] = H[:n, n:].T
    H = 0.5 * (H + H.T)
    K = (np.diag(rng.uniform(1.0, 2.0, n)) + np.diag(rng.uniform(-0.5, 0.5, n - 1), 1)
         + np.diag(rng.uniform(-0.5, 0.5, n - 1), -1))
    J = np.column_stack([K, rng.uniform(0.5, 1.0, (n, k))])
    off = rng.uniform(-0.1, 0.1, n - 1) * h
    My = sp.diags([off, rng.uniform(1.0, 2.0, n) * h, off], [-1, 0, 1], format="csr")
    Z, Y = InnerProductSpace.identity(n + k), InnerProductSpace(My)
    return SaddleSystem(
        H=sp.csr_matrix(H), J=sp.csr_matrix(J), g=rng.standard_normal(n + k),
        Gval=rng.standard_normal(n), rho=rho, lamk=Y.functional(rng.standard_normal(n)),
        zk=Z.vector(rng.standard_normal(n + k)), spaceZ=Z, spaceY=Y,
    )


@st.composite
def saddle_matrices(draw):
    """(rng, A, wide): the sparse saddle matrix of a generated system."""
    k = draw(st.sampled_from([0, 1, 2]))
    wide = draw(st.booleans())
    n = draw(st.integers(24, 48))  # enough rows that the controls join the border
    rho = draw(st.sampled_from([0.0, 1e-8, 1e-3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, assemble_saddle_matrix(_system(rng, n, k, rho, wide)), wide, k


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(saddle_matrices())
def test_batched_solves_are_single_solves_bit_for_bit(drawn):
    rng, A, wide, k = drawn
    plan = A.plan
    if wide:
        assert plan.order is None  # splu
    else:
        assert plan.order is not None and plan.k == k
    n = A.shape[0]
    rhs = [rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n),
           np.full(n, 1.0 / n), plan.alternating, rng.standard_normal(n)]
    solve, solved = sparse_solver(A, *rhs)
    assert len(solved) == len(rhs)
    for b, x in zip(rhs, solved):
        assert _same(x, solve(b))
    # the vectors are left as they were
    assert _same(rhs[1], np.full(n, 1.0 / n))


@PROPERTY
@given(saddle_matrices())
def test_factor_estimate_is_hagers_one_solve_at_a_time(drawn):
    rng, A, _, _ = drawn
    b = rng.standard_normal(A.shape[0])
    solve, anorm, rcond, x = _factor(A, b)
    assert anorm == np.linalg.norm(A.toarray(), 1)
    assert rcond == hager_rcond(A, sparse_solver(A)[0])
    assert _same(x, solve(b))
    assert _factor(A)[2] == rcond and _factor(A)[3] is None


def test_a_wide_band_takes_splu(monkeypatch):
    # the generated `wide` systems reach the fallback, whose batched
    # solutions are splu's single solves
    import scipy.sparse.linalg

    calls, splu = [], scipy.sparse.linalg.splu

    def counted(M, *args, **kwargs):
        calls.append(M)
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    rng = np.random.default_rng(5)
    A = assemble_saddle_matrix(_system(rng, 40, 1, 1e-3, wide=True))
    assert A.plan.order is None
    solve, (x,) = sparse_solver(A, np.ones(A.shape[0]))
    assert len(calls) == 1
    assert np.allclose(A.toarray() @ x, 1.0)
