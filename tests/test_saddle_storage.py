"""The inverse-free saddle solve agrees across storage and with the classical
system, over generated subproblems.

Each subproblem is solved with dense blocks (Bunch-Kaufman), with H, J
or both as scipy.sparse CSR (band LU with a dense border, or splu), and
by the classical reference of `saddle_reference`, which assembles
[[H, J^T], [J, -rho M_Y^{-1}]] with an explicit inverse, enumerating
activity patterns for cones.  Two kinds of subproblems are drawn: small
dense ones, and structured ones shaped like a discretized problem, whose
sparse saddle matrix is a band after reordering plus a few dense rows and
columns.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp.model import ConeSpec
from ssqp.spaces import InnerProductSpace
from ssqp.subproblem import SaddleSystem, assemble_saddle_matrix, solve_cone, solve_equality
from saddle_reference import enumerate_patterns, orthonormal, spd

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def subproblems(draw, cone: bool):
    """(blocks, M_Y, generators): SPD H, a surjective J with singular
    values in [0.5, 2], an SPD (sometimes diagonal) M_Y with eigenvalues
    in [0.5, 2], rho in [1e-8, 1], and for cones m <= 4 generators with
    lam_k in the polar cone."""
    nz = draw(st.integers(2, 6))
    ny = draw(st.integers(1, nz))
    m = draw(st.integers(1, min(4, ny))) if cone else 0
    rho = 10.0 ** draw(st.floats(-8.0, 0.0))
    diagonal_mass = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = spd(rng, nz)
    svals = rng.uniform(0.5, 2.0, ny)
    J = (orthonormal(rng, ny, ny) * svals) @ orthonormal(rng, nz, ny).T
    My = np.diag(rng.uniform(0.5, 2.0, ny)) if diagonal_mass else spd(rng, ny)
    gens = orthonormal(rng, ny, m) * rng.uniform(0.5, 2.0, m)
    lamk = rng.standard_normal(ny)
    if m:
        lamk = _polar_start(rng, lamk, My, gens)
    blocks = dict(H=H, J=J, g=rng.standard_normal(nz),
                  Gval=rng.standard_normal(ny), rho=rho, lamk=lamk,
                  zk=rng.standard_normal(nz))
    return blocks, My, gens


def _polar_start(rng, lamk, My, gens):
    """lam_k shifted by M_Y gens c so that pairing i becomes
    min(pairing i, 0) - |s_i| <= 0."""
    pairings = gens.T @ lamk
    gram = gens.T @ My @ gens
    target = np.minimum(pairings, 0.0) - np.abs(rng.standard_normal(gens.shape[1]))
    return lamk - My @ gens @ np.linalg.solve(gram, pairings - target)


def _banded(rng, rows: int, cols: int, width: int, scale: float) -> np.ndarray:
    """Entries in U(-scale, scale) on the diagonals |j - i| <= width."""
    i, j = np.indices((rows, cols))
    return np.where(np.abs(j - i) <= width, rng.uniform(-scale, scale, (rows, cols)), 0.0)


@st.composite
def structured_subproblems(draw, cone: bool):
    """(blocks, M_Y, generators) shaped like a discretized problem: H and
    J banded with random bandwidths, plus `dense` variables whose rows and
    columns of H and columns of J are full (eigencontrol's control q is
    one), all variables relabelled at random.  H is SPD by diagonal
    dominance, J's leading ny x ny block is diagonally dominant so its
    singular values stay in about [0.9, 3], M_Y is a diagonally dominant
    band of bandwidth <= 2 in sparse storage, rho is in [1e-8, 1], and
    for cones m <= 3 full generators start lam_k in the polar cone."""
    dense = draw(st.integers(0, 2))
    ny = draw(st.integers(4, 32))
    nz = draw(st.integers(ny + dense, 2 * ny + dense))
    m = draw(st.integers(1, min(3, ny))) if cone else 0
    rho = 10.0 ** draw(st.floats(-8.0, 0.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hw, jw, mw = (draw(st.integers(0, 2)) for _ in range(3))
    off = _banded(rng, nz, nz, hw, 1.0)
    off[:, nz - dense :] = rng.uniform(-1.0, 1.0, (nz, dense))
    off = np.triu(off, 1) + np.triu(off, 1).T
    H = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, nz))
    J = _banded(rng, ny, nz, jw, 0.3 / (jw + 1))
    J[:, :ny] += np.diag(rng.choice([-1.0, 1.0], ny) * rng.uniform(1.5, 2.0, ny))
    J[:, nz - dense :] = rng.uniform(-1.0, 1.0, (ny, dense))
    relabel = rng.permutation(nz)
    H, J = H[np.ix_(relabel, relabel)], J[:, relabel]
    band = _banded(rng, ny, ny, mw, 0.2 / (mw + 1))
    band = np.triu(band, 1) + np.triu(band, 1).T
    My = band + np.diag(np.abs(band).sum(axis=1) + rng.uniform(0.5, 1.5, ny))
    gens = orthonormal(rng, ny, m) * rng.uniform(0.5, 2.0, m)
    lamk = rng.standard_normal(ny)
    if m:
        lamk = _polar_start(rng, lamk, My, gens)
    blocks = dict(H=H, J=J, g=rng.standard_normal(nz),
                  Gval=rng.standard_normal(ny), rho=rho, lamk=lamk,
                  zk=rng.standard_normal(nz))
    return blocks, sp.csr_matrix(My), gens


def _system(blocks, My, sparse_blocks=()):
    nz, ny = blocks["H"].shape[0], My.shape[0]
    Z, Y = InnerProductSpace.identity(nz), InnerProductSpace(My)
    mats = {k: sp.csr_matrix(blocks[k]) if k in sparse_blocks else blocks[k]
            for k in ("H", "J")}
    return SaddleSystem(
        H=mats["H"], J=mats["J"], g=blocks["g"], Gval=blocks["Gval"],
        rho=blocks["rho"], lamk=Y.functional(blocks["lamk"]),
        zk=Z.vector(blocks["zk"]), spaceZ=Z, spaceY=Y,
    )


STORAGES = [(), ("H",), ("J",), ("H", "J")]


def _cone(My, gens):
    Y = InnerProductSpace(My)
    return ConeSpec(Y, tuple(Y.vector(y) for y in gens.T))


def _check_agreement(blocks, My, gens, solve):
    d_ref, l_ref, _ = enumerate_patterns(_system(blocks, My), gens)
    scale = 1.0 + np.abs(d_ref).max() + np.abs(l_ref).max()
    for sparse_blocks in STORAGES:
        sys = _system(blocks, My, sparse_blocks)
        assert sys.sparse == bool(sparse_blocks)
        sol = solve(sys)
        d = sol.z_next.coords - blocks["zk"]
        assert np.abs(d - d_ref).max() <= 1e-9 * scale, sparse_blocks
        l = sol.lam_next.coeffs
        assert np.abs(l - l_ref).max() <= 1e-9 * scale, sparse_blocks


@PROPERTY
@given(subproblems(cone=False))
def test_equality_solve_agrees_across_storage_and_with_classical_system(case):
    blocks, My, gens = case
    _check_agreement(blocks, My, gens, solve_equality)


@PROPERTY
@given(subproblems(cone=True))
def test_cone_solve_agrees_across_storage_and_with_classical_system(case):
    blocks, My, gens = case
    cone = _cone(My, gens)
    _check_agreement(blocks, My, gens, lambda sys: solve_cone(sys, cone))


@PROPERTY
@given(structured_subproblems(cone=False))
def test_structured_equality_solve_agrees_with_classical_system(case):
    blocks, My, gens = case
    _check_agreement(blocks, My, gens, solve_equality)


@PROPERTY
@given(structured_subproblems(cone=True))
def test_structured_cone_solve_agrees_with_classical_system(case):
    blocks, My, gens = case
    cone = _cone(My, gens)
    _check_agreement(blocks, My, gens, lambda sys: solve_cone(sys, cone))


def _scipy_csc(sys, cone, active):
    """The saddle matrix as scipy's COO to CSC conversion makes it from
    the blocks' triplets: H, (M^ J)^T, M^ J, -weight M^ and the border."""
    nz, ny = sys.spaceZ.dim, sys.spaceY.dim
    Mh = sys.scaled_mass
    H, MJ, M = sys.H.tocoo(), (Mh @ sys.J).tocoo(), Mh.tocoo()
    border = -Mh.dot(cone.generator_matrix[:, list(active)])
    br, bc = np.nonzero(border)
    bd = border[br, bc]
    rows = np.concatenate([H.row, MJ.col, MJ.row + nz, M.row + nz, br + nz, bc + nz + ny])
    cols = np.concatenate([H.col, MJ.row + nz, MJ.col, M.col + nz, bc + nz + ny, br + nz])
    data = np.concatenate([H.data, MJ.data, MJ.data, -sys.weight * M.data, bd, bd])
    dim = nz + ny + len(active)
    return sp.csc_matrix((data, (rows, cols)), shape=(dim, dim))


def _with_duplicates(H, rng):
    """H in non-canonical CSR: every entry stored twice, as a random part
    and the rest, in shuffled order within each row."""
    C = H.tocoo()
    part = rng.uniform(-1.0, 1.0, C.nnz) * C.data
    rows = np.concatenate([C.row, C.row])
    order = np.lexsort((rng.random(rows.size), rows))
    indptr = np.searchsorted(rows[order], np.arange(H.shape[0] + 1))
    data = np.concatenate([part, C.data - part])[order]
    indices = np.concatenate([C.col, C.col])[order]
    return sp.csr_matrix((data, indices, indptr), shape=H.shape)


@PROPERTY
@given(structured_subproblems(cone=True), st.integers(0, 2**32 - 1))
def test_assembled_matrix_is_scipys_csc_bit_for_bit(case, seed):
    # the memoised layout against scipy's own conversion, on patterns that
    # share a shape: a non-canonical H (duplicates, unsorted), and a
    # border column with an exact zero (M^ e_0 is zero beyond row 2)
    blocks, My, gens = case
    rng = np.random.default_rng(seed)
    sys = _system(blocks, My, ("H", "J"))
    twin = _system(dict(blocks, H=_with_duplicates(sys.H, rng)), My, ("J",))
    assert twin.H.nnz == 2 * sys.H.nnz and not twin.H.has_canonical_format
    sparse_gens = gens.copy()
    sparse_gens[:, 0] = np.eye(len(gens))[0]
    every = tuple(range(gens.shape[1]))
    for s, g, active in [(sys, gens, ()), (sys, gens, every), (twin, gens, every),
                         (sys, sparse_gens, every), (twin, sparse_gens, every)]:
        cone = _cone(My, g)
        A, want = assemble_saddle_matrix(s, active, cone), _scipy_csc(s, cone, active)
        for name in ("data", "indices", "indptr"):
            assert getattr(A, name).tobytes() == getattr(want, name).tobytes(), name
