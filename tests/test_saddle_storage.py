"""The inverse-free saddle solve agrees across storage and with the classical
system, over generated subproblems.

Each subproblem is solved with dense blocks (Bunch-Kaufman), with H, J
or both as scipy.sparse CSR (sparse LU), and by the classical reference
of `saddle_reference`, which assembles [[H, J^T], [J, -rho M_Y^{-1}]]
with an explicit inverse, enumerating activity patterns for cones.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from ssqp.model import ConeSpec
from ssqp.spaces import InnerProductSpace
from ssqp.subproblem import SaddleSystem, solve_cone, solve_equality
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
        # shift lam_k by M_Y gens c so that pairing i becomes
        # min(pairing i, 0) - |s_i| <= 0
        pairings = gens.T @ lamk
        gram = gens.T @ My @ gens
        target = np.minimum(pairings, 0.0) - np.abs(rng.standard_normal(m))
        lamk = lamk - My @ gens @ np.linalg.solve(gram, pairings - target)
    blocks = dict(H=H, J=J, g=rng.standard_normal(nz),
                  Gval=rng.standard_normal(ny), rho=rho, lamk=lamk,
                  zk=rng.standard_normal(nz))
    return blocks, My, gens


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
    Y = InnerProductSpace(My)
    cone = ConeSpec(Y, tuple(Y.vector(y) for y in gens.T))
    _check_agreement(blocks, My, gens, lambda sys: solve_cone(sys, cone))
