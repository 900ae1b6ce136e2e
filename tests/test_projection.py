"""Properties of the cached multiplier-set projector over generated references.

The oracle is an exhaustive projection: every active subset of the polar
inequalities, one least-squares solve each.  Its feasibility tests use
1e-9 tolerances, so it is only good to about 1e-10.
"""

from itertools import combinations

import numpy as np
import pytest

from ssqp.diagnostics import InvalidReference, ReferenceSolution, multiplier_distance
from ssqp.model import ConeSpec
from ssqp.spaces import Functional, InnerProductSpace
from test_diagnostics import csr_twin, null_dimension

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import assume, given, settings
from hypothesis import strategies as st


def enumeration_oracle(
    ref: ReferenceSolution, lam: Functional
) -> tuple[float, Functional]:
    """Dual-norm projection of lam onto the multiplier set at z*.

    Minimizes |lam - mu|_{Y*} subject to j_star^T mu = -g_star, and for a
    nontrivial cone additionally <mu, y_i> <= 0 via enumeration of active
    inequality subsets.  Returns (distance, projection).
    """
    Y = ref.space_y
    m = ref.cone.m
    best: tuple[float, Functional] | None = None
    res_scale = 1.0 + float(np.abs(ref.g_star).max())
    for size in range(m + 1):
        for subset in combinations(range(m), size):
            C = ref.j_star.T
            b = -ref.g_star
            if subset:
                C = np.vstack([C, ref.cone.generator_matrix[:, list(subset)].T])
                b = np.concatenate([b, np.zeros(len(subset))])
            # mu = lam - M C^T nu with (C M C^T) nu = C lam - b.
            CM = C @ Y.mass
            nu, *_ = np.linalg.lstsq(CM @ C.T, C @ lam.coeffs - b, rcond=None)
            mu = lam.coeffs - Y.mass @ (C.T @ nu)
            if np.abs(C @ mu - b).max() > 1e-9 * res_scale:
                continue
            if m and (ref.cone.generator_matrix.T @ mu > 1e-9).any():
                continue
            dist = Y.dual_norm_arr(lam.coeffs - mu)
            if best is None or dist < best[0]:
                best = (dist, Functional(Y, mu))
    if best is None:
        raise InvalidReference("multiplier set is empty (inconsistent system)")
    return best


def _orthonormal(rng, n: int, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:, :k]


def _spd(rng, n: int) -> np.ndarray:
    q = _orthonormal(rng, n, n)
    m = (q * rng.uniform(0.5, 2.0, n)) @ q.T
    return 0.5 * (m + m.T)


@st.composite
def references(draw):
    """A reference whose multiplier set has a k-dimensional affine hull
    cut by m <= 4 generator pairings, some of them tight at lambda*."""
    k = draw(st.sampled_from([0, 1, 2]))
    m = draw(st.integers(0, 4))
    ny = draw(st.integers(max(k + 1, m, 2), 5))
    tight = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    assume(sum(tight) < ny)  # tight generators share the hyperplane of lam*
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Y = InnerProductSpace(_spd(rng, ny))
    # j_star: ny x nz of rank ny - k, singular values in [0.5, 2]
    rank = ny - k
    nz = rank + int(rng.integers(0, 2))
    j_star = (_orthonormal(rng, ny, rank) * rng.uniform(0.5, 2.0, rank)) @ (
        _orthonormal(rng, nz, rank).T
    )
    lam_star = rng.standard_normal(ny)
    gens = []
    for is_tight in tight:
        y = rng.standard_normal(ny)
        if is_tight:  # <lam*, y> = 0: lam* on the boundary
            y -= (lam_star @ y) / (lam_star @ lam_star) * lam_star
        elif lam_star @ y > 0:
            y = -y
        gens.append(Y.vector(y))
    cone = ConeSpec(Y, tuple(gens))
    return ReferenceSolution(
        z_star=InnerProductSpace.identity(nz).zero_vector(),
        j_star=j_star,
        g_star=-j_star.T @ lam_star,
        cone=cone,
        lambda_star=Y.functional(lam_star),
    )


def _in_set(ref: ReferenceSolution, mu: np.ndarray, tol: float) -> bool:
    stationarity = np.abs(ref.j_star.T @ mu + ref.g_star).max()
    pairing = (ref.cone.generator_matrix.T @ mu).max() if ref.cone.m else 0.0
    return stationarity <= tol and pairing <= tol


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@PROPERTY
@given(references(), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_distance_matches_enumeration(ref, seed, size):
    rng = np.random.default_rng(seed)
    Y = ref.space_y
    lam = Y.functional(ref.lambda_star.coeffs + size * rng.standard_normal(Y.dim))
    dist, proj = multiplier_distance(ref, lam)
    oracle_dist, oracle_proj = enumeration_oracle(ref, lam)
    assert dist == pytest.approx(oracle_dist, rel=1e-9, abs=1e-12)
    scale = 1.0 + np.abs(oracle_proj.coeffs).max()
    np.testing.assert_allclose(proj.coeffs, oracle_proj.coeffs,
                               rtol=0, atol=1e-7 * scale)


@PROPERTY
@given(references(), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_projection_lies_in_the_set_and_is_fixed(ref, seed, size):
    rng = np.random.default_rng(seed)
    Y = ref.space_y
    lam = Y.functional(ref.lambda_star.coeffs + size * rng.standard_normal(Y.dim))
    _, proj = multiplier_distance(ref, lam)
    scale = 1.0 + np.abs(proj.coeffs).max() + np.abs(ref.g_star).max()
    assert _in_set(ref, proj.coeffs, 1e-12 * scale)
    again, proj2 = multiplier_distance(ref, proj)
    assert again <= 1e-12 * scale
    np.testing.assert_allclose(proj2.coeffs, proj.coeffs, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(references())
def test_stored_member_is_a_fixed_point(ref):
    lam = ref.lambda_star
    dist, proj = multiplier_distance(ref, lam)
    scale = 1.0 + np.abs(lam.coeffs).max()
    assert dist <= 1e-12 * scale
    np.testing.assert_allclose(proj.coeffs, lam.coeffs, rtol=0, atol=1e-12 * scale)


def test_least_distance_lands_on_the_binding_pairing():
    # a line of multipliers (k = 1) cut by a tight pairing: a query on
    # the wrong side must land on the pairing's boundary, not on the line
    Y = InnerProductSpace(np.diag([0.5, 2.0]))
    ref = ReferenceSolution(
        z_star=InnerProductSpace.identity(1).zero_vector(),
        j_star=np.array([[1.0], [1.0]]),
        g_star=np.array([1.0]),  # lam1 + lam2 = -1
        cone=ConeSpec(Y, (Y.vector([1.0, 0.0]),)),  # lam1 <= 0
        lambda_star=Y.functional([0.0, -1.0]),
    )
    lam = Y.functional([3.0, 0.0])
    dist, proj = multiplier_distance(ref, lam)
    np.testing.assert_allclose(proj.coeffs, [0.0, -1.0], atol=1e-12)
    # the unconstrained line projection is (2.2, -3.2); the ray ends at s = 0
    assert dist == pytest.approx(np.sqrt(3.0**2 / 0.5 + 1.0 / 2.0), rel=1e-14)
    assert dist == pytest.approx(enumeration_oracle(ref, lam)[0], rel=1e-12)


@PROPERTY
@given(references(), st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
def test_sparse_storage_matches_dense(ref, seed, size):
    rng = np.random.default_rng(seed)
    Y = ref.space_y
    lam = Y.functional(ref.lambda_star.coeffs + size * rng.standard_normal(Y.dim))
    csr = csr_twin(ref)
    dist, _ = multiplier_distance(ref, lam)
    sparse_dist, _ = multiplier_distance(csr, lam)
    assert sparse_dist == pytest.approx(dist, rel=1e-9, abs=1e-12)
    assert null_dimension(csr) == null_dimension(ref)
