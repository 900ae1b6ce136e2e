"""The dense metric, the dense multiplier-set hull and the coercivity
margin call LAPACK directly.

They make the calls scipy.linalg.cho_factor, qr(pivoting=True),
solve_triangular and eigvalsh make, with the same arguments and
workspace sizes, so every factor, Q, R, pivot and eigenvalue must have
scipy's bits; and invalid masses must fail as they did through scipy's
wrappers.  A product of dense spaces places its parts' masses as
scipy.linalg.block_diag does.  The scipy routes are kept here as the
references.
"""

import numpy as np
import pytest
import scipy.linalg

from ssqp import spaces
from ssqp.diagnostics import _dense_affine_hull, _smallest_eigenvalue
from ssqp.spaces import InnerProductSpace

pytest.importorskip("hypothesis")  # declared in the `test` extra
from hypothesis import given, settings
from hypothesis import strategies as st

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


def _orthogonal(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


@st.composite
def spd_masses(draw):
    """An SPD matrix of size 1-40 with condition number up to 1e12,
    symmetric to rounding, scaled by 10^[-3, 3]."""
    n = draw(st.integers(1, 40))
    decades = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Q = _orthogonal(rng, n)
    eigs = 10.0 ** (draw(st.integers(-3, 3)) - decades * rng.uniform(0.0, 1.0, n))
    return (Q * eigs) @ Q.T


def _former_factor(mass):
    """The dense metric's factor as it was computed through scipy: the
    same checks, then scipy.linalg.cho_factor."""
    mass = np.array(mass, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf in the symmetry check
        scale = max(float(np.abs(mass).max()), 1.0)
        if float(np.abs(mass - mass.T).max()) > 1e-12 * scale:
            raise ValueError("mass matrix is not symmetric (1e-12 relative)")
        mass = 0.5 * (mass + mass.T)
    try:
        return scipy.linalg.cho_factor(mass, lower=True)[0]
    except np.linalg.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc


def _outcome(factor, mass):
    """("factor", the bytes and order of the factor) or the exception's
    type and message."""
    try:
        c = factor(mass)
    except ValueError as exc:
        return type(exc), str(exc)
    return "factor", c.tobytes(order="A"), c.flags.f_contiguous


def _metric_factor(mass):
    return InnerProductSpace(mass)._metric._lower


@PROPERTY
@given(spd_masses())
def test_dense_factor_is_scipys(mass):
    got, want = _outcome(_metric_factor, mass), _outcome(_former_factor, mass)
    assert got == want
    assert got[0] == "factor"
    c, lower = spaces.cho_factor(0.5 * (mass + mass.T))
    assert lower is True
    np.testing.assert_array_equal(c, scipy.linalg.cho_factor(
        0.5 * (mass + mass.T), lower=True)[0])


@st.composite
def invalid_masses(draw):
    """An SPD matrix made nonsymmetric (by a relative 1e-14 to 1e-8, so
    some stay within the 1e-12 tolerance), indefinite, or given a NaN or
    an infinite entry."""
    mass = draw(spd_masses())
    n = mass.shape[0]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fault = draw(st.sampled_from(["asymmetric", "indefinite", "non-finite"]))
    if fault == "asymmetric":
        j = (i + 1 + j) % n  # off the diagonal unless n = 1
        mass[i, j] += 10.0 ** rng.uniform(-14.0, -8.0) * max(np.abs(mass).max(), 1.0)
    elif fault == "indefinite":
        mass[i, i] = -rng.uniform(0.0, 2.0) * np.abs(mass).max()
    else:
        mass[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return mass


@PROPERTY
@given(invalid_masses())
def test_invalid_masses_fail_as_before(mass):
    assert _outcome(_metric_factor, mass) == _outcome(_former_factor, mass)


def _former_hull(J, g, Y, rcond):
    """`_dense_affine_hull` through scipy.linalg.qr and solve_triangular."""
    B = Y.whiten(J)
    Q, R, piv = scipy.linalg.qr(B, overwrite_a=True, pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.count_nonzero(diag > rcond * diag[0]))
    coords = scipy.linalg.solve_triangular(R[:rank, :rank], -g[piv[:rank]], trans="T")
    basis = Q[:, rank:].copy()
    cond = diag[0] / diag[rank - 1] if rank else 1.0
    return Q[:, :rank] @ coords, basis, cond


@st.composite
def hull_cases(draw):
    """(J, g, Y): a dense m x n J of rank 0 to min(m, n), m and n in 1-12,
    columns scaled by up to 10^6; g = -J^T mu, so the system is
    consistent; and Y with an identity or a random dense SPD metric."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rank = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    J = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    J *= 10.0 ** rng.uniform(0.0, 6.0, n)
    g = -J.T @ rng.standard_normal(m)
    if draw(st.booleans()):
        Y = InnerProductSpace.identity(m)
    else:
        Q = _orthogonal(rng, m)
        Y = InnerProductSpace((Q * rng.uniform(0.1, 10.0, m)) @ Q.T)
    return J, g, Y


@PROPERTY
@given(hull_cases())
def test_dense_hull_is_scipys(case):
    J, g, Y = case
    rcond = np.finfo(float).eps * max(J.shape)
    anchor, basis, cond = _dense_affine_hull(J, g, Y, rcond)
    want_anchor, want_basis, want_cond = _former_hull(J, g, Y, rcond)
    np.testing.assert_array_equal(anchor, want_anchor)
    np.testing.assert_array_equal(basis, want_basis)
    assert basis.flags.c_contiguous == want_basis.flags.c_contiguous
    assert cond == want_cond


def test_hull_of_a_non_finite_whitened_jacobian_fails_as_scipys():
    J = np.array([[1e300, 0.0], [0.0, 1.0]])
    Y = InnerProductSpace(np.diag([1e300, 1.0]))  # L^T J overflows
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _former_hull(J, np.zeros(2), Y, 1e-15)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _dense_affine_hull(J, np.zeros(2), Y, 1e-15)


@st.composite
def symmetric_matrices(draw):
    """A symmetric matrix of size 1-60: definite, indefinite or
    rank-deficient (a share of its eigenvalues exactly 0 before
    rounding), scaled by 10^[-3, 3]."""
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["definite", "indefinite", "rank-deficient"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eigs = 10.0 ** (draw(st.integers(-3, 3)) - 6.0 * rng.uniform(0.0, 1.0, n))
    if kind != "definite":
        eigs *= rng.choice([-1.0, 1.0], n)
    if kind == "rank-deficient":
        eigs[rng.random(n) < rng.uniform(0.1, 1.0)] = 0.0
    Q = _orthogonal(rng, n)
    A = (Q * eigs) @ Q.T
    return 0.5 * (A + A.T)


@PROPERTY
@given(symmetric_matrices())
def test_smallest_eigenvalue_is_scipys(A):
    got = _smallest_eigenvalue(A)
    want = scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])[0]
    assert np.float64(got).tobytes() == want.tobytes()


def test_smallest_eigenvalue_of_a_non_finite_matrix_fails_as_scipys():
    A = np.array([[1.0, np.nan], [np.nan, 2.0]])
    for smallest in (_smallest_eigenvalue,
                     lambda A: scipy.linalg.eigvalsh(A, subset_by_index=[0, 0])):
        with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
            smallest(A)


@PROPERTY
@given(st.lists(spd_masses(), min_size=1, max_size=4))
def test_dense_product_mass_and_factor_are_scipys(masses):
    parts = [InnerProductSpace(mass) for mass in masses]
    product = spaces.ProductSpace(parts)
    want = InnerProductSpace(scipy.linalg.block_diag(*(p.mass for p in parts)))
    assert product.mass.tobytes() == want.mass.tobytes()
    got_factor, want_factor = product._metric._lower, want._metric._lower
    assert got_factor.tobytes(order="A") == want_factor.tobytes(order="A")
    assert got_factor.flags.f_contiguous == want_factor.flags.f_contiguous
