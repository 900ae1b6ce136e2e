import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.integrate import quad

from ssqp.spaces import (
    DimensionMismatch,
    InnerProductSpace,
    ProductSpace,
    mass_from_spec,
)


def random_spd(rng, dim, scale=1.0):
    B = rng.standard_normal((dim, dim))
    return scale * (B @ B.T + dim * np.eye(dim))


class TestInner:
    def test_orthonormal_identity(self):
        s = InnerProductSpace.identity(2)
        assert s.inner(s.vector([1, 0]), s.vector([0, 1])) == 0.0

    def test_diagonal_weights(self):
        s = InnerProductSpace.diagonal([2.0, 3.0])
        assert s.inner(s.vector([1, 1]), s.vector([1, 1])) == 5.0

    def test_fd_mass_matches_integral(self):
        # lumped 1-D mass on 9 interior points vs quadrature of sin^2
        n, h = 9, 0.1
        s = InnerProductSpace(h * np.eye(n))
        x = h * np.arange(1, n + 1)
        u = s.vector(np.sin(np.pi * x))
        exact, _ = quad(lambda t: np.sin(np.pi * t) ** 2, 0.0, 1.0)
        assert abs(s.inner(u, u) - exact) <= 2e-2
        assert exact == pytest.approx(0.5)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        s = InnerProductSpace(random_spd(rng, 4))
        u = s.vector(rng.standard_normal(4))
        v = s.vector(rng.standard_normal(4))
        assert s.inner(u, v) == pytest.approx(s.inner(v, u), rel=1e-13)

    def test_dimension_mismatch(self):
        s = InnerProductSpace.identity(2)
        with pytest.raises(DimensionMismatch):
            s.vector([1.0, 2.0, 3.0])


class TestRiesz:
    def test_identity_mass_is_identity(self):
        s = InnerProductSpace.identity(2)
        assert_allclose(s.riesz(s.functional([1, 2])).coords, [1, 2])

    def test_diagonal_solve(self):
        s = InnerProductSpace.diagonal([2.0, 4.0])
        assert_allclose(s.riesz(s.functional([2, 4])).coords, [1, 1])

    def test_defining_property_on_basis(self):
        rng = np.random.default_rng(11)
        s = InnerProductSpace(random_spd(rng, 6))
        l = s.functional(rng.standard_normal(6))
        v = s.riesz(l)
        for j in range(6):
            e = s.vector(np.eye(6)[j])
            assert abs(s.inner(v, e) - l(e)) <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        s = InnerProductSpace(random_spd(rng, 5))
        l = s.functional(rng.standard_normal(5))
        back = s.riesz_inverse(s.riesz(l))
        assert_allclose(back.coeffs, l.coeffs, rtol=1e-10, atol=1e-12)


class TestDualNorm:
    def test_euclidean_case(self):
        s = InnerProductSpace.identity(2)
        assert s.dual_norm(s.functional([3, 4])) == pytest.approx(5.0)

    def test_diagonal_case(self):
        s = InnerProductSpace.diagonal([4.0, 1.0])
        assert s.dual_norm(s.functional([2, 0])) == pytest.approx(1.0)

    def test_identity_mass_equals_euclidean(self):
        rng = np.random.default_rng(4)
        s = InnerProductSpace.identity(7)
        for _ in range(20):
            c = rng.standard_normal(7)
            assert s.dual_norm(s.functional(c)) == pytest.approx(
                np.linalg.norm(c), rel=1e-14
            )

    def test_riesz_pairing_identity(self):
        # |l|_* squared equals <l, Rl> for any metric
        rng = np.random.default_rng(5)
        for k in range(25):
            s = InnerProductSpace(random_spd(rng, 4, scale=10.0 ** rng.integers(-2, 3)))
            l = s.functional(rng.standard_normal(4))
            lhs = s.dual_norm(l) ** 2
            rhs = l(s.riesz(l))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_equals_norm_of_riesz(self):
        rng = np.random.default_rng(6)
        s = InnerProductSpace(random_spd(rng, 5))
        l = s.functional(rng.standard_normal(5))
        assert s.dual_norm(l) == pytest.approx(s.norm(s.riesz(l)), rel=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(7)
        s = InnerProductSpace(random_spd(rng, 5))
        for _ in range(100):
            l = s.functional(rng.standard_normal(5))
            v = s.vector(rng.standard_normal(5))
            assert abs(l(v)) <= s.dual_norm(l) * s.norm(v) * (1 + 1e-12)


class TestProductSpace:
    def test_block_diagonal_mass(self):
        s = ProductSpace([InnerProductSpace.identity(2),
                          InnerProductSpace([[7.0]])])
        assert s.dim == 3
        assert_allclose(s.mass, np.diag([1.0, 1.0, 7.0]))

    def test_norm_is_root_sum_of_squares(self):
        rng = np.random.default_rng(8)
        a = InnerProductSpace(random_spd(rng, 3))
        b = InnerProductSpace(random_spd(rng, 2))
        s = ProductSpace([a, b])
        u, v = rng.standard_normal(3), rng.standard_normal(2)
        joined = s.norm(s.vector(s.join([u, v])))
        parts = np.hypot(a.norm_arr(u), b.norm_arr(v))
        assert joined == pytest.approx(parts, rel=1e-13)

    def test_split_join_round_trip(self):
        s = ProductSpace([InnerProductSpace.identity(2),
                          InnerProductSpace.identity(3)])
        u, v = np.array([1.0, 2.0]), np.array([3.0, 4.0, 5.0])
        su, sv = s.split(s.join([u, v]))
        assert_allclose(su, u)
        assert_allclose(sv, v)

    def test_empty_product_rejected(self):
        with pytest.raises(ValueError):
            ProductSpace([])


class TestConstruction:
    def test_asymmetric_mass_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            InnerProductSpace([[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_mass_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            InnerProductSpace([[1.0, 0.0], [0.0, -1.0]])

    def test_mass_is_frozen(self):
        s = InnerProductSpace.identity(2)
        with pytest.raises(ValueError):
            s.mass[0, 0] = 5.0


class TestNormOverflow:
    """|a|_* for |a| near 1e154, where a @ M^{-1} a overflows."""

    @pytest.mark.parametrize("storage", [np.array, sp.csr_matrix],
                             ids=["dense", "banded"])
    def test_norms_scale_without_overflow(self, storage):
        s = InnerProductSpace(storage(np.array([[1.0, 0.99], [0.99, 1.0]])))
        a = np.array([5e153, 1e154])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in (s.norm_arr, s.dual_norm_arr):
                assert norm(a) == pytest.approx(1e150 * norm(1e-150 * a),
                                                rel=1e-12)
        # a^T M^{-1} a = (25 + 100 - 99) / 0.0199 times 1e306
        assert s.dual_norm_arr(a) == pytest.approx(3.6147e154, rel=1e-4)


class TestBandedStorage:
    def test_sparse_construction_checks_like_dense(self):
        with pytest.raises(ValueError, match="symmetric"):
            InnerProductSpace(sp.csr_matrix([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            InnerProductSpace(sp.csr_matrix([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="square"):
            InnerProductSpace(sp.csr_matrix(np.ones((2, 3))))
        with pytest.raises(ValueError, match="positive dimension"):
            InnerProductSpace(sp.csr_matrix((0, 0)))

    def test_duplicates_summed_and_explicit_zeros_ignored(self):
        M = sp.coo_matrix(([1.0, 1.0, 0.0, 0.0, 1.0, 3.0],
                           ([0, 0, 2, 0, 1, 2], [0, 0, 0, 2, 1, 2])), shape=(3, 3))
        s = InnerProductSpace(M)
        assert_allclose(s.mass, np.diag([2.0, 1.0, 3.0]))
        assert s._metric.bands().shape == (1, 3)  # bandwidth 0
        assert s.scaled_mass(sparse=True).nnz == 3

    def test_dense_mass_is_frozen(self):
        s = InnerProductSpace(np.eye(2))
        with pytest.raises(ValueError):
            s.mass[0, 0] = 5.0
        weights = np.array([1.0, 2.0])
        d = InnerProductSpace.diagonal(weights)
        weights[0] = -1.0  # the space keeps its own copy
        assert_allclose(d.mass, np.diag([1.0, 2.0]))


class TestMassFromSpec:
    def test_identity(self):
        assert_allclose(mass_from_spec("identity", dim=3), np.eye(3))

    def test_diagonal(self):
        assert_allclose(mass_from_spec("diagonal: [2, 3]"), np.diag([2.0, 3.0]))

    def test_dense(self):
        got = mass_from_spec("dense: [[2, 1], [1, 2]]")
        assert_allclose(got, [[2, 1], [1, 2]])

    def test_identity_needs_dim(self):
        with pytest.raises(ValueError):
            mass_from_spec("identity")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            mass_from_spec("banana: [1]")

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            mass_from_spec("diagonal: [1, 2, 3]", dim=2)
