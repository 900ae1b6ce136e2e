import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssqp.bench import get_benchmark, list_benchmarks
from ssqp.model import (
    ConeSpec,
    KKTResidual,
    ProblemDef,
    empty_cone,
    validate_problem,
)
from ssqp.solver import SolveStatus, SolverOptions, run
from ssqp.spaces import Functional, InnerProductSpace, PrimalVec
from saddle_reference import spd


def two_constraint_linear():
    """f(x) = x1 + |x|^2/2 with the fully linear redundant constraints."""
    Z = InnerProductSpace.identity(2)
    Y = InnerProductSpace.identity(2)
    return ProblemDef(
        Z, Y, empty_cone(Y),
        f=lambda z: float(z.coords[0] + 0.5 * z.coords @ z.coords),
        grad_f=lambda z: Functional(Z, np.array([1.0 + z.coords[0], z.coords[1]])),
        G=lambda z: PrimalVec(Y, np.array([z.coords[0], z.coords[0]])),
        jac_G=lambda z: np.array([[1.0, 0.0], [1.0, 0.0]]),
        hess_L=lambda z, lam: np.eye(2),
    )


class TestConeSpec:
    def test_gram_is_pairwise_inner_products(self):
        Y = InnerProductSpace.diagonal([2.0, 1.0])
        cone = ConeSpec(Y, (Y.vector([1, 0]), Y.vector([1, 1])))
        assert_allclose(cone.gram, [[2.0, 2.0], [2.0, 3.0]])

    def test_dependent_generators_rejected(self):
        Y = InnerProductSpace.identity(2)
        with pytest.raises(ValueError, match="independent"):
            ConeSpec(Y, (Y.vector([1, 0]), Y.vector([2, 0])))

    def test_empty_cone_is_m0(self):
        Y = InnerProductSpace.identity(3)
        assert empty_cone(Y).m == 0


class TestConeCoords:
    def test_generator_itself(self):
        Y = InnerProductSpace.identity(3)
        cone = ConeSpec(Y, (Y.vector([1, 1, 0]), Y.vector([0, 0, 2])))
        c, res = cone.coords(Y.vector([1, 1, 0]))
        assert_allclose(c, [1.0, 0.0], atol=1e-14)
        assert res == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_remainder(self):
        Y = InnerProductSpace.identity(3)
        cone = ConeSpec(Y, (Y.vector([1, 0, 0]),))
        r = Y.vector([0, 0, 3])
        c, res = cone.coords(r)
        assert_allclose(c, [0.0], atol=1e-14)
        assert res == pytest.approx(3.0)

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(21)
        Y = InnerProductSpace.identity(3)
        for _ in range(10):
            gens = (Y.vector(rng.standard_normal(3)),
                    Y.vector(rng.standard_normal(3)))
            cone = ConeSpec(Y, gens)
            r = rng.standard_normal(3)
            c, res = cone.coords(Y.vector(r))
            B = np.column_stack([g.coords for g in gens])
            c_ls, *_ = np.linalg.lstsq(B, r, rcond=None)
            assert_allclose(c, c_ls, atol=1e-10)
            assert res == pytest.approx(np.linalg.norm(r - B @ c_ls), abs=1e-10)

    def test_empty_cone_rejected(self):
        Y = InnerProductSpace.identity(2)
        with pytest.raises(ValueError):
            empty_cone(Y).coords(Y.vector([1, 0]))


class TestLagrangianGrad:
    def test_vanishes_at_hand_solved_kkt_point(self):
        p = two_constraint_linear()
        got = p.lagrangian_grad(p.Z.vector([0, 0]), p.Y.functional([-0.5, -0.5]))
        assert_allclose(got.coeffs, [0.0, 0.0], atol=1e-15)

    def test_zero_multiplier_gives_objective_gradient(self):
        p = two_constraint_linear()
        z = p.Z.vector([0.3, -0.7])
        got = p.lagrangian_grad(z, p.Y.zero_functional())
        assert_allclose(got.coeffs, p.grad_f(z).coeffs)

    def test_linear_constraint_shift_independent_of_point(self):
        p = two_constraint_linear()
        lam = p.Y.functional([0.4, -1.3])
        shifts = []
        for coords in ([0.0, 0.0], [1.0, -2.0], [0.3, 0.9]):
            z = p.Z.vector(coords)
            shifts.append(
                p.lagrangian_grad(z, lam).coeffs
                - p.lagrangian_grad(z, p.Y.zero_functional()).coeffs
            )
        assert_allclose(shifts[0], shifts[1])
        assert_allclose(shifts[0], shifts[2])

    def test_adjoint_identity(self):
        bm = get_benchmark("degenerate-line")
        p = bm.problem
        rng = np.random.default_rng(33)
        for _ in range(20):
            z = p.Z.vector(rng.standard_normal(2))
            d = rng.standard_normal(2)
            lam = rng.standard_normal(2)
            J = p.jac_G(z)
            lhs = (J.T @ lam) @ d
            rhs = lam @ (J @ d)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


class TestKKTResidual:
    def test_eta_leaves_out_the_polar_violation(self):
        kkt = KKTResidual(0.25, 0.5, 4.0)
        assert kkt.eta == 0.75
        assert kkt.total == 4.75

    def test_degenerate_benchmark_solution(self):
        bm = get_benchmark("degenerate-line")
        kkt = bm.problem.kkt_residual(
            bm.problem.Z.vector([0, 0]), bm.problem.Y.functional([-0.5, -0.5])
        )
        assert kkt.total <= 1e-14

    def test_feasible_point_zero_multiplier(self):
        p = two_constraint_linear()
        z = p.Z.vector([0.0, 0.4])
        kkt = p.kkt_residual(z, p.Y.zero_functional())
        assert kkt.feasibility == 0.0
        assert kkt.polar_violation == 0.0
        assert kkt.total == pytest.approx(
            p.Z.dual_norm(p.grad_f(z)), rel=1e-14
        )

    def test_cone_membership_with_annihilating_multiplier(self):
        # G(z) = y1 lies in the cone and lam pairs to zero against it
        Y = InnerProductSpace.identity(2)
        Z = InnerProductSpace.identity(2)
        cone = ConeSpec(Y, (Y.vector([1, 0]),))
        p = ProblemDef(
            Z, Y, cone,
            f=lambda z: 0.0,
            grad_f=lambda z: Z.zero_functional(),
            G=lambda z: PrimalVec(Y, np.array([1.0, 0.0])),
            jac_G=lambda z: np.zeros((2, 2)),
            hess_L=lambda z, lam: np.zeros((2, 2)),
        )
        kkt = p.kkt_residual(Z.vector([0, 0]), Y.functional([0.0, -2.0]))
        assert kkt.total == pytest.approx(0.0, abs=1e-14)

    def test_polar_violation_reported(self):
        Y = InnerProductSpace.identity(2)
        Z = InnerProductSpace.identity(2)
        cone = ConeSpec(Y, (Y.vector([1, 0]),))
        p = ProblemDef(
            Z, Y, cone,
            f=lambda z: 0.0,
            grad_f=lambda z: Z.zero_functional(),
            G=lambda z: PrimalVec(Y, np.zeros(2)),
            jac_G=lambda z: np.zeros((2, 2)),
            hess_L=lambda z, lam: np.zeros((2, 2)),
        )
        kkt = p.kkt_residual(Z.vector([0, 0]), Y.functional([0.3, 0.0]))
        assert kkt.polar_violation == pytest.approx(0.3)

    def test_invariant_across_multiplier_set(self):
        # for K = {0} the total at z* only sees lam through stationarity
        bm = get_benchmark("degenerate-line")
        p = bm.problem
        z = p.Z.vector([0, 0])
        totals = [
            p.kkt_residual(z, p.Y.functional([l1, -1.0 - l1])).total
            for l1 in (-0.5, -0.9, -0.1, 0.4)
        ]
        assert max(totals) <= 1e-13

    def test_cones_beyond_enumeration_converge_to_nnls_projection(self):
        # min |x - c|_H^2 / 2 over x in cone(y_1..y_m) in R^20 with 13 to
        # 20 generators, more than solve_cone's fallback enumerates: the
        # KKT residual takes any m, and the solve must reach the minimizer
        # given by NNLS on the Cholesky-whitened generators.  Half of the
        # cones are spanned by unit vectors, half by Gaussian generators.
        import scipy.optimize

        rng = np.random.default_rng(4013)
        dim = 20

        for trial in range(16):
            m = int(rng.integers(13, dim + 1))
            H, mass_y = spd(rng, dim), spd(rng, dim)
            L = np.linalg.cholesky(H)
            if trial % 2:
                gens = rng.standard_normal((dim, m))
            else:
                gens = np.eye(dim)[:, rng.choice(dim, m, replace=False)]
            center = rng.standard_normal(dim)
            w, _ = scipy.optimize.nnls(L.T @ gens, L.T @ center)
            x_star = gens @ w
            Z, Y = InnerProductSpace(H), InnerProductSpace(mass_y)
            p = ProblemDef(
                Z, Y, ConeSpec(Y, tuple(Y.vector(g) for g in gens.T)),
                f=lambda z: 0.0,
                grad_f=lambda z, H=H, c=center: Functional(Z, H @ (z.coords - c)),
                G=lambda z: PrimalVec(Y, z.coords.copy()),
                jac_G=lambda z: np.eye(dim),
                hess_L=lambda z, lam, H=H: H,
            )
            dz = rng.standard_normal(dim)
            dz *= 0.1 / Z.norm_arr(dz)
            report = run(p, Z.vector(x_star + dz), Y.zero_functional(),
                         SolverOptions(tol=1e-10, max_iter=50))
            assert report.status is SolveStatus.CONVERGED, (trial, m)
            assert_allclose(report.history[-1].z.coords, x_star, rtol=0,
                            atol=1e-8)

    def test_full_cone_projection_matches_nnls_oracle(self):
        # with all generators admissible the feasibility term is the
        # metric projection onto the cone, independently computable by
        # nonnegative least squares in whitened coordinates
        import scipy.linalg
        import scipy.optimize

        rng = np.random.default_rng(61)
        for _ in range(15):
            ny = 4
            My = rng.standard_normal((ny, ny))
            My = My @ My.T + ny * np.eye(ny)
            Y = InnerProductSpace(My)
            Z = InnerProductSpace.identity(1)
            gens = tuple(Y.vector(rng.standard_normal(ny)) for _ in range(2))
            cone = ConeSpec(Y, gens)
            gval = rng.standard_normal(ny)
            p = ProblemDef(
                Z, Y, cone,
                f=lambda z: 0.0,
                grad_f=lambda z: Z.zero_functional(),
                G=lambda z, gv=gval: PrimalVec(Y, gv),
                jac_G=lambda z: np.zeros((ny, 1)),
                hess_L=lambda z, lam: np.zeros((1, 1)),
            )
            kkt = p.kkt_residual(Z.vector([0.0]), Y.zero_functional())
            L = scipy.linalg.cholesky(My, lower=True)
            _, dist = scipy.optimize.nnls(L.T @ cone.generator_matrix,
                                          L.T @ gval)
            assert kkt.feasibility == pytest.approx(dist, abs=1e-10)

    def test_projection_matches_quadratic_program_oracle(self):
        # distance to the active face vs cvxpy-free brute force over a grid
        rng = np.random.default_rng(50)
        Y = InnerProductSpace.identity(3)
        Z = InnerProductSpace.identity(1)
        gens = (Y.vector([1.0, 0.0, 0.0]), Y.vector([0.0, 1.0, 0.0]))
        cone = ConeSpec(Y, gens)
        gval = rng.standard_normal(3)
        p = ProblemDef(
            Z, Y, cone,
            f=lambda z: 0.0,
            grad_f=lambda z: Z.zero_functional(),
            G=lambda z: PrimalVec(Y, gval),
            jac_G=lambda z: np.zeros((3, 1)),
            hess_L=lambda z, lam: np.zeros((1, 1)),
        )
        lam = Y.functional([0.0, -1.0, 0.0])  # generator 2 strictly inactive
        kkt = p.kkt_residual(Z.vector([0.0]), lam)
        # allowed face is the ray of generator 1 only
        expect = np.linalg.norm(gval - np.array([max(gval[0], 0.0), 0.0, 0.0]))
        assert kkt.feasibility == pytest.approx(expect, rel=1e-12)

    def test_vanishes_at_exact_off_vertex_cone_solutions(self):
        # min |x - c|_H^2 / 2 over x in cone(y_1..y_6) in R^12: the exact
        # solution x* = Y w comes from NNLS on the H-whitened generators
        # and lam* = -H (x* - c).  Off the cone vertex |G(x*)| is O(1), so
        # a face distance computed as sqrt(|r|^2 - c^T b) would leave a
        # rounding floor near sqrt(eps) here.
        import scipy.optimize

        rng = np.random.default_rng(2024)
        dim, m = 12, 6

        worst = 0.0
        for _ in range(24):
            H, mass_y = spd(rng, dim), spd(rng, dim)
            L = np.linalg.cholesky(H)
            while True:
                gens = rng.standard_normal((dim, m))
                center = rng.standard_normal(dim)
                w, _ = scipy.optimize.nnls(L.T @ gens, L.T @ center)
                if w.max() > 1e-6:
                    break
            x_star = gens @ w
            Z, Y = InnerProductSpace(H), InnerProductSpace(mass_y)
            cone = ConeSpec(Y, tuple(Y.vector(g) for g in gens.T))
            p = ProblemDef(
                Z, Y, cone,
                f=lambda z: 0.0,
                grad_f=lambda z, H=H, c=center: Functional(Z, H @ (z.coords - c)),
                G=lambda z: PrimalVec(Y, z.coords.copy()),
                jac_G=lambda z: np.eye(dim),
                hess_L=lambda z, lam, H=H: H,
            )
            lam_star = Y.functional(-H @ (x_star - center))
            kkt = p.kkt_residual(Z.vector(x_star), lam_star)
            assert kkt.polar_violation <= 1e-12
            worst = max(worst, kkt.feasibility)
        assert worst <= 1e-12


class TestValidation:
    @pytest.mark.parametrize("name", list_benchmarks())
    def test_shipped_benchmarks_validate(self, name):
        validate_problem(get_benchmark(name).problem, seed=2)

    def test_wrong_jacobian_detected(self):
        p = two_constraint_linear()
        broken = ProblemDef(
            p.Z, p.Y, p.cone, p.f, p.grad_f, p.G,
            jac_G=lambda z: np.array([[1.0, 0.1], [1.0, 0.0]]),
            hess_L=p.hess_L,
        )
        with pytest.raises(ValueError, match="finite differences"):
            validate_problem(broken, seed=2)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_callback_shapes_checked_first(self, sparse):
        # a wrong shape is named as such, not as an asymmetry or a
        # finite-difference mismatch, or not at all (a square hess_L)
        import scipy.sparse as sp

        p = two_constraint_linear()
        wrap = sp.csr_matrix if sparse else np.asarray
        cases = {
            "hess_L returned shape (3, 3), expected (2, 2)":
                dataclasses.replace(p, hess_L=lambda z, lam: wrap(np.eye(3))),
            "hess_L returned shape (2, 3), expected (2, 2)":
                dataclasses.replace(p, hess_L=lambda z, lam: wrap(np.eye(2, 3))),
            "jac_G returned shape (2, 3), expected (2, 2)":
                dataclasses.replace(p, jac_G=lambda z: wrap(np.eye(2, 3))),
        }
        for message, broken in cases.items():
            with pytest.raises(ValueError, match=re.escape(f"callback {message}")):
                validate_problem(broken, seed=2)

    def test_hessian_fault_matches_the_reference_test(self):
        # max(H - H^T) in place of max|H - H^T|, on dense storage and on
        # CSR as built, with a structurally asymmetric pattern, with
        # explicit zeros, with unsorted indices and with duplicate entries
        import scipy.sparse as sp

        from ssqp.model import hessian_fault

        def reference(M):
            D = M.toarray() if sp.issparse(M) else M
            scale = max(np.abs(D).max(), 1.0)
            if not np.isfinite(scale):
                return "not finite"
            return "not symmetric to 1e-10" if np.abs(D - D.T).max() > 1e-10 * scale else None

        def storages(H, rng):
            csr = sp.csr_matrix(H)
            yield H
            yield csr
            # explicit zeros: every position stored, zero or not
            n = H.shape[0]
            rows, cols = np.divmod(np.arange(n * n), n)
            yield sp.csr_matrix((H.ravel(), (rows, cols)), shape=H.shape)
            # unsorted: each row's entries in reverse order
            order = np.concatenate([np.arange(a, b)[::-1]
                                    for a, b in zip(csr.indptr[:-1], csr.indptr[1:])])
            unsorted = sp.csr_matrix((csr.data[order], csr.indices[order], csr.indptr),
                                     shape=H.shape)
            yield unsorted
            # duplicates: every entry stored twice, as two parts of its value
            split = rng.standard_normal(csr.nnz)
            counts = 2 * np.diff(csr.indptr)
            yield sp.csr_matrix(
                (np.column_stack([csr.data - split, split]).ravel(),
                 np.repeat(csr.indices, 2), np.concatenate([[0], np.cumsum(counts)])),
                shape=H.shape)

        rng = np.random.default_rng(8)
        seen = {None: 0, "not symmetric to 1e-10": 0, "unsorted": 0}
        for _ in range(300):
            n = int(rng.integers(1, 6))
            H = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2)
            H = (H + H.T) * (rng.random((n, n)) < 0.7)
            H = np.triu(H) + np.triu(H, 1).T
            i, j = rng.integers(0, n, 2)
            delta = rng.choice([1, -1]) * 10.0 ** rng.uniform(-13, -8) * max(
                np.abs(H).max(), 1.0)
            if i != j and rng.random() < 0.5:
                # structurally asymmetric: H_ij stored, its mirror not
                H[i, j], H[j, i] = delta, 0.0
            else:
                H[i, j] += delta
            for M in storages(H, rng):
                fault = hessian_fault(M)
                assert fault == reference(M)
                seen[fault] += 1
                seen["unsorted"] += sp.issparse(M) and not M.has_sorted_indices
        assert min(seen.values()) >= 100
        assert hessian_fault(np.array([[1.0, np.nan], [0.0, 1.0]])) == "not finite"
        assert hessian_fault(sp.csr_matrix(np.array([[1.0, np.inf], [0.0, 1.0]]))) == "not finite"

    def test_non_finite_hessian_detected(self):
        p = two_constraint_linear()
        broken = ProblemDef(
            p.Z, p.Y, p.cone, p.f, p.grad_f, p.G, p.jac_G,
            hess_L=lambda z, lam: np.array([[1.0, np.nan], [np.nan, 1.0]]),
        )
        with pytest.raises(ValueError, match="hess_L is not finite"):
            validate_problem(broken, seed=2)

    def test_asymmetric_hessian_detected(self):
        p = two_constraint_linear()
        broken = ProblemDef(
            p.Z, p.Y, p.cone, p.f, p.grad_f, p.G, p.jac_G,
            hess_L=lambda z, lam: np.array([[1.0, 0.2], [0.0, 1.0]]),
        )
        with pytest.raises(ValueError, match="symmetric"):
            validate_problem(broken, seed=2)
