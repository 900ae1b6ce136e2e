import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from numpy.testing import assert_allclose

from ssqp import bench
from ssqp.bench import (
    BenchmarkProblem,
    fd_eigenvalue,
    fd_laplacian,
    get_benchmark,
    list_benchmarks,
    make_cone_instance,
    make_degenerate_line,
    make_eigencontrol,
)
from ssqp.diagnostics import ReferenceSolution, degeneracy_report, multiplier_distance
from ssqp.model import ProblemDef
from ssqp.solver import SolverOptions, SolveStatus, run
from ssqp.spaces import InnerProductSpace, ProductSpace, _sparse_bands


class TestRegistry:
    def test_known_names_present(self):
        names = list_benchmarks()
        assert "degenerate-line" in names
        assert "eigencontrol-n49" in names

    def test_ordering_is_stable(self):
        assert list_benchmarks() == list_benchmarks()

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            get_benchmark("no-such-benchmark")

    @pytest.mark.parametrize("name", list_benchmarks())
    def test_references_certified(self, name):
        bm = get_benchmark(name)
        assert bm.reference is not None
        kkt = bm.problem.kkt_residual(bm.reference.z_star,
                                      bm.reference.lambda_star)
        assert kkt.total <= 1e-9


class TestCertification:
    @pytest.mark.parametrize("passed", [False, True])
    def test_failing_reference_raises_naming_the_benchmark(self, passed):
        # (0.5, 0) with its own stored multiplier: stationary, since
        # J^T (-1.5, 0) = -f'(z), but G(z) = (0.5, 0.75) is not in K = {0}
        p = make_degenerate_line().problem
        z = p.Z.vector([0.5, 0.0])
        lam = p.Y.functional([-1.5, 0.0])
        ref = ReferenceSolution(z_star=z, j_star=p.jac_G(z),
                                g_star=p.grad_f(z).coeffs, cone=p.cone,
                                lambda_star=lam)
        kkt = p.kkt_residual(z, lam) if passed else None
        with pytest.raises(ValueError,
                           match=r"^moved-line: reference fails the KKT test \(9\.01"):
            BenchmarkProblem(name="moved-line", problem=p, reference=ref,
                             certified_radius=0.1, describe=str,
                             reference_kkt=kkt)

    @pytest.mark.parametrize("build, kwargs, calls", [
        (make_degenerate_line, {}, 1),
        (make_degenerate_line, {"mass_z": np.array([[2.0, 0.5], [0.5, 1.0]]),
                                "mass_y": np.array([[1.0, -0.3], [-0.3, 3.0]])}, 1),
        (make_cone_instance, {}, 1),
        # both branches certified, and the reference not again
        (make_eigencontrol, {}, 2),
        (make_eigencontrol, {"n": 49, "q_d": -2.0, "u_d_amp": 0.3}, 2),
        # the eigen branch's multiplier overflows: only the trivial one
        (make_eigencontrol, {"n": 5, "u_d_amp": 1e-300, "q_d": -3.0}, 1),
    ])
    def test_one_kkt_residual_per_certified_point(self, monkeypatch, build,
                                                  kwargs, calls):
        counted = []
        kkt_residual = ProblemDef.kkt_residual

        def counting(self, *args, **kw):
            counted.append(args)
            return kkt_residual(self, *args, **kw)

        monkeypatch.setattr(ProblemDef, "kkt_residual", counting)
        bm = build(**kwargs)
        assert len(counted) == calls
        assert bm.reference_kkt.total <= bench.KKT_TOL


class TestDegenerateLine:
    def test_hand_verified_kkt_point(self):
        bm = make_degenerate_line()
        kkt = bm.problem.kkt_residual(bm.problem.Z.vector([0, 0]),
                                      bm.problem.Y.functional([-0.5, -0.5]))
        assert kkt.total <= 1e-14

    def test_singular_values_at_solution(self):
        bm = make_degenerate_line()
        rep = degeneracy_report(bm.problem, bm.reference.z_star)
        assert_allclose(sorted(rep.singular_values), [0.0, np.sqrt(2.0)],
                        atol=1e-12)

    def test_hessian_positive_only_on_null_space(self):
        # the full Hessian at the projected multiplier is diag(0, 1):
        # singular overall, positive definite along the constraint null
        # space span{e2}
        bm = make_degenerate_line()
        p = bm.problem
        H = p.hess_L(p.Z.vector([0, 0]), p.Y.functional([-0.5, -0.5]))
        assert_allclose(H, np.diag([0.0, 1.0]), atol=1e-14)
        e2 = np.array([0.0, 1.0])
        assert e2 @ H @ e2 == pytest.approx(1.0)

    def test_metric_override_moves_projected_multiplier(self):
        bm = make_degenerate_line(mass_y=np.diag([4.0, 1.0]))
        assert_allclose(bm.reference.lambda_star.coeffs, [-0.8, -0.2],
                        atol=1e-12)

    def test_dimension_of_override_checked(self):
        with pytest.raises(ValueError):
            make_degenerate_line(mass_y=np.eye(3))


class TestConeInstance:
    def test_reference_geometry(self):
        bm = get_benchmark("cone-active")
        assert_allclose(bm.reference.z_star.coords, [0.0, 0.0], atol=1e-12)
        pairings = bm.problem.cone.pairings(bm.reference.lambda_star)
        assert pairings[0] == pytest.approx(0.0, abs=1e-12)

    def test_solver_converges_from_interior_start(self):
        bm = get_benchmark("cone-active")
        z0 = bm.problem.Z.vector([0.05, -0.9 + 0.05])
        lam0 = bm.problem.Y.zero_functional()
        report = run(bm.problem, z0, lam0, SolverOptions(tol=1e-12),
                     reference=bm.reference)
        assert report.status is SolveStatus.CONVERGED
        assert report.history[-1].kkt.total <= 1e-10
        assert_allclose(report.history[-1].z.coords, [0.0, 0.0], atol=1e-9)


class TestEigencontrol:
    def test_fd_eigenvalue_matches_eigensolve(self):
        n = 23
        A = fd_laplacian(n).toarray()
        eigs = np.sort(np.linalg.eigvalsh(A))
        for mode in (1, 2, 3):
            assert fd_eigenvalue(n, mode) == pytest.approx(eigs[mode - 1],
                                                           rel=1e-12)

    def test_zero_target_trivial_global_solution(self):
        bm = make_eigencontrol(n=15, q_d=-2.0, u_d_amp=0.0)
        p = bm.problem
        z = p.Z.vector(np.concatenate([np.zeros(15), [-2.0]]))
        assert p.f(z) == 0.0
        kkt = p.kkt_residual(z, p.Y.zero_functional())
        assert kkt.total <= 1e-12

    def test_state_metric_is_discrete_h2(self):
        n = 9
        bm = make_eigencontrol(n=n)
        h = 1.0 / (n + 1)
        A = fd_laplacian(n).toarray()
        expect = scipy.linalg.block_diag(h * (np.eye(n) + A.T @ A), [[1.0]])
        assert_allclose(bm.problem.Z.mass, expect, rtol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 49, 200, 1000, 2000])
    def test_band_build_has_the_bits_of_the_scipy_sparse_build(self, n):
        # the Laplacian, both metrics in band storage, Z's factor and G
        # equal bit for bit what the scipy.sparse expressions give
        h = 1.0 / (n + 1)
        off = -np.ones(n - 1)
        A = sp.diags([off, 2.0 * np.ones(n), off], [-1, 0, 1], format="csr") / h**2
        assert np.array_equal(fd_laplacian(n).toarray(), A.toarray())
        p = make_eigencontrol(n=n).problem
        state = _sparse_bands(h * (sp.identity(n, format="csr") + A.T @ A))
        assert np.array_equal(p.Z._metric.bands()[:, :n], state)
        assert np.array_equal(p.Z._metric.bands()[:, n], [1.0, 0.0, 0.0])
        assert np.array_equal(p.Y._metric.bands(), np.full((1, n), h))
        stacked = np.hstack([state, [[1.0], [0.0], [0.0]]])
        assert np.array_equal(p.Z._metric._factor,
                              scipy.linalg.cholesky_banded(stacked, lower=True))
        z = p.Z.vector(np.random.default_rng(n).standard_normal(n + 1))
        u, q = z.coords[:n], z.coords[n]
        assert np.array_equal(p.G(z).coords, fd_laplacian(n).to_scipy() @ u + q * u)

    @pytest.mark.parametrize("n", [3, 4, 49, 200, 1000, 2000])
    def test_z_has_the_bytes_of_the_product_of_state_and_control(self, n):
        # Z's bands are written as one array, and its factor is one
        # factorization of them: the bytes of the product space of the
        # state and the control, and of the state's factor stacked on the
        # control's 1, which is how the product once built it
        h = 1.0 / (n + 1)
        A = fd_laplacian(n).to_scipy()
        state = InnerProductSpace(h * (sp.identity(n, format="csr") + A.T @ A))
        product = ProductSpace([state, InnerProductSpace.identity(1)])
        Z = make_eigencontrol(n=n).problem.Z
        stacked = np.hstack([state._metric._factor, [[1.0], [0.0], [0.0]]])
        for got, want in [(Z._metric.bands(), product._metric.bands()),
                          (Z._metric._factor, product._metric._factor),
                          (Z._metric._factor, stacked)]:
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert Z.mass_scale.hex() == product.mass_scale.hex()

    def test_jacobian_singular_at_discrete_eigenvalue(self):
        bm = get_benchmark("eigencontrol-n49")
        rep = degeneracy_report(bm.problem, bm.reference.z_star)
        assert rep.singular_values.min() <= 1e-8
        assert not rep.rcq_satisfied

    def test_null_space_structure(self):
        # eigenfunction direction plus the control direction, nothing else
        bm = get_benchmark("eigencontrol-n49")
        p = bm.problem
        J = p.jac_G(bm.reference.z_star).toarray()
        Lz = scipy.linalg.cholesky(p.Z.mass, lower=True)
        Ly = scipy.linalg.cholesky(p.Y.mass, lower=True)
        Jt = scipy.linalg.solve_triangular(Lz, (Ly.T @ J).T, lower=True).T
        basis = scipy.linalg.null_space(Jt, rcond=1e-8)
        assert 1 <= basis.shape[1] <= 2

    def test_editing_a_returned_matrix_leaves_later_calls_alone(self):
        # at z = 0, lam = 0 the Jacobian's control column and the Hessian's
        # arrow hold explicit zeros; editing a returned matrix in place must
        # not change the next call's matrix: its data is its own, and the
        # interned pattern it shares is read-only
        p = make_eigencontrol(n=7).problem
        z, lam = p.Z.zero_vector(), p.Y.zero_functional()
        J0, H0 = p.jac_G(z).toarray(), p.hess_L(z, lam).toarray()
        for M in (p.jac_G(z), p.hess_L(z, lam)):
            M.data[:] = 1.0
            for index in (M.indptr, M.indices):
                with pytest.raises(ValueError, match="read-only"):
                    index[:] = 0
        np.testing.assert_array_equal(p.jac_G(z).toarray(), J0)
        np.testing.assert_array_equal(p.hess_L(z, lam).toarray(), H0)

    def test_hessian_positive_on_numerical_null_space(self):
        # alpha exceeds the threshold proxy 2 |lam*|^2 + |u*|^2, so the
        # Hessian form is positive definite on the null-space directions
        bm = get_benchmark("eigencontrol-n49")
        p = bm.problem
        ref = bm.reference
        u_norm = p.Y.norm_arr(ref.z_star.coords[:-1])
        lam_norm = p.Y.dual_norm(ref.lambda_star)
        alpha = 1.0
        assert alpha > 2.0 * lam_norm**2 + u_norm**2
        J = p.jac_G(ref.z_star).toarray()
        Lz = scipy.linalg.cholesky(p.Z.mass, lower=True)
        Ly = scipy.linalg.cholesky(p.Y.mass, lower=True)
        Jt = scipy.linalg.solve_triangular(Lz, (Ly.T @ J).T, lower=True).T
        white_basis = scipy.linalg.null_space(Jt, rcond=1e-8)
        basis = scipy.linalg.solve_triangular(Lz.T, white_basis, lower=False)
        H = p.hess_L(ref.z_star, ref.lambda_star).toarray()
        projected = basis.T @ H @ basis
        metric = basis.T @ p.Z.mass @ basis
        assert scipy.linalg.eigh(projected, metric, eigvals_only=True)[0] > 0

    def test_trivial_branch_reference_when_eigen_branch_fails(self):
        # off-eigenvalue q_d with zero target: the eigen family point is
        # not stationary but the trivial branch still certifies
        bm = make_eigencontrol(n=15, q_d=-2.0, u_d_amp=0.0)
        assert bm.reference is not None
        assert bm.reference.z_star.coords[-1] == pytest.approx(-2.0)
        assert "trivial" in bm.notes

    def test_nonzero_amplitude_restores_regularity(self):
        # a nonzero eigenfunction component in the target moves the
        # optimum to (amp phi, q_h), where the control column of the
        # Jacobian spans the missing direction
        bm = make_eigencontrol(n=15, u_d_amp=0.1)
        assert bm.reference is not None
        c = bm.reference.z_star.coords[:-1] @ np.sin(
            np.pi / 16 * np.arange(1, 16)
        )
        assert c != pytest.approx(0.0, abs=1e-6)
        rep = degeneracy_report(bm.problem, bm.reference.z_star)
        assert rep.rcq_satisfied

    def test_default_start_converges_to_the_lower_objective_branch(self):
        # off the eigenvalue both branches certify; the eigen branch costs
        # alpha (q_h - q_d)^2 / 2 (about 89 here), the trivial one
        # h |u_d|^2 / 2, and the default start converges to the trivial one
        bm = make_eigencontrol(n=49, q_d=3.5, u_d_amp=0.25)
        assert bm.reference.z_star.coords[-1] == 3.5
        z0, lam0 = bm.default_start()
        report = run(bm.problem, z0, lam0, SolverOptions(tol=1e-12),
                     reference=bm.reference)
        assert report.status is SolveStatus.CONVERGED
        assert report.history[-1].total_err <= 1e-11

    def test_both_branches_certified_off_the_eigenvalue(self):
        # the eigen branch (0.3 phi, q_h) is a KKT point too, at a higher
        # objective than the trivial branch (0, q_d)
        bm = make_eigencontrol(n=49, q_d=-2.0, u_d_amp=0.3)
        assert bm.notes.endswith("; certified branches: eigen, trivial")
        np.testing.assert_array_equal(bm.reference.z_star.coords,
                                      np.concatenate([np.zeros(49), [-2.0]]))

    @pytest.mark.parametrize("amp", [1e-300, 5e-324])
    def test_tiny_amplitude_builds_without_overflow(self, amp):
        # the eigen multiplier grows like 1 / u_d_amp; once its squared
        # norm overflows the branch is rejected before any KKT residual
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bm = make_eigencontrol(n=5, u_d_amp=amp, q_d=-3.0)
            notes = bm.notes  # computed on first read
        np.testing.assert_array_equal(bm.reference.z_star.coords,
                                      [0.0, 0.0, 0.0, 0.0, 0.0, -3.0])
        assert notes.endswith("; certified branches: trivial")

    def test_grid_limits(self):
        with pytest.raises(ValueError):
            make_eigencontrol(n=2)
        with pytest.raises(ValueError):
            make_eigencontrol(n=4000)
        with pytest.raises(ValueError):
            make_eigencontrol(n=15, alpha=-1.0)
        with pytest.raises(ValueError):
            make_eigencontrol(n=15, u_d_mode=0)
        with pytest.raises(ValueError):
            make_eigencontrol(n=15, u_d_mode=16)
        # non-finite parameters, NaN included, before any arithmetic on them
        for name in ("alpha", "q_d", "u_d_amp"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{name} must be finite"):
                    make_eigencontrol(n=15, **{name: value})

    def test_quadratic_convergence_from_certified_start(self):
        bm = get_benchmark("eigencontrol-n49")
        p = bm.problem
        z0, lam0 = bm.default_start()
        report = run(p, z0, lam0, SolverOptions(tol=1e-10, max_iter=30),
                     reference=bm.reference)
        assert report.status is SolveStatus.CONVERGED
        assert report.history[-1].kkt.total <= 1e-10

    def test_multiplier_set_is_eigenfunction_line(self):
        bm = get_benchmark("eigencontrol-n49")
        p = bm.problem
        ref = bm.reference
        n = p.Y.dim
        h = 1.0 / (n + 1)
        phi = np.sin(np.pi * h * np.arange(1, n + 1))
        for s in (-0.4, 0.0, 0.9):
            lam = p.Y.functional(s * phi)
            dist, _ = multiplier_distance(ref, lam)
            assert dist <= 1e-8 * (1.0 + abs(s))


#: The notes of the registered benchmarks, as the dense builds wrote them.
NOTES = {
    "degenerate-line": "singular values at reference: [1.414e+00, 0.000e+00]; "
                       "constraint qualification satisfied: False",
    "cone-active": "singular values at reference: [1.000e+00, 1.000e+00]; "
                   "constraint qualification satisfied: True",
    "eigencontrol-n49": "singular values at reference: [9.990e-01, 9.990e-01, "
                        "9.990e-01, 9.990e-01, 9.990e-01, 9.990e-01, ...]; "
                        "constraint qualification satisfied: False; "
                        "certified branches: eigen, trivial",
}


class TestBuildCost:
    @pytest.mark.parametrize("name", list_benchmarks())
    def test_notes_pinned(self, name):
        assert get_benchmark(name).notes == NOTES[name]

    def test_notes_computed_on_first_read(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return degeneracy_report(*args, **kwargs)

        monkeypatch.setattr(bench, "degeneracy_report", counted)
        bm = make_eigencontrol(n=49)
        assert calls == []
        assert bm.notes == NOTES["eigencontrol-n49"]
        assert bm.notes is bm.notes
        assert len(calls) == 1

    def test_n2000_build_and_solve_hold_no_dense_matrix(self):
        # one dense 2000 x 2000 array is 32 MB; warm up imports and caches
        # first so that only the work itself is traced
        small = make_eigencontrol(n=20)
        run(small.problem, *small.default_start(), reference=small.reference)
        tracemalloc.start()
        try:
            bm = make_eigencontrol(n=2000)
            build_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            report = run(bm.problem, *bm.default_start(), reference=bm.reference)
            run_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.status is SolveStatus.CONVERGED
        assert build_peak < 8e6
        assert run_peak < 8e6
