import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from numpy.testing import assert_allclose

from ssqp.bench import get_benchmark
from ssqp.model import ConeSpec
from ssqp.solver import SolverOptions, run
from ssqp.spaces import InnerProductSpace
from ssqp.subproblem import (
    SaddleSystem,
    SingularSubproblem,
    _solve_pattern,
    assemble_saddle_matrix,
    saddle_condition_estimate,
    solve_cone,
    solve_equality,
)
from saddle_reference import (
    check_solution_invariants,
    enumerate_patterns,
    pattern_solve,
    spd,
)


def make_system(H, J, g, Gval, rho, lamk, zk=None, massZ=None, massY=None):
    H = np.asarray(H, dtype=float)
    J = np.asarray(J, dtype=float)
    nz, ny = H.shape[0], J.shape[0]
    spaceZ = InnerProductSpace(massZ) if massZ is not None else InnerProductSpace.identity(nz)
    spaceY = InnerProductSpace(massY) if massY is not None else InnerProductSpace.identity(ny)
    return SaddleSystem(
        H=H, J=J, g=np.asarray(g, dtype=float), Gval=np.asarray(Gval, dtype=float),
        rho=rho,
        lamk=spaceY.functional(lamk),
        zk=spaceZ.vector(zk if zk is not None else np.zeros(nz)),
        spaceZ=spaceZ, spaceY=spaceY,
    )


class TestSolveEquality:
    def test_already_stationary_with_zero_jacobian_row(self):
        sys = make_system(
            H=np.eye(2), J=np.zeros((1, 2)), g=np.zeros(2), Gval=np.zeros(1),
            rho=1.0, lamk=np.zeros(1),
        )
        sol = solve_equality(sys)
        assert_allclose(sol.z_next.coords, [0.0, 0.0], atol=1e-14)
        assert_allclose(sol.lam_next.coeffs, [0.0], atol=1e-14)

    def test_degenerate_blocks_match_dense_oracle(self):
        bm = get_benchmark("degenerate-line")
        zk = np.array([0.1, 0.1])
        gval = bm.problem.G(bm.problem.Z.vector(zk)).coords
        sys = make_system(
            H=np.eye(2), J=np.array([[1.0, 0.0], [1.0, 0.0]]),
            g=np.array([1.0, 0.0]), Gval=gval,
            rho=0.05, lamk=np.array([-0.5, -0.5]), zk=zk,
        )
        sol = solve_equality(sys)
        d, l, _ = pattern_solve(sys)
        assert_allclose(sol.z_next.coords, zk + d, atol=1e-12)
        assert_allclose(sol.lam_next.coeffs, l, atol=1e-12)

    def test_riesz_rescaling_reproduces_solution(self):
        # scaling the Y mass by s together with rho keeps the same problem
        rng = np.random.default_rng(9)
        H = np.eye(3) + 0.1 * np.diag([1.0, 2.0, 3.0])
        J = rng.standard_normal((2, 3))
        g = rng.standard_normal(3)
        Gval = rng.standard_normal(2)
        lamk = rng.standard_normal(2)
        base = make_system(H, J, g, Gval, 0.07, lamk)
        s = 4.0
        scaled = make_system(H, J, g, Gval, 0.07 * s, lamk,
                             massY=s * np.eye(2))
        a, b = solve_equality(base), solve_equality(scaled)
        assert_allclose(b.z_next.coords, a.z_next.coords, atol=1e-11)
        assert_allclose(b.lam_next.coeffs, a.lam_next.coeffs, atol=1e-11)

    def test_matches_lu_oracle_on_seeded_systems(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            nz, ny = rng.integers(2, 6), rng.integers(1, 5)
            B = rng.standard_normal((nz, nz))
            H = B @ B.T + 0.5 * np.eye(nz)
            J = rng.standard_normal((ny, nz))
            My = rng.standard_normal((ny, ny))
            My = My @ My.T + ny * np.eye(ny)
            sys = make_system(
                H, J, rng.standard_normal(nz), rng.standard_normal(ny),
                float(rng.uniform(1e-3, 1.0)), rng.standard_normal(ny),
                zk=rng.standard_normal(nz), massY=My,
            )
            sol = solve_equality(sys)
            d, l, _ = pattern_solve(sys)
            scale = 1.0 + np.abs(d).max() + np.abs(l).max()
            assert np.abs(sol.z_next.coords - sys.zk.coords - d).max() <= 1e-11 * scale
            assert np.abs(sol.lam_next.coeffs - l).max() <= 1e-11 * scale
            check_solution_invariants(sys, None, sol)

    def test_rank_deficient_unstabilized_system_fails(self):
        sys = make_system(
            H=np.eye(2), J=np.array([[1.0, 0.0], [1.2, 0.0]]),
            g=np.array([1.1, 0.1]), Gval=np.array([0.1, 0.11]),
            rho=0.0, lamk=np.array([-0.5, -0.5]),
        )
        with pytest.raises(SingularSubproblem):
            solve_equality(sys)
        assert np.linalg.matrix_rank(assemble_saddle_matrix(sys)) == 3


class TestSaddleSystem:
    def test_asymmetric_hessian_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_system(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((1, 2)),
                        np.zeros(2), np.zeros(1), 1.0, np.zeros(1))

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            make_system(np.eye(2), np.zeros((1, 2)), np.zeros(2), np.zeros(1),
                        -0.1, np.zeros(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            make_system(np.eye(3), np.zeros((1, 2)), np.zeros(2), np.zeros(1),
                        1.0, np.zeros(1), zk=np.zeros(2), massZ=np.eye(2))


def test_dense_norms_are_numpy_norms():
    # _factor's |A|_1, of dense and of CSC storage, and euclidean_norm are
    # np.linalg.norm's own arithmetic, bit for bit
    from ssqp.spaces import euclidean_norm
    from ssqp.csr import as_csr
    from ssqp.subproblem import _factor, sparse_matrix

    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7, 12, 33, 100):
        A = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3, (n, n))
        A = A + A.T + 2 * n * np.eye(n)
        assert _factor(A)[1] == np.linalg.norm(A, 1)
        S = scipy.sparse.csr_matrix(A)
        assert _factor(sparse_matrix(n, [(0, 0, False, as_csr(S).pattern)], [S.data]))[1] == np.linalg.norm(A, 1)
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-100, 100, n)
        assert euclidean_norm(v) == np.linalg.norm(v)


def arrow_system(n: int, rho: float, zero_row: int | None = None,
                 sparse: bool = True, row_scale: float = 0.0):
    """An eigencontrol-shaped subproblem: n states and one control q, an
    arrow Hessian [[h I, lam], [lam^T, alpha]], a Jacobian [K | u] with K
    tridiagonal (row `zero_row` of K scaled by `row_scale`, zero by
    default) and u full, lumped M_Y = h I.  Its sparse saddle matrix is a
    band plus the dense row and column of q."""
    rng = np.random.default_rng(n)
    h = 1.0 / (n + 1)
    H = np.diag(np.append(np.full(n, h), 4.0))
    H[:n, n] = H[n, :n] = 0.1 * h * rng.standard_normal(n)
    K = (np.diag(rng.uniform(1.0, 2.0, n)) + np.diag(rng.uniform(-0.5, 0.5, n - 1), 1)
         + np.diag(rng.uniform(-0.5, 0.5, n - 1), -1))
    if zero_row is not None:
        K[zero_row] *= row_scale
    J = np.column_stack([K, rng.uniform(0.5, 1.0, n)])
    store = scipy.sparse.csr_matrix if sparse else np.asarray
    spaceZ = InnerProductSpace.identity(n + 1)
    spaceY = InnerProductSpace(h * scipy.sparse.identity(n, format="csr"))
    return SaddleSystem(
        H=store(H), J=store(J), g=rng.standard_normal(n + 1),
        Gval=rng.standard_normal(n), rho=rho,
        lamk=spaceY.functional(rng.standard_normal(n)),
        zk=spaceZ.vector(rng.standard_normal(n + 1)), spaceZ=spaceZ, spaceY=spaceY,
    )


def assert_matches_reference(sys, dense_twin):
    d_ref, l_ref, _ = pattern_solve(dense_twin)
    sol = solve_equality(sys)
    scale = 1.0 + np.abs(d_ref).max() + np.abs(l_ref).max()
    assert np.abs(sol.z_next.coords - sys.zk.coords - d_ref).max() <= 1e-9 * scale
    assert np.abs(sol.lam_next.coeffs - l_ref).max() <= 1e-9 * scale
    check_solution_invariants(sys, None, sol)


@pytest.fixture
def splu_calls(monkeypatch):
    """The matrices scipy.sparse.linalg.splu factors, in order."""
    import scipy.sparse.linalg

    calls, splu = [], scipy.sparse.linalg.splu

    def counted(A, *args, **kwargs):
        calls.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    return calls


class TestBandPlan:
    def test_eigencontrol_is_a_narrow_band_bordered_by_q(self, splu_calls):
        bm = get_benchmark("eigencontrol-n49", n=200)
        p = bm.problem
        z, lam = bm.default_start()
        sys = SaddleSystem(
            H=p.hess_L(z, lam), J=p.jac_G(z), g=p.grad_f(z).coeffs,
            Gval=p.G(z).coords, rho=1e-3, lamk=lam, zk=z, spaceZ=p.Z, spaceY=p.Y,
        )
        plan = assemble_saddle_matrix(sys).plan
        assert plan.order[-1] == 200 and plan.k == 1  # q, the last of z
        assert max(plan.kl, plan.ku) <= 3
        solve_equality(sys)
        assert splu_calls == []

    @staticmethod
    def planned_solve(monkeypatch, declared: bool):
        """One eigencontrol n=200 solve with its reference, declared or its
        undeclared twin: the report and each plan passed to sparse_solver."""
        from ssqp import diagnostics, subproblem

        plans, solver = [], subproblem.sparse_solver

        def recorded(A, *rhs):
            plans.append(A.plan)
            return solver(A, *rhs)

        for owner in (subproblem, diagnostics):
            monkeypatch.setattr(owner, "sparse_solver", recorded)
        subproblem._sparse_plan.cache_clear()
        bm = get_benchmark("eigencontrol-n49", n=200)
        ref = bm.reference
        if not declared:
            ref = dataclasses.replace(ref, multiplier_directions=None)
        z, lam = bm.default_start()
        report = run(bm.problem, z, lam, SolverOptions(), reference=ref)
        assert report.status.value == "Converged"
        assert all(plan.order is not None for plan in plans)
        return report, plans, subproblem._sparse_plan.cache_info().currsize

    def test_solve_with_reference_makes_one_plan_each_for_saddle_and_projector(
            self, splu_calls, monkeypatch):
        # undeclared, every iterate's saddle matrix shares one pattern; the
        # projector's Jordan-Wielandt matrix K is the second; both take the
        # band path
        report, plans, planned = self.planned_solve(monkeypatch, declared=False)
        assert splu_calls == []
        assert planned == 2
        assert len(plans) == len(report.history)  # a subproblem per record but one, and K
        assert len({id(plan) for plan in plans}) == 2

    def test_declared_reference_plans_the_saddle_matrix_only(self, splu_calls, monkeypatch):
        report, plans, planned = self.planned_solve(monkeypatch, declared=True)
        assert splu_calls == []
        assert planned == 1
        assert len(plans) == len(report.history) - 1
        assert len({id(plan) for plan in plans}) == 1

    def test_singular_band_block_falls_back_to_splu(self, splu_calls):
        # unstabilized, with row 7 of K zero: the band block has a zero
        # row, and only u, in the border column of q, makes A nonsingular
        sys = arrow_system(30, 0.0, zero_row=7)
        A = assemble_saddle_matrix(sys)
        assert A.plan.order is not None and A.plan.k == 1  # planned as a band
        assert np.linalg.matrix_rank(A.toarray()) == A.shape[0]
        assert_matches_reference(sys, arrow_system(30, 0.0, zero_row=7, sparse=False))
        assert len(splu_calls) == 1

    @pytest.mark.parametrize("rho", [0.0, 1e-14])
    def test_refinement_repairs_a_tiny_band_pivot(self, splu_calls, rho):
        # row 7 of K scaled by 1e-9: at small rho the band LU pivots on it,
        # and only u, in the border column of q, keeps A at condition 1e3.
        # The first solve misses A x = b by more than the guard allows, and
        # refinement brings the residual down to rounding
        from ssqp.subproblem import _factor, _factor_solve, _saddle_rhs

        sys = arrow_system(30, rho, zero_row=7, row_scale=1e-9)
        A = assemble_saddle_matrix(sys)
        assert A.plan.order is not None and A.plan.k == 1
        rhs = _saddle_rhs(sys)
        _, anorm, _, first = _factor(A, rhs)
        before = np.linalg.norm(rhs - A.dot(first))
        assert before > 1e-15 * anorm * np.linalg.norm(first)  # a step is taken
        after = np.linalg.norm(rhs - A.dot(_factor_solve(A, rhs)))
        assert after <= 1e-8 * before
        assert_matches_reference(
            sys, arrow_system(30, rho, zero_row=7, sparse=False, row_scale=1e-9))
        assert splu_calls == []

    @pytest.mark.parametrize("rho", [0.0, 1e-8, 1.0])
    def test_bordered_solve_matches_reference(self, splu_calls, rho):
        assert_matches_reference(arrow_system(30, rho), arrow_system(30, rho, sparse=False))
        assert splu_calls == []

    def test_each_pattern_gets_its_own_plan(self):
        from ssqp.subproblem import PLAN_CACHE_SIZE, _sparse_plan

        systems = {row: arrow_system(30, 1e-3, zero_row=row) for row in (None, 7, 8)}
        matrices = {row: assemble_saddle_matrix(sys) for row, sys in systems.items()}
        plans = {row: A.plan for row, A in matrices.items()}
        # rows 7 and 8 of K zero: the same shape and entry count
        assert matrices[7].shape == matrices[8].shape == matrices[None].shape
        assert matrices[7].nnz == matrices[8].nnz
        assert len({id(plan) for plan in plans.values()}) == 3
        assert not np.array_equal(plans[7].slots, plans[8].slots)
        # the same pattern with other values reuses its plan
        same = assemble_saddle_matrix(arrow_system(30, 0.5))
        assert same.plan is plans[None]
        for row, sys in systems.items():
            assert_matches_reference(sys, arrow_system(30, 1e-3, zero_row=row, sparse=False))
        for n in range(3, 3 + 2 * PLAN_CACHE_SIZE):
            assemble_saddle_matrix(arrow_system(n, 1e-3))
        assert _sparse_plan.cache_info().currsize == PLAN_CACHE_SIZE


class TestConditionEstimate:
    def test_identity_blocks_are_well_conditioned(self):
        sys = make_system(np.eye(2), np.zeros((1, 2)), np.zeros(2), np.zeros(1),
                          1.0, np.zeros(1))
        assert saddle_condition_estimate(sys) <= 10.0

    def test_grows_like_inverse_rho_when_rank_deficient(self):
        bm = get_benchmark("degenerate-line")
        zk = np.array([0.05, 0.05])
        J = bm.problem.jac_G(bm.problem.Z.vector(zk))
        rhos = [10.0**-k for k in range(2, 9)]
        estimates = []
        for rho in rhos:
            sys = make_system(np.eye(2), J, np.array([1.0, 0.0]),
                              np.array([0.05, 0.0525]), rho, np.array([-0.5, -0.5]))
            estimates.append(saddle_condition_estimate(sys))
        slope = np.polyfit(np.log(rhos), np.log(estimates), 1)[0]
        assert slope <= -0.9

    def test_inverse_free_estimate_keeps_the_classical_scale(self):
        # eigencontrol's lumped mass M_Y = h I makes the inverse-free matrix
        # the classical [[H, J^T], [J, -rho M_Y^{-1}]] up to rounding, so the
        # sparse estimate must match LAPACK's estimate for the classical
        # matrix; writing l = M_Y s without the trace scaling would shrink
        # the lower blocks by h and inflate the estimate about 1/h = 201x
        bm = get_benchmark("eigencontrol-n49", n=200)
        p, ref = bm.problem, bm.reference
        z, lam, rho = ref.z_star, ref.lambda_star, 1e-8
        sys = SaddleSystem(
            H=p.hess_L(z, lam), J=p.jac_G(z), g=p.grad_f(z).coeffs,
            Gval=p.G(z).coords, rho=rho, lamk=lam, zk=z,
            spaceZ=p.Z, spaceY=p.Y,
        )
        assert sys.sparse
        H, J = sys.H.toarray(), sys.J.toarray()
        classical = np.block([[H, J.T], [J, -rho * np.linalg.inv(p.Y.mass)]])
        udut, ipiv, info = scipy.linalg.lapack.dsytrf(classical, lower=1)
        assert info == 0
        rcond, _ = scipy.linalg.lapack.dsycon(
            udut, ipiv, np.linalg.norm(classical, 1), lower=1)
        ratio = saddle_condition_estimate(sys) * rcond
        assert 0.5 <= ratio <= 2.0

    def test_square_nonsingular_jacobian_finite_at_rho_zero(self):
        sys = make_system(np.eye(2), np.eye(2), np.ones(2), np.ones(2),
                          0.0, np.zeros(2))
        assert np.isfinite(saddle_condition_estimate(sys))


def cone_of(sys, gens):
    return ConeSpec(sys.spaceY, tuple(sys.spaceY.vector(g) for g in gens))


@pytest.fixture
def solved_patterns(monkeypatch):
    """The activity patterns solve_cone solves, in order."""
    patterns = []

    def counted(sys, cone, active):
        patterns.append(active)
        return _solve_pattern(sys, cone, active)

    monkeypatch.setattr("ssqp.subproblem._solve_pattern", counted)
    return patterns


class TestSolveCone:
    def test_inactive_cone_matches_empty_pattern(self):
        # unconstrained multiplier already pairs negatively against y1
        sys = make_system(np.eye(2), np.eye(2), np.array([0.5, 1.0]),
                          np.array([0.0, -0.2]), 0.5, np.zeros(2))
        cone = cone_of(sys, [[1.0, 0.0]])
        sol = solve_cone(sys, cone)
        assert sol.active_set == ()
        d, l, _ = pattern_solve(sys, cone.generator_matrix)
        assert_allclose(sol.z_next.coords, d, atol=1e-11)
        assert_allclose(sol.lam_next.coeffs, l, atol=1e-11)
        check_solution_invariants(sys, cone, sol)

    def test_forced_activation_matches_enumeration(self):
        # unconstrained solve pairs positively against y1, so the
        # constraint must activate
        sys = make_system(np.eye(2), np.eye(2), np.array([-1.0, 0.0]),
                          np.array([0.3, 0.0]), 0.2, np.zeros(2))
        cone = cone_of(sys, [[1.0, 0.0]])
        d0, l0, _ = pattern_solve(sys, cone.generator_matrix)
        assert (cone.generator_matrix.T @ l0 > 1e-10).any()
        sol = solve_cone(sys, cone)
        assert sol.active_set == (0,)
        d, l, _ = enumerate_patterns(sys, cone.generator_matrix)
        assert_allclose(sol.z_next.coords, d, atol=1e-10)
        assert_allclose(sol.lam_next.coeffs, l, atol=1e-10)
        check_solution_invariants(sys, cone, sol)

    def test_seeded_m2_instances_match_enumeration(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 20:
            nz, ny = 3, 3
            B = rng.standard_normal((nz, nz))
            H = B @ B.T + nz * np.eye(nz)
            J = rng.standard_normal((ny, nz))
            My = rng.standard_normal((ny, ny))
            My = My @ My.T + ny * np.eye(ny)
            lamk = rng.standard_normal(ny)
            gens = rng.standard_normal((ny, 2))
            sys = make_system(H, J, rng.standard_normal(nz),
                              rng.standard_normal(ny),
                              float(rng.uniform(0.01, 1.0)), lamk, massY=My)
            cone = cone_of(sys, [gens[:, 0], gens[:, 1]])
            if (cone.pairings(sys.lamk) > 0).any():
                continue  # lam_k must start in the polar cone
            done += 1
            sol = solve_cone(sys, cone)
            d, l, _ = enumerate_patterns(sys, cone.generator_matrix)
            scale = 1.0 + np.abs(d).max() + np.abs(l).max()
            assert np.abs(sol.z_next.coords - d).max() <= 1e-9 * scale
            assert np.abs(sol.lam_next.coeffs - l).max() <= 1e-9 * scale
            check_solution_invariants(sys, cone, sol)

    def test_maximizer_unique_from_any_start_pattern(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((3, 3))
        H = B @ B.T + 3 * np.eye(3)
        sys = make_system(H, rng.standard_normal((3, 3)),
                          rng.standard_normal(3), rng.standard_normal(3),
                          0.3, np.array([-0.2, -0.4, 0.0]))
        cone = cone_of(sys, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        sols = [
            solve_cone(sys, cone, initial_active=pattern)
            for pattern in [(), (0,), (1,), (0, 1)]
        ]
        for sol in sols[1:]:
            assert_allclose(sol.z_next.coords, sols[0].z_next.coords, atol=1e-9)
            assert_allclose(sol.lam_next.coeffs, sols[0].lam_next.coeffs, atol=1e-9)

    def test_requires_generators(self):
        from ssqp.model import empty_cone

        sys = make_system(np.eye(2), np.eye(2), np.zeros(2), np.zeros(2),
                          0.5, np.zeros(2))
        with pytest.raises(ValueError, match="generator"):
            solve_cone(sys, empty_cone(sys.spaceY))

    def test_no_sign_feasible_pattern_raises(self):
        # concave primal block: every activity pattern violates a sign
        from ssqp.subproblem import NoConvergence

        sys = make_system(
            H=[[-1.28712866]], J=[[2.00239258]], g=[0.18851919],
            Gval=[-0.63319409], rho=0.8351651402177849, lamk=[-1.09114612],
        )
        cone = cone_of(sys, [[1.0]])
        with pytest.raises(NoConvergence):
            solve_cone(sys, cone)

    def test_inner_iterations_count_every_pattern_solve(self, solved_patterns):
        # unstabilized with a rank-deficient J: the active set meets a
        # singular pattern and enumeration finishes the solve
        sys = make_system(np.eye(2), [[1.0, 0.0], [0.0, 0.0]], [0.1, 0.2],
                          [0.05, 0.3], 0.0, [0.0, -1.0])
        cone = cone_of(sys, [[0.0, 1.0]])
        sol = solve_cone(sys, cone)
        assert len(solved_patterns) == 3
        assert sol.inner_iterations == 3
        d, l, _ = enumerate_patterns(sys, cone.generator_matrix)
        assert_allclose(sol.z_next.coords, d, atol=1e-12)
        assert_allclose(sol.lam_next.coeffs, l, atol=1e-12)

    def test_cycling_active_set_falls_back_to_enumeration(self, solved_patterns):
        # a generic draw on which the active set cycles back to (): the
        # fallback then tries every pattern by size up to the solution
        rng = np.random.default_rng(3106)
        H, My = spd(rng, 3), spd(rng, 3)
        J, gens = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        rho, lamk = 10.0 ** rng.uniform(-8, 0), rng.standard_normal(3)
        sys = make_system(H, J, rng.standard_normal(3), rng.standard_normal(3),
                          rho, lamk, zk=rng.standard_normal(3), massY=My)
        cone = cone_of(sys, gens.T)
        sol = solve_cone(sys, cone)
        assert solved_patterns == [(), (0,), (0, 1, 2), (2,),  # active set
                                   (), (0,), (1,), (2,), (0, 1), (0, 2)]
        assert sol.active_set == (0, 2)
        assert sol.inner_iterations == 10
        d, l, _ = enumerate_patterns(sys, gens)
        scale = 1.0 + np.abs(d).max() + np.abs(l).max()
        assert np.abs(sol.z_next.coords - sys.zk.coords - d).max() <= 1e-9 * scale
        assert np.abs(sol.lam_next.coeffs - l).max() <= 1e-9 * scale
        check_solution_invariants(sys, cone, sol)

    def test_closed_form_multiplier_for_fixed_step(self):
        # with z_next frozen, the multiplier maximization has the closed
        # form lam = lam_k + M (Gval + J d) / rho, clipped to the halfspace
        sys = make_system(np.eye(2), np.eye(2), np.array([0.4, 0.7]),
                          np.array([0.1, -0.3]), 0.25, np.array([-0.1, -0.2]))
        cone = cone_of(sys, [[1.0, 0.0]])
        sol = solve_cone(sys, cone)
        d = sol.z_next.coords - sys.zk.coords
        w = sys.Gval + sys.J @ d
        lam_free = sys.lamk.coeffs + sys.spaceY.mass @ w / sys.rho
        y = cone.generator_matrix[:, 0]
        if y @ lam_free > 0:
            My = sys.spaceY.mass @ y
            lam_free = lam_free - My * (y @ lam_free) / (y @ My)
        assert_allclose(sol.lam_next.coeffs, lam_free, atol=1e-10)


class TestNeighborhoodContainment:
    def test_step_lands_in_rho_neighborhood(self):
        # starting near the reference with admissible rho puts the next
        # iterate inside {|z - z*| + rho |lam - lam*| <= rho}
        bm = get_benchmark("degenerate-line")
        p = bm.problem
        ref = bm.reference
        rng = np.random.default_rng(23)
        sigma0 = 1.0
        for _ in range(20):
            dz = rng.standard_normal(2)
            dz *= rng.uniform(0.2, 1.0) * 0.02 / np.linalg.norm(dz)
            dl = rng.standard_normal(2)
            dl *= rng.uniform(0.2, 1.0) * 0.02 / np.linalg.norm(dl)
            zk = p.Z.vector(ref.z_star.coords + dz)
            lamk = p.Y.functional(ref.lambda_star.coeffs + dl)
            rho = float(rng.uniform(sigma0 * np.linalg.norm(dz), 0.3))
            sys = SaddleSystem(
                H=p.hess_L(zk, lamk), J=p.jac_G(zk), g=p.grad_f(zk).coeffs,
                Gval=p.G(zk).coords, rho=rho, lamk=lamk, zk=zk,
                spaceZ=p.Z, spaceY=p.Y,
            )
            sol = solve_equality(sys)
            err_z = p.Z.norm_arr(sol.z_next.coords - ref.z_star.coords)
            err_l = p.Y.dual_norm_arr(
                sol.lam_next.coeffs - ref.lambda_star.coeffs
            )
            assert err_z + rho * err_l <= rho
