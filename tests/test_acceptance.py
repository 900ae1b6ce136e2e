"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (add ``-s`` to see the summary prints).
"""

import numpy as np
import pytest
import scipy.sparse

import ssqp
from ssqp.bench import fd_laplacian, get_benchmark, list_benchmarks
from ssqp.model import to_dense
from ssqp.solver import (
    ErrorProportional,
    Fixed,
    SolverOptions,
    SolveStatus,
    run,
)
from ssqp.spaces import InnerProductSpace, ProductSpace
from ssqp.subproblem import SaddleSystem, assemble_saddle_matrix, solve_cone
from saddle_reference import check_solution_invariants, enumerate_patterns


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def seeded_starts(bm, rng, count, z_radius, lam_radius):
    p = bm.problem
    ref = bm.reference
    starts = []
    while len(starts) < count:
        dz = rng.standard_normal(p.Z.dim)
        dz *= z_radius * rng.uniform(0.3, 1.0) / p.Z.norm_arr(dz)
        dl = rng.standard_normal(p.Y.dim)
        dl *= lam_radius * rng.uniform(0.3, 1.0) / p.Y.dual_norm_arr(dl)
        lam0 = p.Y.functional(ref.lambda_star.coeffs + dl)
        if p.cone.m and (p.cone.pairings(lam0) > 0).any():
            continue  # admissible starts only
        starts.append((p.Z.vector(ref.z_star.coords + dz), lam0))
    return starts


def test_criterion_1_quadratic_local_convergence():
    bm = get_benchmark("degenerate-line")
    rng = np.random.default_rng(1)
    opts = SolverOptions(tol=1e-12, max_iter=10, rho_rule=ErrorProportional(1.0))
    worst_order = np.inf
    for z0, lam0 in seeded_starts(bm, rng, 20, 0.05, 0.1):
        rep = run(bm.problem, z0, lam0, opts, reference=bm.reference)
        assert rep.status is SolveStatus.CONVERGED
        assert len(rep.history) - 1 <= 10
        assert rep.history[-1].kkt.total <= 1e-12
        assert rep.observed_orders, "no resolvable order estimates"
        assert rep.observed_orders[-1] >= 1.7
        worst_order = min(worst_order, rep.observed_orders[-1])
    report("1 quadratic convergence", f"20 starts, worst final order {worst_order:.2f}")


def test_criterion_2_stabilization_necessity():
    bm = get_benchmark("degenerate-line")
    p = bm.problem
    rng = np.random.default_rng(1)
    opts = SolverOptions(tol=1e-12, max_iter=10, rho_rule=Fixed(0.0))
    for z0, lam0 in seeded_starts(bm, rng, 20, 0.05, 0.1):
        rep = run(p, z0, lam0, opts, reference=bm.reference)
        assert rep.status is SolveStatus.SUBPROBLEM_FAILURE
        # independent verification: the assembled unstabilized KKT matrix
        # is rank deficient
        sys = SaddleSystem(
            H=p.hess_L(z0, lam0), J=p.jac_G(z0), g=p.grad_f(z0).coeffs,
            Gval=p.G(z0).coords, rho=0.0, lamk=lam0, zk=z0,
            spaceZ=p.Z, spaceY=p.Y,
        )
        matrix = assemble_saddle_matrix(sys)
        assert matrix.shape == (4, 4)
        assert np.linalg.matrix_rank(matrix) < 4
    report("2 stabilization necessity", "rho = 0 singular on all 20 starts")


def test_criterion_3_fixed_rho_first_order_stagnation():
    # A fixed stabilization weight rho > 0 leaves the quadratic regime but
    # does not stall: the subproblem re-anchors its proximal term at lam_k,
    # so at a fixed point d = 0 and l = lam_k, and the subproblem equations
    # reduce to G(z) = 0 and g + J^T l = 0, an exact KKT point.  The
    # iteration is first order instead, with a contraction factor O(rho).
    # On degenerate-line (identity metrics) the step solves x2 exactly.
    # Linearizing the x1 row and the sum of the two constraint rows about
    # the limit, with u = lam1 + lam2 + 1 (proportional to the distance to
    # the multiplier line), gives
    #     u+ = rho c / (|J_{:,1}|^2 + rho c) u,    x1+ = -u+ / c,
    # where |J_{:,1}|^2 = 2 and c = H_11 = 1 + 2 lam2 at the limit.  c may
    # be negative (the error then alternates in sign), so the tail ratio of
    # total_err must match |rho c| / (2 + rho c), while the proportional
    # rule drives the error to 1e-12.
    bm = get_benchmark("degenerate-line")
    p = bm.problem
    z0, lam0 = bm.default_start()
    rho = 0.05
    prop = run(p, z0, lam0,
               SolverOptions(tol=1e-13, max_iter=50, rho_rule=ErrorProportional(1.0)),
               reference=bm.reference)
    assert prop.history[-1].total_err <= 1e-12
    fixed = run(p, z0, lam0,
                SolverOptions(tol=1e-13, max_iter=50, rho_rule=Fixed(rho)),
                reference=bm.reference)
    errs = [r.total_err for r in fixed.history]
    # last step whose new error is still well above rounding
    k = max(i for i in range(len(errs) - 1) if errs[i + 1] >= 1e-13)
    measured = errs[k + 1] / errs[k]
    last = fixed.history[-1]
    c = p.hess_L(last.z, last.lam)[0, 0]
    j1 = p.jac_G(bm.reference.z_star)[:, 0]
    predicted = abs(rho * c) / (j1 @ j1 + rho * c)
    assert abs(measured - predicted) <= 0.05 * predicted, (
        f"fixed-rho tail factor {measured:.4e} differs from the linearized "
        f"proximal-point factor |rho c| / (|J_:1|^2 + rho c) = {predicted:.4e} "
        f"(rho = {rho}, c = H_11 = {c:.4e}, |J_:1|^2 = {j1 @ j1:.1f}) by more "
        f"than 5%"
    )
    report("3 rho-bound behavior",
           f"fixed-rho tail factor {measured:.3e} vs predicted {predicted:.3e}")


def test_criterion_4_error_estimate_validity():
    bm = get_benchmark("degenerate-line")
    p = bm.problem
    ref = bm.reference

    def ratio(radius, seed):
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(100):
            dz = rng.standard_normal(2)
            dz *= radius * rng.uniform(0.1, 1.0) / np.linalg.norm(dz)
            dl = rng.standard_normal(2)
            dl *= radius * rng.uniform(0.1, 1.0) / np.linalg.norm(dl)
            samples.append((
                p.Z.vector(ref.z_star.coords + dz),
                p.Y.functional(ref.lambda_star.coeffs + dl),
            ))
        return ssqp.error_estimate_ratio(ref, p, samples)

    r_full = ratio(0.05, seed=4)
    r_half = ratio(0.025, seed=5)
    assert np.isfinite(r_full) and r_full > 0
    assert abs(r_half - r_full) / r_full < 0.5
    report("4 error estimate", f"ratio {r_full:.3f} vs {r_half:.3f} at half radius")


def test_criterion_5_coercivity():
    bm = get_benchmark("degenerate-line")
    p = bm.problem
    z = bm.reference.z_star
    H = p.hess_L(z, p.Y.zero_functional())
    J = p.jac_G(z)
    for rho in [10.0**-k for k in range(1, 7)]:
        margin = ssqp.coercivity_margin(H, J, p.Z, p.Y, rho)
        assert margin == pytest.approx(1.0, abs=1e-9)
    # indefinite Hessian: the margin crosses the level only once rho is
    # small enough; the bisected threshold matches a dense eigensolve sweep
    Hind = np.diag([-1.0, 1.0])
    Jind = np.array([[1.0, 0.0]])
    level = 0.5
    Zind, Yind = InnerProductSpace(np.eye(2)), InnerProductSpace(np.eye(1))
    lo, hi = 1e-3, 10.0
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        if ssqp.coercivity_margin(Hind, Jind, Zind, Yind, mid) >= level:
            lo = mid
        else:
            hi = mid
    threshold = np.sqrt(lo * hi)
    grid = np.logspace(-3, 1, 500)
    sweep = np.array([
        np.linalg.eigvalsh(Hind + np.outer(Jind[0], Jind[0]) / r).min()
        for r in grid
    ])
    sweep_threshold = grid[sweep >= level].max()
    assert abs(threshold - sweep_threshold) / sweep_threshold <= 0.05
    report("5 coercivity", f"margin 1 on the rho grid; threshold {threshold:.3f}")


def test_criterion_6_cone_machinery():
    # shipped cone instance
    bm = get_benchmark("cone-active")
    p = bm.problem
    z0 = p.Z.vector([0.05, -0.85])
    lam0 = p.Y.zero_functional()
    sys = SaddleSystem(
        H=p.hess_L(z0, lam0), J=p.jac_G(z0), g=p.grad_f(z0).coeffs,
        Gval=p.G(z0).coords, rho=0.1, lamk=lam0, zk=z0,
        spaceZ=p.Z, spaceY=p.Y,
    )
    sol = solve_cone(sys, p.cone)
    d, l, _ = enumerate_patterns(sys, p.cone.generator_matrix)
    assert np.abs(sol.z_next.coords - (z0.coords + d)).max() <= 1e-9
    assert np.abs(sol.lam_next.coeffs - l).max() <= 1e-9
    check_solution_invariants(sys, p.cone, sol)
    # seeded random systems with one or two generators
    rng = np.random.default_rng(6)
    done = 0
    while done < 20:
        m = int(rng.integers(1, 3))
        nz, ny = 3, 3
        B = rng.standard_normal((nz, nz))
        H = B @ B.T + nz * np.eye(nz)
        My = rng.standard_normal((ny, ny))
        My = My @ My.T + ny * np.eye(ny)
        spaceZ = InnerProductSpace.identity(nz)
        spaceY = InnerProductSpace(My)
        gens = tuple(spaceY.vector(rng.standard_normal(ny)) for _ in range(m))
        cone = ssqp.ConeSpec(spaceY, gens)
        lamk = spaceY.functional(rng.standard_normal(ny))
        if (cone.pairings(lamk) > 0).any():
            continue
        sys = SaddleSystem(
            H=H, J=rng.standard_normal((ny, nz)), g=rng.standard_normal(nz),
            Gval=rng.standard_normal(ny), rho=float(rng.uniform(0.01, 1.0)),
            lamk=lamk, zk=spaceZ.vector(rng.standard_normal(nz)),
            spaceZ=spaceZ, spaceY=spaceY,
        )
        sol = solve_cone(sys, cone)
        d, l, _ = enumerate_patterns(sys, cone.generator_matrix)
        scale = 1.0 + np.abs(d).max() + np.abs(l).max()
        assert np.abs(sol.z_next.coords - sys.zk.coords - d).max() <= 1e-9 * scale
        assert np.abs(sol.lam_next.coeffs - l).max() <= 1e-9 * scale
        check_solution_invariants(sys, cone, sol)
        done += 1
    report("6 cone machinery", "20 seeded systems match enumeration")


def test_criterion_7a_eigencontrol_degeneracy():
    bm = get_benchmark("eigencontrol-n49")
    rep = ssqp.degeneracy_report(bm.problem, bm.reference.z_star)
    assert rep.singular_values.min() <= 1e-8
    assert not rep.rcq_satisfied
    report("7a eigencontrol degeneracy",
           f"smallest singular value {rep.singular_values.min():.2e}")


def test_criterion_7b_eigencontrol_convergence():
    bm = get_benchmark("eigencontrol-n49")
    rng = np.random.default_rng(7)
    opts = SolverOptions(tol=1e-10, max_iter=30)
    worst = np.inf
    for z0, lam0 in seeded_starts(bm, rng, 5, bm.certified_radius,
                                  bm.certified_radius):
        rep = run(bm.problem, z0, lam0, opts, reference=bm.reference)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.history[-1].kkt.total <= 1e-10
        assert rep.observed_orders, "no resolvable order estimates"
        assert rep.observed_orders[-1] >= 1.5
        worst = min(worst, rep.observed_orders[-1])
    report("7b eigencontrol convergence", f"worst final order {worst:.2f}")


def test_criterion_7c_trivial_branch_is_kkt():
    bm = get_benchmark("eigencontrol-n49")
    p = bm.problem
    n = p.Y.dim
    q_d = bm.reference.z_star.coords[-1]
    z_trivial = p.Z.vector(np.concatenate([np.zeros(n), [q_d]]))
    kkt = p.kkt_residual(z_trivial, p.Y.zero_functional())
    assert kkt.total <= 1e-12
    report("7c trivial branch", f"kkt residual {kkt.total:.2e}")


def test_criterion_8_metric_correctness():
    rng = np.random.default_rng(8)
    n_fd = 19
    h = 1.0 / (n_fd + 1)
    A_sparse = fd_laplacian(n_fd).to_scipy()
    A = A_sparse.toarray()
    space_types = {
        "identity": lambda: InnerProductSpace.identity(int(rng.integers(2, 8))),
        "diagonal": lambda: InnerProductSpace.diagonal(rng.uniform(0.1, 10, 5)),
        "dense": lambda: InnerProductSpace(
            (lambda B: B @ B.T + 4 * np.eye(4))(rng.standard_normal((4, 4)))
        ),
        "lumped-fd": lambda: InnerProductSpace(h * np.eye(n_fd)),
        "discrete-h2": lambda: InnerProductSpace(h * (np.eye(n_fd) + A.T @ A)),
        "product": lambda: ProductSpace([
            InnerProductSpace.diagonal(rng.uniform(0.5, 2.0, 3)),
            InnerProductSpace.identity(2),
        ]),
        # a sparse mass gets banded storage
        "discrete-h2-banded": lambda: InnerProductSpace(
            h * (scipy.sparse.identity(n_fd) + A_sparse.T @ A_sparse)
        ),
    }
    for name, factory in space_types.items():
        for _ in range(100):
            space = factory()
            l = space.functional(rng.standard_normal(space.dim))
            lhs = space.dual_norm(l) ** 2
            rhs = l(space.riesz(l))
            assert lhs == pytest.approx(rhs, rel=1e-12), name
    # projection dominance over seeded feasible multipliers
    for name in list_benchmarks():
        bm = get_benchmark(name)
        ref = bm.reference
        p = bm.problem
        lam_query = p.Y.functional(
            ref.lambda_star.coeffs + 0.3 * rng.standard_normal(p.Y.dim)
        )
        dist, _ = ssqp.multiplier_distance(ref, lam_query)
        null = _stationarity_null_basis(ref)
        for _ in range(1000):
            candidate = ref.lambda_star.coeffs.copy()
            if null.shape[1]:
                candidate = candidate + null @ rng.uniform(-2, 2, null.shape[1])
            if ref.cone.m and (ref.cone.generator_matrix.T @ candidate > 0).any():
                continue
            assert dist <= p.Y.dual_norm_arr(lam_query.coeffs - candidate) + 1e-12
    report("8 metric correctness", "identity and dominance checks hold")


def _stationarity_null_basis(ref):
    import scipy.linalg

    return scipy.linalg.null_space(to_dense(ref.j_star).T, rcond=1e-10)


def test_criterion_9_containment():
    rng = np.random.default_rng(9)
    for name in list_benchmarks():
        bm = get_benchmark(name)
        tol = 1e-10 if name.startswith("eigencontrol") else 1e-12
        opts = SolverOptions(tol=tol, max_iter=30)
        for z0, lam0 in seeded_starts(bm, rng, 5, bm.certified_radius,
                                      bm.certified_radius):
            rep = run(bm.problem, z0, lam0, opts, reference=bm.reference)
            assert rep.status is SolveStatus.CONVERGED, name
            errs = [r.total_err for r in rep.history]
            for e0, e1 in zip(errs, errs[1:]):
                if e0 <= 1e-15:
                    break
                assert e1 < e0, name
                assert e1 / e0 <= 0.9, name
    report("9 containment", "contraction ratio <= 0.9 on all certified runs")
