import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssqp.bench import get_benchmark, make_degenerate_line, make_eigencontrol
from ssqp.diagnostics import (
    InvalidReference,
    ReferenceSolution,
    coercivity_margin,
    degeneracy_report,
    error_estimate_ratio,
    multiplier_distance,
)
from ssqp.model import ConeSpec, empty_cone
from ssqp.spaces import InnerProductSpace


@pytest.fixture(scope="module")
def degenerate():
    return get_benchmark("degenerate-line")


class TestMultiplierDistance:
    def test_members_are_fixed_points(self, degenerate):
        ref = degenerate.reference
        lam = degenerate.problem.Y.functional([-0.2, -0.8])
        dist, proj = multiplier_distance(ref, lam)
        assert dist <= 1e-12
        assert_allclose(proj.coeffs, lam.coeffs, atol=1e-12)

    def test_point_to_line_euclidean(self, degenerate):
        ref = degenerate.reference
        dist, proj = multiplier_distance(
            ref, degenerate.problem.Y.zero_functional()
        )
        assert dist == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)
        assert_allclose(proj.coeffs, [-0.5, -0.5], atol=1e-12)

    def test_scaled_metric_matches_grid_oracle(self):
        bm = make_degenerate_line(mass_y=np.diag([4.0, 1.0]))
        ref = bm.reference
        Y = bm.problem.Y
        dist, proj = multiplier_distance(ref, Y.zero_functional())
        # brute force over the multiplier line lam = (t, -1 - t)
        ts = np.arange(-2.0, 1.0, 1e-5)
        vals = np.sqrt(ts**2 / 4.0 + (1.0 + ts) ** 2)
        assert dist == pytest.approx(vals.min(), abs=1e-6)
        assert dist == pytest.approx(np.sqrt(0.2), rel=1e-9)
        assert_allclose(proj.coeffs, [-0.8, -0.2], atol=1e-9)

    def test_dominates_seeded_feasible_candidates(self, degenerate):
        ref = degenerate.reference
        Y = degenerate.problem.Y
        rng = np.random.default_rng(41)
        lam = Y.functional(rng.standard_normal(2))
        dist, _ = multiplier_distance(ref, lam)
        for _ in range(1000):
            t = rng.uniform(-3.0, 3.0)
            candidate = np.array([t, -1.0 - t])
            assert dist <= Y.dual_norm_arr(lam.coeffs - candidate) + 1e-12

    def test_cone_constraint_respected(self):
        bm = get_benchmark("cone-active")
        ref = bm.reference
        Y = bm.problem.Y
        # the multiplier set is the single point (0, -1)
        dist, proj = multiplier_distance(ref, Y.functional([0.7, -1.0]))
        assert_allclose(proj.coeffs, [0.0, -1.0], atol=1e-10)
        assert dist == pytest.approx(0.7, rel=1e-10)

    def test_empty_multiplier_set_rejected(self):
        Y = InnerProductSpace.identity(2)
        Z = InnerProductSpace.identity(2)
        with pytest.raises(InvalidReference):
            ReferenceSolution(
                z_star=Z.vector([0, 0]),
                j_star=np.zeros((2, 2)),
                g_star=np.array([1.0, 0.0]),
                cone=empty_cone(Y),
                lambda_star=Y.zero_functional(),
            )


class TestMultiplierDistanceFarFromSet:
    """The set is span{sin(pi x)} on eigencontrol.  Far from it, a
    projection through the normal equations, which square the condition
    number of the stationarity system, fails its own residual check and
    reports an empty set."""

    @pytest.mark.parametrize("n, amp", [(49, 1.0), (49, 1e-6), (200, 1e-2),
                                        (200, 3.0)])
    def test_eigencontrol_closed_form(self, n, amp):
        bm = make_eigencontrol(n=n)
        Y = bm.problem.Y
        h = 1.0 / (n + 1)
        x = h * np.arange(1, n + 1)
        phi = np.sin(np.pi * x)
        lam = bm.reference.lambda_star.coeffs + amp * np.sin(2 * np.pi * x)
        on_line = (lam @ phi) / (phi @ phi) * phi
        # M_Y = h I, so the Y*-norm is the Euclidean norm over sqrt(h)
        expected = np.linalg.norm(lam - on_line) / np.sqrt(h)
        dist, proj = multiplier_distance(bm.reference, Y.functional(lam))
        assert dist == pytest.approx(expected, rel=1e-12)
        assert_allclose(proj.coeffs, on_line, rtol=0, atol=1e-12 * (1 + amp))


class TestPairingConstantOnTheSet:
    """A generator inside the range of j_star has the same pairing with
    every member, so certification alone decides it; projections must not
    re-reject it for rounding, even when j_star is ill-conditioned."""

    @staticmethod
    def reference(k, cond, pairing, seed):
        rng = np.random.default_rng(seed)
        ny = 4
        q, _ = np.linalg.qr(rng.standard_normal((ny, ny)))
        Y = InnerProductSpace((q * rng.uniform(0.5, 2.0, ny)) @ q.T)
        u, _ = np.linalg.qr(rng.standard_normal((ny, ny)))
        v, _ = np.linalg.qr(rng.standard_normal((ny - k, ny - k)))
        j_star = (u[:, : ny - k] * np.geomspace(1.0, 1.0 / cond, ny - k)) @ v.T
        lam_star = rng.standard_normal(ny)
        g_star = -j_star.T @ lam_star
        # <mu, j_star c> = -g* . c for every member mu
        c = rng.standard_normal(ny - k)
        c -= (g_star @ c + pairing) / (g_star @ g_star) * g_star
        ref = ReferenceSolution(
            z_star=InnerProductSpace.identity(ny - k).zero_vector(),
            j_star=j_star,
            g_star=g_star,
            cone=ConeSpec(Y, (Y.vector(j_star @ c),)),
            lambda_star=Y.functional(lam_star),
        )
        return ref, u[:, ny - k:], rng

    @pytest.mark.parametrize("k, cond, pairing", [
        (0, 1.0, 1e-10), (1, 1.0, 1e-10), (1, 1e6, 0.0), (2, 1e6, 0.0),
    ])
    def test_projects_onto_the_affine_set(self, k, cond, pairing):
        for seed in range(20):
            ref, null, rng = self.reference(k, cond, pairing, seed)
            Y = ref.space_y
            for _ in range(5):
                offset = rng.standard_normal(Y.dim)
                dist, proj = multiplier_distance(
                    ref, Y.functional(ref.lambda_star.coeffs + offset))
                # the set is lambda* + span(null), whitened by L^{-1}
                L = np.linalg.cholesky(Y.mass)
                a = np.linalg.solve(L, offset)
                n = np.linalg.solve(L, null)
                t = np.linalg.lstsq(n, a, rcond=None)[0]
                expected = np.linalg.norm(a - n @ t)
                assert dist == pytest.approx(expected, rel=1e-12 * cond,
                                             abs=1e-14 * cond)
                assert_allclose(proj.coeffs, ref.lambda_star.coeffs + null @ t,
                                rtol=0, atol=1e-12 * cond)


class TestCoercivityMargin:
    def test_zero_jacobian_leaves_hessian_spectrum(self):
        for rho in (1e-1, 1e-3, 1e-6):
            got = coercivity_margin(np.eye(2), np.zeros((1, 2)),
                                    np.eye(2), np.eye(1), rho)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_line_pencil(self, degenerate):
        # hand-derived pencil eigenvalues {1 + 2/rho, 1}
        p = degenerate.problem
        z = p.Z.vector([0, 0])
        H = p.hess_L(z, p.Y.zero_functional())
        J = p.jac_G(z)
        for rho in [10.0**-k for k in range(1, 7)]:
            got = coercivity_margin(H, J, p.Z.mass, p.Y.mass, rho)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_monotone_nonincreasing_in_rho(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((3, 3))
        H = 0.5 * (B + B.T)
        J = rng.standard_normal((2, 3))
        rhos = np.logspace(-6, 0, 13)
        margins = [coercivity_margin(H, J, np.eye(3), np.eye(2), r) for r in rhos]
        assert all(a >= b - 1e-10 for a, b in zip(margins, margins[1:]))

    def test_indefinite_threshold_matches_eigensolve_sweep(self):
        # negative curvature only along the Jacobian range; the margin
        # crosses the target level at rho = 2/3
        H = np.diag([-1.0, 1.0])
        J = np.array([[1.0, 0.0]])
        level = 0.5
        lo, hi = 1e-3, 10.0
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            if coercivity_margin(H, J, np.eye(2), np.eye(1), mid) >= level:
                lo = mid
            else:
                hi = mid
        threshold = np.sqrt(lo * hi)
        # independent dense sweep in whitened (identity-mass) coordinates
        grid = np.logspace(-3, 1, 400)
        margins = np.array([
            np.linalg.eigvalsh(H + np.outer(J[0], J[0]) / r).min() for r in grid
        ])
        sweep_threshold = grid[margins >= level].max()
        assert abs(threshold - 2.0 / 3.0) / (2.0 / 3.0) <= 0.05
        assert abs(threshold - sweep_threshold) / sweep_threshold <= 0.05

    def test_nonpositive_rho_rejected(self):
        with pytest.raises(ValueError):
            coercivity_margin(np.eye(2), np.zeros((1, 2)),
                              np.eye(2), np.eye(1), 0.0)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            coercivity_margin(np.eye(2), np.zeros((1, 2)),
                              np.diag([1.0, -1.0]), np.eye(1), 0.1)


class TestDegeneracyReport:
    def test_rank_deficient_two_by_two(self, degenerate):
        rep = degeneracy_report(degenerate.problem,
                                degenerate.problem.Z.vector([0, 0]))
        assert_allclose(sorted(rep.singular_values), [0.0, np.sqrt(2.0)],
                        atol=1e-12)
        assert not rep.rcq_satisfied

    def test_identity_jacobian_is_regular(self):
        bm = get_benchmark("cone-active")
        rep = degeneracy_report(bm.problem, bm.problem.Z.vector([0.3, -0.2]))
        assert_allclose(rep.singular_values, [1.0, 1.0], atol=1e-12)
        assert rep.rcq_satisfied

    def test_eigencontrol_at_discrete_eigenvalue(self):
        bm = get_benchmark("eigencontrol-n49")
        rep = degeneracy_report(bm.problem, bm.reference.z_star)
        assert rep.singular_values.min() <= 1e-6
        assert not rep.rcq_satisfied

    def test_invariant_under_consistent_y_rescale(self, degenerate):
        import dataclasses

        p = degenerate.problem
        s = 3.7
        scaled_Y = InnerProductSpace(p.Y.mass / s**2)
        scaled = dataclasses.replace(
            p,
            Y=scaled_Y,
            G=lambda z: scaled_Y.vector(s * p.G(z).coords),
            jac_G=lambda z: s * p.jac_G(z),
        )
        z = p.Z.vector([0.2, -0.1])
        base = degeneracy_report(p, z).singular_values
        got = degeneracy_report(scaled, z).singular_values
        assert_allclose(got, base, rtol=1e-9)


class TestErrorEstimateRatio:
    def test_reference_sample_skipped(self, degenerate):
        ref = degenerate.reference
        ratio = error_estimate_ratio(
            ref, degenerate.problem, [(ref.z_star, ref.lambda_star)]
        )
        assert ratio == 0.0

    def test_finite_on_neighborhood_samples(self, degenerate):
        ref = degenerate.reference
        p = degenerate.problem
        rng = np.random.default_rng(10)
        samples = []
        for _ in range(100):
            dz = rng.standard_normal(2)
            dz *= 0.05 * rng.uniform(0.1, 1.0) / np.linalg.norm(dz)
            dl = rng.standard_normal(2)
            dl *= 0.05 * rng.uniform(0.1, 1.0) / np.linalg.norm(dl)
            samples.append((
                p.Z.vector(ref.z_star.coords + dz),
                p.Y.functional(ref.lambda_star.coeffs + dl),
            ))
        ratio = error_estimate_ratio(ref, p, samples)
        assert np.isfinite(ratio) and ratio > 0

    def test_zero_residual_with_error_reports_infinity(self):
        # a flat problem has zero residual everywhere, so any sample away
        # from the reference certifies nothing
        from ssqp.model import ProblemDef, empty_cone
        from ssqp.spaces import PrimalVec

        Z = InnerProductSpace.identity(2)
        Y = InnerProductSpace.identity(1)
        p = ProblemDef(
            Z, Y, empty_cone(Y),
            f=lambda z: 0.0,
            grad_f=lambda z: Z.zero_functional(),
            G=lambda z: PrimalVec(Y, [0.0]),
            jac_G=lambda z: np.zeros((1, 2)),
            hess_L=lambda z, lam: np.zeros((2, 2)),
        )
        ref = ReferenceSolution(
            z_star=Z.vector([0, 0]), j_star=np.zeros((1, 2)),
            g_star=np.zeros(2), cone=p.cone,
            lambda_star=Y.zero_functional(),
        )
        ratio = error_estimate_ratio(
            ref, p, [(Z.vector([0.3, 0.0]), Y.zero_functional())]
        )
        assert ratio == np.inf

    def test_bounded_along_multiplier_null_direction(self, degenerate):
        # perturbing lam inside the multiplier set keeps both sides zero;
        # tilting off the set must keep the ratio bounded as t -> 0
        ref = degenerate.reference
        p = degenerate.problem
        ratios = []
        for t in np.logspace(-8, -2, 13):
            lam = p.Y.functional(np.array([-0.5 + t, -0.5 + t]))
            ratios.append(error_estimate_ratio(ref, p, [(ref.z_star, lam)]))
        assert np.isfinite(ratios).all()
        assert max(ratios) / min(ratios) <= 10.0
