import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ssqp.bench import (
    fd_eigenvalue,
    get_benchmark,
    make_degenerate_line,
    make_eigencontrol,
)
from ssqp.diagnostics import (
    InvalidReference,
    ReferenceSolution,
    coercivity_margin,
    degeneracy_report,
    error_estimate_ratio,
    multiplier_distance,
)
from ssqp.model import ConeSpec, empty_cone, issparse, to_dense
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


def csr_twin(ref: ReferenceSolution) -> ReferenceSolution:
    """The same reference with j_star stored as CSR (the sparse path)."""
    import scipy.sparse as sp

    return dataclasses.replace(ref, j_star=sp.csr_matrix(ref.j_star))


def null_dimension(ref: ReferenceSolution) -> int:
    """k, the dimension of the affine hull the projector factored."""
    return ref._projector.basis.shape[1]


def undeclared(ref: ReferenceSolution) -> ReferenceSolution:
    """The same reference without its declared multiplier directions, so
    the projector works the set out from j_star (the computed path)."""
    return dataclasses.replace(ref, multiplier_directions=None)


@pytest.fixture
def factors_nothing(monkeypatch):
    """Fail any Jordan-Wielandt matrix or solve."""
    from ssqp import diagnostics

    def refuse(*args, **kwargs):
        raise AssertionError("a declared reference must not factor its set")

    for name in ("sparse_matrix", "sparse_solver"):
        monkeypatch.setattr(diagnostics, name, refuse)


def second_mode(n: int) -> np.ndarray:
    return np.sin(2 * np.pi * np.arange(1, n + 1) / (n + 1))


class TestMultiplierDistanceFarFromSet:
    """The set is span{sin(pi x)} on eigencontrol.  Far from it, a
    projection through the normal equations, which square the condition
    number of the stationarity system, fails its own residual check and
    reports an empty set.  eigencontrol declares that span, so each test
    runs on the undeclared twin too, the only path to the computed sparse
    projector at these sizes."""

    CASES = [(49, 1.0), (49, 1e-6), (200, 1e-2), (200, 3.0)]
    AMPS = (1.0, 1e-6, 1e-2, 3.0)

    @pytest.mark.parametrize("n, amp", CASES)
    def test_eigencontrol_closed_form(self, n, amp):
        self.check(undeclared(make_eigencontrol(n=n).reference), amp)

    @pytest.mark.parametrize("n, amp", CASES)
    def test_declared_eigencontrol_closed_form(self, n, amp, factors_nothing):
        self.check(make_eigencontrol(n=n).reference, amp)

    def test_sparse_jacobian_at_n2000_needs_no_dense_qr(self, monkeypatch):
        import scipy.linalg

        def no_qr(*args, **kwargs):
            raise AssertionError("a sparse j_star must not reach the dense QR")

        monkeypatch.setattr(scipy.linalg, "qr", no_qr)
        ref = undeclared(make_eigencontrol(n=2000).reference)
        assert issparse(ref.j_star)
        dists = [self.check(ref, amp) for amp in self.AMPS]
        monkeypatch.undo()
        dense = dataclasses.replace(ref, j_star=to_dense(ref.j_star))
        for amp, dist in zip(self.AMPS, dists):
            lam = ref.lambda_star.coeffs + amp * second_mode(2000)
            assert dist == pytest.approx(
                multiplier_distance(dense, ref.space_y.functional(lam))[0],
                rel=1e-9)
        assert null_dimension(ref) == null_dimension(dense) == 1

    def test_declared_at_n2000_factors_nothing(self, factors_nothing):
        ref = make_eigencontrol(n=2000).reference
        assert issparse(ref.j_star)
        for amp in self.AMPS:
            self.check(ref, amp)
        assert null_dimension(ref) == 1

    @staticmethod
    def check(ref, amp) -> float:
        Y = ref.space_y
        n = Y.dim
        h = 1.0 / (n + 1)
        x = h * np.arange(1, n + 1)
        phi = np.sin(np.pi * x)
        lam = ref.lambda_star.coeffs + amp * second_mode(n)
        on_line = (lam @ phi) / (phi @ phi) * phi
        # M_Y = h I, so the Y*-norm is the Euclidean norm over sqrt(h)
        expected = np.linalg.norm(lam - on_line) / np.sqrt(h)
        dist, proj = multiplier_distance(ref, Y.functional(lam))
        assert dist == pytest.approx(expected, rel=1e-12)
        assert_allclose(proj.coeffs, on_line, rtol=0, atol=1e-12 * (1 + amp))
        return dist


class TestDeclaredMultiplierDirections:
    """A reference may declare N(j_star^T) in closed form; the projector
    then factors nothing, and a declaration that fails its certificate is
    refused at construction."""

    @pytest.mark.parametrize("n", [49, 200, 1000, 2000])
    def test_agrees_with_the_computed_projector(self, n):
        declared = make_eigencontrol(n=n).reference
        computed = undeclared(declared)
        lam = declared.lambda_star.coeffs + second_mode(n)
        for ref in (declared, computed):
            multiplier_distance(ref, declared.space_y.functional(lam))
        a, b = declared._projector.basis, computed._projector.basis
        assert a.shape[1] == b.shape[1] == 1
        # the sine of the angle between the two lines
        assert np.linalg.norm(b - a @ (a.T @ b)) <= 1e-11
        TestMultiplierDistanceFarFromSet.check(declared, 1.0)

    def test_declares_only_at_the_eigenvalue(self):
        assert make_eigencontrol(n=49).reference.multiplier_directions.shape == (49, 1)
        for params in ({"u_d_amp": 0.1}, {"q_d": -2.0}):
            ref = make_eigencontrol(n=49, **params).reference
            assert ref.multiplier_directions is None

    @staticmethod
    def declare(directions, reference=None) -> ReferenceSolution:
        ref = reference or get_benchmark("degenerate-line").reference
        return dataclasses.replace(ref, multiplier_directions=directions)

    def test_direction_outside_the_null_space_rejected(self):
        with pytest.raises(InvalidReference, match="null space"):
            self.declare(np.array([[1.0], [0.0]]))

    def test_dependent_directions_rejected(self):
        with pytest.raises(InvalidReference, match="dependent"):
            self.declare(np.array([[1.0, -3.0], [-1.0, 3.0]]))

    def test_wrong_row_count_rejected(self):
        with pytest.raises(InvalidReference, match="rows"):
            self.declare(np.array([[1.0], [-1.0], [0.0]]))

    def test_non_finite_direction_rejected(self):
        with pytest.raises(InvalidReference, match="finite"):
            self.declare(np.array([[np.inf], [-np.inf]]))

    def test_nontrivial_cone_rejected(self):
        # cone-active's set is a single point, so no direction is declared
        cone = get_benchmark("cone-active").reference
        with pytest.raises(InvalidReference, match="cone"):
            self.declare(np.zeros((2, 0)), cone)


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

    GRID = [(0, 1.0, 1e-10), (1, 1.0, 1e-10), (1, 1e6, 0.0), (2, 1e6, 0.0)]

    @staticmethod
    def check(ref, null, cond, offset) -> float:
        """Project lambda* + offset and compare with the closed form."""
        Y = ref.space_y
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
        return dist

    @pytest.mark.parametrize("k, cond, pairing", GRID)
    def test_projects_onto_the_affine_set(self, k, cond, pairing):
        for seed in range(20):
            ref, null, rng = self.reference(k, cond, pairing, seed)
            for _ in range(5):
                self.check(ref, null, cond, rng.standard_normal(ref.space_y.dim))

    @pytest.mark.parametrize("k, cond, pairing", GRID)
    def test_sparse_storage_matches_dense(self, k, cond, pairing):
        for seed in range(20):
            ref, null, rng = self.reference(k, cond, pairing, seed)
            csr = csr_twin(ref)
            for _ in range(5):
                offset = rng.standard_normal(ref.space_y.dim)
                dist = self.check(csr, null, cond, offset)
                lam = ref.space_y.functional(ref.lambda_star.coeffs + offset)
                # at cond 1e6 the QR itself is 1.4e-9 off the closed form
                assert dist == pytest.approx(multiplier_distance(ref, lam)[0],
                                             rel=max(1e-9, 1e-14 * cond))
            assert null_dimension(csr) == null_dimension(ref) == k


class TestComputedSparseHull:
    """The sparse projector's inverse iteration where it is least
    comfortable: next to its rank cut-off, and with nothing to factor."""

    @staticmethod
    def rotations(n, rng, start) -> np.ndarray:
        """Random plane rotations of the pairs (start, start + 1), ... ."""
        U = np.eye(n)
        for p in range(start, n - 1, 2):
            c, s = np.cos(angle := rng.uniform(0.0, 2 * np.pi)), np.sin(angle)
            U[p:p + 2, p:p + 2] = [[c, -s], [s, c]]
        return U

    @pytest.mark.parametrize("seed", range(12))
    def test_near_the_cut_off_matches_the_dense_qr(self, seed):
        # J = U diag(sigma) V^T, U and V^T rotations of alternate pairs, is
        # banded, with k zero singular values and the smallest nonzero one
        # 10^3.5 times eps n: after whitening it lies 10^3-10^4 times above
        # the projector's rank cut-off
        import scipy.sparse as sp

        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(20, 60)), seed % 4
        low = 10**3.5 * np.finfo(float).eps * n
        sigma = np.concatenate([np.geomspace(1.0, low, n - k), np.zeros(k)])
        J = (self.rotations(n, rng, 0) * sigma[rng.permutation(n)]) @ self.rotations(n, rng, 1)
        Y = InnerProductSpace.diagonal(rng.uniform(1.0, 2.0, n))
        B = Y.whiten(J)
        whitened = np.linalg.svd(B, compute_uv=False)[n - k - 1]
        top = np.linalg.norm(B, axis=0).max()
        assert 1e3 <= whitened / (np.finfo(float).eps * n * top) <= 1e4
        lam_star = rng.standard_normal(n)
        ref = ReferenceSolution(
            z_star=InnerProductSpace.identity(n).zero_vector(),
            j_star=sp.csr_matrix(J), g_star=-J.T @ lam_star,
            cone=empty_cone(Y), lambda_star=Y.functional(lam_star),
        )
        dense = dataclasses.replace(ref, j_star=J)
        # the set itself is only defined to eps cond: g* is rounded
        rel = np.finfo(float).eps * top / whitened
        for _ in range(5):
            lam = Y.functional(lam_star + rng.standard_normal(n))
            dist, proj = multiplier_distance(ref, lam)
            dense_dist, dense_proj = multiplier_distance(dense, lam)
            assert dist == pytest.approx(dense_dist, rel=rel)
            assert_allclose(proj.coeffs, dense_proj.coeffs, rtol=0,
                            atol=rel * np.abs(dense_proj.coeffs).max())
        assert null_dimension(ref) == null_dimension(dense) == k

    def test_zero_jacobian_fixes_every_multiplier(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        Y = InnerProductSpace(sp.csr_matrix(
            np.diag(rng.uniform(1.0, 2.0, 6)) + np.diag(np.full(5, 0.3), 1)
            + np.diag(np.full(5, 0.3), -1)))
        ref = ReferenceSolution(
            z_star=InnerProductSpace.identity(3).zero_vector(),
            j_star=sp.csr_matrix((6, 3)), g_star=np.zeros(3),
            cone=empty_cone(Y), lambda_star=Y.zero_functional(),
        )
        for _ in range(5):
            lam = Y.functional(rng.standard_normal(6))
            dist, proj = multiplier_distance(ref, lam)
            assert dist == 0.0
            assert_allclose(proj.coeffs, lam.coeffs, rtol=1e-14)
        assert null_dimension(ref) == 6


class TestCoercivityMargin:
    def test_zero_jacobian_leaves_hessian_spectrum(self):
        for rho in (1e-1, 1e-3, 1e-6):
            got = coercivity_margin(np.eye(2), np.zeros((1, 2)),
                                    InnerProductSpace(np.eye(2)),
                                    InnerProductSpace(np.eye(1)), rho)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_line_pencil(self, degenerate):
        # hand-derived pencil eigenvalues {1 + 2/rho, 1}
        p = degenerate.problem
        z = p.Z.vector([0, 0])
        H = p.hess_L(z, p.Y.zero_functional())
        J = p.jac_G(z)
        for rho in [10.0**-k for k in range(1, 7)]:
            got = coercivity_margin(H, J, p.Z, p.Y, rho)
            assert got == pytest.approx(1.0, abs=1e-9)

    def test_monotone_nonincreasing_in_rho(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((3, 3))
        H = 0.5 * (B + B.T)
        J = rng.standard_normal((2, 3))
        rhos = np.logspace(-6, 0, 13)
        Z, Y = InnerProductSpace(np.eye(3)), InnerProductSpace(np.eye(2))
        margins = [coercivity_margin(H, J, Z, Y, r) for r in rhos]
        assert all(a >= b - 1e-10 for a, b in zip(margins, margins[1:]))

    def test_indefinite_threshold_matches_eigensolve_sweep(self):
        # negative curvature only along the Jacobian range; the margin
        # crosses the target level at rho = 2/3
        H = np.diag([-1.0, 1.0])
        J = np.array([[1.0, 0.0]])
        level = 0.5
        Z, Y = InnerProductSpace(np.eye(2)), InnerProductSpace(np.eye(1))
        lo, hi = 1e-3, 10.0
        for _ in range(60):
            mid = np.sqrt(lo * hi)
            if coercivity_margin(H, J, Z, Y, mid) >= level:
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

    @staticmethod
    def eigencontrol_closed_form(n: int, rho: float, alpha: float = 1.0) -> float:
        """The margin at (z*, 0) on eigencontrol, from the spectrum alone.

        H = diag(h I, alpha) and J = [A - lam_1 I, 0], with M_Y = h I and
        M_Z = diag(h (I + A^2), 1); A's eigenvector k diagonalizes the
        state block, with eigenvalue (1 + (lam_k - lam_1)^2 / rho) /
        (1 + lam_k^2), and the control block is alpha.
        """
        lam = np.array([fd_eigenvalue(n, k) for k in range(1, n + 1)])
        return min(alpha, float(np.min(
            (1.0 + (lam - lam[0]) ** 2 / rho) / (1.0 + lam**2))))

    @pytest.mark.parametrize("n, rhos, rel", [
        (49, [10.0**-k for k in range(1, 7)], 1e-6),
        (200, [10.0**-k for k in range(1, 7)], 1e-6),
        # the banded factor of the H^2 metric limits the accuracy (F1)
        (1000, [1e-6], 1e-4),
    ])
    def test_eigencontrol_closed_form(self, n, rhos, rel):
        bm = make_eigencontrol(n=n)
        p, z = bm.problem, bm.reference.z_star
        H = p.hess_L(z, p.Y.zero_functional())
        J = p.jac_G(z)
        for rho in rhos:
            assert coercivity_margin(H, J, p.Z, p.Y, rho) == pytest.approx(
                self.eigencontrol_closed_form(n, rho), rel=rel)

    def test_nonpositive_rho_rejected(self):
        Z, Y = InnerProductSpace(np.eye(2)), InnerProductSpace(np.eye(1))
        for rho in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="rho must be positive"):
                coercivity_margin(np.eye(2), np.zeros((1, 2)), Z, Y, rho)

    def test_indefinite_metric_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            coercivity_margin(np.eye(2), np.zeros((1, 2)),
                              InnerProductSpace(np.diag([1.0, -1.0])),
                              InnerProductSpace(np.eye(1)), 0.1)


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

    def test_rank_rules_differ_between_report_and_projector(self):
        # a whitened singular value of 1e-10 lies between the two rank
        # cut-offs: the report calls the constraint qualification failed,
        # while both projectors keep its direction in the range
        from ssqp.model import ProblemDef

        J = np.diag([1.0, 1e-10])
        Z = Y = InnerProductSpace.identity(2)
        p = ProblemDef(
            Z, Y, empty_cone(Y),
            f=lambda z: 0.0,
            grad_f=lambda z: Z.zero_functional(),
            G=lambda z: Y.vector(J @ z.coords),
            jac_G=lambda z: J,
            hess_L=lambda z, lam: np.eye(2),
        )
        assert not degeneracy_report(p, Z.zero_vector()).rcq_satisfied
        lam_star = Y.functional([0.3, -0.7])
        ref = ReferenceSolution(
            z_star=Z.zero_vector(), j_star=J, g_star=-J.T @ lam_star.coeffs,
            cone=p.cone, lambda_star=lam_star,
        )
        for twin in (ref, csr_twin(ref)):
            assert multiplier_distance(twin, lam_star)[0] <= 1e-12
            assert null_dimension(twin) == 0


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
