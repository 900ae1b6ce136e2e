import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from ssqp import solver
from ssqp.bench import get_benchmark
from ssqp.diagnostics import multiplier_distance
from ssqp.model import ConeSpec, ProblemDef
from ssqp.solver import (
    ErrorProportional,
    Fixed,
    SolverOptions,
    SolveStatus,
    TrueErrorOracle,
    observed_order,
    observed_order_entries,
    rho_rule,
    run,
)
from ssqp.spaces import Functional, InnerProductSpace, PrimalVec
from saddle_reference import spd


@pytest.fixture(scope="module")
def degenerate():
    return get_benchmark("degenerate-line")


class TestRhoRule:
    def test_clamped_to_floor_at_kkt_point(self, degenerate):
        p = degenerate.problem
        opts = SolverOptions()
        kkt = p.kkt_residual(p.Z.vector([0, 0]), p.Y.functional([-0.5, -0.5]))
        value = rho_rule(opts, kkt.eta)
        assert value == opts.rho_min

    def test_sum_below_cap(self):
        # stationarity 0.3 and constraint norm 0.2 with theta 1 add to 0.5
        import ssqp.model as model
        from ssqp.spaces import Functional, InnerProductSpace, PrimalVec

        Z = InnerProductSpace.identity(1)
        Y = InnerProductSpace.identity(1)
        p = model.ProblemDef(
            Z, Y, model.empty_cone(Y),
            f=lambda z: 0.0,
            grad_f=lambda z: Functional(Z, [0.3]),
            G=lambda z: PrimalVec(Y, [0.2]),
            jac_G=lambda z: np.zeros((1, 1)),
            hess_L=lambda z, lam: np.eye(1),
        )
        got = rho_rule(SolverOptions(sigma1=1.0),
                       p.kkt_residual(Z.vector([0.0]), Y.zero_functional()).eta)
        assert got == pytest.approx(0.5)

    def test_matches_hand_computed_proxy(self, degenerate):
        p = degenerate.problem
        z = p.Z.vector([0.1, 0.1])
        lam = p.Y.functional([-0.4, -0.4])
        # independent evaluation of |f' + J^T lam| + |G|
        grad = np.array([1.0 + 0.1, 0.1])
        J = np.array([[1.0, 0.0], [1.2, 0.0]])
        stat = np.linalg.norm(grad + J.T @ np.array([-0.4, -0.4]))
        feas = np.linalg.norm([0.1, 0.1 + 0.01])
        got = rho_rule(SolverOptions(), p.kkt_residual(z, lam).eta)
        assert got == pytest.approx(stat + feas, rel=1e-13)

    def test_fixed_rule_is_unclamped(self, degenerate):
        p = degenerate.problem
        opts = SolverOptions(rho_rule=Fixed(0.0))
        z = p.Z.vector([0.1, 0.1])
        assert rho_rule(opts, p.kkt_residual(z, p.Y.zero_functional()).eta) == 0.0

    @pytest.mark.parametrize("rule, weight", [(ErrorProportional(0.7), 0.7),
                                              (TrueErrorOracle(2.0), 2.0)])
    def test_clamp_is_np_clip(self, rule, weight):
        opts = SolverOptions(rho_rule=rule, rho_min=1e-8, sigma1=0.5)
        for value in (0.0, 1e-300, 1e-9, 1.4285714e-8, 0.3, 0.5, 0.7, 1e300,
                      np.inf, np.nan):
            got = rho_rule(opts, value, value)
            want = float(np.clip(weight * value, opts.rho_min, opts.sigma1))
            assert got == want or (np.isnan(got) and np.isnan(want)), value

    def test_oracle_rule_needs_reference(self, degenerate):
        p = degenerate.problem
        opts = SolverOptions(rho_rule=TrueErrorOracle(2.0))
        with pytest.raises(ValueError, match="reference"):
            rho_rule(opts, p.kkt_residual(p.Z.vector([0.1, 0.1]),
                                          p.Y.zero_functional()).eta)

    def test_oracle_rule_uses_true_error(self, degenerate):
        p = degenerate.problem
        opts = SolverOptions(rho_rule=TrueErrorOracle(1.0), sigma1=10.0)
        z = p.Z.vector([0.3, 0.4])
        lam = p.Y.functional([-0.5, -0.5])
        ref = degenerate.reference
        total_err = (p.Z.norm_arr(z.coords - ref.z_star.coords)
                     + multiplier_distance(ref, lam)[0])
        got = rho_rule(opts, p.kkt_residual(z, lam).eta, total_err)
        assert got == pytest.approx(0.5)


class TestOptionValidation:
    # each bad value is rejected where it is built, not in the middle of run
    @pytest.mark.parametrize("kwargs", [
        {"tol": np.nan}, {"tol": np.inf}, {"tol": 0.0}, {"tol": -1e-10},
        {"tol": "1e-10"},
        {"rho_min": np.nan}, {"rho_min": 0.0}, {"rho_min": 2.0},
        {"sigma1": np.nan}, {"sigma1": np.inf}, {"rho_min": np.inf, "sigma1": np.inf},
        {"max_iter": 2.5}, {"max_iter": -1}, {"max_iter": "3"},
    ])
    def test_bad_solver_options_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverOptions(**kwargs)

    @pytest.mark.parametrize("rule, bad", [
        (Fixed, np.nan), (Fixed, -1.0), (Fixed, np.inf), (Fixed, None),
        (ErrorProportional, np.nan), (ErrorProportional, -0.5),
        (ErrorProportional, np.inf),
        (TrueErrorOracle, np.nan), (TrueErrorOracle, -1.0), (TrueErrorOracle, np.inf),
    ])
    def test_bad_rule_weight_rejected(self, rule, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            rule(bad)

    def test_boundary_values_accepted(self):
        SolverOptions(tol=1e-300, max_iter=0, rho_min=1.0, sigma1=1.0)
        SolverOptions(max_iter=np.int64(3), tol=np.float64(1e-9))
        for rule in (Fixed, ErrorProportional, TrueErrorOracle):
            assert rule(0.0) == rule(0)


class TestObservedOrder:
    def test_exact_quadratic_sequence(self):
        assert_allclose(observed_order([1e-1, 1e-2, 1e-4, 1e-8]), [2.0, 2.0])

    def test_linear_sequence(self):
        assert_allclose(observed_order([1e-1, 1e-2, 1e-3]), [1.0])

    def test_geometric_ratio(self):
        errs = [0.5**k for k in range(6)]
        assert_allclose(observed_order(errs), np.ones(4))

    def test_short_history_gives_nothing(self):
        assert observed_order([1e-1, 1e-2]) == []

    def test_floor_entries_omitted(self):
        orders = observed_order([1e-1, 1e-2, 1e-4, 1e-16])
        assert_allclose(orders, [2.0])


class TestRun:
    def test_start_at_kkt_point(self, degenerate):
        p = degenerate.problem
        report = run(p, p.Z.vector([0, 0]), p.Y.functional([-0.5, -0.5]),
                     SolverOptions(tol=1e-10))
        assert report.status is SolveStatus.CONVERGED
        assert len(report.history) == 1

    def test_degenerate_line_quadratic(self, degenerate):
        p = degenerate.problem
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-12, max_iter=10),
                     reference=degenerate.reference)
        assert report.status is SolveStatus.CONVERGED
        assert len(report.history) - 1 <= 10
        assert report.history[-1].kkt.total <= 1e-12
        assert report.observed_orders[-1] >= 1.7
        opts = SolverOptions()
        for rec in report.history:
            assert opts.rho_min <= rec.rho <= opts.sigma1

    def test_unstabilized_rank_deficient_fails(self, degenerate):
        p = degenerate.problem
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-12, rho_rule=Fixed(0.0)))
        assert report.status is SolveStatus.SUBPROBLEM_FAILURE
        assert report.failure_index == 0
        assert "singular" in report.failure_message

    def test_histories_are_deterministic(self, degenerate):
        p = degenerate.problem
        opts = SolverOptions(tol=1e-12)
        reports = [
            run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]), opts,
                reference=degenerate.reference)
            for _ in range(2)
        ]
        a, b = reports
        assert len(a.history) == len(b.history)
        for ra, rb in zip(a.history, b.history):
            assert (ra.z.coords == rb.z.coords).all()
            assert (ra.lam.coeffs == rb.lam.coeffs).all()
            assert ra.rho == rb.rho
            assert ra.kkt.total == rb.kkt.total

    def test_contraction_near_solution(self, degenerate):
        p = degenerate.problem
        rng = np.random.default_rng(17)
        for _ in range(5):
            dz = rng.standard_normal(2)
            dz *= 0.08 / np.linalg.norm(dz)
            dl = rng.standard_normal(2)
            dl *= 0.08 / np.linalg.norm(dl)
            report = run(
                p, p.Z.vector(dz), p.Y.functional(np.array([-0.5, -0.5]) + dl),
                SolverOptions(tol=1e-12), reference=degenerate.reference,
            )
            errs = [r.total_err for r in report.history]
            for e0, e1 in zip(errs, errs[1:]):
                if e0 <= 1e-15:
                    break
                assert e1 < e0
                assert e1 / e0 <= 0.9

    def test_rho_dominates_scaled_true_error(self, degenerate):
        # the proportional rho stays above the true error divided by the
        # empirical estimate constant of the run
        p = degenerate.problem
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-12), reference=degenerate.reference)
        assert report.gamma_hat is not None and np.isfinite(report.gamma_hat)
        for rec in report.history:
            if rec.total_err is None or rec.total_err < 1e-13:
                continue
            assert rec.rho >= rec.total_err / report.gamma_hat - 1e-12

    def test_oracle_rho_rule_converges(self, degenerate):
        p = degenerate.problem
        report = run(p, p.Z.vector([0.05, 0.05]), p.Y.functional([-0.55, -0.5]),
                     SolverOptions(tol=1e-12, rho_rule=TrueErrorOracle(1.0)),
                     reference=degenerate.reference)
        assert report.status is SolveStatus.CONVERGED
        assert report.observed_orders[-1] >= 1.7

    def test_oracle_rule_without_reference_rejected(self, degenerate):
        p = degenerate.problem
        with pytest.raises(ValueError, match="reference"):
            run(p, p.Z.vector([0.1, 0.1]), p.Y.zero_functional(),
                SolverOptions(rho_rule=TrueErrorOracle(1.0)))

    @pytest.mark.parametrize("name", ["degenerate-line", "cone-active"])
    def test_oracle_rule_reads_the_recorded_error(self, name, monkeypatch):
        # one multiplier projection per iterate: the rule takes the true
        # error the record holds instead of projecting a second time
        bm = get_benchmark(name)
        calls = []
        project = solver.multiplier_distance

        def counted(ref, lam):
            calls.append(lam)
            return project(ref, lam)

        monkeypatch.setattr(solver, "multiplier_distance", counted)
        opts = SolverOptions(tol=1e-12, rho_rule=TrueErrorOracle(2.0))
        report = run(bm.problem, *bm.default_start(), opts, reference=bm.reference)
        assert report.status is SolveStatus.CONVERGED
        assert len(calls) == len(report.history)
        for rec in report.history:
            assert rec.rho == np.clip(2.0 * rec.total_err, opts.rho_min, opts.sigma1)

    @pytest.mark.parametrize("with_reference", [True, False])
    def test_each_record_carries_its_order(self, degenerate, with_reference):
        p = degenerate.problem
        reference = degenerate.reference if with_reference else None
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-300, max_iter=8, rho_rule=Fixed(0.1)),
                     reference=reference)
        errs = [rec.total_err if with_reference else rec.kkt.total
                for rec in report.history]
        expected = dict(observed_order_entries(errs))
        assert expected
        assert {rec.k: rec.order for rec in report.history} == {
            rec.k: expected.get(rec.k) for rec in report.history}
        assert report.observed_orders == list(expected.values())

    def test_max_iter_reported(self, degenerate):
        p = degenerate.problem
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-300, max_iter=2))
        assert report.status is SolveStatus.MAX_ITER
        assert len(report.history) == 3

    def test_polar_start_projected_with_warning(self):
        bm = get_benchmark("cone-active")
        p = bm.problem
        lam0 = p.Y.functional([0.5, -0.5])  # pairs positively against y1
        with pytest.warns(UserWarning, match="polar"):
            report = run(p, p.Z.vector([0.2, -0.5]), lam0,
                         SolverOptions(tol=1e-10))
        assert report.status is SolveStatus.CONVERGED
        first = report.history[0].lam
        assert (p.cone.pairings(first) <= 1e-10).all()

    def test_concurrent_solves_share_problem(self, degenerate):
        # callbacks are pure, so distinct solves may run in parallel on
        # one ProblemDef and must match their serial counterparts
        from concurrent.futures import ThreadPoolExecutor

        p = degenerate.problem
        opts = SolverOptions(tol=1e-12)
        starts = [([0.1, 0.1], [-0.6, -0.45]), ([0.05, -0.03], [-0.4, -0.55]),
                  ([-0.08, 0.02], [-0.7, -0.35]), ([0.02, 0.09], [-0.5, -0.45])]

        def solve(start):
            z0, lam0 = start
            return run(p, p.Z.vector(z0), p.Y.functional(lam0), opts,
                       reference=degenerate.reference)

        serial = [solve(s) for s in starts]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(solve, starts))
        for a, b in zip(serial, parallel):
            assert a.status is b.status
            assert len(a.history) == len(b.history)
            assert (a.history[-1].z.coords == b.history[-1].z.coords).all()

    def test_fixed_rho_turns_linear(self, degenerate):
        # a fixed stabilization weight degrades the rate to first order
        p = degenerate.problem
        report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                     SolverOptions(tol=1e-300, max_iter=12, rho_rule=Fixed(0.1)),
                     reference=degenerate.reference)
        tail = report.observed_orders[-1]
        assert abs(tail - 1.0) <= 0.3


def test_proportional_rule_is_quadratic_off_the_cone_vertex():
    # min |x - c|_H^2 / 2 over x in cone(y_1..y_6) in R^12 with the exact
    # NNLS solution x* off the vertex, so G(x*) = x* != 0.  The rho rule
    # must read the KKT feasibility (distance to the complementarity face),
    # which vanishes at x*.  With |G(x)|_Y in its place rho stays at
    # sigma1 and these instances take 13 to 73 steps at order 1; with the
    # KKT feasibility they take 7 to 10.
    import scipy.optimize

    rng = np.random.default_rng(2025)
    dim, m = 12, 6

    for _ in range(12):
        H, mass_y = spd(rng, dim), spd(rng, dim)
        L = np.linalg.cholesky(H)
        while True:
            gens = rng.standard_normal((dim, m))
            center = rng.standard_normal(dim)
            w, _ = scipy.optimize.nnls(L.T @ gens, L.T @ center)
            if w.max() > 1e-6:
                break
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
        report = run(p, Z.vector(gens @ w + dz), Y.zero_functional(),
                     SolverOptions(tol=1e-10, max_iter=50))
        assert report.status is SolveStatus.CONVERGED
        assert len(report.history) - 1 <= 15


def _spoiled(p: ProblemDef, name: str, bad) -> ProblemDef:
    """p whose callback `name` returns bad(p) once |x1| < 0.09, which on
    degenerate-line from x1 = 0.1 happens from iterate 1 on."""
    good = getattr(p, name)

    def callback(z, *args):
        return bad(p) if abs(z.coords[0]) < 0.09 else good(z, *args)

    return dataclasses.replace(p, **{name: callback})


BAD_CALLBACKS = {
    "G-nan": ("G", lambda p: PrimalVec(p.Y, [np.nan, 0.0])),
    "hess_L-nan": ("hess_L", lambda p: np.full((2, 2), np.nan)),
    "grad_f-inf": ("grad_f", lambda p: Functional(p.Z, [np.inf, 0.0])),
    "jac_G-shape": ("jac_G", lambda p: np.zeros((2, 3))),
    "hess_L-shape": ("hess_L", lambda p: np.eye(3)),
    "jac_G-sparse-inf": ("jac_G", lambda p: sp.csr_matrix([[np.inf, 0.0], [1.0, 0.0]])),
    "hess_L-asymmetric": ("hess_L", lambda p: np.array([[1.0, 1e-3], [0.0, 1.0]])),
    "hess_L-sparse-asymmetric": (
        "hess_L", lambda p: sp.csr_matrix([[1.0, 0.0], [1e-3, 1.0]])),
}


#: the whole message of a wrong shape, in the wording of validate_problem
SHAPE_MESSAGES = {
    "jac_G-shape": "callback jac_G returned shape (2, 3), expected (2, 2)",
    "hess_L-shape": "callback hess_L returned shape (3, 3), expected (2, 2)",
}


@pytest.mark.parametrize("case", list(BAD_CALLBACKS))
def test_bad_callback_output_is_a_subproblem_failure(degenerate, case):
    name, bad = BAD_CALLBACKS[case]
    p = _spoiled(degenerate.problem, name, bad)
    report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]),
                 SolverOptions(tol=1e-12))
    assert report.status is SolveStatus.SUBPROBLEM_FAILURE
    assert report.failure_index == 1
    assert report.failure_message.startswith(f"callback {name} returned")
    if case in SHAPE_MESSAGES:
        assert report.failure_message == SHAPE_MESSAGES[case]
    assert [r.k for r in report.history] in ([0], [0, 1])
    assert all(np.isfinite(r.kkt.total) for r in report.history)


@pytest.mark.parametrize("case", ["hess_L-asymmetric", "hess_L-sparse-asymmetric"])
def test_asymmetric_hessian_names_its_symmetry(degenerate, case):
    name, bad = BAD_CALLBACKS[case]
    p = _spoiled(degenerate.problem, name, bad)
    report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]))
    assert report.failure_message == (
        "callback hess_L returned a matrix that is not symmetric to 1e-10")
    assert [r.k for r in report.history] == [0, 1]


def test_symmetry_within_tolerance_is_accepted(degenerate):
    # an asymmetry of 1e-11 relative passes the 1e-10 test
    p = _spoiled(degenerate.problem, "hess_L",
                 lambda p: np.array([[1.0, 1e-11], [0.0, 1.0]]))
    report = run(p, p.Z.vector([0.1, 0.1]), p.Y.functional([-0.6, -0.45]))
    assert report.status is SolveStatus.CONVERGED


def test_each_callback_is_evaluated_once_per_iterate(degenerate):
    # 5 iterates (4 subproblems) from the default start: grad_f, G and
    # jac_G once per iterate, for the KKT test and the saddle system
    # alike, and hess_L once per subproblem
    calls = dict.fromkeys(("grad_f", "G", "jac_G", "hess_L"), 0)

    def counted(name, fn):
        def callback(*args):
            calls[name] += 1
            return fn(*args)
        return callback

    p = dataclasses.replace(degenerate.problem, **{
        name: counted(name, getattr(degenerate.problem, name)) for name in calls
    })
    z0, lam0 = degenerate.default_start()
    report = run(p, z0, lam0, SolverOptions(tol=1e-12))
    assert report.status is SolveStatus.CONVERGED
    assert len(report.history) == 5
    assert calls == {"grad_f": 5, "G": 5, "jac_G": 5, "hess_L": 4}
