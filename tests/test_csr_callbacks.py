"""Callbacks that return `csr.CSR`: data on a pattern interned once.

eigencontrol interns the CSR patterns of jac_G and hess_L when it is
built, and its callbacks return their data on them as `csr.CSR`.  Its
twin returns the same matrices as scipy CSR, as eigencontrol did before;
both must give the same history in every bit.  Data of the wrong length,
data that is not finite and an asymmetric Hessian each end the solve
SubproblemFailure at that iterate, with a message naming the callback,
and none of them makes a new plan.  A solve on CSR callbacks builds no
scipy.sparse matrix and looks no pattern up by its bytes.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse._base

from ssqp import csr, subproblem
from ssqp.bench import make_eigencontrol
from ssqp.model import validate_problem
from ssqp.solver import SolverOptions, SolveStatus, run


def as_scipy(problem):
    """The twin of a problem with `CSR` callbacks whose callbacks return
    scipy CSR matrices."""
    return dataclasses.replace(
        problem, jac_G=lambda z: problem.jac_G(z).to_scipy(),
        hess_L=lambda z, lam: problem.hess_L(z, lam).to_scipy())


def _same_history(a, b) -> None:
    assert a.status is b.status and a.failure_index == b.failure_index
    assert len(a.history) == len(b.history)
    for r, s in zip(a.history, b.history):
        assert r.z.coords.tobytes() == s.z.coords.tobytes()
        assert r.lam.coeffs.tobytes() == s.lam.coeffs.tobytes()
        assert (r.rho, r.kkt.stationarity, r.kkt.feasibility, r.total_err) == (
            s.rho, s.kkt.stationarity, s.kkt.feasibility, s.total_err)


@pytest.mark.parametrize("n", [49, 200, 1000])
def test_csr_and_scipy_twins_agree_bit_for_bit(n):
    bm = make_eigencontrol(n=n)
    z, lam = bm.default_start()
    assert type(bm.problem.jac_G(z)) is csr.CSR and type(bm.problem.hess_L(z, lam)) is csr.CSR
    own = run(bm.problem, z, lam, SolverOptions(), reference=bm.reference)
    twin = run(as_scipy(bm.problem), z, lam, SolverOptions(), reference=bm.reference)
    assert own.status is SolveStatus.CONVERGED and len(own.history) >= 3
    _same_history(own, twin)


def _spoiled(problem, name: str, spoil, start):
    """problem whose callback `name` returns its pattern with spoil(data)
    at every point but `start`, so that from there the fault shows at
    iterate 1."""
    callback = getattr(problem, name)

    def spoiled(z, *lam):
        M = callback(z, *lam)
        if np.array_equal(z.coords, start.coords):
            return M
        return csr.CSR(M.pattern, spoil(M.data.copy()))

    return dataclasses.replace(problem, **{name: spoiled})


def _entry(data: np.ndarray, value: float, at: int = 1) -> np.ndarray:
    data[at] = value
    return data


NOT_FINITE = "returned a value that is not finite"
WRONG_LENGTH = "returned data of shape"
FAULTS = {
    "jac_G-short": ("jac_G", lambda d: d[:-1], WRONG_LENGTH),
    "jac_G-nan": ("jac_G", lambda d: _entry(d, np.nan), NOT_FINITE),
    "hess_L-long": ("hess_L", lambda d: np.append(d, 0.0), WRONG_LENGTH),
    "hess_L-inf": ("hess_L", lambda d: _entry(d, np.inf), NOT_FINITE),
    # entry 1 is (0, n) of the arrow; its mirror (n, 0) keeps its value
    "hess_L-asymmetric": ("hess_L", lambda d: _entry(d, d[1] + 1e-3),
                          "returned a matrix that is not symmetric to 1e-10"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_faulty_csr_callback_fails_at_its_iterate_without_a_plan(fault):
    name, spoil, message = FAULTS[fault]
    bm = make_eigencontrol(n=49)
    z, lam = bm.default_start()
    problem = _spoiled(bm.problem, name, spoil, z)
    problem.Y.scaled_mass(sparse=True)  # made once per space, on first use
    subproblem._sparse_plan.cache_clear()
    looked_up = csr._interned.cache_info()
    report = run(problem, z, lam, SolverOptions(), reference=bm.reference)
    assert report.status is SolveStatus.SUBPROBLEM_FAILURE
    assert report.failure_index == 1
    assert report.failure_message.startswith(f"callback {name} {message}")
    assert all(np.isfinite(r.kkt.total) for r in report.history)
    # the first subproblem's plan, and no other; no pattern looked up
    assert subproblem._sparse_plan.cache_info().misses == 1
    assert csr._interned.cache_info()[:2] == looked_up[:2]


@pytest.mark.parametrize("shape, indptr, indices", [
    ((20, 21), [0, 1, 2], [0, 1]),  # indptr one row short
    ((20, 21), np.arange(21), np.full(20, 21)),  # a column out of range
    ((21, 21), np.arange(22)[::-1], np.arange(21)),  # indptr decreasing
])
def test_a_malformed_pattern_is_rejected_when_it_is_interned(shape, indptr, indices):
    with pytest.raises(ValueError, match="no CSR pattern of shape"):
        csr.pattern_of(shape, indptr, indices)


def test_validate_problem_checks_csr_callbacks():
    problem = make_eigencontrol(n=20).problem
    validate_problem(problem, n_points=2)
    for name, spoil, message in [
        ("jac_G", lambda d: d[:-1], "callback jac_G returned data of shape"),
        ("jac_G", lambda d: 2.0 * d, "jac_G disagrees with finite differences"),
        ("hess_L", lambda d: _entry(d, d[1] + 1e-3), "hess_L is not symmetric"),
    ]:
        def spoiled(*args, callback=getattr(problem, name), spoil=spoil):
            M = callback(*args)
            return csr.CSR(M.pattern, spoil(M.data.copy()))

        with pytest.raises(ValueError, match=message):
            validate_problem(dataclasses.replace(problem, **{name: spoiled}), n_points=2)


def test_a_csr_solve_builds_no_scipy_matrix_and_hashes_no_pattern(monkeypatch):
    bm = make_eigencontrol(n=200)
    z, lam = bm.default_start()
    opts = SolverOptions()
    run(bm.problem, z, lam, opts, reference=bm.reference)  # makes the space's M^ once
    built, init = [], scipy.sparse._base._spbase.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counted)
    looked_up = csr._interned.cache_info()
    report = run(bm.problem, z, lam, opts, reference=bm.reference)
    assert report.status is SolveStatus.CONVERGED and len(report.history) >= 3
    assert built == []
    assert csr._interned.cache_info()[:2] == looked_up[:2]
    # the scipy twin builds and looks up both matrices at every iterate
    run(as_scipy(bm.problem), z, lam, opts, reference=bm.reference)
    subproblems = len(report.history) - 1
    assert len(built) >= 2 * subproblems
    assert sum(csr._interned.cache_info()[:2]) - sum(looked_up[:2]) >= 2 * subproblems
