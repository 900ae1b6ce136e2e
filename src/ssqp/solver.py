"""Outer stabilized SQP loop: KKT test, rho selection, subproblem dispatch.

Each iteration tests the computable KKT residual, picks the stabilization
weight rho_k and solves one saddle-point subproblem.  The default rho rule
is proportional to the computable error proxy, the KKT stationarity plus
feasibility residual, clamped to [rho_min, sigma1]; a fixed rule and a
true-error oracle rule (for test harnesses with a registered reference
solution) are also available.
"""

from __future__ import annotations

import enum
import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import ReferenceSolution, multiplier_distance
from .model import KKTResidual, ProblemDef, _shaped, hessian_fault, issparse
from .spaces import DimensionMismatch, Functional, PrimalVec
from .subproblem import (
    NoConvergence,
    SaddleSystem,
    SingularSubproblem,
    solve_cone,
    solve_equality,
)


def _require_weight(name: str, value) -> None:
    """Reject a rule weight that is not a finite number >= 0."""
    # each comparison fails for NaN
    if not (isinstance(value, numbers.Real) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ErrorProportional:
    """rho_k = clamp(theta * eta, rho_min, sigma1).

    eta is the KKT stationarity plus feasibility residual: |L'_z|_{Z*} plus
    the Y-distance of G(z) to the complementarity face of K, which is
    |G(z)|_Y for K = {0}.
    """

    theta: float = 1.0

    def __post_init__(self) -> None:
        _require_weight("theta", self.theta)


@dataclass(frozen=True)
class Fixed:
    """rho_k = rho, unclamped; rho = 0 reproduces classical SQP.

    A fixed rho > 0 makes the multiplier update a proximal-point step
    anchored at the current lam_k.  Its fixed points (d = 0, l = lam_k)
    are exact KKT points, so the iteration does not stall; it converges
    linearly with a contraction factor of O(rho) instead of quadratically.
    """

    rho: float

    def __post_init__(self) -> None:
        _require_weight("rho", self.rho)


@dataclass(frozen=True)
class TrueErrorOracle:
    """rho_k = clamp(sigma0 * (|z - z*| + dist(lam, multiplier set))).

    Needs a registered reference solution; intended for harnesses that
    validate the convergence theory under its exact hypothesis.
    """

    sigma0: float = 1.0

    def __post_init__(self) -> None:
        _require_weight("sigma0", self.sigma0)


RhoRule = ErrorProportional | Fixed | TrueErrorOracle


@dataclass
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 50
    rho_rule: RhoRule = field(default_factory=ErrorProportional)
    sigma1: float = 1.0
    rho_min: float = 1e-14

    def __post_init__(self) -> None:
        # each comparison fails for NaN
        if not (isinstance(self.tol, numbers.Real) and 0 < self.tol < math.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not (isinstance(self.rho_min, numbers.Real)
                and isinstance(self.sigma1, numbers.Real)
                and 0 < self.rho_min <= self.sigma1 < math.inf):
            raise ValueError("need finite rho_min and sigma1 with 0 < rho_min "
                             f"<= sigma1, got {self.rho_min!r} and {self.sigma1!r}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 0):
            raise ValueError(f"max_iter must be an int >= 0, got {self.max_iter!r}")


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER = "MaxIter"
    SUBPROBLEM_FAILURE = "SubproblemFailure"


@dataclass
class IterateRecord:
    k: int
    z: PrimalVec
    lam: Functional
    rho: float
    kkt: KKTResidual
    err_z: float | None = None
    dist_lambda: float | None = None
    total_err: float | None = None
    #: observed convergence order at k, when its error triple is admissible
    order: float | None = None


@dataclass
class SolveReport:
    history: list[IterateRecord]
    status: SolveStatus
    observed_orders: list[float]
    gamma_hat: float | None = None
    failure_index: int | None = None
    failure_message: str | None = None


def rho_rule(opts: SolverOptions, eta: float,
             total_err: float | None = None) -> float:
    """Stabilization weight under the configured rule.

    `eta` is the iterate's computable error estimate (`KKTResidual.eta`)
    and `total_err` its true error, which only the oracle rule reads.
    """
    # min(max(.)) clamps as np.clip does, NaN included, since
    # rho_min <= sigma1
    rule = opts.rho_rule
    if isinstance(rule, ErrorProportional):
        return float(min(max(rule.theta * eta, opts.rho_min), opts.sigma1))
    if isinstance(rule, Fixed):
        return float(rule.rho)
    if isinstance(rule, TrueErrorOracle):
        if total_err is None:
            raise ValueError("TrueErrorOracle needs a registered reference solution")
        return float(min(max(rule.sigma0 * total_err, opts.rho_min), opts.sigma1))
    raise TypeError(f"unknown rho rule {rule!r}")


def observed_order_entries(errs) -> list[tuple[int, float]]:
    """(index, order) pairs for every admissible error triple.

    The order at index k is log(e_{k+1}/e_k) / log(e_k/e_{k-1}); triples
    touching errors below 1e-15 (resolution floor) or with a vanishing
    denominator are omitted.
    """
    es = [float(e) for e in errs]
    entries: list[tuple[int, float]] = []
    for k in range(1, len(es) - 1):
        if min(es[k - 1 : k + 2]) < 1e-15:
            continue
        den = math.log(es[k] / es[k - 1])
        if abs(den) < 1e-12:
            continue
        entries.append((k, math.log(es[k + 1] / es[k]) / den))
    return entries


def observed_order(errs) -> list[float]:
    """Convergence orders for each admissible error triple, in order."""
    return [p for _, p in observed_order_entries(errs)]


def _project_into_polar(p: ProblemDef, lam: Functional) -> Functional:
    """Clip the generator pairings of lam to be nonpositive."""
    pairings = p.cone.pairings(lam)
    excess = np.maximum(pairings, 0.0)
    if excess.max() <= 1e-12 * (1.0 + p.Y.dual_norm(lam)):
        return lam
    warnings.warn(
        "initial multiplier is outside the polar cone; projecting pairings",
        stacklevel=3,
    )
    c = np.linalg.solve(p.cone.gram, excess)
    shift = p.Y.apply_mass(p.cone.generator_matrix @ c)
    return Functional(p.Y, lam.coeffs - shift)


def _callback_fault(p: ProblemDef, z: PrimalVec, lam: Functional,
                    exc: ValueError) -> str:
    """Name the callback whose output at (z, lam) caused `exc`.

    Called only once an evaluation has failed, so each output is computed
    again and checked for shape, finiteness and, for hess_L, symmetry here
    rather than on every iterate.  Re-raises `exc` when every callback
    output is sound.
    """
    outputs = (
        ("grad_f", lambda: p.grad_f(z).coeffs, (p.Z.dim,)),
        ("G", lambda: p.G(z).coords, (p.Y.dim,)),
        ("jac_G", lambda: p.jac_G(z), (p.Y.dim, p.Z.dim)),
        ("hess_L", lambda: p.hess_L(z, lam), (p.Z.dim, p.Z.dim)),
    )
    for name, evaluate, shape in outputs:
        try:
            value = evaluate()
        except DimensionMismatch as raised:  # it built an element of the wrong shape
            return f"callback {name} raised DimensionMismatch: {raised}"
        try:
            value = _shaped(name, value, shape)
        except DimensionMismatch as wrong:
            return str(wrong)
        if not np.isfinite(value.data if issparse(value) else value).all():
            return f"callback {name} returned a value that is not finite"
        fault = hessian_fault(value) if name == "hess_L" else None
        if fault is not None:
            return f"callback {name} returned a matrix that is {fault}"
    raise exc


def run(
    p: ProblemDef,
    z0: PrimalVec,
    lam0: Functional,
    opts: SolverOptions | None = None,
    reference: ReferenceSolution | None = None,
) -> SolveReport:
    """Run the stabilized SQP iteration from (z0, lam0).

    Stops on kkt.total <= tol (Converged), after max_iter subproblem
    solves (MaxIter), or when a subproblem factorization fails or a
    callback returns a value that is not finite or has the wrong shape, or
    a Hessian that is not symmetric (SubproblemFailure, with the failing
    iteration index and a message naming the callback; the history
    then ends before that iterate if its KKT residual failed).  When a
    reference solution is given, per-iterate errors and the empirical
    error-estimate constant gamma_hat are recorded and each record's
    convergence order is measured on the true error; otherwise on the KKT
    residual.
    """
    opts = opts if opts is not None else SolverOptions()
    if isinstance(opts.rho_rule, TrueErrorOracle) and reference is None:
        raise ValueError("TrueErrorOracle needs a registered reference solution")
    z, lam = z0, lam0
    if p.cone.m > 0:
        lam = _project_into_polar(p, lam)
    history: list[IterateRecord] = []
    status = SolveStatus.MAX_ITER
    failure_index: int | None = None
    failure_message: str | None = None
    for k in range(opts.max_iter + 1):
        try:
            at = p.evaluate(z)
            kkt = p.kkt_residual(z, lam, at)
            total = kkt.total
            if not math.isfinite(total):
                raise ValueError(f"KKT residual is not finite at iteration {k}")
        except ValueError as exc:
            failure_message = _callback_fault(p, z, lam, exc)
            break
        rec = IterateRecord(k=k, z=z, lam=lam, rho=math.nan, kkt=kkt)
        if reference is not None:
            rec.err_z = p.Z.norm_arr(z.coords - reference.z_star.coords)
            rec.dist_lambda, _ = multiplier_distance(reference, lam)
            rec.total_err = rec.err_z + rec.dist_lambda
        # the rule reads the record: eta, and the true error when known
        rec.rho = rho_rule(opts, kkt.eta, rec.total_err)
        history.append(rec)
        if total <= opts.tol:
            status = SolveStatus.CONVERGED
            break
        if k == opts.max_iter:
            status = SolveStatus.MAX_ITER
            break
        try:
            sys = SaddleSystem(
                H=p.hess_L(z, lam),
                J=at.J,
                g=at.g,
                Gval=at.Gval,
                rho=rec.rho,
                lamk=lam,
                zk=z,
                spaceZ=p.Z,
                spaceY=p.Y,
            )
        except ValueError as exc:
            failure_message = _callback_fault(p, z, lam, exc)
            break
        try:
            if p.cone.m == 0:
                sol = solve_equality(sys)
            else:
                sol = solve_cone(sys, p.cone)
        except (SingularSubproblem, NoConvergence) as exc:
            failure_message = str(exc)
            break
        z, lam = sol.z_next, sol.lam_next
    if failure_message is not None:
        status, failure_index = SolveStatus.SUBPROBLEM_FAILURE, k
    errs = [r.kkt.total if r.total_err is None else r.total_err for r in history]
    for i, order in observed_order_entries(errs):
        history[i].order = order
    gamma_hat = None
    if reference is not None:
        ratios = [r.total_err / r.kkt.eta for r in history if r.kkt.eta > 1e-15]
        gamma_hat = max(ratios) if ratios else None
    return SolveReport(
        history=history,
        status=status,
        observed_orders=[r.order for r in history if r.order is not None],
        gamma_hat=gamma_hat,
        failure_index=failure_index,
        failure_message=failure_message,
    )
