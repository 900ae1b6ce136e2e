"""The four workloads: how each builds its inputs from a seed, what one
operation is, and how each answer is checked against `oracles`.

A workload's `setup()` is one timed set-up; it returns the round, the
fixed list of operations that follows it in each cycle of a run.  The
same seed gives the same round.  ssqp is imported by module so that the
tracer's stand-ins are picked up where the program looks names up.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from ssqp import bench, diagnostics, model, solver, spaces


@dataclass
class Outcome:
    """What one operation did: no answer (`failed`), a wrong answer
    (`wrong`), or a checked answer; plus its outer SQP iterations."""

    iterations: int = 0
    failed: str | None = None
    wrong: str | None = None


@dataclass
class Op:
    run: Callable[[], object]
    verify: Callable[[object], Outcome]


def _spd(rng, dim: int) -> np.ndarray:
    """Random SPD matrix with eigenvalues in [0.5, 2]."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    m = (q * rng.uniform(0.5, 2.0, dim)) @ q.T
    return 0.5 * (m + m.T)


def _solve_outcome(report, errors: Callable[[np.ndarray, np.ndarray], tuple],
                   tol: float) -> Outcome:
    its = len(report.history) - 1
    if report.status is not solver.SolveStatus.CONVERGED:
        return Outcome(its, failed=f"status {report.status.value}")
    last = report.history[-1]
    err_z, err_lam = errors(last.z.coords, last.lam.coeffs)
    if not (err_z <= tol and err_lam <= tol):
        return Outcome(its, wrong=f"errors z {err_z:.3e}, lambda {err_lam:.3e} > {tol:.0e}")
    return Outcome(its)


class Workload:
    #: wall_s counts one set-up (a user's job builds its instances).
    setup_in_wall = True
    #: peak_rss_mb is read from the child processes.
    children = False

    def __init__(self, seed: int, root: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.tiny = tiny

    def rng(self, stream: int):
        return np.random.default_rng([self.seed, stream])

    def setup(self) -> list[Op]:
        raise NotImplementedError


class EigenLarge(Workload):
    """eigencontrol at n = 1000, solved from seeded low-mode starts."""

    def setup(self) -> list[Op]:
        n = 40 if self.tiny else 1000
        bm = bench.make_eigencontrol(n=n)
        p = bm.problem
        rng = self.rng(1)
        h = 1.0 / (n + 1)
        x = h * np.arange(1, n + 1)
        z_star = np.concatenate([np.zeros(n), [oracles.eigencontrol_q_star(n)]])
        opts = solver.SolverOptions(tol=oracles.STOP_TOL)
        ops = []
        for _ in range(1 if self.tiny else 2):
            # smooth offset: modes 1..4 with 1/k weights, plus a control shift
            amp = rng.standard_normal(4) / np.arange(1, 5)
            u = sum(a * np.sin((k + 1) * np.pi * x) for k, a in enumerate(amp))
            off = np.concatenate([u, [rng.standard_normal()]])
            off *= rng.uniform(0.3, 0.7) * bm.certified_radius / oracles.eigencontrol_errors(
                z_star + off, np.zeros(n), n)[0]
            z0, lam0 = p.Z.vector(z_star + off), p.Y.zero_functional()
            ops.append(Op(
                run=lambda z0=z0, lam0=lam0: solver.run(p, z0, lam0, opts,
                                                        reference=bm.reference),
                verify=lambda rep: _solve_outcome(
                    rep, lambda z, l: oracles.eigencontrol_errors(z, l, n),
                    oracles.ERR_TOL),
            ))
        return ops


class DegenerateBatch(Workload):
    """degenerate-line with seeded metrics and starts, no reference."""

    def setup(self) -> list[Op]:
        rng = self.rng(2)
        opts = solver.SolverOptions(tol=oracles.STOP_TOL)
        ops = []
        for _ in range(20 if self.tiny else 1000):
            mass_z, mass_y = _spd(rng, 2), _spd(rng, 2)
            bm = bench.make_degenerate_line(mass_z, mass_y)
            p = bm.problem
            radius = bm.certified_radius
            dz = rng.standard_normal(2)
            dz *= radius * rng.uniform(0.5, 0.9) / math.sqrt(dz @ mass_z @ dz)
            dl = rng.standard_normal(2)
            dl *= radius * rng.uniform(0.5, 0.9) / math.sqrt(dl @ np.linalg.solve(mass_y, dl))
            z0 = p.Z.vector(dz)
            lam0 = p.Y.functional(np.array([-0.5, -0.5]) + dl)
            ops.append(Op(
                run=lambda p=p, z0=z0, lam0=lam0: solver.run(p, z0, lam0, opts),
                verify=lambda rep, mz=mass_z, my=mass_y: _solve_outcome(
                    rep, lambda z, l: oracles.degenerate_line_errors(z, l, mz, my),
                    oracles.ERR_TOL),
            ))
        return ops


def cone_problem(H, mass_y, generators, center):
    """min 1/2 |x - c|_H^2 subject to x in cone(generators), via the public API."""
    d = H.shape[0]
    Z, Y = spaces.InnerProductSpace(H), spaces.InnerProductSpace(mass_y)
    cone = model.ConeSpec(Y, tuple(Y.vector(g) for g in generators.T))

    def f(z):
        e = z.coords - center
        return float(0.5 * e @ H @ e)

    return model.ProblemDef(
        Z, Y, cone, f,
        grad_f=lambda z: spaces.Functional(Z, H @ (z.coords - center)),
        G=lambda z: spaces.PrimalVec(Y, z.coords.copy()),
        jac_G=lambda z: np.eye(d),
        hess_L=lambda z, lam: H,
    )


class ConeMany(Workload):
    """Random cone-constrained quadratics in R^12, m = 4..8 generators."""

    MAX_ITER = 200
    M, COUNT = 6, 24

    def setup(self) -> list[Op]:
        rng = self.rng(3)
        dim, ms = (6, (2, 3)) if self.tiny else (12, (self.M,) * self.COUNT)
        opts = solver.SolverOptions(tol=oracles.CONE_STOP_TOL, max_iter=self.MAX_ITER)
        ops = []
        for m in ms:
            H, mass_y = _spd(rng, dim), _spd(rng, dim)
            while True:  # keep solutions off the cone vertex
                gens = rng.standard_normal((dim, m))
                center = rng.standard_normal(dim)
                x_star, lam_star, w = oracles.cone_solution(H, gens, center)
                if w.max() > 1e-6:
                    break
            p = cone_problem(H, mass_y, gens, center)
            ref = diagnostics.ReferenceSolution(
                z_star=p.Z.vector(x_star), j_star=np.eye(dim),
                g_star=H @ (x_star - center), cone=p.cone,
                lambda_star=p.Y.functional(lam_star),
            )
            dz = rng.standard_normal(dim)
            dz *= rng.uniform(0.3, 0.7) * 0.5 / math.sqrt(dz @ H @ dz)
            z0, lam0 = p.Z.vector(x_star + dz), p.Y.zero_functional()
            ops.append(Op(
                run=lambda p=p, z0=z0, lam0=lam0, ref=ref: solver.run(
                    p, z0, lam0, opts, reference=ref),
                verify=lambda rep, H=H, my=mass_y, xs=x_star, ls=lam_star: _solve_outcome(
                    rep, lambda z, l: oracles.cone_errors(z, l, H, my, xs, ls),
                    oracles.CONE_ERR_TOL),
            ))
        return ops


CSV_HEADER = ("k,rho,kkt_stationarity,kkt_feasibility,kkt_polar,kkt_total,"
              "err_z,dist_lambda,total_err,order")
SWEEP_HEADER = "parameter,value,status,iterations,final_kkt_total,min_order"
#: `ssqp solve` default tolerance.
CLI_TOL = 1e-12
CLI_BENCHMARKS = ("degenerate-line", "cone-active", "eigencontrol-n49")


class CliBatch(Workload):
    """A seeded list of `python -m ssqp` processes, run one at a time."""

    setup_in_wall = False
    children = True

    def __init__(self, seed, root, tiny=False) -> None:
        super().__init__(seed, root, tiny)
        #: When set, children run under the tracer and write summaries here.
        self.trace_dir: Path | None = None
        self.children_run = 0
        self.stdout_bytes = 0
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def process(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "ssqp", *args]
        else:
            out = self.trace_dir / f"child-{self.children_run:04d}.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                   str(out), *args]
        self.children_run += 1
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=60)
        self.stdout_bytes += len(proc.stdout.encode())
        return proc

    def setup(self) -> list[Op]:
        proc = self.process(["list"])
        if proc.returncode != 0 or proc.stdout.split() != list(CLI_BENCHMARKS):
            raise RuntimeError(f"`ssqp list` failed ({proc.returncode}): {proc.stderr[-500:]}")
        rng = self.rng(4)
        seeds = [str(s) for s in rng.integers(0, 2**31, 3)]
        sizes = (12, 16) if self.tiny else (150, 250)
        eig_n = 20 if self.tiny else 200
        x1, x2 = (float(v) for v in rng.uniform(-0.05, 0.05, 2))
        rhos = np.sort(rng.uniform(0.2, 5.0, 3))
        grid = ",".join(repr(float(r)) for r in rhos)
        sweep_grid = ",".join(str(s) for s in (sizes[0], (sizes[0] + sizes[1]) // 2, sizes[1]))
        deg = ["--benchmark", "degenerate-line"]
        eig = ["--benchmark", "eigencontrol-n49"]
        specs = [
            (["solve", *deg, "--start-offset", "random", "--seed", seeds[0]], _check_csv),
            (["solve", *deg, "--start-offset", "random", "--seed", seeds[1],
              "--output", "json"], _check_json),
            (["sweep", *eig, "--sweep", "n", "--grid", sweep_grid],
             lambda out: _check_sweep(out, sweep_grid)),
            (["diagnose", *eig, "--n", str(eig_n), "--seed", seeds[2]],
             lambda out: _check_diagnose(
                 out, oracles.eigencontrol_singular_values(eig_n),
                 *oracles.eigencontrol_margins(eig_n, [10.0**-k for k in range(1, 7)]))),
            (["diagnose", *deg, f"--start-offset={x1!r},{x2!r}", f"--grid={grid}"],
             lambda out: _check_diagnose(
                 out, oracles.degenerate_line_singular_values(x1),
                 *oracles.degenerate_line_margins(x1, rhos))),
        ]
        return [Op(run=lambda a=args: self.process(a),
                   verify=lambda proc, c=check: _cli_outcome(proc, c))
                for args, check in specs]

    def child_summaries(self) -> list[dict]:
        return [json.loads(path.read_text())
                for path in sorted(self.trace_dir.glob("child-*.json"))]


def _cli_outcome(proc, check) -> Outcome:
    if proc.returncode != 0:
        return Outcome(failed=f"exit code {proc.returncode}: {proc.stderr[-300:]}")
    try:
        its = check(proc.stdout)
    except (AssertionError, ValueError, KeyError, IndexError) as exc:
        return Outcome(wrong=f"{type(exc).__name__}: {exc}")
    return Outcome(its)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _check_csv(out: str) -> int:
    lines = out.splitlines()
    _require(lines[0] == CSV_HEADER, f"csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) >= 2 and all(len(r) == 10 for r in rows), "csv rows malformed")
    _require(float(rows[-1][5]) <= CLI_TOL, f"final kkt_total {rows[-1][5]}")
    return len(rows) - 1


def _check_json(out: str) -> int:
    payload = json.loads(out)
    _require(payload["status"] == "Converged", f"status {payload['status']}")
    hist = payload["history"]
    _require(hist[-1]["kkt_total"] <= CLI_TOL, f"final kkt_total {hist[-1]['kkt_total']}")
    return len(hist) - 1


def _check_sweep(out: str, grid: str) -> int:
    lines = out.splitlines()
    _require(lines[0] == SWEEP_HEADER, f"sweep header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    values = [float(v) for v in grid.split(",")]
    _require(len(rows) == len(values), "one sweep row per grid value")
    for row, value in zip(rows, values):
        _require(row[0] == "n" and float(row[1]) == value, f"sweep row {row[:2]}")
        _require(row[2] == "Converged", f"sweep status {row[2]} at n={value}")
    return sum(int(row[3]) for row in rows)


def _check_diagnose(out: str, svals: np.ndarray, margins: np.ndarray,
                    margin_tol: np.ndarray) -> int:
    payload = json.loads(out)
    deg = payload["degeneracy"]
    _require(deg["rcq_satisfied"] is False, "rcq_satisfied should be false")
    got = np.asarray(deg["singular_values"])
    _require(got.shape == svals.shape, f"{got.size} singular values, expected {svals.size}")
    err = float(np.abs(got - svals).max())
    _require(err <= oracles.DIAG_TOL * svals.max(), f"singular values off by {err:.2e}")
    got_m = np.asarray(payload["coercivity"]["margins"])
    _require(got_m.shape == margins.shape, f"{got_m.size} margins, expected {margins.size}")
    off = np.abs(got_m - margins) > margin_tol
    _require(not off.any(), f"coercivity margins {got_m[off]} != {margins[off]}")
    ratio = payload["error_estimate_ratio"]["value"]
    _require(ratio is not None and math.isfinite(ratio) and ratio > 0,
             f"error_estimate_ratio {ratio}")
    return 0


WORKLOADS = {
    "eigen-large": EigenLarge,
    "degenerate-batch": DegenerateBatch,
    "cone-many": ConeMany,
    "cli-batch": CliBatch,
}
