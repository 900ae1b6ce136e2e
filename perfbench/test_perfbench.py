"""Quick test of the benchmark itself: every workload at a tiny size, and
every check shown to fail when the answer it checks is perturbed.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ssqp import solver  # noqa: E402


def tiny(name: str):
    return workloads.WORKLOADS[name](seed=5, root=ROOT, tiny=True)


def played(ops):
    """(op, result) pairs for one round; every answer must pass."""
    pairs = []
    for op in ops:
        result = op.run()
        outcome = op.verify(result)
        assert outcome.failed is None and outcome.wrong is None, outcome
        pairs.append((op, result))
    return pairs


def with_final(report, z=None, lam=None, status=None):
    """A copy of a solve report with its last iterate or status replaced."""
    rep = copy.deepcopy(report)
    last = rep.history[-1]
    if z is not None:
        last.z.coords = np.asarray(z, dtype=float)
    if lam is not None:
        last.lam.coeffs = np.asarray(lam, dtype=float)
    if status is not None:
        rep.status = status
    return rep


def assert_solve_checks(op, rep, lam_free_direction, tol):
    """Moving z or leaving the multiplier set by 100 tol is wrong; moving
    along the multiplier set is not; a solve that did not converge has
    failed."""
    last = rep.history[-1]
    z, lam = last.z.coords, last.lam.coeffs
    dz = np.zeros_like(z)
    dz[0] = 100 * tol
    assert op.verify(with_final(rep, z=z + dz)).wrong
    off = np.zeros_like(lam)
    off[-1] = 100 * tol
    if lam_free_direction is not None:
        off -= (off @ lam_free_direction) / (lam_free_direction @ lam_free_direction) \
            * lam_free_direction
        along = lam + 0.3 * lam_free_direction
        assert op.verify(with_final(rep, lam=along)).wrong is None
    assert op.verify(with_final(rep, lam=lam + off)).wrong
    assert op.verify(with_final(rep, status=solver.SolveStatus.MAX_ITER)).failed


def test_eigen_large_checks():
    wl = tiny("eigen-large")
    (op, rep), = played(wl.setup())
    n = rep.history[-1].z.coords.size - 1
    phi = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
    assert_solve_checks(op, rep, phi, oracles.ERR_TOL)


def test_degenerate_batch_checks():
    pairs = played(tiny("degenerate-batch").setup())
    assert len(pairs) == 20
    for op, rep in pairs[:3]:
        # lambda1 + lambda2 = -1 is kept by moves along (1, -1)
        assert_solve_checks(op, rep, np.array([1.0, -1.0]), oracles.ERR_TOL)


def test_cone_many_checks():
    pairs = played(tiny("cone-many").setup())
    for op, rep in pairs:
        assert_solve_checks(op, rep, None, oracles.CONE_ERR_TOL)  # lambda* is unique


def test_cone_oracle_matches_enumeration():
    rng = np.random.default_rng(0)
    H = workloads._spd(rng, 4)
    gens = rng.standard_normal((4, 2))
    center = rng.standard_normal(4)
    x, lam, w = oracles.cone_solution(H, gens, center)
    # every support pattern: H-projection onto span of its generators
    best = None
    for support in ([], [0], [1], [0, 1]):
        G = gens[:, support]
        c = (np.linalg.solve(G.T @ H @ G, G.T @ H @ center) if support
             else np.zeros(0))
        if (c < 0).any():
            continue
        cand = G @ c if support else np.zeros(4)
        val = (cand - center) @ H @ (cand - center)
        if best is None or val < best[0]:
            best = (val, cand)
    np.testing.assert_allclose(x, best[1], atol=1e-12)
    assert np.all(gens.T @ lam <= 1e-12)  # lambda* lies in the polar cone


def replaced(proc, stdout=None, returncode=None):
    return subprocess.CompletedProcess(
        proc.args, proc.returncode if returncode is None else returncode,
        proc.stdout if stdout is None else stdout, proc.stderr)


def test_cli_batch_checks():
    wl = tiny("cli-batch")
    ops = wl.setup()
    (csv_op, csv), (json_op, js), (sweep_op, sweep), (eig_op, eig), (deg_op, deg) = \
        played(ops)

    assert csv_op.verify(replaced(csv, returncode=2)).failed
    assert csv_op.verify(replaced(csv, stdout=csv.stdout.replace("kkt_total", "kkt_sum"))).wrong
    rows = csv.stdout.splitlines()
    last = rows[-1].split(",")
    last[5] = "1.0e-06"
    assert csv_op.verify(replaced(csv, stdout="\n".join(rows[:-1] + [",".join(last)]))).wrong

    payload = json.loads(js.stdout)
    payload["status"] = "MaxIter"
    assert json_op.verify(replaced(js, stdout=json.dumps(payload))).wrong

    assert sweep_op.verify(replaced(sweep, stdout=sweep.stdout.replace(
        "Converged", "MaxIter", 1))).wrong
    assert sweep_op.verify(replaced(sweep, stdout=sweep.stdout.replace(
        "parameter,value", "param,value"))).wrong

    for op, proc in ((eig_op, eig), (deg_op, deg)):
        base = json.loads(proc.stdout)
        for mutate in (
            lambda p: p["degeneracy"].__setitem__("rcq_satisfied", True),
            lambda p: p["degeneracy"]["singular_values"].__setitem__(
                0, p["degeneracy"]["singular_values"][0] * (1 + 1e-5)),
            lambda p: p["coercivity"]["margins"].__setitem__(
                0, p["coercivity"]["margins"][0] * (1 + 1e-5)),
            lambda p: p["error_estimate_ratio"].__setitem__("value", None),
        ):
            payload = copy.deepcopy(base)
            mutate(payload)
            assert op.verify(replaced(proc, stdout=json.dumps(payload))).wrong


def test_margin_closed_forms_match_direct_eigensolve():
    import scipy.linalg

    n, rhos = 30, [1e-1, 1e-2]
    h = 1.0 / (n + 1)
    A = (np.diag(2.0 * np.ones(n)) - np.diag(np.ones(n - 1), 1)
         - np.diag(np.ones(n - 1), -1)) / h**2
    lam1 = oracles.fd_eigenvalues(n)[0]
    J = np.hstack([A - lam1 * np.eye(n), np.zeros((n, 1))])
    H = np.diag(np.r_[h * np.ones(n), 1.0])
    MZ = np.zeros((n + 1, n + 1))
    MZ[:n, :n] = h * (np.eye(n) + A @ A)
    MZ[n, n] = 1.0
    margins, tol = oracles.eigencontrol_margins(n, rhos)
    for r, m, t in zip(rhos, margins, tol):
        direct = scipy.linalg.eigh(H + J.T @ (h * J) / r, MZ, eigvals_only=True)[0]
        assert abs(direct - m) <= t
    Lz = np.linalg.cholesky(MZ)
    whitened = np.sqrt(h) * scipy.linalg.solve_triangular(Lz, J.T, lower=True).T
    np.testing.assert_allclose(np.linalg.svd(whitened, compute_uv=False),
                               oracles.eigencontrol_singular_values(n), atol=1e-9)


def test_tracer_restores_and_reports_every_layer_metric():
    from ssqp import model, spaces

    before = (solver.run, solver.multiplier_distance, np.linalg.lstsq,
              spaces.InnerProductSpace.__dict__["inverse_mass"],
              model.ProblemDef.__init__)
    tr = tracer.Tracer()
    uninstall = tracer.install(tr)
    try:
        ops = tr.call("perfbench.setup", tiny("degenerate-batch").setup)
        for op in ops[:3]:
            tr.call("perfbench.op", op.run)
    finally:
        uninstall()
    after = (solver.run, solver.multiplier_distance, np.linalg.lstsq,
             spaces.InnerProductSpace.__dict__["inverse_mass"],
             model.ProblemDef.__init__)
    assert all(a is b for a, b in zip(before, after))
    metrics = tracer.layer_metrics(tr)
    assert metrics["subproblem.solves"] > 0 and metrics["solver.self_s"] > 0
    assert metrics["diagnostics.lstsq_calls"] == 20  # one per certified reference
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = {name: run._layer_unit(name) for name in metrics}
    produced.update({"cli.import_s": "s", "cli.stdout_bytes": "bytes",
                     "trace.overhead_pct": "%"})
    assert declared == produced
    # self times add up to the traced spans' total duration
    split = tr.self_by_layer()
    outer = tr.total("perfbench.setup", 1) + tr.total("perfbench.op", 1)
    assert abs(sum(split.values()) - outer) < 1e-6 * max(outer, 1.0)


def test_run_refuses_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "degenerate-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert run.ROOT == ROOT
