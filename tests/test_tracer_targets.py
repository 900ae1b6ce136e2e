"""The benchmark tracer (perfbench/tracer.py) wraps ssqp functions by name,
from outside the package.  Renaming or removing one of them breaks the
traced benchmark run; this test catches that in the tier-1 suite.  It
installs the tracer, solves and builds under it, uninstalls it and checks
that every patched attribute is the original again."""

import importlib.util
from pathlib import Path

import numpy as np
import numpy.linalg
import scipy.optimize

from ssqp import bench, diagnostics, model, solver, spaces, subproblem

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: everything whose attributes the tracer may replace
OWNERS = (
    spaces, model, subproblem, solver, diagnostics, bench, numpy.linalg,
    scipy.optimize, spaces.InnerProductSpace, model.ProblemDef,
    diagnostics.ReferenceSolution, bench.BenchmarkProblem,
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def attributes():
    return [dict(vars(owner)) for owner in OWNERS]


def changed(before, after):
    return {(owner.__name__, key)
            for owner, old, new in zip(OWNERS, before, after, strict=True)
            for key, value in old.items() if new.get(key) is not value}


def solve_degenerate_line():
    bm = bench.get_benchmark("degenerate-line")
    report = solver.run(bm.problem, *bm.default_start(),
                        reference=bm.reference)
    return report.status, len(report.history), report.history[-1].total_err


def test_tracer_patches_and_restores_its_targets():
    tracing = load_tracer()
    expected = solve_degenerate_line()
    before = attributes()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        patched = changed(before, attributes())
        assert solve_degenerate_line() == expected
        bench.make_eigencontrol(n=20)
        factored_before = tracer.totals.get("spaces.factor", [0])[0]
        # dense metrics are the ones factored by spaces.cho_factor
        bench.make_degenerate_line(np.array([[2.0, 0.5], [0.5, 1.0]]),
                                   np.array([[1.0, -0.3], [-0.3, 3.0]]))
    finally:
        uninstall()
    assert changed(before, attributes()) == set()
    assert {("ssqp.solver", "rho_rule"), ("ssqp.solver", "multiplier_distance"),
            ("ssqp.solver", "run")} <= patched
    for span in ("solver.run", "solver.rho_rule", "diagnostics.projection",
                 "subproblem.solve", "model.kkt", "spaces.metric",
                 "bench.build"):
        assert tracer.totals[span][0] > 0, span
    # the two dense metrics, each factored once and timed as spaces.factor
    factored = tracer.totals["spaces.factor"]
    assert factored[0] - factored_before == 2
    assert factored[1] > 0.0
