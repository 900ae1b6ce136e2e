"""Spans around the public functions of each ssqp layer, installed from outside.

`install(tracer)` replaces each traced function where its caller looks it
up (a module global, a class attribute or a property) and returns a
function that restores the originals.  The program itself is not edited.

A span is opened only when the innermost open span has another name, so a
layer that calls itself (``dual_norm_arr`` -> ``solve_mass``,
``get_benchmark`` -> ``make_eigencontrol``) counts once.  Spans are kept
in memory in flat arrays and written out when the run ends; totals per
span name (count, inclusive time, self time) are kept as spans close.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

#: Layers, named by the prefix of their span names, for the self-time split.
LAYERS = ("spaces", "model", "subproblem", "solver", "diagnostics", "bench",
          "cli", "perfbench")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [name, span index, child time]
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [count, inclusive, self]
        self.counters: dict[str, float] = {}
        self.op = -1

    def innermost(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run fn inside a span called `name` (merged into an open one)."""
        stack = self.stack
        if stack and stack[-1][0] == name:
            return fn(*args, **(kwargs or {}))
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        frame = [name, len(self.span_start), 0.0]
        self.span_name.append(sid)
        self.span_parent.append(stack[-1][1] if stack else -1)
        self.span_op.append(self.op)
        t0 = time.perf_counter()
        self.span_start.append(t0)
        self.span_end.append(t0)
        stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            self.span_end[frame[1]] = t1
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[2]
            if stack:
                stack[-1][2] += dur

    def wrap(self, name, fn, on_result=None, rename=None):
        """Traced stand-in for fn.

        `rename` maps the innermost open span's name to the name this call
        takes there; with a `rename` map, calls under other spans get
        `name`, or no span when `name` is None.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if rename is not None:
                span = rename.get(tracer.innermost(), name)
            if span is None:
                return fn(*args, **kwargs)
            result = tracer.call(span, fn, args, kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_by_layer(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.totals.items():
            out[name.split(".", 1)[0]] += self_s
        return out

    def total(self, name: str, field: int) -> float:
        tot = self.totals.get(name)
        return float(tot[field]) if tot is not None else 0.0

    def merge(self, totals: dict, counters: dict) -> None:
        """Add the totals and counters recorded by another process."""
        for name, (cnt, incl, self_s) in totals.items():
            tot = self.totals.setdefault(name, [0, 0.0, 0.0])
            tot[0] += cnt
            tot[1] += incl
            tot[2] += self_s
        for key, value in counters.items():
            if key.endswith("_max"):
                self.maximum(key, value)
            else:
                self.count(key, value)

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }


def install(tracer: Tracer):
    """Wrap the public functions of every ssqp layer; returns the undo."""
    import numpy.linalg
    import scipy.optimize

    from ssqp import bench, diagnostics, model, solver, spaces, subproblem

    undo: list = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                     else getattr(owner, attr)))
        setattr(owner, attr, new)

    def traced(owner, attr, name, **kw):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr), **kw))

    # spaces: Cholesky factor at construction, metric ops, dense M^{-1}
    traced(spaces, "cho_factor", "spaces.factor")
    ips = spaces.InnerProductSpace
    for attr in ("norm_arr", "dual_norm_arr", "solve_mass"):
        traced(ips, attr, "spaces.metric")
    prop = ips.__dict__["inverse_mass"]
    patch(ips, "inverse_mass",
          property(tracer.wrap("spaces.inverse_mass", prop.fget)))

    # model: KKT residual and the user callbacks of every new ProblemDef
    callbacks = ("f", "grad_f", "G", "jac_G", "hess_L")
    init = model.ProblemDef.__init__

    def problem_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for cb in callbacks:
            setattr(self, cb, tracer.wrap("model.callback", getattr(self, cb)))

    patch(model.ProblemDef, "__init__", problem_init)
    traced(model.ProblemDef, "kkt_residual", "model.kkt",
           rename={"bench.build": "bench.certify"})

    # subproblem: saddle assembly (one per factorization) and the solves
    def assembled(A):
        dim = A.shape[0]
        tracer.maximum("subproblem.saddle_dim_max", dim)
        tracer.count("subproblem.factor_flops_computed", dim ** 3 / 3.0)
        tracer.count("subproblem.saddle_bytes_computed", 8.0 * dim * dim)

    traced(subproblem, "assemble_saddle_matrix", "subproblem.assemble",
           on_result=assembled)

    def solved(sol):
        tracer.count("subproblem.inner_iterations", sol.inner_iterations)

    for attr in ("solve_equality", "solve_cone"):
        traced(solver, attr, "subproblem.solve", on_result=solved)

    # solver: the outer loop and the rho rule
    def ran(report):
        tracer.count("solver.iterations", len(report.history) - 1)

    traced(solver, "run", "solver.run", on_result=ran)
    traced(solver, "rho_rule", "solver.rho_rule")

    # diagnostics: multiplier-set projection (with its lstsq subsets),
    # degeneracy report, coercivity margin, error-estimate ratio
    for owner in (solver, diagnostics):
        traced(owner, "multiplier_distance", "diagnostics.projection")
    lstsq = numpy.linalg.lstsq

    def counted_lstsq(*args, **kwargs):
        where = tracer.innermost()
        if where == "diagnostics.projection":
            tracer.count("diagnostics.lstsq_calls")
        elif where == "bench.build":
            return tracer.call("bench.certify", lstsq, args, kwargs)
        return lstsq(*args, **kwargs)

    patch(numpy.linalg, "lstsq", counted_lstsq)
    for owner in (bench, diagnostics):
        traced(owner, "degeneracy_report", "diagnostics.degeneracy")
    traced(diagnostics, "coercivity_margin", "diagnostics.coercivity")
    traced(diagnostics, "error_estimate_ratio", "diagnostics.error_ratio")

    # bench: builds, reference certification, independent oracles
    for attr in ("get_benchmark", "make_degenerate_line", "make_cone_instance",
                 "make_eigencontrol"):
        traced(bench, attr, "bench.build")
    traced(diagnostics.ReferenceSolution, "__post_init__", None,
           rename={"bench.build": "bench.certify"})
    traced(bench.BenchmarkProblem, "__post_init__", "bench.certify")
    traced(scipy.optimize, "minimize_scalar", "bench.oracle")
    traced(bench, "_cone_kkt_enumeration", "bench.oracle")

    def uninstall() -> None:
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the recorded totals (cli.* filled by callers)."""
    t = tracer.total
    c = tracer.counters.get
    solves = t("subproblem.solve", 0)
    runs = t("solver.run", 0)
    factorizations = t("subproblem.assemble", 0)
    return {
        "spaces.factor_s": t("spaces.factor", 1),
        "spaces.metric_calls": t("spaces.metric", 0),
        "spaces.metric_s": t("spaces.metric", 1),
        "spaces.inverse_mass_s": t("spaces.inverse_mass", 1),
        "model.kkt_calls": t("model.kkt", 0),
        "model.kkt_s": t("model.kkt", 1),
        "model.callback_s": t("model.callback", 1),
        "subproblem.solves": solves,
        "subproblem.factorizations": factorizations,
        "subproblem.patterns_per_solve": factorizations / solves if solves else 0.0,
        "subproblem.inner_iterations": c("subproblem.inner_iterations", 0.0),
        "subproblem.assemble_s": t("subproblem.assemble", 1),
        "subproblem.solve_s": t("subproblem.solve", 2),
        "subproblem.saddle_dim_max": c("subproblem.saddle_dim_max", 0.0),
        "subproblem.factor_flops_computed": c("subproblem.factor_flops_computed", 0.0),
        "subproblem.saddle_bytes_computed": c("subproblem.saddle_bytes_computed", 0.0),
        "solver.self_s": t("solver.run", 2),
        "solver.rho_rule_s": t("solver.rho_rule", 1),
        "solver.iterations_per_solve": (c("solver.iterations", 0.0) / runs
                                        if runs else 0.0),
        "diagnostics.projection_calls": t("diagnostics.projection", 0),
        "diagnostics.projection_s": t("diagnostics.projection", 1),
        "diagnostics.lstsq_calls": c("diagnostics.lstsq_calls", 0.0),
        "diagnostics.degeneracy_s": t("diagnostics.degeneracy", 1),
        "diagnostics.coercivity_s": t("diagnostics.coercivity", 1),
        "diagnostics.error_ratio_s": t("diagnostics.error_ratio", 1),
        "bench.build_s": t("bench.build", 1),
        "bench.certify_s": t("bench.certify", 1),
        "bench.oracle_s": t("bench.oracle", 1),
        "cli.main_s": t("cli.main", 2),
    }
