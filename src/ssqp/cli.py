"""Batch command-line front end.

Subcommands: ``solve`` (one run, iterate table to stdout), ``sweep``
(grid over one parameter, one summary row per grid point), ``diagnose``
(degeneracy, coercivity and error-estimate JSON) and ``list``.

Configuration comes from an INI-style file (sections [run], [options],
[metric], [eigencontrol]) overridden by flags; flags win.  Tables use
scientific notation with 16 significant digits so that convergence-order
post-processing is reproducible.  Exit codes: 0 converged, 1 bad
configuration or usage, 2 iteration limit, 3 subproblem failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bench, diagnostics, solver
from .spaces import mass_from_spec

CSV_HEADER = (
    "k,rho,kkt_stationarity,kkt_feasibility,kkt_polar,kkt_total,"
    "err_z,dist_lambda,total_err,order"
)
SWEEP_HEADER = "parameter,value,status,iterations,final_kkt_total,min_order"

_EXIT_BY_STATUS = {
    solver.SolveStatus.CONVERGED: 0,
    solver.SolveStatus.MAX_ITER: 2,
    solver.SolveStatus.SUBPROBLEM_FAILURE: 3,
}

_DIAGNOSE_RHO_GRID = [10.0**-k for k in range(1, 7)]


#: --rho-rule choices, each building its solver rule from the run settings
RHO_RULES = {
    "proportional": lambda cfg: solver.ErrorProportional(theta=cfg.theta),
    "fixed": lambda cfg: solver.Fixed(rho=cfg.rho),
    "oracle": lambda cfg: solver.TrueErrorOracle(sigma0=cfg.sigma0),
}

class ConfigError(ValueError):
    pass


def _setting(section: str, default, choices=None, flag: bool = True,
             kind: type | None = None, auto: bool = False):
    """A RunConfig field read from `[section]` of the INI file and, when
    `flag`, from the --flag of the same name.  Its type is `kind`, else
    the default's, else str; with `auto` the INI value `auto` leaves the
    default."""
    kind = kind or (str if default is None else type(default))
    return field(default=default, metadata={
        "section": section, "kind": kind, "choices": choices, "flag": flag,
        "auto": auto,
    })


@dataclass
class RunConfig:
    """Every run setting, declared once, in --help order."""

    benchmark: str = _setting("run", "degenerate-line")
    rho_rule: str = _setting("options", "proportional", choices=list(RHO_RULES))
    theta: float = _setting("options", 1.0)
    rho: float = _setting("options", 0.05)
    sigma0: float = _setting("options", 1.0)
    sigma1: float = _setting("options", 1.0)
    tol: float = _setting("options", 1e-12)
    max_iter: int = _setting("options", 50)
    start_offset: str = _setting("run", "default")
    lambda0: str = _setting("run", "auto")
    output: str = _setting("run", "csv", choices=["csv", "json"])
    seed: int = _setting("run", 0)
    mass_z: str | None = _setting("metric", None, flag=False)
    mass_y: str | None = _setting("metric", None, flag=False)
    # None: the benchmark's own default
    n: int | None = _setting("eigencontrol", None, kind=int)
    alpha: float | None = _setting("eigencontrol", None, kind=float)
    q_d: float | None = _setting("eigencontrol", None, kind=float, auto=True)
    u_d_mode: int | None = _setting("eigencontrol", None, kind=int)
    u_d_amp: float | None = _setting("eigencontrol", None, kind=float)


def fmt(value) -> str:
    """Table cell: strings and integers as they are, other numbers with 16
    significant digits in scientific notation, empty for missing values."""
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{float(value):.15e}"


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(";", ",").split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"could not parse vector {text!r}") from exc


#: how a parse error names the type of a numeric setting
_KIND_NAMES = {int: "an int", float: "a float"}


def _parse_setting(section: str, key: str, text: str, kind: type):
    """The INI value `text` of `[section] key` as a `kind`."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key} = {text!r} is not {_KIND_NAMES[kind]}"
        ) from None


def load_config(path: str | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for f in fields(RunConfig):
        section = f.metadata["section"]
        if not parser.has_option(section, f.name):
            continue
        text = parser[section][f.name]
        if f.metadata["auto"] and text.strip().lower() == "auto":
            continue
        value = _parse_setting(section, f.name, text, f.metadata["kind"])
        choices = f.metadata["choices"]
        if choices is not None and value not in choices:
            raise ConfigError(
                f"[{section}] {f.name} = {value!r} is not one of: "
                f"{', '.join(choices)}"
            )
        setattr(cfg, f.name, value)
    return cfg


def apply_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def build_benchmark(cfg: RunConfig) -> bench.BenchmarkProblem:
    if cfg.benchmark not in bench.list_benchmarks():
        raise ConfigError(f"unknown benchmark {cfg.benchmark!r}; "
                          f"available: {', '.join(bench.list_benchmarks())}")
    overrides: dict = {}
    if cfg.mass_z or cfg.mass_y:
        if cfg.benchmark != "degenerate-line":
            raise ConfigError(f"benchmark {cfg.benchmark!r} has a fixed metric")
        if cfg.mass_z:
            overrides["mass_z"] = mass_from_spec(cfg.mass_z, dim=2)
        if cfg.mass_y:
            overrides["mass_y"] = mass_from_spec(cfg.mass_y, dim=2)
    if cfg.benchmark.startswith("eigencontrol"):
        for f in fields(RunConfig):
            value = getattr(cfg, f.name)
            if f.metadata["section"] == "eigencontrol" and value is not None:
                overrides[f.name] = value
    try:
        return bench.get_benchmark(cfg.benchmark, **overrides)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def make_options(cfg: RunConfig) -> solver.SolverOptions:
    if cfg.rho_rule not in RHO_RULES:
        raise ConfigError(f"unknown rho rule {cfg.rho_rule!r}")
    try:
        return solver.SolverOptions(
            tol=cfg.tol, max_iter=cfg.max_iter,
            rho_rule=RHO_RULES[cfg.rho_rule](cfg), sigma1=cfg.sigma1,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def offset_spec(cfg: RunConfig) -> str:
    """The start_offset setting, stripped, with the empty value read as
    `default`."""
    return cfg.start_offset.strip() or "default"


def resolve_offset(bm: bench.BenchmarkProblem, cfg: RunConfig,
                   radius: float | None = None) -> np.ndarray:
    """The configured offset from the reference point: the benchmark's
    default (`default` or an empty value, see `offset_spec`), a direction
    drawn from the seed at Z-norm `radius` (the certified radius if
    None), or the given vector; with a `radius`, the default and the
    vector are rescaled to that norm."""
    Z = bm.problem.Z
    spec = offset_spec(cfg)
    if spec == "default":
        offset = bm.default_start_offset.copy()
    elif spec == "random":
        rng = np.random.default_rng(cfg.seed)
        direction = rng.standard_normal(Z.dim)
        direction /= Z.norm_arr(direction)
        return (radius if radius is not None else bm.certified_radius) * direction
    else:
        offset = _parse_vector(spec)
        if offset.size != Z.dim:
            raise ConfigError(f"start offset has size {offset.size}, expected {Z.dim}")
    if radius is not None:
        norm = Z.norm_arr(offset)
        if norm > 0:
            offset = offset * (radius / norm)
    return offset


def resolve_start(bm: bench.BenchmarkProblem, cfg: RunConfig,
                  radius: float | None = None):
    """z0 and lambda0 from the config's start specification."""
    problem = bm.problem
    base = (bm.reference.z_star.coords if bm.reference is not None
            else np.zeros(problem.Z.dim))
    z0 = problem.Z.vector(base + resolve_offset(bm, cfg, radius))
    lam_spec = cfg.lambda0.strip()
    if lam_spec == "auto":
        lam0 = problem.Y.functional(bm.default_lambda0)
    else:
        coeffs = _parse_vector(lam_spec)
        if coeffs.size != problem.Y.dim:
            raise ConfigError(
                f"lambda0 has size {coeffs.size}, expected {problem.Y.dim}"
            )
        lam0 = problem.Y.functional(coeffs)
    return z0, lam0


def _row(header: str, values) -> dict:
    """One table row, keyed by the columns of `header` in order."""
    return dict(zip(header.split(","), values, strict=True))


def _print_rows(header: str, rows: list[dict]) -> None:
    """CSV table: the header, then each row's cells in header order."""
    print(header)
    for row in rows:
        print(",".join(fmt(row[name]) for name in header.split(",")))


def _history_fields(report: solver.SolveReport) -> list[dict]:
    return [
        _row(CSV_HEADER, (
            rec.k, rec.rho, rec.kkt.stationarity, rec.kkt.feasibility,
            rec.kkt.polar_violation, rec.kkt.total, rec.err_z,
            rec.dist_lambda, rec.total_err, rec.order,
        ))
        for rec in report.history
    ]


def _run(cfg: RunConfig, radius: float | None = None):
    """Build the configured benchmark and solve it from the configured
    start; returns the benchmark and the report."""
    bm = build_benchmark(cfg)
    opts = make_options(cfg)
    z0, lam0 = resolve_start(bm, cfg, radius=radius)
    return bm, solver.run(bm.problem, z0, lam0, opts, reference=bm.reference)


def cmd_solve(cfg: RunConfig) -> int:
    bm, report = _run(cfg)
    rows = _history_fields(report)
    if cfg.output == "json":
        payload = {
            "benchmark": bm.name,
            "status": report.status.value,
            "observed_orders": report.observed_orders,
            "gamma_hat": report.gamma_hat,
            "history": rows,
        }
        print(json.dumps(payload, indent=2))
    else:
        _print_rows(CSV_HEADER, rows)
    if report.status is solver.SolveStatus.SUBPROBLEM_FAILURE:
        _log(f"subproblem failure at iteration {report.failure_index}: "
             f"{report.failure_message}")
    return _EXIT_BY_STATUS[report.status]


def _sweep_n(cfg: RunConfig, value: float) -> tuple[RunConfig, None]:
    if not cfg.benchmark.startswith("eigencontrol"):
        raise ConfigError("sweep over n applies to eigencontrol benchmarks")
    if not float(value).is_integer():
        raise ConfigError(f"sweep over n takes integer grid values, got {value!r}")
    return replace(cfg, n=int(value)), None


#: --sweep choices, each mapping the settings and one grid value to the
#: row's settings and its start radius (None keeps the configured start)
SWEEPS = {
    "theta": lambda cfg, v: (replace(cfg, rho_rule="proportional", theta=v), None),
    "rho_fixed": lambda cfg, v: (replace(cfg, rho_rule="fixed", rho=v), None),
    "sigma1": lambda cfg, v: (replace(cfg, sigma1=v), None),
    "start_radius": lambda cfg, v: (cfg, v),
    "n": _sweep_n,
}


def _sweep_row(cfg: RunConfig, parameter: str, value: float) -> dict:
    _, report = _run(*SWEEPS[parameter](cfg, value))
    # the smaller of the run's last two observed orders (not necessarily
    # from its last steps: stencils near the resolution floor are skipped)
    tail = report.observed_orders[-2:]
    return _row(SWEEP_HEADER, (
        parameter, value, report.status.value, len(report.history) - 1,
        report.history[-1].kkt.total, min(tail) if tail else None,
    ))


def cmd_sweep(cfg: RunConfig, parameter: str, grid: list[float]) -> int:
    if not grid:
        raise ConfigError("sweep grid is empty")
    rows = [_sweep_row(cfg, parameter, value) for value in grid]
    if cfg.output == "json":
        print(json.dumps({"sweep": parameter, "rows": rows}, indent=2))
    else:
        _print_rows(SWEEP_HEADER, rows)
    return 0


def cmd_diagnose(cfg: RunConfig, rho_grid: list[float] | None = None) -> int:
    bm = build_benchmark(cfg)
    problem = bm.problem
    if bm.reference is not None:
        point = bm.reference.z_star
    else:
        point = problem.Z.zero_vector()
    if offset_spec(cfg) != "default":  # else the point itself
        point = problem.Z.vector(point.coords + resolve_offset(bm, cfg))
    rep = diagnostics.degeneracy_report(problem, point)
    lam = (bm.reference.lambda_star if bm.reference is not None
           else problem.Y.zero_functional())
    H = problem.hess_L(point, lam)
    J = problem.jac_G(point)
    grid = rho_grid if rho_grid else _DIAGNOSE_RHO_GRID
    margins = diagnostics.coercivity_margin(H, J, problem.Z, problem.Y, grid)
    if bm.reference is not None:
        rng = np.random.default_rng(cfg.seed)
        radius = 0.5 * bm.certified_radius
        samples = []
        for _ in range(100):
            dz = rng.standard_normal(problem.Z.dim)
            dz *= radius * rng.uniform(0.1, 1.0) / problem.Z.norm_arr(dz)
            dl = rng.standard_normal(problem.Y.dim)
            dl *= radius * rng.uniform(0.1, 1.0) / problem.Y.dual_norm_arr(dl)
            samples.append((
                problem.Z.vector(bm.reference.z_star.coords + dz),
                problem.Y.functional(bm.reference.lambda_star.coeffs + dl),
            ))
        ratio = diagnostics.error_estimate_ratio(bm.reference, problem, samples)
        ratio_payload = {"value": ratio, "note": None}
    else:
        ratio_payload = {
            "value": None,
            "note": "no certified reference solution for this benchmark",
        }
    payload = {
        "benchmark": bm.name,
        "degeneracy": {
            "singular_values": list(rep.singular_values),
            "rank_tol": rep.rank_tol,
            "rcq_satisfied": rep.rcq_satisfied,
        },
        "coercivity": {"rho_grid": list(grid), "margins": margins},
        "error_estimate_ratio": ratio_payload,
        "notes": bm.notes,
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssqp",
        description="Stabilized SQP batch solver and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="INI configuration file")
        for f in fields(RunConfig):
            if f.metadata["flag"]:
                p.add_argument("--" + f.name.replace("_", "-"), default=None,
                               type=f.metadata["kind"], choices=f.metadata["choices"])

    solve_p = sub.add_parser("solve", help="run one solve, emit iterate table")
    add_common(solve_p)

    sweep_p = sub.add_parser("sweep", help="grid sweep over one parameter")
    add_common(sweep_p)
    sweep_p.add_argument("--sweep", required=True, choices=list(SWEEPS))
    sweep_p.add_argument("--grid", required=True,
                         help="comma-separated grid values")

    diag_p = sub.add_parser("diagnose", help="degeneracy and coercivity report")
    add_common(diag_p)
    diag_p.add_argument("--grid", default=None,
                        help="rho grid for the coercivity margins")

    sub.add_parser("list", help="list registered benchmarks")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is the iteration-limit
        # code here; --help (0) passes through
        if exc.code == 2:
            return 1
        raise
    if args.command == "list":
        for name in bench.list_benchmarks():
            print(name)
        return 0
    # a library warning is one stderr line, without a source location
    shown = warnings.showwarning
    warnings.showwarning = lambda message, *_: _log(f"warning: {message}")
    try:
        cfg = apply_flags(load_config(args.config), args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.sweep, _parse_vector(args.grid).tolist())
        if args.command == "diagnose":
            grid = _parse_vector(args.grid).tolist() if args.grid else None
            return cmd_diagnose(cfg, grid)
    except (ValueError, KeyError) as exc:
        _log(f"error: {exc}")
        return 1
    finally:
        warnings.showwarning = shown
    raise AssertionError("unreachable command dispatch")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
