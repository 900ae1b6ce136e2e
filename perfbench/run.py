"""Run one benchmark workload against the ssqp sources of this checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run repeats cycles, each one timed set-up followed by one round of the
workload's operations, until S seconds have passed; it checks every answer
against the independent oracles, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  A record of the run
with the machine, the raw samples and, when traced, the spans, goes to
`.perfbench-out/` in the checkout.  See README.md.
"""

import os

# One BLAS/OpenMP thread: with two, dense solves took twice as long and
# varied more.  Must be set before numpy is imported; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Tally:
    """Operations attempted, failed and wrong, with the timings of each cycle.

    A cycle is one set-up followed by one round of the operations it
    returned.  `op_times[i]` holds every timing of the round's i-th
    operation, one per cycle.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.setup_times: list[float] = []
        self.op_times: list[list[float]] = []
        self.round_walls: list[float] = []
        self.round_iterations: list[int] = []

    def play_round(self, ops, call=lambda i, run: run()) -> None:
        """One round; its wall time excludes the time spent checking."""
        start = time.perf_counter()
        checking = 0.0
        iterations = 0
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                result = call(i, op.run)
            except Exception as exc:  # an operation that raises has failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            t1 = time.perf_counter()
            if i == len(self.op_times):
                self.op_times.append([])
            self.op_times[i].append(t1 - t0)
            self.attempted += 1
            if error is None:
                outcome = op.verify(result)
                iterations += outcome.iterations
                error = outcome.failed
                if outcome.wrong is not None:
                    self.wrong.append(f"op {i}: {outcome.wrong}")
            if error is not None:
                self.failed += 1
                self.failures.append(f"op {i}: {error}")
            checking += time.perf_counter() - t1
        self.round_walls.append(time.perf_counter() - start - checking)
        self.round_iterations.append(iterations)

    def cycle(self, wl) -> None:
        t0 = time.perf_counter()
        ops = wl.setup()
        self.setup_times.append(time.perf_counter() - t0)
        self.play_round(ops)

    def cycles_for(self, wl, seconds: float) -> None:
        """Whole cycles until `seconds` have passed (at least one)."""
        start = time.perf_counter()
        while True:
            self.cycle(wl)
            if time.perf_counter() - start >= seconds:
                return

    def cycle_walls(self, wl) -> list[float]:
        """Each cycle's wall time, counting its set-up where the job has one."""
        return [r + (s if wl.setup_in_wall else 0.0)
                for s, r in zip(self.setup_times, self.round_walls)]

    def round_rates(self) -> list[float]:
        """Operations per second of operation time, one value per round."""
        return [len(self.op_times) / sum(times[k] for times in self.op_times)
                for k in range(len(self.round_walls))]


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measured_run(wl, seconds: float) -> tuple[Tally, dict, dict]:
    """End-to-end metrics, each a median over the run's cycles or operations.

    This machine's speed drifts between two levels about 1.7x apart in
    stretches of seconds to minutes; a median over several cycles follows
    the level that held for most of the run (README, "Noise")."""
    tally = Tally()
    tally.cycles_for(wl, seconds)
    metrics = {
        "setup_s": (statistics.median(tally.setup_times), "s"),
        "wall_s": (statistics.median(tally.cycle_walls(wl)), "s"),
        "solve_s_p50": (statistics.median(t for ts in tally.op_times for t in ts), "s"),
        "solves_per_s": (statistics.median(tally.round_rates()), "1/s"),
        "iterations": (statistics.median(tally.round_iterations), "count"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    return tally, metrics, {}


def traced_run(wl, seconds: float, spans_path: Path) -> tuple[Tally, dict, dict]:
    """Untraced cycles for the baseline, then one traced cycle."""
    import numpy as np
    from tracer import Tracer, install, layer_metrics

    tally = Tally()
    tally.cycles_for(wl, seconds / 2)
    untraced_wall = statistics.median(tally.round_walls)

    tracer = Tracer()
    if wl.children:
        wl.trace_dir = OUT_DIR / f"{spans_path.stem}-children"
        wl.trace_dir.mkdir(parents=True, exist_ok=True)
        for old in wl.trace_dir.glob("child-*.json"):
            old.unlink()
        wl.stdout_bytes = 0
    uninstall = install(tracer)
    try:
        ops = tracer.call("perfbench.setup", wl.setup)
        setup_split = tracer.self_by_layer()

        def in_op(i, run):
            tracer.op = i
            return tracer.call("perfbench.op", run)

        tally.play_round(ops, call=in_op)
    finally:
        uninstall()
    import_s = stdout_bytes = 0.0
    if wl.children:
        for child in wl.child_summaries():
            tracer.merge(child["totals"], child["counters"])
            import_s += child["import_s"]
        stdout_bytes = float(wl.stdout_bytes)
    job_split = tracer.self_by_layer()
    metrics = {name: (value, _layer_unit(name))
               for name, value in layer_metrics(tracer).items()}
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.overhead_pct"] = (
        100.0 * (tally.round_walls[-1] / untraced_wall - 1.0), "%")
    np.savez_compressed(spans_path, **tracer.spans())
    samples = {
        "traced_round_wall": tally.round_walls[-1],
        "self_s_by_layer": {
            "setup": setup_split,
            "round": {k: job_split[k] - setup_split[k] for k in job_split},
        },
        "spans_file": spans_path.name,
    }
    return tally, metrics, samples


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_computed"):
        return "flop" if "flops" in name else "bytes"
    if name.endswith("_max"):
        return "rows"
    if "_per_" in name:
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ssqp" / "__init__.py").is_file():
        print(f"error: no ssqp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import ssqp

    if Path(ssqp.__file__).resolve().parent != (src / "ssqp").resolve():
        print(f"error: imported ssqp from {ssqp.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    if args.trace:
        tally, metrics, samples = traced_run(wl, args.seconds, OUT_DIR / f"{stem}.npz")
    else:
        tally, metrics, samples = measured_run(wl, args.seconds)
    elapsed = time.perf_counter() - started

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    machine = machine_info()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": elapsed, "machine": machine,
        "result": result, "wrong": tally.wrong[:50], "failures": tally.failures[:50],
        "setup_times": tally.setup_times, "round_walls": tally.round_walls,
        "round_iterations": tally.round_iterations, "op_times": tally.op_times,
        **samples,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for line in tally.wrong[:10] + tally.failures[:10]:
        print(f"problem: {line}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
