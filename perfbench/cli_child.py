"""Run one `ssqp` command line under the tracer (the traced cli-batch child).

    python3 perfbench/cli_child.py SUMMARY.json ARGS...

Times `import ssqp.cli` before anything else is imported, runs
`ssqp.cli.main(ARGS)` inside a `cli.main` span with every layer wrapped,
and writes the span totals, counters and spans to SUMMARY.json.
"""

import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import ssqp.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer, install

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        code = tracer.call("cli.main", ssqp.cli.main, (argv,))
    finally:
        uninstall()
        sys.stdout.flush()
        spans = tracer.spans()
        spans = {k: (v if k == "names" else v.tolist()) for k, v in spans.items()}
        import json

        with open(out, "w") as fh:
            json.dump({"import_s": import_s, "totals": tracer.totals,
                       "counters": tracer.counters, "spans": spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
