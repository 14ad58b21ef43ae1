"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/single_pass.py --workload NAME --seed N --mode MODE [--trace-out FILE]

MODE is ``setup`` (import and build the algebras only), ``full`` (a whole
timed pass) or ``traced`` (a whole pass with the per-layer wrappers
installed).  ``freehopf`` must be importable, for instance with
``PYTHONPATH=src``.  Prints one JSON object on its last line of output.

Caches start empty because the interpreter is new; nothing here reaches
into the package's private caches.
"""

import argparse
import json
import resource
import sys
import time

import tracing
import workloads


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "full", "traced"))
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import freehopf

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer, freehopf, tracing.package_modules(freehopf))
    units = workloads.setup(freehopf, args.workload, args.seed)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0}
    if args.mode != "setup":
        failures = []
        attempted, failed = workloads.run_units(units, failures.append)
        t2 = time.perf_counter()
        out.update(answer_s=t2 - t1, attempted=attempted, failed=failed,
                   failures=failures[:10])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
        out["absent"] = sorted(tracer.missing)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
