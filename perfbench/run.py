"""Benchmark of the freehopf engine on four workloads from the paper.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see workloads.py): axioms, confluence, verdicts, scan.

Every pass runs in a fresh single-threaded interpreter, so the package's
caches start empty and a pass pays for filling them, as ``freehopf suite``
and the acceptance gate do.  Passes run one at a time.

With ``--trace 0`` the run repeats a cycle of SETUPS_PER_PASS set-ups and
one whole pass, each in a fresh interpreter, for ``--seconds``: it runs at
least one cycle, and starts another only while a cycle of average length
would still end in time.  Spreading the set-ups over the run samples the
host's slow and fast phases alike.  It reports the end-to-end metrics:

  setup_s      median time from before ``import freehopf`` until the
               workload's algebras are built, over every set-up of the run
  answer_s     median time from the end of set-up to the last checked
               answer of a whole pass
  peak_rss_mb  largest peak resident set of any pass interpreter

With ``--trace 1`` it runs one untraced and one traced pass and reports
the per-layer metrics of tracing.py, plus ``trace.overhead_ratio``, the
traced ``answer_s`` over the untraced one.  Spans and aggregates of the
traced pass are written to ``.perfbench/``.

A wrong answer or a raised exception counts as a failed operation.  The
last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs every
workload in turn and prefixes each metric with the workload name.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUPS_PER_PASS = 4
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def environment():
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "load1": round(os.getloadavg()[0], 2),
    }


def run_pass(workload, seed, mode, trace_out=None):
    """Run one pass in a fresh interpreter and return its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    cmd = [sys.executable, str(HERE / "single_pass.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s pass of %s exceeded %d s" % (mode, workload, PASS_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s pass of %s failed (exit %d):\n%s"
                         % (mode, workload, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def measure(workload, seed, seconds):
    """End-to-end metrics of one workload, tracing off."""
    setups, passes = [], []
    start = time.perf_counter()
    while True:
        setups += [run_pass(workload, seed, "setup") for _ in range(SETUPS_PER_PASS)]
        passes.append(run_pass(workload, seed, "full"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setups + passes), "s"),
        "answer_s": (statistics.median(p["answer_s"] for p in passes), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes, {"setups": setups, "passes": passes}


def measure_traced(workload, seed):
    """Per-layer metrics of one workload from a traced pass."""
    OUT.mkdir(exist_ok=True)
    plain = run_pass(workload, seed, "full")
    traced = run_pass(workload, seed, "traced",
                      OUT / ("trace-%s-seed%d.json" % (workload, seed)))
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    name, unit, _ = tracing.OVERHEAD
    metrics[name] = (traced["answer_s"] / plain["answer_s"], unit)
    return metrics, [plain, traced], {"untraced": plain, "traced": traced}


def report_lines(workload, metrics, passes, raw):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    yield "%s: %d passes, %d answers attempted, %d failed" % (
        workload, len(passes), attempted, failed)
    for p in passes:
        for label in p["failures"]:
            yield "  FAILED %s" % label
    for name, (value, unit) in metrics.items():
        yield "  %-32s %14.6g %s" % (name, value, unit)
    absent = raw.get("traced", {}).get("absent")
    if absent:
        yield "  absent (target missing or changed): %s" % ", ".join(absent)
    if "traced" in raw:
        total = raw["traced"]["answer_s"]
        yield "  self-time share of the traced pass: " + ", ".join(
            "%s %.0f%%" % (layer, 100.0 * metrics[layer + ".self_s"][0] / total)
            for layer in tracing.LAYERS if layer + ".self_s" in metrics)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure whole passes for this long (default: one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "freehopf" / "__init__.py").is_file():
        print("error: no freehopf sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    env_start = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_metrics, all_passes, raw = {}, [], {}
    try:
        for name in names:
            if args.trace:
                metrics, passes, raw[name] = measure_traced(name, args.seed)
            else:
                metrics, passes, raw[name] = measure(name, args.seed, args.seconds)
            for line in report_lines(name, metrics, passes, raw[name]):
                print(line, flush=True)
            prefix = "" if len(names) == 1 else name + "."
            all_metrics.update((prefix + k, v) for k, v in metrics.items())
            all_passes += passes
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    env_end = environment()

    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in all_metrics.items()},
    }
    env = {"python": env_start["python"], "nproc": env_start["nproc"],
           "load1_start": env_start["load1"], "load1_end": env_end["load1"]}
    print("environment: python %(python)s, nproc %(nproc)d, "
          "1-min load %(load1_start).2f at start, %(load1_end).2f at end" % env)
    OUT.mkdir(exist_ok=True)
    record = OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    record.write_text(json.dumps({"args": vars(args), "environment": env,
                                  "result": result, "raw": raw}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
