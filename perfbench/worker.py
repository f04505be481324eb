"""One workload in one fresh interpreter: timed passes, checks, trace.

Started by run.py with the BLAS thread variables pinned to 1; refuses
to run otherwise, because numpy reads them only at import.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --probe

A pass runs every job of the workload once, back to back, and checks
each output.  Passes repeat until `--seconds` have elapsed (at least
`MIN_PASSES`).  With `--trace 1` untraced and traced passes alternate,
and the per-layer numbers come from the traced pass of median wall
time.  The result is one JSON object on the last line of stdout.
`--probe` only imports spqm (with numpy and scipy) and makes one tiny
call per layer, and prints how long that took: the set-up cost.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3


def run_pass(job_list, evaluate, tracer=None):
    """Run and check every job once; return the pass record.

    Warnings raised inside a job are counted, not printed: by layer
    through the tracer when there is one, else in total.  A job that
    raises is a failed job; the pass goes on with the next one.
    """
    counts = {"warnings": 0}

    def count_warning(*args, **kwargs):
        counts["warnings"] += 1
        if tracer is not None:
            tracer.record_warning()

    jobs_out = []
    start = time.perf_counter()
    for job in job_list:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count_warning
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = job.run()
                else:
                    with tracer.span("bench", job.name):
                        out = job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                elapsed = time.perf_counter() - t0
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                passed, detail = evaluate(job, out)
        jobs_out.append({"name": job.name, "time_s": elapsed,
                         "passed": passed, "detail": detail})
    wall = time.perf_counter() - start
    return {"wall_s": wall, "jobs": jobs_out, "warnings": counts["warnings"]}


def traced_pass(job_list, evaluate, tracer, summarize):
    tracer.install()
    tracer.reset()
    try:
        with tracer.span("bench", "pass") as root:
            record = run_pass(job_list, evaluate, tracer)
    finally:
        tracer.uninstall()
    layers = summarize(tracer)
    pass_s = root.end - root.start
    record["pass_s"] = pass_s
    record["layers"] = layers
    # Self times partition the root span: every layer's self time plus
    # the benchmark's own remainder must add back up to the pass time.
    covered = sum(v for k, v in layers.items()
                  if k.count(".") == 1 and k.endswith(".self_s"))
    record["closure_error_s"] = abs(covered - pass_s)
    return record


def steps_per_s(records, job_list):
    """Record steps drawn per second of time spent in the record jobs.

    Pooled over all the given passes: total steps over total time.
    """
    steps = {job.name: job.path_steps for job in job_list}
    mc = [j for r in records for j in r["jobs"] if steps[j["name"]]]
    seconds = sum(j["time_s"] for j in mc)
    return sum(steps[j["name"]] for j in mc) / seconds if seconds else 0.0


def environment(np, scipy):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    unpinned = [var for var in PINNED if os.environ.get(var) != "1"]
    if unpinned:
        sys.exit(f"worker: set {', '.join(unpinned)}=1 before starting it")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    start = time.perf_counter()
    import jobs

    jobs.warm_up()
    if args.probe:
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return

    import numpy as np
    import scipy

    from tracer import Tracer, summarize

    job_list = jobs.WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(job_list, jobs.evaluate))
        if tracer is not None:
            traced.append(traced_pass(job_list, jobs.evaluate, tracer,
                                      summarize))
        if (len(plain) >= MIN_PASSES
                and time.perf_counter() - start >= args.seconds):
            break

    records = plain + traced
    failures = [f"{j['name']}: {j['detail']}" for r in records
                for j in r["jobs"] if not j["passed"]]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(len(r["jobs"]) for r in records),
        "failed": len(failures),
        "failures": failures[:10],
        "warnings": sum(r["warnings"] for r in records),
        "pass_wall_s": [r["wall_s"] for r in plain],
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "path_steps_per_s": steps_per_s(plain, job_list),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": {j["name"]: {"median_time_s": statistics.median(
                     r["jobs"][i]["time_s"] for r in plain),
                     "path_steps": job_list[i].path_steps,
                     "detail": j["detail"]}
                 for i, j in enumerate(plain[-1]["jobs"])},
        "environment": environment(np, scipy),
    }
    if traced:
        # Per-layer numbers all come from one traced pass, the one of
        # median wall time, so that they add up to its pass time.
        ranked = sorted(traced, key=lambda r: r["pass_s"])
        median_pass = ranked[(len(ranked) - 1) // 2]
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        result["layers"] = median_pass["layers"]
        result["traced_pass_s"] = median_pass["pass_s"]
        result["traced_wall_s"] = traced_wall
        result["trace_overhead"] = traced_wall / result["wall_s"] - 1
        result["closure_error_s"] = max(r["closure_error_s"] for r in traced)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
