"""spqm benchmark: one workload per call, in fresh single-process interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/spqm.  The workload
itself runs in a child interpreter (worker.py) with OPENBLAS, OMP and
MKL threads pinned to 1; with `--trace 0` set-up is first timed over
`SETUP_LAUNCHES` fresh interpreters that only import the library and
warm it up.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  The full result, with its environment block, is written
to perfbench/results/.  Uses the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_LAUNCHES = 7
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def time_setup(env):
    """Set-up time reported by each of several fresh interpreters."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run([sys.executable, WORKER, "--probe"], env=env,
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=PROBE_TIMEOUT_S)
        times.append(json.loads(proc.stdout)["setup_s"])
    return times


def run_worker(args, env):
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("need --seed >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "spqm", "__init__.py")):
        fail(f"no spqm sources under {ROOT}/src; run from a source tree")

    env = dict(os.environ, **{var: "1" for var in PINNED})
    try:
        setup = [] if args.trace else time_setup(env)
        result = run_worker(args, env)
    except subprocess.CalledProcessError as exc:
        fail(f"{os.path.basename(exc.cmd[1])} exited with {exc.returncode}")
    except subprocess.TimeoutExpired as exc:
        fail(f"timed out after {exc.timeout} s")

    result["environment"].update(git_rev=git_rev(), seed=args.seed,
                                 passes=result["passes"],
                                 seconds=args.seconds)
    result["fail_ratio"] = result["failed"] / result["attempted"]
    correct = result["failed"] == 0
    if args.trace:
        # Self times of one pass must add back up to that pass's time.
        correct = correct and result["closure_error_s"] <= 1e-6
        declared = spec["per_layer"]
        values = dict(result["layers"], **{
            "trace.pass_s": result["traced_pass_s"],
            "trace.untraced_wall_s": result["wall_s"],
            "trace.overhead": result["trace_overhead"],
        })
        # A declared metric whose function no longer exists reads 0.
        result["absent_metrics"] = [m["name"] for m in declared
                                    if m["name"] not in values]
    else:
        declared = spec["end_to_end"]
        result["setup_launch_s"] = setup
        values = {"setup_s": statistics.median(setup),
                  "wall_s": result["wall_s"],
                  "path_steps_per_s": result["path_steps_per_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in declared}

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, correct=correct, metrics=metrics), fh,
                  indent=1)

    print(f"workload {args.workload}: seed {args.seed}, "
          f"{result['passes']} untraced + {result['traced_passes']} traced "
          f"passes, {result['attempted']} jobs, {result['failed']} failed, "
          f"fail_ratio {result['fail_ratio']:.3g}, "
          f"{result['warnings']} warnings")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        print(f"  tracing overhead {result['trace_overhead']:+.3f} "
              f"(traced / untraced median pass - 1)")
    else:
        for name, job in result["jobs"].items():
            print(f"  {name}: {job['median_time_s']:.3f} s; {job['detail']}")
    print(f"  environment {json.dumps(result['environment'])}")
    print(f"  full result in {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
