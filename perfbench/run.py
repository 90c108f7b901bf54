"""The colorlie benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a colorlie checkout; the program is taken from
./src.  Workloads are listed in workloads.py and BENCHMARK.json.

With --trace 0 the workload's jobs run pass after pass, each pass in a fresh
interpreter, while another pass still fits in S seconds (at least one pass).
Every output is checked.  Before the first pass and after each pass another
fresh interpreter times a fixed reference mix (reference.py).  The metrics
are the median pass wall time over the median reference time (the pass time
in reference units), items per reference unit at that median, the median of
SETUP_REPEATS fresh set-ups (import colorlie + load every spec), the largest
peak RSS of a pass process, and the share of items that passed their
checks.  The median pass wall time in seconds and items per second are
printed beside them.  With --trace 1 a fresh interpreter makes one untraced
pass, another makes one traced pass (tracer.py), and the metrics are the
per-layer totals plus the tracing overhead.  Of the last three stdout lines
the first is a readable summary, the second the environment and the third
the JSON result.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer        # noqa: E402
import workloads     # noqa: E402

SETUP_REPEATS = 7
# share of a pass's time spent timing the reference after it; at least
# REF_MIN timings each time, so every run gets some thirty of them
REF_SHARE = 0.1
REF_MIN = 3
DEADLINE_S = 170.0
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def _child_env(root, threads):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def _child(args, env, started):
    """Run child.py to completion and return its JSON summary."""
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("out of time before %s" % args[0])
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py")] + args,
            env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise BenchError("%s child ran out of time" % args[0])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s child failed (exit %d): %s"
                         % (args[0], proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def _reference(repeats, env, started):
    return _child(["reference", str(repeats)], env, started)["ref_s"]


def _fmt(value):
    return "%.6g" % value


def run(name, seed, seconds, trace, root):
    started = time.monotonic()
    problems = workloads.self_check()
    if problems:
        raise BenchError("output checks are broken: " + "; ".join(problems))
    # one BLAS/OpenMP thread: colorlie itself is single-threaded, and a
    # second thread on a shared host measures the neighbours
    threads = 1
    env = _child_env(root, threads)
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        jobs = workloads.write_specs(workloads.build(name, seed), work)
        jobs_file = os.path.join(work, "jobs.json")
        with open(jobs_file, "w") as fh:
            json.dump(jobs, fh)
        setups = [_child(["setup", jobs_file], env, started)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        passes = []
        measure = time.monotonic()
        refs = _reference(REF_MIN, env, started)
        while True:
            t0 = time.monotonic()
            passes.append(_child(["run", jobs_file], env, started))
            share = REF_SHARE * passes[-1]["wall_s"] / statistics.median(refs)
            refs += _reference(max(REF_MIN, round(share)), env, started)
            now = time.monotonic()
            if trace or now - measure + (now - t0) > seconds:
                break
        if trace:
            os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
            trace_file = os.path.join(root, OUT_DIR,
                                      "trace-%s-seed%d.json" % (name, seed))
            traced = _child(["run", jobs_file, trace_file], env, started)
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["items"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    plain = passes[:-1] if trace else passes
    wall = statistics.median(r["wall_s"] for r in plain)
    ref = statistics.median(refs)
    rel = wall / ref
    items = plain[0]["items"]
    e2e = {
        "wall_rel": (rel, "ref"),
        "items_per_ref": (items / rel, "1/ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in plain), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    info = {"workload": name, "seed": seed, "python": plain[0]["python"],
            "numpy": plain[0]["numpy"], "blas_threads": threads,
            "cores": len(os.sched_getaffinity(0)), "passes": len(plain),
            "pass_wall_s": [r["wall_s"] for r in plain],
            "ref_s": ref,
            "setup_runs_s": setups, "fail_ratio": failed / attempted}
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - wall
        metrics = {k: {"value": layers[k], "unit": tracer.unit_of(k)}
                   for k in tracer.metric_names()}
        info["trace_file"] = os.path.relpath(trace_file, root)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    shown = dict(e2e, wall_s=(wall, "s"), items_per_s=(items / wall, "1/s"))
    summary = "  ".join("%s=%s %s" % (k, _fmt(v), u)
                        for k, (v, u) in shown.items())
    summary += "  fail_ratio=%s (%d/%d items)" % (
        _fmt(failed / attempted), failed, attempted)
    print(summary)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and waits for its child and removes its
    # work directory: SystemExit unwinds through subprocess.run and finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "colorlie", "cli.py")):
        sys.stderr.write("perfbench: no colorlie sources under %s/src\n"
                         % root)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, args.trace, root)
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
