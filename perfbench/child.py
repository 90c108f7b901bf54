"""One fresh interpreter of the colorlie benchmark; run.py starts it.

    python3 perfbench/child.py setup JOBS
    python3 perfbench/child.py run JOBS [TRACE_FILE]
    python3 perfbench/child.py reference REPEATS

`setup` times `import colorlie` plus `cli.load_spec` on every spec of the
workload.  `run` makes one pass: it drives `cli_main` in-process over the
workload's jobs, as a user running each command would, and checks every
output.  With TRACE_FILE the layer wrappers of tracer.py are installed for
the pass and the spans are written there.  `reference` times the fixed mix
of reference.py REPEATS times; it runs in an interpreter of its own, so
that it neither adds to a pass's peak memory nor meets colorlie's caches.
The last stdout line is a JSON summary.
"""

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def _setup(jobs):
    t0 = time.perf_counter()
    from colorlie import cli
    for job in jobs:
        cli.load_spec(job["path"])
    return {"setup_s": time.perf_counter() - t0}


def _one_pass(cli, jobs, check, tracer):
    wall = 0.0
    failed = items = 0
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.cli_main(job["cmd"])
            except Exception:               # a crash fails the job's items
                code = None
        wall += time.perf_counter() - t0
        text = out.getvalue()
        if tracer is not None:
            tracer.counts["cli.report_bytes"] += len(text.encode())
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        failed += check(job, code, report)
        items += job["items"]
    return wall, items, failed


def _run(jobs, trace_file):
    import numpy
    from colorlie import cli
    from workloads import check
    tracer = None
    if trace_file:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    wall, items, failed = _one_pass(cli, jobs, check, tracer)
    out = {"wall_s": wall, "items": items, "failed": failed,
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "python": sys.version.split()[0], "numpy": numpy.__version__}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(trace_file)
        out["layers"] = tracer.metrics()
    return out


def main(argv):
    mode = argv[0]
    if mode == "reference":
        from reference import reference_times
        out = {"ref_s": reference_times(int(argv[1]))}
    else:
        with open(argv[1]) as fh:
            jobs = json.load(fh)
        if mode == "setup":
            out = _setup(jobs)
        else:
            out = _run(jobs, argv[2] if len(argv) > 2 else None)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
