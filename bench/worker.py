"""Run one vsr3d command in this fresh process and record its timings.

Usage: python3 bench/worker.py JOB.json

The job names the source tree, the command line, the spawn time taken by the
parent just before starting this process, two item markers and whether to
trace. A marker is a function looked up in one module: the start marker
records when each call begins, the end marker when each call returns, so
item k spans starts[k]..ends[k]. time.perf_counter reads CLOCK_MONOTONIC on
Linux, which is shared between processes, so the parent's spawn time and
this process's times are on one clock.

The result (exit code, marker times, peak RSS, spans if traced) goes to the
job's result path as JSON.
"""

import json
import resource
import sys
import time
import traceback


def _marker(fn, times, at_return):
    clock = time.perf_counter

    def marked(*args, **kwargs):
        if not at_return:
            times.append(clock())
        result = fn(*args, **kwargs)
        if at_return:
            times.append(clock())
        return result

    return marked


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import vsr3d.cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"])
        tracer.install()
    starts, ends = [], []
    for (mod, name), times, at_return in ((job["start_marker"], starts, False),
                                          (job["end_marker"], ends, True)):
        module = sys.modules[f"vsr3d.{mod}"]
        setattr(module, name, _marker(getattr(module, name), times, at_return))

    error = ""
    try:
        rc = vsr3d.cli.main(job["argv"])
    except Exception:  # a crash is a failed operation, reported to the parent
        rc, error = -1, traceback.format_exc()
    result = {
        "rc": rc, "error": error, "starts": starts, "ends": ends,
        "exit": time.perf_counter(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "module": vsr3d.cli.__file__,
        "spans": tracer.export() if tracer else [],
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
