#!/usr/bin/env python3
"""vsr3d benchmark: end-to-end and per-layer timings of the real command line.

    python3 bench/run.py --workload upscale-qcif-full --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from a checkout of the repository; the program is imported from its
`src/`. Each workload's inputs are generated from the seed into
`.bench_out/`, then one client runs passes back to back (a closed loop)
until `--seconds` have gone by. A pass runs each of the workload's vsr3d
commands once, each in a fresh Python process with BLAS threads set to the
number of usable cores. After the timed region the outputs of every pass
are checked against float64 references, and one output is perturbed to
confirm the check catches it.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates traced
and untraced passes and reports the per-layer metrics of the traced ones,
plus the tracing overhead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Every run must end within 180 s; leave room for the checks after the loop.
PASS_DEADLINE_S = 140.0
END_TO_END = (("throughput_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("upscale-qcif-full", "train-full", "scan-720p")


class NoTimings(RuntimeError):
    """No pass produced usable timings, so no metric can be reported."""


@dataclass
class Pass:
    index: int
    traced: bool
    dir: Path
    results: dict   # command name -> worker result, plus the parent's "spawn" time


def run_command(command, pass_dir, index, traced, deadline) -> dict:
    """Run one vsr3d command in a fresh worker process."""
    result_path = pass_dir / f"{command.name}.result.json"
    job_path = pass_dir / f"{command.name}.job.json"
    job_path.write_text(json.dumps({
        "src": str(SRC), "argv": command.argv, "trace": traced, "run_id": index,
        "start_marker": command.start_marker, "end_marker": command.end_marker,
        "result": str(result_path)}), encoding="utf-8")
    with open(pass_dir / f"{command.name}.log", "w", encoding="utf-8") as log:
        spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(job_path)],
                                  stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return {"rc": "timeout", "spawn": spawn}
    if proc.returncode != 0 or not result_path.exists():
        return {"rc": f"worker exited {proc.returncode}", "spawn": spawn}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["spawn"] = spawn
    return result


def timed_ok(result) -> bool:
    """The command exited 0, ran the checkout's code, and every item closed."""
    return (result["rc"] == 0 and result["module"].startswith(str(SRC))
            and 0 < len(result["starts"]) == len(result["ends"])
            and all(e >= s for s, e in zip(result["starts"], result["ends"])))


def upper_percentile(values):
    """(q, value) of the highest whole percentile with at least ten samples
    above it (nearest rank), or None when there are too few samples."""
    n = len(values)
    q = (100 * (n - 10)) // n if n > 10 else 0
    if q < 51:
        return None
    rank = -(-q * n // 100)
    return q, sorted(values)[rank - 1]


def completed(passes, commands):
    return [p for p in passes if all(timed_ok(p.results[c.name]) for c in commands)]


def item_seconds(result):
    return [e - s for s, e in zip(result["starts"], result["ends"])]


def end_to_end(workload, commands, passes):
    """(metrics, report lines) over the passes whose commands all ran cleanly."""
    timed = completed(passes, commands)
    if not timed:
        raise NoTimings(f"{workload.name}: no pass completed")
    lines, work = [], 0.0
    for c in commands:
        items = [x for p in timed for x in item_seconds(p.results[c.name])]
        work += sum(items)
        lines.append((c.rate_name, len(timed) * c.units / sum(items), "1/s", ""))
        if c.latency_name:
            latency = [x * c.latency_scale for x in items]
            n = f"n={len(latency)}"
            lines.append((f"{c.latency_name}_p50", statistics.median(latency), c.latency_unit, n))
            tail = upper_percentile(latency)
            lines.append((f"{c.latency_name}_p{tail[0]}", tail[1], c.latency_unit, n) if tail else
                         (f"{c.latency_name}_tail", float("nan"), c.latency_unit,
                          n + ": no percentile has 10 samples above it"))
    latency_ms = [x * 1e3 for p in timed for x in item_seconds(p.results[commands[0].name])]
    setups = [sum(p.results[c.name]["starts"][0] - p.results[c.name]["spawn"] for c in commands)
              for p in timed]
    rss = [max(p.results[c.name]["rss_mb"] for c in commands) for p in timed]
    metrics = {"throughput_per_s": len(timed) * workload.units / work,
               "latency_p50_ms": statistics.median(latency_ms),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    lines += [("setup_s", metrics["setup_s"], "s", f"median of {len(setups)}"),
              ("peak_rss_mb", metrics["peak_rss_mb"], "MB", f"median of {len(rss)}")]
    return metrics, lines


def per_layer(workload, commands, passes):
    import layers

    traced = completed([p for p in passes if p.traced], commands)
    untraced = [p for p in passes if not p.traced]
    if not traced or not untraced:
        raise NoTimings(f"{workload.name}: need a traced and an untraced pass")
    out = layers.median_metrics(
        [layers.pass_metrics([p.results[c.name]["spans"] for c in commands]) for p in traced])
    out["tensor_core.gemm_ceiling_gflops"] = layers.gemm_ceiling_gflops()
    plain = end_to_end(workload, commands, untraced)[0]["throughput_per_s"]
    slow = end_to_end(workload, commands, traced)[0]["throughput_per_s"]
    out["trace_overhead_pct"] = (plain / slow - 1.0) * 100.0
    return out, {name: unit for name, unit, _ in layers.METRICS}


def run_workload(name, seed, seconds, trace, machine) -> dict:
    from workloads import WORKLOADS

    start = time.perf_counter()
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    workload = WORKLOADS[name](seed, run_dir / "inputs")
    workload.generate()
    generate_s = time.perf_counter() - start

    commands = workload.commands(run_dir)   # names, markers and units; same every pass
    passes, pass_s = [], []
    t0 = time.perf_counter()
    deadline = start + PASS_DEADLINE_S
    while time.perf_counter() < deadline:
        # start another pass only if its first half would fall inside
        # `seconds`; a traced run also needs a traced and an untraced pass
        expected_end = time.perf_counter() - t0 + statistics.mean(pass_s or [0]) / 2
        if (passes and expected_end >= seconds
                and (not trace or {p.traced for p in passes} == {True, False})):
            break
        p = Pass(len(passes), trace and len(passes) % 2 == 0, run_dir / f"pass{len(passes)}", {})
        p.dir.mkdir()
        pass_start = time.perf_counter()
        for command in workload.commands(p.dir):
            p.results[command.name] = run_command(command, p.dir, p.index, p.traced, deadline)
        pass_s.append(time.perf_counter() - pass_start)
        passes.append(p)
    measured_s = time.perf_counter() - t0

    # outside the timed region: check every output, then the check itself
    workload.reference()
    attempted = failed = 0
    checked = None
    for p in passes:
        pass_ok = True
        for c in commands:
            ok = timed_ok(p.results[c.name]) and workload.check(p.dir, c.name)
            if not ok:
                rc = p.results[c.name]["rc"]
                why = "its output check" if rc == 0 else f"with exit status {rc}"
                print(f"bench: {name} pass {p.index}: {c.name} failed {why}", file=sys.stderr)
            attempted += 1
            failed += not ok
            pass_ok &= ok
        if pass_ok and checked is None:
            checked = p
    caught = checked is not None and workload.self_test(checked.dir)

    e2e, lines = end_to_end(workload, commands, passes)
    lines.append(("failed_frac", failed / attempted, "", f"{failed} of {attempted} commands"))
    if trace:
        metrics, units = per_layer(workload, commands, passes)
    else:
        metrics, units = e2e, dict(END_TO_END)
    for metric, value, unit, note in lines:
        print(f"{name:18s} {metric:28s} {value:12.4f} {unit:4s} {note}")
    print(f"{name:18s} {'self_test_caught':28s} {str(caught):>12s}")
    print(f"{name:18s} {'inputs_generated_s':28s} {generate_s:12.4f} s    not in any metric")
    print(f"{name:18s} {'passes':28s} {len(passes):12d}      {measured_s:.1f} s measured")

    result = {"correct": failed == 0 and caught, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    for p in passes:
        shutil.rmtree(p.dir)
    shutil.rmtree(run_dir / "inputs")
    if trace:
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for p in passes:
                for c in commands:
                    for span in p.results[c.name].get("spans", []):
                        fh.write(json.dumps([c.name, *span]) + "\n")
    record = {**result, "machine": machine, "report": lines, "passes": len(passes)}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    return result


def machine_facts(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            **{var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vsr3d" / "__init__.py").is_file():
        print(f"bench: no vsr3d sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so set it before any import
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    machine = machine_facts(nproc)
    print("machine " + json.dumps(machine))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), machine)
                   for name in names}
    except NoTimings as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
