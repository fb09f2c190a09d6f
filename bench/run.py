"""cmetric benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the root of a checkout:

    python3 bench/run.py --workload nesting-bulk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30     # every workload, one table

``--trace 0`` runs the workload untraced in a fresh process and reports the
end-to-end metrics.  Set-up runs five times (two set-up-only processes before
the measured one and two after it) and ``setup_s`` is their median.
``--trace 1`` alternates untraced and traced processes, three of each, and
reports the per-layer metrics with the source of each, the ROADMAP baseline
table, and the tracing overhead (median of traced minus untraced over the
pairs) per end-to-end metric.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, output digests and failure notes, is printed before it and
written to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
# the keys of workloads.WORKLOADS; this process imports neither numpy nor cmetric
# (tracer.py imports cmetric only inside install)
WORKLOADS = ("nesting-bulk", "diameter-sampled", "solve-stream", "cli-invocations")
# Set-up-only processes per end-to-end run, half before the measured process
# and half after it, so that set-up is sampled at both ends of the run.
SETUP_ONLY_RUNS = 4
# A traced run alternates this many untraced and traced processes.
TRACE_PAIRS = 3

# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p75_ms": ("ms", "lower"),
    "peak_mem_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# One thread for BLAS and OpenMP: the numbers measure cmetric, not the scheduler.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class BenchError(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    # cmetric is not installed: it runs from the checkout's src directory
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root: str, workload: str, seed: int, seconds: float, mode: str,
              layer_pass: bool = False) -> dict:
    argv = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--mode", mode, *(["--layer-pass"] if layer_pass else []), "--launch-ns",
    ]
    launch = time.monotonic_ns()
    try:
        proc = subprocess.run(
            argv + [str(launch)], cwd=root, env=child_env(root),
            capture_output=True, text=True, timeout=seconds + 150,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) did not finish in {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(root: str) -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "child_thread_env": THREAD_ENV,
        "cmetric_from": "PYTHONPATH=src (not installed; the CLI runs as python -m cmetric)",
    }


def deterministic(runs: list[dict]) -> bool:
    """All processes agree on the warm-up digest, and on the timed digest
    wherever they hashed the same number of operations."""
    timed = {}
    for run in runs:
        if "output_sha256" in run:
            timed.setdefault(run["digest_ops"], set()).add(run["output_sha256"])
    return (len({r["warmup_sha256"] for r in runs}) == 1
            and all(len(digests) == 1 for digests in timed.values()))


def measure(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, name -> (value, unit), and the run record."""
    before = [run_child(root, workload, seed, seconds, "setup")
              for _ in range(SETUP_ONLY_RUNS // 2)]
    run = run_child(root, workload, seed, seconds, "measure")
    after = [run_child(root, workload, seed, seconds, "setup")
             for _ in range(SETUP_ONLY_RUNS - SETUP_ONLY_RUNS // 2)]
    runs = before + after + [run]
    metrics = {name: (run[name], unit) for name, (unit, _) in END_TO_END.items()}
    setups = [r["setup_s"] for r in runs]
    metrics["setup_s"] = (statistics.median(setups), "s")
    record = {
        "runs": runs,
        "setups_s": setups,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "deterministic": deterministic(runs),
    }
    return metrics, record


def trace(root: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics and tracing overheads, name -> (value, unit), and the record.

    Untraced and traced processes alternate, TRACE_PAIRS of each, each timed
    for an equal share of ``seconds``.  Span totals are summed over the traced
    processes; the last one also runs the layer pass.  Each overhead is the
    median, over the pairs, of traced minus untraced, with the latency
    metrics of a pair taken over the operations both of its processes ran.
    """
    share = seconds / (2 * TRACE_PAIRS)
    plain, traced = [], []
    for k in range(TRACE_PAIRS):
        plain.append(run_child(root, workload, seed, share, "measure"))
        traced.append(run_child(root, workload, seed, share, "trace",
                                layer_pass=k == TRACE_PAIRS - 1))
    totals = {}
    for run in traced:
        tracing.merge_totals(run["traced"]["totals"], totals)
    values, sources = tracing.layer_metrics(totals, workload)
    units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    last = traced[-1]["traced"]
    values.update(last["extra"])
    units.update(last["extra_units"])
    sources.update(dict.fromkeys(last["extra"], "untraced"))
    metrics = {name: (value, units[name]) for name, value in values.items()}
    # Each pair is compared on the operations both processes ran: both start
    # the rotation at its first operation, and the traced one may not get as
    # far in its time (on solve-stream, not to the same problems).
    pairs = []
    for p, t in zip(plain, traced):
        n = min(len(p["latencies_ns"]), len(t["latencies_ns"]))
        pairs.append(tuple(
            {**run, **stats.operation_stats(stats.by_operation(run["latencies_ns"][:n],
                                                                run["rotation"]))}
            for run in (p, t)
        ))
    untraced_range = {}
    for name, (unit, _) in END_TO_END.items():
        diffs = [t[name] - p[name] for p, t in pairs]
        metrics[f"trace_overhead.{name}"] = (statistics.median(diffs), unit)
        sources[f"trace_overhead.{name}"] = "pairs"
        own = [p[name] for p, _ in pairs]
        # how far the untraced processes alone moved: an overhead smaller
        # than this is not resolved
        untraced_range[name] = (max(own) - min(own)) / statistics.median(own)
    runs = [run for pair in zip(plain, traced) for run in pair]
    record = {
        "runs": runs,
        "layer_sources": sources,
        "untraced_range": untraced_range,
        "span_log": last["span_log"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "deterministic": deterministic(runs),
    }
    return metrics, record


def run_workload(root: str, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    metrics, record = (trace if traced else measure)(root, workload, seed, seconds)
    correct = record["failed"] == 0 and record["deterministic"]
    record.update(
        workload=workload, seed=seed, seconds=seconds, trace=int(traced),
        correct=correct, environment=environment(root),
    )
    record["environment"]["numpy"] = record["runs"][-1]["numpy"]
    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"workload {workload}  seed {seed}  {seconds:g} s  trace {int(traced)}")
    main_run = record["runs"][-1]
    every = main_run["all_ops"]
    print(f"  {main_run['ops']} operations, {main_run['distinct_ops']} distinct; over all of them: "
          f"{every['ops_per_s']:.6g}/s, p50 {every['op_p50_ms']:.4g} ms, "
          f"p{every['tail_percentile']:g} {every['op_tail_ms']:.4g} ms; "
          f"{main_run['work_per_s']:.6g} {main_run['work_unit']}/s; "
          f"output sha256 {main_run['output_sha256'][:16]}")
    sources = record.get("layer_sources", {})
    for name, (value, unit) in sorted(metrics.items()):
        note = f"  [{sources[name]}]" if name in sources else ""
        if name.startswith("trace_overhead."):
            base = name.split(".", 1)[1]
            note += f" untraced processes ranged {record['untraced_range'][base]:.1%}"
        print(f"  {name:48s} {value:14.6g} {unit:6s}{note}")
    for run in record["runs"]:
        for note in run["failure_notes"]:
            print(f"  FAILED: {note.strip()}")
    print(f"  record {os.path.relpath(path, root)}")
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cmetric", "__init__.py")):
        print("bench: run from the root of a cmetric checkout (src/cmetric is missing)",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(f"{'metric':24s}" + "".join(f"{n:>18s}" for n in names))
        for metric in results[0]["metrics"]:
            row = "".join(f"{r['metrics'][metric]['value']:18.6g}" for r in results)
            print(f"{metric:24s}{row} {results[0]['metrics'][metric]['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
