"""One workload process: set-up, warm-up, then a closed loop of timed operations.

``run.py`` starts this script from the root of the checkout with ``src`` on
``PYTHONPATH`` and passes the monotonic clock reading taken just before the
launch, so that set-up time counts interpreter start and imports:

    python3 bench/child.py --workload W --seed N --seconds S --launch-ns T \
        --mode setup|measure|trace [--layer-pass]

``setup`` stops after the warm-up, ``measure`` runs the timed loop untraced,
and ``trace`` installs the span wrappers before set-up and reports their
totals; with ``--layer-pass`` it then runs the layer pass, removes the
wrappers, and times the ROADMAP baseline table untraced.  The last line of
stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy

import stats
import tracer as tracing
import workloads

INPROC_REPS = 5  # in-process cli.main calls per command in a traced run
ALLOC_PROBE_OPS = 10  # operations run under tracemalloc in a traced run


def run_op(workload, i: int, warm: bool, tracer) -> tuple[int, workloads.Outcome]:
    """Time one call; check it untimed.  A failure never aborts the run."""
    start = time.perf_counter_ns()
    try:
        raw = workload.call(i, warm)
    except Exception:
        elapsed = time.perf_counter_ns() - start
        return elapsed, workloads.Outcome(b"", False, 0, traceback.format_exc(limit=4))
    elapsed = time.perf_counter_ns() - start
    if tracer is not None:
        tracer.paused = True
    try:
        outcome = workload.check(i, raw, warm)
    except Exception:
        outcome = workloads.Outcome(b"", False, 0, traceback.format_exc(limit=4))
    finally:
        if tracer is not None:
            tracer.paused = False
    return elapsed, outcome


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, outcome: workloads.Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(outcome.note)


def feed(digest, output: bytes) -> None:
    digest.update(len(output).to_bytes(8, "little"))
    digest.update(output)


def trace_layers(workload, tracer, originals, root: str, seed: int, out_dir: str,
                 layer_pass: bool) -> dict:
    """Span totals of a traced run after its timed loop, and the layer pass."""
    import layers

    inproc = getattr(workload, "inproc_calls", None)
    if inproc is not None:
        # the cli workload's timed loop runs in child processes, out of the
        # tracer's reach; its layers are read from in-process cli.main calls
        tracer.phase = "inproc"
        for _ in range(INPROC_REPS):
            for call in inproc():
                call()
    traced = {}
    if layer_pass:
        layers.cover_layers(root, seed, tracer)
    # everything below runs with the original functions, untraced
    tracing.uninstall(originals)
    traced["totals"] = tracing.total_rows(tracer.totals)
    if not layer_pass:
        return traced
    if inproc is not None:
        probes = inproc()
    else:
        count = min(workload.rotation, ALLOC_PROBE_OPS)
        probes = [lambda j=j: workload.call(j, False) for j in range(count)]
    extra = {"contraction.op_peak_alloc_mb": max(layers.peak_alloc_mb(call) for call in probes)}
    extra.update(layers.process_costs(root))
    extra.update(layers.baseline_table(root, out_dir))
    log_path = os.path.join(out_dir, f"spans-{workload.name}-seed{seed}.csv.gz")
    tracer.write_log(log_path)
    traced.update(
        extra=extra,
        extra_units={"contraction.op_peak_alloc_mb": "MB", **layers.UNITS},
        span_log=os.path.relpath(log_path, root),
    )
    return traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--layer-pass", action="store_true",
                        help="with --mode trace: also run the layer pass and the baseline table")
    args = parser.parse_args(argv)
    root = os.getcwd()
    out_dir = os.path.join(root, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, root)
    tally = Tally()
    digest = hashlib.sha256()
    if tracer is not None:
        tracer.phase = "warmup"
    for j in range(workload.warmup_ops):
        _, outcome = run_op(workload, j, True, tracer)
        tally.add(outcome)
        feed(digest, outcome.output)
    result = {
        "setup_s": (time.monotonic_ns() - args.launch_ns) / 1e9,
        "warmup_sha256": digest.hexdigest(),
    }
    if args.mode != "setup":
        if tracer is not None:
            tracer.phase = "timed"
        latencies = []
        runs_of: dict[int, list[int]] = {}  # distinct operation -> its correct runs
        work = 0
        deadline = time.perf_counter() + args.seconds
        i = 0
        while True:
            elapsed, outcome = run_op(workload, i, False, tracer)
            tally.add(outcome)
            latencies.append(elapsed)
            work += outcome.work
            if outcome.ok:
                runs_of.setdefault(i % workload.rotation, []).append(elapsed)
            if i < workload.warmup_ops:
                feed(digest, outcome.output)
            i += 1
            if time.perf_counter() >= deadline:
                break
        who = resource.RUSAGE_CHILDREN if workload.peak_rss_of_children else resource.RUSAGE_SELF
        busy_s = sum(latencies) / 1e9
        ordered = sorted(latencies)
        # over each distinct operation's correct runs (all runs if every one failed)
        per_op = stats.operation_stats(
            runs_of or stats.by_operation(latencies, workload.rotation)
        )
        # the highest percentile with at least ten samples beyond it
        tail = next(p for p in (99.9, 99.0, 90.0, 75.0, 50.0)
                    if len(ordered) * (1 - p / 100) >= 10 or p == 50.0)
        result.update(
            ops=len(latencies),
            distinct_ops=len(runs_of),
            rotation=workload.rotation,
            **per_op,
            peak_mem_mb=resource.getrusage(who).ru_maxrss / 1024,
            all_ops={
                "ops_per_s": len(latencies) / busy_s,
                "op_p50_ms": statistics.median(ordered) / 1e6,
                "op_p75_ms": stats.percentile(ordered, 75.0) / 1e6,
                "tail_percentile": tail,
                "op_tail_ms": stats.percentile(ordered, tail) / 1e6,
            },
            work_unit=workload.work_unit,
            work_per_s=work / busy_s,
            output_sha256=digest.hexdigest(),
            digest_ops=workload.warmup_ops + min(i, workload.warmup_ops),
            latencies_ns=latencies,
        )
        if tracer is not None:
            result["traced"] = trace_layers(
                workload, tracer, originals, root, args.seed, out_dir, args.layer_pass
            )
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failure_notes=tally.notes,
        numpy=numpy.__version__,
        python=sys.version.split()[0],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
