"""Spans around cmetric's public entry points, installed from the benchmark.

Each wrapper is installed where the caller looks the name up: a method on the
class that defines it (``Domain.contains_many``), or a module attribute that
callers read at call time (``cmetric.domains.poincare_distance_many`` is the
name ``domains`` binds; ``contraction.verify_nesting`` is what the benchmark
and the CLI call).  Nothing inside ``src/cmetric`` changes, and ``uninstall``
puts the original functions back.

A span is (id, parent, phase, name, start, end, units).  Totals per
(phase, name) accumulate calls, wall time, self time and units in memory for
every span; the first ``LOG_CAP`` spans are also kept and written out at the
end.  Self time is a span's duration minus the time its child spans cover.
The benchmark is single-threaded, so children nest strictly inside parents.
"""

from __future__ import annotations

import functools
import gzip
import time

LOG_CAP = 50_000


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.paused = False
        # (phase, name) -> [calls, total_ns, self_ns, units]
        self.totals: dict[tuple[str, str], list[int]] = {}
        self.log: list[tuple] = []
        self._stack: list[list[int]] = []  # per open span: [span id, child ns]
        self._next_id = 0

    def wrap(self, fn, name, units):
        """Wrap ``fn``; ``name`` is a string or ``name(args, kwargs)``;
        ``units(args, kwargs, result)`` counts the work one call did."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                n = units(args, kwargs, result) if result is not None else 0
                entry = self.totals.setdefault((self.phase, span_name), [0, 0, 0, 0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                entry[3] += n
                if len(self.log) < LOG_CAP:
                    self.log.append((span_id, parent, self.phase, span_name, start, end, n))

        return traced

    def write_log(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,parent,phase,name,start_ns,end_ns,units\n")
            for row in self.log:
                handle.write(",".join(map(str, row)) + "\n")


def _one(args, kwargs, result) -> int:
    return 1


def _rows(args, kwargs, result) -> int:
    return len(result)


def _diameter_name(args, kwargs) -> str:
    stream = args[2] if len(args) > 2 else kwargs.get("stream")
    return "contraction.diameter_closed" if stream is None else "contraction.diameter_sampled"


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}"


def install(tracer: Tracer) -> list[tuple]:
    """Replace the traced entry points with wrappers recording into ``tracer``.

    Returns what ``uninstall`` needs to put the original functions back.
    """
    from cmetric import cli, contraction, domains, fixed_point, holomaps

    targets = [
        (domains, "poincare_distance_many", "metric_core.poincare_distance_many",
         lambda a, k, r: r.size),
        (domains.Domain, "sample", "domains.sample", _rows),
        (domains.Domain, "contains_many", "domains.contains_many", _rows),
        (domains.Domain, "caratheodory_many", "domains.caratheodory_many", _rows),
        (domains.Domain, "contains", "domains.contains", _one),
        (domains.Domain, "caratheodory", "domains.caratheodory", _one),
        (holomaps.HoloMap, "evaluate", "holomaps.evaluate", _one),
        (holomaps.HoloMap, "evaluate_many", "holomaps.evaluate_many", _rows),
        (holomaps, "random_selfmap", "holomaps.random_selfmap", _one),
        (contraction, "verify_nesting", "contraction.verify_nesting",
         lambda a, k, r: r.pairs_checked),
        (contraction, "diameter", _diameter_name, lambda a, k, r: max(r.sample_count, 1)),
        (fixed_point, "solve", "fixed_point.solve", lambda a, k, r: r.iterations),
        (fixed_point, "step_contraction_check", "fixed_point.step_contraction_check",
         lambda a, k, r: (a[4] if len(a) > 4 else k["stream"]).count),
        (cli, "main", _cli_name, _one),
    ]
    originals = []
    for owner, attr, name, units in targets:
        original = vars(owner)[attr]
        originals.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, units))
    return originals


def uninstall(originals: list[tuple]) -> None:
    """Put back the functions that ``install`` replaced."""
    for owner, attr, original in originals:
        setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------------

# Each metric has a fixed source per workload, so that two commits always
# compare the same calls.  On the workloads where the layer does the work
# (``home``), the metric is read from that workload's own spans: the timed
# loop for times, the warm-up for counts (it runs every distinct operation
# once, so it repeats exactly for a seed), set-up for input construction, and
# the in-process ``cli.main`` calls for ``cli-invocations``.  On every other
# workload it is read from one phase of the layer pass, which makes the same
# small calls on every workload: ``layer-bulk`` (sampled, vectorised calls),
# ``layer-scalar`` (one ``solve``) or ``layer-cli`` (in-process ``cli.main``).
# If a later change removes every call from a home source, the value falls
# back to the layer pass and its source says so: it is then not comparable
# with a value read from the home source.
BULK = ("nesting-bulk", "diameter-sampled")


def _home(phase, *workloads):
    return dict.fromkeys(workloads, phase)


def _sum(totals, phase, names, field):
    return sum(totals.get((phase, n), (0, 0, 0, 0))[field] for n in names)


CALLS, TOTAL, SELF, UNITS = range(4)


def _ratio(names, num_field, den_field, scale):
    names = (names,) if isinstance(names, str) else names

    def compute(totals, phase):
        den = _sum(totals, phase, names, den_field)
        return _sum(totals, phase, names, num_field) * scale / den if den else None

    return compute


def _validated_points_per_pair(totals, phase):
    sampled = _sum(totals, phase, (
        "contraction.verify_nesting",
        "contraction.diameter_sampled",
        "fixed_point.step_contraction_check",
    ), UNITS)
    if not sampled:
        return None
    points = _sum(totals, phase, ("domains.contains_many",), UNITS)
    points += 2 * _sum(totals, phase, ("domains.caratheodory_many",), UNITS)
    return points / sampled


def _scalar_calls_per_iteration(totals, phase):
    iterations = _sum(totals, phase, ("fixed_point.solve",), UNITS)
    if not iterations:
        return None
    calls = _sum(totals, phase, ("domains.contains", "domains.caratheodory"), CALLS)
    return calls / iterations


NS, US, MS = 1.0, 1e-3, 1e-6

# name -> (unit, home sources {workload: phase}, layer-pass phase, compute)
LAYER_METRICS = {
    "metric_core.poincare_many.ns_per_pair":
        ("ns", _home("timed", *BULK), "layer-bulk",
         _ratio("metric_core.poincare_distance_many", SELF, UNITS, NS)),
    "domains.sample.ns_per_point":
        ("ns", _home("timed", *BULK), "layer-bulk", _ratio("domains.sample", SELF, UNITS, NS)),
    "domains.contains_many.ns_per_point":
        ("ns", _home("timed", *BULK), "layer-bulk",
         _ratio("domains.contains_many", TOTAL, UNITS, NS)),
    "domains.caratheodory_many.self_ns_per_pair":
        ("ns", _home("timed", *BULK), "layer-bulk",
         _ratio("domains.caratheodory_many", SELF, UNITS, NS)),
    "domains.validated_points_per_pair":
        ("count", _home("warmup", *BULK), "layer-bulk", _validated_points_per_pair),
    "domains.contains.us":
        ("us", _home("timed", "solve-stream"), "layer-scalar",
         _ratio("domains.contains", TOTAL, CALLS, US)),
    "domains.caratheodory.us":
        ("us", _home("timed", "solve-stream"), "layer-scalar",
         _ratio("domains.caratheodory", TOTAL, CALLS, US)),
    "domains.scalar_calls_per_iteration":
        ("count", _home("warmup", "solve-stream"), "layer-scalar", _scalar_calls_per_iteration),
    "holomaps.evaluate.us":
        ("us", _home("timed", "solve-stream"), "layer-scalar",
         _ratio("holomaps.evaluate", TOTAL, CALLS, US)),
    "holomaps.evaluate_many.ns_per_point":
        ("ns", _home("timed", "diameter-sampled"), "layer-bulk",
         _ratio("holomaps.evaluate_many", TOTAL, UNITS, NS)),
    "holomaps.random_selfmap.us":
        ("us", _home("setup", "solve-stream", "diameter-sampled"), "layer-bulk",
         _ratio("holomaps.random_selfmap", TOTAL, CALLS, US)),
    "contraction.verify_nesting.self_ms":
        ("ms", _home("timed", "nesting-bulk"), "layer-bulk",
         _ratio("contraction.verify_nesting", SELF, CALLS, MS)),
    "contraction.diameter_sampled.self_ms":
        ("ms", _home("timed", "diameter-sampled"), "layer-bulk",
         _ratio("contraction.diameter_sampled", SELF, CALLS, MS)),
    "contraction.diameter_closed.us":
        ("us", {"solve-stream": "setup", "cli-invocations": "inproc"}, "layer-bulk",
         _ratio("contraction.diameter_closed", TOTAL, CALLS, US)),
    "fixed_point.iterations":
        ("count", _home("warmup", "solve-stream"), "layer-scalar",
         _ratio("fixed_point.solve", UNITS, CALLS, 1.0)),
    "fixed_point.solve.us_per_iteration":
        ("us", _home("timed", "solve-stream"), "layer-scalar",
         _ratio("fixed_point.solve", TOTAL, UNITS, US)),
    "fixed_point.solve.self_us":
        ("us", _home("timed", "solve-stream"), "layer-scalar",
         _ratio("fixed_point.solve", SELF, CALLS, US)),
    "fixed_point.step_contraction_check.self_ms":
        ("ms", _home("timed", "diameter-sampled"), "layer-bulk",
         _ratio("fixed_point.step_contraction_check", SELF, CALLS, MS)),
}

CLI_COMMANDS = ("distance", "diameter", "verify-nesting", "solve", "sweep")
for _command in CLI_COMMANDS:
    LAYER_METRICS[f"cli.main_ms.{_command}"] = (
        "ms", _home("inproc", "cli-invocations"), "layer-cli",
        _ratio(f"cli.main.{_command}", TOTAL, CALLS, MS),
    )


def merge_totals(rows, into=None) -> dict:
    """Sum totals given as rows ``[phase, name, calls, total_ns, self_ns, units]``."""
    totals = {} if into is None else into
    for phase, name, *fields in rows:
        entry = totals.setdefault((phase, name), [0, 0, 0, 0])
        for k, value in enumerate(fields):
            entry[k] += value
    return totals


def total_rows(totals) -> list[list]:
    return [[phase, name, *fields] for (phase, name), fields in sorted(totals.items())]


def layer_metrics(totals, workload: str) -> tuple[dict[str, float], dict[str, str]]:
    """Each metric from its fixed source on ``workload``, and that source."""
    values, sources = {}, {}
    for metric, (_, home, layer_phase, compute) in LAYER_METRICS.items():
        phase = home.get(workload, layer_phase)
        value = compute(totals, phase)
        source = phase
        if value is None and phase != layer_phase:
            value = compute(totals, layer_phase)
            source = f"{layer_phase} (fallback: no {phase} calls)"
        if value is not None:
            values[metric], sources[metric] = value, source
    return values, sources
