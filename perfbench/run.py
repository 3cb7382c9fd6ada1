"""The fcx benchmark: one workload, timed end to end or traced layer by layer.

Run from the root of an fcx checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload corpus-report --seed 1 --seconds 25 --trace 0

Workloads: corpus-report, scrambled-pages, kunneth-products, cup-ring (see
``workloads.py`` and the README).  One process, one thread.  Each run:

1. sets up ``SETUP_REPS`` times (import fcx afresh, synthesize the documents
   from ``--seed``, serialize them) and writes the last set to a scratch
   directory under ``perfbench/out``;
2. makes whole passes over the operations until ``--seconds`` have gone
   since the first began; the first pass's outputs are checked against
   values computed from the documents' normal forms (``checks.py``), later
   outputs must equal them.

Every time is scaled to a fixed machine speed: a fixed piece of interpreter
work (``reference.py``) is timed around each group of operations, each
stretch of a set-up and each child process, and a time is reported as it
would read had that work taken ``reference.NOMINAL_NS``.  On a shared
machine whose speed drifts, this cancels the drift, which moves the
reference and the program alike (see the README).  Repeated timings are
reported as medians.  With ``--trace 0`` passes run untraced and the
end-to-end metrics are reported: each operation's median over the passes,
set-up time as the median of its repeats.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer self times and counts of the
median traced pass are reported, with the tracing overhead (median traced
minus median untraced pass); the spans go to ``perfbench/out/trace-*.json``.
There, too, fresh child interpreters, started one at a time between passes,
run the declared ``fcx`` entry point on a small document; their median is
reported as ``cli.cold_ms``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  Without fcx sources
under ./src the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Any, NamedTuple

import checks
from reference import ScaledClock, scale, time_reference
from spans import LAYERS, Layers, Tracer
from workloads import WORKLOADS, Op, Workload

SETUP_REPS = 3
REF_EVERY_NS = 100_000_000  # operation time between two timings of the reference
COLD_RUNS = 12
CHILD_TIMEOUT_S = 60
DEFAULT_SEED = 1

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def _no_span(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def _import_fcx() -> None:
    """Import fcx and its CLI afresh from ./src, dropping any loaded copy."""
    for name in [m for m in sys.modules if m == "fcx" or m.startswith("fcx.")]:
        del sys.modules[name]
    import fcx
    import fcx.cli  # noqa: F401  (not imported by the package itself)

    if not os.path.abspath(fcx.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fcx was imported from {fcx.__file__}, not from ./src")


def setup(name: str, seed: int, traced: bool) -> tuple[Workload, list[float], dict]:
    """SETUP_REPS full set-ups; returns the last workload, every set-up time
    and, when traced, the per-rep self times of synthesis and serialization.

    A set-up is timed with a ``ScaledClock``, so its time is at the reference
    speed (``reference.py``).  Untraced, the clock laps at the workload's
    synthesis and serialization calls; traced, those calls are spans instead,
    and their self times are scaled by the clock's overall factor.
    """
    times: list[float] = []
    layer_times: dict[str, list[float]] = defaultdict(list)
    for _ in range(SETUP_REPS):
        tracer = Tracer()
        clock = ScaledClock(REF_EVERY_NS)
        _import_fcx()
        workload = WORKLOADS[name](seed, tracer.span if traced else _lap(clock))
        times.append(clock.stop())
        if traced:
            totals: dict[str, int] = defaultdict(int)
            for span_name, ns in zip(tracer.names, tracer.self_times()):
                totals[span_name] += ns
            for span_name in ("synth.build", "io.serialize"):
                layer_times[span_name].append(totals[span_name] * clock.factor / 1e9)
    return workload, times, layer_times


def _lap(clock: ScaledClock):
    """A span function for set-up that laps ``clock`` where a span would start."""

    def span(name: str) -> contextlib.AbstractContextManager:
        clock.lap()
        return contextlib.nullcontext()

    return span


class Runner:
    """Runs passes over a workload's operations and keeps what they printed."""

    def __init__(self, workload: Workload, paths: dict[str, str]) -> None:
        self.wl = workload
        self.paths = paths
        self.cli = sys.modules["fcx.cli"]
        self.io = sys.modules["fcx.io"]
        self.cup = sys.modules["fcx.cup"]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _call(self, op: Op) -> tuple[bool, Any]:
        if op.command:
            argv = list(op.command) + [self.paths[d] for d in op.docs]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            if code != 0:
                self.errors.append(f"{op.label}: exit {code}: {err.getvalue().strip()}")
            return code == 0, out.getvalue()
        # The induced operation: parse the document, then every class and page.
        (doc,) = op.docs
        with open(self.paths[doc], encoding="utf-8") as fh:
            c = self.io.parse(fh.read())
        n_pages = checks.collapse(self.wl.cup_docs[doc].base) + 1
        return True, [
            (cls.name, k, self.cup.induced_on_pages(c, cls, k))
            for cls in sorted(c.cup_classes, key=lambda cls: cls.name)
            for k in range(1, n_pages + 1)
        ]

    def run_op(self, op: Op, tracer: Tracer | None) -> tuple[bool, Any, int]:
        self.attempted += 1
        span = _no_span("") if tracer is None else tracer.span("cli" if op.command else "bench")
        t0 = time.perf_counter_ns()
        try:
            with span:
                ok, out = self._call(op)
        except Exception as exc:  # a failing operation is counted, not fatal
            ok, out = False, None
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter_ns() - t0
        if not ok:
            self.failed += 1
        return ok, out, elapsed

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        """One pass over the operations.

        Each operation starts with the previous one's garbage collected, as
        a fresh ``fcx`` process would, and the collection is not timed; the
        pass takes the sum of its operations' times.  The reference is timed
        before the first operation, after the last, and between operations
        whenever ``REF_EVERY_NS`` of operation time have gone since it was
        last timed; each operation's time is scaled by the mean of the two
        reference timings around its group.
        """
        times: list[float] = []
        factors: list[float] = []
        outputs = []
        group: list[int] = []
        before = since = 0
        for op in self.wl.ops:
            gc.collect()
            if not times or since >= REF_EVERY_NS:
                after = time_reference()
                _rescale(times, factors, group, before, after)
                before, group, since = after, [], 0
            ok, out, ns = self.run_op(op, tracer)
            group.append(len(times))
            since += ns
            times.append(ns)
            factors.append(1.0)
            outputs.append(out if ok else None)
        gc.collect()
        _rescale(times, factors, group, before, time_reference())
        return Pass(sum(times) / 1e9, times, factors, [_summary(o) for o in outputs])


class Pass(NamedTuple):
    seconds: float  # the sum of the operations' times
    times: list[float]  # per operation, ns at the reference speed
    factors: list[float]  # per operation, the scale applied to its wall time
    outputs: list  # per operation, its output in comparable form, None if it failed


def _rescale(
    times: list[float], factors: list[float], group: list[int], before_ns: int, after_ns: int
) -> None:
    if group:
        factor = scale(before_ns, after_ns)
        for i in group:
            times[i] *= factor
            factors[i] = factor


def _summary(output: Any) -> Any:
    """Outputs in comparable form; induced maps become shapes and ranks."""
    if not isinstance(output, list):
        return output
    return [
        (
            name,
            k,
            maps.page,
            tuple(
                (n, j, m.n_rows, m.n_cols, checks.gf2_rank(m.rows))
                for (n, j), m in maps.maps
            ),
        )
        for name, k, maps in output
    ]


def check_outputs(wl: Workload, outputs: list) -> list[str]:
    problems = []
    for op, out in zip(wl.ops, outputs):
        if out is not None:
            problems += [f"{op.label}: {p}" for p in op.check(out)]
    return problems


def same_outputs(wl: Workload, reference: list, outputs: list) -> list[str]:
    return [
        f"{op.label}: output differs from the first pass"
        for op, ref, out in zip(wl.ops, reference, outputs)
        if out is not None and ref is not None and out != ref
    ]


def _script_target() -> tuple[str, str]:
    """The ``fcx`` console-script target declared in pyproject.toml."""
    section = None
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                section = line
            elif section == "[project.scripts]" and line.split("=")[0].strip() == "fcx":
                module, _, attr = line.split("=", 1)[1].strip().strip("\"'").partition(":")
                return module, attr
    raise RuntimeError("pyproject.toml declares no 'fcx' console script")


class ColdStarts:
    """Fresh interpreters running the declared entry point on the workload's
    small document, one at a time; their output must match in-process output.
    Each is timed at the reference speed, by the reference timed around it."""

    def __init__(self, runner: Runner) -> None:
        module, attr = _script_target()
        code = f"import importlib; importlib.import_module({module!r}).{attr}()"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, self.env.get("PYTHONPATH")]))
        self.op = op = runner.wl.cold
        ok, self.expected, _ns = runner.run_op(op, None)
        self.problems = [f"{op.label}: {p}" for p in op.check(self.expected)] if ok else []
        self.argv = [sys.executable, "-c", code, *op.command, *(runner.paths[d] for d in op.docs)]
        self.times_ms: list[float] = []

    def run_one(self) -> None:
        before = time_reference()
        t0 = time.perf_counter_ns()
        child = subprocess.run(
            self.argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter_ns() - t0
        self.times_ms.append(elapsed * scale(before, time_reference()) / 1e6)
        if child.returncode != 0 or child.stdout != self.expected:
            self.problems.append(
                f"cold {self.op.label}: exit {child.returncode}, output "
                f"{'matches' if child.stdout == self.expected else 'differs'}: "
                f"{child.stderr.strip()[-300:]}"
            )


def _layer_metrics(
    tracer: Tracer, first: int, factors: list[float]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer self times and counts of the spans from ``first`` on, one
    pass whose operations' times were scaled by ``factors``.

    Self times are scaled by their operation's factor.  Also checks that
    every operation's spans nest and that their wall self times add up to
    the operation's traced wall time.
    """
    selfs = tracer.self_times(first)
    problems = tracer.nesting_problems(first)
    values: dict[str, float] = defaultdict(float)
    root_of: list[int] = []
    root_sum: dict[int, int] = defaultdict(int)
    op_of_root: dict[int, int] = {}  # each operation has one root span, in order
    for pos, i in enumerate(range(first, len(tracer))):
        name, parent = tracer.names[i], tracer.parents[i]
        root = i if parent < first else root_of[parent - first]
        op_of_root.setdefault(root, len(op_of_root))
        root_of.append(root)
        root_sum[root] += selfs[pos]
        values[f"{name}_s"] += selfs[pos] * factors[op_of_root[root]] / 1e9
        for key, n in (tracer.counts[i] or {}).items():
            values[f"{name}.{key}"] += n
    for root, total in root_sum.items():
        if tracer.names[root] not in ("cli", "bench"):
            problems.append(f"span {root} ({tracer.names[root]}) ran outside an operation")
        wall = tracer.ends[root] - tracer.starts[root]
        if total != wall:
            problems.append(
                f"span {root} ({tracer.names[root]}): self times add up to "
                f"{total} ns, wall time {wall} ns"
            )
    return values, problems


# Per-layer self times: metric -> span name.  ``cli`` is the root span of a
# CLI operation (argument parsing, rendering and whatever no layer span
# covers); ``bench`` is the root of the induced operation (the loop around
# its API calls).
TIME_LAYERS = {f"{layer}_s": layer for layer, _b, _c in LAYERS}
TIME_LAYERS.update({"cli.self_s": "cli", "bench.self_s": "bench"})
COUNTS = {
    "io.parse_bytes": ("B", "io.parse.bytes"),
    "model.validate_entries": ("count", "model.validate.entries"),
    "engine.reduce_columns": ("count", "engine.reduce.columns"),
    "gf2.invert_dim": ("count", "gf2.invert.dim"),
    "engine.pages_calls": ("count", "engine.pages.calls"),
    "kunneth.product_entries": ("count", "kunneth.tensor.entries"),
    "cup.induced_cohomology_calls": ("count", "cup.induced_cohomology.calls"),
    "model.cohomology_calls": ("count", "model.cohomology.calls"),
}  # metric -> (unit, key in _layer_metrics' values)
RATIOS = {  # distinct arguments per call; 1 when the layer is not called
    "engine.pages_useful_ratio": "engine.pages",
    "model.cohomology_useful_ratio": "model.cohomology",
}


def run(args: argparse.Namespace) -> dict:
    traced = bool(args.trace)
    wl, setup_times, setup_layers = setup(args.workload, args.seed, traced)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        paths = {}
        for doc, text in wl.docs.items():
            paths[doc] = os.path.join(work, f"{doc}.fcx")
            with open(paths[doc], "w", encoding="utf-8") as fh:
                fh.write(text)
        runner = Runner(wl, paths)
        # Set-up objects live for the whole run: leave them out of collections.
        gc.collect()
        gc.freeze()
        deadline = time.perf_counter() + args.seconds
        first_pass = runner.run_pass()
        reference = first_pass.outputs
        problems = check_outputs(wl, reference)

        metrics: dict[str, tuple[float, str]] = {}
        if not traced:
            # The first pass, whose outputs were checked, is timed too: a slow
            # first pass barely moves a median.  Of later passes only the times
            # are kept, so that memory does not grow with the number of passes.
            pass_seconds, op_times = [first_pass.seconds], [first_pass.times]
            while time.perf_counter() < deadline:
                this_pass = runner.run_pass()
                pass_seconds.append(this_pass.seconds)
                op_times.append(this_pass.times)
                problems += same_outputs(wl, reference, this_pass.outputs)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # Each operation's median time at the reference speed.
            op_median = [statistics.median(repeats) for repeats in zip(*op_times)]
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "solve_s": (sum(op_median) / 1e9, "s"),
                "op_p50_ms": (statistics.median(op_median) / 1e6, "ms"),
                "largest_op_s": (
                    statistics.fmean(op_median[i] for i in wl.largest) / 1e9,
                    "s",
                ),
                "peak_rss_mb": (peak_rss, "MiB"),
            }
            print(
                f"perfbench: {args.workload} seed {args.seed}: {len(pass_seconds)} passes "
                f"of {len(wl.ops)} operations; pass seconds at the reference speed "
                + " ".join(f"{t:.3f}" for t in pass_seconds),
                file=sys.stderr,
            )
        else:
            tracer = Tracer()
            layers = Layers(tracer)
            # Cold starts go between passes, spread over the whole run.
            cold = ColdStarts(runner)
            cold_per_pass = math.ceil(COLD_RUNS * 2 * first_pass.seconds / args.seconds)
            untraced, traced_walls = [first_pass.seconds], []
            per_pass: list[dict[str, float]] = []
            while not traced_walls or time.perf_counter() < deadline:
                if traced_walls:
                    untraced_pass = runner.run_pass()
                    untraced.append(untraced_pass.seconds)
                    problems += same_outputs(wl, reference, untraced_pass.outputs)
                first = len(tracer)
                layers.install()
                try:
                    traced_pass = runner.run_pass(tracer)
                finally:
                    layers.remove()
                traced_walls.append(traced_pass.seconds)
                problems += same_outputs(wl, reference, traced_pass.outputs)
                values, span_problems = _layer_metrics(tracer, first, traced_pass.factors)
                per_pass.append(values)
                problems += span_problems
                for _ in range(cold_per_pass):
                    cold.run_one()
            # Per-layer figures of the median traced pass (the lower middle
            # one), so that they add up to that pass's operation times.
            order = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
            middle = per_pass[order[(len(order) - 1) // 2]]
            for metric, layer in TIME_LAYERS.items():
                metrics[metric] = (middle[f"{layer}_s"], "s")
            for metric, (unit, key) in COUNTS.items():
                metrics[metric] = (middle[key], unit)
            for metric, layer in RATIOS.items():
                calls = middle[f"{layer}.calls"]
                metrics[metric] = (middle[f"{layer}.distinct"] / calls if calls else 1.0, "ratio")
            for layer in ("synth.build", "io.serialize"):
                metrics[f"{layer}_s"] = (statistics.median(setup_layers[layer]), "s")
            metrics["trace.overhead_s"] = (
                statistics.median(traced_walls) - statistics.median(untraced),
                "s",
            )
            while len(cold.times_ms) < COLD_RUNS:
                cold.run_one()
            metrics["cli.cold_ms"] = (statistics.median(cold.times_ms), "ms")
            problems += cold.problems
            if layers.missing:
                print(f"perfbench: bindings not found: {layers.missing}", file=sys.stderr)
            os.makedirs(OUT, exist_ok=True)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, **tracer.to_json()}, fh)
            print(
                f"perfbench: {args.workload} seed {args.seed}: {len(traced_walls)} traced "
                f"passes, {len(tracer)} spans in {os.path.relpath(trace_path, ROOT)}",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in runner.errors[:10] + problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fcx", "__init__.py")):
        print("perfbench: no fcx sources under ./src; run from an fcx checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
