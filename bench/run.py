"""Benchmark for infocost: seeded workloads, exact re-checks, timings.

Run from the repository root:

    python3 bench/run.py --workload cycle --seed 1 --seconds 25 --trace 0

Set-up imports infocost from this checkout's ``src/`` (compiling it, no
bytecode is cached), generates the workload's inputs from ``--seed`` and
warms up on a tiny instance of the same workload; it is repeated between
and after the timed passes and its median reported as ``setup_s``. The
timed phase then runs passes over all of the workload's operations until
the next pass would overrun ``--seconds``; ``run_s`` sums each
operation's median time over the passes. Every result is re-checked outside the
timed spans; a raised error or a failed re-check counts as a failed
operation. All arithmetic is exact (rational mode), in one thread.

The speed of a shared host swings by up to a factor of two, over seconds
and over minutes. So while set-up and the timed passes run, a timer
signal times a small fixed kernel every ``SAMPLE_EVERY`` seconds (exact
big-integer elimination, fraction sums and a JSON round trip: the kinds
of work infocost does, without calling infocost, so that no change to
infocost can move it). Timed spans leave the kernel's time out, and each
operation and set-up is rescaled by the host's speed while it ran, so
``run_s`` and ``setup_s`` are seconds on a host where the kernel takes
``KERNEL_REF_S``. The wall-clock figures are printed too; the traced run
reports them as ``run_wall_s`` and ``kernel_s``. The traced pass is
sampled too, so its spans hold the samples (about 2% of its time).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` one traced pass follows the
timed passes and the metrics are per layer. Spans are written to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = ROOT / ".bench_out"
# Set-up runs at least SETUP_REPS times and until it has taken
# SETUP_SECONDS in all, so that a short set-up gets more samples.
SETUP_REPS = 9
SETUP_SECONDS = 3.0
# The host's speed is sampled every SAMPLE_EVERY seconds; KERNEL_REF_S is
# about the median time of one sample on a 2-vCPU cloud VM (Python 3.11).
# A span is rescaled from at least MIN_SAMPLES samples.
SAMPLE_EVERY = 0.1
KERNEL_REF_S = 0.002
MIN_SAMPLES = 8
WORKLOADS = ("cycle", "forward", "concavity", "roundtrip")
PIPELINES = ("check", "reject", "recover", "solve", "refine", "generate", "concavity", "cli")


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op_name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{op_name}: {'; '.join(problems)}")


def import_package() -> None:
    """Put ``src/`` and ``bench/`` of this checkout first on the path, and
    check that infocost is imported from there, never from elsewhere."""
    if not (SRC / "infocost" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'infocost'} not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import infocost

    if not Path(infocost.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: infocost imported from {infocost.__file__}, not {SRC}")


def fresh_import():
    """Import infocost and the benchmark's modules anew, from source."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("infocost", "tracing", "workloads"):
            del sys.modules[name]
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def speed_kernel() -> None:
    """Fixed work of the kinds infocost does, without calling infocost."""
    rng = random.Random(16)
    n = 16
    rows = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
    prev = 1
    for k in range(n - 1):  # fraction-free (Bareiss) elimination
        swap = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[swap] = rows[swap], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * top[k] - top[j] * factor) // prev
        prev = top[k]
    total = Fraction(0)
    for i in range(1, 150):
        total += Fraction(i % 101 + i, i + 3)
    json.loads(json.dumps({str(i): [str(Fraction(i, 7)), i / 3] for i in range(60)}))


class HostSpeed:
    """The host's speed, sampled uniformly in wall time by a timer signal.

    The signal handler runs between two bytecodes of whatever is running,
    times ``speed_kernel`` and adds that time to ``busy``, which timed spans
    leave out. Work W done at speed v(t) takes T with W = T * mean(v), so a
    span is rescaled by the mean, over the samples taken during it, of
    KERNEL_REF_S over the kernel's time: the seconds it would take where
    the kernel takes KERNEL_REF_S. One sample is noisy, so a span that
    holds fewer than MIN_SAMPLES also takes the last samples before it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0
        self.in_sample = False

    def _sample(self, signum, frame) -> None:
        if self.in_sample:  # a signal that came while a sample ran
            return
        self.in_sample = True
        start = perf_counter()
        speed_kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.busy += took
        self.in_sample = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, since: int = 0) -> float:
        """The factor for the time since sample ``since``; 1 if there are none."""
        samples = self.samples[max(0, min(since, len(self.samples) - MIN_SAMPLES)):]
        return statistics.fmean(KERNEL_REF_S / s for s in samples) if samples else 1.0

    def start(self) -> tuple[int, float, float]:
        return len(self.samples), self.busy, perf_counter()

    def stop(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """Wall seconds since ``mark`` with sampling left out, and rescaled."""
        first, busy, start = mark
        wall = perf_counter() - start - (self.busy - busy)
        return wall, wall * self.scale(since=first)


def run_op(op, tally: Tally, host: HostSpeed, tracer=None) -> tuple[float, float]:
    """Run one operation and record its re-check; return its timed wall and
    rescaled seconds."""
    untimed = tracer.checking if tracer is not None else contextlib.nullcontext
    if tracer is not None:
        tracer.op = op.name
    elapsed = (0.0, 0.0)
    try:
        if op.before is not None:
            with untimed():
                op.before()
        mark = host.start()
        try:
            result = op.run()
        finally:
            elapsed = host.stop(mark)
        with untimed():
            problems = op.check(result)
    except Exception as err:  # counted as a failed operation; the run goes on
        problems = [f"{type(err).__name__}: {err}"]
    tally.record(op.name, problems)
    return elapsed


def run_pass(ops, tally: Tally, host: HostSpeed,
             tracer=None) -> dict[str, tuple[float, float]]:
    return {op.name: run_op(op, tally, host, tracer) for op in ops}


def pipeline_seconds(ops, op_s: dict[str, float]) -> dict[str, float]:
    """Each pipeline's share of run_s."""
    out = {}
    for pipeline in PIPELINES:
        names = [op.name for op in ops if op.pipeline == pipeline]
        if names:
            out[pipeline] = sum(op_s[name] for name in names)
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end_metrics(run_s: float, setup_s: float) -> dict[str, dict]:
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "run_s": {"value": run_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer_metrics(layer: dict[str, tuple[float, str]], pipelines: dict[str, float],
                      overhead_s: float, tally: Tally, scale: float,
                      run_wall_s: float, kernel_s: float) -> dict[str, dict]:
    """Traced layer metrics, plus the untraced per-pipeline split of run_s.

    The tracer's spans are wall time; ``scale`` (the traced pass's rescaled
    over its wall seconds) puts them on the same footing as run_s.
    ``run_wall_s`` and ``kernel_s`` are wall time, reported as they are.
    """
    metrics = {
        name: {"value": v * scale if u == "s" else v, "unit": u}
        for name, (v, u) in layer.items()
    }
    for pipeline in PIPELINES:
        metrics[f"{pipeline}_s"] = {"value": pipelines.get(pipeline, 0.0), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    metrics["run_wall_s"] = {"value": run_wall_s, "unit": "s"}
    metrics["kernel_s"] = {"value": kernel_s, "unit": "s"}
    metrics["fail_ratio"] = {"value": tally.failed / tally.attempted, "unit": "1"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    os.environ.pop("INFOCOST_NUMERIC_MODE", None)  # the CLI reads it on every call
    sys.dont_write_bytecode = True  # every run compiles the same sources in set-up

    import_package()
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    host = HostSpeed()
    setups: list[tuple[float, float]] = []

    def set_up():
        # The previous set-up's modules and inputs form reference cycles;
        # freeing them first keeps peak_rss_mb from depending on how many
        # passes ran before this set-up.
        gc.collect()
        mark = host.start()
        tracing, workloads = fresh_import()
        workload = workloads.build(args.workload, args.seed, "full", workdir)
        warm = workloads.build(args.workload, args.seed, "tiny", workdir)
        run_pass(warm.ops, tally, host)
        setups.append(host.stop(mark))
        return tracing, workload

    passes: list[dict[str, tuple[float, float]]] = []
    with host.sampling():
        # Set-up is repeated between the timed passes, so that its median,
        # like run_s, samples the whole run rather than its first seconds.
        tracing, workload = set_up()
        spent = 0.0
        while True:
            gc.collect()
            times = run_pass(workload.ops, tally, host)
            passes.append(times)
            pass_s = sum(wall for wall, _ in times.values())
            spent += pass_s
            if spent + pass_s > args.seconds:
                break
            if len(setups) < SETUP_REPS:
                tracing, workload = set_up()
        while len(setups) < SETUP_REPS or sum(wall for wall, _ in setups) < SETUP_SECONDS:
            tracing, workload = set_up()
        if args.trace:
            tracer = tracing.Tracer()
            gc.collect()
            with tracer.installed():
                traced = run_pass(workload.ops, tally, host, tracer)
    setup_s = statistics.median(scaled for _, scaled in setups)
    # A pass is typical when each operation takes its median time, which
    # keeps a stall in one operation of one pass out of run_s.
    op_s = {name: statistics.median(p[name][1] for p in passes) for name in passes[0]}
    run_s = sum(op_s.values())
    run_wall_s = sum(statistics.median(p[name][0] for p in passes) for name in op_s)
    kernel_s = statistics.median(host.samples)
    pipelines = pipeline_seconds(workload.ops, op_s)
    for instance in workload.instances:
        print("instance", json.dumps(instance))
    for i, what in enumerate(("wall", "scaled")):
        print(f"passes {what}:", " ".join(f"{sum(t[i] for t in p.values()):.4f}" for p in passes))
        print(f"setups {what}:", " ".join(f"{t[i]:.4f}" for t in setups))
    print(f"host speed {len(host.samples)} samples: kernel median {kernel_s:.6f} s, quartiles "
          + " ".join(f"{q:.6f}" for q in statistics.quantiles(host.samples, n=4)))
    print(f"run_s {run_s:.6f} scaled, {run_wall_s:.6f} wall")
    for pipeline, seconds in pipelines.items():
        print(f"pipeline {pipeline}_s {seconds:.6f}")

    if args.trace:
        traced_wall = sum(wall for wall, _ in traced.values())
        traced_s = sum(scaled for _, scaled in traced.values())
        layer = tracer.metrics()
        for line in tracing.layer_table(tracer.layers):
            print(line)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = per_layer_metrics(layer, pipelines, traced_s - run_s, tally,
                                    traced_s / traced_wall, run_wall_s, kernel_s)
    else:
        metrics = end_to_end_metrics(run_s, setup_s)

    for reason in tally.reasons:
        print("FAILED", reason, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
