"""Round-trip benchmark of netpeel: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload d2-wide --seed 1 --seconds 30 --trace 0

Workloads are fixed pools of operations, described in `workloads.py`; the
seed sets the order of each pass through the pool, and a run makes at
least one whole pass.  Load is one closed-loop client with one operation in
flight and BLAS pinned to one thread.  `attempted` and `failed` count the
pool's instances once each: a repeat of an instance must reproduce its
first outcome and query count, or the run is not correct.  The last line
of stdout is a JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it names the run record written under
`perfbench/out/` (environment, every instance with its replay command, the
raw times and the metrics).

Times are normalised to nominal host speed with `refspeed.probe()` (see
`refspeed.py`): each operation's by the probes just before and after it,
the set-up's by the median of the run's probes.
With `--trace 0` the run reports the end-to-end metrics:

- `setup_s`: median over several fresh processes of the time from spawn to
  exit of `warmup.py` (imports, one `linprog`, one tiny extraction).
- `op_s`: mean over the pool of each operation's median time (a round
  trip, or one orthant seed run through both cells), failed ones included.
- `peak_rss_mb`: peak resident memory of the measuring process.

With `--trace 1` it runs the workload untraced for half of `--seconds`,
replays its first pass with every layer traced (see `spans.py`), checks
that tracing changed no decision, writes the spans as JSONL and reports the
per-layer metrics, in raw time.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import warmup

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7

END_TO_END = (("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": warmup.BLAS_THREADS,
    }


def measure_setup() -> float:
    """Median spawn-to-exit time of a process doing the benchmark's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "warmup.py")], check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _signature(outcomes) -> list:
    return [(o.ok, o.queries, o.hits) for o in outcomes]


@dataclass
class Loop:
    order: list = field(default_factory=list)      # pool index of each operation run
    outcomes: list = field(default_factory=list)   # the first pass's, one per instance
    raw: dict = field(default_factory=dict)        # pool index -> wall seconds per run
    normalised: dict = field(default_factory=dict)  # the same at nominal host speed
    slowdown: list = field(default_factory=list)   # every probe's result
    problems: list = field(default_factory=list)
    first_pass_wall: float = 0.0

    def op_seconds(self, times: dict) -> float:
        """Mean over the pool of each operation's median time."""
        return statistics.fmean(statistics.median(t) for t in times.values())


def run_loop(runner, pool, order, seconds: float, *, probe=None, tracer=None) -> Loop:
    """Closed loop over the pool in `order`: the next operation starts only
    after the last one ended.  The first pass always completes; after it the
    loop stops at the first operation boundary past `seconds`."""
    loop = Loop()
    first: dict[int, list] = {}
    deadline = perf_counter() + seconds
    speed = probe() if probe else 1.0
    for index in order:
        if len(loop.order) >= len(pool) and perf_counter() >= deadline:
            break
        start = perf_counter()
        outcomes = []
        for inst in pool[index]:
            if tracer is not None:
                tracer.current_instance = len(loop.outcomes) + len(outcomes)
            outcomes.append(runner.run(inst))
        raw = perf_counter() - start
        if probe:
            after = probe()
            loop.slowdown.append(after)
            normalised, speed = raw / ((speed + after) / 2.0), after
        else:
            normalised = raw
        if index not in first:
            first[index] = outcomes
            loop.outcomes += outcomes
            loop.first_pass_wall += raw
        elif _signature(outcomes) != _signature(first[index]):
            loop.problems.append(
                f"{pool[index][0].replay()}: first run gave (ok, queries, hits) "
                f"{_signature(first[index])}, a repeat {_signature(outcomes)}")
        loop.problems += [f"{o.instance.replay()}: {o.error}" for o in outcomes if o.wrong]
        loop.order.append(index)
        loop.raw.setdefault(index, []).append(raw)
        loop.normalised.setdefault(index, []).append(normalised)
    return loop


def traced_run(runner, pool, order, seconds: float, spans_path: Path):
    """Run untraced for half the time, then replay the first pass traced.

    Returns (first-pass outcomes, per-layer metrics, problems).
    """
    plain = run_loop(runner, pool, order, seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        runner.tracer = tracer
        traced = run_loop(runner, pool, plain.order[:len(pool)], 0.0, tracer=tracer)
    finally:
        runner.tracer = None
        tracer.uninstall()
    total, per_instance = tracer.aggregate()
    problems = plain.problems + traced.problems + spans.check_trace(
        plain.outcomes, traced.outcomes, per_instance)
    tracer.write_jsonl(spans_path)
    metrics = spans.layer_metrics(total, tracer, traced.outcomes, len(pool),
                                  plain.first_pass_wall, traced.first_pass_wall)
    return plain.outcomes, metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    warmup.pin_threads()
    try:
        cli = warmup.import_package()
    except warmup.MissingPackage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import workloads  # imports numpy, so only after pin_threads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import refspeed

    refspeed.probe()  # pays scipy's lazy imports before any timed probe
    setup_s = measure_setup() if not args.trace else None
    warmup.warm_up()
    OUT.mkdir(exist_ok=True)
    hits = workloads.load_recorded_hits()
    pool = workloads.pool(args.workload)
    order = workloads.passes(len(pool), args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    host = {}

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        runner = workloads.Runner(cli, workdir, hits)
        if args.trace:
            outcomes, metrics, problems = traced_run(runner, pool, order, args.seconds,
                                                     OUT / f"{name}.spans.jsonl")
            units = {m[0]: m[1] for m in spans.LAYER_METRICS}
        else:
            loop = run_loop(runner, pool, order, args.seconds, probe=refspeed.probe)
            outcomes, problems = loop.outcomes, loop.problems
            slowdown = statistics.median(loop.slowdown)
            metrics = {
                "setup_s": setup_s / slowdown,
                "op_s": loop.op_seconds(loop.normalised),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
            host = {"raw_setup_s": setup_s, "raw_op_s": loop.op_seconds(loop.raw),
                    "median_slowdown": slowdown,
                    "operations_run": len(loop.order)}

    for o in outcomes:
        if not o.ok:
            print(f"failed: {o.instance.replay()}: {o.error}", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    env = environment()
    record = OUT / f"{name}.json"
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "env": env, "host": host, "problems": problems,
                   "instances": [o.record() for o in outcomes], **result}, fh, indent=1)
    print(json.dumps({"record": str(record.relative_to(HERE.parent)),
                      "env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
