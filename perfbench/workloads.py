"""The benchmark's workloads: fixed instance pools and the operations run on them.

Every operation goes through `netpeel.cli.main` in-process, with its files in
a scratch directory and its output captured, so the CLI, serialization, the
`AccessAudit` guard and verification are all inside the measurement.

Each workload is a fixed pool of operations; the seed sets the order in
which a run goes through it.  A run makes at least one whole pass, so every
run attempts the same instances and meets the same failures, and the
per-operation median times it reports are over the same instances.

- `d2-wide`: depth-2 round trips (generate, extract, verify) at d=10,
  d1=32, delta=1e-4, for generator seeds 0-9.  Extraction is nearly all of
  the time, spent in per-query Python in the oracle, the subtracted oracle
  and the `pwl` bisection; generation draws no LP.
- `d3-small`: depth-3 round trips at (d, d1, d2) = (6, 3, 9) for generator
  seeds 0-47.  Generation (repeated LPs and the pattern walk of
  `check_nonzero_partials`) and every `extract3` phase share the time; the
  peeled depth-2 stage runs `extract2` on a cheap oracle.
- `orthant-bound`: each operation runs `netpeel bound-experiment` for one
  seed of 0-31 at (d, d1) = (2, 30) with 1024 trials, where the duality
  screen settles most trials, and at (3, 12) with 50 trials, where every
  trial is an LP.  No oracle, no extractor.  Every hit count is checked
  against `orthant_hits.json`.
"""
from __future__ import annotations

import csv
import io
import json
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
HITS_FILE = HERE / "orthant_hits.json"

DELTA = 1e-4
TAU = 1e-6
# workload -> (cell, number of generator seeds in its pool)
ROUNDTRIP_POOLS = {
    "d2-wide": ((10, 32), 10),
    "d3-small": ((6, 3, 9), 48),
}
# (d, d1, trials) per bound-experiment call; together about 0.3 s per seed.
ORTHANT_CELLS = ((2, 30, 1024), (3, 12, 50))
ORTHANT_POOL = 32
WORKLOADS = (*ROUNDTRIP_POOLS, "orthant-bound")


@dataclass(frozen=True)
class Instance:
    cell: tuple[int, ...]
    seed: int
    trials: int = 0  # orthant instances only

    @property
    def key(self) -> str:
        return ",".join(map(str, self.cell + ((self.trials,) if self.trials else ())))

    def replay(self) -> str:
        """The command that reproduces this instance's input."""
        if self.trials:
            d, d1 = self.cell
            return (f"netpeel bound-experiment --d {d} --d1 {d1} "
                    f"--trials {self.trials} --seed {self.seed}")
        shape = f"--d {self.cell[0]} --d1 {self.cell[1]}"
        if len(self.cell) == 3:
            shape += f" --d2 {self.cell[2]}"
        return (f"netpeel generate --depth {len(self.cell)} {shape} "
                f"--seed {self.seed} --out net.json")


@dataclass
class Outcome:
    instance: Instance
    ok: bool = True         # every step exited 0 and every check held
    wrong: bool = False     # an output failed a correctness check
    seconds: float = 0.0
    queries: int | None = None
    phase_queries: dict | None = None
    hits: int | None = None
    calls: dict = field(default_factory=dict)
    error: str | None = None

    def fail(self, message: str, *, wrong: bool = False) -> None:
        self.ok = False
        self.wrong = self.wrong or wrong
        self.error = message

    def record(self) -> dict:
        return {
            "cell": list(self.instance.cell),
            "seed": self.instance.seed,
            "trials": self.instance.trials,
            "replay": self.instance.replay(),
            "ok": self.ok,
            "wrong": self.wrong,
            "seconds": self.seconds,
            "queries": self.queries,
            "phase_queries": self.phase_queries,
            "hits": self.hits,
            "calls": self.calls,
            "error": self.error,
        }


def pool(workload: str) -> list[tuple[Instance, ...]]:
    """A workload's operations.  An operation is a tuple of instances timed
    together: one round trip, or one seed run through every orthant cell."""
    if workload in ROUNDTRIP_POOLS:
        cell, size = ROUNDTRIP_POOLS[workload]
        return [(Instance(cell, s),) for s in range(size)]
    if workload == "orthant-bound":
        return [tuple(Instance((d, d1), s, trials) for d, d1, trials in ORTHANT_CELLS)
                for s in range(ORTHANT_POOL)]
    raise ValueError(f"unknown workload {workload!r}")


def passes(size: int, seed: int):
    """Endless stream of pool indices: each pass a permutation drawn from `seed`."""
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(i) for i in rng.permutation(size))


def load_recorded_hits() -> dict[str, list[int]]:
    with open(HITS_FILE) as fh:
        return json.load(fh)["hits"]


class Runner:
    """Runs operations through `cli.main`, optionally inside tracer spans."""

    def __init__(self, cli, workdir: Path, recorded_hits: dict):
        self.cli = cli
        self.workdir = Path(workdir)
        self.recorded_hits = recorded_hits
        self.tracer = None  # a `spans.Tracer` while the run is traced

    def _call(self, outcome: Outcome, argv: list[str]) -> int:
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        sink = io.StringIO()
        t0 = perf_counter()
        with span, redirect_stdout(sink), redirect_stderr(sink):
            code = self.cli.main(argv)
        outcome.calls[argv[0]] = perf_counter() - t0
        if code != 0:
            tail = sink.getvalue().strip().splitlines()[-1:] or [""]
            outcome.fail(f"{argv[0]} exited {code}: {tail[0]}",
                         wrong=argv[0] == "verify" and code == self.cli.EXIT_VERIFY_FAIL)
        return code

    def run(self, inst: Instance) -> Outcome:
        outcome = Outcome(inst)
        t0 = perf_counter()
        try:
            if inst.trials:
                self._orthant(outcome)
            else:
                self._roundtrip(outcome)
        except Exception:  # the loop goes on; the traceback is kept
            # The CLI maps every expected failure to an exit code, so an
            # exception escaping it is a wrong outcome.  An audit violation
            # (a parameter read during extraction) surfaces this way.
            outcome.fail(traceback.format_exc(limit=-3), wrong=True)
        outcome.seconds = perf_counter() - t0
        return outcome

    def _roundtrip(self, outcome: Outcome) -> None:
        inst = outcome.instance
        net = str(self.workdir / "net.json")
        report = str(self.workdir / "report.json")
        gen = ["generate", "--depth", str(len(inst.cell)),
               "--d", str(inst.cell[0]), "--d1", str(inst.cell[1])]
        if len(inst.cell) == 3:
            gen += ["--d2", str(inst.cell[2])]
        steps = (
            gen + ["--seed", str(inst.seed), "--out", net],
            ["extract", "--input", net, "--delta", repr(DELTA), "--out", report],
            ["verify", "--truth", net, "--candidate", report, "--tau", repr(TAU)],
        )
        for argv in steps:
            if self._call(outcome, argv) != 0:
                return
            if argv[0] == "extract":
                with open(report) as fh:
                    doc = json.load(fh)
                outcome.queries = int(doc["total_queries"])
                outcome.phase_queries = dict(doc["phase_queries"])
                if doc["parameter_reads"] != 0:
                    outcome.fail(f"extract read {doc['parameter_reads']} parameters",
                                 wrong=True)
                    return

    def _orthant(self, outcome: Outcome) -> None:
        inst = outcome.instance
        out = str(self.workdir / "bound.csv")
        d, d1 = inst.cell
        argv = ["bound-experiment", "--d", str(d), "--d1", str(d1),
                "--trials", str(inst.trials), "--seed", str(inst.seed), "--out", out]
        if self._call(outcome, argv) != 0:
            return
        with open(out, newline="") as fh:
            outcome.hits = int(next(csv.DictReader(fh))["hits"])
        expected = self.recorded_hits[inst.key][inst.seed]
        if outcome.hits != expected:
            outcome.fail(f"{outcome.hits} orthant hits, recorded {expected}", wrong=True)
