"""The outcome ledger: every named pool's outcomes, query counts and networks.

Each run generates a net, extracts it at delta = 1e-4 and judges the result
against the truth at tau = 1e-6, on [0, 50]^d at depth 2 (every axis
crossing lies within `AXIS_WINDOW`) and on [-5, 5]^d at depth 3.  A run
that returns is "pass" or "wrong"; one that raises `GeneralPositionError`
or `PieceBudgetError` is "raise", and keeps its message, which names the
phase.  A seed whose draw raises `GenerationError` is "no net", keeps the
generator's message and stays out of the pass/raise/wrong tally.  A
returned run keeps its per-phase queries and the sha256 of its
recovered network document; the document pins the parameters to the bit,
with the BLAS caveat of the digests in `test_cli.py`.

Pools:

- the benchmark and baseline pools, generator seed s drawn from
  `default_rng(s)`: depth 2 at (10,32) 0-9 (d2-wide), (4,8) 0-39, (2,32)
  0-19 and (10,16) 0-19, extracted with d1_max = d1 + 4; depth 3 at (6,3,9)
  0-47 (d3-small), (4,3,9) 0-29, (2,2,6) 0-19, (3,2,6) 0-99 and (6,6,30)
  0-23;
- the near-coincident table, `helpers.near_coincident_net(s, g)` for s in
  0-39 at g = 1e-3, 1e-4, 3e-5 and 1e-5, extracted with d1_max = 13;
- the near-coincident rows table, `helpers.near_coincident_rows(s, g)` for
  s in 0-29 at g = 1e-2, 1e-3, 1e-4 and 1e-5.

The committed `LEDGER.json` holds one record per pool.  Run from the
repository root with `src` on the path:

    PYTHONPATH=src python tests/ledger.py            # print the summary
    PYTHONPATH=src python tests/ledger.py --diff     # changes against LEDGER.json
    PYTHONPATH=src python tests/ledger.py --write    # re-take LEDGER.json

`--diff` exits 1 when any pool differs from `LEDGER.json` or is missing
from it, and 0 when every pool reads unchanged, so a script can gate on
its exit code.  `test_ledger.py` checks the depth-2 pools and the
near-coincident table against the file.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from helpers import near_coincident_net, near_coincident_rows
from netpeel.extract2 import extract_two_layer
from netpeel.extract3 import extract_three_layer
from netpeel.oracle.generate import GenerationError, generate_three_layer, generate_two_layer
from netpeel.oracle.nets import TwoLayerNet
from netpeel.oracle.query import as_oracle
from netpeel.oracle.serialize import dumps_document, net_to_document
from netpeel.pwl import GeneralPositionError, PieceBudgetError
from netpeel.verify import functional_equivalence

LEDGER = Path(__file__).with_name("LEDGER.json")
DELTA = 1e-4
TAU = 1e-6
BOXES = {2: (0.0, 50.0), 3: (-5.0, 5.0)}

# name -> (kind, shape or gap, number of seeds)
POOLS = {
    "d2-wide": ("generated", (10, 32), 10),
    "(4,8)": ("generated", (4, 8), 40),
    "(2,32)": ("generated", (2, 32), 20),
    "(10,16)": ("generated", (10, 16), 20),
    "d3-small": ("generated", (6, 3, 9), 48),
    "(4,3,9)": ("generated", (4, 3, 9), 30),
    "(2,2,6)": ("generated", (2, 2, 6), 20),
    "(3,2,6)": ("generated", (3, 2, 6), 100),
    "(6,6,30)": ("generated", (6, 6, 30), 24),
    "near g=1e-3": ("near", 1e-3, 40),
    "near g=1e-4": ("near", 1e-4, 40),
    "near g=3e-5": ("near", 3e-5, 40),
    "near g=1e-5": ("near", 1e-5, 40),
    "rows g=1e-2": ("rows", 1e-2, 30),
    "rows g=1e-3": ("rows", 1e-3, 30),
    "rows g=1e-4": ("rows", 1e-4, 30),
    "rows g=1e-5": ("rows", 1e-5, 30),
}
# The tier-1 slice: the depth-2 pools and the near-coincident table.
FAST = [name for name, (kind, shape, _) in POOLS.items()
        if kind == "near" or (kind == "generated" and len(shape) == 2)]


def _net(kind, shape, seed):
    """(net, d1_max) for one seed of a pool; depth 3 takes no d1_max."""
    if kind == "near":
        return near_coincident_net(seed, shape), 13
    if kind == "rows":
        return near_coincident_rows(seed, shape), None
    rng = np.random.default_rng(seed)
    if len(shape) == 2:
        return generate_two_layer(*shape, rng), shape[1] + 4
    return generate_three_layer(*shape, rng), None


def run_one(net, d1_max):
    """The record of one extraction judged against `net`."""
    oracle = as_oracle(net)
    depth = 2 if isinstance(net, TwoLayerNet) else 3
    try:
        if depth == 2:
            result = extract_two_layer(oracle, net.d, DELTA, d1_max)
        else:
            result = extract_three_layer(oracle, DELTA)
    except (GeneralPositionError, PieceBudgetError) as err:
        return {"outcome": "raise", "queries": oracle.count, "error": str(err)}
    passed = functional_equivalence(net, result.net, *BOXES[depth], tau=TAU).passed
    text = dumps_document(net_to_document(result.net))
    return {"outcome": "pass" if passed else "wrong", "queries": oracle.count,
            "phases": dict(result.phase_queries),
            "network": hashlib.sha256(text.encode()).hexdigest()}


def run_pool(name):
    """The record of pool `name`: its outcome tally, the per-phase query
    totals of the runs that returned, and one record per seed."""
    kind, shape, n_seeds = POOLS[name]
    runs = []
    for seed in range(n_seeds):
        try:
            drawn = _net(kind, shape, seed)
        except GenerationError as err:
            runs.append({"seed": seed, "outcome": "no net", "error": str(err)})
            continue
        runs.append({"seed": seed, **run_one(*drawn)})
    tally = {k: sum(r["outcome"] == k for r in runs) for k in ("pass", "raise", "wrong")}
    totals = {}
    for r in runs:
        for phase, n in r.get("phases", {}).items():
            totals[phase] = totals.get(phase, 0) + n
    return {"outcomes": tally, "total": sum(totals.values()), "phases": totals,
            "runs": runs}


def load():
    return json.loads(LEDGER.read_text())


def dumps(ledger):
    """The ledger as JSON with one line per run, so a diff shows runs."""
    out = ["{"]
    for i, (name, pool) in enumerate(ledger.items()):
        head = {k: v for k, v in pool.items() if k != "runs"}
        out.append(f"  {json.dumps(name)}: {{")
        for key, value in head.items():
            out.append(f"    {json.dumps(key)}: {json.dumps(value)},")
        out.append('    "runs": [')
        out.append(",\n".join(f"      {json.dumps(r)}" for r in pool["runs"]))
        out.append("    ]")
        out.append("  }" + ("," if i < len(ledger) - 1 else ""))
    out.append("}")
    return "\n".join(out) + "\n"


def diff_pool(old, new):
    """Lines naming every change of pool record `new` against `old`."""
    lines = []
    for key in ("outcomes", "total", "phases"):
        if old.get(key) != new.get(key):
            lines.append(f"{key}: {old.get(key)} -> {new.get(key)}")
    for a, b in zip(old["runs"], new["runs"]):
        changed = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
        if changed:
            parts = ", ".join(f"{k} {a.get(k)!r} -> {b.get(k)!r}"
                              if k != "network" else "network" for k in changed)
            lines.append(f"seed {a['seed']}: {parts}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--diff", action="store_true",
                      help="print each pool's changes against LEDGER.json")
    mode.add_argument("--write", action="store_true", help="re-take LEDGER.json")
    args = parser.parse_args(argv)
    old = load() if LEDGER.exists() else {}
    new = {}
    differs = False
    t0 = time.perf_counter()
    for name in POOLS:
        new[name] = pool = run_pool(name)
        tally = "/".join(str(v) for v in pool["outcomes"].values())
        line = f"{name}: {tally} pass/raise/wrong"
        no_net = sum(r["outcome"] == "no net" for r in pool["runs"])
        if no_net:
            line += f" ({no_net} no net)"
        line += f", {pool['total']:,} queries {pool['phases']}"
        if args.diff:
            changes = diff_pool(old[name], pool) if name in old else ["not in LEDGER.json"]
            differs = differs or bool(changes)
            line += "".join(f"\n  {c}" for c in changes) or "\n  unchanged"
        print(line, flush=True)
    print(f"{len(new)} pools in {time.perf_counter() - t0:.1f} s")
    if args.write:
        LEDGER.write_text(dumps(new))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
