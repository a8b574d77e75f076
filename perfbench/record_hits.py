"""Record the orthant hit count of every (cell, seed) in the `orthant-bound` pool.

    python3 perfbench/record_hits.py

Writes `perfbench/orthant_hits.json`, which the benchmark checks every
`bound-experiment` result against.  Rerun it only when a change to the
experiment is meant to change its hit counts, and say so in the change.
"""
from __future__ import annotations

import json

import warmup
from workloads import HITS_FILE, ORTHANT_CELLS, ORTHANT_POOL


def main() -> None:
    warmup.pin_threads()
    warmup.import_package()
    from netpeel.verify import empirical_orthant_bound

    hits = {}
    for d, d1, trials in ORTHANT_CELLS:
        hits[f"{d},{d1},{trials}"] = [
            empirical_orthant_bound(d, d1, trials, seed=seed).hits
            for seed in range(ORTHANT_POOL)
        ]
    with open(HITS_FILE, "w") as fh:
        json.dump({"pool": ORTHANT_POOL, "hits": hits}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {HITS_FILE}")


if __name__ == "__main__":
    main()
