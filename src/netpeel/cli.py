"""Command-line front end for generation, extraction, and verification runs.

Every run is deterministic given its flags; all randomness flows from
`--seed`.  Exit codes: 0 success (or verification pass), 1 verification
fail, 2 usage error (a negative seed, a flag or list entry out of range, or
an unreadable, malformed or invalid input file, including a network that
evaluates to a non-finite value), 3 a geometric assumption did not hold, 4 a
piece or width budget ran out, 5 the extraction read a ground-truth
parameter other than through queries, 6 the LP solver failed (HiGHS neither
solved a program nor proved it infeasible).

Importing this module does not import scipy.  It is imported at the first
LP solve, which only `bound-experiment` and the depth-3 `generate` and
`bench` can reach.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from .extract2 import extract_two_layer
from .extract3 import extract_three_layer
from .oracle.generate import GenerationError, generate_three_layer, generate_two_layer
from .oracle.nets import TwoLayerNet
from .oracle.query import AccessAudit, NonFiniteValueError, as_oracle
from .orthant import SolverError
from .pwl import GeneralPositionError, PieceBudgetError
from .oracle.serialize import document_to_net, load_net, net_to_document, save_net
from .verify import (
    bench_to_csv,
    bound_to_csv,
    empirical_orthant_bound,
    fit_query_bound,
    functional_equivalence,
    query_complexity_bench,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_ASSUMPTION = 3
EXIT_BUDGET = 4
EXIT_AUDIT = 5
EXIT_SOLVER = 6

REPORT_FORMAT = "netpeel-report"


class UsageError(Exception):
    pass


class AuditError(Exception):
    """The extraction read ground-truth parameters other than through queries."""


def _positive(args: argparse.Namespace, names: list[str],
              below: float = math.inf) -> None:
    """Every named flag, and every entry of a list flag, lies in (0, below):
    by default, is positive and finite."""
    for name in names:
        value = getattr(args, name)
        entries = value if isinstance(value, tuple) else (value,)
        if any(v is not None and not 0 < v < below for v in entries):
            bound = "positive and finite" if below == math.inf else f"in (0, {below:g})"
            raise UsageError(f"--{name.replace('_', '-')} must be {bound}")


def _check_seeds(args: argparse.Namespace) -> None:
    for name, values in (("seed", (getattr(args, "seed", 0),)),
                         ("seeds", getattr(args, "seeds", ()))):
        if any(v < 0 for v in values):
            raise UsageError(f"--{name} must be non-negative")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


# Built once per process: each parse fills a fresh Namespace, and every
# default is immutable, so one call's flags never reach the next.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netpeel",
        description="Recover piecewise-linear networks from query access.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a ground-truth network file")
    gen.add_argument("--depth", type=int, choices=(2, 3), default=2)
    gen.add_argument("--d", type=int, default=2, help="input dimension")
    gen.add_argument("--d1", type=int, default=2, help="hidden width")
    gen.add_argument("--d2", type=int, default=6, help="second hidden width (depth 3)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="network file to write")

    ext = sub.add_parser("extract", help="recover a network from a file-backed oracle")
    ext.add_argument("--input", required=True, help="network file to mount as oracle")
    ext.add_argument("--delta", type=float, default=1e-4)
    ext.add_argument("--d1-max", type=int, default=512, dest="d1_max")
    ext.add_argument("--m-max", type=int, default=256, dest="m_max")
    ext.add_argument("--d2-max", type=int, default=512, dest="d2_max")
    ext.add_argument("--out", required=True, help="extraction report file to write")

    ver = sub.add_parser("verify", help="compare two network or report files")
    ver.add_argument("--truth", required=True, help="reference network file")
    ver.add_argument("--candidate", required=True, help="network or report file")
    ver.add_argument("--tau", type=float, default=1e-6)
    ver.add_argument("--samples", type=int, default=10_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--lo", type=float, default=None, help="box lower edge")
    ver.add_argument("--hi", type=float, default=None, help="box upper edge")

    bench = sub.add_parser("bench", help="query-count sweep with fitted constants")
    bench.add_argument("--depth", type=int, choices=(2, 3), default=2)
    bench.add_argument("--d-list", type=_int_list, default=(2, 4), dest="d_list")
    bench.add_argument("--d1-list", type=_int_list, default=(2, 4), dest="d1_list")
    bench.add_argument("--d2-list", type=_int_list, default=(6,), dest="d2_list")
    bench.add_argument("--deltas", type=_float_list, default=(1e-4,))
    bench.add_argument("--seeds", type=_int_list, default=(0,))
    bench.add_argument("--out", required=True, help="CSV file to write")

    bound = sub.add_parser(
        "bound-experiment", help="negative-orthant hit rate vs the closed-form bound"
    )
    bound.add_argument("--d", type=int, default=2)
    bound.add_argument("--d1", type=int, default=30)
    bound.add_argument("--trials", type=int, default=100_000)
    bound.add_argument("--seed", type=int, default=0)
    bound.add_argument("--out", default=None, help="optional CSV file")

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    _positive(args, ["d", "d1", "d2", "depth"])
    if args.depth == 3 and not (2 <= args.d1 <= args.d):
        raise UsageError(
            "depth 3 requires 2 <= d1 <= d: W must be right invertible, and with"
            " d1 = 1 every second-layer crease is parallel to the first-layer"
            " plane, so extraction cannot separate them")
    rng = np.random.default_rng(args.seed)
    if args.depth == 2:
        net = generate_two_layer(args.d, args.d1, rng)
    else:
        net = generate_three_layer(args.d, args.d1, args.d2, rng)
    save_net(args.out, net, seed=args.seed)
    print(f"wrote depth-{args.depth} network to {args.out}")
    return EXIT_OK


# What loading raises for a file that is not a valid network document:
# json.JSONDecodeError, UnicodeDecodeError and every refused field are
# ValueErrors, and a missing key is a KeyError.
_BAD_DOCUMENT = (ValueError, KeyError)


def _load(loader, path: str):
    """Run `loader(path)`, turning every file or format error into a usage error."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except OSError as err:
        raise UsageError(f"cannot read {path}: {err.strerror}")
    except _BAD_DOCUMENT as err:
        raise UsageError(f"{path} is not a valid network document: {err!r}")


def _load_file(path: str):
    """A network from either a bare network file or an extraction report."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and doc.get("format") == REPORT_FORMAT:
        doc = doc["network"]
    return document_to_net(doc)


def cmd_extract(args: argparse.Namespace) -> int:
    _positive(args, ["delta"], below=1.0)
    _positive(args, ["d1_max", "m_max", "d2_max"])
    truth = _load(load_net, args.input)
    audit = AccessAudit(truth)
    oracle = as_oracle(audit)
    audit.arm()
    t0 = time.perf_counter()
    # A network with finite but huge weights overflows in the oracle; the
    # oracle reports that as NonFiniteValueError, so numpy need not warn.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if isinstance(truth, TwoLayerNet):
                result = extract_two_layer(oracle, oracle.dim, args.delta, args.d1_max)
                depth = 2
            else:
                result = extract_three_layer(
                    oracle,
                    args.delta,
                    m_max=args.m_max,
                    d1_max=args.d1_max,
                    d2_max=args.d2_max,
                )
                depth = 3
    except NonFiniteValueError as err:
        raise UsageError(f"{args.input} is not a valid network: {err}")
    seconds = time.perf_counter() - t0
    audit.disarm()
    if audit.reads:
        raise AuditError(f"extraction read {audit.reads} ground-truth attributes")
    report = {
        "format": REPORT_FORMAT,
        "depth": depth,
        "delta": args.delta,
        "total_queries": oracle.count,
        "phase_queries": dict(result.phase_queries),
        "phase_seconds": {k: round(v, 6) for k, v in result.phase_seconds.items()},
        "residual_headroom": result.residual_headroom,
        "seconds": round(seconds, 4),
        "parameter_reads": audit.reads,
        "network": net_to_document(result.net),
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(
        f"extracted depth-{depth} network with {oracle.count} queries "
        f"in {seconds:.2f}s -> {args.out}"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    _positive(args, ["tau", "samples"])
    truth = _load(_load_file, args.truth)
    candidate = _load(_load_file, args.candidate)
    depth2 = isinstance(truth, TwoLayerNet)
    lo = args.lo if args.lo is not None else (0.0 if depth2 else -5.0)
    hi = args.hi if args.hi is not None else (10.0 if depth2 else 5.0)
    try:
        report = functional_equivalence(
            truth,
            candidate,
            lo,
            hi,
            n_samples=args.samples,
            tau=args.tau,
            seed=args.seed,
        )
    except ValueError as err:
        raise UsageError(str(err))
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def cmd_bench(args: argparse.Namespace) -> int:
    _positive(args, ["deltas"], below=1.0)
    _positive(args, ["depth", "d_list", "d1_list", "d2_list"])
    if not args.d_list or not args.d1_list or not args.deltas or not args.seeds:
        raise UsageError("bench needs non-empty --d-list, --d1-list, --deltas, --seeds")
    shapes = []
    for d in args.d_list:
        for d1 in args.d1_list:
            if args.depth == 2:
                shapes.append((2, d, d1, 0))
            else:
                if not 2 <= d1 <= d:
                    continue
                for d2 in args.d2_list:
                    shapes.append((3, d, d1, d2))
    if not shapes:
        raise UsageError("grid is empty after the depth-3 2 <= d1 <= d filter")
    rows = query_complexity_bench(shapes, deltas=args.deltas, seeds=args.seeds)
    bench_to_csv(rows, args.out)
    n_ok = sum(r.ok for r in rows)
    print(f"{n_ok}/{len(rows)} cells succeeded -> {args.out}")
    if n_ok == 0:
        print("every cell failed", file=sys.stderr)
        return EXIT_ASSUMPTION
    fit = fit_query_bound(rows, args.depth)
    print(
        f"depth-{fit.depth} fit: queries ~ {fit.constant:.2f} * predictor, "
        f"worst ratio {fit.worst_ratio:.2f} over {fit.n_rows} rows"
    )
    return EXIT_OK


def cmd_bound_experiment(args: argparse.Namespace) -> int:
    _positive(args, ["d", "d1", "trials"])
    exp = empirical_orthant_bound(args.d, args.d1, args.trials, seed=args.seed)
    print(
        f"d={exp.d} d1={exp.d1}: {exp.hits}/{exp.trials} hits "
        f"(rate {exp.rate:.3e}), bound {exp.bound:.3e}"
    )
    if args.out:
        bound_to_csv(exp, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "extract": cmd_extract,
    "verify": cmd_verify,
    "bench": cmd_bench,
    "bound-experiment": cmd_bound_experiment,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        _check_seeds(args)
        return _COMMANDS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except AuditError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_AUDIT
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except GenerationError as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except GeneralPositionError as err:
        print(f"geometric assumption failed: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except PieceBudgetError as err:
        print(f"budget exhausted: {err}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
