"""Span recording around the package's public functions, from outside the package.

`Tracer.install()` swaps each traced function for a wrapper that records a
span, in every `netpeel` module namespace that holds a reference to it, so
`netpeel.cli.extract_two_layer` and `netpeel.extract3.extract_two_layer` are
traced as well as `netpeel.extract2`'s own name.  `QueryOracle.query` is
wrapped on the class, so every oracle instance, base or derived, is traced.
`linprog` is wrapped separately in the generator's and the verifier's
namespaces so the two LP consumers are told apart.  `uninstall()` restores
every original.  Nothing under `src/` is changed.

Spans are kept in memory in flat arrays and written as JSONL on request.
Each span has a name, start, end, parent span id and instance index, plus
the number of base-oracle queries issued while it was open.
"""
from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# Oracles built by the extractors on top of the base oracle carry these
# label suffixes (`subtracted_oracle` and `peel_first_layer`).
DERIVED_SUFFIXES = ("-peel", "-top")

# (module, function) -> span name; wrapped in every namespace holding it.
TRACED = (
    ("netpeel.pwl", "leftmost_critical_point_1d", "pwl.leftmost"),
    ("netpeel.pwl", "reconstruct_affine", "pwl.affine"),
    ("netpeel.pwl", "reconstruct_critical_hyperplane", "pwl.hyperplane"),
    ("netpeel.pwl", "is_critical_point", "pwl.critical"),
    ("netpeel.extract2", "find_neuron_crossing", "extract2.scan"),
    ("netpeel.extract2", "recover_neuron", "extract2.recover"),
    ("netpeel.extract2", "extract_two_layer", "extract2.extract"),
    ("netpeel.extract3", "collect_candidate_hyperplanes", "extract3.collect"),
    ("netpeel.extract3", "is_first_layer_plane", "extract3.filter"),
    ("netpeel.extract3", "recover_row_signs", "extract3.signs"),
    ("netpeel.extract3", "extract_three_layer", "extract3.extract"),
    ("netpeel.oracle.generate", "generate_two_layer", "generate.draw"),
    ("netpeel.oracle.generate", "generate_three_layer", "generate.draw"),
    ("netpeel.oracle.generate", "check_nonzero_partials", "generate.partials"),
    ("netpeel.verify", "functional_equivalence", "verify.equivalence"),
    ("netpeel.verify", "empirical_orthant_bound", "verify.orthant"),
    ("netpeel.oracle.serialize", "save_net", "serialize.save"),
    ("netpeel.oracle.serialize", "net_to_document", "serialize.save"),
    ("netpeel.oracle.serialize", "dumps_document", "serialize.save"),
    ("netpeel.oracle.serialize", "load_net", "serialize.load"),
    ("netpeel.oracle.serialize", "loads_document", "serialize.load"),
    ("netpeel.oracle.serialize", "document_to_net", "serialize.load"),
)

# (module, attribute) -> span name; wrapped in that namespace only.
TRACED_LOCAL = (
    ("netpeel.oracle.generate", "linprog", "generate.lp"),
    ("netpeel.verify", "linprog", "verify.lp"),
)

# Return values kept per span name, for the ratios and worst cases below.
OBSERVED = {
    "extract3.filter": bool,
    "generate.partials": bool,
    "verify.equivalence": lambda report: report.max_rel_err,
    "verify.orthant": lambda exp: exp.hits,
}

BASE_QUERY = "oracle.query"
DERIVED_QUERY = "oracle.derived"

# Per-layer metrics: name, unit, better, and the end-to-end metric and
# workload each should move.  Counts and times are per operation: per round
# trip, or per orthant pool seed run through both cells.  `_s`
# metrics of functions are self time (child spans excluded); phase metrics
# (`extract2.*`, `extract3.*`) are inclusive and partition their caller.
LAYER_METRICS = (
    ("oracle.queries", "count", "lower", "op_s on d2-wide and d3-small"),
    ("oracle.query_us", "us", "lower", "op_s on d2-wide"),
    ("oracle.derived_query_us", "us", "lower", "op_s on d2-wide and d3-small"),
    ("pwl.leftmost_calls", "count", "lower", "op_s on d2-wide"),
    ("pwl.leftmost_s", "s", "lower", "op_s on d2-wide"),
    ("pwl.affine_calls", "count", "lower", "op_s on d2-wide"),
    ("pwl.affine_s", "s", "lower", "op_s on d2-wide"),
    ("pwl.hyperplane_calls", "count", "lower", "op_s on d3-small"),
    ("pwl.hyperplane_s", "s", "lower", "op_s on d3-small"),
    ("pwl.critical_calls", "count", "lower", "op_s on d3-small"),
    ("pwl.critical_s", "s", "lower", "op_s on d3-small"),
    ("extract2.scan_s", "s", "lower", "op_s on d2-wide"),
    ("extract2.recover_s", "s", "lower", "op_s on d2-wide"),
    ("extract2.other_s", "s", "lower", "op_s on d2-wide"),
    ("extract2.scan_queries", "count", "lower", "op_s on d2-wide"),
    ("extract2.recover_queries", "count", "lower", "op_s on d2-wide"),
    ("extract2.skip_queries", "count", "lower", "op_s on d2-wide"),
    ("extract3.collect_s", "s", "lower", "op_s on d3-small"),
    ("extract3.filter_s", "s", "lower", "op_s on d3-small"),
    ("extract3.signs_s", "s", "lower", "op_s on d3-small"),
    ("extract3.peel_s", "s", "lower", "op_s on d3-small"),
    ("extract3.collect_queries", "count", "lower", "op_s on d3-small"),
    ("extract3.filter_queries", "count", "lower", "op_s on d3-small"),
    ("extract3.signs_queries", "count", "lower", "op_s on d3-small"),
    ("extract3.peel_queries", "count", "lower", "op_s on d3-small"),
    ("extract3.filter_keep_ratio", "ratio", "higher", "op_s on d3-small"),
    ("extract3.axis_retries", "count", "lower", "op_s on d3-small"),
    ("generate.draw_s", "s", "lower", "op_s on d3-small; not on d2-wide"),
    ("generate.partials_calls", "count", "lower", "op_s on d3-small; not on d2-wide"),
    ("generate.partials_s", "s", "lower", "op_s on d3-small; not on d2-wide"),
    ("generate.partials_accept_ratio", "ratio", "higher", "op_s on d3-small"),
    ("generate.lp_calls", "count", "lower", "op_s on d3-small; not on orthant-bound"),
    ("generate.lp_s", "s", "lower", "op_s on d3-small; not on orthant-bound"),
    ("verify.equivalence_s", "s", "lower", "op_s on d2-wide and d3-small"),
    ("verify.max_rel_err", "ratio", "lower", "correctness on d2-wide and d3-small"),
    ("verify.lp_calls", "count", "lower", "op_s on orthant-bound"),
    ("verify.lp_s", "s", "lower", "op_s on orthant-bound"),
    ("verify.screened_frac", "ratio", "higher", "op_s on orthant-bound"),
    ("verify.orthant_hits", "count", "higher", "correctness on orthant-bound"),
    ("serialize.save_s", "s", "lower", "op_s on d2-wide, at most 1%"),
    ("serialize.load_s", "s", "lower", "op_s on d2-wide, at most 1%"),
    ("cli.generate_s", "s", "lower", "op_s on d3-small"),
    ("cli.extract_s", "s", "lower", "op_s on d2-wide and d3-small"),
    ("cli.verify_s", "s", "lower", "op_s on d2-wide and d3-small"),
    ("cli.bound_s", "s", "lower", "op_s on orthant-bound"),
    ("cli.failed_frac", "ratio", "lower", "op_s on every workload"),
    ("trace.overhead_frac", "ratio", "lower", "none: cost of tracing itself"),
)


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.instance = array("q")
        self.queries = array("q")
        self.base_queries = 0
        self.current_instance = -1
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[tuple[int, int, float, int]] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self.t0 = perf_counter()

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> None:
        self._stack.append((self._next_id, nid, perf_counter(), self.base_queries))
        self._next_id += 1

    def _close(self) -> None:
        end = perf_counter()
        sid, nid, start, q0 = self._stack.pop()
        self.ids.append(sid)
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.queries.append(self.base_queries - q0)

    @contextmanager
    def span(self, name: str):
        self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close()

    # -- wrapping ------------------------------------------------------
    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        observe = OBSERVED.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if observe is not None:
                tracer.observed[name].append(observe(result))
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function in every `netpeel` namespace holding it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "netpeel" or n.startswith("netpeel."))]
        for mod_name, attr, name in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    self._set(mod, key, wrapper)
        for mod_name, attr, name in TRACED_LOCAL:
            mod = sys.modules[mod_name]
            self._set(mod, attr, self._wrap(getattr(mod, attr), name))
        self._wrap_query(sys.modules["netpeel.oracle.query"].QueryOracle)

    def _wrap_query(self, cls) -> None:
        original = cls.query
        base_id = self._name_id(BASE_QUERY)
        derived_id = self._name_id(DERIVED_QUERY)
        tracer = self

        @functools.wraps(original)
        def query(oracle, x):
            if oracle.label.endswith(DERIVED_SUFFIXES):
                tracer._open(derived_id)
            else:
                tracer.base_queries += 1
                tracer._open(base_id)
            try:
                return original(oracle, x)
            finally:
                tracer._close()

        self._set(cls, "query", query)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------
    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i in range(len(self.ids)):
                fh.write(json.dumps({
                    "id": self.ids[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i] - self.t0,
                    "end": self.end[i] - self.t0,
                    "parent": self.parent[i],
                    "instance": self.instance[i],
                    "queries": self.queries[i],
                }) + "\n")

    def aggregate(self) -> tuple[dict, dict]:
        """Per-name and per-(instance, name) totals of the recorded spans.

        Each total holds `calls`, `incl` (seconds), `own` (self seconds, child
        spans excluded) and `queries` (base queries issued while open).
        """
        child = defaultdict(float)
        for i in range(len(self.ids)):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        total: dict[str, SpanTotal] = defaultdict(SpanTotal)
        per_instance: dict[tuple[int, str], SpanTotal] = defaultdict(SpanTotal)
        for i in range(len(self.ids)):
            incl = self.end[i] - self.start[i]
            own = incl - child.get(self.ids[i], 0.0)
            name = self.names[self.name[i]]
            for agg in (total[name], per_instance[(self.instance[i], name)]):
                agg.calls += 1
                agg.incl += incl
                agg.own += own
                agg.queries += self.queries[i]
        return dict(total), dict(per_instance)


@dataclass
class SpanTotal:
    calls: int = 0
    incl: float = 0.0
    own: float = 0.0
    queries: int = 0


NO_SPANS = SpanTotal()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict, tracer: Tracer, outcomes, n: int,
                  untraced_wall: float, traced_wall: float) -> dict[str, float]:
    """The per-layer metrics of a traced run of `n` operations."""

    def agg(name: str) -> SpanTotal:
        return total.get(name, NO_SPANS)

    base = agg(BASE_QUERY)
    out = {
        "oracle.queries": _ratio(base.calls, n),
        "oracle.query_us": 1e6 * _ratio(base.own, base.calls),
        "oracle.derived_query_us": 1e6 * _ratio(agg(DERIVED_QUERY).own, base.calls),
    }
    for short in ("leftmost", "affine", "hyperplane", "critical"):
        a = agg(f"pwl.{short}")
        out[f"pwl.{short}_calls"] = _ratio(a.calls, n)
        out[f"pwl.{short}_s"] = _ratio(a.own, n)

    for prefix, whole, phases, rest in (
        ("extract2", "extract2.extract", ("scan", "recover"), ("other", "skip")),
        ("extract3", "extract3.extract", ("collect", "filter", "signs"), ("peel", "peel")),
    ):
        w = agg(whole)
        rest_s, rest_q = w.incl, w.queries
        for phase in phases:
            a = agg(f"{prefix}.{phase}")
            out[f"{prefix}.{phase}_s"] = _ratio(a.incl, n)
            out[f"{prefix}.{phase}_queries"] = _ratio(a.queries, n)
            rest_s -= a.incl
            rest_q -= a.queries
        out[f"{prefix}.{rest[0]}_s"] = _ratio(rest_s, n)
        out[f"{prefix}.{rest[1]}_queries"] = _ratio(rest_q, n)

    kept = tracer.observed["extract3.filter"]
    out["extract3.filter_keep_ratio"] = _ratio(sum(kept), len(kept))
    out["extract3.axis_retries"] = _ratio(
        agg("extract3.collect").calls - agg("extract3.extract").calls, n)

    accepted = tracer.observed["generate.partials"]
    out["generate.draw_s"] = _ratio(agg("generate.draw").own, n)
    out["generate.partials_calls"] = _ratio(len(accepted), n)
    out["generate.partials_s"] = _ratio(agg("generate.partials").own, n)
    out["generate.partials_accept_ratio"] = _ratio(sum(accepted), len(accepted))
    out["generate.lp_calls"] = _ratio(agg("generate.lp").calls, n)
    out["generate.lp_s"] = _ratio(agg("generate.lp").own, n)

    trials = sum(o.instance.trials for o in outcomes)
    errs = tracer.observed["verify.equivalence"]
    out["verify.equivalence_s"] = _ratio(agg("verify.equivalence").own, n)
    out["verify.max_rel_err"] = max(errs, default=0.0)
    out["verify.lp_calls"] = _ratio(agg("verify.lp").calls, n)
    out["verify.lp_s"] = _ratio(agg("verify.lp").own, n)
    out["verify.screened_frac"] = 1.0 - _ratio(agg("verify.lp").calls, trials) if trials else 0.0
    out["verify.orthant_hits"] = _ratio(sum(tracer.observed["verify.orthant"]), n)

    out["serialize.save_s"] = _ratio(agg("serialize.save").own, n)
    out["serialize.load_s"] = _ratio(agg("serialize.load").own, n)

    for cmd, key in (("generate", "generate"), ("extract", "extract"),
                     ("verify", "verify"), ("bound-experiment", "bound")):
        a = agg(f"cli.{cmd}")
        out[f"cli.{key}_s"] = _ratio(a.incl, a.calls)
    out["cli.failed_frac"] = _ratio(sum(not o.ok for o in outcomes), len(outcomes))
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {name: out[name] for name, *_ in LAYER_METRICS}


def _phase_split(per_instance, i: int, prefix: str, whole: str, phases, rest: str):
    """Base queries per phase of instance i, as the trace attributes them."""
    split = {}
    remaining = per_instance.get((i, whole), NO_SPANS).queries
    for phase in phases:
        split[phase] = per_instance.get((i, f"{prefix}.{phase}"), NO_SPANS).queries
        remaining -= split[phase]
    split[rest] = remaining
    return split


def check_trace(plain, traced, per_instance) -> list[str]:
    """Tracing must change no decision and must see every counted query."""
    problems = []
    trace_total = report_total = 0
    for i, (a, b) in enumerate(zip(plain, traced)):
        where = f"instance {i} ({b.instance.replay()})"
        if (a.ok, a.queries, a.hits) != (b.ok, b.queries, b.hits):
            problems.append(f"{where}: untraced (ok, queries, hits) = "
                            f"{(a.ok, a.queries, a.hits)}, traced {(b.ok, b.queries, b.hits)}")
        if b.queries is None:
            continue
        trace_total += per_instance.get((i, BASE_QUERY), NO_SPANS).calls
        report_total += b.queries
        phases = b.phase_queries or {}
        if set(phases) == {"scan", "recover", "skip"}:
            split = _phase_split(per_instance, i, "extract2", "extract2.extract",
                                 ("scan", "recover"), "skip")
        elif per_instance.get((i, "extract3.collect"), NO_SPANS).calls == 1:
            split = _phase_split(per_instance, i, "extract3", "extract3.extract",
                                 ("collect", "filter", "signs"), "peel")
        else:  # axis retries: the report keeps only the last axis's phases
            split = phases
        if split != phases:
            problems.append(f"{where}: report phase queries {phases}, traced {split}")
    if trace_total != report_total:
        problems.append(f"traced base queries {trace_total} != reports' total_queries "
                        f"{report_total}")
    return problems
