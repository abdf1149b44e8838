"""In-memory span tracing for the benchmark's traced run.

Wrappers go around the package's public functions under the names the
program calls them by, so a call from `dyncompress.sweep` to `lll_reduce`
passes through the same wrapper as a direct call.  Each call records one
span (name, start, end, parent span, task id).  Self time is a span's
duration minus the union of its children's intervals.  Wrappers exist only
inside `Tracer.installed()`; untraced runs call the program directly.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, qualified name) of every traced function.  `binomial` and
# `BinomialPoly.__call__` run over 10^5 times per pass and are left out;
# their time counts in their callers' self time.
TRACED = (
    ("sweep", "search_degree"),
    ("lattice", "build_lattice"),
    ("lattice", "lll_reduce"),
    ("lattice", "harvest"),
    ("polynomials", "interpolate"),
    ("polynomials", "BinomialPoly.shift_argument"),
    ("polynomials", "poly_gcd"),
    ("polynomials", "squarefree_part"),
    ("compression", "check_window"),
    ("compression", "best_window"),
    ("geometry", "build_ellipsoid"),
    ("geometry", "build_interpolation_matrix"),
    ("geometry", "singular_values"),
    ("geometry", "minkowski_check"),
    ("dynamics", "preimage_count_exact"),
    ("dynamics", "common_preper_bound"),
    ("dynamics", "common_preper_depth_search"),
    ("families", "compressing_poly_binomial"),
    ("tables", "verify_tables"),
)

# sweep.search_degree is traced for its counters only: the set-up probe does
# not sweep, so its self time would read 0 on every other workload.
SELF_TIME_REPORTED = tuple(f"{m}.{q}" for m, q in TRACED if m != "sweep")


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: str


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval; overlapping siblings
    are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def _count_search_degree(tracer, args, records):
    c = tracer.counters
    found = [r for r in records if r.found]
    c["sweep.attempts"] += len(records)
    c["sweep.found"] += len(found)
    c["sweep.strict"] += sum(r.m > r.n for r in found)
    for r in found:
        margin = r.m - r.d
        c["sweep.witness_margin_min"] = min(c.get("sweep.witness_margin_min", margin), margin)


def _count_lll(tracer, args, reduced):
    b1 = sum(x * x for x in reduced.vectors[0])
    tracer.counters["lattice.lll_reduce.b1_log2_sum"] += math.log2(b1)


def _count_harvest(tracer, args, witnesses):
    rank = len(args["reduced"].vectors)
    tracer.counters["lattice.harvest.candidates"] += 2 * rank + 4 * math.comb(rank, 2)
    tracer.counters["lattice.harvest.witnesses"] += len(witnesses)


def _count_ellipsoid(tracer, args, ellipsoid):
    bits = tracer.mods.geometry.resolve_precision(args["precision_bits"], args["d"], args["k"])
    c = tracer.counters
    c["geometry.build_ellipsoid.prec_bits"] = max(c["geometry.build_ellipsoid.prec_bits"], bits)


COUNTERS = {
    "sweep.search_degree": _count_search_degree,
    "lattice.lll_reduce": _count_lll,
    "lattice.harvest": _count_harvest,
    "geometry.build_ellipsoid": _count_ellipsoid,
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._task = ""

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside any task, e.g. an output check
                return fn(*args, **kwargs)
            span_id = len(self.spans)
            self.spans.append(None)  # reserved so children get higher ids
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, name, start, end, parent, self._task)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every traced function, under every name the package binds it to."""
        package = [m for n, m in sys.modules.items() if n.split(".")[0] == "dyncompress"]
        undo = []
        try:
            for mod_name, qualname in TRACED:
                owner = getattr(self.mods, mod_name)
                *cls, attr = qualname.split(".")
                if cls:
                    owner = getattr(owner, cls[0])
                    original = owner.__dict__[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(f"{mod_name}.{qualname}", original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(f"{mod_name}.{qualname}", original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def task(self, task_id: str):
        """Root span for one task; every span inside shares its task id."""
        self._task = task_id
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, "task", start, end, None, task_id)

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self time, plus the layer counters."""
        own = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += own[s.span_id]
        c = self.counters
        out = {}
        for name in SELF_TIME_REPORTED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        attempts = c["sweep.attempts"]
        out["sweep.attempts"] = attempts
        out["sweep.found_ratio"] = c["sweep.found"] / attempts if attempts else 0.0
        out["sweep.witness_margin_min"] = c.get("sweep.witness_margin_min", 0)
        out["sweep.strict_frac"] = c["sweep.strict"] / c["sweep.found"] if c["sweep.found"] else 0.0
        lll_calls = calls["lattice.lll_reduce"]
        out["lattice.lll_reduce.b1_log2"] = (
            c["lattice.lll_reduce.b1_log2_sum"] / lll_calls if lll_calls else 0.0
        )
        candidates = c["lattice.harvest.candidates"]
        out["lattice.harvest.candidates"] = candidates
        out["lattice.harvest.witnesses"] = c["lattice.harvest.witnesses"]
        out["lattice.harvest.yield"] = (
            c["lattice.harvest.witnesses"] / candidates if candidates else 0.0
        )
        out["geometry.build_ellipsoid.prec_bits"] = c["geometry.build_ellipsoid.prec_bits"]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
