"""Outside-in tracing of linkmorse's public functions.

Every public function of the traced modules is wrapped at each module
attribute that holds it, which is where its callers look it up at call time
(``analysis`` imports ``oracle_index`` by name, so the binding in
``analysis`` is replaced as well as the one in ``oracle``).  ``scipy``'s
``brentq`` is wrapped where ``solver`` binds it, and
``AngularPath.gaps_at`` on its class.  In ``cli`` only the entry point
``main`` is wrapped, so argument parsing, file I/O and the subcommand bodies
are its self time.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends; :func:`summarize` turns them into per-name call
counts, inclusive time and self time (duration minus the time covered by
child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from typing import NamedTuple

MODULES = ("geometry", "solver", "morse", "oracle", "deform", "analysis", "cli")

# Functions from other packages that a traced module binds and calls.
FOREIGN = {"solver": ("brentq",)}

# Modules of which only these public functions are wrapped.
ONLY = {"cli": ("main",)}


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int | None
    name: str
    t0: float
    t1: float
    error: str | None


def _observe_analysis(result, tally):
    source = result.index_source
    if source == "formula":
        tally["analysis.index_formula"] += 1
    elif source == "oracle":
        tally["analysis.index_oracle_fallback"] += 1
    if result.flags.any:
        tally["analysis.flagged"] += 1


# Counts taken from a function's return value, where the work happens.
OBSERVERS = {
    "solver.enumerate_cyclic": lambda res, tally: tally.update({"solver.configs_returned": len(res)}),
    "analysis.analyze_configuration": _observe_analysis,
    "analysis.dump_json": lambda res, tally: tally.update({"analysis.artifact_bytes": len(res)}),
    "deform.detect_events": lambda res, tally: tally.update({"deform.events": len(res)}),
}


class Tracer:
    """Installs span-recording wrappers and collects spans in memory.

    Wrappers record only while ``active`` is set, so the caller can time an
    op's call and leave its preparation and checking out.
    """

    def __init__(self, package: str = "linkmorse"):
        self.package = package
        self.spans: list = []
        self.tally: Counter = Counter()
        self.op: int | None = None
        self.active = False
        self._stack: list = []
        self._ids = itertools.count()
        self._patches: list = []

    def reset(self):
        self.spans = []
        self.tally = Counter()
        self._stack.clear()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        stack = self._stack
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                self.spans.append(Span(sid, parent, self.op, name, t0, t1, error))
            if observe is not None:
                observe(result, self.tally)
            return result

        return wrapper

    def _targets(self, modules):
        targets = {}
        for short, mod in modules.items():
            allowed = ONLY.get(short)
            for attr, value in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != mod.__name__:
                    continue
                if allowed is not None and attr not in allowed:
                    continue
                targets[id(value)] = (f"{short}.{attr}", value)
            for attr in FOREIGN.get(short, ()):
                value = getattr(mod, attr)
                targets[id(value)] = (f"{short}.{attr}", value)
        return targets

    def install(self):
        """Replace every binding of a traced function with its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(self.package)
        modules = {m: importlib.import_module(f"{self.package}.{m}") for m in MODULES}
        wrappers = {key: (fn, self._wrap(name, fn))
                    for key, (name, fn) in self._targets(modules).items()}
        for mod in [pkg, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        path_cls = modules["deform"].AngularPath
        original = path_cls.__dict__["gaps_at"]
        self._patches.append((path_cls, "gaps_at", original))
        setattr(path_cls, "gaps_at", self._wrap("deform.gaps_at", original))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path, meta: dict):
        """Write the collected spans as gzipped JSON."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(meta, names=names,
                       fields=["sid", "parent", "op", "name", "t0", "t1", "error"],
                       spans=[[s.sid, s.parent, s.op, index[s.name], s.t0, s.t1, s.error]
                              for s in self.spans])
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - _union_length(children.get(s.sid, ()), s.t0, s.t1)
            for s in spans}


class NameStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def summarize(spans) -> dict:
    """Span name -> NameStats(calls, inclusive seconds, self seconds)."""
    own = self_times(spans)
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.t1 - s.t0
        self_s[s.name] += own[s.sid]
    return {name: NameStats(calls[name], total[name], self_s[name]) for name in calls}


# Per-layer metrics reported by a traced run, with their units.  The two
# trace.* entries are filled in by the runner, which owns the op timings.
LAYER_UNITS = {
    "solver.enumerate_cyclic.self_s": "s",
    "solver.brentq.calls": "count",
    "solver.brentq.s": "s",
    "solver.closure_evals": "count",
    "solver.evals_per_root": "ratio",
    "solver.reconstruct.s": "s",
    "solver.degeneracy_flags.s": "s",
    "solver.kept_ratio": "ratio",
    "oracle.oracle_index.s": "s",
    "oracle.criticality_residual.calls": "count",
    "oracle.projected_hessian.s": "s",
    "oracle.svd_per_verdict": "ratio",
    "morse.morse_index.s": "s",
    "morse.sign_report.s": "s",
    "analysis.analyze_configuration.self_s": "s",
    "analysis.verify_record.self_s": "s",
    "geometry.edge_orientations.s": "s",
    "analysis.index_formula": "count",
    "analysis.index_oracle_fallback": "count",
    "analysis.flagged": "count",
    "cli.main.self_s": "s",
    "analysis.dump_json.s": "s",
    "analysis.load_enumeration.s": "s",
    "analysis.artifact_bytes": "bytes",
    "deform.detect_events.s": "s",
    "deform.check_lemmas.s": "s",
    "deform.events": "count",
    "deform.gaps_at.calls": "count",
    "deform.evals_per_event": "ratio",
    "deform.refused": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

CLOSURES = ("solver.f_value", "solver.delta_at_radius")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, tally) -> dict:
    """Per-layer metrics of one traced pass (all but the trace.* entries).

    Times are totals over the pass in seconds; counts are exact and repeat
    between passes over the same inputs.
    """
    stats = summarize(spans)
    empty = NameStats(0, 0.0, 0.0)

    def get(name):
        return stats.get(name, empty)

    brentq_ids = {s.sid for s in spans if s.name == "solver.brentq"}
    refinement_evals = sum(1 for s in spans if s.name in CLOSURES and s.parent in brentq_ids)
    refused = sum(1 for s in spans
                  if s.name == "deform.detect_events" and s.error == "NonGenericPathError")
    closure_evals = sum(get(n).calls for n in CLOSURES)
    events = tally["deform.events"]
    return {
        "solver.enumerate_cyclic.self_s": get("solver.enumerate_cyclic").self_s,
        "solver.brentq.calls": get("solver.brentq").calls,
        "solver.brentq.s": get("solver.brentq").total_s,
        "solver.closure_evals": closure_evals,
        "solver.evals_per_root": _ratio(refinement_evals, get("solver.brentq").calls),
        "solver.reconstruct.s": get("solver.reconstruct").total_s,
        "solver.degeneracy_flags.s": get("solver.degeneracy_flags").total_s,
        "solver.kept_ratio": _ratio(tally["solver.configs_returned"], get("solver.reconstruct").calls),
        "oracle.oracle_index.s": get("oracle.oracle_index").total_s,
        "oracle.criticality_residual.calls": get("oracle.criticality_residual").calls,
        "oracle.projected_hessian.s": get("oracle.projected_hessian").total_s,
        "oracle.svd_per_verdict": _ratio(get("oracle.constraint_jacobian").calls,
                                         get("oracle.oracle_index").calls),
        "morse.morse_index.s": get("morse.morse_index").total_s,
        "morse.sign_report.s": get("morse.sign_report").total_s,
        "analysis.analyze_configuration.self_s": get("analysis.analyze_configuration").self_s,
        "analysis.verify_record.self_s": get("analysis.verify_record").self_s,
        "geometry.edge_orientations.s": get("geometry.edge_orientations").total_s,
        "analysis.index_formula": tally["analysis.index_formula"],
        "analysis.index_oracle_fallback": tally["analysis.index_oracle_fallback"],
        "analysis.flagged": tally["analysis.flagged"],
        "cli.main.self_s": get("cli.main").self_s,
        "analysis.dump_json.s": get("analysis.dump_json").total_s,
        "analysis.load_enumeration.s": get("analysis.load_enumeration").total_s,
        "analysis.artifact_bytes": tally["analysis.artifact_bytes"],
        "deform.detect_events.s": get("deform.detect_events").total_s,
        "deform.check_lemmas.s": get("deform.check_lemmas").total_s,
        "deform.events": events,
        "deform.gaps_at.calls": get("deform.gaps_at").calls,
        "deform.evals_per_event": _ratio(get("deform.gaps_at").calls, events),
        "deform.refused": refused,
    }


def top_level_seconds(spans) -> float:
    """Time covered by spans that have no parent span."""
    return sum(s.t1 - s.t0 for s in spans if s.parent is None)


def is_exact(name: str) -> bool:
    """Counts and ratios of counts, which must repeat exactly."""
    return LAYER_UNITS[name] in ("count", "bytes") or (
        LAYER_UNITS[name] == "ratio" and not name.startswith("trace."))
