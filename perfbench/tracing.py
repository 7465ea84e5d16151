"""Span recording around brwlab's layer boundaries, from outside the package.

brwlab modules bind the functions they call at import time
(``from .brw import grow_tree``), so a wrapper only takes effect in the
namespace of the module that calls it.  ``SITES`` lists each such
binding.  A span records its name, start, end, the innermost span still
open on the same thread (its parent) and that thread; a span opened on a
pool thread with nothing open there is a root.  Counts come from return
values and from caught ``PopulationCapError``s.  Spans stay in memory
until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

_MC_ESTIMATORS = (
    "mc_mean_w",
    "mc_extinction",
    "mc_importance_identity",
    "mc_triviality_scan",
    "mc_spine_slope",
)


def _replicates(report) -> tuple[int, int]:
    """(replicates attempted, replicates discarded) of an estimator report."""
    return report.n + report.discarded, report.discarded


# (calling module, bound name, span name, count of the return value)
SITES = (
    *(("brwlab.cli", name, "mc.estimator", _replicates) for name in _MC_ESTIMATORS),
    ("brwlab.cli", "replicate_rng", "rng.replicate_rng", None),
    ("brwlab.mc", "replicate_rng", "rng.replicate_rng", None),
    ("brwlab.cli", "grow_tree", "brw.grow_tree", len),
    ("brwlab.mc", "grow_tree", "brw.grow_tree", len),
    ("brwlab.cli", "martingale_trajectory", "brw.trajectory", None),
    ("brwlab.mc", "martingale_trajectory", "brw.trajectory", None),
    ("brwlab.cli", "grow_spined_tree", "spine.grow", lambda spined: len(spined.tree)),
    ("brwlab.mc", "grow_spined_tree", "spine.grow", lambda spined: len(spined.tree)),
    ("brwlab.cli", "run_verify", "oracle.verify", lambda rows: sum(r.outcomes for r in rows)),
    *(("brwlab." + mod, "validate_law", "offspring.validate", None)
      for mod in ("brw", "spine", "mc", "oracle", "offspring")),
    *(("brwlab." + mod, "classify", "offspring.classify", None) for mod in ("cli", "mc", "oracle")),
)

# the exact reference of mc_importance_identity iterates this generator;
# its span runs from the first item to exhaustion
GENERATOR_SITES = (("brwlab.mc", "enumerate_trees", "oracle.reference"),)


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "count", "discarded", "cap_hit")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.count = 0
        self.discarded = 0
        self.cap_hit = False
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        return stack

    def open(self, name: str, push: bool = True) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        if push:
            stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def _wrap(self, fn, name: str, count):
        from brwlab.errors import PopulationCapError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except PopulationCapError as e:
                span.cap_hit = True
                span.count = len(e.partial) if e.partial is not None else 0
                raise
            finally:
                self.close(span)
            if count is not None:
                value = count(result)
                span.count, span.discarded = value if isinstance(value, tuple) else (value, 0)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, push=False)
            try:
                for item in fn(*args, **kwargs):
                    span.count += 1
                    yield item
            finally:
                span.end = time.perf_counter()

        return traced

    def install(self) -> None:
        for module_name, attr, name, count in SITES:
            self._replace(module_name, attr, lambda fn: self._wrap(fn, name, count))
        for module_name, attr, name in GENERATOR_SITES:
            self._replace(module_name, attr, lambda fn: self._wrap_generator(fn, name))

    def _replace(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def records(self) -> list[dict]:
        """Spans as plain records; ``parent`` is an index into the list."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index[id(s.parent)] if s.parent is not None else None,
                "thread": s.thread,
                "count": s.count,
                "cap_hit": s.cap_hit,
            }
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    return {
        id(s): (s.end - s.start) - _covered(children.get(id(s), []), s.start, s.end)
        for s in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], artifact_bytes: int) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    ``*_s`` are summed span durations (inclusive of children), ``self_s``
    subtracts child spans.  A layer the pass never enters reads 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_s(name):
        return sum(own[id(s)] for s in by_name[name])

    def count(name):
        return sum(s.count for s in by_name[name])

    def caps(name):
        return sum(s.cap_hit for s in by_name[name])

    replicates = count("mc.estimator")
    discarded = sum(s.discarded for s in by_name["mc.estimator"])
    brw_nodes, spine_nodes = count("brw.grow_tree"), count("spine.grow")
    outcomes = count("oracle.verify")
    return {
        "cli.commands": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.artifact_bytes": artifact_bytes,
        "mc.estimator_s": seconds("mc.estimator"),
        "mc.self_s": self_s("mc.estimator"),
        "mc.replicates": replicates,
        "mc.discarded": discarded,
        "mc.kept_ratio": _ratio(replicates - discarded, replicates),
        "rng.calls": calls("rng.replicate_rng"),
        "rng.self_s": self_s("rng.replicate_rng"),
        "rng.us_per_call": 1e6 * _ratio(self_s("rng.replicate_rng"), calls("rng.replicate_rng")),
        "brw.trees": calls("brw.grow_tree"),
        "brw.nodes": brw_nodes,
        "brw.grow_s": seconds("brw.grow_tree"),
        "brw.ns_per_node": 1e9 * _ratio(seconds("brw.grow_tree"), brw_nodes),
        "brw.trajectory_s": seconds("brw.trajectory"),
        "brw.cap_hits": caps("brw.grow_tree"),
        "spine.trees": calls("spine.grow"),
        "spine.nodes": spine_nodes,
        "spine.grow_s": seconds("spine.grow"),
        "spine.ns_per_node": 1e9 * _ratio(seconds("spine.grow"), spine_nodes),
        "spine.cap_hits": caps("spine.grow"),
        "oracle.outcomes": outcomes,
        "oracle.verify_s": seconds("oracle.verify"),
        "oracle.us_per_outcome": 1e6 * _ratio(seconds("oracle.verify"), outcomes),
        "oracle.reference_s": seconds("oracle.reference"),
        "offspring.validate_calls": calls("offspring.validate"),
        "offspring.validate_s": seconds("offspring.validate"),
        "offspring.classify_calls": calls("offspring.classify"),
        "offspring.classify_s": seconds("offspring.classify"),
    }


CENSUS = (
    "rng.calls",
    "brw.trees",
    "brw.nodes",
    "spine.nodes",
    "oracle.outcomes",
    "mc.replicates",
    "mc.discarded",
)
