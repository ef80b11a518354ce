"""Per-layer tracing by wrapping the program's public functions.

The tracer replaces module and class attributes of the ``scenamine``
package with wrappers.  Callers look those attributes up when they call,
so the wrappers see every call without any change to the program.  Spans
(name, start, end, parent) and counters stay in memory until the run reads
them; ``uninstall`` puts every original object back.

Layers are the package modules.  ``patterns`` is only reached through
``definitions`` and ``matching`` and has no spans of its own.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

import scenamine.cli as cli
import scenamine.matching as matching
import scenamine.mining as mining
import scenamine.queries as queries
from scenamine.graph import GraphStore

LAYERS = ("cli", "definitions", "tokens", "matching", "graph", "mining", "queries")

MINING_STAGES = (
    "scope_roles",
    "differentiate_actors",
    "unify_appearances",
    "cluster_events",
    "unify_situations",
    "chain_coincidences",
    "unify_scenarios",
    "detect_forks",
    "differentiate_triggers",
)

QUERY_FUNCTIONS = tuple(sorted(queries.REGISTRY)) + ("timespan_of",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.match_seconds: Counter = Counter()  # definition -> seconds
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._pattern_owner: dict[int, str] = {}
        self._match_depth = 0
        self._query_depth = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        end = time.perf_counter()
        self.spans[index][2] = end
        self._stack.pop()
        return end - self.spans[index][1]

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset while spans are open")
        self.spans.clear()
        self.counts.clear()
        self.match_seconds.clear()

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _match_pattern(self, fn):
        # Only the outermost call is a span: nested calls made while checking
        # a composite type count under it.
        @functools.wraps(fn)
        def wrapper(pattern, tokens, env=None):
            if self._match_depth:
                return fn(pattern, tokens, env)
            self._match_depth += 1
            index = self.open("matching.match_pattern")
            try:
                result = fn(pattern, tokens, env)
            finally:
                seconds = self.close(index)
                self._match_depth -= 1
            self.counts["matching.match_pattern.calls"] += 1
            self.counts["matching.matches"] += len(result)
            owner = self._pattern_owner.get(id(pattern))
            if owner is not None:
                self.match_seconds[owner] += seconds
            return result

        return wrapper

    def _query(self, fn, name: str):
        # Queries call each other; only the call made by the client is a span.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._query_depth:
                return fn(*args, **kwargs)
            self._query_depth += 1
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
                self._query_depth -= 1

        return wrapper

    def _remember_patterns(self, definitions) -> None:
        for definition in definitions:
            for pattern in definition.patterns:
                self._pattern_owner[id(pattern)] = definition.name

    def _count_events(self, created) -> None:
        self.counts["matching.events"] += len(created)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(
            cli, "parse_definitions",
            self._timed(cli.parse_definitions, "definitions.parse_definitions", self._remember_patterns),
        )
        self._patch(cli, "read_corpus", self._timed(cli.read_corpus, "matching.read_corpus"))
        self._patch(
            cli, "extract_events",
            self._timed(cli.extract_events, "matching.extract_events", self._count_events),
        )
        self._patch(cli, "run_pipeline", self._timed(cli.run_pipeline, "mining.run_pipeline"))
        self._patch(matching, "match_pattern", self._match_pattern(matching.match_pattern))
        self._patch(matching, "check_type", self._counted(matching.check_type, "matching.check_type"))
        self._patch(matching, "tokenize", self._timed(matching.tokenize, "tokens.tokenize"))
        self._patch(mining, "tokenize", self._timed(mining.tokenize, "tokens.tokenize"))
        for stage in MINING_STAGES:
            self._patch(mining, stage, self._timed(getattr(mining, stage), f"mining.{stage}"))
        self._patch(
            mining.MiningReport, "to_json_dict",
            self._timed(mining.MiningReport.to_json_dict, "mining.to_json_dict"),
        )
        for method in ("add_thing", "add_edge", "find_or_create"):
            self._patch(GraphStore, method, self._counted(getattr(GraphStore, method), f"graph.{method}"))
        for method in ("things", "dumps"):
            self._patch(GraphStore, method, self._timed(getattr(GraphStore, method), f"graph.{method}"))
        loads = vars(GraphStore)["loads"].__func__
        self._patch(GraphStore, "loads", classmethod(self._timed(loads, "graph.loads")))
        for name in QUERY_FUNCTIONS:
            self._patch(queries, name, self._query(getattr(queries, name), f"queries.{name}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def metrics(self, definitions: list[str]) -> dict[str, float]:
        """Per-layer metrics from the spans and counters recorded so far."""
        own = self.self_times()
        total: Counter = Counter()
        self_total: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for (name, start, end, _), own_s in zip(self.spans, own):
            total[name] += end - start
            self_total[name] += own_s
            self_total[name.split(".")[0] + ".self_s"] += own_s
            durations.setdefault(name, []).append(end - start)
        c = self.counts
        out = {
            "cli.extract.self_s": self_total["cli.extract"],
            "cli.mine.self_s": self_total["cli.mine"],
            "definitions.parse_definitions.s": total["definitions.parse_definitions"],
            "tokens.tokenize.calls": c["tokens.tokenize.calls"],
            "tokens.tokenize.s": total["tokens.tokenize"],
            "matching.read_corpus.s": total["matching.read_corpus"],
            "matching.extract_events.calls": c["matching.extract_events.calls"],
            "matching.extract_events.self_s": self_total["matching.extract_events"],
            "matching.match_pattern.calls": c["matching.match_pattern.calls"],
            "matching.match_pattern.s": total["matching.match_pattern"],
            "matching.check_type.calls": c["matching.check_type.calls"],
            "matching.matches": c["matching.matches"],
            "matching.match_yield": c["matching.matches"] / max(c["matching.check_type.calls"], 1),
            "matching.events": c["matching.events"],
        }
        for definition in definitions:
            out[f"matching.match_pattern.s.{definition}"] = self.match_seconds[definition]
        for method in ("add_thing", "add_edge", "find_or_create", "things"):
            out[f"graph.{method}.calls"] = c[f"graph.{method}.calls"]
        for method in ("things", "dumps", "loads"):
            out[f"graph.{method}.s"] = total[f"graph.{method}"]
        for stage in MINING_STAGES:
            out[f"mining.{stage}.s"] = total[f"mining.{stage}"]
        out["mining.to_json_dict.s"] = total["mining.to_json_dict"]
        for name in QUERY_FUNCTIONS:
            samples = durations.get(f"queries.{name}", [])
            out[f"queries.{name}.calls"] = len(samples)
            out[f"queries.{name}.p50_ms"] = statistics.median(samples) * 1e3 if samples else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_total[f"{layer}.self_s"]
        return out

    def deterministic_counts(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))
