"""Correctness checks on what the program wrote.

Each check returns a list of failure messages; an empty list passes.  The
snapshot checks read the snapshot JSON directly instead of going through
``GraphStore``, so they do not share code paths with what they check; only
the inverse-pair check calls the query functions.
"""

from __future__ import annotations

from collections import deque

import workloads as wl

import scenamine.queries as queries

# lookup query -> its inverse: x in f(y) exactly when y in g(x)
INVERSE = {
    "actors_of_role": "roles_of_actor",
    "roles_of_appearance": "appearances_of_role",
    "appearances_of_event": "events_of_appearance",
    "actors_of_event": "events_of_actor",
    "situations_of_appearance": "appearances_of_situation",
    "situations_of_coincidence": "coincidences_of_situation",
    "coincidences_of_event": "events_of_coincidence",
    "scenarios_of_situation": "situations_of_scenario",
    "processes_of_scenario": "scenarios_of_process",
    "processes_of_coincidence": "coincidences_of_process",
}
INVERSE.update({back: fwd for fwd, back in list(INVERSE.items())})

WINDOW_QUERIES = ("events_at", "appearances_at", "coincidences_at", "processes_at")


def _near(value: float, target: float, tolerance: float) -> bool:
    return abs(value - target) <= tolerance


def check_crosswalk_report(report: dict) -> list[str]:
    """The approach -> wait fork splits 50/50 and entering on red shifts it
    by 0.4, each within the tolerance."""
    truth, tol = wl.CROSSWALK_TRUTH, wl.CROSSWALK_TRUTH["tolerance"]
    forks = [f for f in report.get("forks", []) if f.get("prefix") == ["{approach}", "{wait}"]]
    if len(forks) != 1 or len(report.get("forks", [])) != 1:
        return [f"expected exactly the approach -> wait fork, got {report.get('forks')}"]
    probs = {b["situation"]: b["p"] for b in forks[0]["branches"]}
    failures = []
    if set(probs) != {"{safe-cross}", "{injury}"}:
        failures.append(f"fork branches are {sorted(probs)}")
    for name, p in sorted(probs.items()):
        if not _near(p, truth["p_fork"], tol):
            failures.append(f"fork branch {name} has p={p}, expected {truth['p_fork']} +- {tol}")
    triggers = [t for t in report.get("triggers", []) if t.get("fork") == 0]
    if not triggers or triggers[0]["thing"] != "enter-on-red":
        failures.append(f"top trigger is not enter-on-red: {triggers[:1]}")
    elif not _near(triggers[0]["score"], truth["trigger_shift"], tol):
        failures.append(
            f"enter-on-red shift {triggers[0]['score']}, expected {truth['trigger_shift']} +- {tol}"
        )
    return failures


class Snapshot:
    """Read-only view of a snapshot's JSON: kinds, names, edges and times."""

    def __init__(self, raw: dict):
        self.kind = {t["id"]: t["kind"] for t in raw["things"]}
        self.name = {t["id"]: t["name"] for t in raw["things"]}
        self.properties = {t["id"]: t["properties"] for t in raw["things"]}
        spans = {s["id"]: [tuple(p) for p in s["intervals"]] for s in raw["times"]}
        self.out: dict[int, list[dict]] = {i: [] for i in self.kind}
        self.intervals: dict[int, list[tuple[int, int]]] = {}
        for e in raw["edges"]:
            if e["kind"] == "times":
                self.intervals.setdefault(e["from"], []).extend(spans[e["to"]])
            else:
                self.out[e["from"]].append(e)
        self.into: dict[int, list[dict]] = {i: [] for i in self.kind}
        for edges in self.out.values():
            for e in edges:
                self.into[e["to"]].append(e)
        self._by_kind: dict[str, list[int]] = {}
        for i in sorted(self.kind):
            self._by_kind.setdefault(self.kind[i], []).append(i)
        self._spans: dict[int, list[tuple[int, int]]] = {}

    def of_kind(self, kind: str) -> list[int]:
        return self._by_kind.get(kind, [])

    def ticks(self) -> tuple[int, int]:
        flat = [p for spans in self.intervals.values() for p in spans]
        return min(s for s, _ in flat), max(e for _, e in flat)

    def timespan(self, thing: int) -> list[tuple[int, int]]:
        if thing not in self._spans:
            self._spans[thing] = self._timespan(thing)
        return self._spans[thing]

    def _timespan(self, thing: int) -> list[tuple[int, int]]:
        kind = self.kind[thing]
        if kind == "actor":
            sources = [e["from"] for e in self.into[thing]
                       if e["kind"] == "has" and self.kind[e["from"]] == "event"]
        elif kind == "process":
            sources = [e["to"] for e in self.out[thing]
                       if e["kind"] == "member" and e.get("set_kind") == "seq"]
        else:
            sources = [thing]
        return _merge([p for s in sources for p in self.intervals.get(s, [])])

    def abstractions(self, thing: int, kind: str) -> set[int]:
        seen, queue = {thing}, deque([thing])
        while queue:
            for e in self.out[queue.popleft()]:
                if e["kind"] == "is" and e["to"] not in seen:
                    seen.add(e["to"])
                    queue.append(e["to"])
        return {t for t in seen if t != thing and self.kind[t] == kind}

    def alive(self, kind: str, window) -> set[int]:
        lo, hi = (window, window) if isinstance(window, int) else window
        return {
            t for t in self.of_kind(kind)
            if any(s <= hi and lo <= e for s, e in self.timespan(t))
        }

    def window_answer(self, name: str, window) -> set[int]:
        if name == "appearances_at":
            found: set[int] = set()
            for event in self.alive("event", window):
                found |= self.abstractions(event, "appearance")
            return found
        kind = {"events_at": "event", "coincidences_at": "coincidence", "processes_at": "process"}[name]
        return self.alive(kind, window)


def _merge(intervals) -> list[tuple[int, int]]:
    """Sorted intervals with touching or overlapping ones joined."""
    out: list[list[int]] = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], e)
        else:
            out.append([s, e])
    return [(s, e) for s, e in out]


def check_crosswalk_extraction(snapshot: Snapshot, docs: int, runs: int, events: int) -> list[str]:
    failures = []
    if events != docs:
        failures.append(f"{events} events from {docs} documents")
    actors = len(snapshot.of_kind("actor"))
    if actors != runs:
        failures.append(f"{actors} actors for {runs} pedestrian runs")
    return failures


def check_news_facts(snapshot: Snapshot, facts: list[dict]) -> list[str]:
    """Every planted fact is an event of its definition with exactly the
    planted bindings."""
    found = set()
    for event in snapshot.of_kind("event"):
        source = snapshot.properties[event].get("sources")
        bindings = frozenset(
            (e["role"], snapshot.name[e["to"]])
            for e in snapshot.out[event]
            if e["kind"] == "has" and snapshot.kind[e["to"]] == "actor"
        )
        for e in snapshot.out[event]:
            if e["kind"] == "is" and snapshot.kind[e["to"]] == "appearance":
                found.add((source, snapshot.name[e["to"]], bindings))
    return [
        f"planted fact not extracted: {fact}"
        for fact in facts
        if (fact["source"], fact["definition"], frozenset(fact["bindings"].items())) not in found
    ]


def check_query_answers(store, snapshot: Snapshot, calls: list, answers: list) -> list[str]:
    """Time-window answers equal a direct scan of the snapshot; every member
    of a lookup answer maps back to the argument through the inverse."""
    failures = []
    inverse_done = set()
    for (name, args), answer in zip(calls, answers):
        if answer is None:
            continue  # the call raised, which the run already counts as failed
        if name in WINDOW_QUERIES:
            expected = snapshot.window_answer(name, args[0])
            if {m for m, _ in answer} != expected:
                failures.append(f"{name}{args} disagrees with a scan of the snapshot")
        elif name == "timespan_of":
            if list(answer) != snapshot.timespan(args[0]):
                failures.append(f"timespan_of{args} is {answer}")
        elif (name, args) not in inverse_done:
            inverse_done.add((name, args))
            back = getattr(queries, INVERSE[name])
            for member, _ in answer:
                if args[0] not in back(store, member):
                    failures.append(f"{args[0]} missing from {INVERSE[name]}({member}), inverse of {name}")
        if len(failures) >= 5:
            break
    return failures
