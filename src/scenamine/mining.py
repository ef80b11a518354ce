"""Scenario mining: nine analyses from extracted events to triggers.

The pipeline runs actor differentiation (the one walk over the events'
actor bindings), role scoping over its counts, appearance unification,
event clustering, situation unification, coincidence chaining, scenario
unification, fork detection and trigger differentiation, in that order;
``MiningReport.stages`` lists role scoping first, the JSON report (keys
sorted) by name.  Mining is a function of the extracted layer alone:
``run_pipeline`` first drops every node an earlier run built
(``GraphStore.drop_mined``), and each stage then only creates nodes, each
tagged with the ``origin`` stage; nothing mined is looked up and reused.
So mining a graph again, with any settings and after any new events,
gives the report and graph that one run over its events gives.  Stages
write only what a query, a later stage or the report reads, each mined
edge once, as a plain tuple; role scoping and actor differentiation write
nothing.  A run reads each event's span, appearances and actors once, into
one ``FactTable``; the stage that makes a coincidence, situation or process
adds its facts there as plain data, and later stages read them there, not
from the graph; ``ScenarioModel.lifted`` holds only each process's steps.
Chains, scenarios and forks may be of any length; no stage recurses once
per step, chains grow from chain starts only, and ``MAX_PROCESSES`` is
the only bound on chaining.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import patterns as pat
from .graph import GraphStore, TimeSpec
from .tokens import ascii_norms, tokenize


class MiningStageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


@dataclass
class MiningConfig:
    coincidence_window: int = 1
    chain_max_gap: int = 1
    chain_requires_shared_actor: bool = True
    min_support: int = 2
    fork_epsilon: float = 0.2
    trigger_min_shift: float = 0.2

    def validate(self) -> None:
        for name in ("coincidence_window", "chain_max_gap", "min_support"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("fork_epsilon", "trigger_min_shift"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.chain_requires_shared_actor, bool):
            raise ValueError(
                "chain_requires_shared_actor must be true or false, "
                f"got {self.chain_requires_shared_actor!r}"
            )
        if self.coincidence_window < 0:
            raise ValueError("coincidence_window must be >= 0")
        if self.chain_max_gap < 1:
            raise ValueError("chain_max_gap must be >= 1")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
        if not 0.0 <= self.fork_epsilon <= 1.0:
            raise ValueError("fork_epsilon must lie in [0, 1]")
        if not 0.0 < self.trigger_min_shift <= 1.0:
            raise ValueError("trigger_min_shift must lie in (0, 1]")


@dataclass
class TreeNode:
    """Prefix-tree node: the processes that pass through (their number is
    the node's traversal count) and the node of each next situation step."""

    processes: list[int] = field(default_factory=list)
    children: dict[int, "TreeNode"] = field(default_factory=dict)


@dataclass
class ScenarioModel:
    """Prefix tree over the processes' (coincidence, situation) steps in
    ``lifted``, and the (path, support) of each frequent prefix in pre-order."""

    root: TreeNode
    lifted: dict[int, list[tuple[int, int]]]
    scenarios: list[tuple[list[int], int]]


@dataclass
class Fork:
    """A tree node whose continuation splits into nearly equiprobable
    branches."""

    prefix: tuple[int, ...]
    branches: list[tuple[int, float]]
    node: TreeNode


@dataclass
class Trigger:
    """A thing whose presence before a fork shifts the branch odds."""

    fork: int
    thing: int
    score: float
    support: int
    base: list[float]
    shifted: list[float]


@dataclass
class MiningReport:
    config: MiningConfig
    stages: dict[str, dict[str, int]]
    typical_actors: dict[tuple[int, str], int]
    model: ScenarioModel
    forks: list[Fork]
    triggers: list[Trigger]

    def to_json_dict(self, store: GraphStore) -> dict:
        name = lambda thing_id: store.thing(thing_id).name
        return {
            "stages": self.stages,
            "scenarios": [
                {"situations": [name(s) for s in path], "support": support}
                for path, support in self.model.scenarios
            ],
            "forks": [
                {
                    "prefix": [name(s) for s in fork.prefix],
                    "branches": [
                        {"situation": name(s), "p": p} for s, p in fork.branches
                    ],
                }
                for fork in self.forks
            ],
            "triggers": [
                {
                    "fork": t.fork,
                    "thing": name(t.thing),
                    "score": t.score,
                    "base": t.base,
                    "shifted": t.shifted,
                }
                for t in self.triggers
            ],
        }


# -- shared helpers ---------------------------------------------------------


class FactTable:
    """The facts one mining run reads, each read from the store at most
    once, on first use.  A stage that makes facts of a kind adds its own
    to the table, which then already holds what the store held before it.
    No stage adds an edge out of an event, so the event facts hold for
    the whole run.  A stage called without a table reads a fresh one."""

    def __init__(self, store: GraphStore):
        self.store = store

    @cached_property
    def events(self) -> dict[int, tuple[TimeSpec, list[int], list[tuple[str, int]]]]:
        """Event -> (span, direct appearances, (role, actor) bindings)."""
        store = self.store
        return {e.id: (store.times_of(e.id), store.neighbor_ids(e.id, "is", node_kind="appearance"),
                       store.bindings(e.id, "actor")) for e in store.things("event")}

    @cached_property
    def coincidences(self) -> dict[int, tuple[TimeSpec | None, list[int]]]:
        """Coincidence -> (span, events); ``cluster_events`` adds its own."""
        store = self.store
        return {c.id: (store.times_of(c.id), store.neighbor_ids(c.id, "member", set_kind="and", node_kind="event"))
                for c in store.things("coincidence")}

    @cached_property
    def situations(self) -> dict[int, tuple[frozenset[int], list[int]]]:
        """Situation -> (items, the coincidences that are it); ``unify_situations`` adds its own."""
        store = self.store
        return {s.id: (frozenset(store.member_children(s.id, "and")),
                       store.neighbor_ids(s.id, "is", "in", node_kind="coincidence")) for s in store.things("situation")}

    @cached_property
    def situations_of(self) -> dict[int, list[int]]:
        """Coincidence -> its situations in id order; ``unify_situations`` adds its own."""
        out: dict[int, list[int]] = {}
        for sid, (_, holders) in sorted(self.situations.items()):
            for cid in holders:
                out.setdefault(cid, []).append(sid)
        return out

    @cached_property
    def processes(self) -> dict[int, list[int]]:
        """Process -> its coincidences in order; ``chain_coincidences`` adds its own."""
        return {p.id: self.store.member_children(p.id, "seq") for p in self.store.things("process")}


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def join(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self) -> list[list]:
        out: dict = {}
        for item in self.parent:
            out.setdefault(self.find(item), []).append(item)
        return [sorted(v) for _, v in sorted(out.items())]


# -- stage 1: actor differentiation -------------------------------------------


def differentiate_actors(
    store: GraphStore, facts: FactTable | None = None
) -> tuple[dict[tuple[int, str], Counter], dict[tuple[int, str], int]]:
    """From the one walk over the events' actor bindings: per (appearance,
    role), how many events each actor fills it in, in the order first
    filled, and the most probable actor.  That is the actor with the most
    events; a tie goes to the one that filled the role at the earliest
    start, then to the first by name, then by id."""
    counts: dict[tuple[int, str], Counter] = {}
    first_seen: dict[tuple[int, str], dict[int, int]] = {}
    for span, apps, bindings in (facts or FactTable(store)).events.values():
        start = span.start
        roles_here: dict[str, set[int]] = {}
        for role, actor in bindings:
            roles_here.setdefault(role, set()).add(actor)
        for app in apps:
            for role, actors in roles_here.items():
                pair = (app, role)
                if pair not in counts:
                    counts[pair], first_seen[pair] = Counter(), {}
                bucket, seen = counts[pair], first_seen[pair]
                for actor in actors:
                    bucket[actor] += 1
                    if seen.setdefault(actor, start) > start:
                        seen[actor] = start
    best: dict[tuple[int, str], int] = {}
    for pair, bucket in counts.items():
        top, seen = max(bucket.values()), first_seen[pair]
        best[pair] = min((actor for actor, n in bucket.items() if n == top),
                         key=lambda actor: (seen[actor], store.thing(actor).name or "", actor))
    return counts, best


# -- stage 2: role scoping ---------------------------------------------------


def scope_roles(counts: dict[tuple[int, str], Counter]) -> dict[tuple[int, str], list[int]]:
    """The alternative-actor domain of every (appearance, role) pair that
    ``differentiate_actors`` counted filled: its distinct actors, sorted."""
    return {pair: sorted(counts[pair]) for pair in sorted(counts)}


# -- stage 3: appearance unification ------------------------------------------


def _norms(text: str) -> tuple[str, ...]:
    """The norms of ``text``'s tokens: from one scan for ASCII text, else
    from ``tokenize``."""
    if text.isascii():
        return tuple(ascii_norms(text))
    return tuple(t.norm for t in tokenize(text))


def unify_appearances(
    store: GraphStore, min_support: int, facts: FactTable | None = None
) -> list[tuple[str, int, dict[str, list[str]]]]:
    """Anti-unify event texts of equal token length that share anchor
    tokens; materialize each generalization covering enough events as a
    new abstract appearance, with an ``x1``, ``x2``, ... role per slot and
    an ``is`` edge to it from each appearance of its events.  Each item
    returned is its name, the number of events it covers and each slot's
    values.

    An ASCII text's token norms come from one scan (``ascii_norms``), any
    other text's from ``tokenize``.  Two texts of one length are linked
    when some column holds the same token in both.  Instead of comparing
    every pair, each event is joined with the first event seen in each of
    its (column, token) buckets when that is another event, which yields
    the same components in time linear in the tokens.  A length group with
    fewer events than ``min_support`` is skipped whole: none of its
    components could reach support.  Each ``is`` edge is written once per
    component, and none starts at an event."""
    events = (facts or FactTable(store)).events
    by_len: dict[int, list[tuple[int, tuple[str, ...]]]] = {}
    for event in store.things("event"):
        text = event.properties.get("text")
        if isinstance(text, str):
            toks = _norms(text)
            if toks:
                by_len.setdefault(len(toks), []).append((event.id, toks))
    made: list[tuple[str, int, dict[str, list[str]]]] = []
    for length in sorted(by_len):
        group = by_len[length]
        if len(group) < min_support:
            continue
        seqs = dict(group)
        uf = _UnionFind(seqs)
        first_in_bucket: dict[tuple[int, str], int] = {}
        for event_id, toks in group:
            for bucket in enumerate(toks):
                first = first_in_bucket.setdefault(bucket, event_id)
                if first != event_id:
                    uf.join(first, event_id)
        for component in uf.groups():
            if len(component) < min_support:
                continue
            columns = [sorted({seqs[e][k] for e in component}) for k in range(length)]
            if not any(len(col) == 1 for col in columns):
                continue  # nothing anchors the group
            children: list[pat.PatternNode] = []
            slots: dict[str, list[str]] = {}
            for col in columns:
                if len(col) == 1:
                    children.append(pat.Literal(col[0]))
                else:
                    var = f"x{len(slots) + 1}"
                    children.append(pat.Variable(var))
                    slots[var] = col
            pattern = children[0] if len(children) == 1 else pat.SeqSet(tuple(children))
            name = pat.render_pattern(pattern)
            app_id = store.add_thing("appearance", name, {"origin": "unify_appearances", "pattern": name})
            for var in slots:
                role_id = store.find_or_create("role", var, {"origin": "unify_appearances"})
                store.add_edge(("has", app_id, role_id, var, None, None))
            for specific in dict.fromkeys(a for e in component for a in events[e][1]):
                store.add_edge(("is", specific, app_id, None, None, None))
            made.append((name, len(component), slots))
    return made


# -- stage 4: event clustering -------------------------------------------------


def cluster_events(store: GraphStore, window: int, facts: FactTable | None = None) -> dict[str, int]:
    """Group events whose time spans overlap (after widening by the
    window) into coincidences; isolated events become singleton
    coincidences.

    Two spans coincide when they share a tick or their gap is below the
    window.  Every interval of every span is widened at its end by
    ``max(window, 1) - 1`` ticks, the intervals are sorted by start, and
    one sweep joins each interval to the run it starts inside; the
    groups are the same as from comparing all pairs of events."""
    facts = facts or FactTable(store)
    events, coincidences = facts.events, facts.coincidences
    uf = _UnionFind(events)
    reach = max(window, 1) - 1
    intervals = sorted(
        (start, end + reach, event_id)
        for event_id, (span, _, _) in events.items()
        for start, end in span.intervals
    )
    run_event, run_end = None, None
    for start, end, event_id in intervals:
        if run_end is not None and start <= run_end:
            uf.join(run_event, event_id)
            run_end = max(run_end, end)
        else:
            run_event, run_end = event_id, end
    for component in uf.groups():
        span = TimeSpec(tuple(p for e in component for p in events[e][0].intervals))
        name = f"c[{','.join(map(str, component))}]"
        cid = store.add_thing("coincidence", name, {"origin": "cluster_events"}, span)
        for event_id in component:
            store.add_edge(("member", cid, event_id, None, "and", None))
        coincidences[cid] = (span, component)
    return {"coincidences": len(store.things("coincidence"))}


# -- stage 5: situation unification ---------------------------------------------


# Closed itemsets can still be exponentially many (the 17-of-18 subsets
# of 18 classes give 2**18 - 2), so unify_situations stops above this.
MAX_SITUATIONS = 100_000


def _closed_itemsets(
    rows: list[frozenset[int]], min_support: int
) -> dict[frozenset[int], list[int]]:
    """Each nonempty closed itemset held by ``min_support`` or more rows,
    mapped to the indices of those rows, by prefix-preserving closure
    extension (Close-by-One, LCM): from the closure of all rows, extend a
    closed set by each larger item ``i``, close the rows holding both by
    intersecting them, and go on only if that adds no item below ``i``.
    Each closed set is reached once, at polynomial cost per set."""
    closed: dict[frozenset[int], list[int]] = {}
    if len(rows) < min_support:
        return closed
    stack = [(frozenset.intersection(*rows), list(range(len(rows))), float("-inf"))]
    while stack:
        items, held_by, last = stack.pop()
        if items:
            closed[items] = held_by
            if len(closed) > MAX_SITUATIONS:
                raise ValueError(f"more than {MAX_SITUATIONS} closed situations")
        extensions: dict[int, list[int]] = {}
        for r in held_by:
            for i in rows[r]:
                if i > last and i not in items:
                    extensions.setdefault(i, []).append(r)
        for i, sub in sorted(extensions.items()):
            if len(sub) >= min_support:
                grown = frozenset.intersection(*(rows[r] for r in sub))
                if min(grown - items) == i:
                    stack.append((grown, sub, i))
    return closed


def unify_situations(store: GraphStore, min_support: int, facts: FactTable | None = None) -> dict[str, int]:
    """Materialize each closed frequent combination of appearance classes
    across coincidences (``_closed_itemsets``) as a situation, with an
    ``is`` edge from each coincidence holding it.  More than
    ``MAX_SITUATIONS`` raise ``ValueError`` before any is built."""
    facts = facts or FactTable(store)
    events, situations, situations_of = facts.events, facts.situations, facts.situations_of
    coincidences = list(facts.coincidences)
    rows = [frozenset(a for e in members for a in events[e][1]) for _, members in facts.coincidences.values()]
    closed = _closed_itemsets(rows, min_support)
    for s in sorted(closed, key=lambda s: (len(s), sorted(s))):
        ids = sorted(s)
        label = "{" + ", ".join(sorted(store.thing(i).name or str(i) for i in ids)) + "}"
        sid = store.add_thing("situation", label, {"origin": "unify_situations"})
        for i in ids:
            store.add_edge(("member", sid, i, None, "and", None))
        situations[sid] = (s, [coincidences[r] for r in closed[s]])
        for cid in situations[sid][1]:
            store.add_edge(("is", cid, sid, None, None, None))
            situations_of.setdefault(cid, []).append(sid)
    return {"situations": len(store.things("situation"))}


# -- stage 6: coincidence chaining -----------------------------------------------


# The number of maximal chains can grow like the Fibonacci numbers in the
# number of coincidences (one actor at every tick with chain_max_gap=2), so
# chain_coincidences counts them first and refuses more than this many.
MAX_PROCESSES = 100_000


def chain_coincidences(store: GraphStore, config: MiningConfig, facts: FactTable | None = None) -> dict[str, int]:
    """Chain coincidences into processes: strictly increasing start times,
    bounded gaps, and (optionally) a shared actor between neighbours.
    Every maximal chain of length two or more becomes a process; more
    than ``MAX_PROCESSES`` of them raise ``ValueError`` naming the count
    before any is built.

    The start and gap conditions say that a successor of a coincidence
    ``a`` starts in ``(a.start, a.end + chain_max_gap]``, so bisecting the
    coincidences sorted by start finds exactly those, and only the shared
    actor is left to test; the links are the same as from testing all
    pairs.  Each maximal chain then grows from a chain start along an
    explicit stack."""
    facts = facts or FactTable(store)
    coins, actors = [], {}
    for cid, (span, members) in facts.coincidences.items():
        if span:
            coins.append((cid, span))
            actors[cid] = {actor for e in members for _, actor in facts.events[e][2]}
    shared = config.chain_requires_shared_actor
    succ: dict[int, list[int]] = {cid: [] for cid, _ in coins}
    has_pred: set[int] = set()
    by_start = sorted(coins, key=lambda c: c[1].start)
    starts = [span.start for _, span in by_start]
    for ca, span in coins:
        lo = bisect_right(starts, span.start)
        hi = bisect_right(starts, span.end + config.chain_max_gap)
        for cb, _ in by_start[lo:hi]:
            if not shared or actors[ca] & actors[cb]:
                succ[ca].append(cb)
                has_pred.add(cb)
    # successors start strictly later, so counting from the latest start
    # back finds every successor's count done
    count: dict[int, int] = {}
    for cid, _ in reversed(by_start):
        count[cid] = sum(count[n] for n in succ[cid]) or 1
    total = sum(count[cid] for cid, _ in coins if cid not in has_pred and succ[cid])
    if total > MAX_PROCESSES:
        raise ValueError(f"{total} maximal chains exceed the limit of {MAX_PROCESSES} processes")
    chains = []
    stack = [(cid,) for cid, _ in coins if cid not in has_pred and succ[cid]]
    while stack:
        path = stack.pop()
        if succ[path[-1]]:
            stack.extend(path + (nxt,) for nxt in succ[path[-1]])
        else:
            chains.append(path)
    processes = facts.processes
    for path in sorted(chains):
        name = f"p[{','.join(map(str, path))}]"
        pid = store.add_thing("process", name, {"origin": "chain_coincidences"})
        for cid in path:
            store.add_edge(("member", pid, cid, None, "seq", None))
        processes[pid] = list(path)
    return {"processes": len(store.things("process"))}


# -- stage 7: scenario unification -------------------------------------------------


def _walk_tree(root: TreeNode, min_support: int) -> Iterator[tuple[list[int], TreeNode]]:
    """Each node of the prefix tree with its path of situation ids, in
    pre-order (parents first, siblings by id), from an explicit stack; a
    child held by fewer than ``min_support`` processes is skipped with its
    subtree."""
    stack = [([], root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for sid in sorted(node.children, reverse=True):
            if len(node.children[sid].processes) >= min_support:
                stack.append((path + [sid], node.children[sid]))


def unify_scenarios(
    store: GraphStore, min_support: int, facts: FactTable | None = None
) -> tuple[ScenarioModel, dict[str, int]]:
    """Lift each process to its situation sequence, grow a prefix tree
    over all sequences, and materialize every frequent prefix as a
    scenario covering its processes.  A coincidence lifts to its largest
    situation, then the one most coincidences are, then the first."""
    facts = facts or FactTable(store)
    rank = {sid: (-len(items), -len(holders), sid) for sid, (items, holders) in facts.situations.items()}
    root, lifted = TreeNode(), {}
    for pid, coins in facts.processes.items():
        lifted[pid] = steps = [(cid, min(facts.situations_of[cid], key=rank.__getitem__))
                               for cid in coins if cid in facts.situations_of]
        node = root
        node.processes.append(pid)
        for _, sid in steps:
            if sid not in node.children:
                node.children[sid] = TreeNode()
            node = node.children[sid]
            node.processes.append(pid)

    scenarios: list[tuple[list[int], int]] = []
    for path, node in _walk_tree(root, min_support):
        if not path:
            continue
        scenarios.append((path, len(node.processes)))
        label = " -> ".join(store.thing(s).name or str(s) for s in path)
        scenario_id = store.add_thing("scenario", label, {"origin": "unify_scenarios"})
        for s in path:
            store.add_edge(("member", scenario_id, s, None, "seq", None))
        for pid in node.processes:
            store.add_edge(("is", pid, scenario_id, None, None, None))
    model = ScenarioModel(root, lifted, scenarios)
    return model, {"scenarios": len(store.things("scenario"))}


# -- stage 8: fork detection ----------------------------------------------------


def detect_forks(model: ScenarioModel, fork_epsilon: float) -> list[Fork]:
    """Tree nodes splitting into two or more branches whose probabilities,
    renormalized over continuing processes, all lie within the epsilon."""
    forks: list[Fork] = []
    for path, node in _walk_tree(model.root, 1):
        if len(node.children) >= 2:
            total = sum(len(child.processes) for child in node.children.values())
            branches = [(sid, len(node.children[sid].processes) / total) for sid in sorted(node.children)]
            probs = [p for _, p in branches]
            if max(probs) - min(probs) <= fork_epsilon:
                forks.append(Fork(tuple(path), branches, node))
    return forks


# -- stage 9: trigger differentiation ---------------------------------------------


def differentiate_triggers(
    store: GraphStore,
    model: ScenarioModel,
    forks: list[Fork],
    config: MiningConfig,
    facts: FactTable | None = None,
) -> list[Trigger]:
    """For each fork, find appearances or situations that occur before the
    branch step — as events left out of the lifted situations or as
    co-present situations — and shift the branch distribution."""
    facts = facts or FactTable(store)
    sit_items = {sid: items for sid, (items, _) in facts.situations.items()}
    triggers: list[Trigger] = []
    for fork_index, fork in enumerate(forks):
        branch_ids = [sid for sid, _ in fork.branches]
        base = [p for _, p in fork.branches]
        branch_of: dict[int, int] = {}
        for sid in branch_ids:
            for pid in fork.node.children[sid].processes:
                branch_of[pid] = sid
        presence: dict[int, set[int]] = {}
        depth = len(fork.prefix)
        for pid in sorted(branch_of):
            steps, coins = model.lifted[pid], facts.processes[pid]
            step_situation = dict(steps)
            for cid in coins[:coins.index(steps[depth][0])]:
                lifted_sid = step_situation.get(cid)
                covered = sit_items.get(lifted_sid, frozenset())
                for event_id in facts.coincidences[cid][1]:
                    for app in facts.events[event_id][1]:
                        if app not in covered:
                            presence.setdefault(app, set()).add(pid)
                for sid in facts.situations_of.get(cid, ()):
                    if sid != lifted_sid:
                        presence.setdefault(sid, set()).add(pid)
        found = []
        for thing_id, pids in presence.items():
            support = len(pids)
            if support < config.min_support:
                continue
            shifted = [sum(1 for pid in pids if branch_of[pid] == sid) / support for sid in branch_ids]
            score = max(abs(s - b) for s, b in zip(shifted, base))
            if score >= config.trigger_min_shift:
                found.append(Trigger(fork_index, thing_id, score, support, list(base), shifted))
        found.sort(key=lambda t: (-t.score, -t.support, store.thing(t.thing).name or "", t.thing))
        triggers.extend(found)
    return triggers


# -- the pipeline ------------------------------------------------------------------


def run_pipeline(store: GraphStore, config: MiningConfig | None = None) -> MiningReport:
    """Drop what an earlier run mined, run all nine analyses in order and
    aggregate the results.

    A failing stage aborts the run with a MiningStageError naming it.
    """
    cfg = config or MiningConfig()
    cfg.validate()
    store.drop_mined()
    facts = FactTable(store)
    stages: dict[str, dict[str, int]] = {}

    def run(stage, *args):
        try:
            return stage(*args)
        except Exception as exc:  # noqa: BLE001 - report which stage died
            raise MiningStageError(stage.__name__, exc) from exc

    counts, best = run(differentiate_actors, store, facts)
    domains = run(scope_roles, counts)
    members = sum(map(len, domains.values()))
    stages["scope_roles"] = {"domains": len(domains), "members": members}
    stages["differentiate_actors"] = {"rows": members}
    made = run(unify_appearances, store, cfg.min_support, facts)
    stages["unify_appearances"] = {"generalizations": len(made), "covered_events": sum(n for _, n, _ in made)}
    stages["cluster_events"] = run(cluster_events, store, cfg.coincidence_window, facts)
    stages["unify_situations"] = run(unify_situations, store, cfg.min_support, facts)
    stages["chain_coincidences"] = run(chain_coincidences, store, cfg, facts)
    model, stages["unify_scenarios"] = run(unify_scenarios, store, cfg.min_support, facts)
    forks = run(detect_forks, model, cfg.fork_epsilon)
    stages["detect_forks"] = {"forks": len(forks)}
    triggers = run(differentiate_triggers, store, model, forks, cfg, facts)
    stages["differentiate_triggers"] = {"triggers": len(triggers)}
    return MiningReport(cfg, stages, best, model, forks, triggers)
