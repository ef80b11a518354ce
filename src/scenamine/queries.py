"""Functional-set queries over the graph.

Every function returns a WeightedSet, and every answer is crisp, weight
1.0.  Fourteen of them are lookups made from one table of seven
inverse pairs: a row names the kinds at the two ends of a relation (an
``is`` walk, ``has`` edges or ``and`` member edges) and the docstrings of
the lookup along it and the one back, so x is in f(y) exactly when y is
in g(x) by construction.  Lookups across inheritance follow ``is`` chains;
one walk serves them all: ``_reach`` goes level by level over the ``is``
ends ``GraphStore.is_split`` splits by kind, from a sequence of starts, one
for a lookup and every live event for ``appearances_at``, so a window pays
for each shared generalization once.  The filtered and time-window queries
are written out.  They read ``GraphStore.alive``; ``processes_at`` reads
the processes holding each live thing off its ``seq`` edges in
``GraphStore.in_index``, and ``coincidences_at`` with an event tests only
the coincidences holding it.  Every other test of a thing's kind is one
lookup in ``GraphStore.kind_ids``.
"""

from __future__ import annotations

from .graph import GraphError, GraphStore, TimeSpec, WeightedSet


def _reach(store: GraphStore, starts: list[int], direction: str, kind: str) -> WeightedSet:
    """Things of a kind reachable over ``is`` edges from any of ``starts``, in id
    order, by one level-by-level walk over ``GraphStore.is_split``: it visits the
    inner ends it reaches, passing through those of other kinds, and takes each
    visited thing's leaf ends of the kind whole; a start never enters the answer."""
    entries, split = store.is_split(direction, kind)
    seen, level = set(starts), starts
    found, groups = set(), []  # reached inner things of the kind; the leaf ends of the kind of each visit
    while level:
        reached = []
        for node in level:
            inner, leaves = entries.get(node) or split(node)  # splitting checks it is a thing
            if leaves:
                groups.append(leaves)
            for other in inner:
                if other not in seen:
                    seen.add(other)
                    reached.append(other)
                    if inner[other]:
                        found.add(other)
        level = reached
    if len(groups) == 1 and not found and len(starts) == 1:
        return WeightedSet(groups[0])  # the one group is the answer, in id order
    found.update(*groups)
    return WeightedSet(sorted(found.difference(starts)))  # a start may be a leaf end, never a reached inner thing


def _time_matches(store: GraphStore, thing_id: int, time) -> bool:
    if time is None:
        return True
    spec = store.times_of(thing_id)
    return spec is not None and spec.intersects(time)


def _alive(store: GraphStore, time, kind: str | None = None) -> list[int]:
    """Ids of the things of a kind (None: any) alive at a tick or window."""
    if time is None:
        return [t.id for t in store.things(kind)]
    lo, hi = (time, time) if isinstance(time, int) else time
    wanted = store.kind_ids(kind) if kind else None
    return [i for i in store.alive(lo, hi) if wanted is None or i in wanted]


# -- the inverse pairs --------------------------------------------------------

# name -> (function, kind of the positional argument or None for a time query,
#          the filter keywords it takes); the command line passes each listed
#          keyword from its flag (--time, --role, --order, --event for event_id)
#          and rejects any other.  The table below and the module's end fill it.
REGISTRY: dict[str, tuple] = {}


def _lookup(name: str, doc: str, edge: str, set_kind: str | None, direction: str, kind: str):
    """A lookup from one thing to the things of ``kind`` over ``edge`` edges
    in ``direction``: an ``is`` walk by ``_reach``, else the thing's own edges."""
    if edge == "is":
        def lookup(store: GraphStore, thing_id: int) -> WeightedSet:
            return _reach(store, [thing_id], direction, kind)
    else:
        def lookup(store: GraphStore, thing_id: int) -> WeightedSet:
            return store.neighbors(thing_id, edge, direction, set_kind=set_kind, node_kind=kind)
    lookup.__name__ = lookup.__qualname__ = name
    lookup.__doc__ = doc
    return lookup


def _plural(kind: str) -> str:
    return kind + ("es" if kind.endswith("s") else "s")


def _pair(src: str, edge: str, dst: str, out_doc: str, in_doc: str, set_kind: str | None = None):
    """The lookups ``<dst>s_of_<src>``, out along the edges, and
    ``<src>s_of_<dst>``, back along them, entered in ``REGISTRY``."""
    out = _lookup(f"{_plural(dst)}_of_{src}", out_doc, edge, set_kind, "out", dst)
    back = _lookup(f"{_plural(src)}_of_{dst}", in_doc, edge, set_kind, "in", src)
    REGISTRY[out.__name__] = (out, src, ())
    REGISTRY[back.__name__] = (back, dst, ())
    return out, back


# source kind, edge kind, destination kind, the docstring out, the docstring back
roles_of_actor, actors_of_role = _pair(
    "actor", "is", "role", "All roles the given actor plays.", "All actors playing the given role.")
roles_of_appearance, appearances_of_role = _pair(
    "appearance", "has", "role", "The role slots of an appearance, read off its possession edges.",
    "All appearances that include the given role slot.")
appearances_of_event, events_of_appearance = _pair(
    "event", "is", "appearance", "Appearances the event instantiates, through inheritance chains.",
    "Events instantiating the appearance, through inheritance chains.")
appearances_of_situation, situations_of_appearance = _pair(
    "situation", "member", "appearance", "The appearances combined by a situation.",
    "Situations whose combination includes the appearance.", set_kind="and")
situations_of_coincidence, coincidences_of_situation = _pair(
    "coincidence", "is", "situation", "Situations generalizing the coincidence.",
    "Coincidences generalized by the situation.")
events_of_coincidence, coincidences_of_event = _pair(
    "coincidence", "member", "event", "The events a coincidence is made of.",
    "Coincidences that include the event.", set_kind="and")
scenarios_of_process, processes_of_scenario = _pair(
    "process", "is", "scenario", "Scenarios generalizing the process.", "Processes implementing the scenario.")


# -- events, actors and coincidences -------------------------------------------


def events_at(store: GraphStore, time) -> WeightedSet:
    """Events whose time span intersects the tick or interval."""
    return WeightedSet(_alive(store, time, "event"))


def appearances_at(store: GraphStore, time) -> WeightedSet:
    """Appearances of the events alive at the given time, by one ``is`` walk
    from all of them."""
    return _reach(store, _alive(store, time, "event"), "out", "appearance")


def actors_of_event(store: GraphStore, event_id: int, role: str | None = None, time=None) -> WeightedSet:
    """Actors filling the event's roles, optionally narrowed by role and time
    (a tick or a (start, end) window); an absent filter is universal."""
    if not _time_matches(store, event_id, time):
        return WeightedSet()
    return store.neighbors(event_id, "has", "out", role=role, node_kind="actor")


def events_of_actor(store: GraphStore, actor_id: int, role: str | None = None, time=None) -> WeightedSet:
    """Events the actor participates in, optionally narrowed by role and time."""
    return WeightedSet(
        m
        for m in store.neighbor_ids(actor_id, "has", "in", role=role, node_kind="event")
        if _time_matches(store, m, time)
    )


def coincidences_at(store: GraphStore, time, event_id: int | None = None) -> WeightedSet:
    """Coincidences alive at the given time, optionally containing an event:
    then those holding it, read off its own ``member`` edges, that are live."""
    if event_id is None:
        return WeightedSet(_alive(store, time, "coincidence"))
    holders = coincidences_of_event(store, event_id).ids() if event_id in store.kind_ids("event") else []
    return WeightedSet(c for c in holders if _time_matches(store, c, time))


# -- scenarios and processes -------------------------------------------------


def scenarios_of_situation(store: GraphStore, situation_id: int, order: int | None = None) -> WeightedSet:
    """Scenarios whose sequence includes the situation, optionally at an index."""
    return WeightedSet(
        store.neighbor_ids(situation_id, "member", "in", set_kind="seq", node_kind="scenario", order=order)
    )


def situations_of_scenario(store: GraphStore, scenario_id: int, order: int | None = None) -> WeightedSet:
    """The situations of a scenario in sequence order, optionally one index
    (seq orders run from 0 without gaps, so a member's index is its order)."""
    members = store.member_children(scenario_id, "seq")
    if order is not None:
        members = members[order : order + 1] if order >= 0 else []
    situations = store.kind_ids("situation")
    return WeightedSet(m for m in members if m in situations)


def processes_at(store: GraphStore, time) -> WeightedSet:
    """Processes whose overall time span intersects the tick or interval: those
    holding a live seq member, as that span only joins intervals that touch."""
    if time is None:
        return WeightedSet(_alive(store, None, "process"))
    into, processes = store.in_index("member"), store.kind_ids("process")
    return WeightedSet(sorted({src for m in _alive(store, time) for _, src, _, _, set_kind, _ in into.get(m, ())
                               if set_kind == "seq" and src in processes}))


def processes_of_coincidence(store: GraphStore, coincidence_id: int, time=None) -> WeightedSet:
    """Processes that include the coincidence, empty when the coincidence
    lies outside the time filter."""
    if not _time_matches(store, coincidence_id, time):
        return WeightedSet()
    return store.neighbors(coincidence_id, "member", "in", set_kind="seq", node_kind="process")


def coincidences_of_process(store: GraphStore, process_id: int, time=None) -> WeightedSet:
    """The coincidences of a process in order, filtered by their own times."""
    coincidences = store.kind_ids("coincidence")
    return WeightedSet(
        c for c in store.member_children(process_id, "seq") if c in coincidences and _time_matches(store, c, time)
    )


# -- temporal extent -----------------------------------------------------


def timespan_of(store: GraphStore, thing_id: int) -> TimeSpec:
    """Temporal continuum of an actor, event, coincidence or process."""
    kind = store.thing(thing_id).kind
    if kind in ("event", "coincidence"):
        return store.times_of(thing_id) or TimeSpec()
    if kind == "actor":
        parts = store.neighbor_ids(thing_id, "has", "in", node_kind="event")
    elif kind == "process":
        parts = store.member_children(thing_id, "seq")
    else:
        raise GraphError(f"things of kind {kind!r} have no temporal extent")
    spans = [store.times_of(p) for p in parts]
    return TimeSpec(tuple(pair for span in spans if span for pair in span.intervals))


REGISTRY.update({
    "events_at": (events_at, None, ("time",)),
    "appearances_at": (appearances_at, None, ("time",)),
    "actors_of_event": (actors_of_event, "event", ("role", "time")),
    "events_of_actor": (events_of_actor, "actor", ("role", "time")),
    "coincidences_at": (coincidences_at, None, ("time", "event_id")),
    "scenarios_of_situation": (scenarios_of_situation, "situation", ("order",)),
    "situations_of_scenario": (situations_of_scenario, "scenario", ("order",)),
    "processes_at": (processes_at, None, ("time",)),
    "processes_of_coincidence": (processes_of_coincidence, "coincidence", ("time",)),
    "coincidences_of_process": (coincidences_of_process, "process", ("time",)),
})
