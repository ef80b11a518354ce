"""Functional-set queries over the graph.

Every function returns a WeightedSet; crisp graph facts come back with
weight 1.0.  Lookups across inheritance follow ``is`` chains in both
directions, so each specific/abstract pair of functions is mutually
inverse: x is in f(y) exactly when y is in g(x).  One walk serves them
all: ``_reach`` goes level by level over ``GraphStore.is_links`` from a
sequence of starts, one for a lookup and every live event for
``appearances_at``, so a window pays for each shared generalization once.
The time-window queries read ``GraphStore.alive``; ``processes_at`` reads
the holders of the live things from ``GraphStore.seq_holders``, and
``coincidences_at`` with an event tests only the coincidences holding it.
"""

from __future__ import annotations

from .graph import GraphError, GraphStore, TimeSpec, WeightedSet


def _reach(store: GraphStore, starts: list[int], direction: str, kind: str, hop_weight: float = 1.0) -> WeightedSet:
    """Things of a kind reachable over ``is`` edges from any of ``starts``, in
    id order, by one level-by-level walk over ``GraphStore.is_links``: it reads
    only the things it reaches and passes through those of other kinds, and a
    start never enters the answer.  A thing first reached at level d weighs
    hop_weight ** d, its largest weight since 0 <= hop_weight <= 1 (1.0 keeps
    everything crisp)."""
    if not 0.0 <= hop_weight <= 1.0:
        raise GraphError(f"hop weight {hop_weight} outside [0, 1]")
    for start in starts:
        store.thing(start)
    links = store.is_links(direction)
    seen, level = set(starts), starts
    found: dict[int, float] = {}
    weight = 1.0
    while level:
        weight *= hop_weight
        reached = []
        for node in level:
            for other in links.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    reached.append(other)
                    if store.thing(other).kind == kind:
                        found[other] = weight
        level = reached
    if hop_weight == 1.0:
        return WeightedSet.crisp(sorted(found))
    return WeightedSet(sorted(found.items()))


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
    return [i for i in store.alive(lo, hi) if kind is None or store.thing(i).kind == kind]


# -- actors and roles -----------------------------------------------------


def actors_of_role(store: GraphStore, role_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """All actors playing the given role."""
    return _reach(store, [role_id], "in", "actor", hop_weight)


def roles_of_actor(store: GraphStore, actor_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """All roles the given actor plays."""
    return _reach(store, [actor_id], "out", "role", hop_weight)


def roles_of_appearance(store: GraphStore, appearance_id: int) -> WeightedSet:
    """The role slots of an appearance, read off its possession edges."""
    return store.neighbors(appearance_id, "has", "out", node_kind="role")


def appearances_of_role(store: GraphStore, role_id: int) -> WeightedSet:
    """All appearances that include the given role slot."""
    return store.neighbors(role_id, "has", "in", node_kind="appearance")


# -- events and appearances ------------------------------------------------


def appearances_of_event(store: GraphStore, event_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Appearances the event instantiates, through inheritance chains."""
    return _reach(store, [event_id], "out", "appearance", hop_weight)


def events_of_appearance(store: GraphStore, appearance_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Events instantiating the appearance, through inheritance chains."""
    return _reach(store, [appearance_id], "in", "event", hop_weight)


def events_at(store: GraphStore, time) -> WeightedSet:
    """Events whose time span intersects the tick or interval."""
    return WeightedSet.crisp(_alive(store, time, "event"))


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
    return WeightedSet.crisp(
        m
        for m in store.neighbor_ids(actor_id, "has", "in", role=role, node_kind="event")
        if _time_matches(store, m, time)
    )


# -- situations and coincidences -------------------------------------------


def situations_of_appearance(store: GraphStore, appearance_id: int) -> WeightedSet:
    """Situations whose combination includes the appearance."""
    return store.neighbors(appearance_id, "member", "in", set_kind="and", node_kind="situation")


def appearances_of_situation(store: GraphStore, situation_id: int) -> WeightedSet:
    """The appearances combined by a situation."""
    return store.neighbors(situation_id, "member", "out", set_kind="and", node_kind="appearance")


def situations_of_coincidence(store: GraphStore, coincidence_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Situations generalizing the coincidence."""
    return _reach(store, [coincidence_id], "out", "situation", hop_weight)


def coincidences_of_situation(store: GraphStore, situation_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Coincidences generalized by the situation."""
    return _reach(store, [situation_id], "in", "coincidence", hop_weight)


def coincidences_of_event(store: GraphStore, event_id: int) -> WeightedSet:
    """Coincidences that include the event."""
    return store.neighbors(event_id, "member", "in", set_kind="and", node_kind="coincidence")


def events_of_coincidence(store: GraphStore, coincidence_id: int) -> WeightedSet:
    """The events a coincidence is made of."""
    return store.neighbors(coincidence_id, "member", "out", set_kind="and", node_kind="event")


def coincidences_at(store: GraphStore, time, event_id: int | None = None) -> WeightedSet:
    """Coincidences alive at the given time, optionally containing an event:
    then those holding it, read off its own ``member`` edges, that are live."""
    if event_id is None:
        return WeightedSet.crisp(_alive(store, time, "coincidence"))
    is_event = event_id in store and store.thing(event_id).kind == "event"
    holders = coincidences_of_event(store, event_id).ids() if is_event else []
    return WeightedSet.crisp(c for c in holders if _time_matches(store, c, time))


# -- scenarios and processes -------------------------------------------------


def scenarios_of_situation(store: GraphStore, situation_id: int, order: int | None = None) -> WeightedSet:
    """Scenarios whose sequence includes the situation, optionally at an index."""
    return WeightedSet.crisp(
        store.neighbor_ids(situation_id, "member", "in", set_kind="seq", node_kind="scenario", order=order)
    )


def situations_of_scenario(store: GraphStore, scenario_id: int, order: int | None = None) -> WeightedSet:
    """The situations of a scenario in sequence order, optionally one index
    (seq orders run from 0 without gaps, so a member's index is its order)."""
    members = store.member_children(scenario_id, "seq")
    if order is not None:
        members = members[order : order + 1] if order >= 0 else []
    return WeightedSet.crisp(m for m in members if store.thing(m).kind == "situation")


def processes_of_scenario(store: GraphStore, scenario_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Processes implementing the scenario."""
    return _reach(store, [scenario_id], "in", "process", hop_weight)


def scenarios_of_process(store: GraphStore, process_id: int, hop_weight: float = 1.0) -> WeightedSet:
    """Scenarios generalizing the process."""
    return _reach(store, [process_id], "out", "scenario", hop_weight)


def processes_at(store: GraphStore, time) -> WeightedSet:
    """Processes whose overall time span intersects the tick or interval: those
    holding a live seq member, as that span only joins intervals that touch."""
    if time is None:
        return WeightedSet.crisp(_alive(store, None, "process"))
    holders = store.seq_holders()
    return WeightedSet.crisp(sorted({
        p
        for m in _alive(store, time)
        for p in holders.get(m, ())
        if store.thing(p).kind == "process"
    }))


def processes_of_coincidence(store: GraphStore, coincidence_id: int, time=None) -> WeightedSet:
    """Processes that include the coincidence, empty when the coincidence
    lies outside the time filter."""
    if not _time_matches(store, coincidence_id, time):
        return WeightedSet()
    return store.neighbors(coincidence_id, "member", "in", set_kind="seq", node_kind="process")


def coincidences_of_process(store: GraphStore, process_id: int, time=None) -> WeightedSet:
    """The coincidences of a process in order, filtered by their own times."""
    return WeightedSet.crisp(
        c
        for c in store.member_children(process_id, "seq")
        if store.thing(c).kind == "coincidence" and _time_matches(store, c, time)
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


# -- registry for the command line ------------------------------------------

# name -> (function, kind of the positional argument or None for a time query,
#          the filter keywords it takes); the command line passes each listed
#          keyword from its flag (--time, --role, --order, --event for event_id)
#          and rejects any other filter flag
REGISTRY = {
    "actors_of_role": (actors_of_role, "role", ()),
    "roles_of_actor": (roles_of_actor, "actor", ()),
    "roles_of_appearance": (roles_of_appearance, "appearance", ()),
    "appearances_of_role": (appearances_of_role, "role", ()),
    "appearances_of_event": (appearances_of_event, "event", ()),
    "events_of_appearance": (events_of_appearance, "appearance", ()),
    "events_at": (events_at, None, ("time",)),
    "appearances_at": (appearances_at, None, ("time",)),
    "actors_of_event": (actors_of_event, "event", ("role", "time")),
    "events_of_actor": (events_of_actor, "actor", ("role", "time")),
    "situations_of_appearance": (situations_of_appearance, "appearance", ()),
    "appearances_of_situation": (appearances_of_situation, "situation", ()),
    "situations_of_coincidence": (situations_of_coincidence, "coincidence", ()),
    "coincidences_of_situation": (coincidences_of_situation, "situation", ()),
    "coincidences_of_event": (coincidences_of_event, "event", ()),
    "events_of_coincidence": (events_of_coincidence, "coincidence", ()),
    "coincidences_at": (coincidences_at, None, ("time", "event_id")),
    "scenarios_of_situation": (scenarios_of_situation, "situation", ("order",)),
    "situations_of_scenario": (situations_of_scenario, "scenario", ("order",)),
    "processes_of_scenario": (processes_of_scenario, "scenario", ()),
    "scenarios_of_process": (scenarios_of_process, "process", ()),
    "processes_at": (processes_at, None, ("time",)),
    "processes_of_coincidence": (processes_of_coincidence, "coincidence", ("time",)),
    "coincidences_of_process": (coincidences_of_process, "process", ("time",)),
}
