"""Query algebra: functional sets, inverse pairs, scoping, time spans."""

import inspect
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import add_coincidence, add_event, random_query_store
from oracles import tickset_union
from scenamine import queries
from scenamine.definitions import parse_definitions
from scenamine.graph import _SCAN_LIMIT, Edge, GraphError, GraphStore, TimeSpec
from scenamine.matching import Document, extract_events


def _stoplight_store():
    store = GraphStore()
    defs = parse_definitions(
        'There name stoplight patterns "light turned $color", has color. '
        "Color is word."
    )
    for tick, color in enumerate(["red", "green", "yellow", "red"], start=1):
        extract_events(
            store, defs, Document(f"light turned {color}", f"cam://{tick}", tick)
        )
    return store


def test_actors_of_role_stoplight():
    store = _stoplight_store()
    (role_id,) = store.find_by_name("role", "color")
    names = sorted(store.thing(a).name for a, _ in queries.actors_of_role(store, role_id))
    assert names == ["green", "red", "yellow"]


def test_empty_graph_queries_are_empty():
    store = GraphStore()
    role = store.add_thing("role", "color")
    assert queries.actors_of_role(store, role).ids() == []
    assert queries.events_at(store, 5).ids() == []


def test_roles_of_appearance_sanctions():
    store = GraphStore()
    defs = parse_definitions(
        'There name sanctions patterns "$organization hit $target", '
        "has organization, target."
    )
    extract_events(store, defs, Document("EU hit Russia", "u", 1))
    (app,) = store.find_by_name("appearance", "sanctions")
    names = sorted(store.thing(r).name for r, _ in queries.roles_of_appearance(store, app))
    assert names == ["organization", "target"]


def test_nullary_appearance_has_no_roles():
    store = GraphStore()
    app = store.add_thing("appearance", "x")
    assert queries.roles_of_appearance(store, app).ids() == []


def test_events_at_interval():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    event = add_event(store, app, 100)
    assert event in queries.events_at(store, (90, 110))
    assert event not in queries.events_at(store, (101, 110))
    assert event in queries.events_at(store, 100)


def test_events_at_union_covers_everything():
    store = _stoplight_store()
    everything = set()
    for tick in range(0, 10):
        everything.update(queries.events_at(store, tick).ids())
    assert everything == {t.id for t in store.things("event")}


def test_actor_role_scope_filters():
    store = GraphStore()
    defs = parse_definitions(
        'There name sanctions patterns "$organization hit $target", '
        "has organization, target."
    )
    (event,) = extract_events(store, defs, Document("EU hit Russia", "u", 50))
    (russia,) = store.find_by_name("actor", "russia")
    targets = queries.actors_of_event(store, event, role="target")
    assert targets.ids() == [russia]
    nothing = queries.actors_of_event(store, event, time=(1, 10))
    assert len(nothing) == 0
    held = queries.events_of_actor(store, russia, role="target", time=50)
    assert held.ids() == [event]


def test_coincidence_membership_queries():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    e1 = add_event(store, app, 4)
    e2 = add_event(store, app, 4)
    coin = add_coincidence(store, [e1, e2], "c")
    assert sorted(queries.events_of_coincidence(store, coin).ids()) == [e1, e2]
    assert queries.coincidences_of_event(store, e1).ids() == [coin]
    assert coin in queries.coincidences_at(store, 4)
    assert coin in queries.coincidences_at(store, 4, event_id=e1)
    assert coin not in queries.coincidences_at(store, 9)


def test_situation_coincidence_inverse_fixture():
    store = GraphStore()
    situation = store.add_thing("situation", "s")
    coins = [store.add_thing("coincidence", f"c{i}") for i in range(2)]
    for c in coins:
        store.add_edge(Edge("is", c, situation))
    assert sorted(queries.coincidences_of_situation(store, situation).ids()) == coins
    for c in coins:
        assert situation in queries.situations_of_coincidence(store, c)


def test_scenario_order_queries():
    store = GraphStore()
    scenario = store.add_thing("scenario", "o")
    sits = [store.add_thing("situation", f"s{i}") for i in range(3)]
    for s in sits:
        store.add_edge(Edge("member", scenario, s, set_kind="seq"))
    assert queries.situations_of_scenario(store, scenario).ids() == sits
    assert queries.situations_of_scenario(store, scenario, order=1).ids() == [sits[1]]
    assert queries.scenarios_of_situation(store, sits[1], order=1).ids() == [scenario]
    assert queries.scenarios_of_situation(store, sits[1], order=0).ids() == []


def test_process_time_scoped_pair():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    c1 = add_coincidence(store, [add_event(store, app, 1)], "c1")
    c2 = add_coincidence(store, [add_event(store, app, 5)], "c2")
    process = store.add_thing("process", "p")
    for c in (c1, c2):
        store.add_edge(Edge("member", process, c, set_kind="seq"))
    assert queries.coincidences_of_process(store, process).ids() == [c1, c2]
    assert queries.coincidences_of_process(store, process, time=(4, 9)).ids() == [c2]
    assert queries.processes_of_coincidence(store, c1, time=(4, 9)).ids() == []
    assert queries.processes_of_coincidence(store, c1, time=1).ids() == [process]
    assert process in queries.processes_at(store, (0, 2))
    assert process not in queries.processes_at(store, (10, 20))


def test_timespan_of_kinds():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    actor = store.add_thing("actor", "john")
    e1 = add_event(store, app, 1, actors={"subject": actor})
    e3 = add_event(store, app, 3, actors={"subject": actor})
    assert queries.timespan_of(store, e1) == TimeSpec(((1, 1),))
    assert queries.timespan_of(store, actor) == TimeSpec(((1, 1), (3, 3)))
    c1 = add_coincidence(store, [e1], "c1")
    c2 = add_coincidence(store, [e3], "c2")
    process = store.add_thing("process", "p")
    for c in (c1, c2):
        store.add_edge(Edge("member", process, c, set_kind="seq"))
    span = queries.timespan_of(store, process)
    assert tickset_union([span.intervals]) == {1, 3}
    with pytest.raises(GraphError):
        queries.timespan_of(store, store.add_thing("role", "r"))


def test_timespan_of_process_merges_overlap():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    c1 = add_coincidence(store, [add_event(store, app, (1, 2))], "c1")
    c2 = add_coincidence(store, [add_event(store, app, (2, 4))], "c2")
    process = store.add_thing("process", "p")
    for c in (c1, c2):
        store.add_edge(Edge("member", process, c, set_kind="seq"))
    assert queries.timespan_of(store, process) == TimeSpec(((1, 4),))


# -- inverse pairs on random graphs ---------------------------------------------

PAIRS = [
    ("role", queries.actors_of_role, "actor", queries.roles_of_actor),
    ("appearance", queries.events_of_appearance, "event", queries.appearances_of_event),
    ("situation", queries.coincidences_of_situation, "coincidence", queries.situations_of_coincidence),
    ("scenario", queries.processes_of_scenario, "process", queries.scenarios_of_process),
]


def _is_digraph(store):
    g = nx.DiGraph()
    g.add_nodes_from(t.id for t in store.things())
    for edge in store.edges():
        if edge.kind == "is":
            g.add_edge(edge.src, edge.dst)
    return g


def test_inverse_pairs_on_random_graphs():
    rng = random.Random(42)
    for _ in range(3):
        store = random_query_store(rng)
        g = _is_digraph(store)
        for abstract_kind, fwd, specific_kind, back in PAIRS:
            for node in store.things(abstract_kind):
                got = set(fwd(store, node.id).ids())
                expected = {
                    d
                    for d in nx.ancestors(g, node.id)
                    if store.thing(d).kind == specific_kind
                }
                assert got == expected
                for member in got:
                    assert node.id in back(store, member)
            for node in store.things(specific_kind):
                got = set(back(store, node.id).ids())
                expected = {
                    d
                    for d in nx.descendants(g, node.id)
                    if store.thing(d).kind == abstract_kind
                }
                assert got == expected
                for member in got:
                    assert node.id in fwd(store, member)


# (source kind, edge kind, set kind, destination kind, the lookup out along
#  the edges, the lookup back)
EDGE_PAIRS = [
    ("appearance", "has", None, "role", queries.roles_of_appearance, queries.appearances_of_role),
    ("situation", "member", "and", "appearance", queries.appearances_of_situation, queries.situations_of_appearance),
    ("coincidence", "member", "and", "event", queries.events_of_coincidence, queries.coincidences_of_event),
]


@pytest.mark.parametrize("src_kind, edge_kind, set_kind, dst_kind, out, back", EDGE_PAIRS)
def test_edge_pairs_match_the_edge_list_on_random_graphs(src_kind, edge_kind, set_kind, dst_kind, out, back):
    store = random_query_store(random.Random(5))
    kind = {t.id: t.kind for t in store.things()}
    links = {
        (e.src, e.dst)
        for e in store.edges()
        if e.kind == edge_kind and (e.set_kind, kind[e.src], kind[e.dst]) == (set_kind, src_kind, dst_kind)
    }
    assert links
    for node in store.things(src_kind):
        got = out(store, node.id)
        assert list(got) == [(d, 1.0) for d in sorted(d for s, d in links if s == node.id)]
        for member in got.ids():
            assert node.id in back(store, member)
    for node in store.things(dst_kind):
        got = back(store, node.id)
        assert list(got) == [(s, 1.0) for s in sorted(s for s, d in links if d == node.id)]
        for member in got.ids():
            assert node.id in out(store, member)


# name -> (kind of the positional argument, the filter keywords it takes)
REGISTRY_ROWS = {
    "roles_of_actor": ("actor", ()),
    "actors_of_role": ("role", ()),
    "roles_of_appearance": ("appearance", ()),
    "appearances_of_role": ("role", ()),
    "appearances_of_event": ("event", ()),
    "events_of_appearance": ("appearance", ()),
    "appearances_of_situation": ("situation", ()),
    "situations_of_appearance": ("appearance", ()),
    "situations_of_coincidence": ("coincidence", ()),
    "coincidences_of_situation": ("situation", ()),
    "events_of_coincidence": ("coincidence", ()),
    "coincidences_of_event": ("event", ()),
    "scenarios_of_process": ("process", ()),
    "processes_of_scenario": ("scenario", ()),
    "events_at": (None, ("time",)),
    "appearances_at": (None, ("time",)),
    "actors_of_event": ("event", ("role", "time")),
    "events_of_actor": ("actor", ("role", "time")),
    "coincidences_at": (None, ("time", "event_id")),
    "scenarios_of_situation": ("situation", ("order",)),
    "situations_of_scenario": ("scenario", ("order",)),
    "processes_at": (None, ("time",)),
    "processes_of_coincidence": ("coincidence", ("time",)),
    "coincidences_of_process": ("process", ("time",)),
}

IS_LOOKUPS = {fn.__name__ for _, fwd, _, back in PAIRS for fn in (fwd, back)}
TABLE_LOOKUPS = IS_LOOKUPS | {fn.__name__ for *_, out, back in EDGE_PAIRS for fn in (out, back)}


@pytest.mark.parametrize("name", sorted(REGISTRY_ROWS))
def test_registry_row_is_the_module_function_of_its_name(name):
    fn, arg_kind, filters = queries.REGISTRY[name]
    assert getattr(queries, name) is fn
    assert fn.__name__ == fn.__qualname__ == name
    assert (arg_kind, filters) == REGISTRY_ROWS[name]
    assert fn.__doc__.strip()
    params = list(inspect.signature(fn).parameters)
    assert params[0] == "store" and set(filters) <= set(params)


@pytest.mark.parametrize("name", sorted(TABLE_LOOKUPS))
def test_every_table_lookup_takes_a_store_and_a_thing_id_only(name):
    assert list(inspect.signature(queries.REGISTRY[name][0]).parameters) == ["store", "thing_id"]


def test_registry_holds_exactly_the_pinned_rows():
    assert set(queries.REGISTRY) == set(REGISTRY_ROWS)
    assert len(IS_LOOKUPS) == 8 and len(TABLE_LOOKUPS) == 14


def test_scoped_inverse_on_random_graphs():
    rng = random.Random(7)
    store = random_query_store(rng)
    role_names = [f"r{n}" for n in range(8)] + [None]
    for _ in range(300):
        actor = rng.choice(store.things("actor")).id
        scope = dict(
            role=rng.choice(role_names),
            time=rng.choice([None, rng.randrange(0, 220), (rng.randrange(0, 100), rng.randrange(100, 220))]),
        )
        for event in queries.events_of_actor(store, actor, **scope).ids():
            assert actor in queries.actors_of_event(store, event, **scope)
    for _ in range(300):
        event = rng.choice(store.things("event")).id
        scope = dict(role=rng.choice(role_names))
        for actor in queries.actors_of_event(store, event, **scope).ids():
            assert event in queries.events_of_actor(store, actor, **scope)


def test_monotone_scoping():
    rng = random.Random(11)
    store = random_query_store(rng)
    for _ in range(200):
        actor = rng.choice(store.things("actor")).id
        base = set(queries.events_of_actor(store, actor).ids())
        narrowed = set(
            queries.events_of_actor(
                store, actor, role="r1", time=(0, 150)
            ).ids()
        )
        assert narrowed <= base


def test_weights_are_crisp_by_default():
    rng = random.Random(13)
    store = random_query_store(rng)
    for node in store.things("role")[:20]:
        for _, weight in queries.actors_of_role(store, node.id):
            assert weight == 1.0


def test_events_at_equals_scan():
    rng = random.Random(17)
    store = random_query_store(rng)
    for time in [0, 57, (40, 80), (0, 300)]:
        got = set(queries.events_at(store, time).ids())
        expected = set()
        for t in store.things("event"):
            spec = store.times_of(t.id)
            if spec and spec.intersects(time):
                expected.add(t.id)
        assert got == expected


def test_appearances_at_follows_events():
    rng = random.Random(19)
    store = random_query_store(rng)
    got = set(queries.appearances_at(store, (0, 100)).ids())
    expected = set()
    for event_id in queries.events_at(store, (0, 100)).ids():
        expected.update(queries.appearances_of_event(store, event_id).ids())
    assert got == expected


# -- the interval index behind the time-window queries ------------------------


def _window_store(rng: random.Random) -> GraphStore:
    """Events with one to three intervals (some touching or overlapping), one
    long early event, coincidences over them, and processes whose seq members
    include events, untimed actors and coincidences."""
    store = GraphStore()
    apps = [store.add_thing("appearance", f"a{n}") for n in range(5)]

    def add(kind: str, span: TimeSpec) -> int:
        thing = store.add_thing(kind, times=span)
        if kind == "event":
            for app in rng.sample(apps, rng.randint(1, 2)):
                store.add_edge(Edge("is", thing, app))
        return thing

    events = [add("event", TimeSpec(((0, rng.randrange(30, 60)),)))]
    for _ in range(rng.randint(5, 40)):
        intervals = []
        for _ in range(rng.randint(1, 3)):
            start = rng.randrange(0, 80)
            intervals.append((start, start + rng.choice([0, 0, 1, 2, 6])))
        events.append(add("event", TimeSpec(tuple(intervals))))
    coincidences = []
    for _ in range(rng.randint(0, 12)):
        members = rng.sample(events, rng.randint(1, 3))
        cid = add("coincidence", TimeSpec(tuple(p for e in members for p in store.times_of(e).intervals)))
        for e in members:
            store.add_edge(Edge("member", cid, e, set_kind="and"))
        coincidences.append(cid)
    actors = [store.add_thing("actor", f"x{n}") for n in range(3)]
    for _ in range(rng.randint(0, 8)):
        process = store.add_thing("process")
        for _ in range(rng.randint(0, 4)):
            member = rng.choice(coincidences + events[1:] + actors)
            store.add_edge(Edge("member", process, member, set_kind="seq"))
    return store


def _meets(spec, time) -> bool:
    lo, hi = (time, time) if isinstance(time, int) else time
    return spec is not None and any(s <= hi and lo <= e for s, e in spec.intervals)


def _brute_window(store: GraphStore, name: str, time) -> list[int]:
    """A window query answered by scanning every thing of the kind."""
    if name == "appearances_at":
        found = set()
        for e in _brute_window(store, "events_at", time):
            found.update(queries.appearances_of_event(store, e).ids())
        return sorted(found)
    if name == "processes_at":
        spans = {p.id: queries.timespan_of(store, p.id) for p in store.things("process")}
        return [p for p, span in spans.items() if time is None or _meets(span, time)]
    kind = {"events_at": "event", "coincidences_at": "coincidence"}[name]
    return [
        t.id for t in store.things(kind) if time is None or _meets(store.times_of(t.id), time)
    ]


WINDOW_QUERIES = ("events_at", "coincidences_at", "processes_at", "appearances_at")


def test_window_queries_match_a_scan_on_random_graphs():
    rng = random.Random(23)
    for _ in range(40):
        store = _window_store(rng)
        times = [None, -5, (-9, -1), (90, 120), (-3, 200)]
        times += list(range(-1, 92, 3))
        for _ in range(30):
            start = rng.randrange(-5, 95)
            times.append((start, start + rng.choice([0, 1, 3, 25])))
        for time in times:
            for name in WINDOW_QUERIES:
                got = getattr(queries, name)(store, time).ids()
                assert got == _brute_window(store, name, time), (name, time)
            for event in rng.sample(store.things("event"), 2):
                got = queries.coincidences_at(store, time, event_id=event.id).ids()
                expected = [
                    c for c in _brute_window(store, "coincidences_at", time)
                    if event.id in queries.events_of_coincidence(store, c)
                ]
                assert got == expected


def test_window_queries_see_things_added_after_a_query():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    early = add_event(store, app, 1)
    assert queries.events_at(store, 5).ids() == []
    assert queries.processes_at(store, 5).ids() == []
    late = add_event(store, app, 5)
    process = store.add_thing("process")
    store.add_edge(Edge("member", process, late, set_kind="seq"))
    assert queries.events_at(store, 5).ids() == [late]
    assert queries.events_at(store, (0, 9)).ids() == [early, late]
    assert queries.appearances_at(store, 5).ids() == [app]
    assert queries.processes_at(store, 5).ids() == [process]
    coincidence = add_coincidence(store, [late])
    assert queries.coincidences_at(store, 5).ids() == [coincidence]


def test_processes_at_never_answers_a_scenario_holding_a_live_thing():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    event = add_event(store, app, 3)
    coincidence = add_coincidence(store, [event])
    scenario = store.add_thing("scenario")
    for member in (coincidence, event):
        store.add_edge(Edge("member", scenario, member, set_kind="seq"))
    assert queries.processes_at(store, 3).ids() == []
    process = store.add_thing("process")
    store.add_edge(Edge("member", process, coincidence, set_kind="seq"))
    for time in (3, (0, 9), None):
        assert queries.processes_at(store, time).ids() == [process]
    assert queries.processes_at(store, 7).ids() == []


def test_reversed_window_raises_on_every_store():
    for store in (GraphStore(), _stoplight_store()):
        for name in WINDOW_QUERIES:
            with pytest.raises(GraphError, match=r"bad interval \[5, 3\]"):
                getattr(queries, name)(store, (5, 3))


def test_window_query_reads_no_time_span_after_the_first(monkeypatch):
    store = GraphStore()
    events = [
        store.add_thing("event", times=TimeSpec.point(n // 5)) for n in range(5000)
    ]
    assert queries.events_at(store, 0).ids() == events[:5]
    calls = []
    times_of = GraphStore.times_of

    def counted(self, thing_id):
        calls.append(thing_id)
        return times_of(self, thing_id)

    monkeypatch.setattr(GraphStore, "times_of", counted)
    assert queries.events_at(store, 500).ids() == events[2500:2505]
    assert queries.events_at(store, (998, 2000)).ids() == events[4990:]
    assert calls == []


def _layered_window_store(rng: random.Random) -> GraphStore:
    """Timed events over multi-level ``is`` chains: appearances that are
    appearances, generic and event nodes passed through on the way, an ``is``
    cycle among appearances, events that are other events, and coincidences
    whose ``and`` members include things that are no events."""
    store = GraphStore()
    apps = [store.add_thing("appearance", f"a{n}") for n in range(rng.randint(2, 8))]
    for low, high in zip(apps, apps[1:]):
        if rng.random() < 0.7:
            store.add_edge(Edge("is", low, high))
    store.add_edge(Edge("is", apps[-1], rng.choice(apps)))  # a cycle, or a self-loop
    generics = [store.add_thing("generic") for _ in range(rng.randint(1, 3))]
    for generic in generics:
        store.add_edge(Edge("is", generic, rng.choice(apps + generics)))
    events = []
    for _ in range(rng.randint(3, 30)):
        start = rng.randrange(0, 40)
        event = store.add_thing("event", times=TimeSpec(((start, start + rng.choice([0, 1, 5])),)))
        for target in rng.sample(apps + generics + events, rng.randint(0, 2)):
            store.add_edge(Edge("is", event, target))
        events.append(event)
    others = apps + generics + [store.add_thing("actor", f"x{n}") for n in range(2)]
    for _ in range(rng.randint(1, 8)):
        members = rng.sample(events, rng.randint(1, 3)) + rng.sample(others, rng.randint(0, 1))
        span = TimeSpec(tuple(p for m in members if m in events for p in store.times_of(m).intervals))
        coincidence = store.add_thing("coincidence", times=span)
        for member in members:
            store.add_edge(Edge("member", coincidence, member, set_kind="and"))
    return store


def test_appearances_at_is_the_union_of_the_event_walks_on_layered_graphs():
    rng = random.Random(31)
    for _ in range(60):
        store = _layered_window_store(rng)
        times = [None, 0, 17, (0, 45), (-9, -1), (50, 60)]
        times += [(s, s + rng.choice([0, 2, 9])) for s in rng.sample(range(-2, 46), 6)]
        for time in times:
            union = {a for e in queries.events_at(store, time).ids()
                     for a in queries.appearances_of_event(store, e).ids()}
            got = queries.appearances_at(store, time)
            assert got.ids() == sorted(union), time
            assert {w for _, w in got} <= {1.0}


def test_coincidences_at_an_event_on_layered_graphs():
    rng = random.Random(37)
    for _ in range(40):
        store = _layered_window_store(rng)
        unknown = max(t.id for t in store.things()) + 100
        for time in [None, 3, (0, 45), (10, 20), (50, 60)]:
            live = queries.coincidences_at(store, time).ids()
            for thing in store.things():
                expected = [c for c in live if thing.id in queries.events_of_coincidence(store, c)]
                assert queries.coincidences_at(store, time, event_id=thing.id).ids() == expected
                if thing.kind != "event":
                    assert expected == []
            assert queries.coincidences_at(store, time, event_id=unknown).ids() == []


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), start=st.integers(-5, 205), width=st.sampled_from([0, 1, 3, 40]))
def test_coincidences_at_an_event_equals_filtering_every_live_coincidence(seed, start, width):
    # the earlier definition: every live coincidence, kept when its events hold the id
    store = random_query_store(random.Random(seed))
    events_of = {c.id: queries.events_of_coincidence(store, c.id) for c in store.things("coincidence")}
    ids = range(-1, max(t.id for t in store.things()) + 3)  # every thing, unknown ids and time spans
    for time in (None, start, (start, start + width)):
        live = queries.coincidences_at(store, time).ids()
        for thing_id in ids:
            expected = [c for c in live if thing_id in events_of[c]]
            assert queries.coincidences_at(store, time, event_id=thing_id).ids() == expected


# -- the is index behind the inheritance walks ---------------------------------

REACH_QUERIES = {
    queries.actors_of_role: ("in", "actor"),
    queries.roles_of_actor: ("out", "role"),
    queries.appearances_of_event: ("out", "appearance"),
    queries.events_of_appearance: ("in", "event"),
    queries.situations_of_coincidence: ("out", "situation"),
    queries.coincidences_of_situation: ("in", "coincidence"),
    queries.processes_of_scenario: ("in", "process"),
    queries.scenarios_of_process: ("out", "scenario"),
}


def _is_store(rng: random.Random) -> GraphStore:
    """Random ``is`` edges over every kind, with cycles, diamonds, chains that
    pass through generic nodes, and leaves with many ``has`` edges."""
    store = GraphStore()
    kinds = ["actor", "role", "appearance", "event", "situation", "coincidence",
             "scenario", "process", "generic", "generic"]  # more generic, more pass-through
    nodes = []
    for _ in range(rng.randint(4, 40)):
        kind = rng.choice(kinds)
        nodes.append(store.add_thing(kind, times=TimeSpec.point(1) if kind == "event" else None))

    def link(src: int, dst: int) -> None:
        store.add_edge(Edge("is", src, dst))

    for _ in range(rng.randint(0, 2 * len(nodes))):
        link(rng.choice(nodes), rng.choice(nodes))  # cycles and self-loops too
    for _ in range(rng.randint(0, 3)):
        top, left, right, bottom = (rng.choice(nodes) for _ in range(4))
        for src, dst in [(bottom, left), (bottom, right), (left, top), (right, top)]:
            link(src, dst)
    for _ in range(rng.randint(0, 3)):
        chain = [rng.choice(nodes)]
        chain += [store.add_thing("generic") for _ in range(rng.randint(1, 3))]
        chain.append(rng.choice(nodes))
        for src, dst in zip(chain, chain[1:]):
            link(src, dst)
    leaves = [n for n in nodes if store.thing(n).kind in ("actor", "role")]
    for leaf in rng.sample(leaves, min(len(leaves), 3)):
        for owner in rng.sample(nodes, min(len(nodes), 8)):
            if owner != leaf:
                store.add_edge(Edge("has", owner, leaf, role="r"))
    return store


def _closure(store: GraphStore, start: int, direction: str, kind: str):
    """Every thing on an ``is`` path from ``start``, relaxed over the whole edge
    list until nothing changes; the reached things of a kind in id order."""
    arcs = [(e.src, e.dst) if direction == "out" else (e.dst, e.src)
            for e in store.edges() if e.kind == "is"]
    reached = {start}
    changed = True
    while changed:
        changed = False
        for src, dst in arcs:
            if src in reached and dst not in reached:
                reached.add(dst)
                changed = True
    return [(n, 1.0) for n in sorted(reached) if n != start and store.thing(n).kind == kind]


def _wide_is_store(rng: random.Random) -> GraphStore:
    """A random ``is`` store with, for each lookup pair, a fan of more than
    ``_SCAN_LIMIT`` leaf ends into one thing and out of another, so a split
    keeps leaf groups of both forms, a tuple and a dict's keys."""
    store = _is_store(rng)
    for kind, general in [("actor", "role"), ("event", "appearance"), ("coincidence", "situation"),
                          ("process", "scenario")]:
        times = TimeSpec.point(1) if kind == "event" else None
        hub, wide = store.add_thing(general), store.add_thing(kind, times=times)
        for _ in range(_SCAN_LIMIT + 4):
            store.add_edge(Edge("is", store.add_thing(kind, times=times), hub))
            store.add_edge(Edge("is", wide, store.add_thing(general)))
    return store


def test_is_walks_match_a_closure_on_random_graphs():
    rng = random.Random(29)
    for store in [_is_store(rng) for _ in range(60)] + [_wide_is_store(rng) for _ in range(3)]:
        for query, (direction, kind) in REACH_QUERIES.items():
            for thing in store.things():
                got = query(store, thing.id).pairs()
                assert got == _closure(store, thing.id, direction, kind), (query.__name__, thing.id)


def test_is_walks_see_edges_added_after_a_walk():
    store = GraphStore()
    role = store.add_thing("role", "r")
    first = store.add_thing("actor", "a")
    store.add_edge(Edge("is", first, role))
    assert queries.actors_of_role(store, role).ids() == [first]
    assert queries.roles_of_actor(store, first).ids() == [role]
    middle = store.add_thing("generic")
    second = store.add_thing("actor", "b")
    store.add_edge(Edge("is", middle, role))
    assert queries.actors_of_role(store, role).ids() == [first]
    store.add_edge(Edge("is", second, middle))
    assert queries.actors_of_role(store, role).ids() == [first, second]
    assert queries.roles_of_actor(store, second).ids() == [role]


def test_is_walk_reads_no_edge_list_after_the_first(monkeypatch):
    store = GraphStore()
    role = store.add_thing("role", "r")
    owners = [store.add_thing("event", times=TimeSpec.point(n)) for n in range(5)]
    actors = []
    for n in range(5000):
        actor = store.add_thing("actor")
        store.add_edge(Edge("is", actor, role))
        for owner in owners:
            store.add_edge(Edge("has", owner, actor, role="r"))
        actors.append(actor)
    assert queries.actors_of_role(store, role).ids() == actors
    calls = []
    neighbor_ids = GraphStore.neighbor_ids

    def counted(self, *args, **kwargs):
        calls.append(args)
        return neighbor_ids(self, *args, **kwargs)

    monkeypatch.setattr(GraphStore, "neighbor_ids", counted)
    assert queries.actors_of_role(store, role).ids() == actors
    assert queries.roles_of_actor(store, actors[-1]).ids() == [role]
    assert calls == []


def test_scenario_order_outside_the_sequence_is_empty():
    store = GraphStore()
    scenario = store.add_thing("scenario", "o")
    sits = [store.add_thing("situation", f"s{i}") for i in range(2)]
    other = store.add_thing("process")
    for member in (sits[0], other, sits[1], sits[0]):
        store.add_edge(Edge("member", scenario, member, set_kind="seq"))
    assert queries.situations_of_scenario(store, scenario).ids() == sits
    assert queries.situations_of_scenario(store, scenario, order=3).ids() == [sits[0]]
    for order in (-1, 1, 4):
        assert queries.situations_of_scenario(store, scenario, order=order).ids() == []
    assert queries.scenarios_of_situation(store, sits[0], order=3).ids() == [scenario]
    assert queries.scenarios_of_situation(store, sits[1], order=0).ids() == []
