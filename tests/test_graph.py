"""Graph store: nodes, edges, time spans, persistence."""

import contextlib
import gc
import json
import math
import random
import re
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenamine.graph as graph
from oracles import naive_membership, tickset_union
from scenamine.graph import (
    KINDS,
    Edge,
    GraphError,
    GraphStore,
    SnapshotError,
    TimeSpec,
    WeightedSet,
)
from scenamine.queries import _reach, actors_of_role, events_of_actor


def test_add_thing_returns_fresh_ids():
    store = GraphStore()
    a = store.add_thing("actor", "john doe")
    b = store.add_thing("actor", "john doe")
    assert a != b
    assert store.thing(a).name == store.thing(b).name == "john doe"


def test_kind_is_what_was_created():
    store = GraphStore()
    event = store.add_thing("event", times=TimeSpec.point(3))
    assert store.thing(event).kind == "event"


def test_events_require_times():
    store = GraphStore()
    with pytest.raises(GraphError):
        store.add_thing("event")


def test_unknown_kind_rejected():
    store = GraphStore()
    with pytest.raises(GraphError):
        store.add_thing("wizard")


def test_is_edge_read_back():
    store = GraphStore()
    appearance = store.add_thing("appearance", "cleaning")
    event = store.add_thing("event", times=TimeSpec.point(1))
    store.add_edge(Edge("is", event, appearance))
    assert store.neighbors(event, "is", "out").ids() == [appearance]
    assert store.neighbors(appearance, "is", "in").ids() == [event]


def test_seq_member_orders_auto_assign():
    store = GraphStore()
    parent = store.add_thing("scenario", "o")
    kids = [store.add_thing("situation", f"s{i}") for i in range(3)]
    for kid in kids:
        store.add_edge(Edge("member", parent, kid, set_kind="seq"))
    orders = sorted(
        e.order for e in store.edges() if e.src == parent and e.kind == "member"
    )
    assert orders == [0, 1, 2]
    assert store.member_children(parent, "seq") == kids


def test_long_sequence_appends_and_round_trips_in_linear_time():
    """20,000 seq members, added out of id order with a few repeats: each
    append reads and extends one member list, so building, dumping and
    loading take well under 2 s (an append that counts the node's earlier
    members takes minutes), and both stores list the members as added."""
    started = time.perf_counter()
    store = GraphStore()
    process = store.add_thing("process", "p")
    members = [store.add_thing("coincidence") for _ in range(20_000)]
    random.Random(3).shuffle(members)
    members += members[:5]
    for member in members:
        store.add_edge(Edge("member", process, member, set_kind="seq"))
    loaded = GraphStore.loads(store.dumps())
    elapsed = time.perf_counter() - started
    assert store.member_children(process, "seq") == members
    assert loaded.member_children(process, "seq") == members
    assert elapsed < 2.0


@pytest.mark.parametrize("kind, set_kind", [("member", "and"), ("member", "any"), ("is", None)])
def test_long_out_lists_append_and_round_trip_in_linear_time(kind, set_kind):
    """20,000 edges of one kind out of one thing, added out of id order with
    a few repeats: past a short out-list a repeat is looked up in a set of
    it, so building, dumping and loading take well under 2 s (a scan of the
    out-list for each edge takes seconds), and both stores hold each edge
    once, in the order added."""
    started = time.perf_counter()
    store = GraphStore()
    source = store.add_thing("generic", "source")
    ends = [store.add_thing("generic") for _ in range(20_000)]
    random.Random(3).shuffle(ends)
    for end in ends + ends[:5]:
        store.add_edge(Edge(kind, source, end, set_kind=set_kind))
    loaded = GraphStore.loads(store.dumps())
    elapsed = time.perf_counter() - started
    edges = store.edges()
    assert edges == [Edge(kind, source, end, set_kind=set_kind) for end in ends]
    assert loaded.edges() == edges
    assert elapsed < 2.0


@pytest.mark.parametrize("built", ["live", "loaded", "after drop_mined"])
def test_an_explicit_seq_order_is_a_repeat_only_at_its_own_order(built):
    """A seq member given an order is a repeat, a no-op, when the node's
    member list holds it at that order, and the next order appends it; any
    other order breaks contiguity, -1 for the last member too."""
    store = GraphStore()
    process = store.add_thing("process", "p")
    members = [store.add_thing("coincidence") for _ in range(3)]
    mined = store.add_thing("coincidence", properties={"origin": "cluster_events"})
    for member in members[:1] + [mined] * (built == "after drop_mined") + members[1:]:
        store.add_edge(Edge("member", process, member, set_kind="seq"))
    if built == "loaded":
        store = GraphStore.loads(store.dumps())
    elif built == "after drop_mined":
        store.drop_mined()  # the orders close up over the dropped member
    edges = store.edges()
    for order, member in enumerate(members):
        store.add_edge(Edge("member", process, member, set_kind="seq", order=order))
    assert store.edges() == edges
    for order, member in ((-1, members[-1]), (len(members) + 1, members[0]), (0, members[1])):
        with pytest.raises(GraphError, match=re.escape(f"seq order {order} breaks contiguity")):
            store.add_edge(Edge("member", process, member, set_kind="seq", order=order))
    assert store.edges() == edges
    store.add_edge(Edge("member", process, members[0], set_kind="seq", order=len(members)))
    assert store.member_children(process, "seq") == members + members[:1]


def test_seq_member_rejects_gap_in_orders():
    store = GraphStore()
    parent = store.add_thing("process", "p")
    kid = store.add_thing("coincidence", "c")
    with pytest.raises(GraphError, match="contiguity"):
        store.add_edge(Edge("member", parent, kid, set_kind="seq", order=5))


def test_has_edge_retrievable_by_role():
    store = GraphStore()
    appearance = store.add_thing("appearance", "a")
    role = store.add_thing("role", "subject")
    store.add_edge(Edge("has", appearance, role, role="subject"))
    assert store.neighbors(appearance, "has", "out", role="subject").ids() == [role]
    assert store.neighbors(appearance, "has", "out", role="object").ids() == []


def test_has_edge_requires_role():
    store = GraphStore()
    a = store.add_thing("generic")
    b = store.add_thing("generic")
    with pytest.raises(GraphError):
        store.add_edge(Edge("has", a, b))


def test_dangling_edge_rejected():
    store = GraphStore()
    a = store.add_thing("actor", "x")
    with pytest.raises(GraphError, match="dangling"):
        store.add_edge(Edge("is", a, 999))


def test_duplicate_edge_is_noop():
    store = GraphStore()
    a = store.add_thing("actor", "x")
    r = store.add_thing("role", "r")
    store.add_edge(Edge("is", a, r))
    store.add_edge(Edge("is", a, r))
    assert len([e for e in store.edges() if e.src == a and e.kind == "is"]) == 1


def test_neighbors_unknown_id():
    store = GraphStore()
    with pytest.raises(GraphError):
        store.neighbors(42)


def test_neighbors_inverse_on_random_graphs():
    rng = random.Random(99)
    for _ in range(5):
        store = GraphStore()
        kinds = ["generic", "actor", "role", "event"]
        nodes = []
        for i in range(100):
            kind = rng.choice(kinds)
            times = TimeSpec.point(i) if kind == "event" else None
            nodes.append(store.add_thing(kind, f"n{i}", times=times))
        expected_out = {n: set() for n in nodes}
        expected_in = {n: set() for n in nodes}
        for _ in range(500):
            a, b = rng.sample(nodes, 2)
            store.add_edge(Edge("is", a, b))
            store.add_edge(Edge("has", a, b, role=rng.choice("xy")))
            expected_out[a].add(b)
            expected_in[b].add(a)
        for n in nodes:
            assert set(store.neighbors(n, "is", "out").ids()) == expected_out[n]
            assert set(store.neighbors(n, "is", "in").ids()) == expected_in[n]
        for x in nodes:
            for y in store.neighbors(x, "is", "out").ids():
                assert x in store.neighbors(y, "is", "in")
        edges = store.edges()
        for edge_kind, role in (("is", None), ("has", "x"), (None, None)):
            picked = [
                e
                for e in edges
                if e.kind != "times"
                and (edge_kind is None or e.kind == edge_kind)
                and (role is None or e.role == role)
            ]
            for n in nodes:
                ends = {
                    "out": {e.dst for e in picked if e.src == n},
                    "in": {e.src for e in picked if e.dst == n},
                }
                for direction, found in ends.items():
                    for kind in kinds + [None]:
                        got = store.neighbors(n, edge_kind, direction, role=role, node_kind=kind)
                        assert got.ids() == sorted(
                            m for m in found if kind is None or store.thing(m).kind == kind
                        )


# -- time spans ---------------------------------------------------------------


def test_timespec_normalizes_overlap():
    assert TimeSpec(((1, 2), (2, 4))).intervals == ((1, 4),)


def test_timespec_coalesces_adjacent_ticks():
    assert TimeSpec(((1, 2), (3, 4))).intervals == ((1, 4),)


def test_timespec_keeps_gaps():
    assert TimeSpec(((1, 1), (3, 3))).intervals == ((1, 1), (3, 3))


def test_timespec_rejects_reversed_interval():
    with pytest.raises(GraphError):
        TimeSpec(((5, 1),))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 8)).map(
            lambda p: (p[0], p[0] + p[1])
        ),
        min_size=0,
        max_size=6,
    ),
    st.integers(-2, 35),
)
def test_timespec_membership_matches_naive_scan(raw, tick):
    spec = TimeSpec(tuple(raw))
    assert spec.contains(tick) == naive_membership(raw, tick)
    # normalized form covers exactly the same ticks
    assert tickset_union([raw]) == tickset_union([spec.intervals])
    starts = [s for s, _ in spec.intervals]
    assert starts == sorted(starts)
    assert all(
        spec.intervals[i + 1][0] > spec.intervals[i][1] + 1
        for i in range(len(spec.intervals) - 1)
    )



def _sorted_and_coalesced(pairs) -> tuple:
    """The reference normal form: every tick the pairs cover, cut into runs."""
    ticks = sorted({tick for start, end in pairs for tick in range(start, end + 1)})
    runs = []
    for tick in ticks:
        if runs and tick == runs[-1][1] + 1:
            runs[-1][1] = tick
        else:
            runs.append([tick, tick])
    return tuple((start, end) for start, end in runs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=4))
def test_timespec_sorts_and_coalesces_or_names_a_reversed_pair(pairs):
    """One pair or several, as tuples or as the lists a load passes:
    ``TimeSpec`` gives the reference form, or names a reversed pair."""
    reversed_pairs = {f"bad interval [{start}, {end}]" for start, end in pairs if start > end}
    for given_pairs in (tuple(pairs), [list(p) for p in pairs]):
        if reversed_pairs:
            with pytest.raises(GraphError) as caught:
                TimeSpec(given_pairs)
            assert str(caught.value) in reversed_pairs
        else:
            assert TimeSpec(given_pairs).intervals == _sorted_and_coalesced(pairs)


# -- weighted sets ---------------------------------------------------------------


def test_weighted_set_bounds_and_dedup():
    ws = WeightedSet([2, 1, 2, 3, 1])
    assert ws.pairs() == [(2, 1.0), (1, 1.0), (3, 1.0)]


# -- persistence -----------------------------------------------------------------


def test_empty_store_round_trip():
    store = GraphStore()
    loaded = GraphStore.loads(store.dumps())
    assert loaded.things() == []
    assert loaded.dumps() == store.dumps()


def _random_store(rng: random.Random, nodes: int = 1000) -> GraphStore:
    store = GraphStore()
    kinds = ["actor", "role", "appearance", "event", "situation", "generic"]
    ids = []
    for i in range(nodes):
        kind = rng.choice(kinds)
        times = (
            TimeSpec.point(rng.randrange(100)) if kind == "event" else None
        )
        props = {"n": i} if rng.random() < 0.3 else None
        ids.append(store.add_thing(kind, f"t{i % 70}", properties=props, times=times))
    for _ in range(nodes * 3):
        a, b = rng.sample(ids, 2)
        choice = rng.random()
        if choice < 0.5:
            store.add_edge(Edge("is", a, b))
        elif choice < 0.8:
            store.add_edge(Edge("has", a, b, role=f"r{rng.randrange(5)}"))
        else:
            store.add_edge(Edge("member", a, b, set_kind=rng.choice(["and", "any"])))
    parent = ids[0]
    for kid in rng.sample(ids[1:], 5):
        store.add_edge(Edge("member", parent, kid, set_kind="seq"))
    return store


def test_large_store_round_trip_isomorphic():
    store = _random_store(random.Random(2018))
    dumped = store.dumps()
    loaded = GraphStore.loads(dumped)
    assert loaded.dumps() == dumped
    edges, loaded_edges = store.edges(), loaded.edges()
    for t in store.things():
        copy = loaded.thing(t.id)
        assert (copy.kind, copy.name, copy.properties) == (t.kind, t.name, t.properties)
        assert loaded.times_of(t.id) == store.times_of(t.id)
        assert sorted(tuple_key(e) for e in loaded_edges if e.src == t.id) == sorted(
            tuple_key(e) for e in edges if e.src == t.id
        )
    # new ids continue past everything loaded
    fresh = loaded.add_thing("generic")
    assert fresh > max(t.id for t in store.things())


def tuple_key(edge: Edge):
    return (edge.kind, edge.src, edge.dst, edge.role or "", edge.set_kind or "", -1 if edge.order is None else edge.order)


def test_truncated_stream_fails_cleanly():
    store = _random_store(random.Random(4), nodes=50)
    dumped = store.dumps()
    with pytest.raises(SnapshotError):
        GraphStore.loads(dumped[: len(dumped) // 2])


def test_unknown_fields_rejected():
    with pytest.raises(SnapshotError, match="unknown"):
        GraphStore.loads(
            '{"things":[{"id":1,"kind":"actor","name":null,"properties":{},"extra":1}],'
            '"edges":[],"times":[]}'
        )
    with pytest.raises(SnapshotError):
        GraphStore.loads('{"things":[],"edges":[],"times":[],"bonus":[]}')


def test_load_rejects_noncontiguous_seq_orders():
    body = (
        '{"things":[{"id":1,"kind":"process","name":null,"properties":{}},'
        '{"id":2,"kind":"coincidence","name":null,"properties":{}}],'
        '"edges":[{"kind":"member","from":1,"to":2,"set_kind":"seq","order":3}],'
        '"times":[]}'
    )
    with pytest.raises(SnapshotError, match="contiguous"):
        GraphStore.loads(body)


def test_load_rejects_dangling_edges():
    with pytest.raises(SnapshotError):
        GraphStore.loads(
            '{"things":[{"id":1,"kind":"actor","name":null,"properties":{}}],'
            '"edges":[{"kind":"is","from":1,"to":7}],"times":[]}'
        )


def test_load_rejects_untimed_event():
    body = (
        '{"things":[{"id":1,"kind":"appearance","name":"a","properties":{}},'
        '{"id":2,"kind":"event","name":null,"properties":{}}],'
        '"edges":[{"kind":"is","from":2,"to":1}],"times":[]}'
    )
    with pytest.raises(SnapshotError, match="event 2 has no time span"):
        GraphStore.loads(body)


def test_things_of_kind_in_id_order_after_shuffled_load():
    body = (
        '{"things":[{"id":5,"kind":"actor","name":"e","properties":{}},'
        '{"id":2,"kind":"role","name":"r","properties":{}},'
        '{"id":3,"kind":"actor","name":"c","properties":{}},'
        '{"id":1,"kind":"actor","name":"a","properties":{}}],'
        '"edges":[],"times":[]}'
    )
    store = GraphStore.loads(body)
    added = store.add_thing("actor", "f")
    assert [t.id for t in store.things("actor")] == [1, 3, 5, added]
    assert [t.id for t in store.things()] == [1, 2, 3, 5, added]
    assert store.things("process") == []


def _snapshot(things, edges=(), times=()) -> str:
    return json.dumps({"things": things, "edges": list(edges), "times": list(times)})


def _node(thing_id, kind, **fields):
    return {"id": thing_id, "kind": kind, "name": None, "properties": {}, **fields}


def _seq(src, dst, order):
    return {"kind": "member", "set_kind": "seq", "from": src, "to": dst, "order": order}


_ACTOR_AND_PROCESS = [_node(1, "actor"), _node(2, "process")]


@pytest.mark.parametrize(
    "body, fault",
    [
        (_snapshot([_node(1, "actor", properties=[1])]), "thing 1 properties are not an object"),
        (_snapshot([_node(1, "actor", properties={"x": [1]})]), "thing 1 property 'x' is not a scalar"),
        (_snapshot([_node(1, "actor", name=["a"])]), "thing 1 name ['a'] is not a string"),
        (_snapshot([_node(1, "actor", name=5)]), "thing 1 name 5 is not a string"),
        (_snapshot([_node(1, ["actor"])]), "thing 1 has unknown kind"),
        (_snapshot([_node(True, "actor")]), "bad or duplicate thing id True"),
        ('{"things":5,"edges":[],"times":[]}', "snapshot things must be a list"),
        ('{"things":[],"edges":{},"times":[]}', "snapshot edges must be a list"),
        (_snapshot(_ACTOR_AND_PROCESS, [{"kind": "is", "from": [1], "to": 2}]), "edge from [1] is not an integer"),
        (_snapshot(_ACTOR_AND_PROCESS, [_seq([2], 1, 0)]), "edge from [2] is not an integer"),
        (_snapshot(_ACTOR_AND_PROCESS, [{"kind": "is", "from": 1.0, "to": 2}]), "edge from 1.0 is not an integer"),
        (_snapshot(_ACTOR_AND_PROCESS, [_seq(2, 1, True)]), "edge order True is not an integer"),
        (_snapshot(_ACTOR_AND_PROCESS, [{"kind": ["is"], "from": 1, "to": 2}]), "edge kind ['is'] is not a string"),
        (_snapshot(_ACTOR_AND_PROCESS, [{"kind": "has", "from": 2, "to": 1, "role": 5}]), "edge role 5 is not a string"),
        (_snapshot(_ACTOR_AND_PROCESS, [{"kind": "has", "from": 2, "to": 1, "role": ""}]), "has edge 2 -> 1 needs a role name"),
        (_snapshot([], times=[{"id": 1, "intervals": [["a", "b"]]}]), "bad intervals for 1: ['a', 'b'] is not a pair of integers"),
        (_snapshot([], times=[{"id": 1, "intervals": [[True, 2]]}]), "bad intervals for 1: [True, 2] is not a pair of integers"),
        (_snapshot([], times=[{"id": 1, "intervals": [[0.5, 1.5]]}]), "bad intervals for 1: [0.5, 1.5] is not a pair of integers"),
    ],
)
def test_load_rejects_malformed_values_naming_them(body, fault):
    with pytest.raises(SnapshotError, match=re.escape(fault)):
        GraphStore.loads(body)


@pytest.mark.parametrize(
    "build, fault",
    [
        # the edge and interval rows above, built live
        (lambda s: s.add_edge(Edge("is", [1], 2)), "edge from [1] is not an integer"),
        (lambda s: s.add_edge(Edge("member", [2], 1, set_kind="seq", order=0)), "edge from [2] is not an integer"),
        (lambda s: s.add_edge(Edge("is", 1.0, 2)), "edge from 1.0 is not an integer"),
        (lambda s: s.add_edge(Edge("member", 2, 1, set_kind="seq", order=True)), "edge order True is not an integer"),
        (lambda s: s.add_edge(Edge(["is"], 1, 2)), "edge kind ['is'] is not a string"),
        (lambda s: s.add_edge(Edge("has", 2, 1, role=5)), "edge role 5 is not a string"),
        (lambda s: s.add_edge(Edge("has", 2, 1, role="")), "has edge 2 -> 1 needs a role name"),
        (lambda s: TimeSpec((["a", "b"],)), "['a', 'b'] is not a pair of integers"),
        (lambda s: TimeSpec(([True, 2],)), "[True, 2] is not a pair of integers"),
        (lambda s: TimeSpec(([0.5, 1.5],)), "[0.5, 1.5] is not a pair of integers"),
        # values that no snapshot can hold
        (lambda s: s.add_edge(Edge("is", True, 2)), "edge from True is not an integer"),
        (lambda s: s.add_edge(Edge("member", 2, 1, set_kind="seq", order=False)), "edge order False is not an integer"),
        (lambda s: s.add_edge(Edge("member", 2, 1, set_kind=["seq"])), "edge set_kind ['seq'] is not a string"),
        (lambda s: TimeSpec(((1.5, 2),)), "(1.5, 2) is not a pair of integers"),
        (lambda s: s.add_thing("event", times=((1, 2),)), "times ((1, 2),) is not a TimeSpec"),
    ],
)
def test_live_construction_refuses_what_a_load_refuses(build, fault):
    """Live construction and load share one check per fact, so what a load
    refuses is refused live with the same text, and every store built live
    round-trips through its snapshot."""
    store = GraphStore()
    actor, process = store.add_thing("actor"), store.add_thing("process")
    event = store.add_thing("event", times=TimeSpec(((3, 5), [7, 7])))
    store.add_edge(Edge("has", event, actor, role="who"))
    store.add_edge(Edge("member", process, event, set_kind="seq"))
    dumped = store.dumps()
    with pytest.raises(GraphError, match=re.escape(fault)):
        build(store)
    assert store.dumps() == dumped
    assert GraphStore.loads(dumped).dumps() == dumped


_IDS = st.sampled_from([1, 2, 3, 4, True, 1.0, [1]])
_EDGES = st.builds(
    Edge,
    st.sampled_from(["is", "has", "member", "times", ["is"]]),
    _IDS,
    _IDS,
    st.none() | st.sampled_from(["r", "", 5, ["r"]]),
    st.none() | st.sampled_from(["and", "seq", "any", ["seq"]]),
    st.none() | st.sampled_from([0, 1, True, False, 1.5]),
)
_TICKS = st.sampled_from([0, 1, 5, True, 1.5, "a"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.lists(st.tuples(_TICKS, _TICKS), max_size=3), max_size=3), st.lists(_EDGES, max_size=25))
def test_every_store_built_live_loads_again(spans, edges):
    """Whatever the public construction methods accept, a load of its
    snapshot accepts and writes back unchanged."""
    store = GraphStore()
    for kind in ("actor", "process", "coincidence"):
        store.add_thing(kind)
    for pairs in spans:
        with contextlib.suppress(GraphError):
            store.add_thing("event", times=TimeSpec(tuple(pairs)))
    for edge in edges:
        with contextlib.suppress(GraphError):
            store.add_edge(edge)
    dumped = store.dumps()
    assert GraphStore.loads(dumped).dumps() == dumped


class _Text(str):
    """A string whose ``str()`` is not its text; a snapshot holds the text."""

    def __str__(self):
        return "not the text"


class _Count(int):
    """An integer whose ``repr()`` is not its digits; a snapshot holds the digits."""

    def __repr__(self):
        return "not the count"


# quotes, backslashes, control characters, non-ASCII, non-BMP and lone surrogates
_ODD_CHARS = st.sampled_from(
    ['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\U0001f600", "\ud800", "\udfff", "a"]
) | st.characters(exclude_categories=())
_ODD_TEXT = st.text(_ODD_CHARS, max_size=6)
_FREE_TEXT = _ODD_TEXT | _ODD_TEXT.map(_Text)
_PROPERTY_VALUES = (
    _FREE_TEXT
    | st.booleans()
    | st.integers()
    | st.integers().map(_Count)
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2**70])
)
_WRITER_THINGS = st.lists(
    st.tuples(
        st.sampled_from(sorted(KINDS)),
        st.none() | _FREE_TEXT,
        st.dictionaries(_FREE_TEXT, _PROPERTY_VALUES, max_size=3),
        st.lists(st.tuples(st.integers(-5, 30), st.integers(0, 6)), max_size=3),
    ),
    min_size=1,
    max_size=8,
)
_WRITER_LINKS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from(["is", "has", "times", "and", "any", "seq"]),
        st.text(_ODD_CHARS, min_size=1, max_size=4),
    ),
    max_size=20,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_WRITER_THINGS, _WRITER_LINKS)
def test_dumps_writes_what_json_dumps_writes_for_the_entry_tree(things, links):
    """``dumps`` writes its text directly; it equals ``json.dumps`` with sorted
    keys of the entry tree read back through the public accessors, whatever
    the names, roles and properties hold, and it loads back to itself."""
    store, ids, spans = GraphStore(), [], {}
    for kind, name, properties, pairs in things:
        intervals = tuple((start, start + length) for start, length in pairs)
        if kind == "event" and not intervals:
            intervals = ((0, 0),)
        thing = store.add_thing(kind, name, properties, TimeSpec(intervals) if intervals else None)
        ids.append(thing)
        for edge in [e for e in store.edges() if e.src == thing]:  # its one times edge, if it has a span
            spans[edge.dst] = store.times_of(thing).intervals
    for a, b, link, role in links:
        src, dst = ids[a % len(ids)], ids[b % len(ids)]
        if link == "times":
            if spans:
                store.add_edge(Edge("times", src, sorted(spans)[b % len(spans)]))
        elif link in ("is", "has"):
            store.add_edge(Edge(link, src, dst, role=role if link == "has" else None))
        else:
            store.add_edge(Edge("member", src, dst, set_kind=link))
    edges = []
    for t in store.things():
        for e in [edge for edge in store.edges() if edge.src == t.id]:
            extras = {"role": e.role, "set_kind": e.set_kind, "order": e.order}
            edges.append({"kind": e.kind, "from": e.src, "to": e.dst,
                          **{key: value for key, value in extras.items() if value is not None}})
    tree = {
        "things": [{"id": t.id, "kind": t.kind, "name": t.name, "properties": t.properties} for t in store.things()],
        "edges": edges,
        "times": [{"id": spec_id, "intervals": [list(p) for p in spans[spec_id]]} for spec_id in sorted(spans)],
    }
    dumped = store.dumps()
    assert dumped == json.dumps(tree, sort_keys=True, separators=(",", ":"))
    assert dumped.isascii()
    assert GraphStore.loads(dumped).dumps() == dumped
    tree["things"].reverse()  # a snapshot in another order is written back in id order
    tree["times"].reverse()
    assert GraphStore.loads(json.dumps(tree)).dumps() == dumped


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.dictionaries(_FREE_TEXT, _PROPERTY_VALUES, max_size=4))
def test_properties_encoder_without_the_c_accelerator_writes_the_same_bytes(properties):
    """``dumps`` makes its properties encoder once; where ``json`` has no C
    encoder it falls back to the pure one, which writes the same bytes."""
    written = graph._encode_properties(properties)
    assert written == json.dumps(properties, sort_keys=True, separators=(",", ":"))
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        assert graph._properties_encoder()(properties) == written


def test_load_builds_every_thing_and_edge_through_the_checked_path(monkeypatch):
    """A load calls ``_put_thing`` once per thing and ``add_edge`` once per
    edge, so no entry skips the checks live construction makes."""
    dumped = _random_store(random.Random(7), nodes=200).dumps()
    raw = json.loads(dumped)
    calls = {"_put_thing": 0, "add_edge": 0}
    for name in calls:
        def counted(self, *args, _name=name, _original=getattr(GraphStore, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(GraphStore, name, counted)
    GraphStore.loads(dumped)
    assert calls == {"_put_thing": len(raw["things"]), "add_edge": len(raw["edges"])}



@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("snapshot", ["good", "truncated", "dangling-edge"])
def test_load_leaves_the_collector_as_it_found_it(enabled, snapshot):
    """A load pauses the cyclic collector; whether it returns or raises, the
    collector is on after it exactly when it was on before."""
    text = _random_store(random.Random(3), nodes=60).dumps()
    if snapshot == "truncated":
        text = text[: len(text) // 2]
    elif snapshot == "dangling-edge":
        text = _snapshot(_ACTOR_AND_PROCESS, [{"kind": "is", "from": 1, "to": 7}])
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if snapshot == "good":
            assert GraphStore.loads(text).dumps() == text
        else:
            with pytest.raises(SnapshotError):
                GraphStore.loads(text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "entry, fault",
    [
        ({"kind": "member", "set_kind": "seq", "from": 2, "to": 1}, "missing edge fields ['order']"),
        ({**_seq(2, 1, 0), "order": None}, "null edge fields ['order']"),
        ({"kind": "is", "from": 1, "to": 2, "weight": 1}, "unknown edge fields ['weight']"),
        ({"kind": "is", "from": 1, "to": 2, "role": None}, "unknown edge fields ['role']"),
        ({"kind": "has", "from": 2, "to": 1, "role": "r", "set_kind": None}, "unknown edge fields ['set_kind']"),
        ({"kind": "member", "set_kind": "and", "from": 2, "to": 1, "order": None}, "unknown edge fields ['order']"),
    ],
)
def test_load_names_an_edge_entry_without_exactly_its_kinds_fields(entry, fault):
    with pytest.raises(SnapshotError, match=re.escape(fault)):
        GraphStore.loads(_snapshot(_ACTOR_AND_PROCESS, [entry]))


def test_edge_is_an_immutable_value():
    edge = Edge(kind="is", src=1, dst=2)
    assert (edge.role, edge.set_kind, edge.order) == (None, None, None)
    same = Edge("is", 1, 2)
    assert edge == same and hash(edge) == hash(same) and len({edge, same}) == 1
    assert edge != Edge("is", 1, 2, role="r")
    with pytest.raises(AttributeError):
        edge.src = 3
    store = _random_store(random.Random(11), nodes=100)
    assert GraphStore.loads(store.dumps()).edges() == store.edges()


@pytest.mark.parametrize("built", ["live", "loaded"])
def test_stored_edges_are_plain_tuples_the_collector_leaves_and_the_api_hands_out_as_edges(built):
    """The store holds each edge as an exact tuple of atomic values, which a
    collection untracks, and hands it out as an ``Edge`` that equals and
    hashes like that tuple."""
    store = _random_store(random.Random(13), nodes=100)
    if built == "loaded":
        store = GraphStore.loads(store.dumps())
    store.in_edges(store.things()[0].id)  # builds the in-edge index
    gc.collect()
    into = [e for ends in store._into.values() for edges in ends.values() for e in edges]
    out = [e for edges in store._out.values() for e in edges]
    assert sorted(into) == sorted(e for e in out if e[0] != "times")
    stored = [*out, *into]
    assert stored and all(type(e) is tuple and not gc.is_tracked(e) for e in stored)
    listed = store.edges()
    assert listed == out and len(set(listed)) == len(listed)
    for thing in store.things():
        assert [e for e in store.edges() if e.src == thing.id] == store._out[thing.id]
        assert store.in_edges(thing.id) == [e for ends in store._into.values() for e in ends.get(thing.id, ())]
        listed += store.in_edges(thing.id)
    for edge in listed:
        assert type(edge) is Edge
        plain = tuple(edge)
        assert edge == plain and hash(edge) == hash(plain)
        assert edge == (edge.kind, edge.src, edge.dst, edge.role, edge.set_kind, edge.order)
        assert Edge(*plain) in store.edges()
    dumped = store.dumps()
    for edge in listed:
        store.add_edge(edge)
    assert store.dumps() == dumped and sorted(store.edges()) == sorted(set(listed))


def _per_node_reach(store: GraphStore, starts: list[int], direction: str, kind: str):
    """``queries._reach`` as a walk over the ``is`` edges that ``edges()``
    lists, reading each reached thing's kind off its node, not from the kind
    index: the oracle of the walk."""
    links = {}
    for e in store.edges():
        if e.kind == "is":
            src, dst = (e.src, e.dst) if direction == "out" else (e.dst, e.src)
            links.setdefault(src, []).append(dst)
    seen, level, found = set(starts), starts, set()
    while level:
        reached = []
        for node in level:
            for other in links.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    reached.append(other)
                    if store.thing(other).kind == kind:
                        found.add(other)
        level = reached
    return [(n, 1.0) for n in sorted(found)]


_STEP_KINDS = ["actor", "event", "generic", "process"]
# (operation, two picks among the things, an edge kind, a thing kind, a flag):
# writes come more often than reads, and dropping the mined things least often
_STEPS = st.lists(
    st.tuples(st.sampled_from(["edge", "thing", "read", "edge", "thing", "read", "edge", "drop_mined"]),
              st.integers(0, 30), st.integers(0, 30), st.sampled_from(["is", "has", "and", "any", "seq"]),
              st.sampled_from(_STEP_KINDS), st.booleans()),
    min_size=20,
    max_size=60,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_STEPS)
def test_in_direction_reads_match_a_scan_of_the_edges_between_writes(steps):
    """Writes interleaved with reads: every in-direction read equals a scan
    of ``edges()``, so each new edge dropped the in-edge index that a read
    before it built, and the kind index holds every thing of its kind; the
    ``is`` walk equals the per-node walk."""
    store = GraphStore()
    for op, a, b, edge_kind, thing_kind, flag in steps:
        nodes = [t.id for t in store.things()]
        if op == "thing":
            store.add_thing(thing_kind, properties={"origin": "test"} if flag else None,
                            times=TimeSpec.point(len(nodes)) if thing_kind == "event" else None)
        elif op == "drop_mined":
            store.drop_mined()
        elif op == "edge" and nodes:
            src, dst = nodes[a % len(nodes)], nodes[b % len(nodes)]
            if edge_kind == "is":
                store.add_edge(Edge("is", src, dst))
            elif edge_kind == "has":
                store.add_edge(Edge("has", src, dst, role="r0" if flag else "r1"))
            else:
                store.add_edge(Edge("member", src, dst, set_kind=edge_kind))
        elif op == "read" and nodes:
            node, start = nodes[a % len(nodes)], nodes[b % len(nodes)]
            into = [e for e in store.edges() if e.dst == node and e.kind != "times"]
            assert len(store.in_edges(node)) == len(into) and set(store.in_edges(node)) == set(into)
            for kind in (None, "is", "has", "member", "times"):
                for role in (None, "r0"):
                    for set_kind in (None, "and", "seq", "any"):
                        for node_kind in (None, *_STEP_KINDS):
                            for order in (None, 0, 1):
                                expected = sorted({
                                    e.src for e in into
                                    if (kind is None or e.kind == kind) and (role is None or e.role == role)
                                    and (set_kind is None or e.set_kind == set_kind)
                                    and (order is None or e.order == order)
                                    and (node_kind is None or store.thing(e.src).kind == node_kind)
                                })
                                got = store.neighbor_ids(node, kind, "in", role, set_kind, node_kind, order)
                                assert got == expected, (node, kind, role, set_kind, node_kind, order)
                            got = store.neighbors(node, kind, "in", role, set_kind, node_kind)
                            assert got.ids() == store.neighbor_ids(node, kind, "in", role, set_kind, node_kind)
            for kind in _STEP_KINDS:
                assert store.kind_ids(kind) == {t.id for t in store.things(kind)}
            for direction in ("out", "in"):
                for kind in _STEP_KINDS:
                    for starts in ([start], [node, start], nodes[: len(nodes) // 2]):
                        got = _reach(store, starts, direction, kind).pairs()
                        assert got == _per_node_reach(store, starts, direction, kind)


def _loaded_random_store() -> GraphStore:
    return GraphStore.loads(_random_store(random.Random(17), nodes=300).dumps())


def _scanned_in_edges(store: GraphStore, thing_id: int) -> list[Edge]:
    """The edges into a thing as ``in_edges`` lists them, from a scan of ``edges()``."""
    edges = store.edges()
    return [e for kind in ("is", "has", "member") for e in edges if e.kind == kind and e.dst == thing_id]


def test_a_first_is_walk_after_a_load_builds_only_the_is_in_edges():
    store = _loaded_random_store()
    actors_of_role(store, store.things("role")[0].id)
    assert list(store._into) == ["is"]
    assert {e[0] for ends in store._into["is"].values() for e in ends} == {"is"}


def test_in_edges_after_a_partial_build_list_is_then_has_then_member_edges():
    store = _loaded_random_store()
    actors_of_role(store, store.things("role")[0].id)
    for thing in store.things():
        assert store.in_edges(thing.id) == _scanned_in_edges(store, thing.id)
    assert list(store._into) == ["is", "has", "member"]


@pytest.mark.parametrize("built", [["is"], ["has"], ["is", "has"]])
@pytest.mark.parametrize("kind", ["is", "has", "member"])
def test_a_new_edge_after_a_partial_build_drops_every_kind(built, kind):
    store = _loaded_random_store()
    role, actor = store.things("role")[0].id, store.things("actor")[0].id
    event = store.add_thing("event", times=TimeSpec.point(0))
    if "is" in built:
        actors_of_role(store, role)
    if "has" in built:
        events_of_actor(store, actor)
    assert list(store._into) == built
    store.add_edge({"is": Edge("is", event, role), "has": Edge("has", event, actor, role="r9"),
                    "member": Edge("member", role, actor, set_kind="any")}[kind])
    assert not store._into
    for thing in (role, actor, event):
        assert store.in_edges(thing) == _scanned_in_edges(store, thing)


def test_a_repeated_edge_keeps_the_indexes_built_on_the_edges():
    """A repeat stores nothing, so the in-edge, ``is`` and interval indexes
    built before it are the ones read after it; a new edge drops them."""
    store = GraphStore()
    appearance, role = store.add_thing("appearance", "a"), store.add_thing("role", "subject")
    event = store.add_thing("event", times=TimeSpec.point(3))
    store.add_edge(Edge("has", appearance, role, role="subject"))
    store.add_edge(Edge("is", event, appearance))
    into, split = store.in_index("has"), store.is_split("out", "appearance")
    assert store.alive(3, 3) == [event]
    intervals = store._intervals
    store.add_edge(Edge("has", appearance, role, role="subject"))
    store.add_edge(("is", event, appearance, None, None, None))
    assert store.in_index("has") is into and store.is_split("out", "appearance") is split
    assert store._intervals is intervals
    store.add_edge(Edge("is", appearance, role))
    assert store._into is store._is is store._intervals is None


def test_a_start_without_is_ends_reached_as_a_leaf_from_another_start_stays_out():
    store = GraphStore()
    role, other = store.add_thing("role", "r"), store.add_thing("role", "q")
    actor = store.add_thing("actor")
    for dst in (role, other):
        store.add_edge(Edge("is", actor, dst))
    assert store.neighbor_ids(role, "is") == []  # a leaf end of the actor
    assert _reach(store, [actor, role], "out", "role").pairs() == [(other, 1.0)]
    assert _reach(store, [role, actor], "out", "role").pairs() == [(other, 1.0)]
    assert _reach(store, [actor], "out", "role").ids() == [role, other]
    assert _reach(store, [role], "out", "role").pairs() == []


def test_a_leaf_reached_at_depth_one_and_two_keeps_the_weight_of_depth_one():
    store = GraphStore()
    event = store.add_thing("event", times=TimeSpec.point(1))
    direct, general = store.add_thing("appearance", "direct"), store.add_thing("appearance", "general")
    store.add_edge(Edge("is", event, direct))
    store.add_edge(Edge("is", direct, general))
    store.add_edge(Edge("is", event, general))
    expected = [(direct, 1.0), (general, 1.0)]
    assert _reach(store, [event], "out", "appearance").pairs() == expected
    assert _per_node_reach(store, [event], "out", "appearance") == expected
    # and through a thing of another kind, which the walk passes through
    generic = store.add_thing("generic")
    deep = store.add_thing("appearance", "deep")
    store.add_edge(Edge("is", event, generic))
    store.add_edge(Edge("is", generic, deep))
    store.add_edge(Edge("is", generic, general))
    expected = [(direct, 1.0), (general, 1.0), (deep, 1.0)]
    assert _reach(store, [event], "out", "appearance").pairs() == expected
    assert _per_node_reach(store, [event], "out", "appearance") == expected


def test_a_cycle_through_inner_things_ends_and_keeps_each_member_once():
    store = GraphStore()
    ring = [store.add_thing("situation", f"s{n}") for n in range(4)]
    for src, dst in zip(ring, ring[1:] + ring[:1]):
        store.add_edge(Edge("is", src, dst))
    side = store.add_thing("generic")
    leaf = store.add_thing("situation", "leaf")
    store.add_edge(Edge("is", ring[2], side))
    store.add_edge(Edge("is", side, ring[0]))
    store.add_edge(Edge("is", ring[1], leaf))
    for start in ring:
        got = _reach(store, [start], "out", "situation").pairs()
        assert got == _per_node_reach(store, [start], "out", "situation")
        assert [m for m, _ in got] == sorted(set(ring + [leaf]) - {start})
    assert _reach(store, ring, "in", "situation").ids() == []
    assert _reach(store, [leaf], "in", "situation").ids() == ring


def test_a_lookup_sees_a_new_is_edge_and_a_drop_of_the_mined_things():
    store = GraphStore()
    role = store.add_thing("role", "r")
    actors = [store.add_thing("actor", f"a{n}") for n in range(3)]
    for actor in actors[:2]:
        store.add_edge(Edge("is", actor, role))
    assert _reach(store, [role], "in", "actor").ids() == actors[:2]
    assert _reach(store, [actors[2]], "out", "role").ids() == []
    store.add_edge(Edge("is", actors[2], role))
    assert _reach(store, [role], "in", "actor").ids() == actors
    assert _reach(store, [actors[2]], "out", "role").ids() == [role]
    mined = store.add_thing("actor", "m", properties={"origin": "test"})
    store.add_edge(Edge("is", mined, role))
    assert _reach(store, [role], "in", "actor").ids() == actors + [mined]
    store.drop_mined()
    assert _reach(store, [role], "in", "actor").ids() == actors
    with pytest.raises(GraphError, match=f"unknown thing {mined}"):
        _reach(store, [mined], "out", "role")


def test_a_bad_direction_is_refused_before_and_after_a_walk():
    store = GraphStore()
    role = store.add_thing("role", "r")
    actor = store.add_thing("actor")
    store.add_edge(Edge("is", actor, role))
    for _ in range(2):
        for read in (lambda: store.is_split("up", "role"), lambda: _reach(store, [actor], "up", "role"),
                     lambda: store.neighbor_ids(actor, direction="up")):
            with pytest.raises(GraphError, match=re.escape("bad direction 'up'")):
                read()
        assert _reach(store, [actor], "out", "role").ids() == [role]  # a split index exists from here on


# a random store: (thing kinds, then is edges as index pairs into them);
# some things get no edge at all
_IS_GRAPHS = st.lists(st.sampled_from(["actor", "role", "generic"]), min_size=2, max_size=12).flatmap(
    lambda kinds: st.tuples(
        st.just(kinds),
        st.lists(st.tuples(st.integers(0, len(kinds) - 1), st.integers(0, len(kinds) - 1)), max_size=20),
        st.lists(st.integers(0, len(kinds) - 1), min_size=1, max_size=5),
    )
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_IS_GRAPHS)
def test_a_walk_from_many_starts_equals_the_per_node_walk(graph):
    """Multi-start walks on random ``is`` graphs, some starts with no ends at
    all, equal the per-node walk in both directions, for every kind, and
    again after an edge is added."""
    kinds, edges, picks = graph
    store = GraphStore()
    things = [store.add_thing(kind) for kind in kinds]
    for src, dst in edges:
        store.add_edge(Edge("is", things[src], things[dst]))
    starts = [things[i] for i in picks]
    for _ in range(2):
        for direction in ("out", "in"):
            for kind in ("actor", "role", "generic", "event"):
                got = _reach(store, starts, direction, kind).pairs()
                assert got == _per_node_reach(store, starts, direction, kind)
        store.add_edge(Edge("is", things[-1], things[0]))


def test_load_rejects_seq_members_out_of_order():
    body = _snapshot(
        [_node(2, "process"), _node(3, "coincidence"), _node(4, "coincidence")],
        [_seq(2, 4, 1), _seq(2, 3, 0)],
    )
    with pytest.raises(SnapshotError, match="contiguity"):
        GraphStore.loads(body)


def test_load_duplicate_seq_edge_is_noop():
    body = _snapshot([_node(2, "process"), _node(3, "coincidence")], [_seq(2, 3, 0)] * 2)
    store = GraphStore.loads(body)
    assert store.member_children(2, "seq") == [3]
    assert len(store.edges()) == 1


def test_add_thing_rejects_non_string_name():
    with pytest.raises(GraphError, match="name 5 is not a string"):
        GraphStore().add_thing("actor", 5)


def test_add_thing_takes_a_kind_only_as_a_plain_string():
    """``dumps`` writes a kind as it is, so a str subclass, whose ``str()``
    need not be its text, is refused like any unknown kind."""
    store = GraphStore()
    with pytest.raises(GraphError, match="thing 1 has unknown kind 'actor'"):
        store.add_thing(_Text("actor"))
    assert store.things() == []


def test_add_thing_refuses_a_property_key_that_is_not_a_string():
    """A snapshot's property keys are JSON strings, so any other key is
    refused when added, not left to fail in ``dumps`` or to load back as
    its text."""
    store = GraphStore()
    for properties in ({1: "a", "b": 2}, {1: "a"}):
        with pytest.raises(GraphError, match=re.escape("thing 1 property key 1 is not a string")):
            store.add_thing("actor", "x", properties)
    assert store.dumps() == GraphStore().dumps()
    assert store.add_thing("actor", "x", {"1": "a"}) == 1
    assert GraphStore.loads(store.dumps()).thing(1).properties == {"1": "a"}


def test_add_thing_keeps_its_own_copy_of_the_properties():
    properties = {"a": 1}
    store = GraphStore()
    thing = store.add_thing("actor", "x", properties)
    dumped = store.dumps()
    properties["a"] = 2
    properties["origin"] = "elsewhere"
    assert store.thing(thing).properties == {"a": 1}
    assert store.dumps() == dumped
    with pytest.raises(GraphError, match="thing 2 properties are not an object"):
        store.add_thing("actor", "y", [("a", 1)])


@pytest.mark.parametrize("role", [5, "", ["r"]])
def test_has_edge_role_must_be_nonempty_string(role):
    store = GraphStore()
    a = store.add_thing("generic")
    b = store.add_thing("generic")
    with pytest.raises(GraphError, match="needs a role name"):
        store.add_edge(Edge("has", a, b, role=role))


# -- edge fields -------------------------------------------------------------------


@pytest.mark.parametrize(
    "fields",
    [
        {"kind": "member", "role": "r", "set_kind": "and"},
        {"kind": "is", "role": "q", "order": 4},
        {"kind": "is", "role": "q"},
        {"kind": "has", "role": "r", "set_kind": "any"},
        {"kind": "member", "set_kind": "any", "order": 0},
    ],
)
def test_edge_with_a_field_its_kind_does_not_carry_raises(fields):
    """A role off ``has``, a set kind off ``member`` or an order off a seq
    member would be dropped by ``dumps``, so ``add_edge`` refuses it, and
    the live edges and their loaded copy stay equal."""
    store = GraphStore()
    a, b = store.add_thing("generic"), store.add_thing("generic")
    store.add_edge(Edge("is", a, b))
    with pytest.raises(GraphError, match="carries a field its kind does not"):
        store.add_edge(Edge(src=a, dst=b, **fields))
    assert store.edges() == [Edge("is", a, b)]
    assert GraphStore.loads(store.dumps()).edges() == store.edges()


# -- dropping the mined layer ------------------------------------------------------


def test_drop_mined_on_a_never_mined_store_changes_nothing():
    store = _random_store(random.Random(5), nodes=100)
    before = (store.dumps(), store._next_id)
    store.drop_mined()
    assert (store.dumps(), store._next_id) == before
    assert store.add_thing("generic") == before[1]


def test_drop_mined_removes_mined_things_edges_and_spans():
    """What is left equals the store built without the mined things, seq
    orders close up over a dropped member, and ids are handed out again
    from the largest kept one."""

    def build(mined: bool) -> GraphStore:
        store = GraphStore()
        app = store.add_thing("appearance", "a")
        events = [store.add_thing("event", times=TimeSpec.point(t)) for t in (1, 2)]
        process = store.add_thing("process", "p")
        if mined:
            coin = store.add_thing(
                "coincidence", "c", {"origin": "cluster_events"}, times=TimeSpec.point(1)
            )
            sit = store.add_thing("situation", "s", {"origin": "unify_situations"})
            store.add_edge(Edge("member", coin, events[0], set_kind="and"))
            store.add_edge(Edge("is", coin, sit))
            store.add_edge(Edge("member", sit, app, set_kind="and"))
        store.add_edge(Edge("member", process, events[0], set_kind="seq"))
        if mined:
            store.add_edge(Edge("member", process, coin, set_kind="seq"))
        store.add_edge(Edge("member", process, events[1], set_kind="seq"))
        for event in events:
            store.add_edge(Edge("is", event, app))
        return store

    store, expected = build(mined=True), build(mined=False)
    store.drop_mined()
    assert store.dumps() == expected.dumps()
    assert store.edges() == expected.edges()
    assert store.things("coincidence") == store.things("situation") == []
    assert store.alive(0, 10) == expected.alive(0, 10)
    assert store.add_thing("generic") == expected.add_thing("generic")


def test_drop_mined_keeps_a_time_span_a_kept_thing_shares():
    body = _snapshot(
        [
            _node(1, "event"),
            _node(2, "coincidence", properties={"origin": "cluster_events"}),
        ],
        [{"kind": "times", "from": 1, "to": 3}, {"kind": "times", "from": 2, "to": 3}],
        [{"id": 3, "intervals": [[5, 5]]}],
    )
    store = GraphStore.loads(body)
    store.drop_mined()
    assert [t.id for t in store.things()] == [1]
    assert store.times_of(1) == TimeSpec.point(5)
    assert store.add_thing("generic") == 4
