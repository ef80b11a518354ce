"""Mining stages against worked examples and brute-force oracles."""

import dataclasses
import functools
import gc
import hashlib
import inspect
import json
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    CROSSWALK_DEFINITIONS,
    CROSSWALK_MIN_SUPPORT,
    add_coincidence,
    add_event,
    crosswalk_documents,
)
from oracles import (
    brute_maximal_chains,
    frequent_prefixes,
    powerset_closed_itemsets,
    scan_forks,
    scan_trigger_presence,
    tickset_components,
)
from scenamine.definitions import parse_definitions
from scenamine import mining
from scenamine.graph import Edge, GraphStore, TimeSpec
from scenamine.matching import Document, extract_events
from scenamine.patterns import parse_pattern, render_pattern
from scenamine.tokens import tokenize
from scenamine.mining import (
    MiningConfig,
    MiningStageError,
    Trigger,
    chain_coincidences,
    cluster_events,
    detect_forks,
    differentiate_actors,
    differentiate_triggers,
    run_pipeline,
    scope_roles,
    unify_appearances,
    unify_scenarios,
    unify_situations,
)


# -- role scoping -------------------------------------------------------------


def test_scope_roles_stoplight():
    store = GraphStore()
    defs = parse_definitions(
        'There name stoplight patterns "light turned $color", has color.'
    )
    for tick, color in enumerate(["red", "green", "yellow", "red"], start=1):
        extract_events(store, defs, Document(f"light turned {color}", "cam", tick))
    extracted = store.dumps()
    domains = scope_roles(differentiate_actors(store)[0])
    (app,) = store.find_by_name("appearance", "stoplight")
    assert list(domains) == [(app, "color")]
    assert sorted(store.thing(a).name for a in domains[(app, "color")]) == [
        "green", "red", "yellow"
    ]
    assert store.dumps() == extracted  # role scoping writes nothing


def test_scope_roles_singleton():
    store = GraphStore()
    defs = parse_definitions('There name x patterns "saw $who", has who.')
    extract_events(store, defs, Document("saw mary", "u", 1))
    (app,) = store.find_by_name("appearance", "x")
    (mary,) = store.find_by_name("actor", "mary")
    assert scope_roles(differentiate_actors(store)[0]) == {(app, "who"): [mary]}


def test_scope_roles_matches_group_by_oracle():
    rng = random.Random(31)
    store = GraphStore()
    apps = [store.add_thing("appearance", f"app{i}") for i in range(4)]
    actors = [store.add_thing("actor", f"actor{i}") for i in range(8)]
    roles = ["r1", "r2"]
    expected: dict = {}
    for n in range(50):
        app = rng.choice(apps)
        bound = {r: rng.choice(actors) for r in rng.sample(roles, rng.randint(1, 2))}
        add_event(store, app, n, actors=bound)
        for role, actor in bound.items():
            expected.setdefault((app, role), set()).add(actor)
    assert scope_roles(differentiate_actors(store)[0]) == {
        pair: sorted(actor_ids) for pair, actor_ids in sorted(expected.items())
    }


def test_scope_roles_idempotent():
    store = GraphStore()
    defs = parse_definitions('There name x patterns "saw $who", has who.')
    extract_events(store, defs, Document("saw mary", "u", 1))
    first = scope_roles(differentiate_actors(store)[0])
    second = scope_roles(differentiate_actors(store)[0])
    assert first == second


# -- actor differentiation ---------------------------------------------------


def _cleaning_store():
    store = GraphStore()
    defs = parse_definitions(
        'There name cleaning patterns "$cleaner cleans the window", has cleaner.'
    )
    for tick, who in enumerate(["mother", "father", "mother"], start=1):
        extract_events(store, defs, Document(f"{who} cleans the window", "cam", tick))
    return store


def test_differentiate_actors_mother_two_thirds():
    store = _cleaning_store()
    counts, best = differentiate_actors(store)
    (app,) = store.find_by_name("appearance", "cleaning")
    assert list(counts) == [(app, "cleaner")]
    by_actor = {store.thing(a).name: n for a, n in counts[(app, "cleaner")].items()}
    assert by_actor == {"mother": 2, "father": 1}  # out of 3 events
    assert len(list(store.things("event"))) == 3
    assert store.thing(best[(app, "cleaner")]).name == "mother"


def test_differentiate_single_event():
    store = GraphStore()
    defs = parse_definitions('There name x patterns "saw $who", has who.')
    extract_events(store, defs, Document("saw mary", "u", 1))
    (app,) = store.find_by_name("appearance", "x")
    (mary,) = store.find_by_name("actor", "mary")
    counts, best = differentiate_actors(store)
    assert counts == {(app, "who"): {mary: 1}}
    assert best == {(app, "who"): mary}


def test_differentiate_tie_breaks_on_first_occurrence():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    early = store.add_thing("actor", "zed")
    late = store.add_thing("actor", "amy")
    add_event(store, app, 1, actors={"r": early})
    add_event(store, app, 5, actors={"r": late})
    _, best = differentiate_actors(store)
    assert best[(app, "r")] == early


def test_differentiate_matches_counting_oracle():
    rng = random.Random(77)
    store = GraphStore()
    apps = [store.add_thing("appearance", f"a{i}") for i in range(3)]
    actors = [store.add_thing("actor", f"x{i}") for i in range(5)]
    expected: dict = {}
    for n in range(60):
        app = rng.choice(apps)
        actor = rng.choice(actors)
        add_event(store, app, n, actors={"r": actor})
        expected[(app, actor)] = expected.get((app, actor), 0) + 1
    counts, _ = differentiate_actors(store)
    assert {(app, actor): n for (app, _), bucket in counts.items() for actor, n in bucket.items()} == expected


def test_differentiate_and_scope_match_loops_over_random_worlds():
    """Events with one or two appearances and one to three roles, where an
    actor may fill two roles of one event or be named twice for one role,
    against plain loops over the event list.  Equal counts go to the
    earliest start, then the first name, then the lowest id; the worlds
    are built so that each of the three decides some pair."""
    roles = ["r1", "r2", "r3"]
    decided_by: set[str] = set()
    for seed in range(12):
        rng = random.Random(seed)
        store = GraphStore()
        apps = [store.add_thing("appearance", f"app{i}") for i in range(3)]
        # few names and ticks, so that counts, starts and names all tie
        actors = [store.add_thing("actor", rng.choice(["ann", "bob", "cy"])) for _ in range(6)]
        world = []  # (event, start, appearances, bindings with repeats)
        for _ in range(rng.randint(5, 25)):
            tick = rng.randint(0, 6)
            event_apps = sorted(rng.sample(apps, rng.randint(1, 2)))
            bound = {role: rng.choice(actors) for role in rng.sample(roles, rng.randint(1, 3))}
            if len(bound) > 1 and rng.random() < 0.5:  # one actor fills two roles
                first, second = rng.sample(sorted(bound), 2)
                bound[second] = bound[first]
            event = add_event(store, event_apps[0], tick, actors=bound)
            for app in event_apps[1:]:
                store.add_edge(Edge("is", event, app))
            bindings = list(bound.items())
            if rng.random() < 0.3:  # an actor named twice for one role
                bindings.append(rng.choice(bindings))
            world.append((event, tick, event_apps, bindings))

        expected: dict = {}
        first_start: dict = {}
        for app in apps:
            for role in roles:
                for actor in actors:
                    ticks = [tick for _, tick, event_apps, bindings in world
                             if app in event_apps and (role, actor) in bindings]
                    if ticks:
                        expected.setdefault((app, role), {})[actor] = len(ticks)
                        first_start[(app, role, actor)] = min(ticks)
        expected_best = {}
        for (app, role), filled in expected.items():
            tied = [a for a in filled if filled[a] == max(filled.values())]
            for level, key in (("start", lambda a: first_start[(app, role, a)]),
                               ("name", lambda a: store.thing(a).name),
                               ("id", lambda a: a)):
                if len(tied) > 1:
                    kept = [a for a in tied if key(a) == min(map(key, tied))]
                    if len(kept) < len(tied):
                        decided_by.add(level)
                    tied = kept
            expected_best[(app, role)] = tied[0]
        expected_domains = [(pair, sorted(filled)) for pair, filled in sorted(expected.items())]

        facts = mining.FactTable(store)
        facts.events = {event: (TimeSpec.point(tick), event_apps, bindings)
                        for event, tick, event_apps, bindings in world}
        for counts, best in (differentiate_actors(store), differentiate_actors(store, facts)):
            assert counts == expected
            assert best == expected_best
            assert list(scope_roles(counts).items()) == expected_domains
    assert decided_by == {"start", "name", "id"}


# -- appearance unification -----------------------------------------------------


def test_unify_appearances_pairwise():
    store = GraphStore()
    defs = parse_definitions(
        'There name cleaning patterns "$who cleans window", has who.'
    )
    extract_events(store, defs, Document("john cleans window", "u", 1))
    extract_events(store, defs, Document("mary cleans window", "u", 2))
    made = unify_appearances(store, 2)
    assert made == [("$x1 cleans window", 2, {"x1": ["john", "mary"]})]
    (app,) = store.find_by_name("appearance", "$x1 cleans window")
    assert [store.thing(r).name for r in store.neighbor_ids(app, "has")] == ["x1"]
    (specific,) = store.find_by_name("appearance", "cleaning")
    assert app in [e.dst for e in store.edges() if e.src == specific and e.kind == "is"]


def test_unify_appearances_identical_events_keep_literal_shape():
    store = GraphStore()
    defs = parse_definitions("There name ping.")
    extract_events(store, defs, Document("ping", "u", 1))
    extract_events(store, defs, Document("ping", "u", 2))
    made = unify_appearances(store, 2)
    assert made == [("ping", 2, {})]
    # the generalization is a new appearance of the same name, no self loop
    (extracted,) = [
        a for a in store.find_by_name("appearance", "ping")
        if "origin" not in store.thing(a).properties
    ]
    (general,) = [a for a in store.find_by_name("appearance", "ping") if a != extracted]
    assert store.neighbor_ids(extracted, "is") == [general]
    assert store.neighbor_ids(general, "is") == []


def test_unify_appearances_cleaner_does_not_matter():
    store = GraphStore()
    defs = parse_definitions(
        'There name cleaning patterns "$who wipes the window", has who.'
    )
    for tick, who in enumerate(["mother", "father", "service"], start=1):
        extract_events(store, defs, Document(f"{who} wipes the window", "u", tick))
    made = unify_appearances(store, 3)
    assert made == [("$x1 wipes the window", 3, {"x1": ["father", "mother", "service"]})]


def test_every_mined_pattern_parses_again():
    store = GraphStore()
    defs = parse_definitions('There name says patterns "$who says $what", has who, what.')
    extract_events(
        store, defs, Document("ann says it's red", "u", 1), Document("bob says it's blue", "u", 2)
    )
    run_pipeline(store, MiningConfig(min_support=2))
    mined = [t.properties["pattern"] for t in store.things("appearance") if "pattern" in t.properties]
    assert mined == ["$x1 says it", '$x1 says it "\'"', '$x1 says it "\'" s', '$x1 says it "\'" s $x2']
    for text in mined:
        assert render_pattern(parse_pattern(text)) == text


def test_unify_appearances_requires_anchor():
    store = GraphStore()
    app = store.add_thing("appearance", "misc")
    add_event(store, app, 1, text="aa bb")
    add_event(store, app, 2, text="aa cc")
    add_event(store, app, 3, text="dd cc")
    # chained sharing but no column common to all three: skipped
    assert unify_appearances(store, 2) == []


def test_unify_appearances_below_support():
    store = GraphStore()
    app = store.add_thing("appearance", "misc")
    add_event(store, app, 1, text="john cleans window")
    add_event(store, app, 2, text="mary cleans window")
    assert unify_appearances(store, 3) == []


def _pairwise_generalizations(texts, min_support):
    """Naive reference: join every pair of equal-length texts sharing a
    column token, then keep anchored components with enough support."""
    by_len: dict = {}
    for event_id, toks in texts:
        by_len.setdefault(len(toks), []).append((event_id, toks))
    made = []
    for length in sorted(by_len):
        group = by_len[length]
        parent = {event_id: event_id for event_id, _ in group}

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i, (a, ta) in enumerate(group):
            for b, tb in group[i + 1:]:
                if any(x == y for x, y in zip(ta, tb)):
                    ra, rb = root(a), root(b)
                    parent[max(ra, rb)] = min(ra, rb)
        components: dict = {}
        for event_id, toks in group:
            components.setdefault(root(event_id), []).append(toks)
        for _, rows in sorted(components.items()):
            columns = [sorted({toks[k] for toks in rows}) for k in range(length)]
            if len(rows) < min_support or not any(len(c) == 1 for c in columns):
                continue
            parts, domains = [], {}
            for col in columns:
                if len(col) == 1:
                    parts.append(col[0])
                else:
                    var = f"x{len(domains) + 1}"
                    parts.append(f"${var}")
                    domains[var] = col
            made.append((" ".join(parts), len(rows), domains))
    return made


def test_unify_appearances_matches_pairwise_union_find():
    rng = random.Random(606)
    vocab = ["aa", "bb", "cc", "dd", "ee", "ff", "BB", "ñu"]
    for case in range(60):
        store = GraphStore()
        app = store.add_thing("appearance", "misc")
        texts = []
        for tick in range(rng.randint(1, 25)):
            toks = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            norms = tuple(tok.lower() for tok in toks)
            texts.append((add_event(store, app, tick, text=" ".join(toks)), norms))
        min_support = rng.randint(1, 4)
        made = unify_appearances(store, min_support)
        expected = _pairwise_generalizations(texts, min_support)
        assert made == expected
        generalized = [
            t.name
            for t in store.things("appearance")
            if t.properties.get("origin") == "unify_appearances"
        ]
        assert sorted(generalized) == sorted(name for name, _, _ in expected)
        for name, _, domains in expected:
            (gen,) = store.find_by_name("appearance", name)
            roles = store.neighbor_ids(gen, "has", node_kind="role")
            assert [store.thing(r).name for r in roles] == list(domains)


def _same_norms(text):
    assert mining._norms(text) == tuple(t.norm for t in tokenize(text)), ascii(text)


def test_norm_scan_equals_tokenize_on_every_code_point():
    _same_norms("".join(map(chr, range(128))))  # the one-scan path
    chunk = 1 << 12
    for lo in range(0, sys.maxunicode + 1, chunk):
        _same_norms("".join(map(chr, range(lo, lo + chunk))))


_ASCII_PIECES = ["12.5", "1.2.3", ".5", "5.", "...", "?!-", "a_b", "Ab", "cD", "EFG", "x", "0",
                 " ", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_ASCII_PIECES) | st.text(alphabet="aQz09._$! \x0b\x1c\x1f", max_size=6),
                max_size=12))
def test_norm_scan_equals_tokenize_on_ascii_texts(pieces):
    text = "".join(pieces)
    assert text.isascii()
    _same_norms(text)


# -- event clustering ------------------------------------------------------------


def _partition(store):
    return sorted(
        sorted(store.member_children(c.id, "and"))
        for c in store.things("coincidence")
    )


def test_cluster_red_light_and_crossing():
    store = GraphStore()
    light = store.add_thing("appearance", "red light")
    cross = store.add_thing("appearance", "car crossing")
    e1 = add_event(store, light, 7)
    e2 = add_event(store, cross, 7)
    cluster_events(store, 1)
    assert _partition(store) == [[e1, e2]]
    (coin,) = store.things("coincidence")
    assert store.times_of(coin.id) == TimeSpec(((7, 7),))


def test_cluster_far_apart_events_stay_separate():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    e1 = add_event(store, app, 0)
    e2 = add_event(store, app, 10)
    cluster_events(store, 1)
    assert _partition(store) == [[e1], [e2]]


def test_adjacent_ticks_separate_at_default_window():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    e1 = add_event(store, app, 1)
    e2 = add_event(store, app, 2)
    cluster_events(store, 1)
    assert _partition(store) == [[e1], [e2]]


def test_wider_window_merges_neighbours():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    e1 = add_event(store, app, 1)
    e2 = add_event(store, app, 2)
    cluster_events(store, 2)
    assert _partition(store) == [[e1, e2]]


def test_cluster_matches_components_oracle():
    rng = random.Random(123)
    for case in range(60):
        store = GraphStore()
        app = store.add_thing("appearance", "a")
        window = rng.randint(0, 3)
        spans = []
        for _ in range(rng.randint(1, 20)):
            intervals = []
            for _ in range(rng.randint(1, 3)):
                start = rng.randrange(0, 40)
                intervals.append((start, start + rng.randrange(0, 3)))
            spans.append(tuple(intervals))
        events = []
        for intervals in spans:
            event = store.add_thing("event", times=TimeSpec(intervals))
            store.add_edge(Edge("is", event, app))
            events.append(event)
        cluster_events(store, window)
        expected = tickset_components(list(zip(events, spans)), window)
        assert _partition(store) == expected


# -- situation unification ---------------------------------------------------------


def _build_coincidences(store, rows):
    """rows: list of lists of appearance names; returns name->app id map."""
    apps: dict = {}
    tick = 0
    for row in rows:
        events = []
        for name in row:
            if name not in apps:
                apps[name] = store.add_thing("appearance", name)
            events.append(add_event(store, apps[name], tick))
        add_coincidence(store, events)
        tick += 10
    return apps


def _situations(store):
    out = {}
    for s in store.things("situation"):
        items = frozenset(store.member_children(s.id, "and"))
        support = sum(
            1
            for e in store.in_edges(s.id)
            if e.kind == "is" and store.thing(e.src).kind == "coincidence"
        )
        out[items] = support
    return out


def test_window_cleaning_situation():
    store = GraphStore()
    rows = [["window-cleaned", "parent-busy", "no-games"]] * 5 + [["tv-on"]]
    apps = _build_coincidences(store, rows)
    unify_situations(store, 2)
    triple = frozenset(
        [apps["window-cleaned"], apps["parent-busy"], apps["no-games"]]
    )
    assert _situations(store)[triple] == 5


def test_all_distinct_coincidences_make_no_situations():
    store = GraphStore()
    _build_coincidences(store, [["a"], ["b"], ["c"]])
    unify_situations(store, 2)
    assert store.things("situation") == []


def test_situations_match_powerset_oracle():
    rng = random.Random(55)
    for case in range(40):
        store = GraphStore()
        classes = [f"k{i}" for i in range(rng.randint(2, 10))]
        rows = [
            rng.sample(classes, rng.randint(1, len(classes)))
            for _ in range(rng.randint(1, 20))
        ]
        min_support = rng.randint(1, 4)
        apps = _build_coincidences(store, rows)
        unify_situations(store, min_support)
        itemsets = [frozenset(apps[n] for n in row) for row in rows]
        expected = powerset_closed_itemsets(itemsets, min_support)
        assert _situations(store) == expected
        coincidences = [c.id for c in store.things("coincidence")]
        for s in store.things("situation"):
            items = frozenset(store.member_children(s.id, "and"))
            holders = [c for c, row in zip(coincidences, itemsets) if row >= items]
            assert store.neighbors(s.id, "is", "in").ids() == holders


def test_wide_identical_coincidences_make_one_situation_fast():
    store = GraphStore()
    row = [f"k{i}" for i in range(16)]
    apps = _build_coincidences(store, [row, row])
    started = time.perf_counter()
    unify_situations(store, 2)
    assert time.perf_counter() - started < 1.0
    assert _situations(store) == {frozenset(apps.values()): 2}


def _seven_of_eight_rows():
    """Every nonempty proper subset of 8 classes is closed: 254 situations."""
    classes = [f"k{i}" for i in range(8)]
    return [[c for c in classes if c != left_out] for left_out in classes]


def test_situations_up_to_the_limit_are_built(monkeypatch):
    monkeypatch.setattr(mining, "MAX_SITUATIONS", 254)
    store = GraphStore()
    _build_coincidences(store, _seven_of_eight_rows())
    assert unify_situations(store, 1) == {"situations": 254}


def test_too_many_situations_fail_before_any_is_built(monkeypatch):
    monkeypatch.setattr(mining, "MAX_SITUATIONS", 253)
    store = GraphStore()
    _build_coincidences(store, _seven_of_eight_rows())
    with pytest.raises(ValueError, match="more than 253 closed situations"):
        unify_situations(store, 1)
    assert store.things("situation") == []


# -- coincidence chaining -------------------------------------------------------


def _processes(store):
    return {
        tuple(store.member_children(p.id, "seq")) for p in store.things("process")
    }


def test_window_cleaning_process_chain():
    store = GraphStore()
    john = store.add_thing("actor", "john doe")
    dirty = store.add_thing("appearance", "window dirty")
    cleaning = store.add_thing("appearance", "cleaning")
    clean = store.add_thing("appearance", "window clean")
    c1 = add_coincidence(store, [add_event(store, dirty, 1, actors={"subject": john})])
    c2 = add_coincidence(store, [add_event(store, cleaning, 2, actors={"cleaner": john})])
    c3 = add_coincidence(store, [add_event(store, clean, 3, actors={"subject": john})])
    chain_coincidences(store, MiningConfig())
    assert _processes(store) == {(c1, c2, c3)}


def test_chain_requires_shared_actor():
    store = GraphStore()
    a = store.add_thing("actor", "a")
    b = store.add_thing("actor", "b")
    app = store.add_thing("appearance", "x")
    c1 = add_coincidence(store, [add_event(store, app, 1, actors={"r": a})])
    c2 = add_coincidence(store, [add_event(store, app, 2, actors={"r": b})])
    chain_coincidences(store, MiningConfig())
    assert _processes(store) == set()
    chain_coincidences(store, MiningConfig(chain_requires_shared_actor=False))
    assert _processes(store) == {(c1, c2)}


def test_chain_gap_limit():
    store = GraphStore()
    app = store.add_thing("appearance", "x")
    c1 = add_coincidence(store, [add_event(store, app, 1)])
    c2 = add_coincidence(store, [add_event(store, app, 4)])
    chain_coincidences(store, MiningConfig(chain_requires_shared_actor=False))
    assert _processes(store) == set()
    chain_coincidences(
        store, MiningConfig(chain_requires_shared_actor=False, chain_max_gap=3)
    )
    assert _processes(store) == {(c1, c2)}


def test_process_steps_strictly_increase_in_time():
    rng = random.Random(505)
    store = GraphStore()
    app = store.add_thing("appearance", "x")
    for _ in range(15):
        start = rng.randrange(0, 12)
        add_coincidence(store, [add_event(store, app, start)])
    chain_coincidences(store, MiningConfig(chain_requires_shared_actor=False, chain_max_gap=2))
    for path in _processes(store):
        starts = [store.times_of(c).start for c in path]
        assert starts == sorted(set(starts))


def test_chains_match_brute_force_oracle():
    rng = random.Random(404)
    for case in range(60):
        store = GraphStore()
        app = store.add_thing("appearance", "x")
        actor_pool = [store.add_thing("actor", f"a{i}") for i in range(4)]
        max_gap = rng.randint(1, 3)
        shared = rng.random() < 0.5
        coins = []
        for _ in range(rng.randint(2, 9)):
            start = rng.randrange(0, 10)
            end = start + rng.choice([0, 0, 1, 2, 3])
            chosen = rng.sample(actor_pool, rng.randint(1, 2))
            event = add_event(
                store, app, (start, end), actors={f"r{i}": a for i, a in enumerate(chosen)}
            )
            cid = add_coincidence(store, [event])
            coins.append((cid, start, end, frozenset(chosen)))
        cfg = MiningConfig(chain_max_gap=max_gap, chain_requires_shared_actor=shared)
        chain_coincidences(store, cfg)
        assert _processes(store) == brute_maximal_chains(coins, max_gap, shared)


def test_chain_count_over_limit_fails_before_building():
    # one actor at 30 consecutive ticks with gap 2: Fibonacci(30) = 832,040 chains
    store = GraphStore()
    actor = store.add_thing("actor", "a")
    app = store.add_thing("appearance", "x")
    for tick in range(30):
        add_event(store, app, tick, actors={"r": actor})
    began = time.perf_counter()
    with pytest.raises(MiningStageError, match="832040 maximal chains") as err:
        run_pipeline(store, MiningConfig(chain_max_gap=2))
    assert time.perf_counter() - began < 1.0
    assert err.value.stage == "chain_coincidences"
    assert store.things("process") == []


def _one_actor_at_every_tick(ticks: int) -> GraphStore:
    store = GraphStore()
    actor = store.add_thing("actor", "a")
    app = store.add_thing("appearance", "x")
    for tick in range(ticks):
        add_event(store, app, tick, actors={"r": actor})
    return store


def test_a_long_process_mines_with_its_chain_and_tree_walk():
    """1,500 consecutive ticks of one actor make one process 1,500 steps
    long, deeper than the default recursion limit: chaining and the fork
    walk must not recurse once per step."""
    store = _one_actor_at_every_tick(1500)
    report = run_pipeline(store, MiningConfig(min_support=2))
    assert report.stages["chain_coincidences"] == {"processes": 1}
    assert len(store.member_children(store.things("process")[0].id, "seq")) == 1500
    assert report.stages["unify_scenarios"] == {"scenarios": 0}
    assert report.forks == []


def test_chaining_a_long_process_holds_only_the_chains_from_starts():
    """Chains grow from chain starts only, so one process of 2,000 steps
    does not keep the chain from every one of its coincidences."""
    store = _one_actor_at_every_tick(2000)
    cluster_events(store, 1)
    tracemalloc.start()
    try:
        stats = chain_coincidences(store, MiningConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats == {"processes": 1}
    assert len(store.member_children(store.things("process")[0].id, "seq")) == 2000
    assert peak < 5 * 2**20, f"peak {peak} bytes"


def test_a_long_process_at_support_one_makes_every_prefix_a_scenario():
    """At ``min_support=1`` each of the 200 prefixes of the one process is
    a scenario.  Scenario edges grow with the square of the length, so the
    chain is short and the recursion limit is lowered to 100 frames above
    the caller's depth: materializing must not recurse once per step."""
    store = _one_actor_at_every_tick(200)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        report = run_pipeline(store, MiningConfig(min_support=1))
    finally:
        sys.setrecursionlimit(limit)
    assert report.stages["chain_coincidences"] == {"processes": 1}
    assert report.stages["unify_scenarios"] == {"scenarios": 200}
    assert [len(path) for path, _ in report.model.scenarios] == list(range(1, 201))


# -- scenario unification -----------------------------------------------------------


def _lay_processes(store, sequences):
    """Build processes whose coincidences map one-to-one onto situations."""
    situations: dict = {}
    app_for: dict = {}
    for seq in sequences:
        for label in seq:
            if label not in situations:
                app_for[label] = store.add_thing("appearance", f"app-{label}")
                situations[label] = store.add_thing("situation", f"sit-{label}")
                store.add_edge(
                    Edge("member", situations[label], app_for[label], set_kind="and")
                )
    tick = 0
    for seq in sequences:
        process = store.add_thing("process", f"proc@{tick}")
        for label in seq:
            event = add_event(store, app_for[label], tick)
            cid = add_coincidence(store, [event])
            store.add_edge(Edge("is", cid, situations[label]))
            store.add_edge(Edge("member", process, cid, set_kind="seq"))
            tick += 1
        tick += 10
    return situations


def _scenarios(store):
    out = {}
    for o in store.things("scenario"):
        path = tuple(store.member_children(o.id, "seq"))
        support = sum(
            1
            for e in store.in_edges(o.id)
            if e.kind == "is" and store.thing(e.src).kind == "process"
        )
        out[path] = support
    return out


def test_ten_identical_processes_one_scenario_path():
    store = GraphStore()
    sits = _lay_processes(store, [("dirty", "cleaning", "clean")] * 10)
    model, _ = unify_scenarios(store, 2)
    path = tuple(sits[l] for l in ("dirty", "cleaning", "clean"))
    got = _scenarios(store)
    assert got[path] == 10
    assert set(got) == {path[:1], path[:2], path}


def test_the_prefix_tree_constructs_only_the_nodes_it_keeps(monkeypatch):
    """On the 200-run crosswalk each prefix-tree node is constructed once:
    a step that reaches an existing child builds no throwaway node."""
    built = []
    init = mining.TreeNode.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(mining.TreeNode, "__init__", counted)
    report = run_pipeline(_crosswalk_store(), MiningConfig(min_support=CROSSWALK_MIN_SUPPORT))
    nodes, stack = [], [report.model.root]
    while stack:
        nodes.append(stack.pop())
        stack.extend(nodes[-1].children.values())
    assert len(built) == len(nodes) == 5


def test_single_process_below_support():
    store = GraphStore()
    _lay_processes(store, [("a", "b")])
    unify_scenarios(store, 2)
    assert store.things("scenario") == []


def test_scenarios_match_prefix_oracle():
    rng = random.Random(606)
    for case in range(40):
        store = GraphStore()
        labels = [f"s{i}" for i in range(rng.randint(1, 5))]
        sequences = [
            tuple(rng.choices(labels, k=rng.randint(1, 5)))
            for _ in range(rng.randint(1, 20))
        ]
        min_support = rng.randint(1, 3)
        sits = _lay_processes(store, sequences)
        model, _ = unify_scenarios(store, min_support)
        expected = {
            tuple(sits[l] for l in prefix): count
            for prefix, count in frequent_prefixes(
                sequences, min_support
            ).items()
        }
        assert _scenarios(store) == expected


def test_lifting_picks_most_specific_situation():
    store = GraphStore()
    a1 = store.add_thing("appearance", "a1")
    a2 = store.add_thing("appearance", "a2")
    small = store.add_thing("situation", "small")
    store.add_edge(Edge("member", small, a1, set_kind="and"))
    big = store.add_thing("situation", "big")
    for a in (a1, a2):
        store.add_edge(Edge("member", big, a, set_kind="and"))
    event = add_event(store, a1, 0)
    coin = add_coincidence(store, [event])
    store.add_edge(Edge("is", coin, small))
    store.add_edge(Edge("is", coin, big))
    process = store.add_thing("process", "p")
    store.add_edge(Edge("member", process, coin, set_kind="seq"))
    model, _ = unify_scenarios(store, 1)
    assert [s for _, s in model.lifted[process]] == [big]


def test_unlifted_coincidences_are_skipped():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    sit = store.add_thing("situation", "s")
    store.add_edge(Edge("member", sit, app, set_kind="and"))
    c1 = add_coincidence(store, [add_event(store, app, 0)])
    store.add_edge(Edge("is", c1, sit))
    c2 = add_coincidence(store, [add_event(store, app, 1)])  # no situation
    c3 = add_coincidence(store, [add_event(store, app, 2)])
    store.add_edge(Edge("is", c3, sit))
    process = store.add_thing("process", "p")
    for c in (c1, c2, c3):
        store.add_edge(Edge("member", process, c, set_kind="seq"))
    model, _ = unify_scenarios(store, 1)
    assert [s for _, s in model.lifted[process]] == [sit, sit]


# -- fork detection -------------------------------------------------------------


def _model_for(store, sequences):
    _lay_processes(store, sequences)
    model, _ = unify_scenarios(store, 1)
    return model


def test_even_split_is_a_fork():
    store = GraphStore()
    seqs = [("enter", "safe")] * 5 + [("enter", "injury")] * 5
    model = _model_for(store, seqs)
    forks = detect_forks(model, 0.2)
    assert len(forks) == 1
    (fork,) = forks
    assert len(fork.prefix) == 1
    assert sorted(p for _, p in fork.branches) == [0.5, 0.5]


def test_lopsided_split_is_not_a_fork():
    store = GraphStore()
    seqs = [("enter", "safe")] * 9 + [("enter", "injury")]
    model = _model_for(store, seqs)
    assert detect_forks(model, 0.2) == []


def test_forks_match_node_scan_oracle():
    rng = random.Random(808)
    for case in range(40):
        store = GraphStore()
        labels = [f"s{i}" for i in range(rng.randint(2, 5))]
        sequences = [
            tuple(rng.choices(labels, k=rng.randint(1, 4)))
            for _ in range(rng.randint(2, 20))
        ]
        epsilon = rng.choice([0.0, 0.2, 0.5, 1.0])
        sits = _lay_processes(store, sequences)
        model, _ = unify_scenarios(store, 1)
        label_of = {v: k for k, v in sits.items()}
        got = sorted(
            (
                tuple(label_of[s] for s in fork.prefix),
                tuple(sorted((label_of[s], p) for s, p in fork.branches)),
            )
            for fork in detect_forks(model, epsilon)
        )
        assert got == scan_forks(sequences, epsilon)


# -- trigger differentiation -------------------------------------------------------


def _toy_window_store():
    """Window cleaning diverted by a thrown toy: the toy event rides along
    one of the two prefix steps and flips the outcome.  Splitting its
    co-occurrence between the steps keeps the pair combinations below the
    support threshold, so the toy stays outside the lifted situations."""
    store = GraphStore()
    defs = parse_definitions(
        "There name dirty patterns \"window $state dirty\", has state. "
        "There name cleaning patterns \"cleaning $tool begins\", has tool. "
        "There name toy-thrown patterns \"toy thrown\". "
        "There name clean patterns \"window $state clean\", has state. "
        "There name smashed patterns \"window $state smashed\", has state."
    )
    docs = []
    toy_runs = [0, 3, 6, 9]
    for run in range(12):
        base = run * 10
        wetness = f"w{run}"
        toy = run in toy_runs
        docs.append(Document(f"window {wetness} dirty", f"run{run}", base))
        docs.append(Document(f"cleaning {wetness} begins", f"run{run}", base + 1))
        if toy:
            offset = 0 if toy_runs.index(run) % 2 == 0 else 1
            docs.append(Document("toy thrown", f"run{run}", base + offset))
        outcome = "smashed" if toy else "clean"
        docs.append(Document(f"window {wetness} {outcome}", f"run{run}", base + 2))
    for doc in docs:
        extract_events(store, defs, doc)
    return store


def test_toy_thrown_is_the_trigger():
    store = _toy_window_store()
    cfg = MiningConfig(min_support=3, fork_epsilon=0.5)
    report = run_pipeline(store, cfg)
    assert len(report.forks) == 1
    fork = report.forks[0]
    # 8 clean vs 4 smashed after [dirty, cleaning]
    assert len(fork.prefix) == 2
    assert sorted(round(p, 4) for _, p in fork.branches) == [
        round(1 / 3, 4),
        round(2 / 3, 4),
    ]
    assert report.triggers, "expected the thrown toy to register"
    top = report.triggers[0]
    assert store.thing(top.thing).name == "toy-thrown"
    # P(smashed | toy) = 1 vs base 1/3
    assert top.score == pytest.approx(2 / 3)
    assert top.support == 4


def test_uniform_presence_is_not_a_trigger():
    store = GraphStore()
    defs = parse_definitions(
        "There name step-one. There name hum. There name left. There name right."
    )
    for run in range(10):
        base = run * 10
        extract_events(store, defs, Document("step one", f"r{run}", base))
        extract_events(store, defs, Document("hum", f"r{run}", base))
        side = "left" if run % 2 == 0 else "right"
        extract_events(store, defs, Document(side, f"r{run}", base + 1))
    cfg = MiningConfig(
        min_support=2, fork_epsilon=0.2, chain_requires_shared_actor=False
    )
    report = run_pipeline(store, cfg)
    assert len(report.forks) == 1
    hum_ids = set(store.find_by_name("appearance", "hum"))
    assert all(t.thing not in hum_ids for t in report.triggers)


def test_trigger_counting_matches_hand_computation():
    store = _toy_window_store()
    cfg = MiningConfig(min_support=3, fork_epsilon=0.5)
    report = run_pipeline(store, cfg)
    top = report.triggers[0]
    # toy present in 4 processes, all smashed; base distribution (2/3, 1/3)
    shifted = dict(zip([s for s, _ in report.forks[0].branches], top.shifted))
    smashed_sit = next(
        s.id for s in store.things("situation") if "smashed" in (s.name or "")
    )
    assert shifted[smashed_sit] == pytest.approx(1.0)


def test_trigger_candidate_below_support_is_dropped():
    """A bird sings before the branch step in two toy runs only: it shifts
    the branch distribution as the toy does, but its two processes are
    below min_support 3, so it is no trigger.  With min_support 2 in the
    trigger stage alone it would be one."""
    store = _toy_window_store()
    defs = parse_definitions('There name bird-sings patterns "bird sings".')
    for run in (0, 3):
        extract_events(store, defs, Document("bird sings", f"run{run}", run * 10))
    cfg = MiningConfig(min_support=3, fork_epsilon=0.5)
    report = run_pipeline(store, cfg)
    (bird,) = store.find_by_name("appearance", "bird-sings")
    assert store.thing(report.triggers[0].thing).name == "toy-thrown"
    assert bird not in {t.thing for t in report.triggers}
    lowered = differentiate_triggers(store, report.model, report.forks, dataclasses.replace(cfg, min_support=2))
    (candidate,) = [t for t in lowered if t.thing == bird]
    assert candidate.support == 2 and candidate.score >= cfg.trigger_min_shift


def _random_trigger_world(rng: random.Random) -> GraphStore:
    """Five to seven runs, 30 events at most: someone starts, goes on and
    turns left or right, with up to two noise events at any of the three
    steps, the branch step too; noise before the branch step makes a right
    turn likelier."""
    store = GraphStore()
    apps = {name: store.add_thing("appearance", name) for name in ("start", "mid", "left", "right", "n0", "n1")}
    actors = [store.add_thing("actor", name) for name in ("ann", "bob", "cy")]
    tick = events = 0
    for _ in range(rng.randint(5, 7)):
        actor = rng.choice(actors)
        noise = [(rng.randint(0, 2), rng.choice(["n0", "n1"])) for _ in range(rng.randint(0, 2))]
        noise = noise[: max(0, 27 - events)]
        early = any(offset < 2 for offset, _ in noise)
        turn = "right" if rng.random() < (0.8 if early else 0.3) else "left"
        for offset, name in [(0, "start"), (1, "mid"), (2, turn), *noise]:
            event = store.add_thing("event", times=TimeSpec.point(tick + offset))
            store.add_edge(Edge("is", event, apps[name]))
            who = actor if name not in ("n0", "n1") or rng.random() < 0.8 else rng.choice(actors)
            store.add_edge(Edge("has", event, who, role="who"))
            events += 1
        tick += rng.randint(5, 8)
    return store


def _presence_steps(store: GraphStore, lifted: dict) -> dict:
    """Each process's coincidences in order as (the situation it lifts to or
    None, the things present at it), read off ``edges()``: the appearances
    of its events that its situation leaves out, and the other situations
    it is."""
    edges, kind = store.edges(), {t.id: t.kind for t in store.things()}

    def ends(src, edge_kind, node_kind=None, set_kind=None):
        return [e.dst for e in edges if e.src == src and e.kind == edge_kind
                and (node_kind is None or kind[e.dst] == node_kind) and (set_kind is None or e.set_kind == set_kind)]

    steps = {}
    for process in store.kind_ids("process"):
        coincidences = [e.dst for e in sorted((e for e in edges if e.src == process and e.set_kind == "seq"),
                                              key=lambda e: e.order)]
        situation_of = dict(lifted[process])
        steps[process] = []
        for coincidence in coincidences:
            situation = situation_of.get(coincidence)
            covered = set(ends(situation, "member", set_kind="and")) if situation is not None else set()
            present = {app for event in ends(coincidence, "member", "event", "and")
                       for app in ends(event, "is", "appearance") if app not in covered}
            present |= {other for other in ends(coincidence, "is", "situation") if other != situation}
            steps[process].append((situation, present))
    return steps


def test_triggers_match_a_presence_count_over_random_worlds():
    """Every field of every trigger, and every fork's branches, equal the
    plain-loop presence count of ``scan_trigger_presence`` over small random
    worlds, with the situation each coincidence lifts to taken from the
    scenario model and everything present read off the graph's edges."""
    rng = random.Random(7)
    forks = triggers = at_threshold = 0
    for _ in range(40):
        store = _random_trigger_world(rng)
        assert len(store.things("event")) <= 30
        cfg = MiningConfig(
            chain_max_gap=rng.randint(1, 2),
            chain_requires_shared_actor=rng.random() < 0.7,
            min_support=rng.randint(2, 3),
            fork_epsilon=rng.choice([0.5, 1.0]),
            trigger_min_shift=rng.choice([0.1, 0.2, 0.3]),
        )
        report = run_pipeline(store, cfg)
        steps = _presence_steps(store, report.model.lifted)
        expected = []
        for index, fork in enumerate(report.forks):
            branches, base, found = scan_trigger_presence(steps, fork.prefix, cfg.min_support, cfg.trigger_min_shift)
            assert fork.branches == list(zip(branches, base))
            expected += sorted((Trigger(index, thing, score, support, base, shifted)
                                for thing, score, support, shifted in found),
                               key=lambda t: (-t.score, -t.support, store.thing(t.thing).name or "", t.thing))
        assert report.triggers == expected
        forks += len(report.forks)
        triggers += len(expected)
        at_threshold += sum(t.support == cfg.min_support for t in expected)
    assert forks >= 40 and triggers >= 20 and 5 <= at_threshold < triggers, (forks, triggers, at_threshold)


# -- the pipeline ----------------------------------------------------------------


def test_empty_graph_empty_report():
    store = GraphStore()
    report = run_pipeline(store, MiningConfig())
    assert report.forks == [] and report.triggers == []
    assert all(
        count == 0 for stats in report.stages.values() for count in stats.values()
    )
    assert store.things() == []


def test_pipeline_is_idempotent():
    store = _toy_window_store()
    cfg = MiningConfig(min_support=3, fork_epsilon=0.5)
    first = run_pipeline(store, cfg)
    node_count = len(store.things())
    edge_count = len(store.edges())
    second = run_pipeline(store, cfg)
    assert len(store.things()) == node_count
    assert len(store.edges()) == edge_count
    assert first.stages == second.stages
    assert first.to_json_dict(store) == second.to_json_dict(store)


def _report_and_snapshot(store, cfg) -> tuple[str, str]:
    report = run_pipeline(store, cfg)
    return json.dumps(report.to_json_dict(store), sort_keys=True), store.dumps()


@functools.cache
def _crosswalk_docs() -> list[Document]:
    return [Document(d["text"], d["source"], d["time"]) for d in crosswalk_documents()]


@functools.cache
def _crosswalk_mined_at_once() -> tuple[str, str]:
    store = GraphStore()
    defs = parse_definitions(CROSSWALK_DEFINITIONS)
    for doc in _crosswalk_docs():
        extract_events(store, defs, doc)
    return _report_and_snapshot(store, MiningConfig(min_support=CROSSWALK_MIN_SUPPORT))


def _crosswalk_extract_mine_dump_load() -> None:
    store = GraphStore()
    extract_events(store, parse_definitions(CROSSWALK_DEFINITIONS), *_crosswalk_docs())
    report = run_pipeline(store, MiningConfig(min_support=CROSSWALK_MIN_SUPPORT))
    report.to_json_dict(store)
    GraphStore.loads(store.dumps())


def test_extract_mine_dump_and_load_leave_no_reference_cycles():
    """With the cyclic collector off, everything a crosswalk extract, mine,
    report, dump and load made is freed by reference counting alone."""
    _crosswalk_extract_mine_dump_load()  # one-time import garbage is not counted
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _crosswalk_extract_mine_dump_load()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, len(_crosswalk_docs())))
def test_mining_again_after_new_events_equals_mining_them_all(cut):
    """Extract the crosswalk corpus up to a cut, mine, extract the rest and
    mine again: the report and the snapshot equal one mine over it all."""
    store = GraphStore()
    defs = parse_definitions(CROSSWALK_DEFINITIONS)
    cfg = MiningConfig(min_support=CROSSWALK_MIN_SUPPORT)
    docs = _crosswalk_docs()
    for doc in docs[:cut]:
        extract_events(store, defs, doc)
    run_pipeline(store, cfg)
    for doc in docs[cut:]:
        extract_events(store, defs, doc)
    assert _report_and_snapshot(store, cfg) == _crosswalk_mined_at_once()


def test_mined_snapshot_holds_no_domain_set_or_key():
    _, snapshot = _crosswalk_mined_at_once()
    things = json.loads(snapshot)["things"]
    assert [t for t in things if t["kind"] == "generic" or "key" in t["properties"]] == []


def test_crosswalk_mining_is_pinned():
    """The mined crosswalk report and snapshot, byte for byte as they were
    while actor differentiation still built one row per (appearance, role,
    actor).  The digests hold on Python 3.10 to 3.13 under any hash seed."""
    report, snapshot = _crosswalk_mined_at_once()
    assert [hashlib.sha256(text.encode()).hexdigest() for text in (report, snapshot)] == [
        "7a9880da6a74c7087dfef71cdec571df61461b4eb352118c40671eeeeadeda04",
        "4be83913e29c4fa2db81aba7d7ef35f986119ea22e0e3e47ff73e74d3ddc5bcb",
    ]


def _three_red_lights() -> list[Document]:
    return [Document("light turned red", "cam", tick) for tick in (0, 10, 20)]


@pytest.mark.parametrize(
    "definitions, docs",
    [
        (
            'There name "light turned red". '
            'There name stoplight patterns "light turned $color", has color.',
            _three_red_lights,
        ),
        (CROSSWALK_DEFINITIONS, _crosswalk_docs),
    ],
    ids=["generalization-named-like-an-appearance", "crosswalk"],
)
def test_dropping_the_mined_layer_gives_back_the_extracted_graph(definitions, docs):
    """Mine, then drop what mining built: the extracted snapshot is back.
    The generalization of three "light turned red" events renders the name
    of an extracted appearance; it is still a new appearance, so no mined
    ``is`` edge joins two extracted ones."""
    store = GraphStore()
    defs = parse_definitions(definitions)
    for doc in docs():
        extract_events(store, defs, doc)
    extracted = store.dumps()
    run_pipeline(store, MiningConfig())
    store.drop_mined()
    assert store.dumps() == extracted


def test_extraction_after_mining_never_binds_a_mined_actor():
    """Mining creates no actor, not even for the column values of a
    generalization, so a later event bound to such a value gets an
    extracted actor, as it would without the earlier mine."""
    defs = parse_definitions(
        'There name lamp-red patterns "lamp turned red". '
        'There name lamp-green patterns "lamp turned green". '
        'There name stoplight patterns "light turned $color", has color.'
    )
    first = [Document(f"lamp turned {c}", "cam", t) for t, c in enumerate(["red", "green"] * 2)]
    later = [Document("light turned red", "cam", 9), Document("light turned red", "cam", 12)]
    cfg = MiningConfig()
    store = GraphStore()
    for doc in first:
        extract_events(store, defs, doc)
    actors = store.things("actor")
    run_pipeline(store, cfg)
    assert store.things("actor") == actors
    for doc in later:
        extract_events(store, defs, doc)
    (red,) = [t for t in store.things("actor") if t.name == "red"]
    assert "origin" not in red.properties
    fresh = GraphStore()
    for doc in first + later:
        extract_events(fresh, defs, doc)
    assert _report_and_snapshot(store, cfg) == _report_and_snapshot(fresh, cfg)


@pytest.mark.parametrize(
    "first, second",
    [
        (MiningConfig(min_support=3, fork_epsilon=0.5), MiningConfig(coincidence_window=3)),
        (MiningConfig(coincidence_window=3), MiningConfig(min_support=3, fork_epsilon=0.5)),
        (MiningConfig(min_support=5), MiningConfig(min_support=2, chain_max_gap=3)),
    ],
)
def test_mining_again_with_other_settings_equals_mining_once(first, second):
    store, fresh = _toy_window_store(), _toy_window_store()
    run_pipeline(store, first)
    assert _report_and_snapshot(store, second) == _report_and_snapshot(fresh, second)


def test_a_role_mining_creates_is_dropped_with_the_mined_layer():
    """An event bound under a role with no role thing: mining makes no
    role for it, and a second mine gives the same bytes."""
    store = GraphStore()
    actor = store.add_thing("actor", "a")
    app = store.add_thing("appearance", "x")
    for tick in (0, 1, 5, 6):
        event = store.add_thing("event", times=TimeSpec.point(tick))
        store.add_edge(Edge("is", event, app))
        store.add_edge(Edge("has", event, actor, role="r"))
    first = _report_and_snapshot(store, MiningConfig())
    assert store.things("role") == []
    assert _report_and_snapshot(store, MiningConfig()) == first


# -- the facts a run hands from stage to stage -------------------------------------


def _crosswalk_store() -> GraphStore:
    store = GraphStore()
    extract_events(store, parse_definitions(CROSSWALK_DEFINITIONS), *_crosswalk_docs())
    return store


def _stages_alone(store, cfg):
    """The nine stages in ``run_pipeline``'s order, each called with only its
    public arguments, so each reads the facts it needs from the store."""
    store.drop_mined()
    scope_roles(differentiate_actors(store)[0])
    unify_appearances(store, cfg.min_support)
    cluster_events(store, cfg.coincidence_window)
    unify_situations(store, cfg.min_support)
    chain_coincidences(store, cfg)
    model, _ = unify_scenarios(store, cfg.min_support)
    forks = detect_forks(model, cfg.fork_epsilon)
    return model, forks, differentiate_triggers(store, model, forks, cfg)


def _assert_stages_alone_equal_the_pipeline(store, cfg):
    alone = GraphStore.loads(store.dumps())
    report = run_pipeline(store, cfg)
    model, forks, triggers = _stages_alone(alone, cfg)
    same_snapshot = alone.dumps() == store.dumps()  # a bare == makes pytest diff two long texts
    assert same_snapshot
    assert model.scenarios == report.model.scenarios
    assert model.lifted == report.model.lifted
    assert [(f.prefix, f.branches) for f in forks] == [(f.prefix, f.branches) for f in report.forks]
    assert triggers == report.triggers
    return report


def test_stages_called_alone_equal_the_pipeline_on_the_crosswalk():
    report = _assert_stages_alone_equal_the_pipeline(
        _crosswalk_store(), MiningConfig(min_support=CROSSWALK_MIN_SUPPORT)
    )
    assert report.model.scenarios and report.forks and report.triggers


def test_stages_called_alone_equal_the_pipeline_on_random_corpora():
    """Small crosswalk-like corpora: in each run someone approaches, waits,
    may run on red with either step, and then crosses or falls, far more
    often falls after running on red."""
    defs = parse_definitions(
        'There name approach patterns "$who approaches", has who. '
        'There name wait patterns "$who waits", has who. '
        'There name run patterns "$who runs on red", has who. '
        'There name cross patterns "$who crosses", has who. '
        'There name fall patterns "$who falls", has who.'
    )
    rng = random.Random(808)
    forked = triggered = 0
    for case in range(60):
        store = GraphStore()
        tick = 0
        for run in range(rng.randint(0, 16)):
            who = rng.choice(["ann", "bob", "cy", "dee"])
            red = rng.random() < 0.5
            docs = [(0, f"{who} approaches"), (1, f"{who} waits")]
            if red:
                docs.append((rng.randint(0, 1), f"{who} runs on red"))
            docs.append((2, f"{who} {'falls' if rng.random() < (0.9 if red else 0.2) else 'crosses'}"))
            for offset, text in docs:
                extract_events(store, defs, Document(text, f"run{run}", tick + offset))
            tick += rng.randint(4, 9)
        cfg = MiningConfig(
            coincidence_window=rng.randint(0, 1),
            chain_max_gap=rng.randint(1, 2),
            chain_requires_shared_actor=rng.random() < 0.7,
            min_support=rng.randint(2, 4),
            fork_epsilon=rng.choice([0.2, 0.5, 1.0]),
            trigger_min_shift=rng.choice([0.1, 0.2, 0.5]),
        )
        report = _assert_stages_alone_equal_the_pipeline(store, cfg)
        forked += bool(report.forks)
        triggered += bool(report.triggers)
    assert forked >= 30 and triggered >= 5


@pytest.mark.parametrize("store", [_crosswalk_store, _toy_window_store], ids=["crosswalk", "toy-window"])
def test_appearance_unification_leaves_every_event_alone(store):
    """A run reads each event's facts once, before appearance unification,
    and later stages read them after it.  That holds because the stage links
    the appearances of its events to each generalization, never an event:
    every event's direct appearances and out-edges stay as they were, and
    no later stage changes them either."""
    store = store()

    def event_facts():
        edges = store.edges()
        return {
            e.id: (store.neighbor_ids(e.id, "is", node_kind="appearance"), [x for x in edges if x.src == e.id])
            for e in store.things("event")
        }

    before = event_facts()
    assert unify_appearances(store, 2)
    assert event_facts() == before
    run_pipeline(store, MiningConfig(min_support=2))
    assert store.things("process") and event_facts() == before


def test_a_run_reads_each_event_once_and_no_mined_fact_back(monkeypatch):
    store = _crosswalk_store()
    calls = dict.fromkeys(("neighbor_ids", "times_of", "member_children"), 0)
    for name in calls:
        read = getattr(GraphStore, name)

        def counted(*args, _read=read, _name=name, **kwargs):
            calls[_name] += 1
            return _read(*args, **kwargs)

        monkeypatch.setattr(GraphStore, name, counted)
    run_pipeline(store, MiningConfig(min_support=CROSSWALK_MIN_SUPPORT))
    events = len(store.things("event"))
    assert calls == {"neighbor_ids": events, "times_of": events, "member_children": 0}


def test_stage_failure_names_stage():
    store = GraphStore()
    app = store.add_thing("appearance", "a")
    event = add_event(store, app, 1)
    event_node = store.thing(event)
    event_node.properties["text"] = 3.5  # not a string: ignored, harmless
    bad = MiningConfig(min_support=0)
    with pytest.raises(ValueError):
        run_pipeline(store, bad)


def test_mining_stage_error_carries_stage_name():
    store = GraphStore()

    class Boom(GraphStore):
        def things(self, kind=None):
            if kind == "coincidence":
                raise RuntimeError("boom")
            return super().things(kind)

    boom = Boom()
    with pytest.raises(MiningStageError) as err:
        run_pipeline(boom, MiningConfig())
    assert err.value.stage == "cluster_events"


def test_config_invariants():
    with pytest.raises(ValueError):
        MiningConfig(coincidence_window=-1).validate()
    with pytest.raises(ValueError):
        MiningConfig(chain_max_gap=0).validate()
    with pytest.raises(ValueError):
        MiningConfig(fork_epsilon=1.5).validate()
    with pytest.raises(ValueError):
        MiningConfig(trigger_min_shift=0.0).validate()
    MiningConfig().validate()
