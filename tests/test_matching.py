"""Matcher: tokenization, typing, pattern matching, event extraction."""

import bisect
import dataclasses
import functools
import hashlib
import importlib.util
import inspect
import pathlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenamine.matching as matching
import scenamine.patterns as pattern_module
from helpers import CROSSWALK_DEFINITIONS, add_event, crosswalk_corpus_text
from oracles import ARTICLES, brute_matches, library_match_set
from scenamine.definitions import ThingDefinition, parse_definitions
from scenamine.graph import GraphStore, TimeSpec
from scenamine.matching import (
    Binding,
    Document,
    Match,
    check_type,
    extract_events,
    match_pattern,
    parse_corpus_line,
    read_corpus,
    time_to_tick,
)
from scenamine.patterns import (
    AndSet,
    AnySet,
    Literal,
    SeqSet,
    TypeRef,
    Variable,
    list_variables,
    parse_pattern,
    with_types,
)
from scenamine.tokens import tokenize

SANCTIONS = (
    "{obama trump} {forced suggested} $organization to "
    "{impose implement apply} sanctions against $target"
)


# -- tokenize -----------------------------------------------------------------


def test_tokenize_sentence():
    toks = tokenize("Obama forced the EU.")
    assert [t.norm for t in toks] == ["obama", "forced", "the", "eu", "."]
    assert [t.cls for t in toks] == ["word", "word", "word", "word", "punct"]
    assert toks[0].surface == "Obama"


def test_tokenize_money():
    toks = tokenize("prices $3.50")
    assert [(t.norm, t.cls) for t in toks] == [
        ("prices", "word"),
        ("$", "punct"),
        ("3.50", "number"),
    ]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_interior_dot_rules():
    assert [t.norm for t in tokenize("12.5")] == ["12.5"]
    assert [t.norm for t in tokenize("example.com")] == ["example", ".", "com"]
    assert [t.norm for t in tokenize("1.2.3")] == ["1.2", ".", "3"]
    assert [t.norm for t in tokenize("12.")] == ["12", "."]
    assert [t.norm for t in tokenize(".5")] == [".", "5"]


def test_tokenize_spans_ascend():
    text = "ab 12, cd3.4"
    toks = tokenize(text)
    for left, right in zip(toks, toks[1:]):
        assert left.end <= right.start
    for t in toks:
        assert text[t.start : t.end] == t.surface
        assert t.norm == t.surface.lower()


# -- check_type ----------------------------------------------------------------


def _slice(text):
    return tokenize(text)


def test_check_type_atomics():
    assert check_type(_slice("apples"), TypeRef("word"))
    assert not check_type(_slice("apples"), TypeRef("number"))
    assert check_type(_slice("3.50"), TypeRef("number"))
    assert check_type(_slice("$3.50"), TypeRef("money"))
    assert not check_type(_slice("3.50"), TypeRef("money"))
    assert not check_type(_slice("$ x"), TypeRef("money"))
    assert check_type(_slice("anything at all"), TypeRef("untyped"))
    assert not check_type([], TypeRef("untyped"))


def test_check_type_time_shapes():
    assert check_type(_slice("2018-05-12"), TypeRef("time"))
    assert check_type(_slice("09:30"), TypeRef("time"))
    assert check_type(_slice("12345"), TypeRef("time"))
    assert not check_type(_slice("12 345"), TypeRef("time"))
    assert not check_type(_slice("2018-05"), TypeRef("time"))


def test_check_type_composite():
    person = TypeRef("composite", parse_pattern("{John Jane Joe Joi}"))
    assert check_type(_slice("john"), person)
    assert not check_type(_slice("bob"), person)
    assert not check_type(_slice("john jane"), person)


# -- match_pattern ----------------------------------------------------------------


def test_sanctions_binding():
    pattern = parse_pattern(SANCTIONS)
    toks = tokenize("Obama forced the EU to impose sanctions against Russia")
    matches = match_pattern(pattern, toks)
    assert len(matches) == 1
    (match,) = matches
    assert match.first == 0 and match.last == len(toks) - 1
    assert {n: b.surface for n, b in match.bindings.items()} == {
        "organization": "EU",
        "target": "Russia",
    }


def test_literal_match_trivial():
    matches = match_pattern(Literal("abc"), tokenize("abc"))
    assert len(matches) == 1
    assert matches[0].first == matches[0].last == 0
    assert matches[0].bindings == {}


def test_matching_is_case_insensitive():
    assert match_pattern(Literal("Trump"), tokenize("TRUMP spoke"))


def test_seq_is_order_sensitive_and_andset_is_not():
    seq_ab = parse_pattern("[a b]")
    seq_ba = parse_pattern("[b a]")
    and_ab = parse_pattern("(a b)")
    toks = tokenize("a b")
    assert match_pattern(seq_ab, toks)
    assert not match_pattern(seq_ba, toks)
    assert match_pattern(and_ab, toks)
    assert match_pattern(and_ab, tokenize("b a"))


def test_andset_window_is_smallest_cover():
    matches = match_pattern(parse_pattern("(a b)"), tokenize("a x b"))
    assert [(m.first, m.last) for m in matches] == [(0, 2)]


def test_andset_spans_each_combination_of_child_matches_which_may_overlap():
    """Today's conjunction: each combination of one match per child spans
    from the earliest child start to the latest child end, wider windows
    included, and the children may overlap."""
    matches = match_pattern(parse_pattern("(a b)"), tokenize("a b a b"))
    assert sorted((m.first, m.last) for m in matches) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    (match,) = match_pattern(parse_pattern("(a $x)"), tokenize("a"))
    assert (match.first, match.last) == (0, 0) and match.bindings["x"].norm == "a"


def test_anyset_alternatives_each_match():
    pattern = AnySet((Variable("x"), Literal("a")))
    matches = match_pattern(pattern, tokenize("a"))
    assert len(matches) == 2
    flavors = {tuple(sorted(m.bindings)) for m in matches}
    assert flavors == {(), ("x",)}


def test_anyset_monotonicity():
    rng = random.Random(5)
    alphabet = ["a", "b", "c", "d", "e"]
    for _ in range(50):
        toks = tokenize(" ".join(rng.choices(alphabet, k=rng.randint(1, 8))))
        kids = tuple(Literal(rng.choice(alphabet)) for _ in range(rng.randint(1, 3)))
        extra = Literal(rng.choice(alphabet))
        smaller = library_match_set(match_pattern(AnySet(kids), toks))
        larger = library_match_set(match_pattern(AnySet(kids + (extra,)), toks))
        assert smaller <= larger


def test_repeated_variable_requires_equal_values():
    pattern = parse_pattern("$a likes $a")
    assert match_pattern(pattern, tokenize("bob likes bob"))
    assert not match_pattern(pattern, tokenize("bob likes alice"))


def test_variable_spans_shortest_first():
    matches = match_pattern(Variable("x"), tokenize("a b c"))
    spans = [(m.first, m.last) for m in matches]
    assert spans == sorted(spans)
    assert spans[0] == (0, 0)
    assert len(matches) == 6


def test_article_stripping_in_bindings():
    pattern = parse_pattern("visited $place today")
    (match,) = match_pattern(pattern, tokenize("visited the grand canyon today"))
    assert match.bindings["place"].surface == "grand canyon"
    # single-token article span is left alone
    (match,) = match_pattern(pattern, tokenize("visited the today"))
    assert match.bindings["place"].surface == "the"


def test_typed_variable_restricts_spans():
    env = {"amount": TypeRef("number")}
    pattern = parse_pattern("paid $amount euros")
    toks = tokenize("paid 40 euros")
    assert match_pattern(pattern, toks, env)
    assert not match_pattern(pattern, tokenize("paid forty euros"), env)


def test_money_binding_spans_two_tokens():
    source = (
        'There name sale patterns "On sale: $item, quantity $amount, prices $cost", '
        "has item, amount, cost. Cost is money. Amount is number. Item is word."
    )
    (definition,) = parse_definitions(source)
    env = {r: t for r, t in definition.role_types.items()}
    toks = tokenize("On sale: Widget, quantity 3, prices $4.99")
    (match,) = match_pattern(definition.patterns[0], toks, env)
    values = {n: b.surface for n, b in match.bindings.items()}
    assert values == {"item": "Widget", "amount": "3", "cost": "$4.99"}


def _random_pattern(rng: random.Random, budget: int, vars_left: list[str]):
    alphabet = ["a", "b", "c", "d", "e"]
    choices = ["literal"]
    if vars_left:
        choices.append("variable")
    if budget >= 3:
        choices += ["any", "seq", "and"]
    kind = rng.choice(choices)
    if kind == "literal":
        return Literal(rng.choice(alphabet)), 1
    if kind == "variable":
        return Variable(vars_left.pop()), 1
    width = 2 if kind == "and" else rng.randint(1, min(3, budget - 1))
    used = 1
    kids = []
    for _ in range(width):
        child, cost = _random_pattern(rng, budget - used, vars_left)
        kids.append(child)
        used += cost
    cls = {"any": AnySet, "seq": SeqSet, "and": AndSet}[kind]
    return cls(tuple(kids)), used


def test_randomized_matches_equal_brute_force():
    rng = random.Random(1234)
    agreements = 0
    for _ in range(250):
        pattern, _ = _random_pattern(rng, 8, ["x", "y"][: rng.randint(0, 2)])
        toks = tokenize(" ".join(rng.choices("abcde", k=rng.randint(0, 12))))
        got = library_match_set(match_pattern(pattern, toks))
        expected = brute_matches(pattern, toks)
        assert got == expected
        agreements += 1
    assert agreements == 250


def test_conjunction_children_must_bind_a_variable_alike():
    """Both children $x of ($x said $x) are one variable: a combination of
    child matches that binds it to ann in one child and to bob in the
    other is no match."""
    pattern = parse_pattern("($x said $x)")
    toks = tokenize("ann said bob said ann")
    got = library_match_set(match_pattern(pattern, toks))
    assert got == brute_matches(pattern, toks)
    assert (0, 4, (("x", "ann", 4, 4),)) in got
    # ann at 0, said at 1 and bob at 2 disagree on x
    assert (0, 2, (("x", "bob", 2, 2),)) not in got


_LOOKAHEAD_ALPHABET = ["a", "b", "c", "the", "an"]
_SIBLING_KINDS = ["literal", "variable", "any", "seq", "and"]


def _lookahead_sibling(rng: random.Random, kind: str, names: list[str]):
    def literal():
        return Literal(rng.choice(_LOOKAHEAD_ALPHABET))

    def literal_or_variable():
        return rng.choice([literal(), Variable(rng.choice(names))])

    if kind == "literal":
        return literal()
    if kind == "variable":
        return Variable(rng.choice(names))
    if kind == "any":
        return AnySet((literal(), literal_or_variable()))
    if kind == "seq":
        return SeqSet((literal_or_variable(), literal()))
    return AndSet((literal(), literal()))


def test_variable_followed_by_each_sibling_kind_equals_brute_force():
    """A variable directly before every kind of sibling, at the start,
    middle and end of sequences, sometimes nested: the lookahead must not
    drop or add a match."""
    rng = random.Random(4321)
    for trial in range(300):
        names = ["x", "y"][: rng.randint(1, 2)]
        kind = _SIBLING_KINDS[trial % len(_SIBLING_KINDS)]
        head = [Literal(rng.choice(_LOOKAHEAD_ALPHABET))] if rng.random() < 0.4 else []
        tail = [Literal(rng.choice(_LOOKAHEAD_ALPHABET))] if rng.random() < 0.4 else []
        variable = Variable(rng.choice(names))
        seq = SeqSet((*head, variable, _lookahead_sibling(rng, kind, names), *tail))
        pattern = rng.choice(
            [
                seq,
                AnySet((seq, Literal("b"))),
                SeqSet((Variable("z"), seq)),
                # the same node object again, now with nothing after it
                AnySet((seq, variable)),
            ]
        )
        words = rng.choices(_LOOKAHEAD_ALPHABET + ["The", "B"], k=rng.randint(0, 10))
        toks = tokenize(" ".join(words))
        got = library_match_set(match_pattern(pattern, toks))
        assert got == brute_matches(pattern, toks), (pattern, words)


def test_leading_variable_checks_only_ends_before_its_literal(monkeypatch):
    calls = []

    def counted(*args, real=matching.check_type):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matching, "check_type", counted)
    filler = ["the", "court", "said", "news", "today", "judge"]
    words = [filler[k % len(filler)] for k in range(300)]
    words[290:292] = ["ruled", "that"]
    pattern = parse_pattern("$court ruled that")
    matches = match_pattern(pattern, tokenize(" ".join(words)))
    assert len(calls) <= 300
    assert [m.first for m in matches] == list(range(290))
    assert all(m.last == 291 for m in matches)
    assert all(m.bindings["court"].last == 289 for m in matches)

    calls.clear()
    assert match_pattern(pattern, tokenize(" ".join(filler * 50))) == []
    assert calls == []


def _skip_prone_pattern(rng: random.Random, shape: int):
    """A random pattern over the literals a-e, in one of four shapes."""
    inner, _ = _random_pattern(rng, 6, ["x", "y"][: rng.randint(0, 2)])
    literal = Literal(rng.choice("abcde"))
    if shape == 0:
        # leading variable, then an alternative with a literal in one branch
        return SeqSet((Variable("v"), AnySet((literal, Variable("w"))), inner))
    if shape == 1:
        return AndSet((literal, inner))
    if shape == 2:
        return SeqSet((Variable("v"), inner))
    return inner


def test_randomized_matches_with_missing_literals_equal_brute_force():
    """Documents drawn from a-j, patterns from a-e: a required literal is
    often missing, and the skip and the first-token starts must not drop
    a match."""
    rng = random.Random(13)
    skipped = matched = 0
    for trial in range(400):
        pattern = _skip_prone_pattern(rng, trial % 4)
        toks = tokenize(" ".join(rng.choices("abcdefghij", k=rng.randint(0, 12))))
        got = library_match_set(match_pattern(pattern, toks))
        assert got == brute_matches(pattern, toks), (pattern, toks)
        skipped += not pattern.required_literals <= {t.norm for t in toks}
        matched += bool(got)
    assert skipped > 100 and matched > 100


def test_skip_and_first_token_starts(monkeypatch):
    calls = []

    def counted(*args, real=matching.check_type):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matching, "check_type", counted)
    # every "ruled" is followed by "said", never by "that"
    words = ["the", "court", "ruled", "said", "news"] * 60
    assert match_pattern(parse_pattern("$court ruled that"), tokenize(" ".join(words))) == []
    assert calls == []

    starts = []

    def recorded(engine, node, i, follow=None, real=matching._Engine.matches_at):
        if node is pattern:
            starts.append(i)
        return real(engine, node, i, follow)

    monkeypatch.setattr(matching._Engine, "matches_at", recorded)
    pattern = parse_pattern("{obama trump} said $matter")
    toks = tokenize("Trump said this and Obama said that, then trump spoke")
    matches = match_pattern(pattern, toks)
    assert starts == [0, 4, 9]
    assert sorted({m.first for m in matches}) == [0, 4]

    (definition,) = parse_definitions(
        'There name inspection patterns "inspected by $agency", has agency. '
        'Agency is "{federal state} {bureau office}".'
    )
    env = {r: t for r, t in definition.role_types.items()}
    toks = tokenize("The plant was inspected by the state bureau today")
    matches = match_pattern(definition.patterns[0], toks, env)
    assert [m.bindings["agency"].norm for m in matches] == ["state bureau"]


def test_a_hand_built_definition_is_typed_by_its_roles():
    given = [parse_pattern("paid $Amount euros")]
    definition = ThingDefinition("payment", given, ["amount"], {"Amount": TypeRef("number")})
    docs = [Document("paid 40 euros", "bank", 1), Document("paid forty euros", "bank", 2)]
    store = GraphStore()
    (event,) = extract_events(store, [definition], *docs)
    assert store.thing(event).properties["text"] == "paid 40 euros"
    # the definition holds the typed pattern; the caller's list is unchanged
    assert definition.patterns == (with_types(given[0], {"amount": TypeRef("number")}),)
    assert given == [parse_pattern("paid $Amount euros")]


def test_a_definition_is_frozen_so_its_patterns_keep_the_types_of_its_roles():
    """Typing happens once, when a definition is built, so nothing may change
    its role types, roles or patterns afterwards: each attempt raises, and the
    pattern stays as its roles typed it."""
    (definition,) = parse_definitions('There name pay patterns "paid $amount euros", has amount.')
    with pytest.raises(TypeError):
        definition.role_types["amount"] = TypeRef("number")
    with pytest.raises(dataclasses.FrozenInstanceError):
        definition.role_types = {"amount": TypeRef("number")}
    with pytest.raises(AttributeError):
        definition.roles.append("cost")
    with pytest.raises(AttributeError):
        definition.patterns.append(parse_pattern("x"))
    assert definition.role_types == {} and definition.roles == ("amount",)
    store = GraphStore()
    assert len(extract_events(store, [definition], Document("paid forty euros", "bank", 1))) == 1
    # a hand-built definition keeps a copy of its role types: the caller's dict is the caller's
    types = {"amount": TypeRef("number")}
    built = ThingDefinition("payment", [parse_pattern("paid $amount euros")], ["amount"], types)
    types["amount"] = TypeRef("word")
    assert built.role_types == {"amount": TypeRef("number")}
    assert extract_events(GraphStore(), [built], Document("paid forty euros", "bank", 1)) == []


def test_a_composite_type_is_checked_past_leading_articles():
    """A variable's span drops its leading articles before its type is
    checked, so a composite type that starts with an article never matches."""

    def extracted(type_text, text):
        definitions = parse_definitions(
            f'There name inspection patterns "inspected by $agency", has agency. Agency is "{type_text}".'
        )
        return len(extract_events(GraphStore(), definitions, Document(text, "cam", 1)))

    assert extracted("the bureau", "inspected by the bureau") == 0
    assert extracted("state bureau", "inspected by state bureau") == 1
    assert extracted("state bureau", "inspected by the state bureau") == 1


# -- width-bounded starts ---------------------------------------------------

_START_TYPES = ("word", "number", "money", "time", "untyped")
# a word, a number, a money value or a time shape, of 1 to 5 tokens
_START_VALUES = ("ped", "Ann", "3", "12.5", "$5", "€ 7", "12:30", "2024-01-15")


def _start_document(rng: random.Random) -> str:
    """1-3 phrases of articles and values, each ending in an anchor x or y
    most of the time, so anchors repeat and often follow an article."""
    phrases = []
    for _ in range(rng.randint(1, 3)):
        words = rng.choices(["a", "an", "the", "The"], k=rng.choice([0, 0, 1, 2]))
        words += rng.choices(_START_VALUES, k=rng.randint(0, 2))
        words += rng.choices(["x", "y"], k=rng.choice([0, 1, 1, 2]))
        phrases.append(" ".join(words))
    return " ".join(phrases)


def typed_brute_matches(pattern, tokens, env) -> set:
    """The oracle's matches whose every binding spans tokens admissible
    for its variable's type under ``env`` (untyped when absent)."""
    return {
        (first, last, bindings)
        for first, last, bindings in brute_matches(pattern, tokens)
        if all(
            check_type(tokens[lo : hi + 1], env.get(name, TypeRef("untyped")))
            for name, _norm, lo, hi in bindings
        )
    }


def _leading_child(rng: random.Random, names: list[str]):
    """A child that can open a sequence without first norms: a variable, an
    alternative led by one, or a nested sequence led by one."""
    kind = rng.choice(["variable", "variable", "any", "seq"])
    if kind == "variable":
        return Variable(names.pop())
    if kind == "any":
        other = rng.choice([Literal(rng.choice("xy")), SeqSet((Literal("the"), Variable(names.pop())))])
        return AnySet((Variable(names.pop()), other))
    return SeqSet((Variable(names.pop()), rng.choice([Literal(rng.choice("xy")), Variable(names.pop())])))


def _leading_pattern(rng: random.Random):
    """A sequence of 0-2 leading children, an anchor and an optional tail,
    with a random type for each of its variables."""
    names = ["p", "q", "r", "s", "t", "u", "v"]
    rng.shuffle(names)
    lead = [_leading_child(rng, names) for _ in range(rng.randint(0, 2))]
    anchor = rng.choice([Literal("x"), Literal("y"), AnySet((Literal("x"), Literal("y")))])
    tail = [rng.choice([Literal("y"), Variable(names.pop())])] if rng.random() < 0.4 else []
    pattern = SeqSet((*lead, anchor, *tail)) if lead or tail else anchor
    env = {}
    for name in list_variables(pattern):
        kind = rng.choice(_START_TYPES)
        if kind != "untyped" or rng.random() < 0.5:
            env[name] = TypeRef(kind)
    return pattern, env


def test_width_bounded_starts_equal_typed_brute_force():
    """Leading typed and untyped variables, alternatives and nested
    sequences before an anchor, over documents with articles and repeated
    anchors: the start plan must not drop a match."""
    rng = random.Random(2026)
    matched = article_led = 0
    led_by = set()  # types of the leading variables of found matches
    for _ in range(1000):
        pattern, env = _leading_pattern(rng)
        toks = tokenize(_start_document(rng))
        got = library_match_set(match_pattern(pattern, toks, env))
        assert got == typed_brute_matches(pattern, toks, env), (pattern, env, toks)
        matched += bool(got)
        article_led += any(toks[first].norm in ARTICLES for first, _last, _b in got)
        leader = pattern.children[0] if isinstance(pattern, SeqSet) else pattern
        if got and isinstance(leader, Variable):
            led_by.add(env.get(leader.name, TypeRef("untyped")).kind)
    assert matched > 250 and article_led > 40
    assert led_by == set(_START_TYPES)


def _top_level_starts(monkeypatch, patterns) -> list:
    """Record the start of every top-level attempt at a node equal to one
    of ``patterns``; with a type environment the top node is the pattern
    typed by it, a new object."""
    starts = []
    tops = set(patterns)

    def recorded(engine, node, i, follow=None, real=matching._Engine.matches_at):
        if node in tops:
            starts.append(i)
        return real(engine, node, i, follow)

    monkeypatch.setattr(matching._Engine, "matches_at", recorded)
    return starts


def test_starts_are_tried_only_where_an_anchor_can_be_reached(monkeypatch):
    # crosswalk: every pattern is "$person <literal> ...", Person is word
    definitions = parse_definitions(CROSSWALK_DEFINITIONS)
    starts = _top_level_starts(monkeypatch, [p for d in definitions for p in d.patterns])
    docs = read_corpus(crosswalk_corpus_text().splitlines())
    created = extract_events(GraphStore(), definitions, *docs)
    assert len(starts) == len(created) == len(docs) == 700

    # untyped: no start after the last "ruled" less one token
    pattern = parse_pattern("$court ruled that")
    starts = _top_level_starts(monkeypatch, [pattern, with_types(pattern, {"court": TypeRef("word")})])
    words = "the court ruled that the judge ruled the appeal said ruled news today".split()
    matches = match_pattern(pattern, tokenize(" ".join(words)))
    assert starts == list(range(10))
    assert [(m.first, m.last) for m in matches] == [(0, 3), (1, 3)]

    # word: the token before each "ruled" and any articles just before that
    starts.clear()
    matches = match_pattern(pattern, tokenize(" ".join(words)), {"court": TypeRef("word")})
    assert starts == [0, 1, 4, 5, 9]
    assert [(m.first, m.bindings["court"].norm) for m in matches] == [(0, "court"), (1, "court")]


# -- width-bounded ends ------------------------------------------------------

# variable-free composites: one spans 2 tokens, the other 1, or 3 with an
# article inside
_END_COMPOSITES = ("{state federal} {bureau office}", "{bureau [x the bureau]}")
_END_TYPES = tuple(TypeRef(kind) for kind in ("word", "number", "money", "time")) + tuple(
    TypeRef("composite", parse_pattern(text)) for text in _END_COMPOSITES
)
_END_VALUES = ("ped", "3", "12.5", "$5", "€ 7", "12:30", "2024-01-15", "state bureau", "x the bureau", "office")


def _end_document(rng: random.Random) -> str:
    """Anchors x, each followed by an article run of 0-3 and 0-2 values,
    with y now and then, so that a value can sit behind several articles."""
    words = []
    for _ in range(rng.randint(1, 2)):
        words.append("x")
        words += rng.choices(["a", "an", "the", "The"], k=rng.choice([0, 1, 2, 3]))
        words += rng.choices(_END_VALUES, k=rng.randint(0, 2))
        words += rng.choices(["y", "x"], k=rng.choice([0, 0, 1]))
    return " ".join(words)


def _end_pattern(rng: random.Random, place: str):
    """x, then a typed variable $v at the end or before a variable, an
    alternative or a literal, sometimes nested, with a random type for $v
    and for the variable $w after it."""
    follower = {
        "end": [],
        "variable": [Variable("w")],
        "alternative": [AnySet((Literal("y"), SeqSet((Literal("the"), Variable("w")))))],
        "literal": [Literal(rng.choice(["y", "x", "bureau"]))],
    }[place]
    pattern = SeqSet((Literal("x"), Variable("v"), *follower))
    if rng.random() < 0.3:
        pattern = AnySet((pattern, Literal("y")))
    env = {"v": rng.choice(_END_TYPES)}
    if rng.random() < 0.6:
        env["w"] = rng.choice(_END_TYPES)
    return pattern, env


def test_width_bounded_ends_equal_typed_brute_force():
    """A typed variable at the end, before a variable, before an
    alternative and before a literal, under every atomic type and
    variable-free composites, over documents with article runs: cutting
    its ends to its type's width must not drop a match."""
    rng = random.Random(3232)
    places = ("end", "variable", "alternative", "literal")
    found = {}  # (place, type of $v) -> matches found
    behind_articles = 0
    for trial in range(800):
        place = places[trial % len(places)]
        pattern, env = _end_pattern(rng, place)
        toks = tokenize(_end_document(rng))
        got = library_match_set(match_pattern(pattern, toks, env))
        assert got == typed_brute_matches(pattern, toks, env), (pattern, env, toks)
        key = (place, env["v"])
        found[key] = found.get(key, 0) + len(got)
        behind_articles += sum(
            toks[lo - 1].norm in ARTICLES for _f, _l, b in got for name, _n, lo, _hi in b if name == "v"
        )
    assert all(found.get((place, t)) for place in places for t in _END_TYPES), found
    assert behind_articles > 100


def _long_document(rng: random.Random, size: int) -> tuple[list[str], list[int], int]:
    """About ``size`` tokens of filler words with meetings (``meeting at``,
    0-3 articles, ``12:30``) and shipments (``shipped 12 crates to``);
    the words, the article count of each meeting and the shipments."""
    words, articles, shipments, tokens = [], [], 0, 0
    while tokens < size:
        pick = rng.random()
        if pick < 0.02:
            runs = rng.randint(0, 3)
            words += ["meeting", "at", *rng.choices(["a", "an", "the"], k=runs), "12:30"]
            articles.append(runs)
            tokens += 5 + runs
        elif pick < 0.04:
            words += ["shipped", "12", "crates", "to"]
            shipments += 1
            tokens += 4
        else:
            words.append(rng.choice(["ann", "bob", "cat", "dog", "elm", "fig"]))
            tokens += 1
    # filler after the last meeting, so that each of its time spans can end
    return words + ["ann"] * 5, articles, shipments


def test_typed_ends_bound_type_checks_on_a_long_document(monkeypatch):
    calls = []

    def counted(tokens, type_ref, real=matching.check_type):
        calls.append((tokens[0].start, type_ref.kind))
        return real(tokens, type_ref)

    monkeypatch.setattr(matching, "check_type", counted)
    words, articles, shipments = _long_document(random.Random(5), 5000)
    toks = tokenize(" ".join(words))
    assert len(toks) >= 5000 and len(articles) > 50 and shipments > 50

    # each meeting holds two times: the hour 12 alone and the clock time 12:30
    matches = match_pattern(parse_pattern("meeting at $when"), toks, {"when": TypeRef("time")})
    assert len(matches) == 2 * len(articles)
    meetings = [t.start for t in toks if t.norm == "meeting"]
    per_start = {}
    for start, kind in calls:
        assert kind == "time"
        at = meetings[bisect.bisect_right(meetings, start) - 1]
        per_start[at] = per_start.get(at, 0) + 1
    assert [per_start[at] for at in meetings] == [runs + 5 for runs in articles]

    # untyped: no type check at all; each shipment ends at its own and every
    # later "to"
    calls.clear()
    matches = match_pattern(parse_pattern("shipped $goods to"), toks)
    assert calls == []
    assert len(matches) == shipments * (shipments + 1) // 2


def test_matches_past_the_bound_raise():
    with pytest.raises(matching.MatchLimitError, match="100,000"):
        match_pattern(parse_pattern("($x $y $z)"), tokenize(" ".join("abcdefghijklmn")))
    # from the first start alone, 450 tokens split 101,025 ways
    words = [f"w{chr(97 + k % 26)}" for k in range(450)]
    with pytest.raises(matching.MatchLimitError):
        match_pattern(parse_pattern("$a $b"), tokenize(" ".join(words)))
    # under the bound the same patterns match as before
    assert len(match_pattern(parse_pattern("$a $b"), tokenize("p q r"))) == 4


def test_memory_before_the_bound_trips_grows_with_spans_not_strings():
    """``$a $b`` over 450 one-letter words passes the bound from the first
    start.  The search holds each binding as its token span, so the traced
    peak stays under 96 MiB, three quarters of the least peak measured
    while every tried span got its own surface and norm strings (127-143
    MiB on Python 3.10-3.13; 55-64 MiB with spans)."""
    toks = tokenize(" ".join(chr(97 + k % 26) for k in range(450)))
    tracemalloc.start()
    try:
        with pytest.raises(matching.MatchLimitError) as caught:
            match_pattern(parse_pattern("$a $b"), toks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == "more than 100,000 matches or partial matches (matching.MAX_MATCHES)"
    assert peak < 96 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_extraction_past_the_bound_names_definition_and_document():
    (definition,) = parse_definitions('There name pair patterns "($x $y $z)", has x, y, z.')
    docs = [Document("a b", "news://short", 1), Document(" ".join("abcdefghijklmn"), "news://long", 2)]
    with pytest.raises(matching.MatchLimitError) as caught:
        extract_events(GraphStore(), [definition], *docs)
    assert str(caught.value).startswith("definition 'pair', document 2 ('news://long'): more than 100,000")


def test_binding_and_match_keep_their_fields():
    """Fields in order, equality by value, no assignment, and a ``Match``
    made without bindings gets an empty read-only mapping."""
    assert list(inspect.signature(Binding).parameters) == ["surface", "norm", "first", "last"]
    assert list(inspect.signature(Match).parameters) == ["pattern", "first", "last", "bindings"]
    binding = Binding("The Court", "the court", 3, 4)
    assert (binding.surface, binding.norm, binding.first, binding.last) == ("The Court", "the court", 3, 4)
    assert binding == Binding(surface="The Court", norm="the court", first=3, last=4)
    assert binding != Binding("The Court", "the court", 3, 5)
    pattern = parse_pattern("$court ruled")
    match = Match(pattern, 3, 5, {"court": binding})
    assert (match.pattern, match.first, match.last, match.bindings) == (pattern, 3, 5, {"court": binding})
    assert match == Match(pattern=pattern, first=3, last=5, bindings={"court": binding})
    assert match != Match(pattern, 3, 5)
    for record, name in ((binding, "first"), (match, "last"), (match, "bindings")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    bare = Match(Literal("ruled"), 0, 0)
    assert bare.bindings == {}
    with pytest.raises(TypeError):
        bare.bindings["court"] = binding
    assert Match(Literal("ruled"), 0, 0).bindings == {}  # the shared default stays empty


def test_match_ordering_is_stable():
    pattern = parse_pattern("$x b")
    toks = tokenize("a b a b")
    matches = match_pattern(pattern, toks)
    keys = [
        (m.first, m.last, tuple(sorted((n, b.norm) for n, b in m.bindings.items())))
        for m in matches
    ]
    assert keys == sorted(keys)


def _ordering_pattern(rng: random.Random):
    """A typed variable before one anchor norm, or a random pattern led by
    variables; half the time inside an alternative with itself or with
    another such pattern, so that one match can be found twice."""
    if rng.random() < 0.4:
        name = rng.choice("pq")
        pattern = SeqSet((Variable(name), Literal(rng.choice("xy"))))
        env = {name: TypeRef(rng.choice(_START_TYPES))}
    else:
        pattern, env = _leading_pattern(rng)
    if rng.random() < 0.5:
        other, more = (pattern, {}) if rng.random() < 0.5 else _leading_pattern(rng)
        pattern, env = AnySet((pattern, other)), {**more, **env}
    return pattern, env


def test_matches_come_in_match_key_order_once_each_on_random_patterns():
    """On random patterns over documents with no, one and several
    matches: ``match_pattern`` returns its matches ordered by
    ``_match_key``, no key twice, and exactly the typed brute-force set."""
    rng = random.Random(3838)
    seen = {"none": 0, "one": 0, "several": 0}
    repeated = 0  # patterns whose alternatives find one match twice
    for _ in range(1500):
        pattern, env = _ordering_pattern(rng)
        toks = tokenize(_start_document(rng))
        matches = match_pattern(pattern, toks, env)
        keys = [matching._match_key(m) for m in matches]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), (pattern, env, toks)
        assert library_match_set(matches) == typed_brute_matches(pattern, toks, env), (pattern, env, toks)
        seen["none" if not keys else "one" if len(keys) == 1 else "several"] += 1
        if isinstance(pattern, AnySet) and len(keys) > 1:
            typed = with_types(pattern, env)
            engine = matching._Engine(matching._Text(toks))
            found = [r for start in range(len(toks)) for r in engine.matches_at(typed, start)]
            repeated += len(found) > len(keys)
    assert min(seen.values()) > 150 and repeated > 50, (seen, repeated)


# -- extract_events -------------------------------------------------------------


def _sanctions_defs():
    return parse_definitions(
        'There name sanctions patterns "' + SANCTIONS + '", has organization, target.'
    )


def test_extract_sanctions_event():
    store = GraphStore()
    doc = Document(
        "Obama forced the EU to impose sanctions against Russia", "news://1", 100
    )
    (event,) = extract_events(store, _sanctions_defs(), doc)
    node = store.thing(event)
    assert node.kind == "event"
    assert node.properties["sources"] == "news://1"
    assert "EU" in node.properties["text"] and "Russia" in node.properties["text"]
    assert store.times_of(event) == TimeSpec(((100, 100),))
    actors = sorted(t.name for t in store.things("actor"))
    assert actors == ["eu", "russia"]
    is_edges = [e for e in store.edges() if e.src == event and e.kind == "is"]
    assert len(is_edges) == 1
    assert store.thing(is_edges[0].dst).name == "sanctions"


def test_nullary_definition_creates_anonymous_event():
    store = GraphStore()
    defs = parse_definitions("There name \"{'trump' 'us president'}\".")
    (event,) = extract_events(store, defs, Document("US president spoke", "u", 5))
    has_edges = [e for e in store.edges() if e.src == event and e.kind == "has"]
    assert has_edges == []
    assert store.things("actor") == []


def test_reprocessing_reuses_actors():
    store = GraphStore()
    defs = _sanctions_defs()
    doc = Document(
        "Obama forced the EU to impose sanctions against Russia", "news://1", 100
    )
    extract_events(store, defs, doc)
    before = len(store.things("actor"))
    extract_events(store, defs, doc)
    assert len(store.things("event")) == 2
    assert len(store.things("actor")) == before


def test_type_check_rejects_whole_match():
    source = 'There name buy patterns "take $n units", has n. N is number.'
    store = GraphStore()
    defs = parse_definitions(source)
    assert extract_events(store, defs, Document("take 5 units", "u", 1))
    assert not extract_events(store, defs, Document("take some units", "u", 2))


def test_every_event_has_required_shape():
    store = GraphStore()
    docs = [
        Document("Obama forced the EU to impose sanctions against Russia", "u1", 3),
        Document("Trump suggested the UN to apply sanctions against Iran", "u2", 9),
    ]
    for doc in docs:
        extract_events(store, _sanctions_defs(), doc)
    for t in store.things("event"):
        assert len([e for e in store.edges() if e.src == t.id and e.kind == "is"]) == 1
        assert store.times_of(t.id)
        assert t.properties["sources"]
        assert t.properties["text"]


def test_implicit_pattern_equivalence():
    explicit = parse_definitions('There name hmm. Name hmm patterns "water grinds".')
    implicit = parse_definitions('There name "water grinds".')
    doc = Document("the water grinds the stone", "u", 1)
    s1, s2 = GraphStore(), GraphStore()
    explicit_events = extract_events(s1, explicit, doc)
    implicit_events = extract_events(s2, implicit, doc)
    assert len(explicit_events) == len(implicit_events) == 1


def test_identical_matches_across_alternative_patterns_deduplicate():
    defs = parse_definitions('There name x patterns "a b", "a b".')
    store = GraphStore()
    events = extract_events(store, defs, Document("a b", "u", 1))
    assert len(events) == 1


def test_crosswalk_extraction_is_pinned():
    """The extracted crosswalk snapshot, byte for byte as it was before
    patterns were skipped by their required literals; a definition that
    never matches still gets its appearance and role edges."""
    docs = read_corpus(crosswalk_corpus_text().splitlines())
    never = 'There name flood patterns "$person swims across $river", has person, river.'
    digests = []
    for text in (CROSSWALK_DEFINITIONS, CROSSWALK_DEFINITIONS + never):
        store = GraphStore()
        definitions = parse_definitions(text)
        for doc in docs:
            extract_events(store, definitions, doc)
        digests.append(hashlib.sha256(store.dumps().encode()).hexdigest())
    # both pinned at the commit before the skip
    assert digests == [
        "ea7acff27b96030faf7a61400e8cafc25ff0179fefbbe6872f9ba9381d3aafe7",
        "5ba020cfd8ce601b50608ab2b3749ff7867b3ed7ef81b07f5a2703cd524fcdb2",
    ]
    (flood,) = store.find_by_name("appearance", "flood")
    roles = {
        (e.role, store.thing(e.dst).name)
        for e in store.edges()
        if e.src == flood and e.kind == "has"
    }
    assert roles == {("person", "person"), ("river", "river")}
    assert not store.neighbor_ids(flood, "is", direction="in")


@functools.cache
def _grouping_corpus(name: str) -> tuple[str, tuple]:
    """Definitions text and documents of the crosswalk corpus, or of 20
    documents of the benchmark's news workload at seed 1."""
    if name == "crosswalk":
        return CROSSWALK_DEFINITIONS, tuple(read_corpus(crosswalk_corpus_text().splitlines()))
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("news_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs, _facts = workloads.news_corpus(1, 20)
    text = workloads.corpus_text(docs)
    return workloads.NEWS_DEFINITIONS, tuple(read_corpus(text.splitlines()))


def _extracted_in_groups(name: str, groups) -> str:
    definitions_text, docs = _grouping_corpus(name)
    definitions = parse_definitions(definitions_text)
    store = GraphStore()
    for group in groups:
        extract_events(store, definitions, *group)
    return store.dumps()


@functools.cache
def _extracted_per_document(name: str) -> str:
    _text, docs = _grouping_corpus(name)
    return _extracted_in_groups(name, [[doc] for doc in docs])


@pytest.mark.parametrize("name", ["crosswalk", "news"])
def test_one_call_for_the_corpus_equals_one_call_per_document(name):
    _text, docs = _grouping_corpus(name)
    assert _extracted_in_groups(name, [docs]) == _extracted_per_document(name)


@pytest.mark.parametrize("name", ["crosswalk", "news"])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_call_grouping_does_not_change_the_snapshot(name, data):
    """One extract_events call per random run of consecutive documents
    gives the bytes of one call per document."""
    _text, docs = _grouping_corpus(name)
    expected = _extracted_per_document(name)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(docs) - 1), max_size=12)))
    bounds = [0, *cuts, len(docs)]
    groups = [docs[a:b] for a, b in zip(bounds, bounds[1:])]
    assert _extracted_in_groups(name, groups) == expected


def _counting(monkeypatch, name: str, module=matching) -> list:
    """Record the arguments of every call to a function of ``module``."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_call_ensures_each_definition_once_and_skips_absent_literals(monkeypatch):
    ensured = _counting(monkeypatch, "ensure_definition_things")
    matched = _counting(monkeypatch, "match_pattern")
    definitions = parse_definitions(CROSSWALK_DEFINITIONS)
    docs = read_corpus(crosswalk_corpus_text().splitlines())[:40]
    store = GraphStore()
    created = extract_events(store, definitions, *docs)
    assert len(created) == len(docs)
    assert [d.name for _store, d in ensured] == [d.name for d in definitions]
    assert matched
    for pattern, tokens, *_ in matched:
        assert pattern.required_literals <= {t.norm for t in tokens}
    # every document holds the literals of exactly one crosswalk pattern
    assert len(matched) == len(docs)
    # the parsed patterns are already typed, so each search gets the very
    # object that parse_definitions returned; the news definitions type
    # their variables as money, number, word, time and a composite, whose
    # own pattern check_type searches
    news_text, news_docs = _grouping_corpus("news")
    news = parse_definitions(news_text)
    for definitions, docs in [(definitions, docs), (news, news_docs)]:
        matched.clear()
        extract_events(GraphStore(), definitions, *docs)
        parsed = {id(p) for d in definitions for p in d.patterns}
        composites = {id(t.pattern) for d in definitions for t in d.role_types.values() if t.pattern}
        assert parsed <= {id(pattern) for pattern, *_ in matched} <= parsed | composites


@pytest.mark.parametrize("name", ["crosswalk", "news"])
def test_a_second_call_prepares_nothing(monkeypatch, name):
    """Each pattern is typed when its definition is built and keeps its
    filled text template from its first event, so a second call with the
    same definitions neither types nor renders a pattern."""
    text, docs = _grouping_corpus(name)
    definitions = parse_definitions(text)
    store = GraphStore()
    first = extract_events(store, definitions, *docs)
    typed = _counting(monkeypatch, "with_types", pattern_module)
    rendered = _counting(monkeypatch, "_render", pattern_module)
    second = extract_events(store, definitions, *docs)
    assert len(second) == len(first) > 0
    assert typed == rendered == []


def test_a_document_passing_three_patterns_is_indexed_once(monkeypatch):
    """A document holds the literals of three of four patterns.  Its tokens
    are walked once, for the norm index that the literal skip and all three
    searches read; an index per ``match_pattern`` call walked them once per
    pattern more."""

    class Walked(list):
        walks = 0

        def __iter__(self):
            Walked.walks += 1
            return super().__iter__()

    monkeypatch.setattr(matching, "tokenize", lambda text: Walked(tokenize(text)))
    matched = _counting(monkeypatch, "match_pattern")
    definitions = parse_definitions(
        CROSSWALK_DEFINITIONS + 'There name flood patterns "$person swims across $river", has person, river.'
    )
    doc = Document("ann approaches crosswalk bo waits at signal cy enters crosswalk on red", "cam", 1)
    created = extract_events(GraphStore(), definitions, doc)
    assert len(created) == len(matched) == 3
    assert len({id(tokens) for _pattern, tokens, *_ in matched}) == 1
    assert Walked.walks == 1


def test_extraction_looks_up_roles_and_match_keys_once(monkeypatch):
    """Over the crosswalk corpus (700 documents, one single-pattern
    definition per event) each appearance and role is found or created
    once and each event's actor once.  Only ``match_pattern`` keys a
    match, and only to order two or more: a lone match is not keyed."""
    keyed = _counting(monkeypatch, "_match_key")
    found = []
    original = GraphStore.find_or_create

    def counted(self, kind, name, properties=None):
        found.append((kind, name))
        return original(self, kind, name, properties)

    monkeypatch.setattr(GraphStore, "find_or_create", counted)
    definitions = parse_definitions(CROSSWALK_DEFINITIONS)
    docs = read_corpus(crosswalk_corpus_text().splitlines())
    created = extract_events(GraphStore(), definitions, *docs)
    assert len(created) == len(docs) == 700
    # before role ids were kept for the call: one more per event
    assert len(found) == 2 * len(definitions) + 700
    assert sum(kind == "actor" for kind, _name in found) == 700
    assert found.count(("role", "person")) == len(definitions)
    assert keyed == []  # each crosswalk document has one match
    two = Document("ann approaches crosswalk bo approaches crosswalk", "cam", 1)
    assert len(extract_events(GraphStore(), definitions, two)) == 2
    assert len(keyed) == 2


def test_a_call_with_no_documents_creates_nothing(monkeypatch):
    ensured = _counting(monkeypatch, "ensure_definition_things")
    store = GraphStore()
    assert extract_events(store, parse_definitions(CROSSWALK_DEFINITIONS)) == []
    assert ensured == []
    assert store.dumps() == GraphStore().dumps()


def test_a_changed_definition_is_linked_to_its_new_role():
    store = GraphStore()
    first = parse_definitions('There name stoplight patterns "light turned $color", has color.')
    second = parse_definitions(
        'There name stoplight patterns "light turned $color", has color, place.'
    )
    extract_events(store, first, Document("light turned red", "cam", 1))
    extract_events(store, second, Document("light turned green", "cam", 2))
    (app,) = store.find_by_name("appearance", "stoplight")
    roles = {e.role for e in store.edges() if e.src == app and e.kind == "has"}
    assert roles == {"color", "place"}


# -- corpus -------------------------------------------------------------------


def test_parse_corpus_line():
    doc = parse_corpus_line('{"time": 7, "source": "s", "text": "hi"}', 1)
    assert doc == Document("hi", "s", 7)


def test_parse_corpus_iso_time():
    doc = parse_corpus_line(
        '{"time": "1970-01-01T00:02:00Z", "source": "s", "text": "x"}', 1
    )
    assert doc.time == 120
    assert time_to_tick("1970-01-01T00:02:00Z", 60) == 2


def test_corpus_errors_name_line():
    from scenamine.matching import CorpusError

    with pytest.raises(CorpusError, match="line 3"):
        parse_corpus_line("{broken", 3)
    with pytest.raises(CorpusError, match="missing"):
        parse_corpus_line('{"time": 1}', 1)


@pytest.mark.parametrize("granularity", [0, -60, 2.5, True])
def test_granularity_below_one_is_a_corpus_error(granularity):
    """A bad granularity names itself instead of dividing by zero or
    giving negative ticks."""
    from scenamine.matching import CorpusError

    fault = f"granularity must be an integer >= 1, got {granularity!r}"
    with pytest.raises(ValueError, match=re.escape(fault)):
        time_to_tick("2020-01-01", granularity)
    with pytest.raises(CorpusError, match=re.escape(fault)):
        read_corpus(['{"time": "2020-01-01", "source": "s", "text": "x"}'], granularity)
