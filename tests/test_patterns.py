"""Pattern language: parsing, rendering, round-trips, arity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenamine.patterns import (
    MAX_NESTING,
    AndSet,
    AnySet,
    Literal,
    PatternSyntaxError,
    SeqSet,
    TypeRef,
    Variable,
    filled_template,
    list_variables,
    parse_pattern,
    render_filled,
    render_pattern,
    with_types,
)
from scenamine.tokens import tokenize

# every pattern string quoted in the source material, typographic quotes and all
FIXTURE_PATTERNS = [
    "{‘john doe’ ‘jane roe’}",
    "john doe",
    "jane roe",
    "$buyer buys $purchase",
    "{‘trump’ ‘us president’}",
    "{‘trump’ ‘us president’} {said told announced} $matter",
    "{obama trump} {forced suggested} $organization to {impose implement apply} sanctions against $target",
    "{John Jane Joe Joi} {said says told tells} $something",
    "On sale: $item, quantity $amount, prices $cost",
    "$person $did $something",
    "{John Jane Joe Joi}",
    "{{said told} {wrote printed}}",
]


def test_quoted_phrase_alternatives():
    ast = parse_pattern("{'john doe' 'jane roe'}")
    assert ast == AnySet(
        (
            SeqSet((Literal("john"), Literal("doe"))),
            SeqSet((Literal("jane"), Literal("roe"))),
        )
    )


def test_single_token_is_literal():
    assert parse_pattern("abc") == Literal("abc")


def test_sanctions_pattern_structure():
    ast = parse_pattern(
        "{obama trump} {forced suggested} $organization to "
        "{impose implement apply} sanctions against $target"
    )
    assert isinstance(ast, SeqSet)
    kinds = [type(c).__name__ for c in ast.children]
    assert kinds == [
        "AnySet",
        "AnySet",
        "Variable",
        "Literal",
        "AnySet",
        "Literal",
        "Literal",
        "Variable",
    ]
    assert ast.children[0] == AnySet((Literal("obama"), Literal("trump")))
    assert ast.children[2] == Variable("organization")
    assert ast.children[3] == Literal("to")
    assert ast.children[7] == Variable("target")


def test_nested_alternatives():
    ast = parse_pattern("{{said told} {wrote printed}}")
    assert ast == AnySet(
        (
            AnySet((Literal("said"), Literal("told"))),
            AnySet((Literal("wrote"), Literal("printed"))),
        )
    )


def test_typographic_and_ascii_quotes_agree():
    assert parse_pattern("{‘john doe’ ‘jane roe’}") == parse_pattern(
        "{'john doe' 'jane roe'}"
    )


def test_punctuation_tokens_become_literals():
    ast = parse_pattern("On sale: $item, quantity $amount, prices $cost")
    assert Literal(":") in ast.children
    assert Literal(",") in ast.children
    assert ast.children[0] == Literal("On")


def test_bracket_and_paren_sets():
    assert parse_pattern("[a b]") == SeqSet((Literal("a"), Literal("b")))
    assert parse_pattern("(a b)") == AndSet((Literal("a"), Literal("b")))


@pytest.mark.parametrize(
    "bad",
    ["{a", "a}", "{}", "[]", "()", "$", "$ x", "''", "   ", "{a (b}c)"],
)
def test_parse_errors(bad):
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(bad)
    assert err.value.offset >= 0


def test_error_reports_byte_offset():
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern("abc $")
    assert err.value.offset == 4


@pytest.mark.parametrize("brackets", ["{}", "()", "[]"])
def test_nesting_is_bounded_where_the_collection_opens(brackets):
    def nested(depth):
        return "a " + brackets[0] * depth + "b $x" + brackets[1] * depth

    deepest = parse_pattern(nested(MAX_NESTING))
    assert parse_pattern(render_pattern(deepest)) == deepest
    with pytest.raises(PatternSyntaxError) as err:
        parse_pattern(nested(MAX_NESTING + 1))
    assert str(err.value) == f"nesting deeper than {MAX_NESTING} levels (byte offset {2 + MAX_NESTING})"


def test_render_anyset():
    assert render_pattern(AnySet((Literal("red"), Literal("green")))) == "{red green}"


def test_render_quotes_literal_phrases():
    ast = SeqSet((Literal("john"), Literal("doe")))
    assert render_pattern(AnySet((ast,))) == "{'john doe'}"


@pytest.mark.parametrize("source", FIXTURE_PATTERNS)
def test_fixture_round_trips(source):
    ast = parse_pattern(source)
    rendered = render_pattern(ast)
    assert parse_pattern(rendered) == ast


def _random_ast(rng: random.Random, depth: int):
    kinds = ["literal", "variable"]
    if depth < 4:
        kinds += ["any", "and", "seq"]
    kind = rng.choice(kinds)
    if kind == "literal":
        return Literal(rng.choice(["a", "b", "c", "dog", "3.5", ",", "x"]))
    if kind == "variable":
        return Variable(rng.choice(["p", "q", "name2"]))
    children = tuple(_random_ast(rng, depth + 1) for _ in range(rng.randint(1, 3)))
    return {"any": AnySet, "and": AndSet, "seq": SeqSet}[kind](children)


def test_random_round_trips():
    rng = random.Random(20180512)
    for _ in range(500):
        ast = _random_ast(rng, 1)
        assert parse_pattern(render_pattern(ast)) == ast


_literals = st.sampled_from(["a", "bb", "ccc", "4", "4.25", ":", "z"]).map(Literal)
_variables = st.sampled_from(["x", "y", "long2name"]).map(Variable)
_asts = st.recursive(
    _literals | _variables,
    lambda inner: st.lists(inner, min_size=1, max_size=3).flatmap(
        lambda kids: st.sampled_from([AnySet, AndSet, SeqSet]).map(
            lambda cls: cls(tuple(kids))
        )
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_asts)
def test_round_trip_property(ast):
    assert parse_pattern(render_pattern(ast)) == ast


@pytest.mark.parametrize(
    "ast, values, text",
    [
        (parse_pattern("$who {crossed stopped} at $light"),
         {"who": "Ann", "light": "the red light"}, "Ann {crossed stopped} at the red light"),
        (parse_pattern("{$a (b [c $d])}"), {"a": "x", "d": "y z"}, "{x (b c y z)}"),
        (parse_pattern("($a [b {c $a}])"), {"a": "Q"}, "(Q b {c Q})"),
        (parse_pattern('"us president" $x'), {"x": "Trump"}, "us president Trump"),
        (SeqSet((Literal("a}b"), Variable("x"))), {"x": "1"}, "'a}b' 1"),
        (parse_pattern("'a}b' $x"), {"x": "1"}, "a '}' b 1"),
        (parse_pattern("$missing said $x"), {"x": "hi"}, "$missing said hi"),
        (Variable("x"), {"x": "alone"}, "alone"),
        (Variable("x"), {}, "$x"),
        (Literal("word"), {}, "word"),
        (Literal("$"), {}, "'$'"),
        (AnySet((Variable("v"),)), {"v": "w"}, "{w}"),
    ],
)
def test_render_filled(ast, values, text):
    assert render_filled(ast, values) == text


# literals and values that a template must carry through unchanged: quotes,
# braces (the format syntax), a dollar sign and the NUL character
_TEMPLATE_TOKENS = ["a", "it's", "’", '"', "{", "}", "{}", "{0}", "$", "\x00", "4.25"]
_template_asts = st.recursive(
    st.sampled_from(_TEMPLATE_TOKENS).map(Literal) | st.sampled_from(["x", "y", "9z"]).map(Variable),
    lambda inner: st.lists(inner, min_size=1, max_size=3).flatmap(
        lambda kids: st.sampled_from([AnySet, AndSet, SeqSet]).map(lambda cls: cls(tuple(kids)))
    ),
    max_leaves=12,
)


def _occurrences(ast) -> list[str]:
    """Every variable occurrence, left to right, repeats kept."""
    if isinstance(ast, Variable):
        return [ast.name]
    if isinstance(ast, Literal):
        return []
    return [n for c in ast.children for n in _occurrences(c)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_template_asts, st.dictionaries(st.sampled_from(["x", "y", "9z"]), st.sampled_from(_TEMPLATE_TOKENS + ["a b"])))
def test_filled_template_equals_render_filled(ast, values):
    text, names = filled_template(ast)
    assert names == tuple(_occurrences(ast))
    assert text.format(*(values.get(n, "$" + n) for n in names)) == render_filled(ast, values)


def test_list_variables_sanctions():
    ast = parse_pattern(
        "{obama trump} {forced suggested} $organization to "
        "{impose implement apply} sanctions against $target"
    )
    assert list_variables(ast) == ["organization", "target"]


def test_list_variables_nullary():
    assert list_variables(parse_pattern("{'trump' 'us president'}")) == []


def test_list_variables_deduplicates():
    assert list_variables(parse_pattern("$a $b $a")) == ["a", "b"]


def test_list_variables_counts_distinct_nodes():
    rng = random.Random(7)
    for _ in range(100):
        ast = _random_ast(rng, 1)
        names = list_variables(ast)
        assert len(names) == len(set(names))


def test_dollar_sign_literal_is_quoted():
    ast = parse_pattern("prices '$' $cost")
    assert ast.children[1] == Literal("$")
    assert ast.children[2] == Variable("cost")
    assert parse_pattern(render_pattern(ast)) == ast


# every ASCII character that is one punct token on its own
ASCII_PUNCT = [
    c for c in map(chr, range(128)) if [(t.surface, t.cls) for t in tokenize(c)] == [(c, "punct")]
]


@pytest.mark.parametrize("char", ASCII_PUNCT)
def test_punct_literal_round_trips_alone_and_in_a_sequence(char):
    for ast in (
        Literal(char),
        SeqSet((Literal("a"), Literal(char), Literal("b"))),
        AnySet((SeqSet((Literal("a"), Literal(char))), Literal("c"))),
    ):
        assert parse_pattern(render_pattern(ast)) == ast


def test_literal_holding_apostrophe_renders_in_double_quotes():
    ast = parse_pattern('"it\'s" $x')
    assert render_pattern(ast) == '[it "\'" s] $x'
    assert parse_pattern(render_pattern(ast)) == ast
    # a typographic apostrophe, as mined from "it’s", is quoted too and parses back folded
    typographic = SeqSet((Literal("it"), Literal("’"), Literal("s"), Variable("x")))
    assert render_pattern(typographic) == 'it "’" s $x'
    assert parse_pattern(render_pattern(typographic)) == parse_pattern('it "\'" s $x')


def test_single_child_seq_renders_with_brackets():
    ast = SeqSet((Literal("abc"),))
    assert render_pattern(ast) == "[abc]"
    assert parse_pattern("[abc]") == ast


# -- match analysis on each node ----------------------------------------------------


def _analysis(node):
    return node.required_literals, node.first_norms


def test_leaf_analysis():
    assert _analysis(Literal("Red")) == ({"red"}, {"red"})
    assert _analysis(Variable("x")) == (frozenset(), None)
    # a composite type is looked up at match time and promises no literal
    agency = TypeRef("composite", parse_pattern("{federal state} {bureau office}"))
    assert _analysis(Variable("agency", agency)) == (frozenset(), None)


def test_set_analysis():
    a, b, c, x = Literal("a"), Literal("b"), Literal("c"), Variable("x")
    assert _analysis(SeqSet((a, x, b))) == ({"a", "b"}, {"a"})
    assert _analysis(SeqSet((x, a))) == ({"a"}, None)
    assert _analysis(AnySet((a, b))) == (frozenset(), {"a", "b"})
    assert _analysis(AnySet((SeqSet((a, b)), SeqSet((b, c))))) == ({"b"}, {"a", "b"})
    assert _analysis(AnySet((a, x))) == (frozenset(), None)
    assert _analysis(AndSet((a, b))) == ({"a", "b"}, {"a", "b"})
    assert _analysis(AndSet((a, x))) == ({"a"}, None)


def test_nested_analysis():
    ast = parse_pattern(
        "{obama trump} {forced suggested} $organization to "
        "{impose implement apply} sanctions against $target"
    )
    assert _analysis(ast) == ({"to", "sanctions", "against"}, {"obama", "trump"})
    ast = parse_pattern("[{'storm warning' (storm alert)} {issued $x}] (today Now)")
    assert _analysis(ast) == ({"storm", "today", "now"}, {"storm", "alert"})
    assert _analysis(parse_pattern("$court ruled that")) == ({"ruled", "that"}, None)


def test_analysis_leaves_equality_hash_and_repr_alone():
    rng = random.Random(99)
    for _ in range(200):
        ast = _random_ast(rng, 1)
        again = parse_pattern(render_pattern(ast))
        assert again == ast and hash(again) == hash(ast)
        assert _analysis(again) == _analysis(ast)
        assert "required_literals" not in repr(ast) and "first_norms" not in repr(ast)
    node = SeqSet((Literal("a"), Variable("x")))
    assert repr(node) == (
        "SeqSet(children=(Literal(token='a'), Variable(name='x', "
        "type_ref=TypeRef(kind='untyped', pattern=None))))"
    )
    twin = SeqSet((Literal("a"), Variable("x")))
    object.__setattr__(twin, "required_literals", frozenset({"zzz"}))
    object.__setattr__(twin, "first_norms", frozenset())
    assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)
    assert render_pattern(twin) == render_pattern(node) == "a $x"


def _widths(node):
    return node.least_width, node.most_width


def test_leaf_widths():
    assert _widths(Literal("a")) == (1, 1)
    typed = {kind: Variable("x", TypeRef(kind)) for kind in ("word", "number", "money", "time")}
    assert {kind: _widths(v) for kind, v in typed.items()} == {
        "word": (1, 1),
        "number": (1, 1),
        "money": (2, 2),
        "time": (1, 5),
    }
    assert _widths(Variable("x")) == (1, None)
    agency = TypeRef("composite", parse_pattern("{federal state} {bureau office}"))
    assert _widths(Variable("agency", agency)) == (2, 2)


def test_set_widths():
    a, b, x = Literal("a"), Literal("b"), Variable("x")
    word, money = Variable("w", TypeRef("word")), Variable("m", TypeRef("money"))
    assert _widths(AnySet((a, money))) == (1, 2)
    assert _widths(AnySet((money, SeqSet((a, money, b))))) == (2, 4)
    assert _widths(SeqSet((a, word, money))) == (4, 4)
    # a child without a greatest width leaves its parent without one
    assert _widths(AnySet((a, x))) == (1, None)
    assert _widths(SeqSet((money, x, a))) == (4, None)
    assert _widths(AndSet((a, b))) == (1, None)
    assert _widths(AndSet((money, SeqSet((a, b))))) == (1, None)


def test_start_plans():
    a, b, x = Literal("a"), Literal("b"), Variable("x")
    word, money = Variable("w", TypeRef("word")), Variable("m", TypeRef("money"))
    # a node with first norms is its own anchor
    assert Literal("A").start_plan == ({"a"}, 0, 0)
    assert SeqSet((a, x)).start_plan == ({"a"}, 0, 0)
    assert AnySet((a, b)).start_plan == AndSet((a, b)).start_plan == ({"a", "b"}, 0, 0)
    # a sequence led by variables: its first anchored child, after their widths
    assert SeqSet((word, money, AnySet((a, b)), x)).start_plan == ({"a", "b"}, 3, 3)
    assert SeqSet((word, x, b)).start_plan == ({"b"}, 2, None)
    # a nested sequence led by a variable counts by its widths, like a variable
    assert SeqSet((SeqSet((money, a)), b)).start_plan == ({"b"}, 3, 3)
    # no anchor, or one that is not a sequence's child: any start
    assert Variable("x").start_plan is word.start_plan is None
    assert SeqSet((word, x)).start_plan is None
    assert AnySet((a, x)).start_plan is AndSet((a, x)).start_plan is None


def test_a_start_plan_is_made_once_and_only_when_read():
    node = SeqSet((Variable("x", TypeRef("word")), Literal("a")))
    assert "start_plan" not in vars(node) and "start_plan" not in vars(node.children[1])
    assert node.start_plan is node.start_plan
    assert "start_plan" not in vars(node.children[1])


def test_widths_and_plans_leave_equality_hash_and_repr_alone():
    node = SeqSet((Variable("x", TypeRef("word")), Literal("a")))
    twin = SeqSet((Variable("x", TypeRef("word")), Literal("a")))
    assert node.start_plan == ({"a"}, 1, 1)
    for name in ("least_width", "most_width", "start_plan"):
        object.__setattr__(twin, name, None)
        assert name not in repr(node)
    assert twin == node and hash(twin) == hash(node) and repr(twin) == repr(node)


def test_a_composite_type_holds_no_variable():
    with pytest.raises(ValueError, match="may not contain variables"):
        TypeRef("composite", parse_pattern("a $x"))
    with pytest.raises(ValueError, match="may not contain variables"):
        TypeRef("composite", parse_pattern("{a [b (c $x)]}"))
    assert TypeRef("composite", parse_pattern("{a [b (c d)]}")).pattern.most_width is None


# -- typing a pattern's variables -------------------------------------------


def test_with_types_types_every_occurrence_by_lower_cased_name():
    ast = parse_pattern("$Who met {$who [at $place]} (a $WHO)")
    typed = with_types(ast, {"who": TypeRef("word"), "place": TypeRef("time")})
    variables = []
    stack = [typed]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            variables.append((node.name, node.type_ref.kind))
        elif not isinstance(node, Literal):
            stack.extend(node.children)
    assert sorted(variables) == [("WHO", "word"), ("Who", "word"), ("place", "time"), ("who", "word")]
    assert render_pattern(typed) == render_pattern(ast) and typed != ast
    # a type keyed by any other case than lower is not looked up
    assert with_types(ast, {"Who": TypeRef("word")}) is ast


def test_with_types_leaves_literals_and_untyped_names_alone():
    ast = parse_pattern("a $x [b $y] {c}")
    typed = with_types(ast, {"y": TypeRef("number")})
    assert typed.children[0] is ast.children[0] and typed.children[3] is ast.children[3]
    assert typed.children[1] is ast.children[1]
    assert typed.children[2].children[0] is ast.children[2].children[0]
    assert typed.children[2].children[1] == Variable("y", TypeRef("number"))
    # a variable that already has a type keeps it when no type names it
    assert with_types(typed, {"x": TypeRef("word")}).children[2] is typed.children[2]


def test_with_types_returns_the_node_when_nothing_changes():
    ast = parse_pattern("{obama trump} forced $org to (impose $what)")
    assert with_types(ast, {}) is ast
    assert with_types(ast, {"other": TypeRef("word")}) is ast
    assert with_types(ast, {"org": TypeRef("untyped")}) is ast
    typed = with_types(ast, {"org": TypeRef("word")})
    assert typed is not ast
    assert with_types(typed, {"org": TypeRef("word")}) is typed
    literal = Literal("a")
    assert with_types(literal, {"a": TypeRef("word")}) is literal
