"""Definition statements: accumulation, roles, types, errors."""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenamine.cli import main
from scenamine.definitions import DefinitionError, parse_definitions
from scenamine.patterns import AnySet, Literal, SeqSet, TypeRef, Variable, parse_pattern


def test_item_quantity_cost_statement():
    source = (
        'There name item_quantity_cost patterns '
        '"On sale: $item, quantity $amount, prices $cost", has item, amount, cost. '
        "Cost is money. Amount is number. Item is word."
    )
    (definition,) = parse_definitions(source)
    assert definition.name == "item_quantity_cost"
    assert len(definition.patterns) == 1
    assert definition.roles == ("item", "amount", "cost")
    assert definition.role_types == {
        "item": TypeRef("word"),
        "amount": TypeRef("number"),
        "cost": TypeRef("money"),
    }


def test_has_list_mixes_separators():
    source = 'There name x patterns "$a $b $c", has a b, c.'
    (definition,) = parse_definitions(source)
    assert definition.roles == ("a", "b", "c")


def test_bare_definition():
    (definition,) = parse_definitions("There name person.")
    assert definition.name == "person"
    assert definition.patterns == (parse_pattern("person"),)
    assert definition.roles == ()


def test_quoted_name_definition():
    (definition,) = parse_definitions("There name \"{'john doe' 'jane roe'}\".")
    assert definition.name == "{'john doe' 'jane roe'}"
    assert parse_pattern(definition.name) == AnySet(
        (
            parse_pattern("'john doe'"),
            parse_pattern("'jane roe'"),
        )
    )


def test_patterns_accumulate_across_statements():
    defs = parse_definitions('There name x patterns "a". Name x patterns "b".')
    assert len(defs) == 1
    assert defs[0].patterns == (Literal("a"), Literal("b"))


def test_multiple_pattern_strings_in_one_statement():
    (definition,) = parse_definitions(
        'There name person. Name person patterns "john doe", "jane roe".'
    )
    assert len(definition.patterns) == 2


def test_composite_type():
    source = (
        'There name saying patterns "$person said things", has person. '
        "Person is '{John Jane Joe Joi}'."
    )
    (definition,) = parse_definitions(source)
    type_ref = definition.role_types["person"]
    assert type_ref.kind == "composite"
    assert type_ref.pattern == AnySet(
        (Literal("John"), Literal("Jane"), Literal("Joe"), Literal("Joi"))
    )


def test_composite_type_rejects_variables():
    source = (
        'There name x patterns "$who did", has who. '
        "Who is '$person digging'."
    )
    with pytest.raises(DefinitionError, match="variables"):
        parse_definitions(source)


def test_role_type_statement_is_case_insensitive():
    source = 'There name x patterns "$cost", has cost. Cost is money.'
    (definition,) = parse_definitions(source)
    assert definition.role_types["cost"] == TypeRef("money")


def test_each_pattern_variable_carries_its_roles_type():
    source = (
        'There name sale patterns "$Item costs $cost", "$who sold $item", has item, cost, who. '
        "Item is word. Cost is money."
    )
    (definition,) = parse_definitions(source)
    word, money = TypeRef("word"), TypeRef("money")
    assert definition.patterns == (
        SeqSet((Variable("Item", word), Literal("costs"), Variable("cost", money))),
        SeqSet((Variable("who"), Literal("sold"), Variable("item", word))),
    )


def test_type_for_undeclared_role_errors_with_name():
    with pytest.raises(DefinitionError, match="doing"):
        parse_definitions("There name x. Doing is word.")


def test_unknown_statement_reports_line():
    with pytest.raises(DefinitionError, match="line 3"):
        parse_definitions("There name x.\n# fine\ncompletely bogus words here.")


def test_unknown_type_rejected():
    with pytest.raises(DefinitionError, match="gold"):
        parse_definitions('There name x patterns "$c", has c. C is gold.')


def test_name_statement_requires_existing_thing():
    with pytest.raises(DefinitionError, match="ghost"):
        parse_definitions('Name ghost patterns "a".')


def test_comments_and_blank_lines():
    source = """
    # leading comment
    There name a patterns "one".   # trailing statement comes next
    There name b.
    """
    defs = parse_definitions(source)
    assert [d.name for d in defs] == ["a", "b"]


def test_typographic_quotes_in_definitions():
    source = "There name person. Name person patterns “{‘john doe’ ‘jane roe’}”."
    (definition,) = parse_definitions(source)
    assert definition.patterns[0] == parse_pattern("{'john doe' 'jane roe'}")


def test_role_type_applies_to_every_declaring_definition():
    source = (
        'There name one patterns "$person smiles", has person. '
        'There name two patterns "$person waves", has person. '
        "Person is word."
    )
    defs = parse_definitions(source)
    assert all(d.role_types["person"] == TypeRef("word") for d in defs)


def test_hyphenated_names():
    (definition,) = parse_definitions(
        'There name enter-on-red patterns "$person enters on red", has person.'
    )
    assert definition.name == "enter-on-red"
    assert definition.patterns[0].children[0] == Variable("person")


def test_unterminated_statement_errors():
    with pytest.raises(DefinitionError, match="terminated"):
        parse_definitions("There name x")


def test_bad_pattern_inside_definition_names_line():
    with pytest.raises(DefinitionError, match="line 2"):
        parse_definitions('There name ok.\nName ok patterns "{unbalanced".')


def test_name_only_definition_must_parse_as_a_pattern():
    with pytest.raises(DefinitionError, match=r"line 2: bad pattern for '\(a'"):
        parse_definitions('There name ok.\nThere name "(a".\nThere name "(a".')
    (definition,) = parse_definitions('There name "(a".\nName "(a" patterns "x".')
    assert definition.patterns == (parse_pattern("x"),)


# the example of README's pattern language section, and one document per definition
README_DEFINITIONS = """\
There name sanctions patterns
  "{obama trump} {forced suggested} $organization to {impose implement apply} sanctions against $target",
  has organization, target.
There name sale patterns "On sale: $item, quantity $amount, prices $cost",
  has item, amount, cost.
Cost is money. Amount is number. Item is word.
"""
README_CORPUS = "".join(
    json.dumps({"time": t, "source": "news", "text": text}) + "\n"
    for t, text in enumerate([
        "Obama forced the EU to impose sanctions against Russia",
        "On sale: apples, quantity 12, prices $3.50",
    ], start=1)
)

_EDIT_CHARS = st.sampled_from(list("{}()[]'\"$.,:- \naz09"))


@st.composite
def _edited_definitions(draw):
    """The README definitions after 1-3 single-character inserts, deletes or
    replacements, weighted towards the pattern language's delimiters."""
    text = README_DEFINITIONS
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text) - 1))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        char = "" if edit == "delete" else draw(_EDIT_CHARS)
        text = text[:at] + char + text[at + (edit != "insert"):]
    return text


def _extract(text: str) -> tuple[int, str, str]:
    """Run extract on the README corpus with these definitions: exit code,
    stdout, stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        defs, corpus = os.path.join(tmp, "defs.txt"), os.path.join(tmp, "corpus.jsonl")
        with open(defs, "w", encoding="utf-8") as fp:
            fp.write(text)
        with open(corpus, "w", encoding="utf-8") as fp:
            fp.write(README_CORPUS)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["extract", "--definitions", defs, "--corpus", corpus])
    return code, out.getvalue(), err.getvalue()


def test_readme_definitions_extract_one_event_each():
    code, out, _ = _extract(README_DEFINITIONS)
    assert code == 0
    assert json.loads(out)["per_definition"] == {"sale": 1, "sanctions": 1}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_edited_definitions())
def test_fuzzed_definitions_parse_or_fail_cleanly(text):
    """An edited definitions file parses or raises DefinitionError, never
    another exception; extract exits 0 when it parses, else 1 with one
    scenamine: line."""
    try:
        parse_definitions(text)
        parsed = True
    except DefinitionError:
        parsed = False
    code, _, err = _extract(text)
    assert code == (0 if parsed else 1)
    if code:
        assert err.startswith("scenamine:") and err.count("\n") == 1


# one input per DefinitionError message, each failing past line 1 where the
# message can: (text, line, message)
_DEFINITION_ERRORS = [
    ("There name x.\n'open", 2, "unterminated quote"),
    ("There name x.\nThere name y;", 2, "unexpected character ';'"),
    ("There name x.\n\nThere name\ny", 3, "statement not terminated with '.'"),
    ('There name x.\nName x patterns "{a".', 2, "bad pattern for 'x': unclosed delimiter (byte offset 0)"),
    ("There name x.\nThere name.", 2, "unexpected end of statement"),
    ("There name x.\nName.", 2, "unexpected end of statement"),
    ("There name x.\nThere name, x.", 2, "expected a name"),
    ("There name x.\nName , x.", 2, "expected a name"),
    ("There name x.\nThere x.", 2, "expected 'name' after 'there'"),
    ('There name x.\nName y patterns "a".', 2, "unknown thing 'y'"),
    ('There name x.\nName x has r.', 2, "expected 'patterns' in name statement"),
    ('There name x.\nName x, patterns "a".', 2, "expected 'patterns' in name statement"),
    ("There name x.\nName x.", 2, "expected 'patterns' in name statement"),
    ("There name x.\nThere name y patterns.", 2, "'patterns' without any pattern string"),
    ("There name x.\nThere name y has.", 2, "'has' without any role name"),
    ('There name x.\nThere name y "a".', 2, "expected 'patterns' or 'has', got 'a'"),
    ('There name x.\nThere name y patterns "a" Extra.', 2, "expected 'patterns' or 'has', got 'Extra'"),
    ('There name x.\nThere name y has r "a".', 2, "expected 'patterns' or 'has', got 'a'"),
    ('There name x has r.\nR is word money.', 2, "trailing tokens after type statement"),
    ('There name x has r.\nR is "$y z".', 2, "type pattern for 'r' may not contain variables"),
    ('There name x has r.\nR is gold.', 2, "unknown type 'gold'"),
    ('There name x has r.\nR is ,.', 2, "unknown type ','"),
    ("There name x has r.\nS is word.", 2, "role 's' was never declared in a 'has' list"),
    ("There name x.\n\"x\" is word.", 2, "unrecognized statement"),
    # an empty section is reported before the word that ends it
    ("There name x.\nThere name y patterns extra.", 2, "'patterns' without any pattern string"),
    ('There name x.\nThere name y has "a".', 2, "'has' without any role name"),
    ('There name x.\nThere name y patterns, has r.', 2, "'patterns' without any pattern string"),
    ('There name x.\nThere name y has, patterns "a".', 2, "'has' without any role name"),
]


@pytest.mark.parametrize("text, line, message", _DEFINITION_ERRORS)
def test_each_definition_error_names_its_line_and_fault(text, line, message):
    with pytest.raises(DefinitionError) as caught:
        parse_definitions(text)
    assert caught.value.line == line
    assert str(caught.value) == f"line {line}: {message}"


def test_statement_tokens_and_their_lines():
    """Names, strings in either quote, commas and comments; a string may
    span lines, and a statement's line is that of its first token."""
    source = (
        "# comment, with 'quotes' and a full stop.\n"
        "There name a-1_B patterns 'x', \"y\"\n"
        "  has  r,,s. . There name 'two\nlines'.\n"
        "Name 'two\nlines' patterns \"{a\".\n"
    )
    with pytest.raises(DefinitionError) as caught:
        parse_definitions(source)
    assert str(caught.value).startswith(r"line 5: bad pattern for 'two\nlines': ")
    first, second = parse_definitions(source.rsplit("Name", 1)[0])
    assert (first.name, first.patterns, first.roles) == ("a-1_B", (Literal("x"), Literal("y")), ("r", "s"))
    assert second.name == "two\nlines"
