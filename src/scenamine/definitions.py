"""Definition statements: named things, their patterns, roles and types.

A definitions file is UTF-8 text made of ``.``-terminated statements.
Recognized forms (keywords are case-insensitive):

    There name X patterns "p1", "p2", has r1, r2.
    Name X patterns "p".
    R is T.

where X is a bare name or a quoted string, and T is an atomic type
(word, time, number, money) or a quoted composite pattern.

A statement's tokens are names (runs of ASCII letters, digits, ``_`` and
``-``), strings quoted with ``'`` or ``"`` (typographic quotes fold to
these; a string may span lines) and optional separating commas.  Space
and ``#`` comments up to the end of the line only separate tokens; any
other character is an error.  A ``.`` ends a statement, whose line is
that of its first token.  A ``patterns`` section takes strings and a
``has`` section names; a section ends at the next ``patterns`` or ``has``
or at the end of its statement, and must hold at least one item.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import patterns as pat


class DefinitionError(ValueError):
    """Malformed definitions text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class ThingDefinition:
    """A named thing: its textual patterns, role slots and role types."""

    name: str
    patterns: list[pat.PatternNode] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    role_types: dict[str, pat.TypeRef] = field(default_factory=dict)


# statement tokens: ("word", text) | ("str", content) | ("comma", ",")
_Tok = tuple[str, str]

# one match per token, told apart by Match.lastindex: a string quoted with
# " (1) or ' (2), a name (3), a comma (4), a full stop (5) or any other
# character (6), an unterminated quote included; space and comments match
# no group
_STATEMENT_TOKEN = re.compile(r"""\s+|#[^\n]*|"([^"]*)"|'([^']*)'|([A-Za-z0-9_-]+)|(,)|(\.)|(.)""")
_KIND = {1: "str", 2: "str", 3: "word", 4: "comma"}


def _split_statements(source: str) -> list[tuple[list[_Tok], int]]:
    """The statements of ``source``, each as its tokens and its line."""
    text = source.translate(pat._QUOTE_FOLD)
    statements: list[tuple[list[_Tok], int]] = []
    current: list[_Tok] = []
    line, counted = 1, 0  # the line of text[counted]
    for found in _STATEMENT_TOKEN.finditer(text):
        group = found.lastindex
        if group is None:
            continue
        if not current or group == 6:  # only a statement's start or a fault needs its line
            start = found.start()
            line += text.count("\n", counted, start)
            counted = start
        if group == 6:
            char = found[6]
            fault = "unterminated quote" if char in "'\"" else f"unexpected character {char!r}"
            raise DefinitionError(fault, line)
        if group == 5:
            if current:
                statements.append((current, stmt_line))
                current = []
            continue
        if not current:
            stmt_line = line
        current.append((_KIND[group], found[group]))
    if current:
        raise DefinitionError("statement not terminated with '.'", stmt_line)
    return statements


def _parse_pattern_string(text: str, line: int, owner: str) -> pat.PatternNode:
    try:
        return pat.parse_pattern(text)
    except pat.PatternSyntaxError as exc:
        raise DefinitionError(f"bad pattern for {owner!r}: {exc}", line) from exc


def _read_name(tokens: list[_Tok], at: int, line: int) -> str:
    if at >= len(tokens):
        raise DefinitionError("unexpected end of statement", line)
    kind, value = tokens[at]
    if kind == "comma":
        raise DefinitionError("expected a name", line)
    return value


# the error of a section left without items, by its keyword
_EMPTY_SECTION = {
    "patterns": "'patterns' without any pattern string",
    "has": "'has' without any role name",
}


def _parse_sections(tokens: list[_Tok], line: int, definition: ThingDefinition) -> None:
    """Add the ``patterns`` and ``has`` sections of ``tokens`` to ``definition``."""
    section = empty = None  # the open section, and its keyword again while it holds no item
    for kind, value in tokens:
        if kind == "comma":
            continue
        word = value.lower() if kind == "word" else None
        if section == "patterns" and kind == "str":
            definition.patterns.append(_parse_pattern_string(value, line, definition.name))
            empty = None
        elif section == "has" and kind == "word" and word not in _EMPTY_SECTION:
            if word not in definition.roles:
                definition.roles.append(word)
            empty = None
        elif empty:
            raise DefinitionError(_EMPTY_SECTION[empty], line)
        elif word in _EMPTY_SECTION:
            section = empty = word
        else:
            raise DefinitionError(f"expected 'patterns' or 'has', got {value!r}", line)
    if empty:
        raise DefinitionError(_EMPTY_SECTION[empty], line)


def _parse_is(tokens: list[_Tok], line: int, defs: dict[str, ThingDefinition]) -> None:
    role = tokens[0][1].lower()
    if len(tokens) > 3:
        raise DefinitionError("trailing tokens after type statement", line)
    kind, value = tokens[2]
    if kind == "str":
        pattern = _parse_pattern_string(value, line, role)
        try:
            type_ref = pat.TypeRef("composite", pattern)
        except ValueError:  # the pattern holds a variable
            raise DefinitionError(f"type pattern for {role!r} may not contain variables", line) from None
    else:
        if value.lower() not in pat.ATOMIC_TYPES:
            raise DefinitionError(f"unknown type {value!r}", line)
        type_ref = pat.TypeRef(value.lower())
    owners = [d for d in defs.values() if role in d.roles]
    if not owners:
        raise DefinitionError(f"role {role!r} was never declared in a 'has' list", line)
    for d in owners:
        d.role_types[role] = type_ref


def parse_definitions(source: str) -> list[ThingDefinition]:
    """Parse definitions text; statements about the same name accumulate
    into a single definition.  A definition left without patterns is
    matched by its name, so the name must then parse as a pattern, which
    becomes its one pattern.  Each pattern's variables carry their roles'
    types (``patterns.with_types``)."""
    defs: dict[str, ThingDefinition] = {}
    there_lines: dict[str, int] = {}
    for tokens, line in _split_statements(source):
        words = [value.lower() if kind == "word" else None for kind, value in tokens[:3]]
        if words[0] == "there":
            if words[1:2] != ["name"]:
                raise DefinitionError("expected 'name' after 'there'", line)
            name = _read_name(tokens, 2, line)
            there_lines.setdefault(name, line)
            _parse_sections(tokens[3:], line, defs.setdefault(name, ThingDefinition(name)))
        elif words[0] == "name":
            name = _read_name(tokens, 1, line)
            if name not in defs:
                raise DefinitionError(f"unknown thing {name!r}", line)
            if words[2:] != ["patterns"]:
                raise DefinitionError("expected 'patterns' in name statement", line)
            _parse_sections(tokens[2:], line, defs[name])
        elif len(words) == 3 and words[0] and words[1] == "is":
            _parse_is(tokens, line, defs)
        else:
            raise DefinitionError("unrecognized statement", line)
    for definition in defs.values():
        if not definition.patterns:
            definition.patterns.append(
                _parse_pattern_string(definition.name, there_lines[definition.name], definition.name)
            )
        definition.patterns[:] = [pat.with_types(p, definition.role_types) for p in definition.patterns]
    return list(defs.values())
