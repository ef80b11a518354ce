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
from types import MappingProxyType

from . import patterns as pat


class DefinitionError(ValueError):
    """Malformed definitions text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class ThingDefinition:
    """A named thing: its textual patterns, role slots and role types.  It
    types its patterns once, when built, by their variables' roles
    (``patterns.with_types``), and is frozen so that they stay typed by its
    roles: it holds tuples and a read-only copy of the caller's role types."""

    name: str
    patterns: tuple[pat.PatternNode, ...] = ()
    roles: tuple[str, ...] = ()
    role_types: MappingProxyType[str, pat.TypeRef] = field(default_factory=dict)

    def __post_init__(self):
        types = {role.lower(): t for role, t in self.role_types.items()}
        object.__setattr__(self, "patterns", tuple(pat.with_types(p, types) for p in self.patterns))
        object.__setattr__(self, "roles", tuple(self.roles))
        object.__setattr__(self, "role_types", MappingProxyType(dict(self.role_types)))


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


def _parse_sections(tokens: list[_Tok], line: int, name: str, draft: tuple) -> None:
    """Add the ``patterns`` and ``has`` sections of ``tokens`` to the draft of the thing ``name``."""
    _there, patterns, roles, _types = draft
    section = empty = None  # the open section, and its keyword again while it holds no item
    for kind, value in tokens:
        if kind == "comma":
            continue
        word = value.lower() if kind == "word" else None
        if section == "patterns" and kind == "str":
            patterns.append(_parse_pattern_string(value, line, name))
            empty = None
        elif section == "has" and kind == "word" and word not in _EMPTY_SECTION:
            if word not in roles:
                roles.append(word)
            empty = None
        elif empty:
            raise DefinitionError(_EMPTY_SECTION[empty], line)
        elif word in _EMPTY_SECTION:
            section = empty = word
        else:
            raise DefinitionError(f"expected 'patterns' or 'has', got {value!r}", line)
    if empty:
        raise DefinitionError(_EMPTY_SECTION[empty], line)


def _parse_is(tokens: list[_Tok], line: int, drafts: dict[str, tuple]) -> None:
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
    owners = [types for _line, _patterns, roles, types in drafts.values() if role in roles]
    if not owners:
        raise DefinitionError(f"role {role!r} was never declared in a 'has' list", line)
    for types in owners:
        types[role] = type_ref


def parse_definitions(source: str) -> list[ThingDefinition]:
    """Parse definitions text; statements about the same name accumulate
    into a single definition, built once after the last statement, which
    types its patterns (see ``ThingDefinition``).  A definition left
    without patterns is matched by its name, so the name must then parse
    as a pattern, which becomes its one pattern."""
    drafts: dict[str, tuple] = {}  # name -> (line of its first There, patterns, roles, role types)
    for tokens, line in _split_statements(source):
        words = [value.lower() if kind == "word" else None for kind, value in tokens[:3]]
        if words[0] == "there":
            if words[1:2] != ["name"]:
                raise DefinitionError("expected 'name' after 'there'", line)
            name = _read_name(tokens, 2, line)
            _parse_sections(tokens[3:], line, name, drafts.setdefault(name, (line, [], [], {})))
        elif words[0] == "name":
            name = _read_name(tokens, 1, line)
            if name not in drafts:
                raise DefinitionError(f"unknown thing {name!r}", line)
            if words[2:] != ["patterns"]:
                raise DefinitionError("expected 'patterns' in name statement", line)
            _parse_sections(tokens[2:], line, name, drafts[name])
        elif len(words) == 3 and words[0] and words[1] == "is":
            _parse_is(tokens, line, drafts)
        else:
            raise DefinitionError("unrecognized statement", line)
    return [
        ThingDefinition(name, patterns or [_parse_pattern_string(name, there, name)], roles, types)
        for name, (there, patterns, roles, types) in drafts.items()
    ]
