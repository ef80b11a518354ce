"""Definition statements: named things, their patterns, roles and types.

A definitions file is UTF-8 text made of ``.``-terminated statements with
``#`` line comments.  Recognized forms (keywords are case-insensitive):

    There name X patterns "p1", "p2", has r1, r2.
    Name X patterns "p".
    R is T.

where X is a bare name or a quoted string, and T is an atomic type
(word, time, number, money) or a quoted composite pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .patterns import (
    ATOMIC_TYPES,
    _QUOTE_FOLD,
    PatternNode,
    PatternSyntaxError,
    TypeRef,
    list_variables,
    parse_pattern,
)

_NAME_CHARS = set(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-"
)


class DefinitionError(ValueError):
    """Malformed definitions text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass
class ThingDefinition:
    """A named thing: its textual patterns, role slots and role types."""

    name: str
    patterns: list[PatternNode] = field(default_factory=list)
    roles: list[str] = field(default_factory=list)
    role_types: dict[str, TypeRef] = field(default_factory=dict)


# statement tokens: ("word", text) | ("str", content) | ("comma", ",")
_Tok = tuple[str, str]


def _split_statements(source: str) -> list[tuple[list[_Tok], int]]:
    text = source.translate(_QUOTE_FOLD)
    statements: list[tuple[list[_Tok], int]] = []
    current: list[_Tok] = []
    line = 1
    stmt_line = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in ("'", '"'):
            end = text.find(ch, i + 1)
            if end < 0:
                raise DefinitionError("unterminated quote", line)
            if not current:
                stmt_line = line
            current.append(("str", text[i + 1 : end]))
            line += text.count("\n", i, end)
            i = end + 1
        elif ch == ".":
            if current:
                statements.append((current, stmt_line))
                current = []
            i += 1
        elif ch == ",":
            if not current:
                stmt_line = line
            current.append(("comma", ","))
            i += 1
        elif ch in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            if not current:
                stmt_line = line
            current.append(("word", text[i:j]))
            i = j
        else:
            raise DefinitionError(f"unexpected character {ch!r}", line)
    if current:
        raise DefinitionError("statement not terminated with '.'", stmt_line)
    return statements


def _parse_pattern_string(text: str, line: int, owner: str) -> PatternNode:
    try:
        return parse_pattern(text)
    except PatternSyntaxError as exc:
        raise DefinitionError(f"bad pattern for {owner!r}: {exc}", line) from exc


class _Statement:
    def __init__(self, tokens: list[_Tok], line: int):
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self) -> _Tok | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Tok:
        tok = self.peek()
        if tok is None:
            raise DefinitionError("unexpected end of statement", self.line)
        self.pos += 1
        return tok

    def skip_commas(self) -> None:
        while self.peek() and self.peek()[0] == "comma":
            self.pos += 1

    def keyword(self) -> str | None:
        tok = self.peek()
        if tok and tok[0] == "word":
            return tok[1].lower()
        return None


def _read_name(stmt: _Statement) -> str:
    kind, value = stmt.next()
    if kind == "comma":
        raise DefinitionError("expected a name", stmt.line)
    return value


def _parse_there(stmt: _Statement, defs: dict[str, ThingDefinition]) -> str:
    if stmt.keyword() != "name":
        raise DefinitionError("expected 'name' after 'there'", stmt.line)
    stmt.next()
    name = _read_name(stmt)
    definition = defs.setdefault(name, ThingDefinition(name))
    _parse_sections(stmt, definition)
    return name


def _parse_name(stmt: _Statement, defs: dict[str, ThingDefinition]) -> None:
    name = _read_name(stmt)
    if name not in defs:
        raise DefinitionError(f"unknown thing {name!r}", stmt.line)
    if stmt.keyword() != "patterns":
        raise DefinitionError("expected 'patterns' in name statement", stmt.line)
    _parse_sections(stmt, defs[name])


def _parse_sections(stmt: _Statement, definition: ThingDefinition) -> None:
    while True:
        stmt.skip_commas()
        keyword = stmt.keyword()
        if keyword is None and stmt.peek() is None:
            return
        if keyword == "patterns":
            stmt.next()
            got = False
            while True:
                stmt.skip_commas()
                tok = stmt.peek()
                if tok is None or tok[0] != "str":
                    break
                stmt.next()
                definition.patterns.append(
                    _parse_pattern_string(tok[1], stmt.line, definition.name)
                )
                got = True
            if not got:
                raise DefinitionError("'patterns' without any pattern string", stmt.line)
        elif keyword == "has":
            stmt.next()
            got = False
            while True:
                stmt.skip_commas()
                tok = stmt.peek()
                if tok is None or tok[0] != "word" or tok[1].lower() in ("patterns", "has"):
                    break
                stmt.next()
                role = tok[1].lower()
                if role not in definition.roles:
                    definition.roles.append(role)
                got = True
            if not got:
                raise DefinitionError("'has' without any role name", stmt.line)
        else:
            raise DefinitionError(
                f"expected 'patterns' or 'has', got {stmt.next()[1]!r}", stmt.line
            )


def _parse_is(stmt: _Statement, defs: dict[str, ThingDefinition]) -> None:
    role = stmt.next()[1].lower()
    stmt.next()  # "is"
    kind, value = stmt.next()
    if stmt.peek() is not None:
        raise DefinitionError("trailing tokens after type statement", stmt.line)
    if kind == "str":
        pattern = _parse_pattern_string(value, stmt.line, role)
        if list_variables(pattern):
            raise DefinitionError(
                f"type pattern for {role!r} may not contain variables", stmt.line
            )
        type_ref = TypeRef("composite", pattern)
    else:
        if value.lower() not in ATOMIC_TYPES:
            raise DefinitionError(f"unknown type {value!r}", stmt.line)
        type_ref = TypeRef(value.lower())
    owners = [d for d in defs.values() if role in d.roles]
    if not owners:
        raise DefinitionError(f"role {role!r} was never declared in a 'has' list", stmt.line)
    for d in owners:
        d.role_types[role] = type_ref


def parse_definitions(source: str) -> list[ThingDefinition]:
    """Parse definitions text; statements about the same name accumulate
    into a single definition.  A definition left without patterns is
    matched by its name, so the name must then parse as a pattern, which
    becomes its one pattern."""
    defs: dict[str, ThingDefinition] = {}
    there_lines: dict[str, int] = {}
    for tokens, line in _split_statements(source):
        stmt = _Statement(tokens, line)
        keyword = stmt.keyword()
        if keyword == "there":
            stmt.next()
            there_lines.setdefault(_parse_there(stmt, defs), line)
        elif keyword == "name":
            stmt.next()
            _parse_name(stmt, defs)
        elif (
            len(tokens) >= 3
            and tokens[0][0] == "word"
            and tokens[1][0] == "word"
            and tokens[1][1].lower() == "is"
        ):
            _parse_is(stmt, defs)
        else:
            raise DefinitionError("unrecognized statement", line)
    for definition in defs.values():
        if not definition.patterns:
            definition.patterns.append(
                _parse_pattern_string(definition.name, there_lines[definition.name], definition.name)
            )
    return list(defs.values())
