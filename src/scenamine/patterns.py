"""Pattern expression language: AST, parser and canonical renderer.

A pattern is built from plain tokens, quoted phrases and three kinds of
nested collections: alternatives framed with braces ``{red green}``,
unordered conjunctions framed with parentheses ``(a b)`` and ordered
sequences framed with brackets ``[a b]``.  ``$name`` marks a variable
slot to be bound when the pattern is matched against text.  Top-level
whitespace-separated elements form an implicit sequence.  One walk
renders a pattern as canonical text, which parses back to an equal
pattern, or filled with bound values, as an event's text; ``filled_template``
makes that walk once per pattern, leaving only the values to put in.

A variable carries its type (``TypeRef``); ``with_types`` types a
pattern's variables by name, and a composite type may hold no variable.
Each node also carries what the matcher derives from it, once when it is
built: ``required_literals``, the token norms that every match contains;
``first_norms``, the norms a match can start on (``None`` when it can
start on any token); ``least_width``, the fewest tokens a match spans; and
``most_width``, the most non-article tokens it can span (``None`` when
unbounded).  A literal also keeps its token's norm.  A node searched from
the top also keeps its ``start_plan``, made from these at its first
search.  None of these takes part in equality, hashing or repr.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .tokens import take_token, tokenize

ATOMIC_TYPES = ("word", "time", "number", "money")

# Typographic quotes are folded to their ASCII forms before lexing.
_QUOTE_FOLD = str.maketrans({"‘": "'", "’": "'", "“": '"', "”": '"'})

_OPEN = {"{": "any", "(": "and", "[": "seq"}
_CLOSE = {"}": "{", ")": "(", "]": "["}
# a literal holding one of these renders quoted; the typographic quotes
# count, since the parser folds them to ASCII ones
_STRUCTURAL = set("{}()[]$'\"").union(map(chr, _QUOTE_FOLD))
_VAR_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")
# the deepest nesting of collections a pattern may have; the renderer and
# the matcher recurse once per level
MAX_NESTING = 100


# sets a field of a frozen node; bound once, since looking up
# ``object.__setattr__`` at each field doubles the time to set it
_set = object.__setattr__


class PatternSyntaxError(ValueError):
    """Malformed pattern text; carries the byte offset of the fault."""

    def __init__(self, message: str, source: str, position: int):
        self.offset = len(source[:position].encode("utf-8"))
        super().__init__(f"{message} (byte offset {self.offset})")


@dataclass(frozen=True)
class PatternNode:
    """Base class for pattern AST nodes."""

    __slots__ = ()

    required_literals: frozenset[str] = field(init=False, repr=False, compare=False)
    first_norms: frozenset[str] | None = field(init=False, repr=False, compare=False)
    least_width: int = field(init=False, repr=False, compare=False)
    most_width: int | None = field(init=False, repr=False, compare=False)

    def _analysed(
        self, required: frozenset[str], first: frozenset[str] | None, widths: tuple[int, int | None]
    ) -> None:
        _set(self, "required_literals", required)
        _set(self, "first_norms", first)
        _set(self, "least_width", widths[0])
        _set(self, "most_width", widths[1])

    @functools.cached_property
    def start_plan(self) -> tuple[frozenset[str], int, int | None] | None:
        """(anchor norms, least width, greatest width) of the span before
        the anchor, or ``None`` when a match may start on any token.  The
        anchor is the node itself when it has first norms (widths 0), else
        the first child of a sequence that has them."""
        if self.first_norms is not None:
            return self.first_norms, 0, 0
        if not isinstance(self, SeqSet):
            return None
        least, most = 0, 0
        for child in self.children:
            if child.first_norms is not None:
                return child.first_norms, least, most
            least += child.least_width
            most = None if most is None or child.most_width is None else most + child.most_width
        return None


@dataclass(frozen=True)
class TypeRef:
    """Domain restriction for a variable: an atomic type name, a composite
    pattern, or no restriction at all."""

    kind: str  # one of ATOMIC_TYPES, "composite" or "untyped"
    pattern: PatternNode | None = None

    def __post_init__(self):
        if self.kind not in ATOMIC_TYPES + ("composite", "untyped"):
            raise ValueError(f"unknown type kind {self.kind!r}")
        if (self.kind == "composite") != (self.pattern is not None):
            raise ValueError("composite types carry a pattern, atomic types do not")
        if self.pattern is not None and list_variables(self.pattern):
            raise ValueError("type pattern may not contain variables")


UNTYPED = TypeRef("untyped")
# (least tokens, most non-article tokens) a variable of an atomic type spans;
# an untyped one has no greatest width
_WIDTHS = {"word": (1, 1), "number": (1, 1), "money": (2, 2), "time": (1, 5)}


@dataclass(frozen=True)
class Literal(PatternNode):
    token: str
    norm: str = field(init=False, repr=False, compare=False)  # the token's norm

    def __post_init__(self):
        if self.token.split() != [self.token]:  # empty, or holding a space
            raise ValueError(f"bad literal token {self.token!r}")
        _set(self, "norm", self.token.lower())
        norm = frozenset((self.norm,))
        self._analysed(norm, norm, (1, 1))


@dataclass(frozen=True)
class Variable(PatternNode):
    name: str
    type_ref: TypeRef = UNTYPED

    def __post_init__(self):
        if self.name.split() != [self.name] or self.name.startswith("$"):
            raise ValueError(f"bad variable name {self.name!r}")
        # a variable promises no literal, whatever its type; a composite
        # type spans what its pattern does
        pattern = self.type_ref.pattern
        if pattern is not None:
            self._analysed(frozenset(), None, (pattern.least_width, pattern.most_width))
        else:
            self._analysed(frozenset(), None, _WIDTHS.get(self.type_ref.kind, (1, None)))


def _coerce_children(node: PatternNode, children) -> tuple[PatternNode, ...]:
    children = tuple(children)
    if not children:
        raise ValueError(f"{type(node).__name__} requires at least one child")
    _set(node, "children", children)
    return children


def _union_required(children) -> frozenset[str]:
    return frozenset().union(*[c.required_literals for c in children])


def _union_first(children) -> frozenset[str] | None:
    firsts = [c.first_norms for c in children]
    if None in firsts:
        return None
    return frozenset().union(*firsts)


@dataclass(frozen=True)
class AnySet(PatternNode):
    children: tuple[PatternNode, ...]

    def __post_init__(self):
        kids = _coerce_children(self, self.children)
        required = frozenset.intersection(*[c.required_literals for c in kids])
        most = [c.most_width for c in kids]  # a child without a greatest width leaves none
        widths = min([c.least_width for c in kids]), None if None in most else max(most)
        self._analysed(required, _union_first(kids), widths)


@dataclass(frozen=True)
class AndSet(PatternNode):
    children: tuple[PatternNode, ...]

    def __post_init__(self):
        kids = _coerce_children(self, self.children)
        self._analysed(_union_required(kids), _union_first(kids), (1, None))


@dataclass(frozen=True)
class SeqSet(PatternNode):
    children: tuple[PatternNode, ...]

    def __post_init__(self):
        kids = _coerce_children(self, self.children)
        most = [c.most_width for c in kids]
        widths = sum([c.least_width for c in kids]), None if None in most else sum(most)
        self._analysed(_union_required(kids), kids[0].first_norms, widths)


_SET_TYPES = {"any": AnySet, "and": AndSet, "seq": SeqSet}


def _lex_phrase(source: str, start: int, quote: str) -> tuple[PatternNode, int]:
    end = source.find(quote, start + 1)
    if end < 0:
        raise PatternSyntaxError("unterminated quote", source, start)
    parts = tokenize(source[start + 1 : end])
    if not parts:
        raise PatternSyntaxError("empty quoted phrase", source, start)
    literals = [Literal(t.surface) for t in parts]
    if len(literals) == 1:
        return literals[0], end + 1
    return SeqSet(tuple(literals)), end + 1


def parse_pattern(source: str) -> PatternNode:
    """Parse pattern text into an AST.

    A single top-level element is returned directly; several top-level
    elements become a sequence.  Raises PatternSyntaxError on unbalanced
    delimiters, empty collections, bare ``$`` and nesting deeper than
    ``MAX_NESTING`` levels.
    """
    text = source.translate(_QUOTE_FOLD)
    if not text.strip():
        raise PatternSyntaxError("empty pattern", source, 0)
    # stack of (set kind, children, open position); "" marks top level
    stack: list[tuple[str, list[PatternNode], int]] = [("", [], 0)]
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPEN:
            if len(stack) > MAX_NESTING:
                raise PatternSyntaxError(f"nesting deeper than {MAX_NESTING} levels", source, i)
            stack.append((_OPEN[ch], [], i))
            i += 1
        elif ch in _CLOSE:
            kind, children, opened = stack.pop()
            if not kind or _OPEN[_CLOSE[ch]] != kind:
                raise PatternSyntaxError(f"unbalanced {ch!r}", source, i)
            if not children:
                raise PatternSyntaxError("empty set", source, opened)
            stack[-1][1].append(_SET_TYPES[kind](tuple(children)))
            i += 1
        elif ch in ("'", '"'):
            node, i = _lex_phrase(text, i, ch)
            stack[-1][1].append(node)
        elif ch == "$":
            j = i + 1
            while j < n and text[j] in _VAR_CHARS:
                j += 1
            if j == i + 1:
                raise PatternSyntaxError("bare '$' without variable name", source, i)
            stack[-1][1].append(Variable(text[i + 1 : j]))
            i = j
        else:
            surface, _cls, i = take_token(text, i)
            stack[-1][1].append(Literal(surface))
    if len(stack) > 1:
        raise PatternSyntaxError("unclosed delimiter", source, stack[-1][2])
    elements = stack[0][1]
    if len(elements) == 1:
        return elements[0]
    return SeqSet(tuple(elements))


@functools.cache
def _is_single_token(token: str) -> bool:
    surface, _cls, j = take_token(token, 0)
    return j == len(token) and surface == token


def _render(node: PatternNode, values: dict[str, str] | None = None, top: bool = False) -> str:
    """Canonical text, with a sequence at the ``top`` as its parts; with
    ``values``, bound variables as their text and every sequence as its parts."""
    if isinstance(node, Literal):
        if not (set(node.token) & _STRUCTURAL) and _is_single_token(node.token):
            return node.token
        quote = '"' if "'" in node.token.translate(_QUOTE_FOLD) else "'"
        return quote + node.token + quote
    if isinstance(node, Variable):
        return (values or {}).get(node.name, f"${node.name}")
    if not isinstance(node, (AnySet, AndSet, SeqSet)):
        raise TypeError(f"not a pattern node: {node!r}")
    parts = " ".join(_render(c, values) for c in node.children)
    if isinstance(node, AnySet):
        return "{" + parts + "}"
    if isinstance(node, AndSet):
        return "(" + parts + ")"
    if values is not None or (top and len(node.children) > 1):
        return parts
    if len(node.children) > 1 and all(
        isinstance(c, Literal) and "'" not in c.token.translate(_QUOTE_FOLD) and _is_single_token(c.token)
        for c in node.children
    ):
        return "'" + " ".join(c.token for c in node.children) + "'"
    return "[" + parts + "]"


def render_pattern(ast: PatternNode) -> str:
    """Render an AST back to canonical text, such that parsing the result
    reproduces a structurally equal AST.  A literal holding ``'`` or ``’``
    is quoted with ``"``; a typographic quote parses back folded, ``’`` as ``'``."""
    return _render(ast, top=True)


def render_filled(ast: PatternNode, values: dict[str, str]) -> str:
    """Render like render_pattern but substitute each variable with its
    bound text; a sequence renders as its parts without brackets."""
    return _render(ast, values)


def filled_template(ast: PatternNode) -> tuple[str, tuple[str, ...]]:
    """``render_filled`` prepared once per pattern: a ``str.format`` text with
    one ``{}`` per variable occurrence, and those variables' names in order,
    so ``text.format(*(values.get(n, "$" + n) for n in names))`` equals
    ``render_filled(ast, values)``.  Each variable is rendered between two
    marks, a character the pattern's own text does not hold."""
    plain = _render(ast, {})
    mark = next(c for c in map(chr, itertools.count()) if c not in plain)
    parts = _render(ast, {n: mark + n + mark for n in list_variables(ast)}).split(mark)
    return "{}".join(t.replace("{", "{{").replace("}", "}}") for t in parts[::2]), tuple(parts[1::2])


def with_types(node: PatternNode, types: Mapping[str, TypeRef]) -> PatternNode:
    """``node`` with each variable typed as ``types[name.lower()]`` where
    ``types`` holds its name; the node itself when no type changes."""
    if not types or isinstance(node, Literal):
        return node
    if isinstance(node, Variable):
        type_ref = types.get(node.name.lower(), node.type_ref)
        return node if type_ref == node.type_ref else Variable(node.name, type_ref)
    children = tuple([with_types(child, types) for child in node.children])
    # an unchanged child is the same object, a changed one differs in type
    return node if children == node.children else type(node)(children)


def list_variables(ast: PatternNode) -> list[str]:
    """Variable names in left-to-right first-occurrence order; the length
    of the result is the pattern's arity."""
    names: list[str] = []
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            names.append(node.name)
        elif isinstance(node, (AnySet, AndSet, SeqSet)):
            stack.extend(reversed(node.children))
    return list(dict.fromkeys(names))
