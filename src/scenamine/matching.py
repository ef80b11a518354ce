"""Match pattern ASTs against token streams and instantiate events.

Matching is case-insensitive over token norms.  A literal consumes one
equal token; a sequence consumes its children consecutively; an
alternative set matches where any child matches, each alternative giving
its own match; a conjunctive set matches each combination of one match
per child, in any order, spanning from the earliest child start to the
latest child end, and its children may overlap.  A variable consumes
the shortest non-empty span that lets the rest of the pattern match,
with every feasible span enumerated.  Past the articles a typed variable
drops, a ``word`` or ``number`` spans 1 token, ``money`` 2, ``time`` 1
to 5 and a composite what its pattern spans; untyped variables and
conjunctions have no greatest width.  A composite type is checked on the
span left after those articles, so a type that starts with an article,
such as ``"the bureau"``, never matches.

From each start a variable tries only the ends within its width, and in
a sequence only those where the next sibling can start, for a literal
straight from the positions of its token.  A literal child of a
sequence is stepped with one token compare per state; every other
node's matches go through one memo, keyed by (node, start, follower).

Before any search, a pattern whose required literals (the token norms
every match contains) a document lacks is skipped.  Starts are tried
only where a match can begin: at the positions of the pattern's first
norms, or, for a sequence that starts with variables, back from each
position of its anchor (the first child with first norms) by the widths
its leading children can span, or, when those have no bound, at every
start up to the last anchor position less their least width; one anchor
norm's positions and each anchor's range of starts need no sort.  A lone
match is neither keyed nor sorted.
``MatchLimitError`` stops more than ``MAX_MATCHES`` matches of a pattern
in one document, or child combinations of a conjunction, or partial
matches of a sequence.

A variable carries its own type and each node its widths and, once
searched from the top, its start plan (see ``patterns``).
``parse_definitions`` types each pattern by its definition's roles, and
``extract_events`` types it again for a definition built by hand, which
leaves a parsed pattern as it is.  Each document's tokens, norms and
norm -> positions index are built once, in one walk of its tokens, for
the literal skip and every pattern's search; a ``match_pattern`` call
makes only its memo.  Inside the search a binding is its (first, end)
token span and a repeated name must span equal norms; ``Binding`` strings
are built only for the matches reported.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import product
from math import prod
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import patterns as pat
from .definitions import ThingDefinition
from .graph import Edge, GraphStore, TimeSpec, read_json
from .tokens import NUMBER, PUNCT, WORD, Token, tokenize  # noqa: F401 (re-export)

ARTICLES = {"a", "an", "the"}
CURRENCY = {"$", "€", "£"}
_FIELDS = frozenset({"time", "source", "text"})  # the fields every corpus line holds

# the most matches of a pattern, or partial matches of its parts, in one document
MAX_MATCHES = 100_000
_new, _norm_of = tuple.__new__, itemgetter(1)  # a token's norm, through no Python-level call


class MatchLimitError(ValueError):
    """A pattern has more than ``MAX_MATCHES`` matches in one document."""


def _bounded(count: int) -> None:
    if count > MAX_MATCHES:
        raise MatchLimitError(f"more than {MAX_MATCHES:,} matches or partial matches (matching.MAX_MATCHES)")


class Binding(NamedTuple):
    """A variable's reported value: surface text and its token span."""

    surface: str
    norm: str
    first: int
    last: int


class Match(NamedTuple):
    """One way a pattern covers tokens [first, last] with variable bindings."""

    pattern: pat.PatternNode
    first: int
    last: int
    bindings: Mapping[str, Binding] = MappingProxyType({})


_DATE_SHAPE = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{1,2}:\d{2}$")


def check_type(tokens: Sequence[Token], type_ref: pat.TypeRef) -> bool:
    """Decide whether a token slice is admissible for a type."""
    if not tokens:
        return False
    kind = type_ref.kind
    if kind == "untyped":
        return True
    if kind == "word":
        return len(tokens) == 1 and tokens[0].cls == WORD
    if kind == "number":
        return len(tokens) == 1 and tokens[0].cls == NUMBER
    if kind == "money":
        return (
            len(tokens) == 2
            and tokens[0].cls == PUNCT
            and tokens[0].surface in CURRENCY
            and tokens[1].cls == NUMBER
        )
    if kind == "time":
        if len(tokens) == 1 and tokens[0].cls == NUMBER:
            return True
        # date and clock shapes arrive split into several adjacent tokens
        contiguous = all(
            tokens[k].start == tokens[k - 1].end for k in range(1, len(tokens))
        )
        joined = "".join(t.surface for t in tokens)
        return contiguous and bool(_DATE_SHAPE.match(joined))
    if kind == "composite":
        last = len(tokens) - 1
        return any(m.first == 0 and m.last == last for m in match_pattern(type_ref.pattern, tokens))
    raise ValueError(f"unknown type kind {kind!r}")


class _Text(list):
    """A document's tokens with what every pattern's search reads of them,
    built once: each token's norm, the ascending positions of each norm
    and, at the first multi-token binding, each token's surface after the
    space, if any, that precedes it."""

    __slots__ = ("norms", "positions", "_spaced")

    def __init__(self, tokens: Sequence[Token]):
        super().__init__(tokens)
        self.norms = norms = list(map(_norm_of, self))
        self.positions = positions = {}
        for k, norm in enumerate(norms):
            positions.setdefault(norm, []).append(k)
        self._spaced: list[str] | None = None

    def binding(self, first: int, end: int) -> Binding:
        """Tokens [first, end) as a reported binding."""
        if end - first == 1:
            token = self[first]
            return _new(Binding, (token.surface, token.norm, first, first))
        if self._spaced is None:
            self._spaced = [""] + [" " * (a.end != b.start) + b.surface for a, b in zip(self, self[1:])]
        surface = self[first].surface + "".join(self._spaced[first + 1 : end])
        return _new(Binding, (surface, " ".join(self.norms[first:end]), first, end - 1))


class _Engine:
    def __init__(self, tokens: _Text):
        self.tokens = tokens
        self.norms = tokens.norms
        self.n = len(tokens)
        self._memo: dict[tuple[int, int, int], list] = {}
        self._and_memo: dict[int, dict[int, list]] = {}

    # Results are lists of (end_exclusive, bindings-dict); bindings map a variable
    # name to its token span (first, end_exclusive); a repeated name spans equal norms.

    def matches_at(
        self, node: pat.PatternNode, i: int, follow: pat.PatternNode | None = None
    ) -> list:
        """The node's matches from ``i``, memoised by (node, start, follow)."""
        key = (id(node), i, id(follow))
        hit = self._memo.get(key)
        if hit is None:
            hit = self._compute(node, i, follow)
            self._memo[key] = hit
        return hit

    def _compute(
        self, node: pat.PatternNode, i: int, follow: pat.PatternNode | None
    ) -> list:
        if isinstance(node, pat.Literal):
            if i < self.n and self.norms[i] == node.norm:
                return [(i + 1, {})]
            return []
        if isinstance(node, pat.Variable):
            # spans from i, ending only where follow (the next sibling in a
            # sequence, if any) can start; most counts non-article tokens
            type_ref, most = node.type_ref, node.most_width
            typed = type_ref.kind != "untyped"
            if isinstance(follow, pat.Literal):
                # a literal can start exactly where its token occurs
                positions = self.tokens.positions.get(follow.norm, [])
                ends = positions[bisect_right(positions, i) :]
                follow = None
            else:
                ends = range(i + 1, self.n + 1)
            lead, out = i, []  # a span of more than one token drops its leading articles
            while lead < self.n and self.norms[lead] in ARTICLES:
                lead += 1
            for end in ends:
                first = lead if lead < end - 1 else end - 1
                if most is not None and end - first > most:
                    break  # past the type's width, as is every later end
                if typed and not check_type(self.tokens[first:end], type_ref):
                    continue
                if follow is not None and not self.matches_at(follow, end):
                    continue
                out.append((end, {node.name: (first, end)}))
            return out
        if isinstance(node, pat.SeqSet):
            norms, n = self.norms, self.n
            states = [(i, {})]
            kids = node.children
            for k, child in enumerate(kids):
                if isinstance(child, pat.Literal):
                    # a literal step binds nothing: one token compare per state, in a loop
                    # because before Python 3.12 (PEP 709) a comprehension is a function call
                    norm, stepped = child.norm, []
                    for at, bound in states:
                        if at < n and norms[at] == norm:
                            stepped.append((at + 1, bound))
                    states = stepped
                else:
                    # only a variable looks ahead to its next sibling
                    after = kids[k + 1] if isinstance(child, pat.Variable) and k + 1 < len(kids) else None
                    nxt = []
                    for at, bound in states:
                        for end, more in self.matches_at(child, at, after):
                            merged = self._merge(bound, more) if bound else more
                            if merged is not None:
                                nxt.append((end, merged))
                        _bounded(len(nxt))
                    states = nxt
                if not states:
                    return []
            return states
        if isinstance(node, pat.AnySet):
            out = []
            for child in node.children:
                out.extend(self.matches_at(child, i))
            return out
        if isinstance(node, pat.AndSet):
            return self._and_matches(node).get(i, [])
        raise TypeError(f"not a pattern node: {node!r}")

    def _merge(self, base: dict, extra: dict) -> dict | None:
        if not extra or not base:
            return extra or base
        merged = dict(base)
        norms = self.norms
        for name, span in extra.items():
            held = merged.get(name)
            if held is not None and norms[held[0] : held[1]] != norms[span[0] : span[1]]:
                return None
            merged[name] = span
        return merged

    def _and_matches(self, node: pat.AndSet) -> dict[int, list]:
        cached = self._and_memo.get(id(node))
        if cached is not None:
            return cached
        per_child = []
        for child in node.children:
            found = []
            for start in range(self.n):
                for end, bound in self.matches_at(child, start):
                    found.append((start, end, bound))
                _bounded(len(found))
            per_child.append(found)
        _bounded(prod(map(len, per_child)))
        by_start: dict[int, list] = {}
        for combo in product(*per_child):
            bound: dict | None = {}
            for _s, _e, more in combo:
                bound = self._merge(bound, more)
                if bound is None:
                    break
            if bound is None:
                continue
            start = min(s for s, _e, _b in combo)
            end = max(e for _s, e, _b in combo)
            by_start.setdefault(start, []).append((end, bound))
        self._and_memo[id(node)] = by_start
        return by_start


def _match_key(match: Match):
    return (
        match.first,
        match.last,
        tuple([(name, b.norm, b.first, b.last) for name, b in sorted(match.bindings.items())]),
    )


def _starts(plan, text: _Text):
    """Ascending candidate starts: each anchor position less every width
    the leading span can take; the least width counts every token, the
    greatest only the tokens that are not articles.  An anchor's starts are
    one range, and both its ends rise with the anchor: no sort is needed."""
    if plan is None:
        return range(len(text))
    firsts, least, most = plan
    if len(firsts) == 1:  # one norm's positions are already ascending
        (norm,) = firsts
        anchors = text.positions.get(norm, ())
    else:
        anchors = sorted(k for norm in firsts for k in text.positions.get(norm, ()))
    if not least:
        return anchors
    if most is None:
        return range(anchors[-1] - least + 1) if anchors else ()
    norms, starts = text.norms, []
    for anchor in anchors:
        lowest, words = anchor, 0
        while lowest:
            words += norms[lowest - 1] not in ARTICLES
            if words > most:
                break
            lowest -= 1
        starts += range(max(lowest, starts[-1] + 1) if starts else lowest, anchor - least + 1)
    return starts


def match_pattern(
    pattern: pat.PatternNode,
    tokens: Sequence[Token],
    env: Mapping[str, pat.TypeRef] | None = None,
) -> list[Match]:
    """All matches of a pattern over the tokens, at every start position,
    ordered by (start, end, bindings) with duplicates removed.

    Nothing is tried when the tokens lack one of the pattern's required
    literals; otherwise only the starts of the pattern's start plan are
    tried: the positions of its first norms or, when it starts with
    variables, the positions its anchor can be reached from (see the
    module docstring).  With ``env``, each variable is first typed as
    ``env`` holds its lower-cased name (``patterns.with_types``).
    """
    if not isinstance(tokens, _Text):
        tokens = _Text(tokens)
    if not tokens.positions.keys() >= pattern.required_literals:
        return []
    typed = pat.with_types(pattern, env) if env else pattern
    engine = _Engine(tokens)
    found = []  # (first, end, bound spans)
    for start in _starts(typed.start_plan, tokens):
        here = engine.matches_at(typed, start)
        if len(here) > 1:  # alternatives can give one match twice, only from one start
            here = {(end, *sorted(bound.items())): (end, bound) for end, bound in here}.values()
        found += [(start, end, bound) for end, bound in here]
        _bounded(len(found))
    matches = [_new(Match, (pattern, start, end - 1, {name: tokens.binding(*span) for name, span in bound.items()}))
               for start, end, bound in found]
    if len(matches) > 1:
        matches.sort(key=_match_key)
    return matches


# -- event extraction ---------------------------------------------------


@dataclass(frozen=True)
class Document:
    """One corpus entry: text, its source URI and a time tick."""

    text: str
    source: str
    time: int


def ensure_definition_things(
    store: GraphStore, definition: ThingDefinition
) -> tuple[int, dict[str, int]]:
    """Find or create the appearance and role nodes for a definition;
    returns the appearance id and the role ids by role name."""
    app_id = store.find_or_create("appearance", definition.name)
    role_ids = {}
    for role in definition.roles:
        role_ids[role] = store.find_or_create("role", role)
        store.add_edge(Edge("has", app_id, role_ids[role], role=role))
    return app_id, role_ids


def extract_events(
    store: GraphStore,
    definitions: Sequence[ThingDefinition],
    *docs: Document,
) -> list[int]:
    """Create an event node for every accepted match of every definition
    in every document, in document order; returns the new event ids.

    Each event inherits from the definition's appearance, carries the
    document time, source and the filled-in pattern text, and one role
    edge per variable binding to an actor reused or created under the
    binding's normalized value.  A mined layer is dropped first, so no
    extracted edge points into it.  Each definition's appearance and
    roles are found or created once, at its first document, a role's id
    is looked up and each actor's ``is`` edge to a role sent to the store
    once per call, each pattern is typed by the definition's
    roles (``patterns.with_types``) and its filled text template
    (``patterns.filled_template``) made once per call, and each
    document's tokens and norm index once for all its patterns.
    """
    store.drop_mined()
    plans = []
    for definition in definitions:
        types = {role.lower(): t for role, t in definition.role_types.items()}
        typed = [pat.with_types(pattern, types) for pattern in definition.patterns]
        plans.append((definition, [(pattern, pat.filled_template(pattern)) for pattern in typed]))
    app_ids: dict[int, int] = {}
    role_ids: dict[str, int] = {}
    linked: set[tuple[int, int]] = set()  # (actor, role) of each is edge sent to the store
    created: list[int] = []
    for number, doc in enumerate(docs, 1):
        tokens = _Text(tokenize(doc.text))
        norms = tokens.positions.keys()
        for k, (definition, patterns) in enumerate(plans):
            app_id = app_ids.get(k)
            if app_id is None:
                app_id, ensured = ensure_definition_things(store, definition)
                app_ids[k] = app_id
                role_ids.update(ensured)
            # match_pattern already drops a pattern's own repeats
            seen_keys = set() if len(patterns) > 1 else None
            for pattern, template in patterns:
                if not norms >= pattern.required_literals:
                    continue
                try:
                    matches = match_pattern(pattern, tokens)
                except MatchLimitError as exc:
                    where = f"definition {definition.name!r}, document {number} ({doc.source!r})"
                    raise MatchLimitError(f"{where}: {exc}") from None
                for match in matches:
                    if seen_keys is not None:
                        key = _match_key(match)
                        if key in seen_keys:
                            continue
                        seen_keys.add(key)
                    created.append(_add_event(store, app_id, doc, match, template, role_ids, linked))
    return created


def _add_event(
    store: GraphStore, app_id: int, doc: Document, match: Match, template, role_ids: dict[str, int],
    linked: set[tuple[int, int]],
) -> int:
    form, names = template
    bindings = match.bindings
    text = form.format(*[bindings[n].surface if n in bindings else "$" + n for n in names])
    event_id = store.add_thing(
        "event",
        properties={"sources": doc.source, "text": text},
        times=TimeSpec.point(doc.time),
    )
    store.add_edge(("is", event_id, app_id, None, None, None))
    for name in sorted(bindings):
        binding = bindings[name]
        role = name.lower()
        role_id = role_ids.get(role)
        if role_id is None:
            role_id = role_ids[role] = store.find_or_create("role", role)
        actor_id = store.find_or_create("actor", binding.norm)
        store.add_edge(("has", event_id, actor_id, role, None, None))
        if (actor_id, role_id) not in linked:
            linked.add((actor_id, role_id))
            store.add_edge(("is", actor_id, role_id, None, None, None))
    return event_id


# -- corpus ---------------------------------------------------------------


class CorpusError(ValueError):
    """Malformed corpus line; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


def check_granularity(granularity) -> int:
    """``granularity`` if it is an integer >= 1 (not a bool), else a
    ValueError naming it; the one check of the setting."""
    if type(granularity) is not int or granularity < 1:
        raise ValueError(f"granularity must be an integer >= 1, got {granularity!r}")
    return granularity


def time_to_tick(value, granularity: int = 1):
    """Convert a corpus time value to a tick: integers pass through,
    ISO-8601 strings map to epoch seconds divided by the granularity, an
    integer >= 1."""
    check_granularity(granularity)
    if isinstance(value, bool):
        raise ValueError("time must be an integer tick or ISO-8601 string")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        text = value.replace("Z", "+00:00")
        stamp = datetime.fromisoformat(text)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return int(stamp.timestamp()) // granularity
    raise ValueError("time must be an integer tick or ISO-8601 string")


def parse_corpus_line(line: str, line_no: int, granularity: int = 1) -> Document:
    try:
        raw = read_json(line, "invalid JSON: ")
    except ValueError as exc:
        raise CorpusError(str(exc), line_no) from exc
    if not isinstance(raw, dict):
        raise CorpusError("document must be a JSON object", line_no)
    if not raw.keys() >= _FIELDS:
        raise CorpusError(f"missing fields {sorted(_FIELDS - raw.keys())}", line_no)
    try:
        tick = time_to_tick(raw["time"], granularity)
    except ValueError as exc:
        raise CorpusError(str(exc), line_no) from exc
    if not isinstance(raw["text"], str) or not isinstance(raw["source"], str):
        raise CorpusError("text and source must be strings", line_no)
    return Document(raw["text"], raw["source"], tick)


def read_corpus(fp, granularity: int = 1) -> list[Document]:
    """Read JSON-lines documents; blank lines are skipped."""
    docs = []
    for line_no, line in enumerate(fp, start=1):
        if line.strip():
            docs.append(parse_corpus_line(line, line_no, granularity))
    return docs
