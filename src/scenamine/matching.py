"""Match pattern ASTs against token streams and instantiate events.

Matching is case-insensitive over token norms.  A literal consumes one
equal token; a sequence consumes its children consecutively; an
alternative set matches where any child matches, each alternative giving
its own match; a conjunctive set matches the smallest token window
covering one match of every child, in any order.  A variable consumes
the shortest non-empty span that lets the rest of the pattern match,
with every feasible span enumerated.

Inside a sequence a variable looks ahead: its spans are tried only at
ends where the next sibling can start, and when that sibling is a
literal the candidate ends come straight from the positions of the
literal's token.  So from each start a variable before a literal tries
one span per later occurrence of that literal, not one per remaining
token.  A literal child of a sequence is stepped with one token compare
per state; every other node's matches go through one memo, keyed by
(node, start, follower).

Before any search, a pattern whose required literals (the token norms
every match contains) a document lacks is skipped.  Starts are tried
only where a match can begin: at the positions of the pattern's first
norms, or, for a sequence that starts with variables, back from each
position of its anchor (the first child with first norms) by the
widths its leading children can span under the role types.  A ``word``
or ``number`` spans 1 token, ``money`` 2 and ``time`` 1 to 5, not
counting the articles a typed variable drops; an untyped or composite
variable and a conjunction have no greatest width, so then every start
up to the last anchor position less the least width is tried.  The
start plan is made once per pattern and type environment.

One ``extract_events`` call covers any number of documents: it prepares
each definition once per call and tokenizes each document once.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from . import patterns as pat
from .definitions import ThingDefinition
from .graph import Edge, GraphStore, TimeSpec, read_json
from .tokens import NUMBER, PUNCT, WORD, Token, tokenize  # noqa: F401 (re-export)

ARTICLES = {"a", "an", "the"}
CURRENCY = {"$", "€", "£"}

TypeEnv = Mapping[str, pat.TypeRef]


@dataclass(frozen=True)
class Binding:
    """A variable's reported value: surface text and its token span."""

    surface: str
    norm: str
    first: int
    last: int


@dataclass(frozen=True)
class Match:
    """One way a pattern covers tokens [first, last] with variable bindings."""

    pattern: pat.PatternNode
    first: int
    last: int
    bindings: Mapping[str, Binding] = field(default_factory=dict)


def _joined_surface(tokens: Sequence[Token], first: int, last: int) -> str:
    parts = [tokens[first].surface]
    for k in range(first + 1, last + 1):
        if tokens[k].start != tokens[k - 1].end:
            parts.append(" ")
        parts.append(tokens[k].surface)
    return "".join(parts)


def strip_articles(tokens: Sequence[Token], first: int, last: int) -> tuple[int, int]:
    """Drop leading article tokens from a span of more than one token."""
    while first < last and tokens[first].norm in ARTICLES:
        first += 1
    return first, last


_DATE_SHAPE = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{1,2}:\d{2}$")


def check_type(tokens: Sequence[Token], type_ref: pat.TypeRef, env: TypeEnv | None = None) -> bool:
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
        sub = list(tokens)
        return any(
            m.first == 0 and m.last == len(sub) - 1
            for m in match_pattern(type_ref.pattern, sub, env)
        )
    raise ValueError(f"unknown type kind {kind!r}")


class _Engine:
    def __init__(self, tokens: Sequence[Token], env: TypeEnv):
        self.tokens = tokens
        self.env = env
        self.n = len(tokens)
        self._memo: dict[tuple[int, int, int], list] = {}
        self._and_memo: dict[int, dict[int, list]] = {}
        # ascending token positions keyed by norm
        self.positions: dict[str, list[int]] = {}
        for k, token in enumerate(tokens):
            self.positions.setdefault(token.norm, []).append(k)

    # Results are lists of (end_exclusive, bindings-dict); bindings map
    # variable name -> Binding and must agree on norm for repeated names.

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
            if i < self.n and self.tokens[i].norm == node.norm:
                return [(i + 1, {})]
            return []
        if isinstance(node, pat.Variable):
            # spans from i, ending only where follow (the next sibling in a
            # sequence, if any) can start
            type_ref = self.env.get(node.name.lower(), node.type_ref)
            if isinstance(follow, pat.Literal):
                # a literal can start exactly where its token occurs
                positions = self.positions.get(follow.norm, [])
                ends = positions[bisect_right(positions, i) :]
                follow = None
            else:
                ends = range(i + 1, self.n + 1)
            out = []
            for end in ends:
                first, last = strip_articles(self.tokens, i, end - 1)
                if not check_type(self.tokens[first : last + 1], type_ref, self.env):
                    continue
                if follow is not None and not self.matches_at(follow, end):
                    continue
                binding = Binding(
                    _joined_surface(self.tokens, first, last),
                    " ".join(t.norm for t in self.tokens[first : last + 1]),
                    first,
                    last,
                )
                out.append((end, {node.name: binding}))
            return out
        if isinstance(node, pat.SeqSet):
            tokens, n = self.tokens, self.n
            states = [(i, {})]
            kids = node.children
            for k, child in enumerate(kids):
                if isinstance(child, pat.Literal):
                    # a literal step binds nothing: one token compare per state
                    norm = child.norm
                    states = [(at + 1, bound) for at, bound in states if at < n and tokens[at].norm == norm]
                else:
                    # only a variable looks ahead to its next sibling
                    after = kids[k + 1] if isinstance(child, pat.Variable) and k + 1 < len(kids) else None
                    nxt = []
                    for at, bound in states:
                        for end, more in self.matches_at(child, at, after):
                            merged = _merge(bound, more)
                            if merged is not None:
                                nxt.append((end, merged))
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
            per_child.append(found)
        by_start: dict[int, list] = {}
        for combo in product(*per_child):
            bound: dict | None = {}
            for _s, _e, more in combo:
                bound = _merge(bound, more)
                if bound is None:
                    break
            if bound is None:
                continue
            start = min(s for s, _e, _b in combo)
            end = max(e for _s, e, _b in combo)
            by_start.setdefault(start, []).append((end, bound))
        self._and_memo[id(node)] = by_start
        return by_start


def _merge(base: dict, extra: dict) -> dict | None:
    if not extra:
        return base
    merged = dict(base)
    for name, binding in extra.items():
        held = merged.get(name)
        if held is not None and held.norm != binding.norm:
            return None
        merged[name] = binding
    return merged


def _match_key(first: int, last: int, bindings: Mapping[str, Binding]):
    return (
        first,
        last,
        tuple(
            (name, b.norm, b.first, b.last) for name, b in sorted(bindings.items())
        ),
    )


# (least tokens, most non-article tokens) a variable of an atomic type spans;
# any other variable spans at least one token and has no greatest width
_WIDTHS = {"word": (1, 1), "number": (1, 1), "money": (2, 2), "time": (1, 5)}


def _width(node: pat.PatternNode, env: TypeEnv) -> tuple[int, int | None]:
    """The least number of tokens a match of ``node`` spans and the most
    non-article tokens it can span, ``None`` when that has no bound."""
    if isinstance(node, pat.Literal):
        return 1, 1
    if isinstance(node, pat.Variable):
        return _WIDTHS.get(env.get(node.name.lower(), node.type_ref).kind, (1, None))
    if isinstance(node, pat.AndSet):
        return 1, None
    widths = [_width(child, env) for child in node.children]
    greatest = [most for _least, most in widths]
    if isinstance(node, pat.AnySet):
        return min(least for least, _most in widths), None if None in greatest else max(greatest)
    return sum(least for least, _most in widths), None if None in greatest else sum(greatest)


def _start_plan(pattern: pat.PatternNode, env: TypeEnv):
    """(anchor norms, least width, greatest width) of the span before the
    anchor, or ``None`` when a match may start on any token.  The anchor is
    the pattern itself when it has first norms (widths 0), else the first
    child of a sequence that has them."""
    if pattern.first_norms is not None:
        return pattern.first_norms, 0, 0
    if not isinstance(pattern, pat.SeqSet):
        return None
    least, most = 0, 0
    for child in pattern.children:
        if child.first_norms is not None:
            return child.first_norms, least, most
        child_least, child_most = _width(child, env)
        least += child_least
        most = None if most is None or child_most is None else most + child_most
    return None


class _PlannedEnv(dict):
    """A type environment that keeps the start plan of each pattern matched
    under it, made at the pattern's first match."""

    def __init__(self, types: TypeEnv):
        super().__init__(types)
        # id(pattern) -> (pattern, plan); holding the pattern keeps its id unique
        self._plans: dict[int, tuple] = {}

    def plan(self, pattern: pat.PatternNode):
        held = self._plans.get(id(pattern))
        if held is None:
            held = self._plans[id(pattern)] = (pattern, _start_plan(pattern, self))
        return held[1]


def _starts(plan, tokens: Sequence[Token], positions: Mapping[str, list[int]]):
    """Ascending candidate starts: each anchor position less every width
    the leading span can take; the least width counts every token, the
    greatest only the tokens that are not articles."""
    if plan is None:
        return range(len(tokens))
    norms, least, most = plan
    anchors = sorted(k for norm in norms for k in positions.get(norm, ()))
    if not least:
        return anchors
    if most is None:
        return range(anchors[-1] - least + 1) if anchors else ()
    starts = set()
    for anchor in anchors:
        words = 0
        for start in range(anchor - 1, -1, -1):
            words += tokens[start].norm not in ARTICLES
            if words > most:
                break
            if anchor - start >= least:
                starts.add(start)
    return sorted(starts)


def match_pattern(
    pattern: pat.PatternNode,
    tokens: Sequence[Token],
    env: TypeEnv | None = None,
) -> list[Match]:
    """All matches of a pattern over the tokens, at every start position,
    ordered by (start, end, bindings) with duplicates removed.

    Nothing is tried when the tokens lack one of the pattern's required
    literals; otherwise only the starts of the pattern's start plan are
    tried: the positions of its first norms or, when it starts with
    variables, the positions its anchor can be reached from (see the
    module docstring).
    """
    if not isinstance(env, _PlannedEnv):
        env = _PlannedEnv(env or {})
    engine = _Engine(tokens, env)
    positions = engine.positions
    if not positions.keys() >= pattern.required_literals:
        return []
    found: dict = {}
    for start in _starts(env.plan(pattern), tokens, positions):
        for end, bound in engine.matches_at(pattern, start):
            key = _match_key(start, end - 1, bound)
            if key not in found:
                found[key] = Match(pattern, start, end - 1, dict(bound))
    return [found[key] for key in sorted(found)]


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
    is looked up once per call, and each pattern's start plan and filled
    text template (``patterns.filled_template``) are made once per call.
    """
    store.drop_mined()
    plans = [
        (
            definition,
            _PlannedEnv({role.lower(): t for role, t in definition.role_types.items()}),
            [(pattern, pat.filled_template(pattern)) for pattern in definition.patterns],
        )
        for definition in definitions
    ]
    app_ids: dict[int, int] = {}
    role_ids: dict[str, int] = {}
    created: list[int] = []
    for doc in docs:
        tokens = tokenize(doc.text)
        norms = {token.norm for token in tokens}
        for k, (definition, env, patterns) in enumerate(plans):
            app_id = app_ids.get(k)
            if app_id is None:
                app_id, ensured = ensure_definition_things(store, definition)
                app_ids[k] = app_id
                role_ids.update(ensured)
            # match_pattern already drops a pattern's own repeats
            seen_keys = set() if len(patterns) > 1 else None
            for pattern, template in patterns:
                if not pattern.required_literals <= norms:
                    continue
                for match in match_pattern(pattern, tokens, env):
                    if seen_keys is not None:
                        key = _match_key(match.first, match.last, match.bindings)
                        if key in seen_keys:
                            continue
                        seen_keys.add(key)
                    created.append(_add_event(store, app_id, doc, match, template, role_ids))
    return created


def _add_event(
    store: GraphStore, app_id: int, doc: Document, match: Match, template, role_ids: dict[str, int]
) -> int:
    form, names = template
    values = {n: b.surface for n, b in match.bindings.items()}
    text = form.format(*[values.get(n, "$" + n) for n in names])
    event_id = store.add_thing(
        "event",
        properties={"sources": doc.source, "text": text},
        times=TimeSpec.point(doc.time),
    )
    store.add_edge(Edge("is", event_id, app_id))
    for name in sorted(match.bindings):
        binding = match.bindings[name]
        role = name.lower()
        role_id = role_ids.get(role)
        if role_id is None:
            role_id = role_ids[role] = store.find_or_create("role", role)
        actor_id = store.find_or_create("actor", binding.norm)
        store.add_edge(Edge("has", event_id, actor_id, role=role))
        store.add_edge(Edge("is", actor_id, role_id))
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
    from datetime import datetime, timezone

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
    missing = {"time", "source", "text"} - set(raw)
    if missing:
        raise CorpusError(f"missing fields {sorted(missing)}", line_no)
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
