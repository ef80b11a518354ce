"""In-memory typed graph of things, relationships and time spans.

Nodes carry a kind, an optional name and scalar properties.  Edges are
inheritance (``is``), possession (``has`` with a role name), association
with time (``times``) and set membership (``member`` with a set kind of
``and``, ``seq`` or ``any``; ``seq`` members carry a contiguous order).
The store holds each edge once, in its source's out-list, as the plain
tuple (kind, src, dst, role, set_kind, order) of atomic values, which the
cyclic collector stops tracking at its first pass.  A repeated edge is
found where it lives and is a no-op: a seq member at its order in the
source's member list, any other edge by a scan of the source's out-list,
or, once that list holds ``_SCAN_LIMIT`` edges, in a set of it, so a
long set still builds in linear time.  ``Edge`` exists only at the API:
a named tuple that equals and hashes like that plain tuple, which
``add_edge`` takes as well and ``edges`` and ``in_edges`` hand out.
Time spans are normalized interval sets over an integer tick axis.
``neighbor_ids`` answers "which things of kind K does this thing link to
over edges of kind E": it selects edges by kind, role, set kind and seq
order and keeps the endpoints whose node kind is ``node_kind``;
``neighbors`` wraps those ids in a ``WeightedSet``.  Into a thing, it
and ``in_edges`` read only the E edges, from the in-edge index, edge
kind -> {thing: the edges into it}, built a kind at a time, on its first
read through ``in_index``, so an ``is`` walk builds no ``has`` or
``member`` part.  ``bindings`` gives the (role, end) pairs of a thing's
``has`` edges.  ``kind_ids`` reads the kind index, each kind's things by
id, which ``things`` reads too: a kind test is one lookup.  The interval
index is built on its first read too, the split ``is`` ends below a
thing at a time; a stored edge drops them all, a repeat none.
``alive(lo, hi)`` reads one index of every ``times`` interval, (start,
end, thing) sorted by start with a running maximum of the ends: two
bisections bound the candidates, so a time-window query costs log n plus
those, not a scan of every thing.  ``is_split`` splits a thing's ``is``
ends by direction and kind on a walk's first visit, from its own edges or
the in-edge index, so an inheritance walk visits only the things it
reaches with ``is`` ends of their own.  The whole store round-trips
through a JSON snapshot, which ``dumps`` writes as text in one pass: the
ASCII bytes ``json.dumps`` with sorted keys gives, with no tree built
for it.
Only names, ``has`` roles and properties are free text and escaped; ids,
ticks and kinds are checked ints and known words.
One path checks both live construction and a load: ``_put_thing`` a
thing, ``add_edge`` an edge's field types and fields (one table says
which fields each kind carries: a ``has`` role, a ``member`` set kind, a
``seq`` order) and ``TimeSpec`` each interval's integer ticks
(``TimeSpec.point`` its one tick).  ``loads``
checks only the JSON shape, so a store built live always loads again, a
snapshot must list each node's seq members in order (as ``dumps`` writes
them), a repeated edge is a no-op, and any fault raises ``SnapshotError``
naming it.  A load checks each item once, so its cost is linear in
things + edges + intervals.  It pauses the cyclic collector from parsing
to return and then restores it as it was, also when the load fails: a
load makes no reference cycles, which a test checks, so a collection
could free nothing and would only scan every parsed entry and new node.
A thing whose properties name an ``origin`` is mined; ``drop_mined``
removes those with their edges and time spans and replays the rest, as a
load does, so the next ids handed out are the ones mining took before.
"""

from __future__ import annotations

import gc
import json
import sys
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, Iterator, KeysView, NamedTuple

KINDS = frozenset(
    {
        "actor",
        "role",
        "appearance",
        "event",
        "situation",
        "coincidence",
        "scenario",
        "process",
        "generic",
    }
)

EDGE_KINDS = frozenset({"is", "has", "times", "member"})
_INTO_KINDS = ("is", "has", "member")  # the in-edge index's kinds, in the order ``in_edges`` lists them
SET_KINDS = frozenset({"and", "seq", "any"})


class GraphError(ValueError):
    pass


class SnapshotError(GraphError):
    """Raised when a snapshot stream cannot be loaded."""


@dataclass(frozen=True)
class TimeSpec:
    """A set of [start, end] tick intervals, stored sorted and merged.

    Intervals are over a discrete axis: two intervals whose tick sets
    touch or overlap are coalesced, so {[1,2],[3,4]} becomes [1,4] while
    {[1,1],[3,3]} keeps its gap.  Each interval is a tuple or list of two
    ``int`` ticks; ``type(...) is`` keeps bools and floats such as 1.0 out.
    """

    intervals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        intervals = self.intervals
        if len(intervals) == 1:  # most spans: one valid interval, nothing to sort or merge
            pair = intervals[0]
            if type(pair) in (tuple, list) and len(pair) == 2:
                start, end = pair
                if type(start) is int and type(end) is int and start <= end:
                    object.__setattr__(self, "intervals", ((start, end),))
                    return
        for pair in intervals:
            if not (type(pair) in (tuple, list) and len(pair) == 2
                    and type(pair[0]) is int and type(pair[1]) is int):
                raise GraphError(f"{pair!r} is not a pair of integers")
        merged: list[list[int]] = []
        for start, end in sorted(tuple(p) for p in intervals):
            if start > end:
                raise GraphError(f"bad interval [{start}, {end}]")
            if merged and start <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        object.__setattr__(self, "intervals", tuple((s, e) for s, e in merged))

    @classmethod
    def point(cls, tick: int) -> "TimeSpec":
        """The span of one tick, which is checked as the one int it is."""
        if type(tick) is not int:
            raise GraphError(f"{(tick, tick)!r} is not a pair of integers")
        spec = object.__new__(cls)
        object.__setattr__(spec, "intervals", ((tick, tick),))
        return spec

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def start(self) -> int | None:
        return self.intervals[0][0] if self.intervals else None

    @property
    def end(self) -> int | None:
        return self.intervals[-1][1] if self.intervals else None

    def contains(self, tick: int) -> bool:
        return any(s <= tick <= e for s, e in self.intervals)

    def to_json(self, store: "GraphStore") -> dict:
        """A query's answer as JSON, like ``WeightedSet.to_json``."""
        return {"intervals": [list(p) for p in self.intervals]}

    def union(self, other: "TimeSpec") -> "TimeSpec":
        return TimeSpec(self.intervals + other.intervals)

    def intersects(self, other) -> bool:
        if isinstance(other, int):
            return self.contains(other)
        if isinstance(other, tuple):
            other = TimeSpec((other,))
        return any(
            s1 <= e2 and s2 <= e1
            for s1, e1 in self.intervals
            for s2, e2 in other.intervals
        )


class Edge(NamedTuple):
    """One relationship as the API hands it out; it equals and hashes like
    the plain tuple of its fields, which is how the store holds it."""

    kind: str
    src: int
    dst: int
    role: str | None = None
    set_kind: str | None = None
    order: int | None = None


@dataclass(slots=True)
class ThingNode:
    id: int
    kind: str
    name: str | None = None
    properties: dict = field(default_factory=dict)


class WeightedSet:
    """Distinct members, each of weight 1.0: every answer is a crisp graph
    fact.  Member order is whatever the producer chose."""

    __slots__ = ("_weights",)

    def __init__(self, members: Iterable[int] = ()):
        self._weights = dict.fromkeys(members, 1.0)

    def pairs(self) -> list[tuple[int, float]]:
        return list(self._weights.items())

    def ids(self) -> list[int]:
        return list(self._weights)

    def __contains__(self, member: int) -> bool:
        return member in self._weights

    def __len__(self) -> int:
        return len(self._weights)

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return iter(self._weights.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightedSet) and sorted(self.pairs()) == sorted(
            other.pairs()
        )

    def __repr__(self) -> str:
        return f"WeightedSet({self.pairs()!r})"

    def to_json(self, store: "GraphStore") -> list[dict]:
        out = []
        for member, weight in self._weights.items():
            node = store.thing(member)
            out.append(
                {"id": node.id, "name": node.name, "kind": node.kind, "weight": weight}
            )
        return out


_SCALARS = (str, int, float, bool)

# the two escapers of ``dumps``: a JSON string in ASCII, and a properties object
_quote = json.encoder.encode_basestring_ascii


def _properties_encoder():
    """Encode a properties object as ``json.dumps`` with sorted keys does
    (scalar values only, so no cycle to look for) through one C encoder made
    once, not one per call as ``JSONEncoder.encode`` makes; without the C
    accelerator the pure encoder writes the same bytes."""
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    encode = make(None, encoder.default, _quote, None, ":", ",", True, False, True)
    return lambda properties: "".join(encode(properties, 0))


_encode_properties = _properties_encoder()

# the empty answer of ``neighbors`` and of an index lookup, shared: neither changes in place
_NOTHING, _EMPTY = WeightedSet(), {}

# a stored edge tuple as an ``Edge``, and its kind and source, each through no Python-level call
_as_edge, _kind_of, _src_of = partial(tuple.__new__, Edge), itemgetter(0), itemgetter(1)


class GraphStore:
    """Single-writer, multi-reader store of things, edges and time spans."""

    def __init__(self):
        # the defaultdicts are read only with get, so a read adds no key
        self._things: dict[int, ThingNode] = {}
        self._by_kind: defaultdict[str, dict[int, ThingNode]] = defaultdict(dict)  # the kind index: id -> thing, in id order
        self._times: dict[int, TimeSpec] = {}
        # each edge as the exact tuple (kind, src, dst, role, set_kind, order)
        self._out: dict[int, list[tuple]] = {}
        self._out_sets: dict[int, set[tuple]] = {}  # each source's out-list as a set, once it holds _SCAN_LIMIT edges
        self._by_name: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
        self._seq: defaultdict[int, list[int]] = defaultdict(list)  # each node's seq members in order
        self._mined: set[int] = set()  # things whose properties name an origin
        self._next_id = 1
        self._intervals: tuple | None = None  # starts, running max of ends, entries
        self._is: dict | None = None  # (direction, kind) -> the is ends split for it (see is_split)
        self._into: dict | None = None  # edge kind -> {thing: the edges into it}, for each kind built so far

    # -- construction -------------------------------------------------

    def add_thing(
        self,
        kind: str,
        name: str | None = None,
        properties: dict | None = None,
        times: TimeSpec | None = None,
    ) -> int:
        if times is not None and type(times) is not TimeSpec:
            raise GraphError(f"times {times!r} is not a TimeSpec")
        if kind == "event" and not times:
            raise GraphError("events require a non-empty time span")
        if properties is None or isinstance(properties, dict):  # a copy: the caller keeps its dict
            properties = dict(properties or ())
        thing_id = self._next_id
        self._put_thing(thing_id, kind, name, properties)
        self._next_id += 1
        if times is not None:
            spec_id, self._next_id = self._next_id, self._next_id + 1
            self._times[spec_id] = times
            self.add_edge(("times", thing_id, spec_id, None, None, None))
        return thing_id

    def _put_thing(self, thing_id: int, kind: str, name: str | None, properties: dict) -> None:
        """Validate one node and add it to every index."""
        if type(kind) is not str or kind not in KINDS:
            raise GraphError(f"thing {thing_id} has unknown kind {kind!r}")
        if name is not None and not isinstance(name, str):
            raise GraphError(f"thing {thing_id} name {name!r} is not a string")
        if not isinstance(properties, dict):
            raise GraphError(f"thing {thing_id} properties are not an object")
        for key, value in properties.items():
            if not isinstance(key, str):
                raise GraphError(f"thing {thing_id} property key {key!r} is not a string")
            if not isinstance(value, _SCALARS):
                raise GraphError(f"thing {thing_id} property {key!r} is not a scalar")
        node = ThingNode(thing_id, kind, name, properties)
        self._things[thing_id] = node
        self._by_kind[kind][thing_id] = node
        self._out[thing_id] = []
        if name is not None:
            self._by_name[kind, name].append(thing_id)
        if "origin" in properties:
            self._mined.add(thing_id)

    def add_edge(self, edge: Edge | tuple) -> None:
        """Check one edge, an ``Edge`` or the plain tuple of its fields, and hold it as that tuple in its
        source's out-list, dropping the indexes built on the edges; a seq member without an order gets
        the next.  A repeat is a no-op, found where the edge lives: a seq member at its order in the
        source's member list, any other edge in the out-list, scanned below ``_SCAN_LIMIT`` edges and
        looked up in a set of it from there on."""
        kind, src, dst, role, set_kind, order = edge
        if not (type(kind) is str and type(src) is int and type(dst) is int
                and (role is None or type(role) is str) and (set_kind is None or type(set_kind) is str)
                and (order is None or type(order) is int)):
            raise _edge_type_error(Edge(kind, src, dst, role, set_kind, order))
        if kind not in EDGE_KINDS:
            raise GraphError(f"unknown edge kind {kind!r}")
        out = self._out.get(src)
        if out is None:
            raise GraphError(f"dangling edge source {src}")
        if kind == "times":
            if dst not in self._times:
                raise GraphError(f"dangling time span {dst}")
        elif dst not in self._things:
            raise GraphError(f"dangling edge target {dst}")
        if kind == "has" and not role:
            raise GraphError(f"has edge {src} -> {dst} needs a role name")
        seq = None
        if kind == "member":
            if set_kind not in SET_KINDS:
                raise GraphError(f"bad set kind {set_kind!r}")
            if set_kind == "seq":
                seq = self._seq.get(src, ())
                if order is None:
                    order = len(seq)
                    edge = (kind, src, dst, role, set_kind, order)
        # the checks above set each field the kind carries, so any other is one it does not
        present = (role is not None) + (set_kind is not None) + (order is not None)
        if present and present != len(_EDGE_EXTRAS.get((kind, set_kind), ())):
            raise GraphError(f"{Edge(kind, src, dst, role, set_kind, order)} carries a field its kind does not")
        if type(edge) is not tuple:  # an Edge: held as the exact tuple
            edge = (kind, src, dst, role, set_kind, order)
        if seq is not None:
            if order != len(seq):
                if 0 <= order < len(seq) and seq[order] == dst:
                    return
                raise GraphError(
                    f"seq order {order} breaks contiguity: orders of {src} "
                    f"are not contiguous from 0 (expected {len(seq)})"
                )
            self._seq[src].append(dst)
        elif len(out) < _SCAN_LIMIT:
            if edge in out:
                return
        else:
            seen = self._out_sets.get(src)
            if seen is None:
                seen = self._out_sets[src] = set(out)
            if edge in seen:
                return
            seen.add(edge)
        self._intervals = self._is = self._into = None
        out.append(edge)

    def find_by_name(self, kind: str, name: str) -> list[int]:
        return list(self._by_name.get((kind, name), []))

    def find_or_create(
        self, kind: str, name: str, properties: dict | None = None
    ) -> int:
        """The first thing of this kind and name, else one made with these properties."""
        existing = self._by_name.get((kind, name))
        if existing:
            return existing[0]
        return self.add_thing(kind, name, properties)

    def drop_mined(self) -> None:
        """Remove every mined thing with each edge that touches it and its
        time spans, replaying the rest through ``_put_thing`` and
        ``add_edge`` as ``loads`` does; seq orders close up over what is
        gone.  Without mined things, nothing changes."""
        mined = self._mined
        if not mined:
            return
        things = [t for t in self.things() if t.id not in mined]
        edges = [e for src, out in self._out.items() if src not in mined for e in out if e[2] not in mined]
        dropped = {e[2] for m in mined for e in self._out[m] if e[0] == "times"}
        dropped -= {e[2] for e in edges if e[0] == "times"}
        times = {i: span for i, span in self._times.items() if i not in dropped}
        GraphStore.__init__(self)
        self._times.update(times)
        for t in things:
            self._put_thing(t.id, t.kind, t.name, t.properties)
        for e in edges:
            self.add_edge(e if e[5] is None else e[:5] + (None,))
        self._next_id = self._first_free_id()

    def _first_free_id(self) -> int:
        return max([*self._things, *self._times], default=0) + 1

    # -- access -------------------------------------------------------

    def thing(self, thing_id: int) -> ThingNode:
        try:
            return self._things[thing_id]
        except KeyError:
            raise GraphError(f"unknown thing {thing_id}") from None

    def __contains__(self, thing_id: int) -> bool:
        return thing_id in self._things

    def things(self, kind: str | None = None) -> list[ThingNode]:
        """Things of one kind, or all things, in id order."""
        if kind is None:
            return sorted(self._things.values(), key=lambda t: t.id)
        return list(self._by_kind.get(kind, {}).values())

    def kind_ids(self, kind: str) -> KeysView[int]:
        """The ids of the things of a kind from the kind index, a set-like
        view for membership tests."""
        return self._by_kind.get(kind, _EMPTY).keys()

    def edges(self) -> list[Edge]:
        return [_as_edge(e) for edges in self._out.values() for e in edges]

    def in_edges(self, thing_id: int) -> list[Edge]:
        """The edges into a thing, from the in-edge index: ``is``, then ``has``, then
        ``member`` edges, each kind's by source in store order, then in edge order."""
        thing_id = self.thing(thing_id).id
        return [_as_edge(e) for kind in _INTO_KINDS for e in self.in_index(kind).get(thing_id, ())]

    def bindings(self, thing_id: int, node_kind: str) -> list[tuple[str, int]]:
        """(role, end) of each ``has`` edge out of a thing whose end is of
        ``node_kind``, in edge order."""
        things = self._things
        return [(role, dst) for kind, _, dst, role, _, _ in self._out[self.thing(thing_id).id]
                if kind == "has" and things[dst].kind == node_kind]

    def times_of(self, thing_id: int) -> TimeSpec | None:
        spec: TimeSpec | None = None
        for e in self._out[self.thing(thing_id).id]:  # (kind, src, dst, ...)
            if e[0] == "times":
                ts = self._times[e[2]]
                spec = ts if spec is None else spec.union(ts)
        return spec

    def neighbor_ids(
        self,
        thing_id: int,
        kind: str | None = None,
        direction: str = "out",
        role: str | None = None,
        set_kind: str | None = None,
        node_kind: str | None = None,
        order: int | None = None,
    ) -> list[int]:
        """Distinct endpoints over matching edges (never time spans), in id order."""
        self.thing(thing_id)
        if direction not in ("out", "in"):
            raise GraphError(f"bad direction {direction!r}")
        out = direction == "out"
        edges = (self._out[thing_id] if out else self.in_edges(thing_id) if kind is None
                 else self.in_index(kind).get(thing_id, ()))
        things = self._things
        ends = []
        for e in edges:  # (kind, src, dst, role, set_kind, order)
            if (
                (kind is None or e[0] == kind)
                and e[0] != "times"
                and (role is None or e[3] == role)
                and (set_kind is None or e[4] == set_kind)
                and (order is None or e[5] == order)
            ):
                other = e[2] if out else e[1]
                if node_kind is None or things[other].kind == node_kind:
                    ends.append(other)
        return sorted(set(ends)) if len(ends) > 1 else ends

    def neighbors(self, thing_id: int, kind: str | None = None, direction: str = "out", role: str | None = None,
                  set_kind: str | None = None, node_kind: str | None = None) -> WeightedSet:
        """``neighbor_ids`` as a crisp ``WeightedSet``, each weight 1.0."""
        ids = self.neighbor_ids(thing_id, kind, direction, role, set_kind, node_kind)
        return WeightedSet(ids) if ids else _NOTHING

    def alive(self, lo: int, hi: int) -> list[int]:
        """Ids of the things alive in [lo, hi], in id order, from the index."""
        if lo > hi:
            raise GraphError(f"bad interval [{lo}, {hi}]")
        if self._intervals is None:
            entries = sorted(
                (start, end, src)
                for edges in self._out.values()
                for kind, src, dst, _, _, _ in edges
                if kind == "times"
                for start, end in self._times[dst].intervals
            )
            reach = accumulate((end for _, end, _ in entries), max)
            self._intervals = ([s for s, _, _ in entries], list(reach), entries)
        starts, reach, entries = self._intervals
        hits = entries[bisect_left(reach, lo) : bisect_right(starts, hi)]
        return sorted({thing for _, end, thing in hits if end >= lo})

    def is_split(self, direction: str, kind: str) -> tuple[dict, Callable[[int], tuple]]:
        """The ``is`` ends of a direction split for a kind: thing -> ({inner end, one with ``is``
        ends of its own: whether it is of ``kind``}, {leaf end of ``kind``: 1.0} in id order)
        for each thing split so far, and ``_split`` to add one."""
        if self._is is None:
            self._is = {}
        pair = self._is.get((direction, kind))
        if pair is None:
            if direction not in ("out", "in"):
                raise GraphError(f"bad direction {direction!r}")
            entries: dict[int, tuple] = {}
            self._is[direction, kind] = pair = entries, partial(self._split, direction, kind, entries)
        return pair

    def _split(self, direction: str, kind: str, entries: dict, thing_id: int) -> tuple:
        """Check a thing exists, split its ``is`` ends for ``kind``, keep its entry and return it.  An end
        is inner when it has ``is`` ends too: out, among its own edges; in, as a key of the in-edge index."""
        wanted, out = self._by_kind.get(kind, _EMPTY), self._out
        if direction == "out":
            ends = [e[2] for e in out[self.thing(thing_id).id] if e[0] == "is"]
            inner = {end: end in wanted for end in ends if "is" in map(_kind_of, out[end])}
        else:
            into = self.in_index("is")
            ends = list(map(_src_of, into.get(self.thing(thing_id).id, ())))
            inner = {end: end in wanted for end in ends if end in into}
        leaves = sorted([end for end in ends if end in wanted and end not in inner])
        entries[thing_id] = entry = (inner or _EMPTY, dict.fromkeys(leaves, 1.0) or _EMPTY)
        return entry

    def in_index(self, kind: str) -> dict[int, list[tuple]]:
        """One edge kind's part of the in-edge index (see ``in_edges``), read only: thing -> the stored edges
        of the kind into it, built in one pass over the out-edges on its first read since the last stored edge."""
        into = self._into = self._into or {}
        if kind not in into and kind in _INTO_KINDS:
            into[kind] = index = {}
            for edges in self._out.values():
                for e in edges:
                    if e[0] == kind:
                        index.setdefault(e[2], []).append(e)
        return into.get(kind, _EMPTY)

    def member_children(self, thing_id: int, set_kind: str) -> list[int]:
        """Members of a set node; seq members ordered, possibly repeating."""
        if set_kind != "seq":
            return self.neighbor_ids(thing_id, "member", set_kind=set_kind)
        return list(self._seq.get(self.thing(thing_id).id, ()))

    # -- persistence ----------------------------------------------------

    def dumps(self) -> str:
        """The snapshot text, written in one pass (see the module docstring)."""
        ordered = self.things()
        things = [
            f'{{"id":{t.id},"kind":"{t.kind}","name":{"null" if t.name is None else _quote(t.name)},'
            f'"properties":{_encode_properties(t.properties)}}}'
            for t in ordered
        ]
        edges = []
        append = edges.append
        for t in ordered:
            for kind, src, dst, role, set_kind, order in self._out[t.id]:
                if role is not None:
                    append(f'{{"from":{src},"kind":"{kind}","role":{_quote(role)},"to":{dst}}}')
                elif set_kind is None:
                    append(f'{{"from":{src},"kind":"{kind}","to":{dst}}}')
                elif order is None:
                    append(f'{{"from":{src},"kind":"{kind}","set_kind":"{set_kind}","to":{dst}}}')
                else:
                    append(f'{{"from":{src},"kind":"{kind}","order":{order},"set_kind":"{set_kind}","to":{dst}}}')
        times = []
        append = times.append
        for spec_id, spec in sorted(self._times.items()):
            intervals = spec.intervals
            if len(intervals) == 1:  # most spans
                ((start, end),) = intervals
                append(f'{{"id":{spec_id},"intervals":[[{start},{end}]]}}')
            else:
                append(f'{{"id":{spec_id},"intervals":[{",".join([f"[{s},{e}]" for s, e in intervals])}]}}')
        return f'{{"edges":[{",".join(edges)}],"things":[{",".join(things)}],"times":[{",".join(times)}]}}'

    @classmethod
    def loads(cls, data: str) -> "GraphStore":
        """The store a snapshot holds, built through the checked path with
        the cyclic collector paused (see the module docstring)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return cls._load(data)
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _load(cls, data: str) -> "GraphStore":
        try:
            raw = read_json(data, "malformed snapshot: ")
        except ValueError as exc:
            raise SnapshotError(str(exc)) from exc
        if not isinstance(raw, dict) or set(raw) != {"things", "edges", "times"}:
            raise SnapshotError("snapshot must have exactly things/edges/times")
        for section, items in raw.items():
            if not isinstance(items, list):
                raise SnapshotError(f"snapshot {section} must be a list")
        store = cls()
        things, times, put_thing, add_edge = store._things, store._times, store._put_thing, store.add_edge
        try:
            for item in raw["things"]:
                if not isinstance(item, dict) or item.keys() != _THING_FIELDS:
                    raise _fields_error(item, _THING_FIELDS, "thing")
                thing_id = item["id"]
                if type(thing_id) is not int or thing_id in things:
                    raise SnapshotError(f"bad or duplicate thing id {thing_id!r}")
                put_thing(thing_id, item["kind"], item["name"], item["properties"])
            for item in raw["times"]:
                if not isinstance(item, dict) or item.keys() != _TIME_SPAN_FIELDS:
                    raise _fields_error(item, _TIME_SPAN_FIELDS, "time span")
                spec_id = item["id"]
                if type(spec_id) is not int or spec_id in times or spec_id in things:
                    raise SnapshotError(f"bad or duplicate time span id {spec_id!r}")
                intervals = item["intervals"]
                if type(intervals) is not list:
                    raise SnapshotError(f"bad intervals for {spec_id}: {intervals!r} is not a list")
                try:
                    times[spec_id] = TimeSpec(intervals)
                except GraphError as exc:
                    raise SnapshotError(f"bad intervals for {spec_id}: {exc}") from exc
            for item in raw["edges"]:
                if not isinstance(item, dict):
                    raise SnapshotError("edge entries must be objects")
                get = item.get
                edge = (get("kind"), get("from"), get("to"), get("role"), get("set_kind"), get("order"))
                add_edge(edge)
                # add_edge refused a field the kind does not carry and the lack
                # of one it needs, a seq order aside, so the entry holds exactly
                # the kind's fields, none null, when each of its keys gave one
                # of the edge's non-None fields
                if len(item) != len(edge) - edge.count(None) or edge[5] is None and edge[4] == "seq":
                    raise _fields_error(item, _EDGE_FIELDS.get((edge[0], edge[4]), _PLAIN_EDGE_FIELDS), "edge")
        except SnapshotError:
            raise
        except GraphError as exc:
            raise SnapshotError(str(exc)) from exc
        for kind, nodes in store._by_kind.items():
            store._by_kind[kind] = dict(sorted(nodes.items()))
        for event in store._by_kind.get("event", ()):
            if not store.times_of(event):
                raise SnapshotError(f"event {event} has no time span")
        store._next_id = store._first_free_id()
        return store


# An out-list this long or longer is looked up in a set of it for a repeated edge, not scanned.
_SCAN_LIMIT = 16

# The optional fields each (kind, set kind) of edge carries, named alike
# in ``Edge`` and in a snapshot; any other pair carries none.
_EDGE_EXTRAS = {("has", None): ("role",), ("member", "and"): ("set_kind",), ("member", "any"): ("set_kind",),
                ("member", "seq"): ("set_kind", "order")}

# The fields of each snapshot entry.
_THING_FIELDS = frozenset({"id", "kind", "name", "properties"})
_TIME_SPAN_FIELDS = frozenset({"id", "intervals"})
_PLAIN_EDGE_FIELDS = frozenset({"kind", "from", "to"})
_EDGE_FIELDS = {pair: _PLAIN_EDGE_FIELDS.union(extras) for pair, extras in _EDGE_EXTRAS.items()}


def read_json(text: str, fault: str = ""):
    """``json.loads`` raising ValueError: headed by ``fault`` for bad JSON or deep nesting, plain for a long int."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{fault}{exc}") from exc
    except ValueError:  # int()'s digit limit (Python 3.10.7 on), whose text names an interpreter setting
        raise ValueError(f"an integer of more than {sys.get_int_max_str_digits():,} digits") from None


def _edge_type_error(edge: Edge) -> GraphError:
    """The first field of ``edge`` whose type is wrong, named by its snapshot
    key; ``type(...) is`` keeps bools and floats such as 1.0 out of the
    integer fields, and only role, set kind and order may be None."""
    for key, value, want in zip(("kind", "from", "to", "role", "set_kind", "order"), edge,
                                (str, int, int, str, str, int)):
        if type(value) is not want and (value is not None or key in ("kind", "from", "to")):
            fault = f"edge {key} {value!r} is not {'an integer' if want is int else 'a string'}"
            if key == "role" and edge.kind == "has":
                fault = f"has edge {edge.src} -> {edge.dst} needs a role name; {fault}"
            return GraphError(fault)


def _fields_error(item, allowed: frozenset[str], what: str) -> SnapshotError:
    """The fault of an entry that is not an object with exactly ``allowed``,
    or of an edge entry with a null field."""
    if not isinstance(item, dict):
        return SnapshotError(f"{what} entries must be objects")
    unknown = item.keys() - allowed
    if unknown:
        return SnapshotError(f"unknown {what} fields {sorted(unknown)}")
    missing = sorted(allowed - item.keys())
    nulls = sorted(key for key, value in item.items() if value is None)
    return SnapshotError(f"missing {what} fields {missing}" if missing else f"null {what} fields {nulls}")
