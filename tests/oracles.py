"""Independent oracles for the test suite.

Everything here recomputes expected results from first principles —
exhaustive span enumeration, powersets, tick sets, prefix counters —
without calling the production algorithms it checks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product

from scenamine import patterns as pat

ARTICLES = ("a", "an", "the")


# -- matcher: exhaustive alignment enumeration ------------------------------


def _strip(tokens, i, j):
    while i < j and tokens[i].norm in ARTICLES:
        i += 1
    return i, j


def _binding(tokens, name, i, j):
    i, j = _strip(tokens, i, j)
    norm = " ".join(t.norm for t in tokens[i : j + 1])
    return (name, norm, i, j)


def _merge(a: tuple, b: tuple):
    held = {name: rest for name, *rest in a}
    out = dict(held)
    for name, norm, fi, la in b:
        if name in out and out[name][0] != norm:
            return None
        out[name] = (norm, fi, la)
    return tuple(sorted((n, *v) for n, v in out.items()))


def brute_matches(pattern: pat.PatternNode, tokens) -> set:
    """All (first, last, bindings) triples the pattern can cover, found by
    checking every span against the set semantics directly.  Variables are
    treated as untyped."""
    memo: dict = {}

    def check(node, i, j) -> list[tuple]:
        key = (id(node), i, j)
        if key in memo:
            return memo[key]
        out: list[tuple] = []
        if isinstance(node, pat.Literal):
            if i == j and tokens[i].norm == node.token.lower():
                out = [()]
        elif isinstance(node, pat.Variable):
            if i <= j:
                out = [(_binding(tokens, node.name, i, j),)]
        elif isinstance(node, pat.AnySet):
            seen = set()
            for child in node.children:
                for b in check(child, i, j):
                    if b not in seen:
                        seen.add(b)
                        out.append(b)
        elif isinstance(node, pat.SeqSet):
            out = seq_check(node.children, i, j)
        elif isinstance(node, pat.AndSet):
            per_child = []
            for child in node.children:
                found = [
                    (s, e, b)
                    for s in range(i, j + 1)
                    for e in range(s, j + 1)
                    for b in check(child, s, e)
                ]
                per_child.append(found)
            seen = set()
            for combo in product(*per_child):
                if min(s for s, _e, _b in combo) != i:
                    continue
                if max(e for _s, e, _b in combo) != j:
                    continue
                merged: tuple | None = ()
                for _s, _e, b in combo:
                    merged = _merge(merged, b)
                    if merged is None:
                        break
                if merged is not None and merged not in seen:
                    seen.add(merged)
                    out.append(merged)
        else:
            raise TypeError(node)
        memo[key] = out
        return out

    def seq_check(children, i, j) -> list[tuple]:
        if not children:
            return [()] if i > j else []
        head, rest = children[0], children[1:]
        if not rest:
            return check(head, i, j)
        out = []
        seen = set()
        for k in range(i, j + 1):
            for left in check(head, i, k):
                for right in seq_check(rest, k + 1, j):
                    merged = _merge(left, right)
                    if merged is not None and merged not in seen:
                        seen.add(merged)
                        out.append(merged)
        return out

    results = set()
    n = len(tokens)
    for i in range(n):
        for j in range(i, n):
            for bindings in check(pattern, i, j):
                results.add((i, j, tuple(sorted(bindings))))
    return results


def library_match_set(matches) -> set:
    """Project library matches onto the oracle's canonical form."""
    return {
        (
            m.first,
            m.last,
            tuple(
                sorted(
                    (name, b.norm, b.first, b.last) for name, b in m.bindings.items()
                )
            ),
        )
        for m in matches
    }


# -- itemsets: powerset enumeration -----------------------------------------


def powerset_closed_itemsets(rows: list[frozenset], min_support: int) -> dict:
    """Closed frequent itemsets by scanning the full powerset of the
    observed universe."""
    universe = sorted({x for row in rows for x in row})
    supports: dict[frozenset, int] = {}
    for mask in range(1, 2 ** len(universe)):
        subset = frozenset(
            universe[b] for b in range(len(universe)) if mask >> b & 1
        )
        supports[subset] = sum(1 for row in rows if row >= subset)
    frequent = {s: n for s, n in supports.items() if n >= min_support}
    return {
        s: n
        for s, n in frequent.items()
        if not any(t > s and m == n for t, m in supports.items())
    }


# -- temporal clustering: tick sets + graph components -----------------------


def _tick_set(intervals) -> set[int]:
    return {t for s, e in intervals for t in range(s, e + 1)}


def tickset_components(events: list[tuple[int, tuple]], window: int) -> list[list[int]]:
    """Partition events (id, intervals) by the coincidence relation,
    evaluated on explicit tick sets via graph connectivity."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(e for e, _ in events)
    for idx in range(len(events)):
        for jdx in range(idx + 1, len(events)):
            a, ia = events[idx]
            b, ib = events[jdx]
            ta, tb = _tick_set(ia), _tick_set(ib)
            if ta & tb:
                g.add_edge(a, b)
                continue
            distance = min(abs(x - y) for x in ta for y in tb)
            if distance < window:
                g.add_edge(a, b)
    return sorted(sorted(c) for c in nx.connected_components(g))


# -- chains: direct maximality check ------------------------------------------


def brute_maximal_chains(
    coins: list[tuple[int, int, int, frozenset]],
    max_gap: int,
    require_shared: bool,
) -> set[tuple[int, ...]]:
    """All maximal chains (length >= 2) found by growing every possible
    chain and keeping those with no valid predecessor or successor."""
    info = {c[0]: c for c in coins}

    def ok(a: int, b: int) -> bool:
        _, sa, ea, actors_a = info[a]
        _, sb, _eb, actors_b = info[b]
        if sb <= sa:
            return False
        if sb - ea > max_gap:
            return False
        if require_shared and not (actors_a & actors_b):
            return False
        return True

    chains: list[tuple[int, ...]] = []

    def grow(chain: tuple[int, ...]) -> None:
        chains.append(chain)
        for c, *_ in coins:
            if ok(chain[-1], c):
                grow(chain + (c,))

    for c, *_ in coins:
        grow((c,))
    return {
        ch
        for ch in chains
        if len(ch) >= 2
        and not any(ok(x, ch[0]) for x, *_ in coins)
        and not any(ok(ch[-1], x) for x, *_ in coins)
    }


# -- scenarios and forks: prefix bookkeeping ----------------------------------


def prefix_counts(sequences: list[tuple]) -> Counter:
    counter: Counter = Counter()
    for seq in sequences:
        for k in range(1, len(seq) + 1):
            counter[tuple(seq[:k])] += 1
    return counter


def frequent_prefixes(sequences: list[tuple], min_support: int) -> dict:
    return {p: c for p, c in prefix_counts(sequences).items() if c >= min_support}


def scan_forks(sequences: list[tuple], epsilon: float) -> list[tuple]:
    """(prefix, ((branch, p), ...)) for every prefix whose continuations
    split into two or more nearly equiprobable branches."""
    children: dict[tuple, Counter] = defaultdict(Counter)
    for seq in sequences:
        for k in range(len(seq)):
            children[tuple(seq[:k])][seq[k]] += 1
    forks = []
    for prefix, kids in children.items():
        if len(kids) < 2:
            continue
        total = sum(kids.values())
        probs = {branch: count / total for branch, count in kids.items()}
        if max(probs.values()) - min(probs.values()) <= epsilon:
            forks.append((prefix, tuple(sorted(probs.items()))))
    return sorted(forks)


# -- intervals -----------------------------------------------------------------


def naive_membership(intervals, tick: int) -> bool:
    return any(s <= tick <= e for s, e in intervals)


def tickset_union(list_of_intervals) -> set[int]:
    out: set[int] = set()
    for intervals in list_of_intervals:
        out |= _tick_set(intervals)
    return out


# -- triggers: presence before a fork's branch step ------------------------------


def scan_trigger_presence(steps: dict, prefix: tuple, min_support: int, min_shift: float):
    """One fork's branches, their base probabilities and its triggers, by
    plain loops.  ``steps`` maps each process to its coincidences in order,
    each as (the situation it lifts to or None, the things present at it).
    A process passes the fork when its situation sequence continues past
    ``prefix``; its branch is the next situation.  A thing is present
    before that branch step when some coincidence ahead of the branch
    step's one holds it.  Returns (branches in id order, base
    probabilities, [(thing, score, support, shifted)] in thing order) for
    every thing present before the branch step in at least
    ``min_support`` passing processes that shifts some branch probability
    by at least ``min_shift``."""
    depth = len(prefix)
    branch_of = {}
    for process, coincidences in steps.items():
        sequence = [situation for situation, _ in coincidences if situation is not None]
        if len(sequence) > depth and tuple(sequence[:depth]) == tuple(prefix):
            branch_of[process] = sequence[depth]
    branches = sorted(set(branch_of.values()))
    base = []
    for branch in branches:
        count = 0
        for process in branch_of:
            if branch_of[process] == branch:
                count += 1
        base.append(count / len(branch_of))
    before = {}
    for process in branch_of:
        things, situations_seen = set(), 0
        for situation, present in steps[process]:
            if situation is not None:
                if situations_seen == depth:
                    break
                situations_seen += 1
            things |= set(present)
        before[process] = things
    candidates = set()
    for things in before.values():
        candidates |= things
    found = []
    for thing in sorted(candidates):
        support = 0
        per_branch = [0] * len(branches)
        for process in branch_of:
            if thing in before[process]:
                support += 1
                per_branch[branches.index(branch_of[process])] += 1
        if support < min_support:
            continue
        shifted = [count / support for count in per_branch]
        score = max(abs(s - b) for s, b in zip(shifted, base))
        if score >= min_shift:
            found.append((thing, score, support, shifted))
    return branches, base, found
