"""Fixture builders shared across the test suite."""

from __future__ import annotations

import json
import random

from scenamine.graph import Edge, GraphStore, TimeSpec

# -- crosswalk corpus ----------------------------------------------------------
#
# 200 pedestrian runs with a known generating model: prefix
# approach -> wait, a 50/50 safe-cross/injury outcome overall, and an
# enter-on-red event in half the runs that shifts the injury odds to 0.9.
# The trigger event co-occurs with the approach step in half its runs and
# with the wait step in the other half, so the pair combinations stay
# below the mining support threshold while the trigger itself stays above
# it.

CROSSWALK_DEFINITIONS = """
# crosswalk observations
There name approach patterns "$person approaches crosswalk", has person.
There name wait patterns "$person waits at signal", has person.
There name enter-on-red patterns "$person enters crosswalk on red", has person.
There name safe-cross patterns "$person crosses safely", has person.
There name injury patterns "$person gets injured", has person.
Person is word.
"""

CROSSWALK_RUNS = 200
CROSSWALK_MIN_SUPPORT = 51
CROSSWALK_TRUTH = {
    "p_safe": 0.5,
    "p_injury": 0.5,
    "p_injury_given_trigger": 0.9,
    "trigger_shift": 0.4,
}


def _pedestrian(run: int) -> str:
    return "ped" + chr(97 + run // 26) + chr(97 + run % 26)


def crosswalk_run_plan(run: int) -> dict:
    trigger = run % 2 == 0
    pair = run // 2
    if trigger:
        injured = pair % 10 != 0  # 90 of 100
    else:
        injured = pair % 10 == 0  # 10 of 100
    return {
        "trigger": trigger,
        "injured": injured,
        "trigger_with_wait": trigger and pair % 2 == 1,
    }


def crosswalk_documents() -> list[dict]:
    docs = []
    for run in range(CROSSWALK_RUNS):
        plan = crosswalk_run_plan(run)
        who = _pedestrian(run)
        base = run * 10
        source = f"sim://crosswalk/{run}"

        def doc(offset: int, text: str) -> dict:
            return {"time": base + offset, "source": source, "text": text}

        docs.append(doc(0, f"{who} approaches crosswalk"))
        docs.append(doc(1, f"{who} waits at signal"))
        if plan["trigger"]:
            offset = 1 if plan["trigger_with_wait"] else 0
            docs.append(doc(offset, f"{who} enters crosswalk on red"))
        if plan["injured"]:
            docs.append(doc(2, f"{who} gets injured"))
        else:
            docs.append(doc(2, f"{who} crosses safely"))
    return docs


def crosswalk_corpus_text() -> str:
    return "\n".join(json.dumps(d) for d in crosswalk_documents()) + "\n"


# -- sentence-break fixture -------------------------------------------------------
#
# Fifty period-terminated sentences followed by a trailing capitalized
# word, with web-address tokens (letter follows the dot with no gap) and
# numeric-follower tokens sprinkled mid-sentence.

_SENTENCE_WORDS = [
    "Alpha", "Bravo", "Cedar", "Delta", "Ember", "Falcon", "Garnet",
    "Harbor", "Indigo", "Juniper",
]

WEB_SENTENCES = {3, 11, 19, 27, 35, 43}
NUMERIC_SENTENCES = {7, 23, 31, 47}


def sentence_fixture_text() -> str:
    sentences = []
    for i in range(50):
        lead = _SENTENCE_WORDS[i % len(_SENTENCE_WORDS)]
        body = f"{lead} reading number{'s' if i % 2 else ''} stay level"
        if i in WEB_SENTENCES:
            body += f" via site{chr(97 + i % 26)}.com mirror"
        if i in NUMERIC_SENTENCES:
            body += " per file.7 notes"
        sentences.append(body + ".")
    return " ".join(sentences) + " End"


def sentence_symbol_documents(text: str) -> list[dict]:
    """Emit a dot-context symbol stream: for every period token, a short
    run of symbol documents describing what follows it."""
    from scenamine.tokens import tokenize

    toks = tokenize(text)
    docs = []

    def classify(token) -> str:
        if token.cls == "number":
            return "num"
        if token.surface[0].isupper():
            return "cap"
        return "low"

    for idx, tok in enumerate(toks):
        if tok.surface != ".":
            continue
        base = tok.start * 10
        source = f"fix://dot/{tok.start}"
        docs.append({"time": base, "source": source, "text": "dot"})
        if idx + 1 >= len(toks):
            continue
        follower = toks[idx + 1]
        if follower.start > tok.end:
            docs.append({"time": base + 1, "source": source, "text": "gap"})
            docs.append({"time": base + 2, "source": source, "text": classify(follower)})
        else:
            docs.append({"time": base + 1, "source": source, "text": classify(follower)})
    return docs


SENTENCE_DEFINITIONS = """
There name dot. There name gap. There name cap. There name low. There name num.
"""


def oracle_sentence_breaks(text: str) -> set[int]:
    """Character offsets of periods followed by whitespace and a capital."""
    out = set()
    for i, ch in enumerate(text):
        if ch != ".":
            continue
        j = i + 1
        if j >= len(text) or not text[j].isspace():
            continue
        while j < len(text) and text[j].isspace():
            j += 1
        if j < len(text) and text[j].isalpha() and text[j].isupper():
            out.add(i)
    return out


def oracle_web_dots(text: str) -> set[int]:
    """Character offsets of periods followed directly by a letter or digit."""
    return {
        i
        for i, ch in enumerate(text)
        if ch == "."
        and i + 1 < len(text)
        and (text[i + 1].isalpha() or text[i + 1].isdecimal())
        and not (i > 0 and text[i - 1].isdecimal() and text[i + 1].isdecimal())
    }


# -- random graphs for query properties --------------------------------------------


def random_query_store(rng: random.Random, scale: int = 1) -> GraphStore:
    """A store with every node kind and all edge families, for exercising
    the query algebra at property-testing scale."""
    store = GraphStore()
    kinds = {
        "actor": 120 * scale,
        "role": 40 * scale,
        "appearance": 90 * scale,
        "event": 150 * scale,
        "situation": 40 * scale,
        "coincidence": 50 * scale,
        "scenario": 15 * scale,
        "process": 15 * scale,
    }
    ids: dict[str, list[int]] = {}
    for kind, count in kinds.items():
        bucket = []
        for n in range(count):
            times = None
            if kind in ("event", "coincidence"):
                start = rng.randrange(0, 200)
                times = TimeSpec(((start, start + rng.randrange(0, 3)),))
            bucket.append(store.add_thing(kind, f"{kind}{n}", times=times))
        ids[kind] = bucket
    role_names = [f"r{n}" for n in range(8)]

    def some(kind: str, lo: int, hi: int) -> list[int]:
        return rng.sample(ids[kind], k=rng.randint(lo, min(hi, len(ids[kind]))))

    for actor in ids["actor"]:
        for role in some("role", 1, 4):
            store.add_edge(Edge("is", actor, role))
    for event in ids["event"]:
        for app in some("appearance", 1, 3):
            store.add_edge(Edge("is", event, app))
        for actor in some("actor", 1, 5):
            store.add_edge(Edge("has", event, actor, role=rng.choice(role_names)))
    apps = ids["appearance"]
    for idx, app in enumerate(apps):
        if idx + 1 < len(apps) and rng.random() < 0.25:
            store.add_edge(Edge("is", app, apps[rng.randrange(idx + 1, len(apps))]))
        for role in some("role", 1, 4):
            store.add_edge(Edge("has", app, role, role=rng.choice(role_names)))
    for coin in ids["coincidence"]:
        for sit in some("situation", 1, 3):
            store.add_edge(Edge("is", coin, sit))
        for event in some("event", 2, 6):
            store.add_edge(Edge("member", coin, event, set_kind="and"))
    for sit in ids["situation"]:
        for app in some("appearance", 1, 4):
            store.add_edge(Edge("member", sit, app, set_kind="and"))
    for process in ids["process"]:
        for scenario in some("scenario", 1, 3):
            store.add_edge(Edge("is", process, scenario))
        for coin in some("coincidence", 2, 5):
            store.add_edge(Edge("member", process, coin, set_kind="seq"))
    for scenario in ids["scenario"]:
        for sit in some("situation", 2, 5):
            store.add_edge(Edge("member", scenario, sit, set_kind="seq"))
    while len(store.edges()) < 2050:
        store.add_edge(
            Edge("is", rng.choice(ids["actor"]), rng.choice(ids["role"]))
        )
    return store


# -- direct graph construction helpers ----------------------------------------------


def add_event(store: GraphStore, app_id: int, tick, actors: dict[str, int] | None = None, text: str | None = None) -> int:
    """Insert an event node with optional role bindings and text."""
    props = {"sources": "test://fixture"}
    if text is not None:
        props["text"] = text
    times = TimeSpec((tick,)) if isinstance(tick, tuple) else TimeSpec.point(tick)
    event = store.add_thing("event", properties=props, times=times)
    store.add_edge(Edge("is", event, app_id))
    for role, actor in (actors or {}).items():
        store.add_edge(Edge("has", event, actor, role=role))
        role_id = store.find_or_create("role", role)
        store.add_edge(Edge("is", actor, role_id))
    return event


def add_coincidence(store: GraphStore, events: list[int], name: str | None = None) -> int:
    span = TimeSpec()
    for event in events:
        span = span.union(store.times_of(event) or TimeSpec())
    cid = store.add_thing("coincidence", name, times=span)
    for event in events:
        store.add_edge(Edge("member", cid, event, set_kind="and"))
    return cid
