"""Seeded input generators for the benchmark workloads.

Everything here is plain data: definitions text, corpus documents and the
facts planted in them.  The same seed always gives the same inputs, byte
for byte.  Nothing here imports the program under test.
"""

from __future__ import annotations

import json
import random
import string

# -- crosswalk ---------------------------------------------------------------
#
# The paper's fork/trigger model.  Every pedestrian run approaches the
# crosswalk, waits at the signal and then either crosses safely or gets
# injured, 50/50 overall.  Half of the runs enter the crosswalk on red, and
# 90% of those end injured, so the trigger shifts the injury odds by 0.4.
# Half of the trigger runs enter on red together with the approach step and
# half together with the wait step; either pair alone stays below
# min_support (51/200 of the runs) while the trigger itself stays above it.

CROSSWALK_DEFINITIONS = """\
# crosswalk observations
There name approach patterns "$person approaches crosswalk", has person.
There name wait patterns "$person waits at signal", has person.
There name enter-on-red patterns "$person enters crosswalk on red", has person.
There name safe-cross patterns "$person crosses safely", has person.
There name injury patterns "$person gets injured", has person.
Person is word.
"""

CROSSWALK_TRUTH = {"p_fork": 0.5, "trigger_shift": 0.4, "tolerance": 0.07}


def crosswalk_min_support(runs: int) -> int:
    return 51 * runs // 200


def _pedestrian_names(rng: random.Random, count: int) -> list[str]:
    """Distinct single-word names: 'ped' plus six random letters."""
    names: set[str] = set()
    while len(names) < count:
        names.add("ped" + "".join(rng.choice(string.ascii_lowercase) for _ in range(6)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def crosswalk_plans(runs: int) -> list[dict]:
    """The exact outcome mix of ``runs`` pedestrian runs, in a fixed order."""
    if runs <= 0 or runs % 200:
        raise ValueError("crosswalk runs must be a positive multiple of 200")
    half = runs // 2
    plans = []
    for k in range(half):
        plans.append({"trigger": True, "injured": k % 10 != 0, "with_wait": k % 2 == 1})
    for k in range(half):
        plans.append({"trigger": False, "injured": k % 10 == 0, "with_wait": False})
    return plans


def crosswalk_corpus(seed: int, runs: int) -> list[dict]:
    """One document per observation; runs are shuffled onto the timeline and
    separated by gaps that no coincidence window or chain gap bridges."""
    rng = random.Random(f"crosswalk:{seed}")
    plans = crosswalk_plans(runs)
    rng.shuffle(plans)
    names = _pedestrian_names(rng, runs)
    docs = []
    base = 0
    for run, (plan, who) in enumerate(zip(plans, names)):
        base += rng.randint(8, 14)
        source = f"sim://crosswalk/{seed}/{run}"

        def doc(offset: int, text: str) -> dict:
            return {"time": base + offset, "source": source, "text": text}

        docs.append(doc(0, f"{who} approaches crosswalk"))
        docs.append(doc(1, f"{who} waits at signal"))
        if plan["trigger"]:
            docs.append(doc(1 if plan["with_wait"] else 0, f"{who} enters crosswalk on red"))
        outcome = "gets injured" if plan["injured"] else "crosses safely"
        docs.append(doc(2, f"{who} {outcome}"))
    return docs


# -- news --------------------------------------------------------------------
#
# News-like documents of mixed length with sparse planted facts.  The first
# two definitions are the README's, verbatim.  The others cover the number,
# word, time, money and composite types, a literal-only conjunction and an
# untyped leading variable ($court ruled that), which makes the matcher try
# every span that ends before each position.
#
# Variable-child conjunctions such as (red $x light) are left out on
# purpose: their matches are the product of every child match over the
# whole document, 1.43M matches and 42 s on one 200-token document, so a
# run would not finish.  Add one once conjunction matching is bounded.

NEWS_DEFINITIONS = """\
There name sanctions patterns
  "{obama trump} {forced suggested} $organization to {impose implement apply} sanctions against $target",
  has organization, target.
There name sale patterns "On sale: $item, quantity $amount, prices $cost",
  has item, amount, cost.
Cost is money. Amount is number. Item is word.
There name ruling patterns "$court ruled that", has court.
There name shipment patterns "shipped $count $goods to", has count, goods.
Count is number. Goods is word.
There name meeting patterns "meeting at $when", has when.
When is time.
There name inspection patterns "inspected by $agency", has agency.
Agency is "{federal state} {bureau office}".
There name storm-warning patterns "(storm warning)".
"""

NEWS_FACT_KINDS = (
    "sanctions",
    "sale",
    "ruling",
    "shipment",
    "meeting",
    "inspection",
    "storm-warning",
)

# Literal tokens of NEWS_DEFINITIONS plus articles; filler text avoids them
# so that the only facts in a document are the planted ones.
_RESERVED = {
    "obama", "trump", "forced", "suggested", "to", "impose", "implement",
    "apply", "sanctions", "against", "on", "sale", "quantity", "prices",
    "ruled", "that", "shipped", "meeting", "at", "inspected", "by",
    "federal", "state", "bureau", "office", "storm", "warning", "a", "an",
    "the",
}


def _pseudo_word(rng: random.Random, syllables: int) -> str:
    return "".join(
        rng.choice("bcdfgklmnprstvz") + rng.choice("aeiou") for _ in range(syllables)
    )


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        word = _pseudo_word(rng, 3)
        if word not in _RESERVED:
            words.add(word)
    return sorted(words)


def _name(rng: random.Random) -> str:
    return _pseudo_word(rng, 3)


def _plant(kind: str, rng: random.Random) -> tuple[list[str], dict[str, str]]:
    """The tokens of one fact and the normalized bindings it must yield."""
    if kind == "sanctions":
        org, target = _name(rng), _name(rng)
        words = [
            rng.choice(["Obama", "Trump"]), rng.choice(["forced", "suggested"]),
            "the", org.capitalize(), "to", rng.choice(["impose", "implement", "apply"]),
            "sanctions", "against", target.capitalize(),
        ]
        return words, {"organization": org, "target": target}
    if kind == "sale":
        item, amount = _name(rng), str(rng.randint(2, 500))
        cost = f"{rng.randint(1, 99)}.{rng.randint(10, 99)}"
        words = ["On", "sale:", f"{item},", "quantity", f"{amount},", "prices", f"${cost}"]
        return words, {"item": item, "amount": amount, "cost": f"$ {cost}"}
    if kind == "ruling":
        court = _name(rng)
        words = ["the", court.capitalize(), "court", "ruled", "that"]
        return words, {"court": f"{court} court"}
    if kind == "shipment":
        count, goods = str(rng.randint(2, 900)), _name(rng)
        return ["shipped", count, goods, "to"], {"count": count, "goods": goods}
    if kind == "meeting":
        hour, minute = rng.randint(10, 23), rng.randint(10, 59)
        return ["meeting", "at", f"{hour}:{minute}"], {"when": f"{hour} : {minute}"}
    if kind == "inspection":
        agency = f"{rng.choice(['federal', 'state'])} {rng.choice(['bureau', 'office'])}"
        return ["inspected", "by", *agency.split()], {"agency": agency}
    if kind == "storm-warning":
        return ["storm", "warning", "issued"], {}
    raise ValueError(f"unknown fact kind {kind!r}")


def news_lengths(docs: int) -> list[int]:
    """Token lengths spread evenly over 50..200."""
    if docs == 1:
        return [125]
    return [50 + round(150 * i / (docs - 1)) for i in range(docs)]


def news_corpus(seed: int, docs: int, lengths: list[int] | None = None) -> tuple[list[dict], list[dict]]:
    """Documents and the facts planted in them.

    The seed picks the filler words, numbers, names and punctuation.
    Everything the matcher's cost, the number of matches and the cost of
    time-window queries depend on is the same for every seed: document
    lengths in tokens and their order, which facts go into which document
    and where.  Each fact kind is planted at least once and twice in every
    ten documents, round-robin in order of length.  A fact is a dict with the document source, the
    definition name and the normalized bindings it must produce.
    """
    rng = random.Random(f"news:{seed}")
    vocab = _vocabulary(rng, 5000)
    lengths = sorted(lengths or news_lengths(docs))
    planted_count = max(len(NEWS_FACT_KINDS), docs * 14 // 10)
    per_doc: list[list[str]] = [[] for _ in range(docs)]
    for i in range(planted_count):
        per_doc[i % docs].append(NEWS_FACT_KINDS[i % len(NEWS_FACT_KINDS)])
    out_docs, facts = [], []
    for index, (length, planted) in enumerate(zip(lengths, per_doc)):
        source = f"news://{seed}/{index}"
        pieces = [_plant(kind, rng) for kind in planted]
        filler = max(length - sum(len(words) for words, _ in pieces), 0)
        words = [str(rng.randint(1000, 9999)) if rng.random() < 0.07 else rng.choice(vocab)
                 for _ in range(filler)]
        for i in range(10, filler, 11):
            words[i] += "," if i % 2 else "."
        # facts sit at fixed shares of the document, each ending a sentence
        for i in reversed(range(len(pieces))):
            words.insert(round((i + 1) * filler / (len(pieces) + 1)), " ".join(pieces[i][0]) + ".")
        out_docs.append({"time": 100 + 2 * index, "source": source, "text": " ".join(words)})
        for kind, (_, bindings) in zip(planted, pieces):
            facts.append({"source": source, "definition": kind, "bindings": bindings})
    return out_docs, facts


# -- writing -----------------------------------------------------------------


def corpus_text(docs: list[dict]) -> str:
    return "".join(json.dumps(d, sort_keys=True) + "\n" for d in docs)
