"""Command-line behavior: exit codes, JSON output, library parity."""

import contextlib
import functools
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import crosswalk_corpus_text, CROSSWALK_DEFINITIONS
from scenamine import cli, mining, queries
from scenamine.cli import main
from scenamine.definitions import parse_definitions
from scenamine.graph import Edge, GraphStore, SnapshotError, TimeSpec
from scenamine.matching import Document, extract_events
from scenamine.mining import MiningConfig, run_pipeline
from scenamine.patterns import MAX_NESTING

SANCTIONS_DEFS = (
    'There name sanctions patterns "{obama trump} {forced suggested} '
    '$organization to {impose implement apply} sanctions against $target", '
    "has organization, target.\n"
)

SANCTIONS_DOC = (
    '{"time": 100, "source": "news://1", '
    '"text": "Obama forced the EU to impose sanctions against Russia"}\n'
)

DATA = pathlib.Path(__file__).parent / "data"

STOPLIGHT_DEFS = (
    'There name stoplight patterns "light turned $color", has color.\n'
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _extract(tmp_path, defs, corpus, extra=()):  # -> snapshot path
    defs_path = _write(tmp_path / "defs.txt", defs)
    corpus_path = _write(tmp_path / "corpus.jsonl", corpus)
    snapshot = str(tmp_path / "snap.json")
    code = main(
        ["extract", "--definitions", defs_path, "--corpus", corpus_path,
         "--snapshot", snapshot, *extra]
    )
    assert code == 0
    return snapshot


def test_extract_sanctions(tmp_path, capsys):
    snapshot = _extract(tmp_path, SANCTIONS_DEFS, SANCTIONS_DOC)
    summary = json.loads(capsys.readouterr().out)
    assert summary["events"] == 1
    assert summary["per_definition"] == {"sanctions": 1}
    store = GraphStore.loads(open(snapshot).read())
    assert len(store.things("event")) == 1


def test_extract_empty_corpus(tmp_path, capsys):
    snapshot = _extract(tmp_path, SANCTIONS_DEFS, "")
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"documents": 0, "events": 0, "per_definition": {"sanctions": 0}}
    assert GraphStore.loads(open(snapshot).read()).things("event") == []


def test_extract_malformed_line_exits_one(tmp_path, capsys):
    defs_path = _write(tmp_path / "defs.txt", SANCTIONS_DEFS)
    corpus_path = _write(tmp_path / "corpus.jsonl", SANCTIONS_DOC + "{oops\n")
    snapshot = tmp_path / "snap.json"
    code = main(
        ["extract", "--definitions", defs_path, "--corpus", corpus_path,
         "--snapshot", str(snapshot)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "line 2" in captured.err
    assert not snapshot.exists(), "partial output must never be written"


def test_extract_missing_file_exits_two(tmp_path, capsys):
    code = main(
        ["extract", "--definitions", str(tmp_path / "nope.txt"),
         "--corpus", str(tmp_path / "nope.jsonl")]
    )
    assert code == 2
    assert capsys.readouterr().err


def test_bad_definitions_exit_one_with_location(tmp_path, capsys):
    defs_path = _write(tmp_path / "defs.txt", "utter nonsense statement here.\n")
    corpus_path = _write(tmp_path / "corpus.jsonl", "")
    code = main(["extract", "--definitions", defs_path, "--corpus", corpus_path])
    captured = capsys.readouterr()
    assert code == 1
    assert "defs.txt" in captured.err and "line 1" in captured.err


@pytest.mark.parametrize("corpus", ["", SANCTIONS_DOC])
def test_name_only_definition_with_a_bad_pattern_name_exits_one(tmp_path, capsys, corpus):
    defs_path = _write(tmp_path / "defs.txt", 'There name "(a".\n')
    corpus_path = _write(tmp_path / "corpus.jsonl", corpus)
    code = main(["extract", "--definitions", defs_path, "--corpus", corpus_path])
    assert code == 1
    assert "defs.txt: line 1: bad pattern for '(a'" in capsys.readouterr().err


@pytest.mark.parametrize("brackets", ["{}", "()", "[]"])
def test_pattern_nesting_at_the_bound_extracts_and_above_it_exits_one(tmp_path, capsys, brackets):
    def defs(depth):
        pattern = brackets[0] * depth + "$who waves" + brackets[1] * depth
        return f'# one wave\nThere name wave patterns "{pattern}", has who.\n'

    corpus = '{"time": 1, "source": "s", "text": "ann waves"}\n'
    _extract(tmp_path, defs(MAX_NESTING), corpus)
    assert json.loads(capsys.readouterr().out)["per_definition"]["wave"] >= 1
    defs_path = _write(tmp_path / "deep.txt", defs(MAX_NESTING + 1))
    code = main(["extract", "--definitions", defs_path, "--corpus", str(tmp_path / "corpus.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"deep.txt: line 2: bad pattern for 'wave': nesting deeper than {MAX_NESTING} levels" in err
    assert "Traceback" not in err


def test_mine_empty_snapshot(tmp_path, capsys):
    snapshot = _extract(tmp_path, SANCTIONS_DEFS, "")
    capsys.readouterr()
    out_path = str(tmp_path / "report.json")
    code = main(["mine", "--snapshot", snapshot, "--out", out_path])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["scenarios"] == [] and report["forks"] == [] and report["triggers"] == []


def test_mine_twice_is_byte_identical(tmp_path, capsys):
    snapshot = _extract(
        tmp_path,
        STOPLIGHT_DEFS,
        "\n".join(
            json.dumps(
                {"time": t, "source": "cam", "text": f"light turned {c}"}
            )
            for t, c in enumerate(["red", "green", "red", "green"])
        )
        + "\n",
    )
    capsys.readouterr()
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["mine", "--snapshot", snapshot, "--out", out1]) == 0
    assert main(["mine", "--snapshot", snapshot, "--out", out2]) == 0
    capsys.readouterr()
    assert open(out1, "rb").read() == open(out2, "rb").read()


@pytest.mark.parametrize(
    "first, second",
    [
        (["--min-support", "51"], ["--min-support", "51", "--window", "3"]),
        (["--min-support", "51"], ["--min-support", "30"]),
        (["--min-support", "51", "--window", "3"], ["--min-support", "51"]),
    ],
)
def test_mining_a_mined_snapshot_equals_mining_the_extracted_one(tmp_path, capsys, first, second):
    """mine rewrites its snapshot; mining that again with other settings
    gives the report and snapshot bytes of one mine of the extraction."""
    extracted = _extract(tmp_path, CROSSWALK_DEFINITIONS, crosswalk_corpus_text())
    fresh = _write(tmp_path / "fresh.json", open(extracted, encoding="utf-8").read())
    out_again, out_fresh = str(tmp_path / "again.json"), str(tmp_path / "fresh-report.json")
    assert main(["mine", "--snapshot", extracted, *first]) == 0
    assert main(["mine", "--snapshot", extracted, "--out", out_again, *second]) == 0
    assert main(["mine", "--snapshot", fresh, "--out", out_fresh, *second]) == 0
    capsys.readouterr()
    assert open(out_again, "rb").read() == open(out_fresh, "rb").read()
    assert open(extracted, "rb").read() == open(fresh, "rb").read()


def test_mining_a_snapshot_with_domain_sets_equals_mining_its_extraction(tmp_path, capsys):
    """The fixture is six "light turned red" documents after `scenamine run`
    at commit 7c5b59c, whose mining still wrote domain sets and ``key``
    properties: mining it again gives the bytes of a fresh extract and mine."""
    text = (DATA / "stoplight-mined-with-domain-sets.json").read_text(encoding="utf-8")
    assert '"kind":"generic"' in text and '"key":' in text
    old = _write(tmp_path / "old.json", text)
    corpus = "".join(
        json.dumps({"time": t, "source": "cam", "text": "light turned red"}) + "\n"
        for t in range(1, 7)
    )
    fresh = _extract(tmp_path, STOPLIGHT_DEFS, corpus)
    out_old, out_fresh = str(tmp_path / "old-report.json"), str(tmp_path / "fresh-report.json")
    assert main(["mine", "--snapshot", old, "--out", out_old]) == 0
    assert main(["mine", "--snapshot", fresh, "--out", out_fresh]) == 0
    capsys.readouterr()
    assert open(out_old, "rb").read() == open(out_fresh, "rb").read()
    assert open(old, "rb").read() == open(fresh, "rb").read()


def test_mine_missing_snapshot_exits_two(tmp_path, capsys):
    assert main(["mine", "--snapshot", str(tmp_path / "none.json")]) == 2


def test_mine_corrupt_snapshot_exits_one(tmp_path, capsys):
    snapshot = _write(tmp_path / "snap.json", "{this is not json")
    assert main(["mine", "--snapshot", snapshot]) == 1


# nested past the decoder's recursion limit on every supported Python
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_snapshot_exits_one_naming_it(tmp_path, capsys):
    snapshot = _write(tmp_path / "snap.json", _DEEP_JSON)
    assert main(["mine", "--snapshot", snapshot]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"scenamine: {snapshot}: malformed snapshot: ") and "recursion" in err


def test_deeply_nested_corpus_line_exits_one_naming_its_line(tmp_path, capsys):
    defs_path = _write(tmp_path / "defs.txt", SANCTIONS_DEFS)
    corpus_path = _write(tmp_path / "corpus.jsonl", SANCTIONS_DOC + _DEEP_JSON + "\n")
    snapshot = tmp_path / "snap.json"
    code = main(
        ["extract", "--definitions", defs_path, "--corpus", corpus_path,
         "--snapshot", str(snapshot)]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(f"scenamine: {corpus_path}: line 2: invalid JSON: ")
    assert not snapshot.exists()


def test_deeply_nested_config_exits_one_naming_it(tmp_path, capsys):
    config_path = _write(tmp_path / "config.json", _DEEP_JSON)
    assert main(["mine", "--config", config_path]) == 1
    assert capsys.readouterr().err.startswith(f"scenamine: bad config file {config_path}: ")


# one digit past the default limit of int() and json.loads (Python 3.10.7 on),
# which raise a plain ValueError for it
_LONG_INT = "9" * 4301


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("long.json", '{"things":[{"id":%s,"kind":"actor","name":"a","properties":{}}],"edges":[],"times":[]}',
         ["query", "--snapshot", "{file}", "events_at", "--time", "1"]),
        ("long.jsonl", '{"time": %s, "source": "cam", "text": "light turned red"}\n',
         ["extract", "--definitions", "{defs}", "--corpus", "{file}"]),
        ("long-config.json", '{"mining": {"min_support": %s}}',
         ["mine", "--snapshot", "{snapshot}", "--config", "{file}"]),
        (None, None, ["query", "--snapshot", "{snapshot}", "timespan_of", _LONG_INT]),
        (None, None, ["query", "--snapshot", "{snapshot}", "coincidences_at", "--event", _LONG_INT]),
    ],
    ids=["snapshot-id", "corpus-time", "config-min_support", "timespan_of", "event-flag"],
)
def test_an_int_past_the_digit_limit_exits_one_naming_its_source(tmp_path, capsys, name, text, argv):
    snapshot = _stoplight_snapshot(tmp_path)
    path = _write(tmp_path / name, text % _LONG_INT) if name else None
    argv = [arg.format(file=path, defs=tmp_path / "defs.txt", snapshot=snapshot) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("scenamine: ") and (path or _LONG_INT[:10]) in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit")
@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("long.json", '{"things":[{"id":%s,"kind":"actor","name":"a","properties":{}}],"edges":[],"times":[]}',
         ["query", "--snapshot", "{file}", "events_at", "--time", "1"]),
        ("long.jsonl", '{"time": %s, "source": "cam", "text": "light turned red"}\n',
         ["extract", "--definitions", "{defs}", "--corpus", "{file}"]),
        ("long-config.json", '{"mining": {"min_support": %s}}',
         ["mine", "--snapshot", "{snapshot}", "--config", "{file}"]),
    ],
    ids=["snapshot", "corpus", "config"],
)
def test_an_int_past_the_digit_limit_is_named_without_the_interpreter_setting(tmp_path, capsys, name, text, argv):
    snapshot = _stoplight_snapshot(tmp_path)
    path = _write(tmp_path / name, text % _LONG_INT)
    argv = [arg.format(file=path, defs=tmp_path / "defs.txt", snapshot=snapshot) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"an integer of more than {sys.get_int_max_str_digits():,} digits" in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no integer digit limit")
@pytest.mark.parametrize(
    "name, text, argv, fault",
    [
        ("long.json", '{"things":[{"id":%s,"kind":"actor","name":"a","properties":{}}],"edges":[],"times":[]}',
         ["query", "--snapshot", "{file}", "events_at", "--time", "1"], "{file}: {limit}"),
        ("long.jsonl", SANCTIONS_DOC + '{"time": %s, "source": "cam", "text": "light turned red"}\n',
         ["extract", "--definitions", "{defs}", "--corpus", "{file}"], "{file}: line 2: {limit}"),
        ("broken.json", '{"things":[{"id" %s,"kind":"actor","name":"a","properties":{}}],"edges":[],"times":[]}',
         ["query", "--snapshot", "{file}", "events_at", "--time", "1"], "{file}: malformed snapshot: "),
        ("broken.jsonl", SANCTIONS_DOC + '{"time" %s, "source": "cam", "text": "light turned red"}\n',
         ["extract", "--definitions", "{defs}", "--corpus", "{file}"], "{file}: line 2: invalid JSON: "),
    ],
    ids=["snapshot", "corpus", "broken-snapshot", "broken-corpus"],
)
def test_an_int_past_the_digit_limit_is_well_formed_json_and_broken_json_is_named_so(
        tmp_path, capsys, name, text, argv, fault):
    """Well-formed JSON with an integer past the limit is not called invalid
    or malformed; JSON broken before such an integer still is, with the line
    that holds it."""
    defs = _write(tmp_path / "defs.txt", SANCTIONS_DEFS)
    path = _write(tmp_path / name, text % _LONG_INT)
    argv = [arg.format(file=path, defs=defs) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    limit = f"an integer of more than {sys.get_int_max_str_digits():,} digits"
    expected = "scenamine: " + fault.format(file=path, limit=limit)
    assert err == expected + "\n" if "{limit}" in fault else err.startswith(expected), err
    assert "Traceback" not in err and err.count("\n") == 1


def test_mine_untimed_event_exits_one_naming_it(tmp_path, capsys):
    snapshot = _write(
        tmp_path / "snap.json",
        '{"things":[{"id":1,"kind":"appearance","name":"a","properties":{}},'
        '{"id":7,"kind":"event","name":null,"properties":{}}],'
        '"edges":[{"kind":"is","from":7,"to":1}],"times":[]}',
    )
    assert main(["mine", "--snapshot", snapshot]) == 1
    assert "event 7 has no time span" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, fault",
    [
        ('{"things":[{"id":1,"kind":"actor","name":null,"properties":[1]}],'
         '"edges":[],"times":[]}', "thing 1 properties are not an object"),
        ('{"things":[{"id":1,"kind":"actor","name":["a"],"properties":{}}],'
         '"edges":[],"times":[]}', "thing 1 name ['a'] is not a string"),
        ('{"things":5,"edges":[],"times":[]}', "snapshot things must be a list"),
    ],
)
def test_mine_malformed_snapshot_exits_one_naming_fault(tmp_path, capsys, body, fault):
    snapshot = _write(tmp_path / "snap.json", body)
    assert main(["mine", "--snapshot", snapshot]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenamine:") and fault in err


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@functools.cache
def _mined_stoplight_text() -> str:
    store = GraphStore()
    defs = parse_definitions(STOPLIGHT_DEFS)
    # the repeated colours chain into processes, so scenarios and seq edges appear
    for t, c in enumerate(["red", "red", "green", "red", "red", "green"], start=1):
        extract_events(store, defs, Document(f"light turned {c}", "cam", t))
    run_pipeline(store, MiningConfig())
    return store.dumps()


# an event of the mined stoplight snapshot: its time span is a fuzz target
_STOPLIGHT_EVENT = next(
    t["id"] for t in json.loads(_mined_stoplight_text())["things"] if t["kind"] == "event"
)


def _value_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _value_paths(child, path + (key,))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_snapshot_loads_or_fails_cleanly(data):
    """One JSON value anywhere in a mined snapshot is replaced: loading
    returns or raises SnapshotError, and mine, a window query and
    timespan_of each exit 0 or 1 with a scenamine: line, never a
    traceback."""
    body = json.loads(_mined_stoplight_text())
    path = data.draw(st.sampled_from(list(_value_paths(body))))
    replacement = data.draw(_JSON_VALUES)
    if path:
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = replacement
    else:
        body = replacement
    text = json.dumps(body)
    try:
        GraphStore.loads(text)
    except SnapshotError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "snap.json")
        with open(snapshot, "w", encoding="utf-8") as fp:
            fp.write(text)
        for argv in (
            ["mine", "--snapshot", snapshot],
            ["query", "--snapshot", snapshot, "events_at", "--time", "0:10"],
            ["query", "--snapshot", snapshot, "timespan_of", str(_STOPLIGHT_EVENT)],
        ):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), argv
            if code == 1:
                assert err.getvalue().startswith("scenamine:"), argv


STOPLIGHT_CORPUS = "".join(
    json.dumps({"time": t, "source": "cam", "text": f"light turned {c}"}) + "\n"
    for t, c in enumerate(["red", "green", "yellow", "red"], start=1)
)


def _stoplight_snapshot(tmp_path):
    snapshot = _extract(tmp_path, STOPLIGHT_DEFS, STOPLIGHT_CORPUS)
    code = main(["mine", "--snapshot", snapshot])
    assert code == 0
    return snapshot


def test_query_actors_of_role(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    code = main(["query", "--snapshot", snapshot, "actors_of_role", "color"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(r["name"] for r in rows) == ["green", "red", "yellow"]
    assert all(r["weight"] == 1.0 for r in rows)


def test_query_empty_snapshot(tmp_path, capsys):
    snapshot = _extract(tmp_path, STOPLIGHT_DEFS, "")
    capsys.readouterr()
    code = main(["query", "--snapshot", snapshot, "events_at", "--time", "0:50"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_query_unknown_function_lists_names(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    code = main(["query", "--snapshot", snapshot, "bogus_fn"])
    captured = capsys.readouterr()
    assert code == 1
    assert "actors_of_role" in captured.err and "events_at" in captured.err


def test_query_unknown_name_exits_one(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    assert main(["query", "--snapshot", snapshot, "actors_of_role", "nope"]) == 1


def test_every_query_function_matches_library(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    store = GraphStore.loads(open(snapshot).read())
    kinds_sample = {
        "role": store.things("role"),
        "actor": store.things("actor"),
        "appearance": store.things("appearance"),
        "event": store.things("event"),
        "situation": store.things("situation"),
        "coincidence": store.things("coincidence"),
        "scenario": store.things("scenario"),
        "process": store.things("process"),
    }
    for name, (fn, arg_kind, extras) in queries.REGISTRY.items():
        argv = ["query", "--snapshot", snapshot, name]
        call = [store]
        if arg_kind is None:
            argv += ["--time", "0:100"]
            call.append((0, 100))
        else:
            pool = kinds_sample[arg_kind]
            if not pool:
                continue
            argv.append(str(pool[0].id))
            call.append(pool[0].id)
        code = main(argv)
        cli_rows = json.loads(capsys.readouterr().out)
        assert code == 0, name
        expected = fn(*call)
        assert [r["id"] for r in cli_rows] == expected.ids(), name


def test_query_role_names_with_spaces(tmp_path, capsys):
    store = GraphStore()
    role = store.add_thing("role", "light color")
    for name in ("red", "yellow", "green"):
        actor = store.add_thing("actor", name)
        store.add_edge(Edge("is", actor, role))
    snapshot = tmp_path / "snap.json"
    snapshot.write_text(store.dumps(), encoding="utf-8")
    code = main(["query", "--snapshot", str(snapshot), "actors_of_role", "light color"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert sorted(r["name"] for r in rows) == ["green", "red", "yellow"]


def test_query_timespan_of(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    store = GraphStore.loads(open(snapshot).read())
    event = store.things("event")[0]
    code = main(["query", "--snapshot", snapshot, "timespan_of", str(event.id)])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["intervals"] == [list(p) for p in store.times_of(event.id).intervals]


def test_query_timespan_of_by_name(tmp_path, capsys):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    store = GraphStore.loads(open(snapshot).read())
    (yellow,) = store.find_by_name("actor", "yellow")
    assert main(["query", "--snapshot", snapshot, "timespan_of", "yellow"]) == 0
    body = json.loads(capsys.readouterr().out)
    span = queries.timespan_of(store, yellow)
    assert body["intervals"] == [list(p) for p in span.intervals]
    assert main(["query", "--snapshot", snapshot, "timespan_of", "purple"]) == 1
    assert "no thing named 'purple'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["coincidences_at", "--event", "1"], "thing 1 is an appearance, not an event"),
        (["coincidences_at", "--time", "0:9", "--event", "5"], "thing 5 is an actor, not an event"),
        (["actors_of_role", "3"], "thing 3 is an event, not a role"),
        (["events_of_appearance", "2"], "thing 2 is a role, not an appearance"),
        (["roles_of_actor", "1"], "thing 1 is an appearance, not an actor"),
        (["processes_of_coincidence", "3", "--time", "1"], "thing 3 is an event, not a coincidence"),
    ],
)
def test_query_id_of_the_wrong_kind_exits_one(tmp_path, capsys, args, message):
    snapshot = _stoplight_snapshot(tmp_path)
    store = GraphStore.loads(open(snapshot).read())
    assert [store.thing(i).kind for i in (1, 2, 3, 5)] == ["appearance", "role", "event", "actor"]
    capsys.readouterr()
    assert main(["query", "--snapshot", snapshot, *args]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"scenamine: {message}\n")


@pytest.mark.parametrize(
    "argument, code, out, err",
    [
        ("3", 0, '{"intervals": [[1, 1]]}\n', ""),
        ("5", 0, '{"intervals": [[1, 1], [4, 4]]}\n', ""),
        ("16", 0, '{"intervals": [[1, 1]]}\n', ""),
        ("1", 1, "", "scenamine: things of kind 'appearance' have no temporal extent\n"),
    ],
)
def test_timespan_of_takes_an_id_of_any_kind(tmp_path, capsys, argument, code, out, err):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    assert main(["query", "--snapshot", snapshot, "timespan_of", argument]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("value", ["a:b", "5:", "x", "1:2:3"])
def test_query_bad_time_exits_one(tmp_path, capsys, value):
    snapshot = _stoplight_snapshot(tmp_path)
    capsys.readouterr()
    assert main(["query", "--snapshot", snapshot, "events_at", "--time", value]) == 1
    assert capsys.readouterr().err == f"scenamine: bad --time value {value!r}\n"


def test_run_subcommand_and_config_file(tmp_path, capsys):
    defs_path = _write(tmp_path / "defs.txt", CROSSWALK_DEFINITIONS)
    corpus_path = _write(tmp_path / "corpus.jsonl", crosswalk_corpus_text())
    out_path = tmp_path / "report.json"
    snapshot = tmp_path / "snap.json"
    config = {
        "definitions": str(defs_path),
        "corpus": str(corpus_path),
        "snapshot": str(snapshot),
        "out": str(out_path),
        "mining": {"min_support": 51},
    }
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    code = main(["run", "--config", str(config_path)])
    assert code == 0
    assert out_path.exists() and snapshot.exists()
    report = json.loads(out_path.read_text())
    assert report["forks"], "crosswalk corpus must produce a fork"


def _stoplight_inputs(tmp_path) -> list[str]:
    return ["--definitions", _write(tmp_path / "defs.txt", STOPLIGHT_DEFS),
            "--corpus", _write(tmp_path / "corpus.jsonl", STOPLIGHT_CORPUS)]


def test_run_writes_the_mined_snapshot_only(tmp_path, capsys, monkeypatch):
    snapshot = tmp_path / "snap.json"
    written = []
    write_atomic = cli._write_atomic
    monkeypatch.setattr(cli, "_write_atomic", lambda path, data: written.append(path) or write_atomic(path, data))
    assert main(["run", *_stoplight_inputs(tmp_path), "--snapshot", str(snapshot)]) == 0
    assert written == [str(snapshot)]
    assert GraphStore.loads(snapshot.read_text()).things("situation"), "the snapshot holds the mined layer"


@pytest.mark.parametrize("before", [None, "not a snapshot"])
def test_run_whose_mining_fails_leaves_the_snapshot_alone(tmp_path, capsys, monkeypatch, before):
    snapshot = tmp_path / "snap.json"
    if before is not None:
        snapshot.write_text(before)
    monkeypatch.setattr(mining, "MAX_SITUATIONS", 0)
    assert main(["run", *_stoplight_inputs(tmp_path), "--snapshot", str(snapshot)]) == 1
    assert "stage 'unify_situations' failed" in capsys.readouterr().err
    if before is None:
        assert not snapshot.exists()
    else:
        assert snapshot.read_text() == before


def test_cli_entry_point_subprocess(tmp_path):
    defs_path = _write(tmp_path / "defs.txt", STOPLIGHT_DEFS)
    corpus_path = _write(
        tmp_path / "corpus.jsonl",
        json.dumps({"time": 1, "source": "cam", "text": "light turned red"}) + "\n",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "scenamine.cli", "extract",
         "--definitions", str(defs_path), "--corpus", str(corpus_path),
         "--snapshot", str(tmp_path / "s.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["events"] == 1
    assert proc.stderr == ""


def test_stdout_is_json_stderr_gets_diagnostics(tmp_path, capsys):
    code = main(["mine", "--snapshot", str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "scenamine" in captured.err


def _stoplight_run_config(directory) -> dict:
    """A valid run config whose paths are relative to ``directory``."""
    corpus = "".join(
        json.dumps({"time": t, "source": "cam", "text": f"light turned {c}"}) + "\n"
        for t, c in enumerate(["red", "red", "green", "red", "red", "green"], start=1)
    )
    with open(os.path.join(directory, "defs.txt"), "w", encoding="utf-8") as fp:
        fp.write(STOPLIGHT_DEFS)
    with open(os.path.join(directory, "corpus.jsonl"), "w", encoding="utf-8") as fp:
        fp.write(corpus)
    return {
        "definitions": "defs.txt",
        "corpus": "corpus.jsonl",
        "snapshot": "snap.json",
        "out": "report.json",
        "granularity": 1,
        "mining": {
            "coincidence_window": 1,
            "chain_max_gap": 1,
            "chain_requires_shared_actor": True,
            "min_support": 2,
            "fork_epsilon": 0.2,
            "trigger_min_shift": 0.2,
        },
    }


@pytest.mark.parametrize(
    "key, value",
    [
        ("min_support", "a"),
        ("min_support", True),
        ("coincidence_window", True),
        ("chain_max_gap", 1.5),
        ("fork_epsilon", "x"),
        ("trigger_min_shift", None),
        ("trigger_min_shift", False),
        ("chain_requires_shared_actor", "no"),
        ("chain_requires_shared_actor", 0),
    ],
)
@pytest.mark.parametrize("command", ["run", "mine"])
def test_bad_mining_config_value_exits_one_naming_key(
    tmp_path, capsys, monkeypatch, command, key, value
):
    monkeypatch.chdir(tmp_path)
    config = _stoplight_run_config(tmp_path)
    if command == "mine":
        ok_path = _write(tmp_path / "ok.json", json.dumps(config))
        assert main(["extract", "--config", ok_path]) == 0
        capsys.readouterr()
    config["mining"][key] = value
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    assert main([command, "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenamine: bad mining configuration:") and key in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("granularity", "abc"),
        ("granularity", 0),
        ("granularity", -5),
        ("granularity", 2.5),
        ("granularity", True),
        ("snapshot", 5),
        ("out", 3),
        ("definitions", ["defs.txt"]),
        ("corpus", {"path": "corpus.jsonl"}),
    ],
)
def test_bad_run_config_value_exits_one_naming_key(
    tmp_path, capsys, monkeypatch, key, value
):
    monkeypatch.chdir(tmp_path)
    config = _stoplight_run_config(tmp_path)
    config[key] = value
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    assert main(["run", "--config", config_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenamine:") and key in err
    assert err.count("\n") == 1
    assert not (tmp_path / "snap.json").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_granularity_flag_below_one_exits_one(tmp_path, capsys, monkeypatch, value):
    monkeypatch.chdir(tmp_path)
    config = _stoplight_run_config(tmp_path)
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    assert main(["run", "--config", config_path, "--granularity", value]) == 1
    err = capsys.readouterr().err
    assert err == f"scenamine: granularity must be an integer >= 1, got {value}\n"


@pytest.mark.parametrize(
    "extra, key",
    [
        ({"min_support": 99, "snapshots": "other.json"}, "min_support"),
        ({"snapshots": "other.json"}, "snapshots"),
        ({"window": 2}, "window"),
        ({"coincidence_window": 2}, "coincidence_window"),
        ({"config": "config.json"}, "config"),
        ({"": 1}, ""),
    ],
)
@pytest.mark.parametrize("command", ["run", "extract"])
def test_unknown_config_key_exits_one_writing_nothing(
    tmp_path, capsys, monkeypatch, command, extra, key
):
    monkeypatch.chdir(tmp_path)
    config = _stoplight_run_config(tmp_path)
    config.update(extra)
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    assert main([command, "--config", config_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenamine: unknown config key {key!r}\n"
    assert not (tmp_path / "snap.json").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--window", "-1"], "coincidence_window must be >= 0"),
        (["--max-gap", "0"], "chain_max_gap must be >= 1"),
        (["--min-support", "0"], "min_support must be >= 1"),
        (["--fork-epsilon", "2"], "fork_epsilon must lie in [0, 1]"),
        (["--trigger-min-shift", "0"], "trigger_min_shift must lie in (0, 1]"),
    ],
)
def test_mining_flag_sets_the_field_of_its_name(tmp_path, capsys, monkeypatch, flags, message):
    """Each mining flag overrides the config file's field of the same name."""
    monkeypatch.chdir(tmp_path)
    config_path = _write(tmp_path / "config.json", json.dumps(_stoplight_run_config(tmp_path)))
    assert main(["run", "--config", config_path, *flags]) == 1
    assert capsys.readouterr().err == f"scenamine: bad mining configuration: {message}\n"


# strings without "/" keep every path the fuzzed config names inside its directory
_CONFIG_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_run_config_exits_cleanly(data):
    """One JSON value of a valid run config is replaced: run exits 0, 1
    or 2, and a failure is one scenamine: line, never a traceback."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            config = _stoplight_run_config(tmp)
            path = data.draw(st.sampled_from(list(_value_paths(config))))
            replacement = data.draw(_CONFIG_VALUES)
            if path:
                parent = config
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = replacement
            else:
                config = replacement
            with open("config.json", "w", encoding="utf-8") as fp:
                json.dump(config, fp)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["run", "--config", "config.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().startswith("scenamine:")


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "--definitions", "d", "--corpus", "c", "--min-support", "3"],
        ["query", "--snapshot", "s", "actors_of_role", "r", "--window", "2"],
        ["mine", "--snapshot", "s", "--definitions", "d"],
        ["mine", "--snapshot", "s", "--granularity", "2"],
    ],
)
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_mine_too_many_chains_exits_one_writing_nothing(tmp_path, capsys):
    store = GraphStore()
    actor = store.add_thing("actor", "a")
    app = store.add_thing("appearance", "x")
    for tick in range(30):
        event = store.add_thing("event", times=TimeSpec.point(tick))
        store.add_edge(Edge("is", event, app))
        store.add_edge(Edge("has", event, actor, role="r"))
    text = store.dumps()
    snapshot = _write(tmp_path / "snap.json", text)
    report = tmp_path / "report.json"
    code = main(["mine", "--snapshot", snapshot, "--out", str(report), "--max-gap", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("scenamine: stage 'chain_coincidences' failed: 832040 maximal chains")
    assert not report.exists()
    assert (tmp_path / "snap.json").read_text(encoding="utf-8") == text


def test_mine_too_many_situations_exits_one_writing_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mining, "MAX_SITUATIONS", 100)
    store = GraphStore()
    apps = [store.add_thing("appearance", f"k{i}") for i in range(8)]
    for tick, left_out in enumerate(apps):  # the 7-of-8 subsets: 254 closed sets
        for app in apps:
            if app != left_out:
                event = store.add_thing("event", times=TimeSpec.point(10 * tick))
                store.add_edge(Edge("is", event, app))
    snapshot = _write(tmp_path / "snap.json", store.dumps())
    report = tmp_path / "report.json"
    code = main(["mine", "--snapshot", snapshot, "--out", str(report), "--min-support", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "scenamine: stage 'unify_situations' failed: more than 100 closed situations"
    )
    assert not report.exists()


_TIME_SCOPED = sorted(
    name for name, (_, _, extras) in queries.REGISTRY.items() if {"time", "scope"} & set(extras)
)


@pytest.mark.parametrize("name", _TIME_SCOPED)
def test_query_reversed_window_exits_one(tmp_path, capsys, name):
    snapshot = _write(tmp_path / "snap.json", _mined_stoplight_text())
    store = GraphStore.loads(_mined_stoplight_text())
    arg_kind = queries.REGISTRY[name][1]
    argv = ["query", "--snapshot", snapshot, name, "--time", "5:3"]
    if arg_kind is not None:
        argv.insert(4, str(store.things(arg_kind)[0].id))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "scenamine: bad --time value '5:3'\n"


# keyword -> its flag, a valid flag value on the mined stoplight graph, and
# that value as the keyword takes it
_FILTER_FLAGS = {
    "time": ("--time", "1:4", (1, 4)),
    "role": ("--role", "color", "color"),
    "order": ("--order", "0", 0),
    "event_id": ("--event", "3", 3),
}
_FILTERS_OF = {name: entry[2] for name, entry in queries.REGISTRY.items()} | {"timespan_of": ()}
_UNREAD_FLAGS = [
    (name, key) for name in sorted(_FILTERS_OF) for key in _FILTER_FLAGS if key not in _FILTERS_OF[name]
]


def _query_argv(snapshot, store, name):
    arg_kind = queries.REGISTRY[name][1] if name in queries.REGISTRY else "event"
    argv = ["query", "--snapshot", snapshot, name]
    if arg_kind is not None:
        argv.append(str(store.things(arg_kind)[0].id))
    return argv


@pytest.mark.parametrize("name, key", _UNREAD_FLAGS)
def test_query_rejects_filter_flags_the_function_does_not_take(tmp_path, capsys, name, key):
    snapshot = _write(tmp_path / "snap.json", _mined_stoplight_text())
    store = GraphStore.loads(_mined_stoplight_text())
    flag, text, _ = _FILTER_FLAGS[key]
    assert main(_query_argv(snapshot, store, name) + [flag, text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"scenamine: {name} does not take {flag}\n"


@pytest.mark.parametrize("name", sorted(n for n, entry in queries.REGISTRY.items() if entry[1] is None))
def test_query_window_function_rejects_a_thing_argument(tmp_path, capsys, name):
    snapshot = _write(tmp_path / "snap.json", _mined_stoplight_text())
    assert main(["query", "--snapshot", snapshot, name, "12345"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"scenamine: {name} does not take a thing argument; give a window with --time\n"
    )


@pytest.mark.parametrize("name", sorted(n for n, names in _FILTERS_OF.items() if names))
def test_query_filter_flags_pass_as_keywords(tmp_path, capsys, name):
    """Every filter flag a function lists reaches the keyword of that name."""
    snapshot = _write(tmp_path / "snap.json", _mined_stoplight_text())
    store = GraphStore.loads(_mined_stoplight_text())
    fn, arg_kind, names = queries.REGISTRY[name]
    argv = _query_argv(snapshot, store, name)
    for key in names:
        argv += _FILTER_FLAGS[key][:2]
    assert main(argv) == 0
    rows = json.loads(capsys.readouterr().out)
    call = [store] if arg_kind is None else [store, store.things(arg_kind)[0].id]
    expected = fn(*call, **{key: _FILTER_FLAGS[key][2] for key in names})
    assert [r["id"] for r in rows] == expected.ids()


def _stoplight_corpus_lines() -> list[dict]:
    return [
        {"time": t, "source": "cam", "text": f"light turned {c}"}
        for t, c in enumerate(["red", "red", "green", "red"], start=1)
    ]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_corpus_line_extracts_or_fails_cleanly(data):
    """One JSON value of one valid corpus line is replaced: extract exits
    0, 1 or 2, and a failure is a scenamine: line, never a traceback."""
    lines = _stoplight_corpus_lines()
    index = data.draw(st.integers(0, len(lines) - 1))
    path = data.draw(st.sampled_from(list(_value_paths(lines[index]))))
    replacement = data.draw(_JSON_VALUES)
    if path:
        parent = lines[index]
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = replacement
    else:
        lines[index] = replacement
    with tempfile.TemporaryDirectory() as tmp:
        defs = os.path.join(tmp, "defs.txt")
        corpus = os.path.join(tmp, "corpus.jsonl")
        with open(defs, "w", encoding="utf-8") as fp:
            fp.write(STOPLIGHT_DEFS)
        with open(corpus, "w", encoding="utf-8") as fp:
            fp.write("".join(json.dumps(line) + "\n" for line in lines))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([
                "extract", "--definitions", defs, "--corpus", corpus,
                "--snapshot", os.path.join(tmp, "snap.json"),
            ])
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().startswith("scenamine:")


# edge values for a flag: not numbers, out of range, huge, empty, a reversed
# window, a NUL, and a few that a flag takes
_FLAG_VALUES = [
    "nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "1e9", "1000000000",
    "", "3:1", "1:4", "\x00", "color", "red",
]
_MINING_FLAGS = ["--min-support", "--fork-epsilon", "--trigger-min-shift", "--window", "--max-gap"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_fuzzed_flags_exit_cleanly(data):
    """mine with one to three mining flags, or a query with up to two
    filter flags and maybe an argument, each set to an edge value: the
    command exits 0, 1 or 2, and a failure is one message, never a
    traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = os.path.join(tmp, "snap.json")
        with open(snapshot, "w", encoding="utf-8") as fp:
            fp.write(_mined_stoplight_text())
        if data.draw(st.booleans()):
            argv = ["mine", "--snapshot", snapshot]
            flags = data.draw(st.lists(st.sampled_from(_MINING_FLAGS), min_size=1, max_size=3, unique=True))
        else:
            argv = ["query", "--snapshot", snapshot, data.draw(st.sampled_from(sorted(_FILTERS_OF)))]
            argument = data.draw(st.none() | st.sampled_from(_FLAG_VALUES))
            if argument is not None:
                argv.append(argument)
            flags = data.draw(
                st.lists(st.sampled_from([f for f, _, _ in _FILTER_FLAGS.values()]), max_size=2, unique=True)
            )
        for flag in flags:
            argv += [flag, data.draw(st.sampled_from(_FLAG_VALUES))]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a value its type cannot read
                code = exc.code
    assert code in (0, 1, 2), argv
    if code != 0:
        assert err.getvalue().startswith(("scenamine:", "usage:")), argv


# -- error paths, each with its exit code and its whole message ------------------


@pytest.mark.parametrize(
    "body, fault",
    [
        ('{"things":[{"id":1,"kind":"actor","name":"a","properties":{}}],'
         '"edges":[{"kind":"knows","from":1,"to":1}],"times":[]}', "unknown edge kind 'knows'"),
        ('{"things":[],"edges":[],"times":[5]}', "time span entries must be objects"),
        ('{"things":[],"edges":[],"times":[{"id":9,"intervals":{"a":1}}]}',
         "bad intervals for 9: {'a': 1} is not a list"),
        ('{"things":[[1,"actor"]],"edges":[],"times":[]}', "thing entries must be objects"),
    ],
)
@pytest.mark.parametrize("command", [["mine"], ["query", "events_at", "--time", "1"]])
def test_malformed_snapshot_entry_exits_one_with_its_fault(tmp_path, capsys, body, fault, command):
    snapshot = _write(tmp_path / "snap.json", body)
    assert main([command[0], "--snapshot", snapshot, *command[1:]]) == 1
    assert capsys.readouterr() == ("", f"scenamine: {snapshot}: {fault}\n")
    assert (tmp_path / "snap.json").read_text(encoding="utf-8") == body


@pytest.mark.parametrize("argv", [["mine"], ["query", "events_at", "--time", "1"]])
def test_command_without_snapshot_exits_one(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"scenamine: {argv[0]} requires --snapshot\n")


def _ambiguous_snapshot(tmp_path) -> str:
    """An actor and a role both named red, and the actor's event."""
    store = GraphStore()
    actor, role = store.add_thing("actor", "red"), store.add_thing("role", "red")
    app = store.add_thing("appearance", "stoplight")
    event = store.add_thing("event", times=TimeSpec.point(3))
    store.add_edge(Edge("is", event, app))
    store.add_edge(Edge("has", event, actor, role="color"))
    return _write(tmp_path / "snap.json", store.dumps())


@pytest.mark.parametrize(
    "args, code, out, err",
    [
        (["timespan_of", "red"], 1, "", "scenamine: ambiguous thing name 'red': ids [1, 2]\n"),
        (["timespan_of", "1"], 0, '{"intervals": [[3, 3]]}\n', ""),
        (["timespan_of"], 1, "", "scenamine: timespan_of requires a thing argument\n"),
        (["timespan_of", "red", "--time", "3"], 1, "", "scenamine: timespan_of does not take --time\n"),
        (["roles_of_actor", "red"], 0, "[]\n", ""),
        (["actors_of_role"], 1, "", "scenamine: actors_of_role requires a role argument\n"),
        (["actors_of_role", "red"], 0, "[]\n", ""),
        (["roles_of_actor"], 1, "", "scenamine: roles_of_actor requires an actor argument\n"),
        (["roles_of_appearance"], 1, "", "scenamine: roles_of_appearance requires an appearance argument\n"),
        (["actors_of_event"], 1, "", "scenamine: actors_of_event requires an event argument\n"),
        (["timespan_of2"], 1, "", "scenamine: unknown query function 'timespan_of2'; valid names: "
         + ", ".join(sorted(queries.REGISTRY) + ["timespan_of"]) + "\n"),
    ],
)
def test_query_resolves_names_and_arguments_through_one_path(tmp_path, capsys, args, code, out, err):
    snapshot = _ambiguous_snapshot(tmp_path)
    assert main(["query", "--snapshot", snapshot, *args]) == code
    assert capsys.readouterr() == (out, err)


def test_out_path_that_is_a_directory_exits_two_leaving_no_temp_file(tmp_path, capsys):
    snapshot = _extract(tmp_path, STOPLIGHT_DEFS, STOPLIGHT_CORPUS)
    before = pathlib.Path(snapshot).read_bytes()
    out = tmp_path / "report"
    out.mkdir()
    capsys.readouterr()
    assert main(["mine", "--snapshot", snapshot, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"scenamine: cannot write {out}: ") and captured.err.count("\n") == 1
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".scenamine-")]
    assert list(out.iterdir()) == [] and pathlib.Path(snapshot).read_bytes() == before
