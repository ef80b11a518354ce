"""Command-line front-end: extract events, mine scenarios, query the graph.

Subcommands: ``extract`` (definitions + corpus -> snapshot), ``mine``
(snapshot -> report + updated snapshot), ``query`` (snapshot -> JSON
result set) and ``run`` (extract then mine).  Results go to stdout as
JSON; diagnostics go to stderr.  Exit codes: 0 success, 1 parse or
domain error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import stat
import sys
import tempfile

from . import queries
from .definitions import DefinitionError, parse_definitions
from .graph import KINDS, GraphError, GraphStore, SnapshotError, read_json
from .matching import CorpusError, MatchLimitError, check_granularity, extract_events, read_corpus
from .mining import MiningConfig, MiningStageError, run_pipeline

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, message: str, code: int):
        self.code = code
        super().__init__(message)


def _fail(message: str, code: int):
    raise CliError(message, code)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return fp.read()
    except (OSError, ValueError) as exc:  # ValueError: NUL byte, bad encoding
        _fail(f"cannot read {path}: {exc}", EXIT_IO)


def _write_atomic(path: str, data: str) -> None:
    """Write through a temporary file and a rename.  The file keeps the
    permission bits it had; a new one gets ``open``'s, 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0o022)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".scenamine-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                fp.write(data)
            os.chmod(tmp, mode)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:
        _fail(f"cannot write {path}: {exc}", EXIT_IO)


_PATH_KEYS = ("definitions", "corpus", "snapshot", "out")
_CONFIG_KEYS = _PATH_KEYS + ("granularity", "mining")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    raw = _read_text(path)
    try:
        data = read_json(raw)
    except ValueError as exc:
        _fail(f"bad config file {path}: {exc}", EXIT_DOMAIN)
    if not isinstance(data, dict):
        _fail(f"bad config file {path}: expected an object", EXIT_DOMAIN)
    for key in data:
        if key not in _CONFIG_KEYS:
            _fail(f"unknown config key {key!r}", EXIT_DOMAIN)
    for key in _PATH_KEYS:
        value = data.get(key)
        if value is not None and not isinstance(value, str):
            _fail(f"config key {key!r} must be a path string, got {value!r}", EXIT_DOMAIN)
    return data


def _mining_config(args: argparse.Namespace, file_cfg: dict) -> MiningConfig:
    """The config file's "mining" object, then the mining flags, over the
    defaults; both are spelled as ``MiningConfig``'s field names."""
    cfg = MiningConfig()
    mining = file_cfg.get("mining", {})
    if not isinstance(mining, dict):
        _fail("config key 'mining' must be an object", EXIT_DOMAIN)
    keys = [f.name for f in dataclasses.fields(MiningConfig)]
    for key in mining:
        if key not in keys:
            _fail(f"unknown mining config key {key!r}", EXIT_DOMAIN)
        setattr(cfg, key, mining[key])
    for key in keys:
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
    try:
        cfg.validate()
    except ValueError as exc:
        _fail(f"bad mining configuration: {exc}", EXIT_DOMAIN)
    return cfg


def _setting(args: argparse.Namespace, file_cfg: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return file_cfg.get(key, default)


def _granularity(args: argparse.Namespace, file_cfg: dict) -> int:
    try:
        return check_granularity(_setting(args, file_cfg, "granularity", 1))
    except ValueError as exc:
        _fail(str(exc), EXIT_DOMAIN)


def _report_json(report, store) -> str:
    return json.dumps(report.to_json_dict(store), sort_keys=True, indent=2) + "\n"


def _do_extract(args, file_cfg) -> tuple[GraphStore, list, int, list[int]]:
    """The extracted store, with the definitions, the number of documents
    and the new event ids."""
    definitions_path = _setting(args, file_cfg, "definitions")
    corpus_path = _setting(args, file_cfg, "corpus")
    if not definitions_path or not corpus_path:
        _fail("extract requires --definitions and --corpus", EXIT_DOMAIN)
    granularity = _granularity(args, file_cfg)
    try:
        definitions = parse_definitions(_read_text(definitions_path))
    except DefinitionError as exc:
        _fail(f"{definitions_path}: {exc}", EXIT_DOMAIN)
    corpus_text = _read_text(corpus_path)
    store = GraphStore()
    try:
        docs = read_corpus(corpus_text.splitlines(), granularity)
        return store, definitions, len(docs), extract_events(store, definitions, *docs)
    except (CorpusError, MatchLimitError) as exc:
        _fail(f"{corpus_path}: {exc}", EXIT_DOMAIN)


def cmd_extract(args) -> int:
    file_cfg = _load_config_file(args.config)
    store, definitions, documents, event_ids = _do_extract(args, file_cfg)
    per_definition = {d.name: 0 for d in definitions}
    for event_id in event_ids:
        for app_id in store.neighbor_ids(event_id, "is", node_kind="appearance"):
            name = store.thing(app_id).name
            if name in per_definition:
                per_definition[name] += 1
    snapshot_path = _setting(args, file_cfg, "snapshot")
    if snapshot_path:
        _write_atomic(snapshot_path, store.dumps())
    summary = {
        "documents": documents,
        "events": len(store.things("event")),
        "per_definition": per_definition,
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def _do_mine(args, file_cfg, store: GraphStore, cfg: MiningConfig) -> None:
    try:
        report = run_pipeline(store, cfg)
    except MiningStageError as exc:
        _fail(str(exc), EXIT_DOMAIN)
    text = _report_json(report, store)
    out_path = _setting(args, file_cfg, "out")
    if out_path:
        _write_atomic(out_path, text)
    snapshot_path = _setting(args, file_cfg, "snapshot")
    if snapshot_path:
        _write_atomic(snapshot_path, store.dumps())
    sys.stdout.write(text)


def _load_snapshot(args: argparse.Namespace, file_cfg: dict, command: str) -> GraphStore:
    """The store in the required ``--snapshot`` file; a fault exits 1."""
    snapshot_path = _setting(args, file_cfg, "snapshot")
    if not snapshot_path:
        _fail(f"{command} requires --snapshot", EXIT_DOMAIN)
    try:
        return GraphStore.loads(_read_text(snapshot_path))
    except SnapshotError as exc:
        _fail(f"{snapshot_path}: {exc}", EXIT_DOMAIN)


def cmd_mine(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _mining_config(args, file_cfg)
    _do_mine(args, file_cfg, _load_snapshot(args, file_cfg, "mine"), cfg)
    return EXIT_OK


def cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _mining_config(args, file_cfg)
    store = _do_extract(args, file_cfg)[0]
    _do_mine(args, file_cfg, store, cfg)
    return EXIT_OK


def _parse_time_flag(text: str):
    start, colon, end = text.partition(":")
    try:
        window = (int(start), int(end)) if colon else int(text)
    except ValueError:
        window = None
    if window is None or colon and window[0] > window[1]:
        _fail(f"bad --time value {text!r}", EXIT_DOMAIN)
    return window


def _with_article(kind: str) -> str:
    return ("an " if kind[0] in "aeiou" else "a ") + kind


def _resolve_thing(store: GraphStore, kind: str, value: str) -> int:
    """A thing id of the kind, or the one thing of the kind with that name;
    the kind "thing" takes any kind."""
    if value.isdecimal():
        try:
            thing_id = int(value)
        except ValueError:  # past int()'s digit limit, which bounds a snapshot's ids too
            _fail(f"unknown thing {value[:10]}... ({len(value)} digits)", EXIT_DOMAIN)
        node = store.thing(thing_id)  # raises GraphError when unknown
        if kind not in ("thing", node.kind):
            _fail(f"thing {node.id} is {_with_article(node.kind)}, not {_with_article(kind)}", EXIT_DOMAIN)
        return node.id
    kinds = sorted(KINDS) if kind == "thing" else [kind]
    matches = sorted(i for k in kinds for i in store.find_by_name(k, value))
    if not matches:
        _fail(f"no {kind} named {value!r}", EXIT_DOMAIN)
    if len(matches) > 1:
        _fail(f"ambiguous {kind} name {value!r}: ids {matches}", EXIT_DOMAIN)
    return matches[0]


# the query functions the command line runs, as queries.REGISTRY lays them
# out: the registry's and timespan_of, which takes a thing of any kind and
# no filter
_QUERIES = {**queries.REGISTRY, "timespan_of": (queries.timespan_of, "thing", ())}


def cmd_query(args) -> int:
    file_cfg = _load_config_file(args.config)
    store = _load_snapshot(args, file_cfg, "query")
    name = args.function
    if name not in _QUERIES:
        valid = ", ".join(sorted(_QUERIES))
        _fail(f"unknown query function {name!r}; valid names: {valid}", EXIT_DOMAIN)
    fn, arg_kind, names = _QUERIES[name]
    filters = {"time": args.time, "role": args.role, "order": args.order, "event_id": args.event_id}
    for key, value in filters.items():
        if value is not None and key not in names:
            _fail(f"{name} does not take --{key.removesuffix('_id')}", EXIT_DOMAIN)
    if args.time is not None:
        filters["time"] = _parse_time_flag(args.time)
    if arg_kind is None and args.argument is not None:
        _fail(f"{name} does not take a thing argument; give a window with --time", EXIT_DOMAIN)
    if arg_kind is not None and not args.argument:
        _fail(f"{name} requires {_with_article(arg_kind)} argument", EXIT_DOMAIN)
    try:
        call_args = [] if arg_kind is None else [_resolve_thing(store, arg_kind, args.argument)]
        if args.event_id is not None:
            filters["event_id"] = _resolve_thing(store, "event", args.event_id)
        result = fn(store, *call_args, **{key: filters[key] for key in names})
    except GraphError as exc:
        _fail(str(exc), EXIT_DOMAIN)
    print(json.dumps(result.to_json(store), sort_keys=True))
    return EXIT_OK


def _add_flags(parser: argparse.ArgumentParser, extracts: bool, mines: bool) -> None:
    """The flags a subcommand reads: extraction inputs, mining settings or both."""
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--snapshot", help="graph snapshot path")
    if extracts:
        parser.add_argument("--definitions", help="definitions file path")
        parser.add_argument("--corpus", help="JSON-lines corpus path")
        parser.add_argument("--granularity", dest="granularity", type=int)
    if mines:
        parser.add_argument("--out", help="report output path")
        parser.add_argument("--min-support", dest="min_support", type=int)
        parser.add_argument("--fork-epsilon", dest="fork_epsilon", type=float)
        parser.add_argument("--trigger-min-shift", dest="trigger_min_shift", type=float)
        parser.add_argument("--window", dest="coincidence_window", type=int)
        parser.add_argument("--max-gap", dest="chain_max_gap", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenamine",
        description="Extract events from text with patterns and mine scenarios, forks and triggers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler, extracts, mines in (
        ("extract", cmd_extract, True, False),
        ("mine", cmd_mine, False, True),
        ("run", cmd_run, True, True),
    ):
        p = sub.add_parser(command)
        _add_flags(p, extracts, mines)
        p.set_defaults(handler=handler)
    q = sub.add_parser("query")
    _add_flags(q, False, False)
    q.add_argument("function", help="query function name")
    q.add_argument("argument", nargs="?", help="thing id or name")
    q.add_argument("--role", help="role filter")
    q.add_argument("--time", help="tick or start:end filter")
    q.add_argument("--order", type=int, help="sequence index filter")
    q.add_argument("--event", dest="event_id", help="event filter for coincidences_at")
    q.set_defaults(handler=cmd_query)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"scenamine: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
