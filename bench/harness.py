"""Run one workload: set up, measure, check the outputs and report.

Every workload repeats the same round, in this process with one client
that makes each call when the previous one has returned:

* set-up: generate the inputs and write them;
* cycle: ``scenamine extract`` then ``scenamine mine`` through the
  in-process ``scenamine.cli.main``; for ``query`` this is part of the
  set-up, which builds the graph the queries read;
* loads: ``GraphStore.loads`` of the mined snapshot text;
* queries: the next calls of a seeded mix over every query function
  against the loaded graph.

The workloads differ in their inputs and in how many loads and queries a
round makes.  Between the timed operations of an untraced run a fixed
probe measures the pace of the machine, and each timing is scaled by the
pace around it (see pace.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pace
import workloads as wl
from tracer import QUERY_FUNCTIONS, Tracer

import scenamine.cli as cli
import scenamine.queries as queries
from scenamine.graph import GraphStore

WORKLOADS = ("crosswalk", "news", "query")

# Inputs per workload and scale.  "full" is what the benchmark measures;
# "tiny" is for the benchmark's own tests.
SCALES = {
    "full": {"crosswalk_runs": 200, "news_docs": 5, "news_lengths": None, "query_runs": 200},
    "tiny": {"crosswalk_runs": 200, "news_docs": 4, "news_lengths": [40, 45, 50, 55], "query_runs": 200},
}

# One round is a set-up, a cycle (for ``query`` part of the set-up), then
# ``loads`` snapshot loads, then ``queries`` calls from the seeded query
# list of ``query_list`` calls.  A cycle is one extract and ``mines`` mines,
# each of the extracted snapshot, so that cheap mining gets as many samples
# as the rest.  Rounds repeat until the run's seconds are up, so that a slow
# spell of the machine touches every metric a little instead of one phase
# entirely.
ROUNDS = {
    "crosswalk": {"mines": 1, "loads": 3, "queries": 250, "query_list": 1500},
    "news": {"mines": 4, "loads": 3, "queries": 1000, "query_list": 1500},
    "query": {"mines": 1, "loads": 2, "queries": 600, "query_list": 4000},
}
MIN_ROUNDS = 5
# an untraced run probes the pace between every this many query calls
PACE_EVERY_QUERIES = 100
# p99 needs at least ten samples beyond it
MIN_QUERIES = 1100

CROSSWALK_DEFINITION_NAMES = ("approach", "wait", "enter-on-red", "safe-cross", "injury")
DEFINITION_NAMES = CROSSWALK_DEFINITION_NAMES + wl.NEWS_FACT_KINDS

END_TO_END = {
    "setup_s": "s",
    "extract_s": "s",
    "mine_s": "s",
    "snapshot_mb": "MB",
    "load_s": "s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "query_per_s": "1/s",
    "peak_rss_mb": "MB",
}

STAGE_COUNTS = (
    ("scope_roles", "domains"),
    ("scope_roles", "members"),
    ("differentiate_actors", "rows"),
    ("unify_appearances", "generalizations"),
    ("unify_appearances", "covered_events"),
    ("cluster_events", "coincidences"),
    ("unify_situations", "situations"),
    ("chain_coincidences", "processes"),
    ("unify_scenarios", "scenarios"),
    ("detect_forks", "forks"),
    ("differentiate_triggers", "triggers"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = list(Tracer().metrics(list(DEFINITION_NAMES)))
    names += [f"mining.{stage}.{count}" for stage, count in STAGE_COUNTS]
    names += ["graph.things_total", "graph.edges_total", "queries.result_members"]
    names += ["tracer.overhead.extract_s", "tracer.overhead.mine_s",
              "tracer.overhead.query_per_s", "tracer.coverage"]

    def unit(name: str) -> str:
        if name.endswith("query_per_s"):
            return "1/s"
        if name.endswith("_ms"):
            return "ms"
        if name.endswith((".s", "_s")) or ".s." in name:
            return "s"
        if name in ("matching.match_yield", "tracer.coverage"):
            return "ratio"
        return "count"

    return {name: unit(name) for name in names}


@dataclass
class Files:
    root: Path

    def __post_init__(self):
        self.definitions = self.root / "definitions.txt"
        self.corpus = self.root / "corpus.jsonl"
        self.snapshot = self.root / "snapshot.json"
        self.report = self.root / "report.json"


@dataclass
class Run:
    """State and findings of one workload run."""

    workload: str
    seed: int
    scale: str
    files: Files
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[float]] = field(default_factory=dict)
    ends: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)
    facts: list[dict] = field(default_factory=list)
    docs: int = 0
    runs: int = 0
    min_support: int | None = None
    pacer: pace.Pacer | None = None

    def pace(self) -> None:
        """Probe the pace between two timed operations of an untraced run."""
        if self.pacer is not None:
            self.pacer.probe()

    def check(self, failures: list[str]) -> None:
        self.failures.extend(failures)

    def sample(self, name: str, value: float) -> None:
        """Record the seconds of an operation that has just ended."""
        self.samples.setdefault(name, []).append(value)
        self.ends.setdefault(name, []).append(time.perf_counter())

    def scaled(self, name: str) -> list[float]:
        """The samples of ``name``, each scaled to the nominal pace by the
        probes around it."""
        factor = self.pacer.factor
        return [value * factor(end - value, end)
                for value, end in zip(self.samples[name], self.ends[name])]

    def same(self, what: str, value) -> None:
        """Record a value that must repeat exactly within the run."""
        if what not in self.counts:
            self.counts[what] = value
        elif self.counts[what] != value:
            self.failures.append(f"{what} changed between repetitions: {self.counts[what]} != {value}")


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# -- set-up ---------------------------------------------------------------------


def _write_inputs(run: Run) -> None:
    scale = SCALES[run.scale]
    if run.workload == "news":
        docs, run.facts = wl.news_corpus(run.seed, scale["news_docs"], scale["news_lengths"])
        definitions = wl.NEWS_DEFINITIONS
    else:
        run.runs = scale["crosswalk_runs" if run.workload == "crosswalk" else "query_runs"]
        run.min_support = wl.crosswalk_min_support(run.runs)
        docs = wl.crosswalk_corpus(run.seed, run.runs)
        definitions = wl.CROSSWALK_DEFINITIONS
    run.docs = len(docs)
    corpus = wl.corpus_text(docs)
    run.files.definitions.write_text(definitions, encoding="utf-8")
    run.files.corpus.write_text(corpus, encoding="utf-8")
    run.same("digest.inputs", _sha(definitions + corpus))


def setup(run: Run, first: bool) -> float:
    """Generate and write the inputs; for ``query`` also build the graph."""
    started = time.perf_counter()
    _write_inputs(run)
    if run.workload == "query":
        seconds = time.perf_counter() - started
        run.pace()
        extract_s, mines = cycle(run, first)
        return seconds + extract_s + sum(mines)
    return time.perf_counter() - started


# -- phases -----------------------------------------------------------------------


def _cli(run: Run, argv: list[str]) -> tuple[float, str]:
    """One in-process CLI call: seconds and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    run.attempted += 1
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a traceback is a failed operation
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - started
    if code != 0:
        run.failed += 1
        run.failures.append(f"scenamine {argv[0]} exited {code}: {err.getvalue().strip()[:300]}")
    return seconds, out.getvalue()


def cycle(run: Run, first: bool, tracer: Tracer | None = None) -> tuple[float, list[float]]:
    """Extract, then mine the extracted snapshot ``mines`` times; returns the
    extract seconds and each mine's seconds.  The first cycle of a run also
    checks what the program extracted and mined."""
    f = run.files
    extract_argv = ["extract", "--definitions", str(f.definitions), "--corpus", str(f.corpus),
                    "--snapshot", str(f.snapshot)]
    mine_argv = ["mine", "--snapshot", str(f.snapshot), "--out", str(f.report)]
    if run.min_support is not None:
        mine_argv += ["--min-support", str(run.min_support)]
    with _span(tracer, "cli.extract"):
        extract_s, summary_text = _cli(run, extract_argv)
    run.sample("extract_s", extract_s)
    run.pace()
    extracted = f.snapshot.read_text(encoding="utf-8")
    run.same("digest.extracted_snapshot", _sha(extracted))
    try:
        run.same("matching.events", json.loads(summary_text)["events"])
    except (ValueError, KeyError):
        run.failures.append("extract printed no summary")
    if first:
        snapshot = checks.Snapshot(json.loads(extracted))
        if run.workload == "news":
            run.check(checks.check_news_facts(snapshot, run.facts))
        else:
            run.check(checks.check_crosswalk_extraction(
                snapshot, run.docs, run.runs, run.counts.get("matching.events", -1)))
    mines = []
    for i in range(1 if tracer else ROUNDS[run.workload]["mines"]):
        if i:
            f.snapshot.write_text(extracted, encoding="utf-8")  # mine rewrote it
        with _span(tracer, "cli.mine"):
            mine_s, _ = _cli(run, mine_argv)
        run.sample("mine_s", mine_s)
        run.pace()
        mines.append(mine_s)
        report_text = f.report.read_text(encoding="utf-8")
        run.same("digest.report", _sha(report_text))
        run.same("digest.mined_snapshot", _sha(f.snapshot.read_bytes()))
        run.same("snapshot_bytes", f.snapshot.stat().st_size)
        report = json.loads(report_text)
        for stage, count in STAGE_COUNTS:
            run.same(f"mining.{stage}.{count}", report["stages"][stage][count])
        if first and i == 0 and run.workload != "news":
            run.check(checks.check_crosswalk_report(report))
    return extract_s, mines


@contextlib.contextmanager
def _span(tracer: Tracer | None, name: str):
    if tracer is None:
        yield
        return
    index = tracer.open(name)
    try:
        yield
    finally:
        tracer.close(index)


def _answer(result):
    if hasattr(result, "intervals"):
        return tuple(result.intervals)
    return tuple(result.pairs())


def query_list(run: Run, snapshot: checks.Snapshot) -> list[tuple[str, tuple]]:
    """The seeded query mix, balanced so that its cost hardly depends on the
    seed: every function the graph has arguments for, equally often, in
    shuffled order.  Arguments cycle through the things of the right kind
    in shuffled order.  Time arguments are spaced evenly over the whole
    timeline, alternately a single tick and a window of 1-20 ticks, without
    randomness: a window that hits a large document costs far more than
    one that does not, so their number must not depend on the seed."""
    rng = random.Random(f"queries:{run.workload}:{run.seed}")
    lo, hi = snapshot.ticks()
    spans = [k for k in ("event", "coincidence", "process", "actor") if snapshot.of_kind(k)]

    def things(kind: str):
        pool = list(snapshot.of_kind(kind))
        while True:
            rng.shuffle(pool)
            yield from pool

    draws = {kind: things(kind) for kind in set(snapshot.kind.values())}
    usable = [
        name for name in QUERY_FUNCTIONS
        if name == "timespan_of" or queries.REGISTRY[name][1] in (None, *draws)
    ]
    per_function = -(-ROUNDS[run.workload]["query_list"] // len(usable))
    calls = []
    for name in usable:
        for j in range(per_function):
            if name == "timespan_of":
                arg = next(draws[spans[j % len(spans)]])
            elif queries.REGISTRY[name][1] is None:
                start = lo + j * (hi - lo + 1) // per_function
                arg = start if j % 2 else (start, start + 1 + j * 7 % 20)
            else:
                arg = next(draws[queries.REGISTRY[name][1]])
            calls.append((name, (arg,)))
    rng.shuffle(calls)
    return calls


class QueryLoop:
    """Closed loop with one client over the query list, repeated as often
    as asked.  The first pass records the answers; later passes, and loops
    given those answers, must reproduce them."""

    def __init__(self, run: Run, store: GraphStore, calls: list, answers: list | None = None):
        self.run, self.store, self.calls = run, store, calls
        self.answers = [] if answers is None else answers
        self.latencies: list[float] = []
        self.done = 0

    def step(self, count: int) -> None:
        run = self.run
        for _ in range(count):
            index = self.done % len(self.calls)
            name, args = self.calls[index]
            if self.done % PACE_EVERY_QUERIES == 0:
                run.pace()
            fn = getattr(queries, name)  # resolved per call so that a tracer sees it
            run.attempted += 1
            started = time.perf_counter()
            try:
                answer = _answer(fn(self.store, *args))
            except Exception as exc:  # noqa: BLE001 - a raising query is a failed operation
                answer = None
                run.failed += 1
                run.failures.append(f"{name}{args} raised {type(exc).__name__}: {exc}")
            latency = time.perf_counter() - started
            self.latencies.append(latency)
            run.sample("query_s", latency)
            if len(self.answers) <= index:
                self.answers.append(answer)
            elif self.answers[index] != answer:
                run.failures.append(f"{name}{args} answered differently on a later pass")
            self.done += 1

    def per_second(self) -> float:
        return len(self.latencies) / sum(self.latencies)


# -- a whole run ------------------------------------------------------------------


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _load(run: Run, text: str) -> GraphStore:
    run.attempted += 1
    started = time.perf_counter()
    store = GraphStore.loads(text)
    run.sample("load_s", time.perf_counter() - started)
    run.pace()
    return store


def _query_setup(run: Run) -> tuple[str, GraphStore, checks.Snapshot, list]:
    text = run.files.snapshot.read_text(encoding="utf-8")
    store = GraphStore.loads(text)
    snapshot = checks.Snapshot(json.loads(text))
    return text, store, snapshot, query_list(run, snapshot)


def _summary(values: dict[str, list[float]]) -> dict[str, float]:
    median = statistics.median
    query_ms = [s * 1e3 for s in values["query_s"]]
    return {
        "setup_s": median(values["setup_s"]),
        "extract_s": median(values["extract_s"]),
        "mine_s": median(values["mine_s"]),
        "load_s": median(values["load_s"]),
        "query_p50_ms": median(query_ms),
        "query_p99_ms": _percentile(query_ms, 99),
        "query_per_s": len(query_ms) / sum(values["query_s"]),
    }


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict[str, float]]:
    """The untraced run: every end-to-end metric, with each timing scaled
    to the nominal pace (see pace.py), and the same timings unscaled."""
    plan = ROUNDS[run.workload]
    run.pacer = pace.Pacer()
    deadline = time.perf_counter() + seconds
    rounds, loop = 0, None
    run.pace()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline or loop.done < max(len(loop.calls), MIN_QUERIES):
        run.sample("setup_s", setup(run, first=rounds == 0))
        run.pace()
        if run.workload != "query":
            cycle(run, first=rounds == 0)
        if loop is None:
            text, store, snapshot, calls = _query_setup(run)
            loop = QueryLoop(run, store, calls)
        for _ in range(plan["loads"]):
            _load(run, text)
        loop.step(plan["queries"])
        rounds += 1
    loop.step(-loop.done % len(loop.calls))  # whole passes, so every call counts equally often
    run.pace()
    run.check(checks.check_query_answers(store, snapshot, calls, loop.answers))
    timed = ("setup_s", "extract_s", "mine_s", "load_s", "query_s")
    metrics = _summary({name: run.scaled(name) for name in timed})
    metrics["snapshot_mb"] = run.counts["snapshot_bytes"] / 1e6
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    unscaled = _summary(run.samples)
    unscaled["pace_probe_ms"] = statistics.median(run.pacer.seconds) * 1e3
    run.samples["pace_probe"] = run.pacer.seconds
    return metrics, unscaled


def trace(run: Run) -> dict[str, float]:
    """The traced run: every per-layer metric.

    Two untraced cycles and an untraced query pass give the reference for
    the tracing overhead.  Then, traced: cycle A, whose counters must repeat
    exactly in cycle B; cycle B, one load and one query pass, from which the
    metrics come.  The tracer is removed before the results are checked.
    """
    setup(run, first=True)
    for i in range(2):
        untraced_extract, untraced_mines = cycle(run, first=i == 0 and run.workload != "query")
    text, store, snapshot, calls = _query_setup(run)
    plain = QueryLoop(run, store, calls)
    plain.step(len(calls))
    run.check(checks.check_query_answers(store, snapshot, calls, plain.answers))
    tracer = Tracer()
    tracer.install()
    try:
        cycle(run, first=False, tracer=tracer)
        counts_a = tracer.deterministic_counts()
        tracer.reset()
        traced_extract, (traced_mine,) = cycle(run, first=False, tracer=tracer)
        counts_b = tracer.deterministic_counts()
        coverage = sum(tracer.self_times()) / (traced_extract + traced_mine)
        traced_loop = QueryLoop(run, _load(run, text), calls, plain.answers)
        traced_loop.step(len(calls))
    finally:
        tracer.uninstall()
    if counts_a != counts_b:
        run.failures.append(f"traced counters differ between two cycles: {counts_a} != {counts_b}")
    if not 0.9 <= coverage <= 1.1:
        run.failures.append(f"per-layer self times cover {coverage:.3f} of the traced extract and mine")
    out = tracer.metrics(list(DEFINITION_NAMES))
    for stage, count in STAGE_COUNTS:
        out[f"mining.{stage}.{count}"] = run.counts[f"mining.{stage}.{count}"]
    out["graph.things_total"] = len(store.things())
    out["graph.edges_total"] = len(store.edges())
    out["queries.result_members"] = sum(len(a) for a in plain.answers)
    out["tracer.overhead.extract_s"] = traced_extract - untraced_extract
    out["tracer.overhead.mine_s"] = traced_mine - statistics.median(untraced_mines)
    out["tracer.overhead.query_per_s"] = traced_loop.per_second() - plain.per_second()
    out["tracer.coverage"] = coverage
    run.counts.update({f"traced.{k}": v for k, v in counts_b.items()})
    return out


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, traced: bool, workdir: Path,
                 scale: str = "full") -> dict:
    """One run; ``workdir`` must exist and is left with the run's files."""
    run = Run(workload, seed, scale, Files(workdir))
    raw = {}
    if traced:
        values = trace(run)
        units = per_layer_units()
    else:
        values, raw = measure(run, seconds)
        units = END_TO_END
    failures = run.failures
    if run.failed:
        failures = failures + [f"{run.failed} of {run.attempted} operations failed"]
    return {
        "workload": workload,
        "traced": traced,
        "correct": not failures,
        "failures": failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "unscaled": raw,
        "samples": {name: len(v) for name, v in run.samples.items()},
        "counts": run.counts,
    }
