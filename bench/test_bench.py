"""Self-check of the benchmark at tiny scale.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import harness  # noqa: E402
import pace  # noqa: E402
import workloads as wl  # noqa: E402


def _tiny(workload: str, tmp_path: Path, seed: int = 3, traced: bool = False) -> dict:
    workdir = tmp_path / f"{workload}-{seed}-{int(traced)}"
    workdir.mkdir()
    return harness.run_workload(workload, seed, 0.2, traced, workdir, scale="tiny")


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_tiny_run_passes_every_check(workload, tmp_path):
    result = _tiny(workload, tmp_path)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["samples"]["query_s"] >= harness.MIN_QUERIES


def test_timings_are_scaled_by_the_pace_around_them(tmp_path):
    result = _tiny("query", tmp_path)
    assert result["samples"]["pace_probe"] >= pace.PROBES * harness.MIN_ROUNDS
    raw = result["unscaled"]
    ratio = result["metrics"]["query_per_s"]["value"] / raw["query_per_s"]
    assert 0.5 < ratio * pace.NOMINAL_S * 1e3 / raw["pace_probe_ms"] < 2

    pacer = pace.Pacer()
    pacer.ends = [3.0, 3.1, 3.2, 5.0, 5.1, 5.2, 9.0, 9.1, 9.2]
    pacer.seconds = [0.002, 0.002, 0.009, 0.008, 0.008, 0.001, 0.004, 0.004, 0.004]
    # three probes either side, the highest and lowest left out
    assert pacer.factor(4.4, 4.5) == pytest.approx(pace.NOMINAL_S / 0.005)
    assert pacer.factor(9.3, 9.4) == pytest.approx(pace.NOMINAL_S / 0.004)
    assert pacer.factor(0.1, 0.2) == pytest.approx(pace.NOMINAL_S / (0.013 / 3))
    # a long operation also takes the probes within half its length
    pacer.ends = [k + i / 100 for k in range(1, 10) for i in range(3)]
    slow = {3: 0.010, 9: 0.010}
    pacer.seconds = [slow.get(k, 0.004 if k > 3 else 0.001) for k in range(1, 10) for _ in range(3)]
    assert pacer.factor(4.5, 4.6) == pytest.approx(pace.NOMINAL_S / 0.004)
    assert pacer.factor(4.05, 7.95) == pytest.approx(pace.NOMINAL_S / ((11 * 0.004 + 2 * 0.010) / 13))


def test_traced_run_reports_every_layer_metric(tmp_path):
    result = _tiny("crosswalk", tmp_path, traced=True)
    assert result["failures"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(harness.per_layer_units())
    assert 0.9 <= metrics["tracer.coverage"] <= 1.1
    assert metrics["matching.events"] == metrics["matching.matches"] == 700
    assert metrics["mining.detect_forks.forks"] == 1
    assert metrics["queries.events_at.calls"] > 0


def test_same_seed_repeats_outputs_and_counts(tmp_path):
    first = _tiny("news", tmp_path, seed=5)
    again_dir = tmp_path / "again"
    again_dir.mkdir()
    again = _tiny("news", again_dir, seed=5)
    assert first["counts"] == again["counts"]
    other = _tiny("news", tmp_path, seed=6)
    assert other["counts"]["digest.inputs"] != first["counts"]["digest.inputs"]


def test_altered_fork_probability_is_rejected(tmp_path):
    _tiny("crosswalk", tmp_path, seed=4)
    report = json.loads((tmp_path / "crosswalk-4-0" / "report.json").read_text())
    assert checks.check_crosswalk_report(report) == []
    altered = copy.deepcopy(report)
    altered["forks"][0]["branches"][0]["p"] += 0.1
    assert checks.check_crosswalk_report(altered)
    shifted = copy.deepcopy(report)
    shifted["triggers"][0]["score"] = 0.2
    assert checks.check_crosswalk_report(shifted)


def test_news_check_rejects_a_wrong_binding(tmp_path):
    _tiny("news", tmp_path, seed=2)
    raw = json.loads((tmp_path / "news-2-0" / "snapshot.json").read_text())
    snapshot = checks.Snapshot(raw)
    scale = harness.SCALES["tiny"]
    _, facts = wl.news_corpus(2, scale["news_docs"], scale["news_lengths"])
    assert {f["definition"] for f in facts} == set(wl.NEWS_FACT_KINDS)
    assert checks.check_news_facts(snapshot, facts) == []
    wrong = copy.deepcopy(facts)
    fact = next(f for f in wrong if f["bindings"])
    fact["bindings"][min(fact["bindings"])] += "x"
    assert checks.check_news_facts(snapshot, wrong)


def test_crosswalk_generator_keeps_the_model():
    docs = wl.crosswalk_corpus(9, 800)
    names = {d["text"].split()[0] for d in docs}
    assert len(names) == 800 and all(n.isalpha() for n in names)
    plans = wl.crosswalk_plans(800)
    assert sum(p["injured"] for p in plans) == 400
    trigger = [p for p in plans if p["trigger"]]
    assert len(trigger) == 400 and sum(p["injured"] for p in trigger) == 360
    assert sum(p["with_wait"] for p in trigger) == 200
    assert wl.crosswalk_min_support(800) == 204
    assert wl.corpus_text(docs) == wl.corpus_text(wl.crosswalk_corpus(9, 800))


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crosswalk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
