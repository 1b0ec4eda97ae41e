"""Tests of the benchmark itself: inputs, exact counts, repeatability, tracing, checkout guard.

Run with ``python -m pytest bench`` from the repository root. The workloads
are shrunk to a few instances so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


@pytest.fixture(autouse=True)
def one_setup_sample(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES_PER_REP", 1)


def small(name: str, n: int):
    return dataclasses.replace(WORKLOADS[name], n_instances=n)


def bench_once(tmp_path, name: str, n: int, trace: bool, label: str = "run") -> tuple[dict, dict]:
    workdir = tmp_path / label
    workdir.mkdir()
    return run.run_benchmark(small(name, n), seed=7, seconds=0, trace=trace, workdir=str(workdir))


def test_inputs_are_a_function_of_the_seed(tmp_path):
    paths = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / label).mkdir()
        spec, corpus, tokens = write_inputs(WORKLOADS["http-compress"], seed, str(tmp_path / label))
        paths[label] = (open(spec, "rb").read(), open(corpus, "rb").read(), tokens)
    assert paths["a"] == paths["b"]
    assert paths["a"][:2] != paths["c"][:2]
    # the seed varies the tokens, not the amount of work
    assert paths["a"][2] == paths["c"][2]


@pytest.mark.parametrize("name, posts", [("http-compress", 4), ("http-ablate", 14)])
def test_exact_post_counts_repeat(tmp_path, name, posts):
    first, first_record = bench_once(tmp_path, name, 6, trace=False, label="first")
    second, second_record = bench_once(tmp_path, name, 6, trace=False, label="second")
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    assert first["metrics"]["backend_posts_per_instance"]["value"] == posts
    for key in ("backend_posts_per_instance", "backend_context_tokens_per_instance"):
        assert first["metrics"][key] == second["metrics"][key]
    assert first_record["output_sha256"] == second_record["output_sha256"] == first_record["reference_sha256"]


# Per instance at the seed commit: tokenize calls and POSTs. Global scope
# tokenizes the thinking, then the thinking and the condition again; ablate's
# two unconditional modes skip the condition. The segment loop tokenizes the
# thinking and the condition once; the two long instances have 3,000 and
# 5,000 tokens: 12 and 20 segments of 256, one POST each.
@pytest.mark.parametrize("name, n, tokenize_calls, posts", [
    ("http-compress", 6, 3, 4),
    ("http-ablate", 4, 10, 14),
    ("long-per-segment", 2, 2, 18),
])
def test_traced_run_reports_every_layer_metric(tmp_path, name, n, tokenize_calls, posts):
    result, record = bench_once(tmp_path, name, n, trace=True)
    assert result["correct"], record["problems"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(result["metrics"]) == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["backends.tokenize.calls"] == tokenize_calls * n
    assert metrics["backends.http.posts"] == posts * n
    if name == "http-compress":
        assert metrics["emitters.emit_sft.s"] > 0
    if name == "long-per-segment":
        assert metrics["selector.segments_per_instance"] == 16


def test_benchmark_json_matches_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def test_mismatching_line_fails_its_instance():
    reference = {"out.jsonl": b"a\nb\nc\n"}
    assert run.failed_instances(reference, reference, 3) == set()
    assert run.failed_instances({"out.jsonl": b"a\nX\nc\n"}, reference, 3) == {1}
    assert run.failed_instances({"out.jsonl": b"a\n"}, reference, 3) == {1, 2}
    assert run.failed_instances({}, reference, 3) == {0, 1, 2}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "http-compress", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
