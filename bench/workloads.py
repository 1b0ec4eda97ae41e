"""Benchmark workloads: seeded inputs and the cts commands each one runs.

Every input is a function of the seed alone. The probability table and the
records follow the ``random_spec``/``make_corpus`` recipe of
``tests/conftest.py``; the recipe is repeated here so that a change to the
test helpers cannot change the benchmark's inputs. Instance lengths are a
fixed, evenly spaced set that the seed only shuffles: the seed varies the
tokens, never the amount of work, so per-instance counts are comparable
across seeds and the vocabulary holds no whitespace or punctuation, so
segment cuts always land exactly on the budget.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

# 300 single-character symbols; the acceptance corpus shape of tests/test_acceptance.py
VOCAB = tuple(chr(0x100 + i) for i in range(300))
RATIO = "0.7"
CONDITION_TEMPLATE = "{answer}"

# Simulated model time at the stub: a fixed cost per POST plus a cost per
# context token, the prefill a real model would do. It dominates a POST, as
# on a remote model. Every workload goes through the stub for that reason: on
# a shared machine whose CPU speed drifts by tens of percent over minutes, a
# CPU-bound workload (the toy backend in process) does not repeat within any
# usable bound, while model time keeps these figures steady.
STUB_POST_MS = 10.0
STUB_TOKEN_US = 4.0
_MODEL_TIME = f"stub model time {STUB_POST_MS:g} ms/POST + {STUB_TOKEN_US:g} us/context token"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_instances: int
    min_tokens: int
    max_tokens: int
    distinct_tokens: bool
    # a closed loop: each worker waits for its reply; at most nproc = 2
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "http-compress",
            "compress --workers 2, then emit sft: short contexts, many small POSTs, round-trip "
            f"bound; where tokenize-once and request coalescing show; {_MODEL_TIME}",
            n_instances=100, min_tokens=150, max_tokens=250, distinct_tokens=True, workers=2,
        ),
        Workload(
            "http-ablate",
            "ablate --workers 2: four modes re-read and re-score the input, 14 POSTs per "
            f"instance; where score-once shows; {_MODEL_TIME}",
            n_instances=40, min_tokens=150, max_tokens=250, distinct_tokens=True, workers=2,
        ),
        Workload(
            "long-per-segment",
            "compress --scope per-segment --segment-budget 256 over 3,000-5,000-token "
            f"instances: contexts grow with the kept prefix, so HTTP is payload bound; {_MODEL_TIME}",
            n_instances=10, min_tokens=3000, max_tokens=5000, distinct_tokens=False, workers=1,
        ),
    )
}


def random_spec(rng: random.Random) -> dict:
    """A per-previous-token probability table over VOCAB, as JSON data."""

    def row() -> dict[str, float]:
        weights = [rng.uniform(0.05, 1.0) for _ in VOCAB]
        total = sum(weights)
        out = {tok: w / total for tok, w in zip(VOCAB, weights)}
        out[VOCAB[0]] += 1.0 - sum(out.values())
        return out

    table = {"START": row()}
    for tok in VOCAB:
        table[tok] = row()
    return {"vocabulary": list(VOCAB), "table": table}


def make_corpus(workload: Workload, rng: random.Random) -> list[dict]:
    n = workload.n_instances
    span = workload.max_tokens - workload.min_tokens
    lengths = [workload.min_tokens + (span * i) // max(1, n - 1) for i in range(n)]
    rng.shuffle(lengths)
    records = []
    for i, length in enumerate(lengths):
        if workload.distinct_tokens:
            tokens = rng.sample(VOCAB, length)
        else:
            tokens = [rng.choice(VOCAB) for _ in range(length)]
        records.append({"id": f"inst-{i}", "problem": "", "thinking": "".join(tokens), "answer": tokens[0]})
    return records


def write_inputs(workload: Workload, seed: int, directory: str) -> tuple[str, str, int]:
    """Write spec.json and corpus.jsonl; return their paths and the thinking-token total."""
    rng = random.Random(seed)
    spec = random_spec(rng)
    records = make_corpus(workload, rng)
    spec_path = os.path.join(directory, "spec.json")
    corpus_path = os.path.join(directory, "corpus.jsonl")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, ensure_ascii=False)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return spec_path, corpus_path, sum(len(r["thinking"]) for r in records)


def commands(workload: Workload, corpus: str, backend: str, workers: int, out: str) -> list[list[str]]:
    """The cts argument lists the workload runs, in order, writing under ``out``."""
    common = ["--ratio", RATIO, "--backend", backend, "--condition-template", CONDITION_TEMPLATE,
              "--workers", str(workers)]
    compressed = os.path.join(out, "compressed.jsonl")
    if workload.name == "http-compress":
        return [
            ["compress", "--input", corpus, "--output", compressed, *common],
            ["emit", "sft", "--input", compressed, "--output", os.path.join(out, "sft.jsonl")],
        ]
    if workload.name == "http-ablate":
        return [["ablate", "--input", corpus, "--output", os.path.join(out, "ablate"), *common]]
    if workload.name == "long-per-segment":
        return [["compress", "--input", corpus, "--output", compressed, *common,
                 "--scope", "per-segment", "--segment-budget", "256"]]
    raise ValueError(f"unknown workload {workload.name!r}")
