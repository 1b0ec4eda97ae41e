"""Shared toy-model fixtures and corpus builders."""

from __future__ import annotations

import dataclasses
import json
import pathlib
import random

import pytest

import cts.cli
from cts.backends import HttpBackend, HttpBackendConfig, ToyBackend, ToyLmSpec
from cts.selector import compress_instance, score_rows

# A file or socket a test leaves open fails it. The filters are set here and
# not in pyproject.toml so that they hold for this suite only: bench/ has its
# own tests, which read their inputs without closing them.
LEAK_FILTERS = ("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")


try:
    from hypothesis import settings
except ImportError:  # a dev extra; the property tests skip themselves without it
    pass
else:
    # CI's "Property tests" step runs every module that uses hypothesis with --hypothesis-profile fault-sweep:
    # 5x the examples of hypothesis's default profile, which tier-1 runs
    settings.register_profile("fault-sweep", max_examples=500)


def pytest_collection_modifyitems(items):
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for leak_filter in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(leak_filter))


# bytes that json.load(s) cannot read, each by another error: not UTF-8 (a UnicodeDecodeError), an integer literal
# over Python's 4,300-digit limit (a plain ValueError), and arrays nested 100,000 deep (a RecursionError)
UNREADABLE_JSON = {
    "not-utf8": b'{"ratio": "\xff"}',
    "integer-over-the-digit-limit": b"9" * 5000,
    "nested-100000-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.fixture
def groups_by_count(monkeypatch):
    """Group instances by count alone, ``SCORE_GROUP`` to a group.

    So a small corpus of short instances spans several groups.
    """
    monkeypatch.setattr(cts.cli, "GROUP_CHARS", 0)


def halving_calls(items: list, fails) -> list[list]:
    """The calls the halving rule sends for ``items``, in order, when a call fails iff ``fails(call)``.

    A call that fails is halved, the first half ``len(call) // 2`` items,
    and each half goes out by the same rule; a single item is not halved.
    """
    if len(items) == 1 or not fails(items):
        return [items]
    half = len(items) // 2
    return [items, *halving_calls(items[:half], fails), *halving_calls(items[half:], fails)]


def uniform_row(vocab: list[str]) -> dict[str, float]:
    p = 1.0 / len(vocab)
    return {tok: p for tok in vocab}


def uniform_spec(vocab: list[str]) -> ToyLmSpec:
    rows = {"START": uniform_row(vocab)}
    for tok in vocab:
        rows[tok] = uniform_row(vocab)
    return ToyLmSpec(vocabulary=list(vocab), table=rows)


def random_row(vocab: list[str], rng: random.Random) -> dict[str, float]:
    weights = [rng.uniform(0.05, 1.0) for _ in vocab]
    total = sum(weights)
    row = {tok: w / total for tok, w in zip(vocab, weights)}
    # force the row to sum to exactly the float 1.0 neighbourhood the
    # validator expects
    drift = 1.0 - sum(row.values())
    row[vocab[0]] += drift
    return row


def random_spec(vocab: list[str], rng: random.Random) -> ToyLmSpec:
    rows = {"START": random_row(vocab, rng)}
    for tok in vocab:
        rows[tok] = random_row(vocab, rng)
    return ToyLmSpec(vocabulary=list(vocab), table=rows)


@pytest.fixture
def uniform4_backend() -> ToyBackend:
    return ToyBackend(uniform_spec(["A", "B", "C", " "]))


@pytest.fixture
def shift_backend() -> ToyBackend:
    """Hand-built table with a genuine condition shift on the first thinking token.

    The condition template renders to text ending in ":" whose row gives the
    first thinking token a different probability than the START row, so
    conditional and unconditional passes disagree exactly at position 0.
    """
    return ToyBackend(shift_spec())


def shift_spec() -> ToyLmSpec:
    vocab = ["A", "B", "C", " ", ":", "4", "2"]
    rows = {tok: uniform_row(vocab) for tok in vocab}
    # P(A | START) = 0.25 unconditionally, P(A | ":") = 0.5 when the
    # condition text (ending in ":") is prepended: score 4 - 2 = 2 at pos 0.
    rows["START"] = {"A": 0.25, "B": 0.25, "C": 0.25, " ": 0.05, ":": 0.05, "4": 0.05, "2": 0.1}
    rows[":"] = {"A": 0.5, "B": 0.125, "C": 0.125, " ": 0.05, ":": 0.05, "4": 0.05, "2": 0.1}
    # distinct bigram probabilities so scores are interesting
    rows["A"] = {"A": 0.05, "B": 0.5, "C": 0.2, " ": 0.1, ":": 0.05, "4": 0.05, "2": 0.05}
    rows["B"] = {"A": 0.125, "B": 0.125, "C": 0.5, " ": 0.125, ":": 0.05, "4": 0.05, "2": 0.025}
    rows["C"] = {"A": 0.4, "B": 0.2, "C": 0.1, " ": 0.2, ":": 0.025, "4": 0.05, "2": 0.025}
    return ToyLmSpec(vocabulary=vocab, table=rows)


def score_global(instance, config, backend):
    """Score every thinking token as global scope does: one segment [0, n), no history."""
    _, rows, _ = compress_instance(instance, dataclasses.replace(config, selection_scope="global"), backend)
    return rows


def rows_of(outcome, config):
    """A lockstep outcome of ``compress_steps`` with its scores built into rows, as ``compress_instance`` has them."""
    result, error = outcome
    if result is None:
        return outcome
    record, scores, mask = result
    return (record, list(score_rows(*scores, config)), mask), error


def write_spec_file(spec: ToyLmSpec, path) -> str:
    payload = {"vocabulary": spec.vocabulary, "table": {prev: dict(row) for prev, row in spec.table.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)
    return str(path)


def read_jsonl_file(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write_jsonl_file(objects, path) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False))
            fh.write("\n")
    return str(path)


def make_corpus(
    n_instances: int,
    vocab: list[str],
    rng: random.Random,
    min_tokens: int = 30,
    max_tokens: int = 60,
    distinct_tokens: bool = False,
) -> list[dict]:
    """Random toy corpora; with distinct_tokens each instance never repeats a token."""
    records = []
    for i in range(n_instances):
        n = rng.randint(min_tokens, max_tokens)
        if distinct_tokens:
            tokens = rng.sample(vocab, n)
        else:
            tokens = [rng.choice(vocab) for _ in range(n)]
        records.append(
            {
                "id": f"inst-{i}",
                "problem": "",
                "thinking": "".join(tokens),
                "answer": rng.choice(vocab),
            }
        )
    return records


# a fake transport for HttpBackend, so wire payloads are tested without sockets
class FakeTransport:
    """Answers every POST with one fixed body; no sockets."""

    def __init__(self, payload=None, body: bytes | None = None):
        self.body = body if body is not None else json.dumps(payload).encode("utf-8")
        self.posts = 0

    def post(self, path: str, body: bytes, headers) -> tuple[int, dict, bytes]:
        self.posts += 1
        return 200, {}, self.body


def fake_client(payload=None, body: bytes | None = None) -> HttpBackend:
    return HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), FakeTransport(payload, body).post)
