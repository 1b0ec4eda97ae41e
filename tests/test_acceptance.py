"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The brute-force oracles here recompute everything from the raw
probability tables (reciprocal perplexities, full-sort selection,
Fraction-based rounding) and never call into the selection internals they
check.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from cts.cli import main as cli_main
from cts.backends import ToyBackend, ToyLmSpec
from cts.dataset import CotInstance, compressed_to_dict
from cts.emitters import emit_rm_prompts, emit_sft
from cts.dataset import RmCorpusExample, write_jsonl
from cts.selector import SelectionConfig, compress_instance, select_tokens

from conftest import make_corpus, random_spec, score_global, shift_spec, write_jsonl_file, write_spec_file

SWEEP = (0.5, 0.6, 0.7, 0.8, 0.9)
CONDITION = "{answer}:"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL", file=sys.stderr)
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS", file=sys.stderr)


# --- independent brute-force implementation -------------------------------

def oracle_ppl_walk(table: dict, tokens: list[str], start: int) -> list[float]:
    """Reciprocal-probability perplexities straight from the table."""
    ppls = []
    for t in range(start, len(tokens)):
        prev = tokens[t - 1] if t > 0 else "START"
        p = table[prev].get(tokens[t], 0.0)
        ppls.append(1.0 / p if p > 0.0 else math.inf)
    return ppls


def oracle_round_half_up(alpha: float, n: int) -> int:
    x = Fraction(str(alpha)) * n
    k = x.numerator // x.denominator
    if x - k >= Fraction(1, 2):
        k += 1
    return min(n, max(1, k))


def oracle_compress(record: dict, spec: ToyLmSpec, alpha: float, conditional: bool) -> dict:
    """Single-character-token brute force: table arithmetic plus a full sort."""
    assert all(len(tok) == 1 for tok in spec.vocabulary)
    tokens = list(record["thinking"])
    n = len(tokens)
    ppl_u = oracle_ppl_walk(spec.table, tokens, 0)
    if conditional:
        cond_tokens = list(record["answer"] + ":")  # rendered "{answer}:"
        ppl_c = oracle_ppl_walk(spec.table, cond_tokens + tokens, len(cond_tokens))
        scores = [0.0 if u == c else u - c for u, c in zip(ppl_u, ppl_c)]
    else:
        scores = list(ppl_u)
    k = oracle_round_half_up(alpha, n)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    kept = sorted(order[:k])
    return {
        "id": record["id"],
        "problem": record["problem"],
        "compressed_thinking": "".join(tokens[i] for i in kept),
        "answer": record["answer"],
        "nominal_ratio": alpha,
        "actual_ratio": k / n,
        "kept_count": k,
        "original_count": n,
    }


def pipeline_line(record: dict, config: SelectionConfig, backend: ToyBackend) -> str:
    instance = CotInstance(record["id"], record["problem"], record["thinking"], record["answer"])
    compressed, _, _ = compress_instance(instance, config, backend)
    return json.dumps(compressed_to_dict(compressed), ensure_ascii=False)


class TestAcceptance:
    def test_1_oracle_equivalence(self):
        with criterion(1, "oracle equivalence on 200 random toy instances"):
            started = time.monotonic()
            rng = random.Random(20240901)
            letters = "abcdefgh"
            spec = random_spec(list(letters) + [":"], rng)
            backend = ToyBackend(spec)
            for i in range(200):
                n = rng.randint(5, 20)
                record = {
                    "id": f"rand-{i}",
                    "problem": "",
                    "thinking": "".join(rng.choice(letters) for _ in range(n)),
                    "answer": rng.choice(letters),
                }
                alpha = rng.choice(SWEEP)
                conditional = rng.random() < 0.75
                config = SelectionConfig(
                    alpha=alpha, conditional=conditional, condition_template=CONDITION
                )
                expected = json.dumps(
                    oracle_compress(record, spec, alpha, conditional), ensure_ascii=False
                )
                assert pipeline_line(record, config, backend) == expected, f"instance {i}"
            elapsed = time.monotonic() - started
            assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"

    def test_2_score_formula(self):
        with criterion(2, "score equals ppl_uncond - ppl_cond from the hand-built table"):
            spec = shift_spec()
            backend = ToyBackend(spec)
            config = SelectionConfig(alpha=0.5, conditional=True, condition_template=CONDITION)
            instance = CotInstance("s", "", "ABCABC", "42")
            rows = score_global(instance, config, backend)
            # the 0.25-unconditional / 0.5-conditional head token: 4 - 2 = 2
            assert abs(rows[0].ppl_uncond - 4.0) <= 1e-12
            assert abs(rows[0].ppl_cond - 2.0) <= 1e-12
            assert abs(rows[0].score - 2.0) <= 1e-12
            tokens = list(instance.thinking)
            ppl_u = oracle_ppl_walk(spec.table, tokens, 0)
            ppl_c = oracle_ppl_walk(spec.table, list("42:") + tokens, 3)
            for row, u, c in zip(rows, ppl_u, ppl_c):
                assert abs(row.ppl_uncond - u) <= 1e-12
                assert abs(row.ppl_cond - c) <= 1e-12
                assert abs(row.score - (u - c)) <= 1e-12

    def test_3_ratio_fidelity_sweep(self, synthetic_corpus):
        with criterion(3, "per-token actual ratio within 0.02 of nominal across the sweep"):
            backend, records = synthetic_corpus
            # tie-free check: within every instance all scores are distinct
            config = SelectionConfig(alpha=0.5, conditional=False)
            for record in records[:50]:
                instance = CotInstance(record["id"], "", record["thinking"], record["answer"])
                rows = score_global(instance, config, backend)
                scores = [r.score for r in rows]
                assert len(set(scores)) == len(scores), "corpus is not tie-free"
            for alpha in SWEEP:
                config = SelectionConfig(alpha=alpha, conditional=False)
                kept_total = 0
                original_total = 0
                for record in records:
                    instance = CotInstance(record["id"], "", record["thinking"], record["answer"])
                    compressed, _, _ = compress_instance(instance, config, backend)
                    kept_total += compressed.kept_count
                    original_total += compressed.original_count
                actual = kept_total / original_total
                assert abs(actual - alpha) <= 0.02, f"alpha {alpha}: per-token actual {actual:.4f}"

    def test_4_identity_and_nesting(self):
        with criterion(4, "alpha=1 identity and kept-set nesting across the sweep"):
            rng = random.Random(7)
            backend = ToyBackend(shift_spec())
            records = make_corpus(30, list("ABC "), rng, min_tokens=5, max_tokens=60)
            for record in records:
                record["answer"] = "42"
                instance = CotInstance(record["id"], "", record["thinking"], record["answer"])
                identity_cfg = SelectionConfig(alpha=1.0, condition_template=CONDITION)
                compressed, rows, _ = compress_instance(instance, identity_cfg, backend)
                assert compressed.compressed_thinking == record["thinking"]
                assert compressed.actual_ratio == 1.0
                # nesting: same scored rows, increasing alpha
                previous: set[int] = set()
                for alpha in SWEEP + (1.0,):
                    cfg = SelectionConfig(alpha=alpha, condition_template=CONDITION)
                    selection = select_tokens(rows, cfg)
                    kept = {i for i, k in enumerate(selection.kept_mask) if k}
                    assert previous <= kept, f"kept sets do not nest at alpha {alpha}"
                    previous = kept

    def test_5_conditional_off_reduction(self, tmp_path):
        with criterion(5, "conditional-off equals the pure-perplexity baseline byte-for-byte"):
            rng = random.Random(99)
            spec = shift_spec()
            backend = ToyBackend(spec)
            records = make_corpus(40, list("ABC "), rng, min_tokens=5, max_tokens=50)
            for record in records:
                record["answer"] = "42"
            for alpha in SWEEP:
                config = SelectionConfig(alpha=alpha, conditional=False, condition_template=CONDITION)
                expected_lines = [
                    json.dumps(oracle_compress(r, spec, alpha, conditional=False), ensure_ascii=False)
                    for r in records
                ]
                got_lines = [pipeline_line(r, config, backend) for r in records]
                assert got_lines == expected_lines

    def test_6_template_golden_files(self, tmp_path):
        with criterion(6, "emitters reproduce the checked-in golden files byte-for-byte"):
            golden_dir = "tests/golden"
            instances = [
                dict(problem="What is 2+2?", thinking="2 plus 2 equals 4.", answer="4"),
                dict(
                    problem="Solve x^2 = 9 for x > 0.\nShow work.",
                    thinking="x^2 = 9\nx = ±3\ntake x = 3",
                    answer="x = 3",
                ),
            ]
            from cts.dataset import CompressedInstance

            sft_rows = []
            for spec in instances:
                record = emit_sft(
                    CompressedInstance(
                        id="g",
                        problem=spec["problem"],
                        compressed_thinking=spec["thinking"],
                        answer=spec["answer"],
                        nominal_ratio=1.0,
                        actual_ratio=1.0,
                        kept_count=1,
                        original_count=1,
                    )
                )
                sft_rows.append({"prompt": record.prompt, "completion": record.completion})
            sft_path = tmp_path / "sft.jsonl"
            write_jsonl(sft_rows, str(sft_path))
            assert sft_path.read_bytes() == Path(f"{golden_dir}/sft.jsonl").read_bytes()

            examples = [
                RmCorpusExample(question="q", answer="a", reasoning_steps=["s1", "s2"], source_id="ex-1"),
                RmCorpusExample(
                    question="q",
                    answer="a",
                    reasoning_steps=[
                        "First, compute the area: A = πr².",
                        "Then double it because there are two faces.",
                    ],
                    source_id="ex-2",
                ),
            ]
            rm_rows = [
                {"source_id": r.source_id, "instruction": r.instruction}
                for r in emit_rm_prompts(examples)
            ]
            rm_path = tmp_path / "rm_prompts.jsonl"
            write_jsonl(rm_rows, str(rm_path))
            assert rm_path.read_bytes() == Path(f"{golden_dir}/rm_prompts.jsonl").read_bytes()

    def test_7_determinism_under_parallelism(self, tmp_path):
        with criterion(7, "--workers 1 and --workers 4 write byte-identical files"):
            rng = random.Random(123)
            spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
            records = make_corpus(500, list("ABC "), rng, min_tokens=20, max_tokens=80)
            for record in records:
                record["answer"] = "42"
            corpus = write_jsonl_file(records, tmp_path / "corpus.jsonl")
            outputs = {}
            for workers in ("1", "4"):
                out = tmp_path / f"out-w{workers}.jsonl"
                dump = tmp_path / f"dump-w{workers}.jsonl"
                code = cli_main([
                    "compress", "--input", corpus, "--output", str(out),
                    "--ratio", "0.7", "--backend", f"toy:{spec_path}",
                    "--condition-template", CONDITION,
                    "--workers", workers, "--score-dump", str(dump),
                ])
                assert code == 0
                outputs[workers] = (out.read_bytes(), dump.read_bytes())
            assert outputs["1"] == outputs["4"]

    def test_8_throughput(self, tmp_path, synthetic_corpus):
        with criterion(8, "1,000 ~200-token instances compress in under 60s single-threaded"):
            backend, records = synthetic_corpus
            spec_path = write_spec_file(backend.spec, tmp_path / "spec.json")
            corpus = write_jsonl_file(records, tmp_path / "corpus.jsonl")
            out = tmp_path / "out.jsonl"
            started = time.monotonic()
            code = cli_main([
                "compress", "--input", corpus, "--output", str(out),
                "--ratio", "0.7", "--backend", f"toy:{spec_path}",
                "--condition-template", "{answer}", "--workers", "1",
            ])
            elapsed = time.monotonic() - started
            assert code == 0
            with open(out) as fh:
                assert sum(1 for _ in fh) == 1000
            assert elapsed < 60.0, f"end-to-end compression took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def synthetic_corpus():
    """1,000 instances of 150-250 distinct tokens over a 300-symbol vocabulary.

    Distinct tokens per instance mean every bigram occurs at most once per
    instance, so unconditional scores are tie-free within an instance.
    """
    rng = random.Random(31337)
    vocab = [chr(0x100 + i) for i in range(300)]
    spec = random_spec(vocab, rng)
    backend = ToyBackend(spec)
    records = make_corpus(
        1000, vocab, rng, min_tokens=150, max_tokens=250, distinct_tokens=True
    )
    for record in records:
        record["answer"] = record["thinking"][0]
    return backend, records
