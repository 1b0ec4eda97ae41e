import contextlib
import importlib
import json
import math
import os
import random
import socket
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import cts.cli
from cts.backends import ToyBackend, ToyLmSpec
from cts.cli import ENV_BACKEND_URL, main
from cts.dataset import read_compressed_dataset, read_dataset, write_jsonl
from cts.emitters import rm_instruction_context
from cts.errors import ConfigError, DatasetError
from cts.selector import SelectionConfig, compress_instance, compress_steps, score_rows_to_dicts

from conftest import (
    UNREADABLE_JSON, fail_output, make_corpus, random_spec, read_jsonl_file, shift_spec, uniform_spec,
    write_jsonl_file, write_spec_file,
)

CONDITION = "{answer}:"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def run_child(argv, timeout=60, **kwargs) -> subprocess.CompletedProcess:
    """``cts`` on ``argv`` in a child interpreter with src first on its path; its stderr is captured as text unless
    ``kwargs`` say where it goes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-B", "-m", "cts.cli", *argv], env=env, text=True, timeout=timeout,
                          **{"stderr": subprocess.PIPE, **kwargs})


@pytest.fixture
def toy_env(tmp_path):
    """A shift-table spec file and a 40-instance corpus over its vocabulary."""
    rng = random.Random(42)
    spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
    records = make_corpus(40, list("ABC "), rng, min_tokens=30, max_tokens=60)
    for rec in records:
        rec["answer"] = "42"
    corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
    return {"spec": spec_path, "corpus": corpus_path, "dir": tmp_path}


def compress_args(env, out_name="out.jsonl", ratio="0.7", extra=()):
    return [
        "compress",
        "--input", env["corpus"],
        "--output", str(env["dir"] / out_name),
        "--ratio", ratio,
        "--backend", f"toy:{env['spec']}",
        "--condition-template", CONDITION,
        *extra,
    ]


# bench/cli_child.py instruments a traced run by patching these names where they are looked up
BENCH_PATCHED = {
    "cts.cli": ("read_dataset", "read_compressed_dataset", "map_ordered", "compress_instance", "write_dataset",
                "write_jsonl", "emit_sft", "build_backend"),
    "cts.selector": ("score_tokens", "select_tokens", "segment_thinking"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in BENCH_PATCHED.items() for n in names])
def test_names_the_bench_patches_are_there(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_importing_the_cli_loads_only_the_standard_library():
    # a fresh interpreter (-I: no PYTHONPATH, no user site) with src first on the path; site-packages stays on
    # it, so a third-party import shows up as loaded; modules that site loaded at startup are not counted.
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and the import would leave src/cts/__pycache__ behind
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import cts.cli; "
            "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))")
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, SRC], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "cts" in loaded
    assert loaded - {"cts"} <= set(sys.stdlib_module_names), loaded - {"cts"} - set(sys.stdlib_module_names)


class TestCompress:
    def test_ratio_07_report_band(self, toy_env):
        report_path = toy_env["dir"] / "report.json"
        code = run_cli(compress_args(toy_env, extra=["--report", str(report_path)]))
        assert code == 0
        report = json.loads(report_path.read_text())
        assert 0.68 <= report["mean_actual_ratio"] <= 0.72
        assert report["instances_ok"] == 40
        assert report["instances_failed"] == 0
        assert report["config_echo"]["alpha"] == 0.7

    def test_ratio_one_is_identity(self, toy_env):
        out = toy_env["dir"] / "identity.jsonl"
        report_path = toy_env["dir"] / "report.json"
        code = run_cli(compress_args(toy_env, "identity.jsonl", "1.0", ["--report", str(report_path)]))
        assert code == 0
        inputs = read_jsonl_file(toy_env["corpus"])
        outputs = list(read_compressed_dataset(str(out)))
        assert [o.compressed_thinking for o in outputs] == [i["thinking"] for i in inputs]
        assert json.loads(report_path.read_text())["mean_actual_ratio"] == 1.0

    def test_invalid_ratio_exits_2_without_output(self, toy_env):
        out = toy_env["dir"] / "never.jsonl"
        code = run_cli(compress_args(toy_env, "never.jsonl", "1.5"))
        assert code == 2
        assert not out.exists()

    def test_workers_do_not_change_bytes(self, toy_env):
        run_cli(compress_args(toy_env, "w1.jsonl", extra=["--workers", "1"]))
        run_cli(compress_args(toy_env, "w4.jsonl", extra=["--workers", "4"]))
        one = (toy_env["dir"] / "w1.jsonl").read_bytes()
        four = (toy_env["dir"] / "w4.jsonl").read_bytes()
        assert one == four

    def test_report_arithmetic_recomputable_from_output(self, toy_env):
        out = toy_env["dir"] / "out.jsonl"
        report_path = toy_env["dir"] / "report.json"
        run_cli(compress_args(toy_env, extra=["--report", str(report_path)]))
        report = json.loads(report_path.read_text())
        records = list(read_compressed_dataset(str(out)))
        kept = sum(r.kept_count for r in records)
        original = sum(r.original_count for r in records)
        assert report["kept_tokens_total"] == kept
        assert report["original_tokens_total"] == original
        assert report["actual_ratio_per_token"] == kept / original
        mean = sum(r.actual_ratio for r in records) / len(records)
        assert report["mean_actual_ratio"] == pytest.approx(mean, abs=1e-12)

    def test_malformed_line_fails_without_lenient(self, toy_env, tmp_path):
        bad = tmp_path / "bad.jsonl"
        lines = Path(toy_env["corpus"]).read_text().splitlines()
        bad.write_text(lines[0] + "\n{oops\n" + lines[1] + "\n")
        args = [
            "compress", "--input", str(bad), "--output", str(tmp_path / "o.jsonl"),
            "--ratio", "0.7", "--backend", f"toy:{toy_env['spec']}",
            "--condition-template", CONDITION,
            "--report", str(tmp_path / "r.json"),
        ]
        assert run_cli(args) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["instances_failed"] == 1
        assert report["instances_ok"] == 2
        # the good records were still written
        assert len(list(read_compressed_dataset(str(tmp_path / "o.jsonl")))) == 2
        assert run_cli(args + ["--lenient"]) == 0

    def test_empty_thinking_is_a_per_record_failure(self, toy_env, tmp_path):
        records = [
            {"problem": "p", "thinking": "ABC", "answer": "42"},
            {"problem": "p", "thinking": "", "answer": "42"},
        ]
        path = write_jsonl_file(records, tmp_path / "in.jsonl")
        args = [
            "compress", "--input", path, "--output", str(tmp_path / "o.jsonl"),
            "--ratio", "0.7", "--backend", f"toy:{toy_env['spec']}",
            "--condition-template", CONDITION, "--report", str(tmp_path / "r.json"),
        ]
        assert run_cli(args) == 1
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["instances_ok"] == 1
        assert report["instances_failed"] == 1
        assert run_cli(args + ["--lenient"]) == 0

    @pytest.mark.parametrize("template", ["{answer}{problem.x}", "{answer}{problem[x]}", "{answer}{"])
    def test_template_that_cannot_render_fails_each_instance(self, toy_env, caplog, template):
        # attribute and index lookups, and a brace left open after the answer field, pass validation but fail
        # as each instance renders
        report = toy_env["dir"] / "report.json"
        args = compress_args(toy_env, extra=["--condition-template", template, "--report", str(report)])
        assert run_cli(args) == 1
        assert json.loads(report.read_text())["instances_failed"] == 40
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert len(failed) == 40
        assert all(f"bad condition template {template!r}" in message for message in failed)

    def test_template_with_no_answer_field_exits_2(self, toy_env, capfd):
        # the escaped "{{answer}}" renders the constant text "{answer}", so every condition would be the same
        assert run_cli(compress_args(toy_env, extra=["--condition-template", "{{answer}}: "])) == 2
        err = capfd.readouterr().err
        assert err == "error: condition_template must contain {answer} (or be empty) when conditional\n"
        assert not (toy_env["dir"] / "out.jsonl").exists()

    def test_score_dump_alongside_dataset(self, toy_env):
        dump = toy_env["dir"] / "dump.jsonl"
        code = run_cli(compress_args(toy_env, extra=["--score-dump", str(dump)]))
        assert code == 0
        rows = read_jsonl_file(dump)
        inputs = read_jsonl_file(toy_env["corpus"])
        assert len(rows) == sum(len(i["thinking"]) for i in inputs)
        outputs = list(read_compressed_dataset(str(toy_env["dir"] / "out.jsonl")))
        kept_by_id = {o.id: o.kept_count for o in outputs}
        for iid, kept in kept_by_id.items():
            assert sum(1 for r in rows if r["instance_id"] == iid and r["kept"]) == kept

    def test_probability_below_the_float_range_scores_as_infinite_perplexity(self, tmp_path, capfd):
        # P(B | A) = 1e-320 is about -1,063 bits, so its perplexity is past the largest float
        spec = ToyLmSpec(vocabulary=["A", "B"], table={
            "START": {"A": 0.5, "B": 0.5}, "A": {"A": 1.0, "B": 1e-320}, "B": {"A": 0.5, "B": 0.5},
        })
        spec_path = write_spec_file(spec, tmp_path / "spec.json")
        corpus = write_jsonl_file([{"id": "e", "problem": "", "thinking": "AAB", "answer": "B"}],
                                  tmp_path / "corpus.jsonl")
        dump = tmp_path / "dump.jsonl"
        code = run_cli(["compress", "--input", corpus, "--output", str(tmp_path / "out.jsonl"), "--ratio", "0.5",
                        "--backend", f"toy:{spec_path}", "--condition-template", "{answer}",
                        "--score-dump", str(dump)])
        assert code == 0
        assert "Traceback" not in capfd.readouterr().err
        assert "Infinity" in dump.read_text(encoding="utf-8")
        assert read_jsonl_file(dump)[2]["ppl_uncond"] == math.inf

    def test_schema_mapping_flags(self, toy_env, tmp_path):
        renamed = [
            {"q": rec["problem"], "cot": rec["thinking"], "ans": rec["answer"]}
            for rec in read_jsonl_file(toy_env["corpus"])
        ]
        path = write_jsonl_file(renamed[:5], tmp_path / "renamed.jsonl")
        code = run_cli([
            "compress", "--input", path, "--output", str(tmp_path / "o.jsonl"),
            "--ratio", "0.5", "--backend", f"toy:{toy_env['spec']}",
            "--condition-template", CONDITION,
            "--problem-key", "q", "--thinking-key", "cot", "--answer-key", "ans",
        ])
        assert code == 0
        records = list(read_compressed_dataset(str(tmp_path / "o.jsonl")))
        assert len(records) == 5
        assert records[0].id == "line:1"

    def test_print_report_goes_to_stdout(self, toy_env, capsys):
        code = run_cli(compress_args(toy_env, extra=["--print-report"]))
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["instances_ok"] == 40


class TestScore:
    def test_unconditional_score_equals_ppl_uncond(self, toy_env):
        dump = toy_env["dir"] / "dump.jsonl"
        code = run_cli([
            "score", "--input", toy_env["corpus"], "--output", str(dump),
            "--backend", f"toy:{toy_env['spec']}", "--no-conditional",
        ])
        assert code == 0
        rows = read_jsonl_file(dump)
        assert rows
        assert all(r["score"] == r["ppl_uncond"] for r in rows)

    def test_empty_condition_template_zeroes_scores(self, toy_env):
        dump = toy_env["dir"] / "dump.jsonl"
        code = run_cli([
            "score", "--input", toy_env["corpus"], "--output", str(dump),
            "--backend", f"toy:{toy_env['spec']}", "--condition-template", "",
        ])
        assert code == 0
        rows = read_jsonl_file(dump)
        assert all(r["score"] == 0.0 for r in rows)

    def test_one_row_per_thinking_token(self, toy_env):
        dump = toy_env["dir"] / "dump.jsonl"
        run_cli([
            "score", "--input", toy_env["corpus"], "--output", str(dump),
            "--backend", f"toy:{toy_env['spec']}", "--condition-template", CONDITION,
        ])
        rows = read_jsonl_file(dump)
        inputs = read_jsonl_file(toy_env["corpus"])
        assert len(rows) == sum(len(i["thinking"]) for i in inputs)
        # default ratio for score is 1.0: every token kept
        assert all(r["kept"] for r in rows)

    def test_only_a_selection_with_a_score_dump_keeps_its_rows(self, toy_env, monkeypatch):
        asked = []

        def recording_compress_steps(instance, config, keep_scores=True):
            asked.append(keep_scores)
            return compress_steps(instance, config, keep_scores)

        monkeypatch.setattr(cts.cli, "compress_steps", recording_compress_steps)
        compress_dump, score_dump = toy_env["dir"] / "compress-dump.jsonl", toy_env["dir"] / "score-dump.jsonl"
        runs = [
            (compress_args(toy_env), False),
            (ablate_args(toy_env, toy_env["dir"] / "ablate"), False),
            (compress_args(toy_env, extra=["--score-dump", str(compress_dump)]), True),
            (["score", "--input", toy_env["corpus"], "--output", str(score_dump), "--ratio", "0.7",
              "--backend", f"toy:{toy_env['spec']}", "--condition-template", CONDITION], True),
        ]
        for args, keep_scores in runs:
            asked.clear()
            assert run_cli(args) == 0
            assert set(asked) == {keep_scores}, args[0]
        # the dump the library writes, with every row kept
        config = SelectionConfig(alpha=0.7, condition_template=CONDITION)
        backend = ToyBackend(shift_spec())
        expected = toy_env["dir"] / "expected.jsonl"
        dump_rows = []
        for instance in read_dataset(toy_env["corpus"]):
            record, rows, mask = compress_instance(instance, config, backend)
            dump_rows += score_rows_to_dicts(record.id, rows, mask)
        write_jsonl(dump_rows, str(expected))
        assert compress_dump.read_bytes() == score_dump.read_bytes() == expected.read_bytes()


    def test_a_dump_run_holds_at_most_15_percent_more_than_a_plain_run(self, tmp_path, monkeypatch):
        # the bench's long-instance recipe: 300 one-character symbols, 3,000-5,000 tokens each.
        # The peak of the Python heap above the built backend, whose table is the same in both runs
        vocab = [chr(0x100 + i) for i in range(300)]
        rng = random.Random(1)
        spec = write_spec_file(random_spec(vocab, rng), tmp_path / "spec.json")
        corpus = write_jsonl_file(make_corpus(8, vocab, rng, min_tokens=3000, max_tokens=5000), tmp_path / "c.jsonl")
        built, original = {}, cts.cli.build_backend

        def build_backend(descriptor):
            backend = original(descriptor)
            built["size"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return backend

        monkeypatch.setattr(cts.cli, "build_backend", build_backend)

        def peak(*extra) -> int:
            tracemalloc.start()
            try:
                assert run_cli(["compress", "--input", corpus, "--output", str(tmp_path / "out.jsonl"), "--ratio", "0.7",
                                "--backend", f"toy:{spec}", "--condition-template", "{answer}", *extra]) == 0
                return tracemalloc.get_traced_memory()[1] - built["size"]
            finally:
                tracemalloc.stop()

        plain = peak()
        assert peak("--score-dump", str(tmp_path / "dump.jsonl")) / plain <= 1.15


class TestEmitCommand:
    def test_emit_sft_one_to_one(self, toy_env, tmp_path):
        compressed = toy_env["dir"] / "c.jsonl"
        assert run_cli(compress_args(toy_env, "c.jsonl")) == 0
        out = tmp_path / "sft.jsonl"
        code = run_cli(["emit", "sft", "--input", str(compressed), "--output", str(out)])
        assert code == 0
        rows = read_jsonl_file(out)
        assert len(rows) == 40
        assert all("<think>" in r["completion"] for r in rows)

    def test_emit_rm_prompts_contains_constraints(self, tmp_path):
        examples = write_jsonl_file(
            [{"question": "q1", "answer": "a1", "reasoning_steps": ["s1", "s2"]}],
            tmp_path / "ex.jsonl",
        )
        out = tmp_path / "prompts.jsonl"
        assert run_cli(["emit", "rm-prompts", "--input", examples, "--output", str(out)]) == 0
        (row,) = read_jsonl_file(out)
        assert "Do not use abbreviations or emojis." in row["instruction"]
        assert "Do not reorder the original words." in row["instruction"]
        assert "s1\ns2" in row["instruction"]

    def test_emit_rm_rows_round_trip(self, tmp_path):
        examples = write_jsonl_file(
            [{"id": "e1", "question": "q", "answer": "a", "reasoning_steps": ["the cat sat"]}],
            tmp_path / "ex.jsonl",
        )
        responses = write_jsonl_file(
            [{"source_id": "e1", "compressed_steps": "cat sat"}], tmp_path / "resp.jsonl"
        )
        out = tmp_path / "rows.jsonl"
        code = run_cli([
            "emit", "rm-rows", "--input", examples, "--responses", responses, "--output", str(out)
        ])
        assert code == 0
        (row,) = read_jsonl_file(out)
        assert row["target"] == "cat sat"
        assert "q" in row["instruction_context"] and "a" in row["instruction_context"]
        assert row["flagged"] is False

    def test_emit_rm_rows_mismatched_ids_fail_listing_them(self, tmp_path, caplog):
        examples = write_jsonl_file(
            [{"id": "e1", "question": "q", "answer": "a", "reasoning_steps": ["s"]}],
            tmp_path / "ex.jsonl",
        )
        responses = write_jsonl_file(
            [{"source_id": "missing-9", "compressed_steps": "s"}], tmp_path / "resp.jsonl"
        )
        code = run_cli([
            "emit", "rm-rows", "--input", examples, "--responses", responses,
            "--output", str(tmp_path / "rows.jsonl"),
        ])
        assert code != 0
        assert any("missing-9" in r.message for r in caplog.records)

    @pytest.mark.parametrize(
        "source_ids, kept", [(["missing-9"], 0), (["e1", "e1"], 1)], ids=["unknown", "duplicate"]
    )
    def test_emit_rm_rows_join_failures_follow_the_lenient_rule(self, tmp_path, caplog, source_ids, kept):
        examples = write_jsonl_file(
            [{"id": "e1", "question": "q", "answer": "a", "reasoning_steps": ["s"]}],
            tmp_path / "ex.jsonl",
        )
        responses = write_jsonl_file(
            [{"source_id": sid, "compressed_steps": "s"} for sid in source_ids], tmp_path / "resp.jsonl"
        )
        out = tmp_path / "rows.jsonl"
        args = ["emit", "rm-rows", "--input", examples, "--responses", responses, "--output", str(out)]
        assert run_cli(args) == 1
        assert run_cli(args + ["--lenient"]) == 0
        assert len(read_jsonl_file(out)) == kept
        assert sum("skipped record" in r.message for r in caplog.records) == 2

    @pytest.mark.parametrize("target", ["rm-prompts", "rm-rows"])
    def test_repeated_example_id_is_skipped_and_reported(self, tmp_path, caplog, target):
        examples = write_jsonl_file([
            {"id": "e1", "question": "q1", "answer": "a1", "reasoning_steps": ["the cat sat"]},
            {"id": "e1", "question": "q2", "answer": "a2", "reasoning_steps": ["a dog ran"]},
        ], tmp_path / "ex.jsonl")
        responses = write_jsonl_file([{"source_id": "e1", "compressed_steps": "cat sat"}], tmp_path / "resp.jsonl")
        out = tmp_path / "rows.jsonl"
        args = ["emit", target, "--input", examples, "--responses", responses, "--output", str(out)]
        assert run_cli(args) == 1
        skipped = [r.getMessage() for r in caplog.records if "skipped record" in r.getMessage()]
        assert len(skipped) == 1 and "duplicate id 'e1' (first at line 1)" in skipped[0]
        assert run_cli(args + ["--lenient"]) == 0
        (row,) = read_jsonl_file(out)
        if target == "rm-rows":
            # joined to the first example, the one whose steps the response was compressed from
            assert row["instruction_context"] == rm_instruction_context("q1", "a1")
            assert row["flagged"] is False
        else:
            assert "the cat sat" in row["instruction"]

    def test_unknown_target_exits_2(self, tmp_path):
        code = run_cli(["emit", "nonsense", "--input", "x", "--output", "y"])
        assert code == 2


class TestAblate:
    def test_degenerate_collapse_byte_identical(self, tmp_path):
        rng = random.Random(1)
        spec_path = write_spec_file(uniform_spec(list("AB:42 ")), tmp_path / "uniform.json")
        records = make_corpus(10, list("AB "), rng, min_tokens=20, max_tokens=40)
        for rec in records:
            rec["answer"] = "42"
        corpus = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        outdir = tmp_path / "ablate"
        code = run_cli([
            "ablate", "--input", corpus, "--output", str(outdir), "--ratio", "0.8",
            "--backend", f"toy:{spec_path}", "--condition-template", CONDITION,
        ])
        assert code == 0
        blobs = {name: (outdir / f"{name}.jsonl").read_bytes()
                 for name in ("base", "conditional", "rm_tuned", "proposed")}
        assert len(set(blobs.values())) == 1

    def test_bad_ratio_is_reported_before_any_backend_is_built(self, toy_env, capfd):
        outdir = toy_env["dir"] / "ablate"
        assert run_cli(["ablate", "--input", toy_env["corpus"], "--output", str(outdir), "--ratio", "2",
                        "--backend", f"toy:{toy_env['dir'] / 'missing.json'}"]) == 2
        err = capfd.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error: ")] == [
            "error: ratio must be in (0, 1], got 2.0"]
        assert not outdir.exists()

    def test_four_reports_within_exact_count_bound(self, toy_env):
        outdir = toy_env["dir"] / "ablate"
        report_path = toy_env["dir"] / "ablate.json"
        code = run_cli([
            "ablate", "--input", toy_env["corpus"], "--output", str(outdir), "--ratio", "0.8",
            "--backend", f"toy:{toy_env['spec']}", "--condition-template", CONDITION,
            "--report", str(report_path),
        ])
        assert code == 0
        reports = json.loads(report_path.read_text())
        assert set(reports) == {"base", "conditional", "rm_tuned", "proposed"}
        for payload in reports.values():
            # per-instance |ratio - 0.8| <= 1.5 / n with n >= 30
            assert abs(payload["mean_actual_ratio"] - 0.8) <= 1.5 / 30
            assert payload["instances_ok"] == 40

    def test_conditional_modes_differ_on_shift_table(self, toy_env):
        outdir = toy_env["dir"] / "ablate"
        run_cli([
            "ablate", "--input", toy_env["corpus"], "--output", str(outdir), "--ratio", "0.5",
            "--backend", f"toy:{toy_env['spec']}", "--condition-template", CONDITION,
        ])
        base = read_jsonl_file(outdir / "base.jsonl")
        conditional = read_jsonl_file(outdir / "conditional.jsonl")
        assert any(
            b["compressed_thinking"] != c["compressed_thinking"]
            for b, c in zip(base, conditional)
        )


def ablate_args(env, outdir, ratio="0.7", extra=()):
    return [
        "ablate",
        "--input", env["corpus"],
        "--output", str(outdir),
        "--ratio", ratio,
        "--backend", f"toy:{env['spec']}",
        "--condition-template", CONDITION,
        *extra,
    ]


def backend_args(env, monkeypatch, flag, descriptor) -> list[str]:
    """compress with ``descriptor`` as its --backend or CTS_BACKEND_URL, or ablate with it as its --backend-tuned."""
    if flag == "--backend-tuned":
        return ablate_args(env, env["dir"] / "ablate", extra=[flag, descriptor])
    if flag == "--backend":
        return compress_args(env, extra=[flag, descriptor])
    monkeypatch.setenv(flag, descriptor)
    args = compress_args(env)
    i = args.index("--backend")
    return args[:i] + args[i + 2:]


class TestAblateOnePass:
    @pytest.mark.usefixtures("groups_by_count")
    def test_one_backend_posts_three_requests_per_instance(self, toy_env):
        from cts.backends import ToyBackend
        from http_stub import StubServer

        with StubServer(ToyBackend(shift_spec())) as server:
            code = run_cli(ablate_args(toy_env, toy_env["dir"] / "ablate",
                                       extra=["--backend", f"http:{server.url}", "--workers", "2"]))
        assert code == 0
        # the modes share their texts, and the conditional modes' requests serve the unconditional ones.
        # SCORE_GROUP instances to a group: 5 groups, and a batch is 2 groups, but the short last batch, group 4
        # alone, joins the batch before it: 2 /tokenize POSTs. A lane scores a group in one /logprobs POST, and
        # all its groups of the last batch in one: lane 0 groups 0, then 2 and 4, lane 1 groups 1 and 3: 4
        assert math.ceil(40 / cts.cli.SCORE_GROUP) == 5
        assert server.state.request_count == 2 + 4

    @pytest.mark.usefixtures("groups_by_count")
    def test_distinct_tuned_backend_posts_three_requests_per_instance_each(self, toy_env):
        from cts.backends import ToyBackend
        from http_stub import StubServer

        with StubServer(ToyBackend(shift_spec())) as standard, StubServer(ToyBackend(shift_spec())) as tuned:
            code = run_cli(ablate_args(toy_env, toy_env["dir"] / "ablate", extra=[
                "--backend", f"http:{standard.url}", "--backend-tuned", f"http:{tuned.url}",
            ]))
        assert code == 0
        assert standard.state.request_count == tuned.state.request_count == 2 * math.ceil(40 / cts.cli.SCORE_GROUP)

    @pytest.mark.usefixtures("groups_by_count")
    @pytest.mark.parametrize("spelling", ["{url}/", "http:{url}"])
    def test_a_tuned_backend_spelling_the_same_url_is_the_standard_one(self, toy_env, spelling):
        from http_stub import StubServer

        with StubServer(ToyBackend(shift_spec())) as server:
            alone, tuned = toy_env["dir"] / "alone", toy_env["dir"] / "tuned"
            flags = ["--backend", server.url, "--workers", "2"]
            assert run_cli(ablate_args(toy_env, alone, extra=flags)) == 0
            posts = server.state.request_count
            assert run_cli(ablate_args(toy_env, tuned,
                                       extra=[*flags, "--backend-tuned", spelling.format(url=server.url)])) == 0
            assert server.state.request_count == 2 * posts
        assert posts == 2 + 4  # as test_one_backend_posts_three_requests_per_instance
        for mode in ("base", "conditional", "rm_tuned", "proposed"):
            assert (tuned / f"{mode}.jsonl").read_bytes() == (alone / f"{mode}.jsonl").read_bytes(), mode

    @pytest.mark.parametrize("spelling", ["toy:./spec.json", "toy:{spec}", "toy:sub/../spec.json"])
    def test_a_tuned_spec_naming_the_same_file_is_one_backend(self, toy_env, monkeypatch, spelling):
        built, original = [], cts.cli.build_backend

        def build_backend(descriptor):
            built.append(descriptor)
            return original(descriptor)

        monkeypatch.setattr(cts.cli, "build_backend", build_backend)
        monkeypatch.chdir(toy_env["dir"])
        (toy_env["dir"] / "sub").mkdir()
        outdir = toy_env["dir"] / "ablate"
        assert run_cli(ablate_args(toy_env, outdir, extra=[
            "--backend", "toy:spec.json", "--backend-tuned", spelling.format(spec=toy_env["spec"])])) == 0
        assert built == ["toy:spec.json"]
        assert (outdir / "rm_tuned.jsonl").read_bytes() == (outdir / "base.jsonl").read_bytes()

    @pytest.mark.parametrize("scope_args", [
        [],
        ["--scope", "per-segment", "--segment-budget", "16", "--boundary-slack", "4"],
        ["--scope", "per-segment", "--segment-budget", "16", "--boundary-slack", "4",
         "--iterative-original-prefix"],
    ], ids=["global", "per-segment", "per-segment-original-prefix"])
    def test_each_mode_matches_a_separate_compress_run(self, toy_env, scope_args):
        outdir = toy_env["dir"] / "ablate"
        assert run_cli(ablate_args(toy_env, outdir, ratio="0.5", extra=scope_args)) == 0
        for flag, modes in (("--conditional", ("conditional", "proposed")),
                            ("--no-conditional", ("base", "rm_tuned"))):
            name = f"compress{flag}.jsonl"
            assert run_cli(compress_args(toy_env, name, ratio="0.5", extra=[*scope_args, flag])) == 0
            expected = (toy_env["dir"] / name).read_bytes()
            for mode in modes:
                assert (outdir / f"{mode}.jsonl").read_bytes() == expected, mode

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("tuned", [False, True], ids=["one-backend", "tuned-backend"])
    def test_modes_with_equal_settings_share_one_selection(self, toy_env, monkeypatch, workers, tuned):
        calls = []

        def counting_compress_steps(*args):
            calls.append(args[0].id)
            return compress_steps(*args)

        monkeypatch.setattr(cts.cli, "compress_steps", counting_compress_steps)
        tuned_spec = write_spec_file(random_spec(shift_spec().vocabulary, random.Random(7)),
                                     toy_env["dir"] / "tuned.json")
        outdir = toy_env["dir"] / "ablate"
        extra = ["--workers", workers, *(["--backend-tuned", f"toy:{tuned_spec}"] if tuned else [])]
        assert run_cli(ablate_args(toy_env, outdir, ratio="0.5", extra=extra)) == 0
        # base and conditional always run; rm_tuned and proposed only on a backend of their own
        assert len(calls) == (4 if tuned else 2) * 40
        blobs = {mode: (outdir / f"{mode}.jsonl").read_bytes()
                 for mode in ("base", "conditional", "rm_tuned", "proposed")}
        assert (blobs["rm_tuned"] == blobs["base"]) is not tuned
        assert (blobs["proposed"] == blobs["conditional"]) is not tuned
        for spec, flag, mode in ((toy_env["spec"], "--no-conditional", "base"),
                                 (toy_env["spec"], "--conditional", "conditional"),
                                 (tuned_spec if tuned else toy_env["spec"], "--no-conditional", "rm_tuned"),
                                 (tuned_spec if tuned else toy_env["spec"], "--conditional", "proposed")):
            name = f"compress-{mode}.jsonl"
            assert run_cli(compress_args(toy_env, name, ratio="0.5",
                                         extra=[flag, "--backend", f"toy:{spec}"])) == 0
            assert blobs[mode] == (toy_env["dir"] / name).read_bytes(), mode

    def test_failure_warning_names_each_failing_mode(self, toy_env, caplog):
        records = read_jsonl_file(toy_env["corpus"])
        records[3]["answer"] = "Z"  # outside the vocabulary: only the conditional modes fail
        write_jsonl_file(records, toy_env["corpus"])
        code = run_cli(ablate_args(toy_env, toy_env["dir"] / "ablate", extra=["--lenient"]))
        assert code == 0
        failed = [r.getMessage() for r in caplog.records if "instance inst-3 failed" in r.getMessage()]
        assert sorted(message.split(":")[0] for message in failed) == ["ablate conditional", "ablate proposed"]

    @pytest.mark.usefixtures("groups_by_count")
    def test_untokenizable_answer_over_http_posts_as_many_requests(self, toy_env, caplog):
        from http_stub import StubServer, UntokenizableAnswers

        records = read_jsonl_file(toy_env["corpus"])
        records[3]["answer"] = "Z"
        write_jsonl_file(records, toy_env["corpus"])
        with StubServer(UntokenizableAnswers(shift_spec())) as server:
            code = run_cli(ablate_args(toy_env, toy_env["dir"] / "ablate",
                                       extra=["--backend", f"http:{server.url}", "--workers", "2", "--lenient"]))
        assert code == 0
        # the /tokenize POST of the first batch of 2 groups fails. Its 2 * SCORE_GROUP + 2 distinct
        # texts (a thinking text per instance, "42:" and "Z:", asked once, since both conditional
        # modes are one selection) are halved until "Z:" goes out alone: the failing calls hold 9,
        # 5, 2 and 1 texts, and each has a half beside it that goes through, so 8 POSTs more.
        # inst-3's unconditional modes score in its group's /logprobs POST. As test_one_backend_posts_three_
        # requests_per_instance, 2 /tokenize and 4 /logprobs POSTs besides
        assert server.state.request_count == 2 + 4 + 8
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert [message.split(":")[0] for message in failed] == ["ablate conditional", "ablate proposed"]

    def test_backend_outage_leaves_no_mode_file(self, toy_env, monkeypatch):
        from cts.backends import HttpBackendConfig

        def fast_config(**kwargs):
            kwargs.setdefault("max_retries", 0)
            kwargs.setdefault("timeout", 0.2)
            return HttpBackendConfig(**kwargs)

        monkeypatch.setattr(cts.cli, "HttpBackendConfig", fast_config)
        outdir = toy_env["dir"] / "ablate"
        # the standard modes could finish; the tuned backend is down
        code = run_cli(ablate_args(toy_env, outdir, extra=["--backend-tuned", "http:http://127.0.0.1:9"]))
        assert code == 3
        assert os.listdir(outdir) == []


class TestBackendsAndConfig:
    def test_http_backend_end_to_end_matches_toy(self, toy_env, monkeypatch):
        from cts.backends import ToyBackend
        from http_stub import StubServer

        run_cli(compress_args(toy_env, "via-toy.jsonl"))
        with StubServer(ToyBackend(shift_spec())) as server:
            server.state.required_token = "tok-123"
            monkeypatch.setenv("CTS_BACKEND_TOKEN", "tok-123")
            code = run_cli(compress_args(
                toy_env, "via-http.jsonl",
                extra=["--backend", f"http:{server.url}", "--workers", "4"],
            ))
        assert code == 0
        via_toy = (toy_env["dir"] / "via-toy.jsonl").read_bytes()
        via_http = (toy_env["dir"] / "via-http.jsonl").read_bytes()
        assert via_toy == via_http

    @pytest.mark.usefixtures("groups_by_count")
    def test_http_compress_posts_three_requests_per_instance(self, toy_env):
        from cts.backends import ToyBackend
        from http_stub import StubServer

        with StubServer(ToyBackend(shift_spec())) as server:
            code = run_cli(compress_args(toy_env, extra=["--backend", f"http:{server.url}"]))
        assert code == 0
        # one batched tokenize POST and one batched logprobs POST per group
        assert server.state.request_count == 2 * math.ceil(40 / cts.cli.SCORE_GROUP)

    def test_unreachable_backend_exits_3(self, toy_env, monkeypatch):
        from cts.backends import HttpBackendConfig

        def fast_config(**kwargs):
            kwargs.setdefault("max_retries", 0)
            kwargs.setdefault("timeout", 0.2)
            return HttpBackendConfig(**kwargs)

        monkeypatch.setattr(cts.cli, "HttpBackendConfig", fast_config)
        code = run_cli(compress_args(toy_env, extra=["--backend", "http:http://127.0.0.1:9"]))
        assert code == 3

    def test_backend_stuck_at_503_exits_3(self, toy_env, monkeypatch):
        from cts.backends import HttpBackendConfig, ToyBackend
        from http_stub import StubServer

        def fast_config(**kwargs):
            kwargs.setdefault("max_retries", 0)
            return HttpBackendConfig(**kwargs)

        monkeypatch.setattr(cts.cli, "HttpBackendConfig", fast_config)
        with StubServer(ToyBackend(shift_spec())) as server:
            server.state.fail_next = 10**6
            code = run_cli(compress_args(toy_env, extra=["--backend", f"http:{server.url}"]))
        assert code == 3
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("descriptor", ["http:http://", "https://", "http:localhost:8000", "http://[::1"])
    def test_backend_url_without_host_exits_2(self, toy_env, descriptor, capsys):
        code = run_cli(compress_args(toy_env, extra=["--backend", descriptor]))
        assert code == 2
        err = capsys.readouterr().err
        message = "has an invalid port or IPv6 host" if "[" in descriptor else "needs an http(s) scheme and a host"
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err, err
        assert "Traceback" not in err
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("token, path", [
        ("s3cret\nX-Injected: 1", ""),  # a header http.client refuses
        ("s3cret€", ""),  # outside Latin-1
        ("s3cret", "/a b"),
        ("s3cret", "/v1?key=abc"),  # the query would be dropped
        ("s3cret", "/v1#frag"),
    ])
    def test_backend_token_or_url_that_cannot_be_sent_exits_2_before_any_post(self, toy_env, monkeypatch, capfd,
                                                                               token, path):
        from http_stub import StubServer

        monkeypatch.setenv("CTS_BACKEND_TOKEN", token)
        with StubServer(ToyBackend(shift_spec())) as server:
            code = run_cli(compress_args(toy_env, extra=["--backend", f"http:{server.url}{path}"]))
            assert server.state.request_count == 0
        err = capfd.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "s3cret" not in err
        if path:
            assert "cannot be sent" in err
        else:
            assert "CTS_BACKEND_TOKEN" in err
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("userinfo", ["user:s3cret@", "user@", ":s3cret@"])
    def test_backend_url_with_a_user_name_or_password_exits_2_before_any_post(self, toy_env, capfd, userinfo):
        from http_stub import StubServer

        report = toy_env["dir"] / "report.json"
        with StubServer(ToyBackend(shift_spec())) as server:
            url = server.url.replace("://", f"://{userinfo}", 1)
            code = run_cli(compress_args(toy_env, extra=["--backend", url, "--report", str(report)]))
            assert server.state.request_count == 0
        err = capfd.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        # the password is neither printed nor echoed in a report; a bearer token is the way to send one
        assert "s3cret" not in err and "CTS_BACKEND_TOKEN" in err
        assert not (toy_env["dir"] / "out.jsonl").exists() and not report.exists()

    # urlsplit reads "user:s3cret@host" as scheme "user", and no descriptor rule matches "user:" or "https:"
    @pytest.mark.parametrize("flag, descriptor", [
        ("--backend", "http:user:s3cret@{host}"),
        ("--backend", "user:s3cret@{host}"),
        ("--backend", "https:user:s3cret@{host}"),
        (ENV_BACKEND_URL, "user:s3cret@{host}"),
        ("--backend-tuned", "http:user:s3cret@{host}"),
        ("--backend-tuned", "user:s3cret@{host}"),
    ])
    def test_a_descriptor_never_prints_what_precedes_its_at(self, toy_env, monkeypatch, capfd, flag, descriptor):
        from http_stub import StubServer

        with StubServer(ToyBackend(shift_spec())) as server:
            descriptor = descriptor.format(host=server.url.partition("://")[2])
            code = run_cli(backend_args(toy_env, monkeypatch, flag, descriptor))
            assert server.state.request_count == 0
        err = capfd.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "s3cret" not in err and server.url.partition("://")[2] in err, err

    # a password holding a raw /: urlsplit cuts "http://user:s3/cret@host" at the /, reading host "user" and
    # port "s3", and reads the two descriptors without // as scheme "user"
    @pytest.mark.parametrize("descriptor", [
        "http:user:s3/cret@127.0.0.1:9", "user:s3/cret@127.0.0.1:9", "http://user:s3/cret@127.0.0.1:9",
    ])
    @pytest.mark.parametrize("flag", ["--backend", ENV_BACKEND_URL, "--backend-tuned"])
    def test_a_password_holding_a_slash_is_not_printed(self, toy_env, monkeypatch, capfd, flag, descriptor):
        code = run_cli(backend_args(toy_env, monkeypatch, flag, descriptor))
        err = capfd.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "s3" not in err and "cret" not in err, err

    def test_unknown_backend_descriptor_exits_2(self, toy_env):
        code = run_cli(compress_args(toy_env, extra=["--backend", "carrier-pigeon:coop"]))
        assert code == 2

    def test_missing_backend_exits_2(self, toy_env, monkeypatch):
        monkeypatch.delenv("CTS_BACKEND_URL", raising=False)
        args = [a for a in compress_args(toy_env)]
        i = args.index("--backend")
        del args[i : i + 2]
        assert run_cli(args) == 2

    def test_env_backend_used_when_no_flag(self, toy_env, monkeypatch):
        monkeypatch.setenv("CTS_BACKEND_URL", f"toy:{toy_env['spec']}")
        args = [a for a in compress_args(toy_env)]
        i = args.index("--backend")
        del args[i : i + 2]
        assert run_cli(args) == 0

    def test_config_file_precedence(self, toy_env, monkeypatch):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({
            "ratio": 0.5,
            "backend": f"toy:{toy_env['spec']}",
            "condition_template": CONDITION,
        }))
        monkeypatch.setenv("CTS_BACKEND_URL", "http://should-not-be-used.invalid")
        report_path = toy_env["dir"] / "r.json"
        # config file beats env; CLI flag beats config file
        code = run_cli([
            "compress", "--input", toy_env["corpus"],
            "--output", str(toy_env["dir"] / "o.jsonl"),
            "--config", str(cfg_path), "--ratio", "0.7",
            "--report", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["config_echo"]["alpha"] == 0.7
        code = run_cli([
            "compress", "--input", toy_env["corpus"],
            "--output", str(toy_env["dir"] / "o2.jsonl"),
            "--config", str(cfg_path),
            "--report", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["config_echo"]["alpha"] == 0.5

    @pytest.mark.parametrize("workers", ["0", "-1", "65", "100000"])
    def test_workers_flag_out_of_range_exits_2(self, toy_env, workers, capfd):
        assert run_cli(compress_args(toy_env, extra=["--workers", workers])) == 2
        err = capfd.readouterr().err
        assert f"error: workers must be an integer in [1, 64], got {int(workers)}" in err
        assert "Traceback" not in err
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("workers", [1, 64])
    def test_workers_bounds_accepted(self, toy_env, workers):
        args = cts.cli.build_parser().parse_args(compress_args(toy_env, extra=["--workers", str(workers)]))
        assert cts.cli.resolve_settings(args)["workers"] == workers

    @pytest.mark.parametrize("workers", [0, -3, 65, 100000, 2.5, "4", True])
    def test_workers_out_of_range_in_config_file_exits_2(self, toy_env, workers):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"workers": workers}))
        argv = compress_args(toy_env, extra=["--config", str(cfg_path)])
        with pytest.raises(ConfigError, match="workers"):
            cts.cli.resolve_settings(cts.cli.build_parser().parse_args(argv))
        # settings are resolved before any backend or worker exists
        assert run_cli(argv) == 2
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("ratio", "abc"), ("ratio", [0.5]), ("ratio", True), ("conditional", "false"),
        ("iterative_original_prefix", 1), ("lenient", "no"), ("segment_budget", "x"),
        ("segment_budget", 64.0), ("boundary_slack", False), ("workers", "2"),
        ("condition_template", 7), ("scope", None), ("score_space", ["ppl-diff"]),
        ("backend", {"url": "x"}), ("backend_tuned", 1),
    ])
    def test_config_value_of_the_wrong_type_exits_2(self, toy_env, capfd, key, value):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({
            "ratio": 0.7, "backend": f"toy:{toy_env['spec']}", "condition_template": CONDITION, key: value,
        }))
        out = toy_env["dir"] / "out.jsonl"
        assert run_cli(["compress", "--input", toy_env["corpus"], "--output", str(out),
                        "--config", str(cfg_path)]) == 2
        err = capfd.readouterr().err
        assert f"{key} must be" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ratio", [0, -0.5, 1.5, 2])
    def test_config_ratio_out_of_range_exits_2_naming_ratio(self, toy_env, capfd, ratio):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({"ratio": ratio}))
        out = toy_env["dir"] / "out.jsonl"
        base = ["compress", "--input", toy_env["corpus"], "--output", str(out), "--backend", f"toy:{toy_env['spec']}"]
        # a config-file value keeps its JSON type; the flag's value is a float
        for argv, value in ((["--config", str(cfg_path)], ratio), ([f"--ratio={ratio}"], float(ratio))):
            assert run_cli(base + argv) == 2
            err = capfd.readouterr().err
            assert [line for line in err.splitlines() if line.startswith("error: ")] == [
                f"error: ratio must be in (0, 1], got {value!r}"]
            assert "alpha" not in err
            assert "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [("scope", "per_segment"), ("score_space", "bits_diff"), ("scope", "bogus")])
    def test_config_choice_not_a_flag_spelling_exits_2_naming_the_key(self, toy_env, capfd, key, value):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert run_cli(compress_args(toy_env, extra=["--config", str(cfg_path)])) == 2
        err = capfd.readouterr().err
        choices = {"scope": ("global", "per-segment"), "score_space": ("ppl-diff", "bits-diff")}[key]
        assert err == f"error: {key} must be one of {choices}, got {value!r}\n"
        assert "selection_scope" not in err
        assert "Traceback" not in err
        assert not (toy_env["dir"] / "out.jsonl").exists()

    def test_config_file_unknown_key_exits_2(self, toy_env):
        cfg_path = toy_env["dir"] / "cfg.json"
        cfg_path.write_text('{"ratios": 0.5}')
        assert run_cli(compress_args(toy_env, extra=["--config", str(cfg_path)])) == 2

    # every config-file setting: its flag's arguments, and the same value as its config-file key holds it
    @pytest.mark.parametrize("key, flag, value", [
        ("ratio", ["--ratio", "0.25"], 0.25),
        ("conditional", ["--no-conditional"], False),
        ("condition_template", ["--condition-template", "{answer}:"], "{answer}:"),
        ("segment_budget", ["--segment-budget", "64"], 64),
        ("boundary_slack", ["--boundary-slack", "8"], 8),
        ("scope", ["--scope", "per-segment"], "per-segment"),
        ("score_space", ["--score-space", "bits-diff"], "bits-diff"),
        ("iterative_original_prefix", ["--iterative-original-prefix"], True),
        ("backend", ["--backend", "http://localhost:8000"], "http://localhost:8000"),
        ("workers", ["--workers", "3"], 3),
        ("lenient", ["--lenient"], True),
        ("backend_tuned", ["--backend-tuned", "http://localhost:8001"], "http://localhost:8001"),
    ])
    def test_flag_and_config_file_resolve_alike(self, tmp_path, monkeypatch, key, flag, value):
        monkeypatch.delenv("CTS_BACKEND_URL", raising=False)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        base = ["ablate", "--input", "in.jsonl", "--output", "out"]  # ablate takes every setting's flag

        def resolved(argv):
            settings = cts.cli.resolve_settings(cts.cli.build_parser().parse_args(base + argv), default_ratio=0.5)
            return settings, cts.cli.selection_config_from(settings)

        from_flag = resolved(flag)
        assert from_flag == resolved(["--config", str(cfg_path)])
        assert from_flag[0][key] == value
        assert from_flag[0] != resolved([])[0]


def assert_one_error_naming(capfd, path):
    assert_one_error_line(capfd.readouterr().err, path)


def assert_one_error_line(stderr: str, text) -> None:
    """``stderr`` holds one ``error:`` line, which holds ``text``, and no traceback, not even an ignored one."""
    assert "Traceback" not in stderr and "Exception ignored" not in stderr, stderr
    errors = [line for line in stderr.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and str(text) in errors[0], stderr


def argv_for(command, env, input_path, output_path):
    compress = compress_args(env)
    argv = {
        "compress": compress,
        "score": ["score", *compress[1:]],
        "ablate": ablate_args(env, output_path),
        "emit sft": ["emit", "sft", "--input", "-", "--output", "-"],
        "stats": ["stats", "--input", "-"],
    }[command]
    argv[argv.index("--input") + 1] = str(input_path)
    if "--output" in argv:
        argv[argv.index("--output") + 1] = str(output_path)
    return argv


class TestFilePaths:
    """A file that cannot be read or written is a usage error (exit 2) naming its path, not a traceback."""

    @pytest.mark.parametrize("content",
                             [None, b'{"vocabulary": [', b"\xff\xfe", UNREADABLE_JSON["nested-100000-deep"]],
                             ids=["missing", "not-json", "not-utf8", "nested-100000-deep"])
    def test_unreadable_toy_spec_exits_2(self, toy_env, capfd, content):
        spec = toy_env["dir"] / "bad_spec.json"
        if content is not None:
            spec.write_bytes(content)
        assert run_cli(compress_args(toy_env, extra=["--backend", f"toy:{spec}"])) == 2
        assert_one_error_naming(capfd, spec)
        assert not (toy_env["dir"] / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["compress", "score", "ablate", "emit sft", "stats"])
    def test_missing_input_exits_2(self, toy_env, capfd, command):
        missing = toy_env["dir"] / "missing.jsonl"
        out = toy_env["dir"] / "out"
        assert run_cli(argv_for(command, toy_env, missing, out)) == 2
        assert_one_error_naming(capfd, missing)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["compress", "score", "ablate", "emit sft"])
    def test_output_under_a_regular_file_exits_2(self, toy_env, capfd, command):
        blocker = toy_env["dir"] / "blocker"
        blocker.write_text("")
        out = blocker / "out"
        assert run_cli(argv_for(command, toy_env, toy_env["corpus"], out)) == 2
        assert_one_error_naming(capfd, out)

    @pytest.mark.parametrize("command", ["compress", "ablate"])
    def test_a_report_in_a_missing_directory_is_written(self, toy_env, command):
        # the report's directory is made, as every other output's is, so the run does not fail at its end
        report = toy_env["dir"] / "missing" / "report.json"
        argv = {"compress": compress_args(toy_env), "ablate": ablate_args(toy_env, toy_env["dir"] / "ablate")}[command]
        assert run_cli([*argv, "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["base"]["instances_ok"] == 40 if command == "ablate" else payload["instances_ok"] == 40

    def test_a_report_echoing_a_path_that_is_not_utf8_is_written_whole(self, toy_env, capsys):
        # argv hands the byte 0xff of a file name to Python as the surrogate \udcff
        name = os.fsdecode(os.fsencode(str(toy_env["dir"])) + b"/in\xff.jsonl")
        try:
            Path(name).write_bytes(Path(toy_env["corpus"]).read_bytes())
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses a name that is not UTF-8")
        report = toy_env["dir"] / "report.json"
        argv = compress_args(toy_env, extra=["--report", str(report), "--print-report"])
        argv[argv.index("--input") + 1] = name
        assert run_cli(argv) == 0
        with open(report, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["config_echo"]["input"] == name
        assert json.loads(capsys.readouterr().out) == payload
        assert sorted(os.listdir(toy_env["dir"])) == sorted(["corpus.jsonl", "spec.json", os.path.basename(name),
                                                            "out.jsonl", "report.json"])

    def test_a_report_of_utf8_paths_is_written_as_before(self, toy_env):
        # indent 2, non-ASCII text as itself, one newline at the end
        report = toy_env["dir"] / "réport.json"
        assert run_cli(compress_args(toy_env, extra=["--report", str(report)])) == 0
        text = report.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), ensure_ascii=False, indent=2) + "\n"
        assert "\\u" not in text

    @pytest.mark.parametrize("clash", ["dump", "report", "directory", "score-report", "ablate-report",
                                       "ablate-report-directory"])
    def test_clashing_outputs_exit_2_before_any_post(self, toy_env, capfd, clash):
        from http_stub import StubServer

        out = toy_env["dir"] / "out.jsonl"
        base = toy_env["dir"] / "ablate" / "base.jsonl"
        if clash == "directory":
            out.mkdir()
        argv = {
            "dump": compress_args(toy_env, extra=["--score-dump", str(out)]),
            "report": compress_args(toy_env, extra=["--report", str(out)]),
            "directory": compress_args(toy_env),
            "score-report": ["score", *compress_args(toy_env)[1:], "--report", str(out)],
            "ablate-report": ablate_args(toy_env, base.parent, extra=["--report", str(base)]),
            "ablate-report-directory": ablate_args(toy_env, base.parent, extra=["--report", str(base.parent)]),
        }[clash]
        before = sorted(os.listdir(toy_env["dir"]))
        with StubServer(ToyBackend(shift_spec())) as server:
            assert run_cli([*argv, "--backend", f"http:{server.url}"]) == 2
        named = {"ablate-report": base, "ablate-report-directory": base.parent}.get(clash, out)
        assert_one_error_naming(capfd, named)
        assert server.state.request_count == 0
        assert sorted(os.listdir(toy_env["dir"])) == before
        assert clash != "directory" or list(out.iterdir()) == []

    @pytest.mark.parametrize("clash", ["output", "output-relative", "report", "dump", "score", "config", "ablate",
                                       "emit-sft", "emit-rm-rows-input", "emit-rm-rows-responses"])
    def test_an_output_that_names_an_input_exits_2_and_leaves_it(self, toy_env, capfd, monkeypatch, clash):
        from http_stub import StubServer

        work = toy_env["dir"]
        corpus = toy_env["corpus"]
        config = write_jsonl_file([{"ratio": 0.5}], work / "config.json")
        examples = write_jsonl_file([{"question": "q", "answer": "a", "reasoning_steps": ["s"]}], work / "ex.jsonl")
        responses = write_jsonl_file([{"source_id": "line:1", "compressed_steps": "s"}], work / "responses.jsonl")
        (work / "ablate").mkdir()
        in_ablate = write_jsonl_file(read_jsonl_file(corpus), work / "ablate" / "base.jsonl")
        rm_rows = ["emit", "rm-rows", "--input", examples, "--responses", responses, "--output"]
        monkeypatch.chdir(work)
        argv, named = {
            "output": (compress_args(toy_env, corpus), corpus),
            "output-relative": ([*compress_args(toy_env)[:3], "--output", "corpus.jsonl", *compress_args(toy_env)[5:]],
                                "corpus.jsonl"),
            "report": (compress_args(toy_env, extra=["--report", corpus]), corpus),
            "dump": (compress_args(toy_env, extra=["--score-dump", corpus]), corpus),
            "score": (["score", *compress_args(toy_env, corpus)[1:]], corpus),
            "config": (compress_args(toy_env, extra=["--config", config, "--report", config]), config),
            "ablate": (["ablate", "--input", in_ablate, *ablate_args(toy_env, work / "ablate")[3:]], in_ablate),
            "emit-sft": (["emit", "sft", "--input", corpus, "--output", corpus], corpus),
            "emit-rm-rows-input": ([*rm_rows, examples], examples),
            "emit-rm-rows-responses": ([*rm_rows, responses], responses),
        }[clash]
        inputs = {path: Path(path).read_bytes() for path in (corpus, config, examples, responses, in_ablate)}
        before = sorted(os.listdir(work))
        with StubServer(ToyBackend(shift_spec())) as server:
            backend = [] if argv[0] == "emit" else ["--backend", f"http:{server.url}"]
            assert run_cli([*argv, *backend]) == 2
        assert_one_error_naming(capfd, named)
        assert server.state.request_count == 0
        assert sorted(os.listdir(work)) == before
        assert {path: Path(path).read_bytes() for path in inputs} == inputs

    @pytest.mark.parametrize("clash", ["output", "dump", "report", "ablate-tuned-report"])
    def test_an_output_that_names_the_toy_spec_exits_2_and_leaves_it(self, toy_env, capfd, clash):
        from http_stub import StubServer

        spec = toy_env["spec"]
        before_spec, before = Path(spec).read_bytes(), sorted(os.listdir(toy_env["dir"]))
        with StubServer(ToyBackend(shift_spec())) as server:
            argv = {
                "output": compress_args(toy_env, extra=["--output", spec]),
                "dump": compress_args(toy_env, extra=["--score-dump", spec]),
                "report": compress_args(toy_env, extra=["--report", spec]),
                # the spec of the tuned backend is an input too; the standard backend gets no POST
                "ablate-tuned-report": ablate_args(toy_env, toy_env["dir"] / "ablate", extra=[
                    "--backend", f"http:{server.url}", "--backend-tuned", f"toy:{spec}", "--report", spec]),
            }[clash]
            assert run_cli(argv) == 2
        assert_one_error_naming(capfd, spec)
        assert server.state.request_count == 0
        assert Path(spec).read_bytes() == before_spec
        assert sorted(os.listdir(toy_env["dir"])) == before

    # each output a run writes: the dataset, the score dump, a mode file of ablate, the report, emit's output
    @pytest.mark.parametrize("output", ["output", "dump", "ablate-mode", "report", "emit"])
    @pytest.mark.parametrize("kind", ["fifo", "socket"])
    def test_an_output_that_is_not_a_regular_file_exits_2_and_leaves_it(self, toy_env, output, kind):
        from http_stub import StubServer

        work = toy_env["dir"]
        (work / "ablate").mkdir()
        special = work / ("ablate/conditional.jsonl" if output == "ablate-mode" else "special")
        with contextlib.ExitStack() as stack:
            if kind == "fifo":
                os.mkfifo(special)
            else:
                listener = stack.enter_context(socket.socket(socket.AF_UNIX))
                listener.bind(str(special))
            before = sorted(os.listdir(work)), sorted(os.listdir(work / "ablate"))
            server = stack.enter_context(StubServer(ToyBackend(shift_spec())))
            backend = ["--backend", f"http:{server.url}"]
            argv = {
                "output": compress_args(toy_env, extra=["--output", str(special), *backend]),
                "dump": compress_args(toy_env, extra=["--score-dump", str(special), *backend]),
                "ablate-mode": ablate_args(toy_env, work / "ablate", extra=backend),
                "report": compress_args(toy_env, extra=["--report", str(special), *backend]),
                "emit": ["emit", "sft", "--input", toy_env["corpus"], "--output", str(special)],
            }[output]
            # in a child, so that a run that opens the FIFO fails on the timeout instead of hanging the suite
            done = run_child(argv, timeout=30)
            assert done.returncode == 2, done.stderr
            assert_one_error_line(done.stderr, special)
            assert server.state.request_count == 0
            assert (sorted(os.listdir(work)), sorted(os.listdir(work / "ablate"))) == before
            mode = os.stat(special).st_mode
            assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISSOCK(mode)

    # an output goes to its temp file (path + ".tmp") first, then is renamed over the path
    @pytest.mark.parametrize("clash", ["input", "dump", "output-temp-dump", "report", "leftover", "ablate-leftover",
                                       "emit-input", "emit-leftover"])
    def test_an_output_whose_temp_file_clashes_exits_2_and_leaves_every_file(self, toy_env, capfd, clash):
        from http_stub import StubServer

        work = toy_env["dir"]
        corpus = read_jsonl_file(toy_env["corpus"])
        data, tmp = work / "data.jsonl", work / "data.jsonl.tmp"
        (work / "ablate").mkdir()
        compressed = write_jsonl_file([{"id": "c", "problem": "", "compressed_thinking": "A", "answer": "B",
                                        "nominal_ratio": 0.5, "actual_ratio": 0.5, "kept_count": 1,
                                        "original_count": 2}], work / "compressed.jsonl")
        write_jsonl_file(corpus, data)
        write_jsonl_file(read_jsonl_file(compressed) if clash.startswith("emit") else corpus, tmp)
        named, argv = tmp, {
            "input": compress_args(toy_env, extra=["--input", str(tmp), "--output", str(data)]),
            "dump": compress_args(toy_env, extra=["--output", str(tmp), "--score-dump", str(data)]),
            "output-temp-dump": compress_args(toy_env, extra=["--output", str(data), "--score-dump", str(tmp)]),
            "report": compress_args(toy_env, extra=["--output", str(data), "--report", str(tmp)]),
            "leftover": compress_args(toy_env, extra=["--output", str(data)]),
            "ablate-leftover": ablate_args(toy_env, work / "ablate"),
            "emit-input": ["emit", "sft", "--input", str(tmp), "--output", str(data)],
            "emit-leftover": ["emit", "sft", "--input", compressed, "--output", str(data)],
        }[clash]
        if clash == "ablate-leftover":
            named = work / "ablate" / "proposed.jsonl.tmp"
            write_jsonl_file(corpus, named)
        files = {path: path.read_bytes() for path in [*work.iterdir(), *(work / "ablate").iterdir()] if path.is_file()}
        with StubServer(ToyBackend(shift_spec())) as server:
            backend = [] if argv[0] == "emit" else ["--backend", f"http:{server.url}"]
            assert run_cli([*argv, *backend]) == 2
        assert_one_error_naming(capfd, named)
        assert server.state.request_count == 0
        assert {path: path.read_bytes() for path in [*work.iterdir(), *(work / "ablate").iterdir()]
                if path.is_file()} == files

    @pytest.mark.parametrize("nesting", ["ablate-in-report-temp", "report-holding-output"])
    def test_an_output_under_another_output_or_its_temp_file_exits_2(self, toy_env, capfd, nesting):
        # the directory of an output, however deep, is no other output and no temp file of one
        work = toy_env["dir"]
        named, argv = {
            "ablate-in-report-temp": (work / "report.json.tmp", ablate_args(
                toy_env, work / "report.json.tmp", extra=["--report", str(work / "report.json")])),
            "report-holding-output": (work / "a", compress_args(
                toy_env, extra=["--output", str(work / "a" / "b" / "out.jsonl"), "--report", str(work / "a")])),
        }[nesting]
        before = sorted(work.rglob("*"))
        assert run_cli(argv) == 2
        assert_one_error_naming(capfd, named)
        assert sorted(work.rglob("*")) == before

    def test_emit_to_a_directory_exits_2_and_leaves_no_file(self, toy_env, capfd):
        compressed, out = toy_env["dir"] / "out.jsonl", toy_env["dir"] / "sft"
        assert run_cli(compress_args(toy_env)) == 0
        out.mkdir()
        before = sorted(os.listdir(toy_env["dir"]))
        assert run_cli(["emit", "sft", "--input", str(compressed), "--output", str(out)]) == 2
        assert_one_error_naming(capfd, out)
        assert sorted(os.listdir(toy_env["dir"])) == before



class TestFailedWrites:
    """An output, file or stdout, that cannot be written is exit 2 with one error line and no traceback; a file's
    temp file is removed and an earlier file at its path is left as it was."""

    @pytest.mark.parametrize("fails", ["write", "close"])
    @pytest.mark.parametrize("kind", ["dataset", "dump", "score", "ablate-mode", "emit-sft", "report"])
    def test_a_failed_write_exits_2_and_leaves_the_earlier_file(self, toy_env, capfd, monkeypatch, kind, fails):
        work = toy_env["dir"]
        assert run_cli(compress_args(toy_env, out_name="compressed.jsonl")) == 0  # the input of emit sft
        path = work / {"ablate-mode": "ablate/proposed.jsonl", "report": "report.json"}.get(kind, "out.jsonl")
        argv = {
            "dataset": compress_args(toy_env),
            "dump": compress_args(toy_env, out_name="data.jsonl", extra=["--score-dump", str(path)]),
            "score": argv_for("score", toy_env, toy_env["corpus"], path),
            "ablate-mode": ablate_args(toy_env, work / "ablate"),
            "emit-sft": argv_for("emit sft", toy_env, work / "compressed.jsonl", path),
            "report": compress_args(toy_env, out_name="data.jsonl", extra=["--report", str(path)]),
        }[kind]
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b"an earlier file\n")
        capfd.readouterr()
        fail_output(monkeypatch, path, fails)
        assert run_cli(argv) == 2
        assert_one_error_naming(capfd, path)
        assert path.read_bytes() == b"an earlier file\n"
        assert not list(work.rglob("*.tmp"))

    def test_a_file_size_limit_exits_2_and_leaves_the_earlier_file(self, toy_env):
        resource = pytest.importorskip("resource")
        limit = 8 * 1024
        records = make_corpus(200, list("ABC "), random.Random(1), min_tokens=200, max_tokens=300)
        corpus = write_jsonl_file([dict(record, answer="42") for record in records], toy_env["dir"] / "big.jsonl")
        out = toy_env["dir"] / "out.jsonl"
        out.write_bytes(b"an earlier file\n")
        argv = compress_args(toy_env, ratio="0.5", extra=["--input", corpus, "--condition-template", "{answer}"])

        def limit_file_size():  # in the child, between fork and exec
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))

        done = run_child(argv, preexec_fn=limit_file_size)
        assert done.returncode == 2, done.stderr
        assert_one_error_line(done.stderr, out)
        assert out.read_bytes() == b"an earlier file\n"
        assert not (toy_env["dir"] / "out.jsonl.tmp").exists()

    @pytest.mark.parametrize("stdout", ["/dev/full", "closed-pipe"])
    @pytest.mark.parametrize("command", ["stats", "print-report"])
    def test_stdout_that_cannot_be_written_exits_2(self, toy_env, command, stdout):
        if stdout == "/dev/full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        assert run_cli(compress_args(toy_env)) == 0
        argv = {"stats": ["stats", "--input", str(toy_env["dir"] / "out.jsonl")],
                "print-report": compress_args(toy_env, out_name="printed.jsonl", extra=["--print-report"])}[command]
        with contextlib.ExitStack() as stack:
            if stdout == "/dev/full":
                sink = stack.enter_context(open("/dev/full", "w")).fileno()
            else:  # a pipe whose reader is gone: a write fails with EPIPE
                read_end, sink = os.pipe()
                os.close(read_end)
                stack.callback(os.close, sink)
            done = run_child(argv, stdout=sink)
        assert done.returncode == 2, done.stderr
        assert_one_error_line(done.stderr, "cannot write standard output")


class TestStreams:
    """A stream that cannot be written never changes the exit code, nor ends the run in a traceback; only stdout,
    which the user asked for, is exit 2. Each run is a child process, stderr on /dev/full or a descriptor closed."""

    @staticmethod
    def stderr_to(kind, stack) -> dict:
        """The run_child arguments that send the child's stderr to /dev/full, or close its descriptor 2."""
        if kind == "closed":
            return {"stderr": None, "preexec_fn": lambda: os.close(2)}  # in the child, between fork and exec
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return {"stderr": stack.enter_context(open("/dev/full", "w"))}

    @pytest.mark.parametrize("stderr, run, code", [
        ("/dev/full", "usage-error", 2), ("/dev/full", "ablate", 0), ("/dev/full", "unreachable", 3),
        ("closed", "usage-error", 2), ("closed", "ablate", 0),
    ])
    def test_stderr_that_cannot_be_written_keeps_the_exit_code(self, toy_env, stderr, run, code):
        outdir = toy_env["dir"] / "ablate"
        argv = {"usage-error": compress_args(toy_env, ratio="2"), "ablate": ablate_args(toy_env, outdir),
                "unreachable": compress_args(toy_env, extra=["--backend", "http:http://127.0.0.1:9"])}[run]
        with contextlib.ExitStack() as stack:
            done = run_child(argv, stdout=subprocess.PIPE, **self.stderr_to(stderr, stack))
        assert (done.returncode, done.stdout) == (code, "")  # print sends a line for a None sys.stderr to stdout
        if run == "ablate":
            assert sorted(os.listdir(outdir)) == sorted(f"{mode.name}.jsonl" for mode in cts.cli.ABLATION_MODES)
        assert not (toy_env["dir"] / "out.jsonl").exists()

    def test_a_closed_stdout_exits_2(self, toy_env):
        # Python makes sys.stdout None, which print would quietly write nothing to
        assert run_cli(compress_args(toy_env)) == 0
        done = run_child(["stats", "--input", str(toy_env["dir"] / "out.jsonl")], preexec_fn=lambda: os.close(1))
        assert done.returncode == 2, done.stderr
        assert_one_error_line(done.stderr, "cannot write standard output")


class TestErrorBranches:
    """Usage errors and per-record failures on paths that no other test takes."""

    @pytest.mark.parametrize("content", [b"{not json", b"[0.5]", *UNREADABLE_JSON.values()],
                             ids=["{not json", "[0.5]", *UNREADABLE_JSON])
    def test_config_file_that_is_not_a_json_object_exits_2(self, toy_env, capfd, content):
        cfg = toy_env["dir"] / "cfg.json"
        cfg.write_bytes(content)
        assert run_cli(compress_args(toy_env, extra=["--config", str(cfg)])) == 2
        assert_one_error_naming(capfd, cfg)

    def test_no_ratio_exits_2(self, toy_env, capfd):
        args = compress_args(toy_env)
        i = args.index("--ratio")
        del args[i : i + 2]
        assert run_cli(args) == 2
        assert capfd.readouterr().err.startswith("error: a retention ratio is required")

    @pytest.mark.parametrize("flag, value, message", [
        ("--segment-budget", "0", "segment_budget must be >= 1, got 0"),
        ("--boundary-slack", "600", "boundary_slack must be in [0, segment_budget), got 600"),
    ])
    def test_segment_setting_out_of_range_exits_2(self, toy_env, capfd, flag, value, message):
        assert run_cli(compress_args(toy_env, extra=[flag, value])) == 2
        assert capfd.readouterr().err == f"error: {message}\n"

    def test_report_under_a_regular_file_exits_2_after_the_dataset_is_written(self, toy_env, capfd):
        blocker = toy_env["dir"] / "blocker"
        blocker.write_text("")
        report = blocker / "report.json"
        assert run_cli(compress_args(toy_env, extra=["--report", str(report)])) == 2
        assert_one_error_naming(capfd, report)
        assert len(read_jsonl_file(toy_env["dir"] / "out.jsonl")) == 40

    def test_emit_sft_skips_a_record_with_empty_compressed_thinking(self, toy_env, caplog):
        assert run_cli(compress_args(toy_env)) == 0
        records = read_jsonl_file(toy_env["dir"] / "out.jsonl")
        records[1]["compressed_thinking"] = ""
        compressed = write_jsonl_file(records, toy_env["dir"] / "edited.jsonl")
        others = write_jsonl_file(records[:1] + records[2:], toy_env["dir"] / "others.jsonl")
        sft, others_sft = toy_env["dir"] / "sft.jsonl", toy_env["dir"] / "others-sft.jsonl"
        assert run_cli(["emit", "sft", "--input", compressed, "--output", str(sft)]) == 1
        assert run_cli(["emit", "sft", "--input", others, "--output", str(others_sft)]) == 0
        assert sft.read_bytes() == others_sft.read_bytes()
        assert len(read_jsonl_file(sft)) == len(records) - 1
        assert f"instance {records[1]['id']}: compressed_thinking is empty" in caplog.text

    def test_emit_rm_rows_without_responses_exits_2(self, tmp_path, capfd):
        examples = write_jsonl_file([{"question": "q", "answer": "a", "reasoning_steps": ["s"]}], tmp_path / "ex.jsonl")
        out = tmp_path / "rows.jsonl"
        assert run_cli(["emit", "rm-rows", "--input", examples, "--output", str(out)]) == 2
        assert capfd.readouterr().err == "error: emit rm-rows requires --responses\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ({"vocabulary": [], "table": {}}, "toy model vocabulary is empty"),
        ({"vocabulary": ["A", "A"], "table": {"START": {"A": 1.0}}}, "toy model vocabulary contains duplicates"),
        ({"vocabulary": ["A"], "table": {"START": {"B": 1.0}}}, "table entry 'B' (row 'START') is not in the vocabulary"),
        ({"vocabulary": [1, "A"], "table": {"START": {"A": 1.0}}},
         "toy model vocabulary must be a list of non-empty str, got [1, 'A']"),
        ({"vocabulary": ["A"], "table": {"A": {"A": 1.0}}},
         "toy model table has no 'START' row for sequence-initial positions"),
    ])
    def test_toy_spec_that_does_not_validate_exits_2(self, toy_env, capfd, spec, message):
        path = toy_env["dir"] / "bad-spec.json"
        path.write_text(json.dumps(spec))
        assert run_cli(compress_args(toy_env, extra=["--backend", f"toy:{path}"])) == 2
        assert capfd.readouterr().err == f"error: {message}\n"

    def test_a_package_error_outside_a_record_exits_1_with_one_error_line(self, toy_env, monkeypatch, capfd):
        def read_compressed_dataset(path, errors):
            raise DatasetError("cannot read it", path=path)

        monkeypatch.setattr(cts.cli, "read_compressed_dataset", read_compressed_dataset)
        out = toy_env["dir"] / "sft.jsonl"
        assert run_cli(["emit", "sft", "--input", toy_env["corpus"], "--output", str(out)]) == 1
        assert capfd.readouterr().err == f"error: {toy_env['corpus']}: cannot read it\n"
        assert not out.exists()

    def test_an_interrupt_exits_130_and_leaves_no_output(self, toy_env, monkeypatch, capfd):
        def read_compressed_dataset(path, errors):
            raise KeyboardInterrupt

        monkeypatch.setattr(cts.cli, "read_compressed_dataset", read_compressed_dataset)
        out = toy_env["dir"] / "sft.jsonl"
        assert run_cli(["emit", "sft", "--input", toy_env["corpus"], "--output", str(out)]) == 130
        assert capfd.readouterr().err == ""
        assert not out.exists()

    def test_token_without_a_row_fails_only_the_instance_where_another_token_follows_it(self, tmp_path, caplog):
        # "B" has no row: P(next | B) is asked only where a token follows it
        spec = write_spec_file(ToyLmSpec(["A", "B"], {"START": {"A": 0.5, "B": 0.5}, "A": {"A": 0.5, "B": 0.5}}),
                               tmp_path / "spec.json")
        corpus = write_jsonl_file([{"id": "b-last", "problem": "", "thinking": "AAB", "answer": "A"},
                                   {"id": "b-inside", "problem": "", "thinking": "ABA", "answer": "A"}],
                                  tmp_path / "in.jsonl")
        out = tmp_path / "out.jsonl"
        code = run_cli(["compress", "--input", corpus, "--output", str(out), "--ratio", "0.5",
                        "--backend", f"toy:{spec}", "--condition-template", "{answer}"])
        assert code == 1
        assert [record["id"] for record in read_jsonl_file(out)] == ["b-last"]
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert len(failed) == 1 and "b-inside" in failed[0]
        assert "no distribution row for previous token 'B'" in failed[0]


class TestDuplicateIds:
    def test_duplicate_id_fails_the_run_unless_lenient(self, toy_env, caplog):
        records = read_jsonl_file(toy_env["corpus"])
        corpus = write_jsonl_file([*records[:3], records[1], *records[3:]], toy_env["dir"] / "dup.jsonl")
        out = toy_env["dir"] / "out.jsonl"
        argv = compress_args(toy_env)
        argv[argv.index("--input") + 1] = corpus
        assert run_cli(argv) == 1
        assert f"dup.jsonl:4: duplicate id {records[1]['id']!r} (first at line 2)" in caplog.text
        strict = out.read_bytes()
        assert run_cli([*argv, "--lenient"]) == 0
        assert out.read_bytes() == strict
        assert [x.id for x in read_compressed_dataset(str(out))] == [r["id"] for r in records]


class TestStats:
    def test_stats_recomputes_report(self, toy_env, capsys):
        out = toy_env["dir"] / "out.jsonl"
        report_path = toy_env["dir"] / "report.json"
        run_cli(compress_args(toy_env, extra=["--report", str(report_path)]))
        capsys.readouterr()
        assert run_cli(["stats", "--input", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        report = json.loads(report_path.read_text())
        for key in ("instances_ok", "kept_tokens_total", "original_tokens_total",
                    "mean_actual_ratio", "actual_ratio_per_token"):
            assert stats[key] == report[key]

    def test_a_path_that_is_not_utf8_is_printed_as_its_json_escape(self, toy_env, capsys):
        # argv hands the byte 0xff of a file name to Python as the surrogate \udcff, which a strict UTF-8
        # stdout, as capsys's is, cannot write
        assert run_cli(compress_args(toy_env)) == 0
        name = os.fsdecode(os.fsencode(str(toy_env["dir"])) + b"/in\xff.jsonl")
        try:
            Path(name).write_bytes((toy_env["dir"] / "out.jsonl").read_bytes())
        except (OSError, UnicodeEncodeError):
            pytest.skip("the file system refuses a name that is not UTF-8")
        capsys.readouterr()
        assert run_cli(["stats", "--input", name]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "\\udcff" in out
        report = json.loads(out)
        assert report["config_echo"] == {"source": name}
        assert report["instances_ok"] == 40

    def test_non_finite_ratio_is_a_skipped_record(self, toy_env, capsys, caplog):
        assert run_cli(compress_args(toy_env)) == 0
        records = read_jsonl_file(toy_env["dir"] / "out.jsonl")[:2]
        records[1]["actual_ratio"] = float("nan")
        path = write_jsonl_file(records, toy_env["dir"] / "nan.jsonl")
        capsys.readouterr()
        assert run_cli(["stats", "--input", path]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["instances_ok"], report["instances_failed"]) == (1, 1)
        assert report["mean_actual_ratio"] == records[0]["actual_ratio"]
        assert "Traceback" not in err
        assert f"{path}:2: field 'actual_ratio' must be a finite number, got nan" in caplog.text

    def test_integer_over_the_digit_limit_is_a_skipped_record(self, toy_env, capsys, caplog):
        # json.loads raises a plain ValueError, not a JSONDecodeError, past Python's int-string limit
        assert run_cli(compress_args(toy_env)) == 0
        (good,) = read_jsonl_file(toy_env["dir"] / "out.jsonl")[:1]
        path = toy_env["dir"] / "huge.jsonl"
        path.write_text(json.dumps(good) + "\n" + '{"kept_count": ' + "9" * 5000 + "}\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["stats", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["instances_ok"], report["instances_failed"]) == (1, 1)
        assert "Traceback" not in err
        assert f"{path}:2: malformed JSON: " in caplog.text

    def test_nesting_past_the_recursion_limit_is_a_skipped_record(self, toy_env, capsys, caplog):
        # json.loads raises a RecursionError, not a ValueError, on deep enough nesting
        assert run_cli(compress_args(toy_env)) == 0
        (good,) = read_jsonl_file(toy_env["dir"] / "out.jsonl")[:1]
        path = toy_env["dir"] / "deep.jsonl"
        path.write_text(json.dumps(good) + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["stats", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["instances_ok"], report["instances_failed"]) == (1, 1)
        assert "Traceback" not in err
        assert f"{path}:2: malformed JSON: " in caplog.text


class TestNotUtf8:
    """A line that is not UTF-8 is a skipped record, like a line that is not JSON, never a traceback."""

    @pytest.fixture
    def mixed(self, toy_env):
        assert run_cli(compress_args(toy_env)) == 0
        lines = (toy_env["dir"] / "out.jsonl").read_bytes().splitlines(keepends=True)
        path = toy_env["dir"] / "mixed.jsonl"
        path.write_bytes(lines[0] + b"\xff\xfe\n" + b"".join(lines[1:]))
        return path, len(lines)

    def test_stats_skips_the_line(self, mixed, capsys, caplog):
        path, n = mixed
        capsys.readouterr()
        assert run_cli(["stats", "--input", str(path)]) == 0
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert (report["instances_ok"], report["instances_failed"], report["instances_total"]) == (n, 1, n + 1)
        assert "Traceback" not in err
        assert f"{path}:2: not UTF-8" in caplog.text

    @pytest.mark.parametrize("lenient, code", [(False, 1), (True, 0)])
    def test_emit_sft_skips_the_line(self, mixed, toy_env, capsys, caplog, lenient, code):
        path, n = mixed
        sft = toy_env["dir"] / "sft.jsonl"
        assert run_cli(["emit", "sft", "--input", str(path), "--output", str(sft),
                        *(["--lenient"] if lenient else [])]) == code
        assert len(read_jsonl_file(sft)) == n
        assert "Traceback" not in capsys.readouterr().err
        assert f"{path}:2: not UTF-8" in caplog.text


class TestUnpairedSurrogate:
    """A record that holds an unpaired surrogate anywhere (a \\ud800-style escape) is a skipped record, whichever
    command reads it: it could not be written back out as UTF-8."""

    @staticmethod
    def write_escaped(objects, path) -> str:
        # ensure_ascii writes each surrogate as its JSON escape, the only way a UTF-8 file can hold one
        Path(path).write_text("".join(json.dumps(obj) + "\n" for obj in objects), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("field, value", [("note", "\ud800"), ("id", "\ud800"), ("nested", {"k": ["\udfff"]}),
                                              ("\udc00", "key")], ids=["extra", "id", "nested", "key"])
    def test_compress_skips_the_record(self, toy_env, capsys, caplog, field, value):
        records = read_jsonl_file(toy_env["corpus"])[:3]
        records[1] = {**records[1], field: value}
        argv = compress_args(toy_env)
        argv[argv.index("--input") + 1] = self.write_escaped(records, toy_env["dir"] / "bad.jsonl")
        assert run_cli(argv) == 1
        out = read_jsonl_file(toy_env["dir"] / "out.jsonl")
        assert [row["id"] for row in out] == [records[0]["id"], records[2]["id"]]
        assert "Traceback" not in capsys.readouterr().err
        assert "bad.jsonl:2: unpaired surrogate" in caplog.text
        assert run_cli([*argv, "--lenient"]) == 0

    def test_a_paired_surrogate_escape_is_one_character_and_passes(self, toy_env):
        records = read_jsonl_file(toy_env["corpus"])[:2]
        records[1]["note"] = "\U0001f600"
        argv = compress_args(toy_env)
        argv[argv.index("--input") + 1] = self.write_escaped(records, toy_env["dir"] / "paired.jsonl")
        assert run_cli(argv) == 0
        assert read_jsonl_file(toy_env["dir"] / "out.jsonl")[1]["note"] == "\U0001f600"

    @pytest.mark.parametrize("target", ["rm-prompts", "rm-rows"])
    def test_emit_skips_the_record(self, tmp_path, capsys, caplog, target):
        steps = {"rm-prompts": ["the cat", "\ud800"], "rm-rows": ["the cat"]}[target]
        examples = self.write_escaped([
            {"id": "e1", "question": "q", "answer": "a", "reasoning_steps": ["the cat"]},
            {"id": "e2", "question": "q", "answer": "a", "reasoning_steps": steps},
        ], tmp_path / "ex.jsonl")
        responses = self.write_escaped([
            {"source_id": "e1", "compressed_steps": ["cat"]},
            {"source_id": "e2", "compressed_steps": ["cat", "\udcff"]},
        ], tmp_path / "resp.jsonl")
        out = tmp_path / "out.jsonl"
        assert run_cli(["emit", target, "--input", examples, "--responses", responses, "--output", str(out)]) == 1
        assert [row["source_id"] for row in read_jsonl_file(out)] == ["e1"]
        assert "Traceback" not in capsys.readouterr().err
        assert f"{'ex' if target == 'rm-prompts' else 'resp'}.jsonl:2: unpaired surrogate" in caplog.text

    def test_stats_skips_the_record(self, toy_env, capsys, caplog):
        assert run_cli(compress_args(toy_env)) == 0
        records = read_jsonl_file(toy_env["dir"] / "out.jsonl")[:2]
        records[1]["note"] = "\ud800"
        path = self.write_escaped(records, toy_env["dir"] / "bad.jsonl")
        capsys.readouterr()
        assert run_cli(["stats", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["instances_ok"], report["instances_failed"]) == (1, 1)
        assert "bad.jsonl:2: unpaired surrogate" in caplog.text
