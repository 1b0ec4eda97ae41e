import logging

import pytest

from cts.dataset import CompressedInstance, RmCorpusExample
from cts.emitters import (
    build_rm_training_rows,
    emit_rm_prompts,
    emit_sft,
    rm_instruction_context,
    words_form_subsequence,
)
from cts.errors import DatasetError


def compressed(problem="P", thinking="T", answer="A", iid="c-1") -> CompressedInstance:
    return CompressedInstance(
        id=iid,
        problem=problem,
        compressed_thinking=thinking,
        answer=answer,
        nominal_ratio=1.0,
        actual_ratio=1.0,
        kept_count=1,
        original_count=1,
    )


def example(steps, question="q", answer="a", source_id="ex-1") -> RmCorpusExample:
    return RmCorpusExample(question=question, answer=answer, reasoning_steps=steps, source_id=source_id)


class TestEmitSft:
    def test_think_block_and_final_answer(self):
        record = emit_sft(compressed())
        assert "<think>\nT\n</think>" in record.completion
        assert record.completion.endswith("A")
        assert record.prompt.startswith("Given the following problem, solve it step by step.")
        assert "QUESTION: P\n" in record.prompt

    def test_identity_compression_preserves_thinking(self):
        record = emit_sft(compressed(thinking="step one\nstep two"))
        assert "\n<think>\nstep one\nstep two\n</think>\n" in record.completion

    def test_canonical_whitespace(self):
        record = emit_sft(compressed())
        assert record.prompt == "Given the following problem, solve it step by step.\n\nQUESTION: P\n"
        assert record.completion == "\n<think>\nT\n</think>\n\nA"

    def test_empty_answer_warns_but_emits(self, caplog):
        with caplog.at_level(logging.WARNING):
            record = emit_sft(compressed(answer=""))
        assert record.completion.endswith("</think>\n\n")
        assert any("empty answer" in r.message for r in caplog.records)

    def test_empty_thinking_rejected(self):
        with pytest.raises(DatasetError):
            emit_sft(compressed(thinking=""))


class TestEmitRmPrompts:
    def test_steps_joined_with_newlines(self):
        (record,) = emit_rm_prompts([example(["s1", "s2"])])
        head, _, tail = record.instruction.partition(
            "please compress the following reasoning steps:"
        )
        assert "s1\ns2" in tail
        assert record.source_id == "ex-1"

    def test_all_five_constraints_verbatim(self):
        (record,) = emit_rm_prompts([example(["s"])])
        for constraint in (
            "1. You can ONLY remove unimportant words.",
            "2. Do not reorder the original words.",
            "3. Do not change the original words.",
            "4. Do not use abbreviations or emojis.",
            "5. Do not add new words or symbols.",
        ):
            assert constraint in record.instruction

    def test_steps_embedded_verbatim(self):
        steps = ["keep {braces} literal", "and % signs"]
        (record,) = emit_rm_prompts([example(steps)])
        assert "keep {braces} literal\nand % signs" in record.instruction

    def test_empty_stream(self):
        assert list(emit_rm_prompts([])) == []

    def test_example_with_no_steps_is_rejected(self):
        with pytest.raises(DatasetError, match="example ex-1: reasoning_steps is empty"):
            list(emit_rm_prompts([example([])]))


class TestWordsFormSubsequence:
    def test_subsequence_accepted(self):
        assert words_form_subsequence("the cat sat", ["the big cat", "sat on the mat"])

    def test_reordered_words_rejected(self):
        assert not words_form_subsequence("cat the", ["the cat"])

    def test_new_words_rejected(self):
        assert not words_form_subsequence("the dog", ["the cat"])

    def test_empty_compressed_is_trivially_ok(self):
        assert words_form_subsequence("", ["anything"])


class TestBuildRmTrainingRows:
    def test_triple_embeds_question_and_answer(self):
        ex = example(["the cat sat"], question="why?", answer="because", source_id="s1")
        (row,) = build_rm_training_rows([ex], [("s1", "cat sat")])
        assert row.instruction_context == (
            "For a problem why?, the following reasoning steps are important to get the answer because"
        )
        assert row.target == "cat sat"
        assert row.flagged is False

    def test_context_helper(self):
        assert rm_instruction_context("Q", "A") == (
            "For a problem Q, the following reasoning steps are important to get the answer A"
        )

    def test_empty_responses_give_empty_output(self):
        assert list(build_rm_training_rows([example(["s"])], [])) == []

    def test_duplicate_source_id_raises_naming_it(self):
        ex = example(["s"], source_id="dup-7")
        with pytest.raises(DatasetError) as exc:
            list(build_rm_training_rows([ex], [("dup-7", "s"), ("dup-7", "s")]))
        assert "dup-7" in str(exc.value)

    def test_repeated_example_id_keeps_the_first_and_is_reported(self):
        first = example(["the cat sat"], question="q1", source_id="a")
        second = example(["a dog ran"], question="q2", source_id="a")
        errors = []
        (row,) = build_rm_training_rows([first, second], [("a", "cat sat")], errors=errors)
        assert row.instruction_context == rm_instruction_context("q1", first.answer)
        assert row.flagged is False
        assert [str(e) for e in errors] == ["duplicate example id 'a'; responses join the first"]
        with pytest.raises(DatasetError, match="duplicate example id 'a'"):
            list(build_rm_training_rows([first, second], [("a", "cat sat")]))

    def test_unknown_source_id_raises_naming_it(self):
        with pytest.raises(DatasetError) as exc:
            list(build_rm_training_rows([example(["s"], source_id="a")], [("ghost", "s")]))
        assert "ghost" in str(exc.value)

    def test_lenient_collection_skips_bad_rows(self):
        ex = example(["s"], source_id="a")
        errors = []
        rows = list(
            build_rm_training_rows([ex], [("ghost", "s"), ("a", "s")], errors=errors)
        )
        assert [r.source_id for r in rows] == ["a"]
        assert len(errors) == 1

    def test_non_subsequence_response_flagged(self, caplog):
        ex = example(["the cat sat"], source_id="a")
        with caplog.at_level(logging.WARNING):
            (row,) = build_rm_training_rows([ex], [("a", "sat cat")])
        assert row.flagged is True
        assert any("subsequence" in r.message for r in caplog.records)
