"""Render training-ready artifacts from compressed instances and curated examples."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator

from .dataset import CompressedInstance, RmCorpusExample
from .errors import DatasetError

logger = logging.getLogger(__name__)

SFT_INSTRUCTION = "Given the following problem, solve it step by step."

# The reference-model corpus-compression instruction. The numbered
# constraints are load-bearing and golden-tested; do not reword.
RM_COMPRESSION_TEMPLATE = (
    "Compress the given reasoning steps to short expressions, and such that you (Deepseek) "
    "can understand reasoning and reconstruct it as close as possible to the original.\n"
    "Unlike the usual text compression, I need you to comply with the 5 conditions below:\n"
    "\n"
    "1. You can ONLY remove unimportant words.\n"
    "2. Do not reorder the original words.\n"
    "3. Do not change the original words.\n"
    "4. Do not use abbreviations or emojis.\n"
    "5. Do not add new words or symbols.\n"
    "\n"
    "Compress the origin aggressively by removing words only. Compress the origin as short "
    "as you can, while retaining as much information as possible.\n"
    "If you understand, please compress the following reasoning steps:\n"
    "\n"
    "{reasoning_steps}\n"
    "\n"
    "The compressed reasoning steps are:\n"
)


@dataclass
class SftRecord:
    prompt: str
    completion: str


@dataclass
class RmPromptRecord:
    source_id: str
    instruction: str


@dataclass
class RmTrainingRow:
    source_id: str
    instruction_context: str
    target: str
    flagged: bool  # compressed steps are not a word subsequence of the originals


def emit_sft(instance: CompressedInstance) -> SftRecord:
    """Render one prompt/completion pair.

    The completion wraps the compressed thinking in a <think> block and ends
    with the answer text verbatim. Whitespace is fixed: instruction, blank
    line, QUESTION line, blank line, think block, blank line, final answer.
    """
    if not instance.compressed_thinking:
        raise DatasetError(f"instance {instance.id}: compressed_thinking is empty")
    if not instance.answer:
        logger.warning("instance %s: empty answer field in SFT record", instance.id)
    prompt = SFT_INSTRUCTION + "\n\nQUESTION: " + instance.problem + "\n"
    completion = "\n<think>\n" + instance.compressed_thinking + "\n</think>\n\n" + instance.answer
    return SftRecord(prompt=prompt, completion=completion)


def emit_rm_prompts(examples: Iterable[RmCorpusExample]) -> Iterator[RmPromptRecord]:
    """Fill the corpus-compression instruction with each example's steps."""
    for example in examples:
        if not example.reasoning_steps:
            raise DatasetError(f"example {example.source_id}: reasoning_steps is empty")
        steps = "\n".join(example.reasoning_steps)
        instruction = RM_COMPRESSION_TEMPLATE.replace("{reasoning_steps}", steps, 1)
        yield RmPromptRecord(source_id=example.source_id, instruction=instruction)


def rm_instruction_context(question: str, answer: str) -> str:
    return f"For a problem {question}, the following reasoning steps are important to get the answer {answer}"


def words_form_subsequence(compressed: str, originals: Iterable[str]) -> bool:
    """True when the compressed text's words appear, in order, in the originals.

    Whitespace-delimited comparison; a response that reorders, rewrites, or
    adds words fails.
    """
    original_words = " ".join(originals).split()
    it = iter(original_words)
    return all(word in it for word in compressed.split())


def build_rm_training_rows(
    examples: Iterable[RmCorpusExample],
    responses: Iterable[tuple[str, str]],
    *,
    errors: list[DatasetError] | None = None,
) -> Iterator[RmTrainingRow]:
    """Join compressed-steps responses back onto their source examples.

    ``responses`` are (source_id, compressed_steps) pairs from an external
    strong model; rows are emitted in response order. A duplicate or unknown
    source_id, and an example whose id repeats an earlier one's (the first
    is kept), are per-record errors: raised when no ``errors`` collector is
    given, recorded and skipped otherwise. Responses whose words are not a
    subsequence of the original steps are emitted but flagged.
    """

    def fail(err: DatasetError) -> None:
        if errors is None:
            raise err
        errors.append(err)

    by_id: dict[str, RmCorpusExample] = {}
    for ex in examples:
        if by_id.setdefault(ex.source_id, ex) is not ex:
            fail(DatasetError(f"duplicate example id {ex.source_id!r}; responses join the first"))

    seen: set[str] = set()
    for source_id, compressed_steps in responses:
        if source_id in seen:
            fail(DatasetError(f"duplicate source_id in responses: {source_id!r}"))
            continue
        seen.add(source_id)
        example = by_id.get(source_id)
        if example is None:
            fail(DatasetError(f"response source_id {source_id!r} matches no example"))
            continue
        flagged = not words_form_subsequence(compressed_steps, example.reasoning_steps)
        if flagged:
            logger.warning(
                "response %s: compressed steps are not a word subsequence of the originals",
                source_id,
            )
        yield RmTrainingRow(
            source_id=source_id,
            instruction_context=rm_instruction_context(example.question, example.answer),
            target=compressed_steps,
            flagged=flagged,
        )
