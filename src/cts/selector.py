"""Score thinking tokens by conditional importance and keep the top fraction.

The importance score of a thinking token is the drop in its per-token
perplexity when the final answer is prepended as conditioning context:

    score = PPL(token | preceding thinking)
          - PPL(token | condition, preceding thinking)

A large positive score marks a token made much more predictable by knowing
the answer. Given a retention ratio alpha, the top alpha fraction of tokens
by score is kept (ties broken toward earlier positions) and the kept surface
spans are concatenated in original order to form the compressed thinking
text. Long sequences can be split into segments and compressed iteratively,
each segment conditioned on the already-compressed prefix; global scope is
the same loop over a single segment.

With ``conditional`` off the score degenerates to the plain unconditional
perplexity, i.e. the classic keep-the-most-surprising-tokens baseline.

Scoring is written as step generators (a tokenize step, then the scoring
steps) so that ``run_lockstep`` can score several instances side by side,
sending each step's texts or requests of all of them in one call per
backend.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from decimal import ROUND_HALF_UP, Decimal
from itertools import compress, repeat
from operator import neg, sub
from string import Formatter
from typing import Any, Callable, Generator, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .backends import LogprobBackend, LogprobRequest, ppl_of
from .dataset import CompressedInstance, CotInstance
from .errors import BackendProtocolError, BackendUnavailable, ConfigError, CtsError, ScoringError

DEFAULT_CONDITION_TEMPLATE = "The correct answer is: {answer}\n"

SCORE_SPACES = ("ppl_diff", "bits_diff")
SELECTION_SCOPES = ("global", "per_segment")

# A step generator yields the texts to tokenize or the logprob requests of one
# step, is sent one answer per item (the CtsError of an item that failed alone
# in its place), and returns its result.
Steps = Generator[list[str] | list[LogprobRequest], list, Any]


class Outcome(NamedTuple):
    """How a lockstep task ended: its generator's result, or the CtsError it raised."""

    result: Any
    error: CtsError | None


# A segment boundary may snap back to a span ending in whitespace or
# sentence punctuation.
_BOUNDARY_PUNCT = ".!?。！？"


@dataclass(frozen=True)
class SelectionConfig:
    """Knobs for scoring and selection: a frozen value, so a bad field is a ConfigError when it is made.

    alpha: fraction of thinking tokens to retain, an int or float in (0, 1].
    conditional: score against the answer-conditioned context; off gives the
        pure-perplexity baseline.
    condition_template: text prepended as conditioning context; unless
        empty, it must hold a replacement field named answer ({answer},
        {answer!r} or {answer:>5}, but not the escaped {{answer}}), and
        {problem} is optional. An empty template is an explicit no-op
        condition.
    segment_budget / boundary_slack: maximum thinking tokens per segment and
        how far a cut may move back to land on a clean span boundary.
    score_space: "ppl_diff" (difference of perplexities) or "bits_diff"
        (difference of self-information).
    selection_scope: "per_segment" splits the thinking into segments of at
        most segment_budget tokens and selects the top fraction inside each,
        scoring segment j against the already-compressed earlier segments;
        "global" is the one-segment case [0, n), ranking all tokens together.
    iterative_original_prefix: in per_segment scope, condition each segment
        on the original (uncompressed) preceding thinking instead of the
        compressed prefix. In a causal model that is one pass over the whole
        thinking, so it is scored in one step, as in global scope; only the
        selection stays per segment.
    """

    alpha: float
    conditional: bool = True
    condition_template: str = DEFAULT_CONDITION_TEMPLATE
    segment_budget: int = 512
    boundary_slack: int = 32
    score_space: str = "ppl_diff"
    selection_scope: str = "global"
    iterative_original_prefix: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, (int, float)) or not 0 < self.alpha <= 1:
            raise ConfigError(f"alpha must be a number in (0, 1], got {self.alpha!r}")
        for field in fields(self)[1:]:  # each field but alpha has its default's type exactly: no bool is an int
            if type(value := getattr(self, field.name)) is not type(field.default):
                raise ConfigError(f"{field.name} must be {type(field.default).__name__}, got {value!r}")
        if self.segment_budget < 1:
            raise ConfigError(f"segment_budget must be >= 1, got {self.segment_budget!r}")
        if not (0 <= self.boundary_slack < self.segment_budget):
            raise ConfigError(
                f"boundary_slack must be in [0, segment_budget), got {self.boundary_slack!r}"
            )
        if self.score_space not in SCORE_SPACES:
            raise ConfigError(f"score_space must be one of {SCORE_SPACES}, got {self.score_space!r}")
        if self.selection_scope not in SELECTION_SCOPES:
            raise ConfigError(
                f"selection_scope must be one of {SELECTION_SCOPES}, got {self.selection_scope!r}"
            )
        if self.conditional and self.condition_template:
            try:  # a template malformed before its answer field holds none; after it, it fails each instance
                has_answer = "answer" in (name for _, name, _, _ in Formatter().parse(self.condition_template))
            except ValueError:
                has_answer = False
            if not has_answer:
                raise ConfigError("condition_template must contain {answer} (or be empty) when conditional")


@dataclass(slots=True)
class TokenScoreRow:
    """Per-token alignment of position, surface span, both perplexities, and score."""

    position: int
    span: str
    ppl_uncond: float
    ppl_cond: float
    score: float


def render_condition(config: SelectionConfig, instance: CotInstance) -> str:
    if not config.conditional:
        return ""
    try:
        return config.condition_template.format_map(
            {"answer": instance.answer, "problem": instance.problem}
        )
    except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
        raise ConfigError(f"bad condition template {config.condition_template!r}: {exc}") from exc


def _diff(a: float, b: float) -> float:
    # equal values (including inf == inf) carry no shift signal
    if a == b:
        return 0.0
    return a - b


def _token_score(lp_uncond: float, lp_cond: float, config: SelectionConfig) -> tuple[float, float, float]:
    """One token's (ppl_uncond, ppl_cond, score) from its two log-probabilities in bits."""
    ppl_u = ppl_of(lp_uncond)
    ppl_c = ppl_of(lp_cond) if config.conditional else ppl_u
    u, c = (ppl_u, ppl_c) if config.score_space == "ppl_diff" else (math.log2(ppl_u), math.log2(ppl_c))
    return ppl_u, ppl_c, _diff(u, c) if config.conditional else u


def _scores(lp_uncond: Sequence[float], lp_cond: Sequence[float], config: SelectionConfig) -> list[float]:
    """``_token_score(u, c, config)[2]`` of each pair of a run of tokens, each operation over the whole run at once.

    The float operations are _token_score's, in its order. A log-probability
    of -inf or at most -1024 bits has perplexity +inf, which 2 ** -bits
    cannot give, so a run holding one takes _token_score token by token.
    """
    if not (min(lp_uncond) > -1024.0 and (not config.conditional or min(lp_cond) > -1024.0)):
        return [_token_score(u, c, config)[2] for u, c in zip(lp_uncond, lp_cond)]

    def space(lps: Sequence[float]) -> list[float]:
        ppl = list(map(pow, repeat(2.0), map(neg, lps)))
        return ppl if config.score_space == "ppl_diff" else list(map(math.log2, ppl))

    if not config.conditional:
        return space(lp_uncond)
    # finite values: equal ones subtract to 0.0, as _diff has them
    return list(map(sub, space(lp_uncond), space(lp_cond)))


def score_rows(spans: Sequence[str], lp_uncond: Sequence[float], lp_cond: Sequence[float],
               config: SelectionConfig, first_position: int = 0) -> Iterator[TokenScoreRow]:
    """The score rows of a run of tokens, numbered from first_position, each built as it is taken."""
    return (TokenScoreRow(first_position + i, span, *_token_score(u, c, config))
            for i, (span, u, c) in enumerate(zip(spans, lp_uncond, lp_cond)))


def _segment_steps(history: Sequence[int], cond_prefix: Sequence[int], ids: Sequence[int], first_position: int,
                   config: SelectionConfig, instance_id: str) -> Steps:
    """One scoring step: yield its batched request, return the log-probabilities (uncond, cond) of ``ids``.

    The unconditional context is the tuple (*history, *ids), the conditional
    one (*cond_prefix, *history, *ids); without ``conditional`` only the
    first is sent, and its answer is returned twice. A CtsError among the
    answers, or an answer that does not hold n log-probabilities, becomes a
    ScoringError naming thinking tokens [first_position, first_position + n).
    """
    n = len(ids)
    contexts = [(*history, *ids) if history else ids]  # a tuple ids is the request's context itself, not a copy
    if config.conditional:
        contexts.append((*cond_prefix, *history, *ids))
    answers = yield [LogprobRequest(context, len(context) - n, len(context)) for context in contexts]
    failed = next((answer for answer in answers if isinstance(answer, CtsError) or len(answer) != n), None)
    if failed is not None:
        cause = failed if isinstance(failed, CtsError) else None
        reason = cause or f"{len(failed)} log-probabilities answered for {n} tokens"
        raise ScoringError(
            f"instance {instance_id}: backend failed scoring thinking tokens "
            f"[{first_position}, {first_position + n}): {reason}",
            instance_id,
            (first_position, first_position + n),
        ) from cause
    return answers[0], answers[1] if config.conditional else answers[0]


def score_tokens(
    history: Sequence[int],
    cond_prefix: Sequence[int],
    ids: Sequence[int],
    spans: Sequence[str],
    first_position: int,
    config: SelectionConfig,
    backend: LogprobBackend,
    instance_id: str = "",
) -> list[TokenScoreRow]:
    """Score a run of tokens in one batched logprobs request; rows are numbered from first_position."""
    steps = _segment_steps(history, cond_prefix, ids, first_position, config, instance_id)
    return list(score_rows(spans, *_run_alone(steps, backend), config, first_position))


def segment_thinking(n_tokens: int, spans: Sequence[str], config: SelectionConfig) -> list[range]:
    """Partition [0, n) into contiguous segments of at most segment_budget tokens, each a range of token indices.

    Oversized cuts move backward up to boundary_slack positions to the
    nearest boundary whose preceding span ends with whitespace or sentence
    punctuation; with no candidate the cut stays at the budget.
    """
    if n_tokens < 1:
        raise ConfigError("cannot segment an empty token sequence")
    budget = config.segment_budget
    slack = config.boundary_slack
    segments: list[range] = []
    start = 0
    while n_tokens - start > budget:
        end = start + budget
        cut = end
        lowest = max(start + 1, end - slack)
        for j in range(end - 1, lowest - 1, -1):
            if _ends_on_boundary(spans[j - 1]):
                cut = j
                break
        segments.append(range(start, cut))
        start = cut
    segments.append(range(start, n_tokens))
    return segments


def _ends_on_boundary(span: str) -> bool:
    if not span:
        return False
    last = span[-1]
    return last.isspace() or last in _BOUNDARY_PUNCT


def kept_count_for(alpha: float, n: int) -> int:
    """Number of tokens to keep: max(1, round-half-up(alpha * n)), capped at n.

    Decimal arithmetic on the printed value of alpha keeps the half-up rule
    exact and platform-independent (0.15 * 10 rounds to 2, not 1).
    """
    k = int((Decimal(str(alpha)) * n).to_integral_value(rounding=ROUND_HALF_UP))
    return min(n, max(1, k))


def select_tokens(scores: Sequence[float], config: SelectionConfig) -> list[bool]:
    """The kept mask of the top alpha fraction of the given scores by (score desc, index asc).

    At least one score is kept. The mask follows the order of ``scores``.
    """
    if not scores:
        raise ConfigError("select_tokens requires at least one score")
    # sorted is stable with reverse=True too, so equal scores stay in index order
    ranked = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    k = kept_count_for(config.alpha, len(scores))
    mask = [False] * len(scores)
    for i in ranked[:k]:
        mask[i] = True
    return mask


def compress_steps(instance: CotInstance, config: SelectionConfig, keep_scores: bool = True) -> Steps:
    """Tokenize, score and select one instance: a tokenize step, then its scoring steps.

    The first step yields the thinking and then the condition, which is left
    out when it renders empty; a text that cannot be tokenized becomes a
    ScoringError naming the instance and the field (the thinking, when both
    fail), and so does a thinking answered with no ids, or with ids and spans
    of unequal length, and a condition answered with no ids. Each text is
    tokenized once and the ids are
    concatenated, so thinking positions align one-to-one between the two
    passes. A scoring step covers a run of segments after the kept prefix.
    Where that history does not depend on the selection (global scope, the
    one-segment case, or iterative_original_prefix, since a causal model
    scores each segment there as after the original preceding thinking), the
    one step covers [0, n); otherwise each segment is its own step. The
    log-probabilities in bits, as the backend answered them, are appended to
    two arrays over [0, n); each segment's scores are computed from them as
    floats and the top fraction inside it is kept. Returns (record, scores,
    mask), where scores is the tuple (spans, lp_uncond, lp_cond) that
    ``score_rows`` turns into rows, or None without ``keep_scores``, and mask
    is the kept mask over [0, n); the record and mask are the same either
    way. The compressed thinking text is the concatenation of kept spans in
    original order; actual_ratio is exactly kept_count / original_count. The
    config was checked when made.
    """
    # spans concatenate to the text, so only an empty text has no tokens
    if not instance.thinking:
        raise ScoringError(f"instance {instance.id}: thinking text produced no tokens", instance.id)
    condition = render_condition(config, instance)
    answers = yield [text for text in (instance.thinking, condition) if text]
    for field, answer in zip(("thinking", "condition"), answers):
        if isinstance(answer, CtsError):
            raise ScoringError(
                f"instance {instance.id}: cannot tokenize {field}: {answer}", instance.id
            ) from answer
    (ids, spans), cond_prefix = answers[0], answers[1][0] if condition else ()
    if condition and not cond_prefix:  # else every conditional context would be the unconditional one
        raise ScoringError(f"instance {instance.id}: cannot tokenize condition: no ids answered", instance.id)
    del answers, answer  # so the ids below are the one copy held, which its slices and requests share
    ids = tuple(ids)  # a backend's answer is a tuple already, which every selection of the text shares
    if not ids or len(ids) != len(spans):
        raise ScoringError(
            f"instance {instance.id}: backend tokenize answer has {len(ids)} ids and {len(spans)} spans", instance.id
        )
    n, whole = len(ids), config.selection_scope == "global"
    fixed = whole or config.iterative_original_prefix  # the history does not depend on the selection
    segments = [range(n)] if whole else segment_thinking(n, spans, config)
    lp_uncond, lp_cond = array("d"), array("d")  # of the tokens scored so far; each step's answers are appended
    mask: list[bool] = []
    kept_prefix: list[int] = []
    for seg in segments:
        if len(lp_uncond) < seg.stop:  # not scored yet; where the history is fixed, the first step scores [0, n)
            step = yield from _segment_steps(
                kept_prefix, cond_prefix, ids if fixed else ids[seg.start : seg.stop], seg.start, config, instance.id
            )
            lp_uncond.extend(step[0])
            lp_cond.extend(step[1])
        seg_mask = select_tokens(
            _scores(lp_uncond[seg.start : seg.stop], lp_cond[seg.start : seg.stop], config), config
        )
        mask.extend(seg_mask)
        kept_prefix.extend(compress(ids[seg.start : seg.stop], seg_mask))
    kept = sum(mask)
    record = CompressedInstance(
        id=instance.id, problem=instance.problem, compressed_thinking="".join(compress(spans, mask)),
        answer=instance.answer, nominal_ratio=config.alpha, actual_ratio=kept / n, kept_count=kept,
        original_count=n, extras=dict(instance.extras),
    )
    return record, (spans, lp_uncond, lp_cond) if keep_scores else None, mask


def compress_instance(
    instance: CotInstance, config: SelectionConfig, backend: LogprobBackend
) -> tuple[CompressedInstance, list[TokenScoreRow], list[bool]]:
    """Run the full pipeline for one instance: tokenize once, then score and select each segment.

    It is the one-instance case of a CLI group, and deterministic end to end
    for a fixed (instance, config, backend).
    """
    record, scores, mask = _run_alone(compress_steps(instance, config), backend)
    return record, list(score_rows(*scores, config)), mask


def _batch_then_split(send: Callable[[list], list], tasks: dict[Any, list]) -> dict:
    """Each task's answers, one per item, with the CtsError of an item that failed alone in its place.

    The distinct items of all tasks (the first of equal ones) go out in one
    ``send`` call. When it fails, or does not answer each item once, each
    half of the items goes out again by the same rule (``_halving``), and a
    single item that fails gets its CtsError. So the failure lands on the
    items at fault: k of n cost at most 1 + 2k * ceil(log2 n) calls, and
    never more than 2n - 1. A BackendUnavailable propagates.
    """
    batch: list = []
    places: dict[Hashable, int] = {}  # an item, a text or a request, as its own key -> its first place in batch

    def place(item: Any) -> int:
        i = places.setdefault(item, len(batch))  # hashed once: a request by its value, its whole context included
        if i == len(batch):
            batch.append(item)
        return i

    slots = {task: [place(item) for item in items] for task, items in tasks.items()}
    answers = _halving(send, batch)
    return {task: [answers[i] for i in task_slots] for task, task_slots in slots.items()}


def _halving(send: Callable[[list], list], batch: list) -> list:
    """One answer per item of ``batch``, by the rule of ``_batch_then_split``."""
    try:
        answers = send(batch)
        if len(answers) != len(batch):
            raise BackendProtocolError(f"backend sent {len(answers)} answers, expected {len(batch)}")
        return answers
    except BackendUnavailable:
        raise
    except CtsError as exc:
        if len(batch) == 1:
            return [exc]
        half = len(batch) // 2
        return _halving(send, batch[:half]) + _halving(send, batch[half:])


def _advance(steps: Steps, answers: Any) -> Sequence | Outcome:
    try:
        return steps.send(answers)
    except StopIteration as stop:
        return Outcome(stop.value, None)
    except CtsError as exc:
        return Outcome(None, exc)


def ended(states: Sequence) -> bool:
    """Whether every task of ``states`` has ended: each state is an ``Outcome``."""
    return all(isinstance(state, Outcome) for state in states)


def lockstep_step(tasks: Sequence[tuple[Steps, LogprobBackend]], states: Sequence | None = None) -> list:
    """One step of ``(steps, backend)`` tasks side by side; returns each task's next state.

    A task's state is the items its generator last yielded, or its
    ``Outcome`` once it has ended. With no ``states`` the tasks start here.
    The live tasks' texts go to their backend's tokenize and their requests
    to its logprobs_batch, the distinct items of one call at once, halved
    when a call fails (see _batch_then_split). A CLI lane steps its live
    instances by it (``cts.cli._compress_stream``).
    """
    if states is None:
        states = [_advance(steps, None) for steps, _ in tasks]
    calls: dict[Callable, dict[int, Sequence]] = {}
    for task, ((_, backend), items) in enumerate(zip(tasks, states)):
        if not isinstance(items, Outcome):
            send = backend.tokenize if isinstance(items[0], str) else backend.logprobs_batch
            calls.setdefault(send, {})[task] = items
    states = list(states)
    for send, batch in calls.items():
        answered = _batch_then_split(send, batch)
        for task in batch:  # each task's answers are let go as it is advanced
            states[task] = _advance(tasks[task][0], answered.pop(task))
    return states


def run_lockstep(tasks: Sequence[tuple[Steps, LogprobBackend]]) -> list[Outcome]:
    """Run ``(steps, backend)`` tasks side by side to their ends; returns each task's ``Outcome``, in order.

    Each step is one ``lockstep_step`` over the tasks not yet ended. Tasks
    that share a text or a request (the selections run on one instance
    share the thinking and their unconditional contexts, always in the same
    step) send it once. A BackendUnavailable propagates.
    """
    states = lockstep_step(tasks)
    while not ended(states):
        states = lockstep_step(tasks, states)
    return states


def _run_alone(steps: Steps, backend: LogprobBackend) -> Any:
    """Run one step generator to its result, raising its error."""
    [(result, exc)] = run_lockstep([(steps, backend)])
    if exc is not None:
        raise exc
    return result


def score_rows_to_dicts(instance_id: str, rows: Iterable[TokenScoreRow], mask: Sequence[bool]) -> Iterator[dict]:
    """Rows of the per-token score dump: one object per thinking token, each built as it is taken."""
    return (
        {
            "instance_id": instance_id,
            "position": row.position,
            "span": row.span,
            "ppl_uncond": row.ppl_uncond,
            "ppl_cond": row.ppl_cond,
            "score": row.score,
            "kept": bool(mask[row.position]),
        }
        for row in rows
    )
