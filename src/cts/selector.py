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

Scoring is written as step generators (a tokenize step, then one step per
segment) so that ``run_lockstep`` can score several instances side by side,
sending each step's texts or requests of all of them in one call per
backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Callable, Generator, Hashable, Sequence

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

# A segment boundary may snap back to a span ending in whitespace or
# sentence punctuation.
_BOUNDARY_PUNCT = ".!?。！？"


@dataclass
class SelectionConfig:
    """Knobs for scoring and selection.

    alpha: fraction of thinking tokens to retain, in (0, 1].
    conditional: score against the answer-conditioned context; off gives the
        pure-perplexity baseline.
    condition_template: text prepended as conditioning context; must contain
        {answer} unless empty ({problem} optional). An empty template is an
        explicit no-op condition.
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
        compressed prefix.
    """

    alpha: float
    conditional: bool = True
    condition_template: str = DEFAULT_CONDITION_TEMPLATE
    segment_budget: int = 512
    boundary_slack: int = 32
    score_space: str = "ppl_diff"
    selection_scope: str = "global"
    iterative_original_prefix: bool = False

    def validate(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError(f"alpha must be in (0, 1], got {self.alpha!r}")
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
        if self.conditional and self.condition_template and "{answer}" not in self.condition_template:
            raise ConfigError("condition_template must contain {answer} (or be empty) when conditional")


@dataclass
class TokenScoreRow:
    """Per-token alignment of id, surface span, both perplexities, and score."""

    position: int
    token: int
    span: str
    ppl_uncond: float
    ppl_cond: float
    score: float


@dataclass
class Segment:
    """Half-open token index range [start, end) over the thinking tokens."""

    start: int
    end: int
    ordinal: int


@dataclass
class SelectionResult:
    threshold: float
    kept_mask: list[bool]
    kept_count: int


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


def _make_row(
    position: int, token: int, span: str, lp_uncond: float, lp_cond: float, config: SelectionConfig
) -> TokenScoreRow:
    ppl_u = ppl_of(lp_uncond)
    if not config.conditional:
        score = ppl_u if config.score_space == "ppl_diff" else math.log2(ppl_u)
        return TokenScoreRow(position, token, span, ppl_u, ppl_u, score)
    ppl_c = ppl_of(lp_cond)
    if config.score_space == "ppl_diff":
        score = _diff(ppl_u, ppl_c)
    else:
        score = _diff(math.log2(ppl_u), math.log2(ppl_c))
    return TokenScoreRow(position, token, span, ppl_u, ppl_c, score)


def _segment_steps(
    history: Sequence[int],
    cond_prefix: Sequence[int],
    ids: Sequence[int],
    spans: Sequence[str],
    first_position: int,
    config: SelectionConfig,
    instance_id: str,
) -> Steps:
    """One segment as one step: yield its batched request, build its rows from the answer.

    The unconditional context is history + ids, the conditional one
    cond_prefix + history + ids; rows are numbered from first_position. A
    CtsError among the responses becomes a ScoringError naming the segment.
    """
    n = len(ids)
    contexts = [[*history, *ids]]
    if config.conditional:
        contexts.append([*cond_prefix, *history, *ids])
    responses = yield [LogprobRequest(context, len(context) - n, len(context)) for context in contexts]
    failed = next((response for response in responses if isinstance(response, CtsError)), None)
    if failed is not None:
        raise ScoringError(
            f"instance {instance_id}: backend failed scoring thinking tokens "
            f"[{first_position}, {first_position + n}): {failed}",
            instance_id,
            (first_position, first_position + n),
        ) from failed
    lp_uncond = responses[0].logprobs_bits
    lp_cond = responses[1].logprobs_bits if config.conditional else lp_uncond
    return [
        _make_row(first_position + i, ids[i], spans[i], lp_uncond[i], lp_cond[i], config)
        for i in range(n)
    ]


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
    """Score one segment's tokens in one batched logprobs request."""
    steps = _segment_steps(history, cond_prefix, ids, spans, first_position, config, instance_id)
    return _run_alone(steps, backend)


def segment_thinking(n_tokens: int, spans: Sequence[str], config: SelectionConfig) -> list[Segment]:
    """Partition [0, n) into contiguous segments of at most segment_budget tokens.

    Oversized cuts move backward up to boundary_slack positions to the
    nearest boundary whose preceding span ends with whitespace or sentence
    punctuation; with no candidate the cut stays at the budget.
    """
    if n_tokens < 1:
        raise ConfigError("cannot segment an empty token sequence")
    budget = config.segment_budget
    slack = config.boundary_slack
    segments: list[Segment] = []
    start = 0
    while n_tokens - start > budget:
        end = start + budget
        cut = end
        lowest = max(start + 1, end - slack)
        for j in range(end - 1, lowest - 1, -1):
            if _ends_on_boundary(spans[j - 1]):
                cut = j
                break
        segments.append(Segment(start, cut, len(segments)))
        start = cut
    segments.append(Segment(start, n_tokens, len(segments)))
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


def select_tokens(rows: Sequence[TokenScoreRow], config: SelectionConfig) -> SelectionResult:
    """Keep the top alpha fraction of the given rows by (score desc, position asc).

    At least one row is kept. kept_mask follows the order of ``rows``; the
    reported threshold is the lowest kept score.
    """
    if not rows:
        raise ConfigError("select_tokens requires at least one scored row")
    ranked = sorted(range(len(rows)), key=lambda i: (-rows[i].score, rows[i].position))
    mask = [False] * len(rows)
    for i in ranked[: kept_count_for(config.alpha, len(rows))]:
        mask[i] = True
    return _selection(rows, mask)


def _selection(rows: Sequence[TokenScoreRow], mask: list[bool]) -> SelectionResult:
    threshold = min(row.score for row, keep in zip(rows, mask) if keep)
    return SelectionResult(threshold=threshold, kept_mask=mask, kept_count=sum(mask))


def compress_steps(instance: CotInstance, config: SelectionConfig) -> Steps:
    """Tokenize, score and select one instance: a tokenize step, then one step per segment.

    The first step yields the thinking and then the condition, which is left
    out when it renders empty; a text that cannot be tokenized becomes a
    ScoringError naming the instance and the field (the thinking, when both
    fail). Each text is tokenized once and the ids are concatenated, so
    thinking positions align one-to-one between the two passes. Global
    scope is the one-segment case [0, n). Per-segment scope scores each
    segment against the kept prefix (or, with iterative_original_prefix,
    the original preceding thinking) and keeps the top fraction inside it.
    Returns (record, rows, selection). The compressed thinking text is the
    concatenation of kept spans in original order; actual_ratio is exactly
    kept_count / original_count.
    """
    config.validate()
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
    ids, spans = [t for t, _ in answers[0]], [s for _, s in answers[0]]
    cond_prefix = [t for t, _ in answers[1]] if condition else []
    if config.selection_scope == "global":
        segments = [Segment(0, len(ids), 0)]
    else:
        segments = segment_thinking(len(ids), spans, config)
    rows: list[TokenScoreRow] = []
    mask: list[bool] = []
    kept_prefix: list[int] = []
    for seg in segments:
        history = ids[: seg.start] if config.iterative_original_prefix else kept_prefix
        seg_rows = yield from _segment_steps(
            history, cond_prefix, ids[seg.start : seg.end], spans[seg.start : seg.end],
            seg.start, config, instance.id,
        )
        seg_mask = select_tokens(seg_rows, config).kept_mask
        rows.extend(seg_rows)
        mask.extend(seg_mask)
        kept_prefix.extend(row.token for row, keep in zip(seg_rows, seg_mask) if keep)
    selection = _selection(rows, mask)

    compressed = "".join(span for span, keep in zip(spans, mask) if keep)
    record = CompressedInstance(
        id=instance.id,
        problem=instance.problem,
        compressed_thinking=compressed,
        answer=instance.answer,
        nominal_ratio=config.alpha,
        actual_ratio=selection.kept_count / len(ids),
        kept_count=selection.kept_count,
        original_count=len(ids),
        extras=dict(instance.extras),
    )
    return record, rows, selection


def compress_instance(
    instance: CotInstance, config: SelectionConfig, backend: LogprobBackend
) -> tuple[CompressedInstance, list[TokenScoreRow], SelectionResult]:
    """Run the full pipeline for one instance: tokenize once, then score and select each segment.

    It is the one-instance case of a CLI group, and deterministic end to end
    for a fixed (instance, config, backend).
    """
    return _run_alone(compress_steps(instance, config), backend)


def _item_key(item: Any) -> Hashable:
    """What makes two items of one call the same: a request's span of its context; other items themselves."""
    if isinstance(item, LogprobRequest):
        return tuple(item.context), item.start, item.end
    return item


def _batch_then_split(send: Callable[[list], list], tasks: dict[Any, list]) -> dict:
    """Each task's answers, one per item, with the CtsError of an item that failed alone in its place.

    The distinct items of all tasks go out in one ``send`` call. When it
    fails, or does not answer each item once, each distinct item is sent
    again alone, so the failure lands on the items at fault. A
    BackendUnavailable propagates.
    """
    distinct = {_item_key(item): item for items in tasks.values() for item in items}
    batch = list(distinct.values())
    try:
        answers = send(batch)
        if len(answers) != len(batch):
            raise BackendProtocolError(f"backend sent {len(answers)} answers, expected {len(batch)}")
    except BackendUnavailable:
        raise
    except CtsError as exc:
        answers = [exc] if len(batch) == 1 else [_batch_then_split(send, {0: [item]})[0][0] for item in batch]
    by_key = dict(zip(distinct, answers))
    return {task: [by_key[_item_key(item)] for item in items] for task, items in tasks.items()}


def run_lockstep(tasks: Sequence[tuple[Steps, LogprobBackend]]) -> list[tuple[Any, CtsError | None]]:
    """Run step generators side by side, one call per backend per step.

    Each step collects the pending items of every live task: texts go to
    the backend's tokenize, requests to its logprobs_batch. The duplicates
    among those bound for one call are dropped and the rest sent at once
    (see _batch_then_split); a task ends when its generator returns. So
    tasks that share a text or a request (the selections run on one
    instance share the thinking and their unconditional contexts, always in
    the same step) send it once, and the round trips of a group of
    instances are those of its longest member. Returns one ``(result,
    None)`` or ``(None, error)`` per task, in task order. A
    BackendUnavailable is not a per-task failure: it propagates.
    """
    outcomes: list[Any] = [None] * len(tasks)
    pending: dict[int, list] = {}

    def advance(task: int, answers: Any) -> None:
        try:
            pending[task] = tasks[task][0].send(answers)
        except StopIteration as stop:
            outcomes[task] = (stop.value, None)
        except CtsError as exc:
            outcomes[task] = (None, exc)

    for task in range(len(tasks)):
        advance(task, None)
    while pending:
        step, pending = pending, {}
        calls: dict[Callable, dict[int, list]] = {}
        for task, items in step.items():
            backend = tasks[task][1]
            send = backend.tokenize if isinstance(items[0], str) else backend.logprobs_batch
            calls.setdefault(send, {})[task] = items
        for send, batch in calls.items():
            for task, answers in _batch_then_split(send, batch).items():
                advance(task, answers)
    return outcomes


def _run_alone(steps: Steps, backend: LogprobBackend) -> Any:
    """Run one step generator to its result, raising its error."""
    [(result, exc)] = run_lockstep([(steps, backend)])
    if exc is not None:
        raise exc
    return result


def score_rows_to_dicts(instance_id: str, rows: Sequence[TokenScoreRow], mask: Sequence[bool]) -> list[dict]:
    """Rows of the per-token score dump: one object per thinking token."""
    return [
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
    ]
