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

Scoring is written as step generators (one step per segment) so that
``run_lockstep`` can score several instances side by side, sending each
step's requests of all of them in one batch per backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Callable, Generator, Hashable, Mapping, Sequence

from .backends import LogprobBackend, LogprobRequest, LogprobResponse, ppl_of
from .dataset import CompressedInstance, CotInstance
from .errors import BackendError, BackendUnavailable, ConfigError, CtsError, ScoringError

DEFAULT_CONDITION_TEMPLATE = "The correct answer is: {answer}\n"

SCORE_SPACES = ("ppl_diff", "bits_diff")
SELECTION_SCOPES = ("global", "per_segment")

# A step generator yields the logprob requests of one step, is sent their
# responses (or thrown the CtsError that answered them), and returns its result.
Steps = Generator[list[LogprobRequest], list[LogprobResponse], Any]

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


@dataclass
class ScoringContexts:
    """The tokenized thinking text and condition of one instance.

    A segment's unconditional context is its history followed by its
    thinking ids; the conditional context puts cond_prefix in front. The
    thinking ids are the same list in both, so positions align one-to-one
    between the passes.
    """

    thinking_ids: list[int]
    thinking_spans: list[str]
    cond_prefix: list[int]


def render_condition(config: SelectionConfig, instance: CotInstance) -> str:
    if not config.conditional:
        return ""
    try:
        return config.condition_template.format_map(
            {"answer": instance.answer, "problem": instance.problem}
        )
    except (KeyError, IndexError, ValueError) as exc:
        raise ConfigError(f"bad condition template {config.condition_template!r}: {exc}") from exc


def tokenize_texts(backend: LogprobBackend, texts: Sequence[str]) -> dict[str, list[tuple[int, str]] | CtsError]:
    """Each distinct text's tokens, or the CtsError it got when tokenized alone.

    The texts go out in one tokenize call, and one by one only when that
    call fails (see _batch_then_split); no texts, no call.
    """
    if not texts:
        return {}
    answers = _batch_then_split(backend.tokenize, {text: [text] for text in texts}, lambda text: text)
    return {text: answer if isinstance(answer, CtsError) else answer[0] for text, answer in answers.items()}


def build_contexts(
    instance: CotInstance, config: SelectionConfig, tokens: Mapping[str, list[tuple[int, str]] | CtsError]
) -> ScoringContexts:
    """Assemble the instance's contexts from ``tokens``, the tokenize_texts answers for its context_texts.

    A text the backend could not tokenize becomes a ScoringError naming the
    instance and the field; the thinking goes first, so when both fail, the
    thinking is named.
    """
    config.validate()
    # spans concatenate to the text, so only an empty text has no tokens
    if not instance.thinking:
        raise ScoringError(
            f"instance {instance.id}: thinking text produced no tokens", instance.id
        )
    condition = render_condition(config, instance)
    thinking, cond_tokens = [tokens[text] if text else [] for text in (instance.thinking, condition)]
    for field, answer in (("thinking", thinking), ("condition", cond_tokens)):
        if isinstance(answer, CtsError):
            raise ScoringError(
                f"instance {instance.id}: cannot tokenize {field}: {answer}", instance.id
            ) from answer
    return ScoringContexts(
        thinking_ids=[t for t, _ in thinking],
        thinking_spans=[s for _, s in thinking],
        cond_prefix=[t for t, _ in cond_tokens],
    )


def context_texts(instance: CotInstance, config: SelectionConfig) -> list[str]:
    """The texts build_contexts looks up for the instance, in order; a condition it cannot render is left to it."""
    try:
        condition = render_condition(config, instance) if instance.thinking else ""
    except ConfigError:
        condition = ""
    return [text for text in (instance.thinking, condition) if text]


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
    BackendError thrown in becomes a ScoringError naming the segment.
    """
    n = len(ids)
    contexts = [[*history, *ids]]
    if config.conditional:
        contexts.append([*cond_prefix, *history, *ids])
    try:
        responses = yield [LogprobRequest(context, len(context) - n, len(context)) for context in contexts]
    except BackendError as exc:
        raise ScoringError(
            f"instance {instance_id}: backend failed scoring thinking tokens "
            f"[{first_position}, {first_position + n}): {exc}",
            instance_id,
            (first_position, first_position + n),
        ) from exc
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


def compress_steps(
    instance: CotInstance, config: SelectionConfig, ctx: ScoringContexts
) -> Steps:
    """Score and select one tokenized instance, one step per segment.

    Global scope is the one-segment case [0, n). Per-segment scope scores
    each segment against the kept prefix (or, with iterative_original_prefix,
    the original preceding thinking) and keeps the top fraction inside it.
    Returns (record, rows, selection). The compressed thinking text is the
    concatenation of kept spans in original order; actual_ratio is exactly
    kept_count / original_count.
    """
    ids, spans = ctx.thinking_ids, ctx.thinking_spans
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
            history, ctx.cond_prefix, ids[seg.start : seg.end], spans[seg.start : seg.end],
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

    It is the one-instance case of a CLI group (one tokenize call holding
    the thinking and the condition, then run_lockstep), and deterministic
    end to end for a fixed (instance, config, backend).
    """
    ctx = build_contexts(instance, config, tokenize_texts(backend, context_texts(instance, config)))
    return _run_alone(compress_steps(instance, config, ctx), backend)


def _request_key(request: LogprobRequest) -> tuple:
    return tuple(request.context), request.start, request.end


def _batch_then_split(send: Callable[[list], list], tasks: dict[Any, list], key: Callable[[Any], Hashable]) -> dict:
    """Each task's answers, one per item, or the CtsError that answered them.

    The distinct items (by ``key``) of all tasks go out in one ``send``
    call. When it fails, each task is sent again alone, so the failure lands
    on the tasks whose own items fail. A BackendUnavailable propagates.
    """
    distinct: dict[Hashable, Any] = {}
    for items in tasks.values():
        for item in items:
            distinct.setdefault(key(item), item)
    try:
        answers = dict(zip(distinct, send(list(distinct.values()))))
        return {task: [answers[key(item)] for item in items] for task, items in tasks.items()}
    except BackendUnavailable:
        raise
    except CtsError as exc:
        if len(tasks) == 1:
            return dict.fromkeys(tasks, exc)
    return {task: _batch_then_split(send, {task: items}, key)[task] for task, items in tasks.items()}


def run_lockstep(tasks: Sequence[tuple[Steps, LogprobBackend]]) -> list[tuple[Any, CtsError | None]]:
    """Run step generators side by side, one logprobs_batch per backend per step.

    Each step collects the pending requests of every live task, drops the
    duplicates among those bound for one backend, and sends the rest in one
    batch; a task ends when its generator returns. So tasks that share a
    request (the selections run on one instance share their unconditional
    contexts, always in the same step) send it once, and the scoring round
    trips of a group of instances are those of its longest member. A
    failed batch is sent again task by task (see _batch_then_split), and a
    task's error is thrown into its generator. Returns one ``(result,
    None)`` or ``(None, error)`` per task, in task order. A
    BackendUnavailable is not a per-task failure: it propagates.
    """
    outcomes: list[Any] = [None] * len(tasks)
    pending: dict[int, list[LogprobRequest]] = {}

    def advance(task: int, answer: Any) -> None:
        steps = tasks[task][0]
        try:
            pending[task] = steps.throw(answer) if isinstance(answer, CtsError) else steps.send(answer)
        except StopIteration as stop:
            outcomes[task] = (stop.value, None)
        except CtsError as exc:
            outcomes[task] = (None, exc)

    for task in range(len(tasks)):
        advance(task, None)
    while pending:
        step, pending = pending, {}
        answers: dict[int, Any] = {}
        for backend in dict.fromkeys(tasks[task][1] for task in step):
            batch = {t: r for t, r in step.items() if tasks[t][1] is backend}
            answers.update(_batch_then_split(backend.logprobs_batch, batch, _request_key))
        for task, answer in answers.items():
            advance(task, answer)
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
