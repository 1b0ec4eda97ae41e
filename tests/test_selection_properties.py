"""Property tests of selection: exact counts and ratios, nesting across alphas, a brute-force oracle,
segment scores computed a list at a time against token by token,
original-prefix scoring against each segment scored after the original thinking, kept-prefix
scoring against each segment scored after the ids kept before it, lockstep
scoring of a group against one instance at a time, selection without kept rows, the
halving rule of both backend calls, the rule that sizes the groups, and building a config from fields of
any type: it is checked when made, or not made at all.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import dataclasses
import math
import struct
from array import array
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cts.cli  # noqa: E402
from cts.backends import ToyBackend  # noqa: E402
from cts.cli import ABLATION_MODES, GROUP_CHARS, SCORE_GROUP, _groups  # noqa: E402
from cts.dataset import CompressedInstance, CotInstance  # noqa: E402
from cts.errors import BackendProtocolError, BackendUnavailable, ConfigError, CtsError  # noqa: E402
from cts.selector import (  # noqa: E402
    SCORE_SPACES,
    SELECTION_SCOPES,
    SelectionConfig,
    _batch_then_split,
    _scores,
    _token_score,
    compress_instance,
    compress_steps,
    kept_count_for,
    run_lockstep,
    score_tokens,
    segment_thinking,
    select_tokens,
)

from conftest import halving_calls, rows_of, shift_spec  # noqa: E402

BACKEND = ToyBackend(shift_spec())

alphas = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
# scores as scoring can produce them: finite, +-inf, and many ties
scores = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, -1.0, math.inf, -math.inf]) | st.floats(allow_nan=False, width=16),
    min_size=1,
    max_size=60,
)


def kept(mask: list[bool]) -> set[int]:
    return {i for i, keep in enumerate(mask) if keep}


@settings(max_examples=200, deadline=None)
@given(scores, alphas)
def test_select_tokens_matches_the_rank_counting_oracle(values, alpha):
    k = kept_count_for(alpha, len(values))
    mask = select_tokens(values, SelectionConfig(alpha=alpha))
    # score i is kept iff fewer than k scores outrank it (higher, or equal and earlier)
    beaten_by = [sum(1 for j, other in enumerate(values) if (other, -j) > (score, -i))
                 for i, score in enumerate(values)]
    assert mask == [b < k for b in beaten_by]
    assert sum(mask) == k


def bits_of(values) -> list[bytes]:
    return [struct.pack("<d", value) for value in values]


# log-probabilities in bits as a backend answers them: from [-1100, 0], where 2 ** -bits overflows at -1024 and
# below, and -inf; often all above -1024, so that a run takes the list-at-a-time path
log_probs = st.floats(min_value=-1100.0, max_value=0.0) | st.floats(min_value=-40.0, max_value=0.0) | \
    st.sampled_from([-math.inf, -1024.0, -1023.9999999999999, -0.0])


# no example count is set here, so CI's "fault-sweep" profile sets it
@settings(deadline=None)
@given(st.lists(st.tuples(log_probs, log_probs), min_size=1, max_size=60), st.integers(0, 59), st.integers(1, 60),
       alphas, st.booleans(), st.sampled_from(SCORE_SPACES))
# the last value whose perplexity is a float, and the first that is not, on either side
@example([(-2.0, -1023.9999999999999), (-1.0, -1024.0)], 0, 2, 0.5, True, "ppl_diff")
@example([(-1023.9999999999999, -1.0), (-1024.0, -1.0)], 1, 1, 0.5, False, "bits_diff")
@example([(-1023.9999999999999, -1.0), (-1.0, -2.0)], 0, 2, 0.5, True, "bits_diff")
def test_segment_scores_equal_token_scores_bit_for_bit(pairs, start, length, alpha, conditional, space):
    config = SelectionConfig(alpha=alpha, conditional=conditional, score_space=space)
    lp_uncond, lp_cond = array("d", [u for u, _ in pairs]), array("d", [c for _, c in pairs])
    start %= len(pairs)
    stop = min(len(pairs), start + length)
    # a segment's slices of the two arrays, as compress_steps takes them
    values = _scores(lp_uncond[start:stop], lp_cond[start:stop], config)
    assert bits_of(values) == bits_of(_token_score(u, c, config)[2] for u, c in pairs[start:stop])
    assert sum(select_tokens(values, config)) == kept_count_for(alpha, len(values))


@settings(max_examples=200, deadline=None)
@given(scores, st.lists(alphas, min_size=2, max_size=5))
def test_kept_sets_nest_across_alphas(values, some_alphas):
    previous: set[int] = set()
    for alpha in sorted(some_alphas):
        current = kept(select_tokens(values, SelectionConfig(alpha=alpha)))
        assert previous <= current
        previous = current


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ABC ", min_size=1, max_size=80),
    alphas,
    st.booleans(),
    st.sampled_from(["global", "per_segment"]),
)
def test_compressed_record_counts_and_ratio_are_exact(thinking, alpha, conditional, scope):
    config = SelectionConfig(alpha=alpha, conditional=conditional, condition_template="{answer}:",
                             selection_scope=scope, segment_budget=16, boundary_slack=4)
    record, rows, mask = compress_instance(CotInstance("p", "", thinking, "42"), config, BACKEND)
    n = len(thinking)  # one toy token per character
    assert record.original_count == len(rows) == len(mask) == n
    assert record.kept_count == sum(mask)
    assert record.actual_ratio == record.kept_count / record.original_count
    if scope == "global":
        lengths = [n]
    else:
        lengths = [len(s) for s in segment_thinking(n, [r.span for r in rows], config)]
    assert record.kept_count == sum(kept_count_for(alpha, m) for m in lengths)
    assert record.compressed_thinking == "".join(r.span for r, keep in zip(rows, mask) if keep)


# the valid values of each SelectionConfig field, and values of the wrong type or range, some of which are valid
# for other fields: a bool for an int, "no" and 0 for a flag, None, floats and lists
valid_fields = st.fixed_dictionaries({
    "alpha": alphas,
    "conditional": st.booleans(),
    "condition_template": st.sampled_from(["{answer}:", "", "{problem}{answer}:", "{answer}{"]),
    "segment_budget": st.integers(1, 16),
    "boundary_slack": st.integers(0, 3),
    "score_space": st.sampled_from(SCORE_SPACES),
    "selection_scope": st.sampled_from(SELECTION_SCOPES),
    "iterative_original_prefix": st.booleans(),
})
odd_values = st.sampled_from([True, False, 0, 1, -1, 0.5, 2.5, math.nan, math.inf, "no", "", "8", "per-segment",
                              None, [], [0.5]])
wrong_fields = st.dictionaries(st.sampled_from([field.name for field in dataclasses.fields(SelectionConfig)]),
                               odd_values, max_size=3)


@settings(deadline=None)
@given(valid_fields, wrong_fields, st.text(alphabet="ABC ", min_size=1, max_size=40))
def test_a_config_is_checked_when_made(fields, wrong, thinking):
    try:
        config = SelectionConfig(**{**fields, **wrong})
    except ConfigError:
        return
    assert type(config.alpha) in (int, float) and 0 < config.alpha <= 1
    assert type(config.conditional) is bool and type(config.iterative_original_prefix) is bool
    assert type(config.segment_budget) is int and type(config.boundary_slack) is int
    assert 0 <= config.boundary_slack < config.segment_budget
    assert type(config.condition_template) is str
    assert not config.conditional or not config.condition_template or "{answer}" in config.condition_template
    assert config.score_space in SCORE_SPACES and config.selection_scope in SELECTION_SCOPES
    try:
        compress_instance(CotInstance("p", "", thinking, "42"), config, BACKEND)
    except CtsError:  # a template that does not render fails the instance
        pass


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ABC ", min_size=1, max_size=80), alphas, st.booleans(), st.sampled_from(SCORE_SPACES))
def test_original_prefix_equals_scoring_each_segment_after_the_original_thinking(thinking, alpha, conditional,
                                                                                  space):
    # the reference: each segment scored alone against ids[:start], as one causal pass must score it
    config = SelectionConfig(alpha=alpha, conditional=conditional, condition_template="{answer}:", score_space=space,
                             selection_scope="per_segment", segment_budget=16, boundary_slack=4,
                             iterative_original_prefix=True)
    record, rows, mask = compress_instance(CotInstance("p", "", thinking, "42"), config, BACKEND)
    (ids, spans), (cond_prefix, _) = BACKEND.tokenize([thinking, "42:"])
    reference_rows, reference_mask = [], []
    for seg in segment_thinking(len(ids), spans, config):
        seg_rows = score_tokens(ids[: seg.start], cond_prefix, ids[seg.start : seg.stop], spans[seg.start : seg.stop],
                                seg.start, config, BACKEND)
        reference_rows += seg_rows
        reference_mask += select_tokens([row.score for row in seg_rows], config)
    assert rows == reference_rows
    assert mask == reference_mask
    assert record.compressed_thinking == "".join(span for span, keep in zip(spans, reference_mask) if keep)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="ABC ", min_size=1, max_size=80), alphas, st.booleans(), st.sampled_from(SCORE_SPACES))
def test_kept_prefix_equals_scoring_each_segment_after_the_ids_kept_before_it(thinking, alpha, conditional, space):
    # the reference: each segment scored alone after the kept ids of the segments before it, one segment at a time
    config = SelectionConfig(alpha=alpha, conditional=conditional, condition_template="{answer}:", score_space=space,
                             selection_scope="per_segment", segment_budget=16, boundary_slack=4)
    record, rows, mask = compress_instance(CotInstance("p", "", thinking, "42"), config, BACKEND)
    (ids, spans), (cond_prefix, _) = BACKEND.tokenize([thinking, "42:"])
    kept_prefix, reference_rows, reference_mask = [], [], []
    for seg in segment_thinking(len(ids), spans, config):
        seg_rows = score_tokens(kept_prefix, cond_prefix, ids[seg.start : seg.stop], spans[seg.start : seg.stop],
                                seg.start, config, BACKEND)
        seg_mask = select_tokens([row.score for row in seg_rows], config)
        kept_prefix += [token for token, keep in zip(ids[seg.start : seg.stop], seg_mask) if keep]
        reference_rows += seg_rows
        reference_mask += seg_mask
    assert rows == reference_rows
    assert mask == reference_mask
    kept = sum(reference_mask)
    assert record == CompressedInstance(
        id="p", problem="", compressed_thinking="".join(span for span, keep in zip(spans, reference_mask) if keep),
        answer="42", nominal_ratio=alpha, actual_ratio=kept / len(ids), kept_count=kept, original_count=len(ids),
    )


class BatchLog(ToyBackend):
    """The shift-table toy model, noting the (context, start, end) of each request of each batch."""

    def __init__(self):
        super().__init__(shift_spec())
        self.batches: list[list[tuple]] = []

    def logprobs_batch(self, requests_):
        self.batches.append([(tuple(r.context), r.start, r.end) for r in requests_])
        return super().logprobs_batch(requests_)


# 1-6 instances of mixed lengths: up to 8 segments of 8 tokens each in per-segment scope
groups = st.lists(st.text(alphabet="ABC ", min_size=1, max_size=60), min_size=1, max_size=6).map(
    lambda texts: [CotInstance(f"g-{i}", "", text, "42") for i, text in enumerate(texts)]
)


def scoring_config(scope: str, original_prefix: bool, **fields) -> SelectionConfig:
    return SelectionConfig(condition_template="{answer}:", selection_scope=scope, segment_budget=8,
                           boundary_slack=2, iterative_original_prefix=original_prefix, **fields)


def lockstep_tasks(group, configs, backend):
    return [(compress_steps(inst, cfg), backend) for inst in group for cfg in configs]


@settings(max_examples=100, deadline=None)
@given(groups, alphas, st.booleans(), st.sampled_from(["global", "per_segment"]), st.booleans())
def test_lockstep_group_equals_one_instance_at_a_time(group, alpha, conditional, scope, original_prefix):
    config = scoring_config(scope, original_prefix, alpha=alpha, conditional=conditional)
    alone = [(compress_instance(inst, config, BACKEND), None) for inst in group]
    assert [rows_of(outcome, config) for outcome in run_lockstep(lockstep_tasks(group, [config], BACKEND))] == alone


@settings(max_examples=100, deadline=None)
@given(
    st.text(alphabet="ABC ", min_size=1, max_size=60),
    st.sampled_from([0.1, 0.3, 0.5, 0.7, 1.0]) | alphas,
    st.booleans(),
    st.sampled_from(["global", "per_segment"]),
    st.booleans(),
)
def test_without_rows_the_record_and_selection_are_the_same(thinking, alpha, conditional, scope, original_prefix):
    config = scoring_config(scope, original_prefix, alpha=alpha, conditional=conditional)
    instance = CotInstance("p", "", thinking, "42")
    [with_rows, (without_rows, _)] = run_lockstep(
        [(compress_steps(instance, config, keep_scores), BACKEND) for keep_scores in (True, False)]
    )
    (record, rows, mask), _ = rows_of(with_rows, config)
    assert len(rows) == len(mask) == len(thinking)
    assert without_rows[0] == record
    assert without_rows[1] is None
    assert without_rows[2] == mask


@settings(max_examples=50, deadline=None)
@given(groups, st.sampled_from(["global", "per_segment"]), st.booleans())
def test_ablate_modes_send_each_distinct_context_once_per_step(group, scope, original_prefix):
    configs = [scoring_config(scope, original_prefix, alpha=0.5, conditional=mode.conditional)
               for mode in ABLATION_MODES]
    # what the tasks ask at each step when each runs alone: one batch per step
    asked: list[set] = []
    for inst in group:
        for config in configs:
            backend = BatchLog()
            compress_instance(inst, config, backend)
            for step, batch in enumerate(backend.batches):
                if step == len(asked):
                    asked.append(set())
                asked[step].update(batch)
    backend = BatchLog()
    list(run_lockstep(lockstep_tasks(group, configs, backend)))
    assert [sorted(batch) for batch in backend.batches] == [sorted(step) for step in asked]


# 1-6 tasks of 1-5 small-int items each, so that tasks share items
item_tasks = st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(item_tasks, st.sets(st.integers(0, 9), max_size=3), st.booleans())
def test_batch_then_split_lands_a_failure_on_the_tasks_at_fault(tasks, poisoned, short):
    # a call holding a poisoned item fails: it raises, or with ``short`` it answers one item too few
    calls: list[list[int]] = []

    def send(items):
        calls.append(items)
        if poisoned.intersection(items):
            if short:
                return list(items)[:-1]
            raise BackendProtocolError("poisoned")
        return list(items)

    answers = _batch_then_split(send, dict(enumerate(tasks)))
    assert list(answers) == list(range(len(tasks)))
    for task, items in enumerate(tasks):
        # the error lands exactly on the poisoned items; every other item gets its answer
        assert [isinstance(answer, BackendProtocolError) for answer in answers[task]] == [
            item in poisoned for item in items
        ]
        assert [answer for answer in answers[task] if not isinstance(answer, CtsError)] == [
            item for item in items if item not in poisoned
        ]
    assert all(len(call) == len(set(call)) for call in calls)
    # the calls of the halving rule over the distinct items, in the order tasks first name them
    distinct = list(dict.fromkeys(item for items in tasks for item in items))
    assert calls == halving_calls(distinct, lambda call: bool(poisoned.intersection(call)))
    # k poisoned items of n cost at most 1 + 2k * ceil(log2 n) calls, and never more than 2n - 1
    n, k = len(distinct), len(poisoned.intersection(distinct))
    assert len(calls) <= 1 + 2 * k * math.ceil(math.log2(n))
    assert len(calls) <= 2 * n - 1


@settings(max_examples=100, deadline=None)
@given(item_tasks)
def test_batch_then_split_lets_an_unavailable_backend_end_it(tasks):
    calls: list[list[int]] = []

    def send(items):
        calls.append(items)
        raise BackendUnavailable("down")

    with pytest.raises(BackendUnavailable):
        _batch_then_split(send, dict(enumerate(tasks)))
    assert len(calls) == 1


def closes(group, min_count, min_chars) -> bool:
    return len(group) >= min_count and sum(len(inst.thinking) for inst in group) >= min_chars


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=80) | st.integers(min_value=0, max_value=5000), max_size=40),
    st.integers(min_value=1, max_value=6) | st.just(SCORE_GROUP),
    st.integers(min_value=0, max_value=300) | st.just(GROUP_CHARS),
)
def test_groups_close_at_count_and_characters(lengths, min_count, min_chars):
    instances = [CotInstance(f"inst-{i}", "", "A" * n, "") for i, n in enumerate(lengths)]
    with mock.patch.multiple(cts.cli, SCORE_GROUP=min_count, GROUP_CHARS=min_chars):
        groups = list(_groups(instances))
    assert [inst for group in groups for inst in group] == instances
    for i, group in enumerate(groups):
        assert group
        # every group but the last closes, and at its last instance, not before
        assert closes(group, min_count, min_chars) or i == len(groups) - 1
        assert not any(closes(group[:j], min_count, min_chars) for j in range(1, len(group)))
        # the memory bound: at most min_count instances, or fewer than min_chars characters before the last
        assert len(group) <= min_count or sum(len(inst.thinking) for inst in group[:-1]) < min_chars
