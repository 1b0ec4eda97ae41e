import dataclasses
import json
import math
import random
import threading
import weakref

import pytest

from cts.backends import LogprobBackend, ToyBackend, ToyLmSpec
from cts.dataset import CotInstance, compressed_to_dict
from cts.errors import BackendProtocolError, BackendUnavailable, ConfigError, ScoringError, TokenizeError
from cts.selector import (
    SelectionConfig,
    compress_instance,
    compress_steps,
    kept_count_for,
    lockstep_step,
    render_condition,
    run_lockstep,
    segment_thinking,
    select_tokens,
)

from conftest import rows_of, score_global, shift_spec, uniform_spec

CONDITION = "{answer}:"  # renders inside the toy vocabularies used here


def config(**overrides) -> SelectionConfig:
    fields = dict(alpha=0.5, conditional=True, condition_template=CONDITION)
    fields.update(overrides)
    return SelectionConfig(**fields)


def instance(thinking: str, answer: str = "42", problem: str = "", iid: str = "t-0") -> CotInstance:
    return CotInstance(id=iid, problem=problem, thinking=thinking, answer=answer)


class RecordingBackend(LogprobBackend):
    """Delegates to a ToyBackend while logging every tokenize call and scoring request.

    It defines only the abstract methods, so it is also the smallest backend
    the contract allows.
    """

    def __init__(self, inner: ToyBackend):
        self.inner = inner
        self.tokenized: list[list[str]] = []  # the texts of each tokenize call
        self.batches = 0
        self.batch_sizes: list[int] = []
        self.requests: list[tuple[tuple[int, ...], int, int]] = []

    def tokenize(self, texts):
        self.tokenized.append(list(texts))
        return self.inner.tokenize(texts)

    def logprobs_batch(self, requests_):
        self.batches += 1
        self.batch_sizes.append(len(requests_))
        self.requests.extend((tuple(r.context), r.start, r.end) for r in requests_)
        return self.inner.logprobs_batch(requests_)


def ids_of(backend, text: str) -> tuple[int, ...]:
    return tuple(backend.tokenize([text])[0][0])


class Ids(list):
    """A list of token ids that a weakref can point at."""


class TestBuildContexts:
    # compress_steps tokenizes the thinking and the condition once each; a
    # segment's unconditional context is its history + thinking ids and its
    # conditional context is cond_prefix + history + thinking ids.
    def test_unconditional_contexts_are_equal(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        compress_instance(instance("ABC"), config(conditional=False), backend)
        assert backend.tokenized == [["ABC"]]
        assert backend.requests == [(ids_of(shift_backend, "ABC"), 0, 3)]

    def test_condition_prefix_prepended(self):
        backend = RecordingBackend(ToyBackend(uniform_spec(list("ANS: 42"))))
        compress_instance(instance("AA"), config(condition_template="ANS: {answer} "), backend)
        prefix, thinking = ids_of(backend.inner, "ANS: 42 "), ids_of(backend.inner, "AA")
        assert backend.tokenized == [["AA", "ANS: 42 "]]
        assert backend.requests[1] == (prefix + thinking, len(prefix), len(prefix) + len(thinking))

    def test_thinking_ids_bit_identical_between_contexts(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        compress_instance(instance("AB C"), config(), backend)
        thinking, prefix = ids_of(shift_backend, "AB C"), ids_of(shift_backend, "42:")
        n, p = len(thinking), len(prefix)
        assert backend.requests == [(thinking, 0, n), (prefix + thinking, p, p + n)]

    def test_template_without_answer_placeholder_rejected(self, shift_backend):
        with pytest.raises(ConfigError):
            compress_instance(instance("A"), config(condition_template="no placeholder here"), shift_backend)

    def test_empty_template_is_explicit_no_op(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        compress_instance(instance("AB"), config(condition_template=""), backend)
        # the empty condition is not tokenized, and both contexts are the thinking alone: one request
        assert backend.tokenized == [["AB"]]
        assert backend.requests == [(ids_of(shift_backend, "AB"), 0, 2)]

    def test_unknown_placeholder_rejected(self, shift_backend):
        cfg = config(condition_template="{answer}{oops}")
        with pytest.raises(ConfigError):
            compress_instance(instance("A"), cfg, shift_backend)

    def test_empty_thinking_rejected(self, shift_backend):
        with pytest.raises(ScoringError):
            compress_instance(instance(""), config(), shift_backend)

    @pytest.mark.parametrize("overrides", [
        {}, {"condition_template": ""}, {"conditional": False},
        {"selection_scope": "per_segment", "segment_budget": 4, "boundary_slack": 0},
    ], ids=["global", "empty-condition", "unconditional", "per-segment"])
    def test_the_tokenize_answer_ids_are_not_held_once_copied_to_one_tuple(self, shift_backend, overrides):
        cfg = config(**overrides)
        steps = compress_steps(instance("ABC AB CAB"), cfg)
        texts = next(steps)
        (ids, spans), *condition = shift_backend.tokenize(texts)
        ids = Ids(ids)
        held = weakref.ref(ids)
        requests_ = steps.send([(ids, spans), *condition])
        del ids, condition
        assert held() is None  # the generator keeps its own tuple of the ids, not the answer's list
        while True:
            try:
                requests_ = steps.send(shift_backend.logprobs_batch(requests_))
            except StopIteration as stop:
                record, _, mask = stop.value
                break
        expected, _, expected_mask = compress_instance(instance("ABC AB CAB"), cfg, shift_backend)
        assert (record, mask) == (expected, expected_mask)

    def test_a_lockstep_step_lets_go_of_each_task_answers_once_it_is_advanced(self):
        class WeakIds(ToyBackend):
            def tokenize(self, texts):
                answers = [(Ids(ids), spans) for ids, spans in super().tokenize(texts)]
                self.held = [weakref.ref(ids) for ids, _ in answers]
                return answers

        backend, alive = WeakIds(shift_spec()), []

        def probe():  # advanced after the instance, in the same step: is the instance's answer still held?
            yield ["C"]
            alive.append(backend.held[0]() is not None)

        lockstep_step([(compress_steps(instance("ABC AB CAB"), config()), backend), (probe(), backend)])
        assert alive == [False]


class TestScoreTokens:
    def test_quarter_vs_half_scores_two(self, shift_backend):
        # P(A | START) = 0.25 -> ppl 4; P(A | ":") = 0.5 -> ppl 2; score 4 - 2 = 2
        rows = score_global(instance("A"), config(), shift_backend)
        assert rows[0].ppl_uncond == 4.0
        assert rows[0].ppl_cond == 2.0
        assert rows[0].score == 2.0

    def test_condition_with_no_effect_gives_all_zero(self):
        backend = ToyBackend(uniform_spec(list("AB:42")))
        rows = score_global(instance("ABAB"), config(), backend)
        assert all(r.score == 0.0 for r in rows)
        assert all(r.ppl_uncond == r.ppl_cond for r in rows)

    def test_six_token_instance_matches_table_arithmetic(self, shift_backend):
        # hand-computed from the shift table, thinking "ABCABC", condition "42:":
        #   pos0 P(A|START)=0.25 vs P(A|:)=0.5 -> 4, 2, score 2
        #   pos1 P(B|A)=0.5 both -> 2, 2, 0       pos2 P(C|B)=0.5 -> 2, 2, 0
        #   pos3 P(A|C)=0.4 -> 2.5, 2.5, 0        pos4, pos5 repeat pos1, pos2
        rows = score_global(instance("ABCABC"), config(), shift_backend)
        expected = [(4.0, 2.0, 2.0), (2.0, 2.0, 0.0), (2.0, 2.0, 0.0),
                    (2.5, 2.5, 0.0), (2.0, 2.0, 0.0), (2.0, 2.0, 0.0)]
        assert len(rows) == 6
        for row, (ppl_u, ppl_c, score) in zip(rows, expected):
            assert row.ppl_uncond == pytest.approx(ppl_u, abs=1e-12)
            assert row.ppl_cond == pytest.approx(ppl_c, abs=1e-12)
            assert row.score == pytest.approx(score, abs=1e-12)

    def test_unconditional_score_is_plain_perplexity(self, shift_backend):
        rows = score_global(instance("ABCABC"), config(conditional=False), shift_backend)
        for row in rows:
            assert row.ppl_cond == row.ppl_uncond
            assert row.score == row.ppl_uncond

    def test_bits_diff_space(self, shift_backend):
        rows = score_global(instance("A"), config(score_space="bits_diff"), shift_backend)
        # log2(4) - log2(2) = 1 bit of shift
        assert rows[0].score == pytest.approx(1.0, abs=1e-12)

    def test_bits_diff_unconditional_is_self_information(self, shift_backend):
        rows = score_global(
            instance("A"), config(conditional=False, score_space="bits_diff"), shift_backend
        )
        assert rows[0].score == pytest.approx(2.0, abs=1e-12)  # log2(ppl 4)

    def test_zero_probability_token_ranks_maximally_surprising(self):
        spec = ToyLmSpec(
            vocabulary=["A", "B"],
            table={"START": {"A": 1.0}, "A": {"A": 1.0}, "B": {"A": 0.5, "B": 0.5}},
        )
        backend = ToyBackend(spec)
        rows = score_global(instance("AB", answer="A"), config(condition_template=""), backend)
        assert rows[1].ppl_uncond == math.inf
        # identical impossible context in both passes carries no shift signal
        assert rows[1].score == 0.0

    def test_infinite_uncond_finite_cond_scores_positive_infinity(self):
        # conditioning makes an impossible token possible -> maximal importance
        spec = ToyLmSpec(
            vocabulary=["A", "B", ":"],
            table={
                "START": {"A": 1.0},
                ":": {"A": 0.5, "B": 0.5},
                "A": {"A": 0.5, "B": 0.5},
                "B": {"A": 1.0},
            },
        )
        backend = ToyBackend(spec)
        rows = score_global(instance("BA", answer=""), config(condition_template="{answer}:"), backend)
        assert rows[0].ppl_uncond == math.inf
        assert rows[0].ppl_cond == 2.0
        assert rows[0].score == math.inf

    def test_zero_condition_reduction_is_exact(self, shift_backend):
        rows = score_global(instance("ABCABC"), config(condition_template=""), shift_backend)
        assert all(r.ppl_cond == r.ppl_uncond for r in rows)
        assert all(r.score == 0.0 for r in rows)

    def test_backend_error_carries_instance_id(self, shift_backend):
        bad = instance("ABCX")  # X not in vocabulary
        with pytest.raises(ScoringError) as exc:
            compress_instance(bad, config(), shift_backend)
        assert "t-0" in str(exc.value)

    def test_untokenizable_condition_carries_instance_id(self, shift_backend):
        bad = instance("ABC", answer="Z")  # Z not in vocabulary
        with pytest.raises(ScoringError) as exc:
            compress_instance(bad, config(), shift_backend)
        assert "t-0" in str(exc.value)

    def test_tokenize_answer_with_unequal_ids_and_spans_is_scoring_error(self):
        class DropsASpan(ToyBackend):
            def tokenize(self, texts):
                return [(ids, spans[:-1]) for ids, spans in super().tokenize(texts)]

        with pytest.raises(ScoringError) as exc:
            compress_instance(instance("ABCA"), config(), DropsASpan(shift_spec()))
        assert str(exc.value) == "instance t-0: backend tokenize answer has 4 ids and 3 spans"

    @pytest.mark.parametrize("scope", ["global", "per_segment"])
    def test_condition_answered_with_no_ids_fails_its_instance_alone(self, scope):
        # unchecked, no ids would make every conditional context the unconditional one, and the instance succeed
        class NoConditionIds(ToyBackend):
            def tokenize(self, texts):
                return [((), []) if text == "42:" else answer for text, answer in zip(texts, super().tokenize(texts))]

        cfg = config(selection_scope=scope, segment_budget=2, boundary_slack=0)
        instances = [instance("ABCAB", answer="4", iid="t-0"), instance("ABCAB", iid="t-1"),
                     instance("CABBA", answer="4", iid="t-2")]
        backend = NoConditionIds(shift_spec())  # one backend, so each step is one call for all three
        outcomes = run_lockstep([(compress_steps(inst, cfg), backend) for inst in instances])
        assert outcomes[1].result is None
        assert isinstance(outcomes[1].error, ScoringError)
        assert str(outcomes[1].error) == "instance t-1: cannot tokenize condition: no ids answered"
        for i in (0, 2):
            alone = run_lockstep([(compress_steps(instances[i], cfg), ToyBackend(shift_spec()))])
            assert rows_of(outcomes[i], cfg) == rows_of(alone[0], cfg)


class TestSegmentThinking:
    def test_under_budget_single_segment(self):
        segs = segment_thinking(10, ["x"] * 10, config(segment_budget=512))
        assert segs == [range(0, 10)]

    def test_forced_split_without_candidates(self):
        segs = segment_thinking(1000, ["x"] * 1000, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.stop) for s in segs] == [(0, 512), (512, 1000)]

    def test_snaps_to_whitespace_boundary(self):
        # oracle: last qualifying cut in [480, 512) is 500 (span 499 ends in space)
        spans = ["x"] * 520
        spans[499] = "x "
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.stop) for s in segs] == [(0, 500), (500, 520)]

    def test_prefers_latest_qualifying_boundary(self):
        spans = ["x"] * 520
        spans[489] = "x."
        spans[505] = "x\n"
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert segs[0].stop == 506

    def test_candidate_outside_slack_ignored(self):
        spans = ["x"] * 520
        spans[470] = "x "  # cut 471 < 512 - 32
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.stop) for s in segs] == [(0, 512), (512, 520)]

    def test_partition_properties_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 400)
            budget = rng.randint(1, 60)
            slack = rng.randint(0, budget - 1)
            spans = [rng.choice(["x", "x ", "y.", "z"]) for _ in range(n)]
            segs = segment_thinking(n, spans, config(segment_budget=budget, boundary_slack=slack))
            assert segs[0].start == 0
            assert segs[-1].stop == n
            for a, b in zip(segs, segs[1:]):
                assert a.stop == b.start
            assert all(s.stop - s.start >= 1 for s in segs)
            assert all(s.stop - s.start <= budget for s in segs)


    def test_empty_sequence_is_a_config_error(self):
        with pytest.raises(ConfigError, match="empty token sequence"):
            segment_thinking(0, [], config())


class TestSelectTokens:
    def test_distinct_scores_keep_top_half(self):
        mask = select_tokens([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], config(alpha=0.5))
        assert [i for i, k in enumerate(mask) if k] == [5, 6, 7, 8, 9]
        assert sum(mask) == 5

    def test_alpha_one_keeps_everything(self):
        assert select_tokens([3.0, 1.0, 2.0], config(alpha=1.0)) == [True, True, True]

    def test_all_equal_scores_tie_break_by_position(self):
        mask = select_tokens([7.0] * 10, config(alpha=0.5))
        assert [i for i, k in enumerate(mask) if k] == [0, 1, 2, 3, 4]

    def test_minimum_one_token_kept(self):
        assert sum(select_tokens([1.0, 2.0, 3.0], config(alpha=0.01))) == 1

    def test_round_half_up(self):
        assert kept_count_for(0.5, 10) == 5
        assert kept_count_for(0.15, 10) == 2
        assert kept_count_for(0.25, 10) == 3  # 2.5 rounds up
        assert kept_count_for(0.7, 10) == 7
        assert kept_count_for(0.29, 100) == 29
        assert kept_count_for(1.0, 7) == 7
        assert kept_count_for(0.01, 5) == 1  # floor is the minimum retention

    def test_per_segment_scope_selects_within_each_segment(self):
        # the segment loop selects over each segment's scores; masks follow the scores given
        scores = [10, 9, 8, 7, 1, 2, 3, 4]
        cfg = config(alpha=0.5, selection_scope="per_segment")
        mask = select_tokens(scores[0:4], cfg) + select_tokens(scores[4:8], cfg)
        assert [i for i, k in enumerate(mask) if k] == [0, 1, 6, 7]

    def test_global_scope_ignores_segments(self, shift_backend):
        # segment_budget only matters in per_segment scope
        inst = instance("ABCABCAB")
        small = compress_instance(inst, config(segment_budget=4, boundary_slack=0), shift_backend)
        assert small == compress_instance(inst, config(), shift_backend)

    def test_nesting_under_increasing_alpha(self):
        rng = random.Random(3)
        for trial in range(30):
            n = rng.randint(1, 80)
            scores = [rng.choice([rng.random(), 0.5]) for _ in range(n)]  # include ties
            previous: set[int] = set()
            for alpha in (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
                kept = {i for i, k in enumerate(select_tokens(scores, config(alpha=alpha))) if k}
                assert previous <= kept
                previous = kept

    def test_exact_count_bound(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 300)
            alpha = rng.choice([0.5, 0.6, 0.7, 0.8, 0.9])
            k = kept_count_for(alpha, n)
            assert abs(k / n - alpha) <= 0.5 / n + 1.0 / n

    def test_empty_rows_rejected(self):
        with pytest.raises(ConfigError):
            select_tokens([], config())


class TestCompressInstance:
    def test_alpha_one_is_identity(self, shift_backend):
        inst = instance("ABC AB C CAB")
        record, _, _ = compress_instance(inst, config(alpha=1.0), shift_backend)
        assert record.compressed_thinking == inst.thinking
        assert record.actual_ratio == 1.0
        assert record.kept_count == record.original_count

    def test_ten_token_instance_matches_full_sort_oracle(self, shift_backend):
        inst = instance("ABCABCABCA")
        cfg = config(alpha=0.5)
        record, rows, mask = compress_instance(inst, cfg, shift_backend)
        # brute force: rank every position by (score desc, position asc), keep 5
        order = sorted(range(10), key=lambda i: (-rows[i].score, i))
        kept = sorted(order[:5])
        expected = "".join(inst.thinking[i] for i in kept)
        assert record.compressed_thinking == expected
        assert record.kept_count == 5
        assert record.actual_ratio == 0.5
        assert [i for i, k in enumerate(mask) if k] == kept

    def test_conditioning_noop_table_gives_byte_identical_outputs(self):
        backend = ToyBackend(uniform_spec(list("AB:42")))
        inst = instance("ABABAB")
        rec_cond, _, _ = compress_instance(inst, config(conditional=True), backend)
        rec_uncond, _, _ = compress_instance(inst, config(conditional=False), backend)
        assert json.dumps(compressed_to_dict(rec_cond)) == json.dumps(compressed_to_dict(rec_uncond))

    def test_kept_spans_form_subsequence(self, shift_backend):
        rng = random.Random(17)
        for _ in range(20):
            thinking = "".join(rng.choice("ABC ") for _ in range(rng.randint(1, 40)))
            inst = instance(thinking)
            record, _, mask = compress_instance(inst, config(alpha=rng.choice([0.3, 0.5, 0.8])), shift_backend)
            spans = shift_backend.tokenize([thinking])[0][1]
            rebuilt = "".join(s for s, keep in zip(spans, mask) if keep)
            assert record.compressed_thinking == rebuilt
            it = iter(thinking)
            assert all(ch in it for ch in record.compressed_thinking)

    def test_deterministic_across_runs(self, shift_backend):
        inst = instance("ABC ABCA B")
        cfg = config(alpha=0.6)
        first = compress_instance(inst, cfg, shift_backend)
        second = compress_instance(inst, cfg, shift_backend)
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert first[2] == second[2]

    def test_sign_consistency_between_score_spaces(self, shift_backend):
        rng = random.Random(23)
        for _ in range(10):
            thinking = "".join(rng.choice("ABC") for _ in range(rng.randint(2, 30)))
            rows_ppl = score_global(instance(thinking), config(score_space="ppl_diff"), shift_backend)
            rows_bits = score_global(instance(thinking), config(score_space="bits_diff"), shift_backend)
            for a, b in zip(rows_ppl, rows_bits):
                sign = lambda x: (x > 0) - (x < 0)
                assert sign(a.score) == sign(b.score)

    def test_extras_carried_through(self, shift_backend):
        inst = CotInstance("x", "p", "ABC", "42", extras={"k": 1})
        record, _, _ = compress_instance(inst, config(), shift_backend)
        assert record.extras == {"k": 1}

    def test_invalid_alpha_rejected(self, shift_backend):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                compress_instance(instance("A"), config(alpha=alpha), shift_backend)

    @pytest.mark.parametrize("alpha", [True, "0.5", None, [0.5]])
    def test_alpha_that_is_not_a_number_is_rejected(self, shift_backend, alpha):
        # a bool is an int to Python, but kept_count_for cannot read "True" as a number
        with pytest.raises(ConfigError, match="alpha must be a number"):
            config(alpha=alpha)
        with pytest.raises(ConfigError):
            compress_instance(instance("A"), config(alpha=alpha), shift_backend)


    def test_unknown_score_space_is_rejected(self):
        with pytest.raises(ConfigError, match="score_space must be one of"):
            config(score_space="x")

    @pytest.mark.parametrize("scope", ["x", "per-segment"])  # a field holds the underscore spelling
    def test_unknown_selection_scope_is_rejected(self, scope):
        with pytest.raises(ConfigError, match="selection_scope must be one of"):
            config(selection_scope=scope)


class TestConfigValue:
    # a SelectionConfig is a frozen value: a bad field is a ConfigError where it is made, never later in a run
    @pytest.mark.parametrize("field, value", [
        ("segment_budget", "8"), ("segment_budget", 2.5), ("segment_budget", True), ("boundary_slack", None),
        ("boundary_slack", False), ("condition_template", 5), ("conditional", "no"),
        ("iterative_original_prefix", "no"),
    ])
    def test_field_of_the_wrong_type_is_rejected_when_made(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            config(**{field: value})

    def test_every_field_is_frozen(self):
        cfg = config()
        for field in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field.name, getattr(cfg, field.name))

    @pytest.mark.parametrize("make", [lambda: config(alpha=2.0), lambda: dataclasses.replace(config(), alpha=0.0)],
                             ids=["made", "replaced"])
    def test_alpha_out_of_range_is_rejected_when_made(self, make):
        with pytest.raises(ConfigError, match="alpha must be a number"):
            make()

    # the template must hold a replacement field named answer: an escaped {{answer}} renders the constant "{answer}"
    @pytest.mark.parametrize("template", ["{{answer}}", "{{answer}}: ", "{:{answer}}", "{ {answer}", "{{{{answer}}}}"])
    def test_template_with_no_answer_field_is_rejected_when_made(self, template):
        with pytest.raises(ConfigError, match="condition_template must contain {answer}"):
            config(condition_template=template)

    @pytest.mark.parametrize("template, rendered", [("{answer!r}", "'42'"), ("{answer:>5}", "   42"),
                                                    ("{{{answer}}}", "{42}")])
    def test_template_with_an_answer_field_is_accepted(self, template, rendered):
        assert render_condition(config(condition_template=template), instance("A")) == rendered


class TestRequestBudget:
    # per instance: tokenize the thinking once and the condition once, then
    # one batched logprobs request per segment; global scope is one segment
    @pytest.mark.parametrize("conditional", [True, False])
    @pytest.mark.parametrize("scope, segments", [("global", 1), ("per_segment", 5)])
    def test_requests_per_instance(self, shift_backend, conditional, scope, segments):
        backend = RecordingBackend(shift_backend)
        cfg = config(conditional=conditional, selection_scope=scope, segment_budget=8, boundary_slack=0)
        result = compress_instance(instance("ABC " * 10), cfg, backend)
        assert backend.tokenized == [["ABC " * 10] + (["42:"] if conditional else [])]
        assert backend.batches == segments
        assert result == compress_instance(instance("ABC " * 10), cfg, backend.inner)

    def test_toy_tokenizes_thinking_then_condition_on_the_calling_thread(self, shift_backend, monkeypatch):
        calls = []
        original = ToyBackend.tokenize

        def spy(self, texts):
            calls.append((texts, threading.get_ident()))
            return original(self, texts)

        monkeypatch.setattr(ToyBackend, "tokenize", spy)
        compress_instance(instance("ABC " * 10), config(), shift_backend)
        assert calls == [(["ABC " * 10, "42:"], threading.get_ident())]


def lockstep(inst, configs, backend):
    """Each config's selection of one instance, run in lockstep, with its scores as rows."""
    outcomes = run_lockstep([(compress_steps(inst, cfg), backend) for cfg in configs])
    return [rows_of(outcome, cfg)[0] for cfg, outcome in zip(configs, outcomes)]


class TestRequestCache:
    """The tokenize step of a group run in lockstep: one call per backend, shared by the selections."""

    def test_conditional_batch_serves_the_unconditional_selection(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        inst = instance("ABC " * 10)
        cond, uncond = lockstep(inst, [config(), config(conditional=False)], backend)
        assert backend.tokenized == [["ABC " * 10, "42:"]]
        assert backend.batch_sizes == [2]
        assert cond == compress_instance(inst, config(), shift_backend)
        assert uncond == compress_instance(inst, config(conditional=False), shift_backend)

    def test_no_texts_no_call(self, shift_backend):
        # an instance that fails before its tokenize step asks nothing
        backend = RecordingBackend(shift_backend)
        [(result, exc)] = run_lockstep([(compress_steps(instance(""), config()), backend)])
        assert result is None and isinstance(exc, ScoringError)
        assert backend.tokenized == [] and backend.batches == 0

    def test_failed_call_sends_each_distinct_text_alone_once(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        insts = [instance(text, iid=f"t-{i}") for i, text in enumerate(["AB", "Z", "AB"])]
        outcomes = list(run_lockstep([(compress_steps(inst, config(conditional=False)), backend) for inst in insts]))
        assert backend.tokenized == [["AB", "Z"], ["AB"], ["Z"]]
        result, exc = outcomes[1]
        assert result is None and isinstance(exc.__cause__, TokenizeError)
        assert str(exc).startswith("instance t-1: cannot tokenize thinking: ")
        for i in (0, 2):
            assert rows_of(outcomes[i], config(conditional=False)) == (
                compress_instance(insts[i], config(conditional=False), shift_backend), None)

    def test_unavailable_backend_ends_the_batch(self, shift_backend):
        class Down(RecordingBackend):
            def tokenize(self, texts):
                super().tokenize(texts)
                raise BackendUnavailable("down")

        backend = Down(shift_backend)
        with pytest.raises(BackendUnavailable):
            list(run_lockstep([(compress_steps(instance("AB", answer="C"), config()), backend)]))
        assert backend.tokenized == [["AB", "C:"]]
        assert backend.batches == 0

    @pytest.mark.parametrize("original_prefix", [False, True])
    def test_per_segment_modes_share_what_they_can(self, shift_backend, original_prefix):
        backend = RecordingBackend(shift_backend)
        inst = instance("ABC " * 10)
        cfg = dict(selection_scope="per_segment", segment_budget=8, boundary_slack=0,
                   iterative_original_prefix=original_prefix)
        configs = [config(conditional=conditional, **cfg) for conditional in (True, False)]
        assert lockstep(inst, configs, backend) == [
            compress_instance(inst, cfg, shift_backend) for cfg in configs
        ]
        assert backend.tokenized == [["ABC " * 10, "42:"]]
        # with the original prefix the five segments are one step over [0, n),
        # whose unconditional context the unconditional mode shares; with the
        # kept prefix each segment is a step, the modes share segment 0, and
        # their kept prefixes differ, so segments 1-4 hold a third context
        assert backend.batch_sizes == ([2] if original_prefix else [2] + [3] * 4)


class FailsOnToken(RecordingBackend):
    """Records every batch, then fails it with ``error`` when a request's context holds ``token``."""

    def __init__(self, inner: ToyBackend, token: int, error: Exception):
        super().__init__(inner)
        self.token = token
        self.error = error

    def logprobs_batch(self, requests_):
        answers = super().logprobs_batch(requests_)
        if any(self.token in r.context for r in requests_):
            raise self.error
        return answers


def tasks_for(insts, cfg, backend):
    return [(compress_steps(i, cfg), backend) for i in insts]


class TestLockstep:
    def test_duplicate_requests_in_a_step_go_out_once(self, shift_backend):
        backend = RecordingBackend(shift_backend)
        a, b = instance("ABC A", iid="a"), instance("CAB", iid="b")
        group = [a, b, a]
        outcomes = list(run_lockstep(tasks_for(group, config(), backend)))
        # a's two contexts once, b's two
        assert backend.batch_sizes == [4]
        assert len(set(backend.requests)) == 4
        assert [rows_of(outcome, config()) for outcome in outcomes] == [
            (compress_instance(i, config(), shift_backend), None) for i in group]

    def test_one_batch_per_backend_per_step(self, shift_backend):
        standard, tuned = RecordingBackend(shift_backend), RecordingBackend(shift_backend)
        cfg = config(selection_scope="per_segment", segment_budget=4, boundary_slack=0)
        insts = [instance("ABC ABC", iid="a"), instance("AB", iid="b"), instance("ABCABCABC", iid="c")]
        tasks = tasks_for(insts[:2], cfg, standard) + tasks_for(insts[2:], cfg, tuned)
        outcomes = list(run_lockstep(tasks))
        # steps: a has 2 segments, b 1 and c 3; two contexts per segment
        assert standard.batch_sizes == [4, 2]
        assert tuned.batch_sizes == [2, 2, 2]
        assert [rows_of(outcome, cfg) for outcome in outcomes] == [
            (compress_instance(i, cfg, shift_backend), None) for i in insts]

    # the failed call's halves go out again, and each half that fails is halved in turn
    @pytest.mark.parametrize("scope, batch_sizes, failed_range", [
        ("global", [4, 2, 1, 1, 2], "[0, 4)"),
        # the bad token is in the second segment of t-1: the first step goes through
        ("per_segment", [4, 4, 2, 1, 1, 2, 1], "[2, 4)"),
    ])
    def test_failed_batch_is_sent_again_task_by_task(self, shift_backend, scope, batch_sizes, failed_range):
        cfg = config(conditional=False, selection_scope=scope, segment_budget=2, boundary_slack=0)
        insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", "BA2C", "CAB", "C C"])]
        [two], _ = shift_backend.tokenize(["2"])[0]

        def failing():
            return FailsOnToken(shift_backend, two, BackendProtocolError("bad reply"))

        backend = failing()
        outcomes = list(run_lockstep(tasks_for(insts, cfg, backend)))
        assert backend.batch_sizes == batch_sizes
        with pytest.raises(ScoringError) as alone:
            compress_instance(insts[1], cfg, failing())
        assert str(alone.value) == f"instance t-1: backend failed scoring thinking tokens {failed_range}: bad reply"
        result, exc = outcomes[1]
        assert result is None and str(exc) == str(alone.value) and exc.positions == alone.value.positions
        for inst, outcome in zip(insts, outcomes):
            if inst is not insts[1]:
                assert rows_of(outcome, cfg) == (compress_instance(inst, cfg, shift_backend), None)

    def test_unavailable_backend_is_not_asked_again(self, shift_backend):
        [two], _ = shift_backend.tokenize(["2"])[0]
        backend = FailsOnToken(shift_backend, two, BackendUnavailable("down"))
        insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", "AB2C", "CAB"])]
        with pytest.raises(BackendUnavailable):
            list(run_lockstep(tasks_for(insts, config(), backend)))
        assert backend.batch_sizes == [6]

    def test_no_tasks(self):
        assert list(run_lockstep([])) == []

    def test_steps_may_yield_a_tuple(self, shift_backend):
        def steps():
            ((ids, _),) = yield ("AB",)
            return len(ids)

        assert list(run_lockstep([(steps(), shift_backend)])) == [(2, None)]


MARKED = "BCCA"


class ShortTokenize(ToyBackend):
    """Drops the last answer of each tokenize call that holds MARKED."""

    def tokenize(self, texts):
        answers = super().tokenize(texts)
        return answers[:-1] if MARKED in texts else answers


class ShortLogprobs(ToyBackend):
    """Drops the last answer of each logprobs_batch call with a context that ends in MARKED."""

    def logprobs_batch(self, requests_):
        answers = super().logprobs_batch(requests_)
        marked = self.tokenize([MARKED])[0][0]
        return answers[:-1] if any(r.context[-len(marked):] == marked for r in requests_) else answers


@pytest.mark.parametrize("backend_class, message", [
    (ShortTokenize, "instance t-1: cannot tokenize thinking: "),
    (ShortLogprobs, "instance t-1: backend failed scoring thinking tokens [0, 4): "),
], ids=["tokenize", "logprobs"])
def test_a_call_short_of_answers_fails_only_the_instance_at_fault(backend_class, message):
    # the group's call is one answer short, so its halves go out again; only the calls holding MARKED are short
    backend = backend_class(shift_spec())
    insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", MARKED, "CAB"])]
    outcomes = list(run_lockstep(tasks_for(insts, config(), backend)))
    result, exc = outcomes[1]
    assert result is None and isinstance(exc, ScoringError) and isinstance(exc.__cause__, BackendProtocolError)
    assert str(exc).startswith(message)
    for i in (0, 2):
        alone = compress_instance(insts[i], config(), ToyBackend(shift_spec()))
        assert rows_of(outcomes[i], config()) == (alone, None)


class EmptyTokenize(ToyBackend):
    """Answers no ids and no spans for each text that holds MARKED."""

    def tokenize(self, texts):
        return [((), []) if MARKED in text else answer for text, answer in zip(texts, super().tokenize(texts))]


class MiscountedLogprobs(ToyBackend):
    """Answers ``extra`` log-probabilities more (fewer, when negative) to each request whose context ends in MARKED."""

    extra = 0

    def logprobs_batch(self, requests_):
        marked = self.tokenize([MARKED])[0][0]
        return [answer[: len(answer) + self.extra] + [0.0] * self.extra if r.context[-len(marked):] == marked
                else answer for r, answer in zip(requests_, super().logprobs_batch(requests_))]


class OneLogprobShort(MiscountedLogprobs):
    extra = -1


class OneLogprobLong(MiscountedLogprobs):
    extra = 1


PER_SEGMENT = {"selection_scope": "per_segment", "segment_budget": 4, "boundary_slack": 0}


# the selector checks the shape of every backend's answers, not only HttpBackend's wire
@pytest.mark.parametrize("backend_class, thinking, overrides, message, positions", [
    (EmptyTokenize, MARKED, {}, "backend tokenize answer has 0 ids and 0 spans", None),
    (EmptyTokenize, MARKED, PER_SEGMENT, "backend tokenize answer has 0 ids and 0 spans", None),
    (OneLogprobShort, MARKED, {},
     "backend failed scoring thinking tokens [0, 4): 3 log-probabilities answered for 4 tokens", (0, 4)),
    # the second segment's contexts end in MARKED: the kept prefix of "ABC " and then MARKED
    (OneLogprobLong, f"ABC {MARKED}", PER_SEGMENT,
     "backend failed scoring thinking tokens [4, 8): 5 log-probabilities answered for 4 tokens", (4, 8)),
], ids=["empty-tokenize", "empty-tokenize-per-segment", "logprobs-short", "logprobs-long-per-segment"])
def test_an_answer_of_the_wrong_shape_fails_only_its_instance(backend_class, thinking, overrides, message, positions):
    cfg = config(**overrides)
    insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", thinking, "CAB"])]
    outcomes = list(run_lockstep(tasks_for(insts, cfg, backend_class(shift_spec()))))
    result, exc = outcomes[1]
    assert result is None and isinstance(exc, ScoringError)
    assert (str(exc), exc.positions) == (f"instance t-1: {message}", positions)
    for i in (0, 2):
        alone = compress_instance(insts[i], cfg, ToyBackend(shift_spec()))
        assert rows_of(outcomes[i], cfg) == (alone, None)


class TestIterativeSegments:
    def test_segment_two_conditions_on_kept_prefix(self):
        backend = RecordingBackend(ToyBackend(uniform_spec(list("abcdefgh"))))
        inst = instance("abcdefgh", answer="")
        cfg = config(
            alpha=0.5,
            condition_template="",
            selection_scope="per_segment",
            segment_budget=4,
            boundary_slack=0,
        )
        _, _, mask = compress_instance(inst, cfg, backend)
        ids = backend.tokenize(["abcdefgh"])[0][0]
        # zero condition shift -> position tie-break keeps the first half
        assert [i for i, k in enumerate(mask) if k] == [0, 1, 4, 5]
        seg2_scoring = [r for r in backend.requests if r[1] == 2 and r[2] == 6]
        assert seg2_scoring, "second segment was not scored against a 2-token prefix"
        kept_prefix = tuple(ids[:2])
        for context, start, end in seg2_scoring:
            assert context == kept_prefix + tuple(ids[4:8])

    def test_original_prefix_flag_restores_full_history(self):
        backend = RecordingBackend(ToyBackend(uniform_spec(list("abcdefgh"))))
        inst = instance("abcdefgh", answer="")
        cfg = config(
            alpha=0.5,
            condition_template="",
            selection_scope="per_segment",
            segment_budget=4,
            boundary_slack=0,
            iterative_original_prefix=True,
        )
        compress_instance(inst, cfg, backend)
        ids = backend.tokenize(["abcdefgh"])[0][0]
        # one step over [0, n) with the whole thinking as context; the empty
        # condition makes both contexts the same request, sent once
        assert backend.batch_sizes == [1]
        assert backend.requests == [(tuple(ids), 0, len(ids))]

    def test_prefix_flavor_changes_selection_on_crafted_table(self):
        # Segment 1 drops its tail token, so the kept prefix ends in "b" while
        # the original prefix ends in "d"; P(c | b) = 0.5 but P(c | d) = 0.05,
        # which flips whether position 4 survives unconditional ranking.
        vocab = ["a", "b", "c", "d"]
        uniform = {t: 0.25 for t in vocab}
        table = {
            "START": {"a": 0.1, "b": 0.3, "c": 0.3, "d": 0.3},
            "a": {"a": 0.2, "b": 0.2, "c": 0.3, "d": 0.3},
            "b": {"a": 0.1, "b": 0.2, "c": 0.5, "d": 0.2},
            "c": {"a": 0.05, "b": 0.05, "d": 0.9, "c": 0.0},
            "d": {"a": 0.4, "b": 0.4, "c": 0.05, "d": 0.15},
        }
        backend = ToyBackend(ToyLmSpec(vocabulary=vocab, table=table))
        inst = instance("abcdcabd", answer="")
        base = dict(
            alpha=0.5,
            conditional=False,
            condition_template="",
            selection_scope="per_segment",
            segment_budget=4,
            boundary_slack=0,
        )
        _, _, mask_kept = compress_instance(inst, config(**base), backend)
        _, _, mask_orig = compress_instance(
            inst, config(**base, iterative_original_prefix=True), backend
        )
        assert mask_kept != mask_orig

    def test_single_segment_per_segment_equals_global(self, shift_backend):
        inst = instance("ABCABC")
        rec_global, _, _ = compress_instance(inst, config(alpha=0.5), shift_backend)
        rec_seg, _, _ = compress_instance(
            inst, config(alpha=0.5, selection_scope="per_segment"), shift_backend
        )
        assert rec_global == rec_seg
