import json
import math
import random
import threading

import pytest

from cts.backends import LogprobBackend, ToyBackend, ToyLmSpec
from cts.dataset import CotInstance, compressed_to_dict
from cts.errors import BackendProtocolError, BackendUnavailable, ConfigError, ScoringError, TokenizeError
from cts.selector import (
    SelectionConfig,
    Segment,
    TokenScoreRow,
    compress_instance,
    compress_steps,
    kept_count_for,
    run_lockstep,
    segment_thinking,
    select_tokens,
)

from conftest import score_global, shift_spec, uniform_spec

CONDITION = "{answer}:"  # renders inside the toy vocabularies used here


def config(**overrides) -> SelectionConfig:
    fields = dict(alpha=0.5, conditional=True, condition_template=CONDITION)
    fields.update(overrides)
    return SelectionConfig(**fields)


def instance(thinking: str, answer: str = "42", problem: str = "", iid: str = "t-0") -> CotInstance:
    return CotInstance(id=iid, problem=problem, thinking=thinking, answer=answer)


def rows_from(scores: list[float]) -> list[TokenScoreRow]:
    return [TokenScoreRow(i, 0, "x", 1.0, 1.0, s) for i, s in enumerate(scores)]


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
    return tuple(t for t, _ in backend.tokenize([text])[0])


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
        cfg = config(condition_template="no placeholder here")
        with pytest.raises(ConfigError):
            compress_instance(instance("A"), cfg, shift_backend)

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


class TestSegmentThinking:
    def test_under_budget_single_segment(self):
        segs = segment_thinking(10, ["x"] * 10, config(segment_budget=512))
        assert segs == [Segment(0, 10, 0)]

    def test_forced_split_without_candidates(self):
        segs = segment_thinking(1000, ["x"] * 1000, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.end) for s in segs] == [(0, 512), (512, 1000)]

    def test_snaps_to_whitespace_boundary(self):
        # oracle: last qualifying cut in [480, 512) is 500 (span 499 ends in space)
        spans = ["x"] * 520
        spans[499] = "x "
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.end) for s in segs] == [(0, 500), (500, 520)]

    def test_prefers_latest_qualifying_boundary(self):
        spans = ["x"] * 520
        spans[489] = "x."
        spans[505] = "x\n"
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert segs[0].end == 506

    def test_candidate_outside_slack_ignored(self):
        spans = ["x"] * 520
        spans[470] = "x "  # cut 471 < 512 - 32
        segs = segment_thinking(520, spans, config(segment_budget=512, boundary_slack=32))
        assert [(s.start, s.end) for s in segs] == [(0, 512), (512, 520)]

    def test_partition_properties_random(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 400)
            budget = rng.randint(1, 60)
            slack = rng.randint(0, budget - 1)
            spans = [rng.choice(["x", "x ", "y.", "z"]) for _ in range(n)]
            segs = segment_thinking(n, spans, config(segment_budget=budget, boundary_slack=slack))
            assert segs[0].start == 0
            assert segs[-1].end == n
            for a, b in zip(segs, segs[1:]):
                assert a.end == b.start
            assert all(s.end - s.start >= 1 for s in segs)
            assert all(s.end - s.start <= budget for s in segs)
            assert [s.ordinal for s in segs] == list(range(len(segs)))


class TestSelectTokens:
    def test_distinct_scores_keep_top_half(self):
        rows = rows_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        result = select_tokens(rows, config(alpha=0.5))
        assert [i for i, k in enumerate(result.kept_mask) if k] == [5, 6, 7, 8, 9]
        assert result.threshold == 6
        assert result.kept_count == 5

    def test_alpha_one_keeps_everything(self):
        rows = rows_from([3.0, 1.0, 2.0])
        result = select_tokens(rows, config(alpha=1.0))
        assert result.kept_mask == [True, True, True]

    def test_all_equal_scores_tie_break_by_position(self):
        rows = rows_from([7.0] * 10)
        result = select_tokens(rows, config(alpha=0.5))
        assert [i for i, k in enumerate(result.kept_mask) if k] == [0, 1, 2, 3, 4]

    def test_minimum_one_token_kept(self):
        rows = rows_from([1.0, 2.0, 3.0])
        result = select_tokens(rows, config(alpha=0.01))
        assert result.kept_count == 1

    def test_round_half_up(self):
        assert kept_count_for(0.5, 10) == 5
        assert kept_count_for(0.15, 10) == 2
        assert kept_count_for(0.25, 10) == 3  # 2.5 rounds up
        assert kept_count_for(0.7, 10) == 7
        assert kept_count_for(0.29, 100) == 29
        assert kept_count_for(1.0, 7) == 7
        assert kept_count_for(0.01, 5) == 1  # floor is the minimum retention

    def test_per_segment_scope_selects_within_each_segment(self):
        # the segment loop selects over each segment's rows; masks follow the rows given
        rows = rows_from([10, 9, 8, 7, 1, 2, 3, 4])
        cfg = config(alpha=0.5, selection_scope="per_segment")
        mask = select_tokens(rows[0:4], cfg).kept_mask + select_tokens(rows[4:8], cfg).kept_mask
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
            rows = rows_from(scores)
            previous: set[int] = set()
            for alpha in (0.1, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
                result = select_tokens(rows, config(alpha=alpha))
                kept = {i for i, k in enumerate(result.kept_mask) if k}
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
        record, rows, selection = compress_instance(inst, cfg, shift_backend)
        # brute force: rank every position by (score desc, position asc), keep 5
        order = sorted(range(10), key=lambda i: (-rows[i].score, i))
        kept = sorted(order[:5])
        expected = "".join(inst.thinking[i] for i in kept)
        assert record.compressed_thinking == expected
        assert record.kept_count == 5
        assert record.actual_ratio == 0.5
        assert [i for i, k in enumerate(selection.kept_mask) if k] == kept

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
            record, _, sel = compress_instance(inst, config(alpha=rng.choice([0.3, 0.5, 0.8])), shift_backend)
            spans = [s for _, s in shift_backend.tokenize([thinking])[0]]
            rebuilt = "".join(s for s, keep in zip(spans, sel.kept_mask) if keep)
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
    """Each config's selection of one instance, run in lockstep."""
    return [result for result, _ in run_lockstep([(compress_steps(inst, cfg), backend) for cfg in configs])]


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
        outcomes = run_lockstep([(compress_steps(inst, config(conditional=False)), backend) for inst in insts])
        assert backend.tokenized == [["AB", "Z"], ["AB"], ["Z"]]
        result, exc = outcomes[1]
        assert result is None and isinstance(exc.__cause__, TokenizeError)
        assert str(exc).startswith("instance t-1: cannot tokenize thinking: ")
        for i in (0, 2):
            assert outcomes[i] == (compress_instance(insts[i], config(conditional=False), shift_backend), None)

    def test_unavailable_backend_ends_the_batch(self, shift_backend):
        class Down(RecordingBackend):
            def tokenize(self, texts):
                super().tokenize(texts)
                raise BackendUnavailable("down")

        backend = Down(shift_backend)
        with pytest.raises(BackendUnavailable):
            run_lockstep([(compress_steps(instance("AB", answer="C"), config()), backend)])
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
        # five segments, one batch each; the unconditional mode shares segment
        # 0, and with the original prefix every segment; kept prefixes differ
        # between the modes, so segments 1-4 hold a third context
        assert backend.batch_sizes == [2] + ([2] * 4 if original_prefix else [3] * 4)


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
        outcomes = run_lockstep(tasks_for(group, config(), backend))
        # a's two contexts once, b's two
        assert backend.batch_sizes == [4]
        assert len(set(backend.requests)) == 4
        assert outcomes == [(compress_instance(i, config(), shift_backend), None) for i in group]

    def test_one_batch_per_backend_per_step(self, shift_backend):
        standard, tuned = RecordingBackend(shift_backend), RecordingBackend(shift_backend)
        cfg = config(selection_scope="per_segment", segment_budget=4, boundary_slack=0)
        insts = [instance("ABC ABC", iid="a"), instance("AB", iid="b"), instance("ABCABCABC", iid="c")]
        tasks = tasks_for(insts[:2], cfg, standard) + tasks_for(insts[2:], cfg, tuned)
        outcomes = run_lockstep(tasks)
        # steps: a has 2 segments, b 1 and c 3; two contexts per segment
        assert standard.batch_sizes == [4, 2]
        assert tuned.batch_sizes == [2, 2, 2]
        assert outcomes == [(compress_instance(i, cfg, shift_backend), None) for i in insts]

    @pytest.mark.parametrize("scope, batch_sizes, failed_range", [
        ("global", [4, 1, 1, 1, 1], "[0, 4)"),
        # the bad token is in the second segment of t-1: the first step goes through
        ("per_segment", [4, 4, 1, 1, 1, 1, 1], "[2, 4)"),
    ])
    def test_failed_batch_is_sent_again_task_by_task(self, shift_backend, scope, batch_sizes, failed_range):
        cfg = config(conditional=False, selection_scope=scope, segment_budget=2, boundary_slack=0)
        insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", "BA2C", "CAB", "C C"])]
        [(two, _)] = shift_backend.tokenize(["2"])[0]

        def failing():
            return FailsOnToken(shift_backend, two, BackendProtocolError("bad reply"))

        backend = failing()
        outcomes = run_lockstep(tasks_for(insts, cfg, backend))
        assert backend.batch_sizes == batch_sizes
        with pytest.raises(ScoringError) as alone:
            compress_instance(insts[1], cfg, failing())
        assert str(alone.value) == f"instance t-1: backend failed scoring thinking tokens {failed_range}: bad reply"
        result, exc = outcomes[1]
        assert result is None and str(exc) == str(alone.value) and exc.positions == alone.value.positions
        for inst, outcome in zip(insts, outcomes):
            if inst is not insts[1]:
                assert outcome == (compress_instance(inst, cfg, shift_backend), None)

    def test_unavailable_backend_is_not_asked_again(self, shift_backend):
        [(two, _)] = shift_backend.tokenize(["2"])[0]
        backend = FailsOnToken(shift_backend, two, BackendUnavailable("down"))
        insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", "AB2C", "CAB"])]
        with pytest.raises(BackendUnavailable):
            run_lockstep(tasks_for(insts, config(), backend))
        assert backend.batch_sizes == [6]

    def test_no_tasks(self):
        assert run_lockstep([]) == []


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
        marked = [t for t, _ in self.tokenize([MARKED])[0]]
        return answers[:-1] if any(list(r.context[-len(marked):]) == marked for r in requests_) else answers


@pytest.mark.parametrize("backend_class, message", [
    (ShortTokenize, "instance t-1: cannot tokenize thinking: "),
    (ShortLogprobs, "instance t-1: backend failed scoring thinking tokens [0, 4): "),
], ids=["tokenize", "logprobs"])
def test_a_call_short_of_answers_fails_only_the_instance_at_fault(backend_class, message):
    # the group's call is one answer short, so each item goes out alone; only MARKED's calls are short then
    backend = backend_class(shift_spec())
    insts = [instance(t, iid=f"t-{i}") for i, t in enumerate(["ABC A", MARKED, "CAB"])]
    outcomes = run_lockstep(tasks_for(insts, config(), backend))
    result, exc = outcomes[1]
    assert result is None and isinstance(exc, ScoringError) and isinstance(exc.__cause__, BackendProtocolError)
    assert str(exc).startswith(message)
    for i in (0, 2):
        assert outcomes[i] == (compress_instance(insts[i], config(), ToyBackend(shift_spec())), None)


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
        _, _, selection = compress_instance(inst, cfg, backend)
        ids = [t for t, _ in backend.tokenize(["abcdefgh"])[0]]
        # zero condition shift -> position tie-break keeps the first half
        assert [i for i, k in enumerate(selection.kept_mask) if k] == [0, 1, 4, 5]
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
        ids = [t for t, _ in backend.tokenize(["abcdefgh"])[0]]
        seg2_scoring = [r for r in backend.requests if r[1] == 4 and r[2] == 8]
        assert seg2_scoring
        for context, start, end in seg2_scoring:
            assert context == tuple(ids)

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
        _, _, sel_kept = compress_instance(inst, config(**base), backend)
        _, _, sel_orig = compress_instance(
            inst, config(**base, iterative_original_prefix=True), backend
        )
        assert sel_kept.kept_mask != sel_orig.kept_mask

    def test_single_segment_per_segment_equals_global(self, shift_backend):
        inst = instance("ABCABC")
        rec_global, _, _ = compress_instance(inst, config(alpha=0.5), shift_backend)
        rec_seg, _, _ = compress_instance(
            inst, config(alpha=0.5, selection_scope="per_segment"), shift_backend
        )
        assert rec_global == rec_seg
