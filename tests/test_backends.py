import http.client
import json
import math
import random
import threading

import pytest

from cts.backends import (
    HttpBackend,
    HttpBackendConfig,
    LogprobBackend,
    LogprobRequest,
    ToyBackend,
    ToyLmSpec,
    ppl_of,
)
from cts.cli import main
from cts.dataset import CotInstance
from cts.errors import (
    BackendError,
    BackendProtocolError,
    BackendUnavailable,
    ConfigError,
    ScoringError,
    TokenizeError,
)
from cts.selector import SelectionConfig, compress_instance

from conftest import FakeTransport, fake_client, random_spec, uniform_spec, write_spec_file
from http_stub import StubServer, UntokenizableAnswers


class TestPplOf:
    def test_one_bit(self):
        assert ppl_of(-1.0) == 2.0

    def test_zero_bits_certain_token(self):
        assert ppl_of(0.0) == 1.0

    def test_two_bits(self):
        assert ppl_of(-2.0) == 4.0

    def test_negative_infinity_maps_to_positive_infinity(self):
        assert ppl_of(-math.inf) == math.inf


class TestToyTokenize:
    def test_whitespace_preserving_split(self, uniform4_backend):
        pairs = uniform4_backend.tokenize(["A B"])[0]
        assert [s for _, s in pairs] == ["A", " ", "B"]
        ids = [t for t, _ in pairs]
        assert ids == [uniform4_backend._token_to_id[s] for s in ("A", " ", "B")]

    def test_empty_text(self, uniform4_backend):
        assert uniform4_backend.tokenize([""])[0] == []

    def test_spans_concatenate_to_input(self, uniform4_backend):
        text = "ABC A CB  BA"
        pairs = uniform4_backend.tokenize([text])[0]
        assert "".join(s for _, s in pairs) == text

    def test_unknown_span_reports_offset(self, uniform4_backend):
        with pytest.raises(TokenizeError) as exc:
            uniform4_backend.tokenize(["AXB"])
        assert "offset 1" in str(exc.value)
        assert "X" in str(exc.value)

    def test_greedy_longest_match(self):
        spec = uniform_spec(["a", "ab", "b"])
        backend = ToyBackend(spec)
        assert [s for _, s in backend.tokenize(["ab"])[0]] == ["ab"]
        assert [s for _, s in backend.tokenize(["ba"])[0]] == ["b", "a"]
        assert [s for _, s in backend.tokenize(["abb"])[0]] == ["ab", "b"]

    def test_answers_in_input_order(self, uniform4_backend):
        texts = ["A B", "", "CBA", "A B"]
        assert uniform4_backend.tokenize(texts) == [uniform4_backend.tokenize([t])[0] for t in texts]
        assert uniform4_backend.tokenize([]) == []

    def test_bare_string_is_not_a_batch(self, uniform4_backend):
        with pytest.raises(TypeError, match="not a str"):
            uniform4_backend.tokenize("AB")


class TestToyLogprobs:
    def test_uniform_rows_over_4_tokens(self, uniform4_backend):
        ctx = [t for t, _ in uniform4_backend.tokenize(["ABC"])[0]]
        resp = uniform4_backend.logprobs_batch([LogprobRequest(ctx, 0, 3)])[0]
        assert resp.logprobs_bits == [-2.0, -2.0, -2.0]

    def test_bigram_half_probability(self):
        vocab = ["A", "B"]
        spec = ToyLmSpec(
            vocabulary=vocab,
            table={
                "START": {"A": 1.0},
                "A": {"B": 0.5, "A": 0.5},
                "B": {"A": 1.0},
            },
        )
        backend = ToyBackend(spec)
        ctx = [t for t, _ in backend.tokenize(["AB"])[0]]
        resp = backend.logprobs_batch([LogprobRequest(ctx, 1, 2)])[0]
        assert resp.logprobs_bits == [-1.0]

    def test_eighth_probability_is_three_bits(self):
        # oracle: read P(C | B) = 0.125 directly from the table -> -3 bits
        spec = ToyLmSpec(
            vocabulary=["B", "C"],
            table={
                "START": {"B": 1.0},
                "B": {"C": 0.125, "B": 0.875},
                "C": {"B": 1.0},
            },
        )
        backend = ToyBackend(spec)
        ctx = [t for t, _ in backend.tokenize(["BC"])[0]]
        resp = backend.logprobs_batch([LogprobRequest(ctx, 1, 2)])[0]
        assert resp.logprobs_bits == [-3.0]

    def test_start_row_scores_position_zero(self):
        spec = ToyLmSpec(
            vocabulary=["A", "B"],
            table={"START": {"A": 0.25, "B": 0.75}, "A": {"A": 0.5, "B": 0.5}, "B": {"A": 1.0}},
        )
        backend = ToyBackend(spec)
        ctx = [t for t, _ in backend.tokenize(["A"])[0]]
        assert backend.logprobs_batch([LogprobRequest(ctx, 0, 1)])[0].logprobs_bits == [-2.0]

    def test_zero_probability_reports_negative_infinity(self):
        spec = ToyLmSpec(
            vocabulary=["A", "B"],
            table={"START": {"A": 1.0}, "A": {"A": 1.0}, "B": {"A": 1.0}},
        )
        backend = ToyBackend(spec)
        ctx = [t for t, _ in backend.tokenize(["AB"])[0]]
        bits = backend.logprobs_batch([LogprobRequest(ctx, 0, 2)])[0].logprobs_bits
        assert bits[0] == 0.0
        assert bits[1] == -math.inf
        assert ppl_of(bits[1]) == math.inf

    def test_oracle_equivalence_reciprocal_of_table_entry(self):
        rng = random.Random(7)
        vocab = list("abcdef")
        backend = ToyBackend(random_spec(vocab, rng))
        for _ in range(50):
            ctx = [rng.randrange(len(vocab)) for _ in range(rng.randint(2, 12))]
            start = rng.randrange(len(ctx))
            resp = backend.logprobs_batch([LogprobRequest(ctx, start, len(ctx))])[0]
            for offset, bits in enumerate(resp.logprobs_bits):
                t = start + offset
                prev = ctx[t - 1] if t > 0 else -1
                p = backend.probability(prev, ctx[t])
                assert ppl_of(bits) == pytest.approx(1.0 / p, abs=1e-12)

    def test_determinism(self, uniform4_backend):
        ctx = [t for t, _ in uniform4_backend.tokenize(["ABCA CB"])[0]]
        req = LogprobRequest(ctx, 0, len(ctx))
        assert uniform4_backend.logprobs_batch([req])[0] == uniform4_backend.logprobs_batch([req])[0]

    def test_thread_safety_of_shared_backend(self, shift_backend):
        ctx = [t for t, _ in shift_backend.tokenize(["ABCABC"])[0]]
        req = LogprobRequest(ctx, 0, len(ctx))
        expected = shift_backend.logprobs_batch([req])[0]
        results = [None] * 8

        def work(i):
            results[i] = shift_backend.logprobs_batch([req])[0]

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected for r in results)

    def test_invalid_span_rejected(self, uniform4_backend):
        ctx = [0, 1, 2]
        for start, end in [(-1, 2), (2, 2), (0, 4), (3, 3)]:
            with pytest.raises(ConfigError):
                uniform4_backend.logprobs_batch([LogprobRequest(ctx, start, end)])

    def test_out_of_vocabulary_id_rejected(self, uniform4_backend):
        with pytest.raises(BackendProtocolError):
            uniform4_backend.logprobs_batch([LogprobRequest([0, 99], 1, 2)])


class TestContract:
    def test_backend_without_logprobs_batch_cannot_be_made(self):
        class TokenizeOnly(LogprobBackend):
            def tokenize(self, texts):
                return [[] for _ in texts]

        with pytest.raises(TypeError, match="logprobs_batch"):
            TokenizeOnly()


class TestToyLmSpec:
    def test_row_must_sum_to_one(self):
        spec = ToyLmSpec(vocabulary=["A", "B"], table={"START": {"A": 0.6, "B": 0.6}})
        with pytest.raises(ConfigError):
            spec.validate()

    def test_probability_range_checked(self):
        spec = ToyLmSpec(vocabulary=["A", "B"], table={"START": {"A": 1.5, "B": -0.5}})
        with pytest.raises(ConfigError):
            spec.validate()

    def test_start_reserved(self):
        spec = ToyLmSpec(vocabulary=["START", "B"], table={"START": {"B": 1.0}})
        with pytest.raises(ConfigError):
            spec.validate()

    def test_unknown_row_key_rejected(self):
        spec = ToyLmSpec(vocabulary=["A"], table={"Z": {"A": 1.0}})
        with pytest.raises(ConfigError):
            spec.validate()

    def test_from_file_round_trip(self, tmp_path):
        spec = uniform_spec(["A", "B", " "])
        path = write_spec_file(spec, tmp_path / "spec.json")
        loaded = ToyLmSpec.from_file(path)
        assert loaded.vocabulary == spec.vocabulary
        assert loaded.table == spec.table

    @pytest.mark.parametrize("vocabulary, row", [
        ([1, "A"], {"A": 1.0}),
        ("AB", {"A": 0.5, "B": 0.5}),  # not read as ["A", "B"]
        (["A", "B"], {"A": "1", "B": 0.0}),
        (["A", "B"], {"A": True, "B": 0.0}),  # a bool is not a probability, though True == 1
        (["A", "B"], "AB"),
        (["A", "B"], [["A", 1.0]]),  # not read as {"A": 1.0}
    ], ids=["int-token", "str-vocabulary", "str-probability", "bool-probability", "str-row", "pairs-row"])
    def test_from_file_mistyped_exits_2(self, tmp_path, capfd, vocabulary, row):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"vocabulary": vocabulary, "table": {"START": row}}))
        with pytest.raises(ConfigError):
            ToyLmSpec.from_file(str(path))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps({"problem": "", "thinking": "AB", "answer": "A"}) + "\n")
        assert main([
            "compress", "--input", str(corpus), "--output", str(tmp_path / "out.jsonl"), "--ratio", "0.5",
            "--backend", f"toy:{path}",
        ]) == 2
        assert "Traceback" not in capfd.readouterr().err

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vocabulary": ["A"]}')
        with pytest.raises(ConfigError):
            ToyLmSpec.from_file(str(path))


class TestHttpBackend:
    def _client(self, server, **overrides):
        kwargs = dict(base_url=server.url, max_retries=2, retry_backoff=0.01, timeout=5.0)
        kwargs.update(overrides)
        return HttpBackend(HttpBackendConfig(**kwargs))

    def test_tokenize_and_logprobs_match_local_toy(self, shift_backend):
        with StubServer(shift_backend) as server:
            client = self._client(server)
            text = "AB C:42"
            assert client.tokenize([text])[0] == shift_backend.tokenize([text])[0]
            ctx = [t for t, _ in shift_backend.tokenize([text])[0]]
            req = LogprobRequest(ctx, 1, len(ctx))
            assert client.logprobs_batch([req])[0] == shift_backend.logprobs_batch([req])[0]

    def test_tokenize_is_one_post_answered_in_order(self, shift_backend):
        with StubServer(shift_backend) as server:
            client = self._client(server)
            texts = ["AB C", "42:", "AB C"]
            assert client.tokenize(texts) == shift_backend.tokenize(texts)
            assert server.state.request_count == 1

    def test_bare_string_is_not_a_batch(self):
        transport = FakeTransport([{"token_ids": [0], "spans": ["A"]}])
        client = HttpBackend(HttpBackendConfig(base_url="http://fake"), transport.post)
        with pytest.raises(TypeError, match="not a str"):
            client.tokenize("A")
        assert transport.posts == 0

    def test_batch_matches_sequential(self, shift_backend):
        with StubServer(shift_backend) as server:
            client = self._client(server)
            ctx = [t for t, _ in shift_backend.tokenize(["ABCABC"])[0]]
            reqs = [LogprobRequest(ctx, 0, 3), LogprobRequest(ctx, 3, 6)]
            assert client.logprobs_batch(reqs) == [client.logprobs_batch([r])[0] for r in reqs]
            assert client.logprobs_batch([]) == []

    def test_retries_transient_503_then_succeeds(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.fail_next = 2
            client = self._client(server)
            resp = client.logprobs_batch([LogprobRequest([0, 1, 2], 0, 3)])[0]
            assert resp.logprobs_bits == [-2.0, -2.0, -2.0]

    def test_unreachable_after_retries(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.fail_next = 99
            client = self._client(server)
            with pytest.raises(BackendUnavailable):
                client.logprobs_batch([LogprobRequest([0, 1], 0, 2)])

    def test_connection_refused(self):
        client = HttpBackend(
            HttpBackendConfig(base_url="http://127.0.0.1:9", max_retries=1, retry_backoff=0.01, timeout=0.2)
        )
        with pytest.raises(BackendUnavailable):
            client.logprobs_batch([LogprobRequest([0, 1], 0, 2)])

    def test_short_response_is_protocol_error(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.truncate_logprobs = True
            client = self._client(server)
            before = server.state.request_count
            with pytest.raises(BackendProtocolError):
                client.logprobs_batch([LogprobRequest([0, 1, 2], 0, 3)])
            # protocol errors are not retried
            assert server.state.request_count == before + 1

    def test_non_finite_from_remote_rejected(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.report_non_finite = True
            client = self._client(server)
            with pytest.raises(BackendProtocolError):
                client.logprobs_batch([LogprobRequest([0, 1], 0, 2)])

    def test_corrupt_spans_rejected(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.corrupt_spans = True
            client = self._client(server)
            with pytest.raises(BackendProtocolError):
                client.tokenize(["AB"])

    def test_natural_log_conversion(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.report_nats = True
            client = self._client(server, natural_log=True)
            resp = client.logprobs_batch([LogprobRequest([0, 1, 2], 0, 3)])[0]
            assert resp.logprobs_bits == pytest.approx([-2.0, -2.0, -2.0], abs=1e-12)

    def test_bearer_token_sent(self, uniform4_backend):
        with StubServer(uniform4_backend) as server:
            server.state.required_token = "sekret"
            client = self._client(server, token="sekret")
            client.logprobs_batch([LogprobRequest([0, 1], 0, 2)])
            assert server.state.seen_auth_headers[-1] == "Bearer sekret"
            unauth = self._client(server)
            with pytest.raises(BackendProtocolError):
                unauth.logprobs_batch([LogprobRequest([0, 1], 0, 2)])

    def test_toy_spec_json_wire_format(self, tmp_path):
        # the documented on-disk format: vocabulary list + per-previous-token rows
        payload = {
            "vocabulary": ["A", "B"],
            "table": {"START": {"A": 0.5, "B": 0.5}, "A": {"B": 1.0}, "B": {"A": 1.0}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        backend = ToyBackend(ToyLmSpec.from_file(str(path)))
        ctx = [t for t, _ in backend.tokenize(["AB"])[0]]
        assert backend.logprobs_batch([LogprobRequest(ctx, 0, 2)])[0].logprobs_bits == [-1.0, 0.0]


TEXT = "AB"
REQUEST = LogprobRequest([0, 1, 2], 1, 3)


class TestWireBoundary:
    """Every malformed /tokenize or /logprobs payload is a BackendProtocolError, never another error."""

    @pytest.mark.parametrize("payload", [
        {"token_ids": ["x", 1], "spans": ["A", "B"]},
        {"token_ids": [0.5, 1], "spans": ["A", "B"]},
        {"token_ids": [0, 1], "spans": ["A", 2]},
        {"token_ids": "01", "spans": ["A", "B"]},
    ])
    def test_malformed_tokenize(self, payload):
        with pytest.raises(BackendProtocolError):
            fake_client([payload]).tokenize([TEXT])

    @pytest.mark.parametrize("bits", [[None, -1.0], "-1", [-1.0, "-1"], [-1.0, 0.5], [True, -1.0]])
    def test_malformed_logprobs(self, bits):
        with pytest.raises(BackendProtocolError):
            fake_client([{"logprobs_bits": bits}]).logprobs_batch([REQUEST])

    def test_valid_payloads_still_parse(self):
        assert fake_client([{"token_ids": [0, 1], "spans": ["A", "B"]}]).tokenize([TEXT]) == [[(0, "A"), (1, "B")]]
        assert fake_client([{"logprobs_bits": [-1, 0.0]}]).logprobs_batch([REQUEST])[0].logprobs_bits == [-1.0, 0.0]
        # one response object, not an array of them, is malformed however valid the object
        with pytest.raises(BackendProtocolError):
            fake_client({"logprobs_bits": [-1, 0.0]}).logprobs_batch([REQUEST])
        with pytest.raises(BackendProtocolError):
            fake_client({"token_ids": [0, 1], "spans": ["A", "B"]}).tokenize([TEXT])

    def test_malformed_tokenize_is_a_per_instance_scoring_error(self):
        client = fake_client([{"token_ids": ["x", 1], "spans": ["A", "B"]}])
        with pytest.raises(ScoringError) as exc:
            compress_instance(CotInstance("i-7", "", TEXT, "42"), SelectionConfig(alpha=0.5), client)
        assert exc.value.instance_id == "i-7"

    def test_request_that_cannot_be_sent_is_a_backend_error(self):
        class RaisingTransport(FakeTransport):
            def post(self, path, body, headers):
                self.posts += 1
                raise http.client.InvalidURL(f"URL can't contain control characters: {path!r}")

        transport = RaisingTransport()
        client = HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=2), transport.post)
        with pytest.raises(BackendError):
            client.tokenize([TEXT])
        assert transport.posts == 1  # not retried
        with pytest.raises(ScoringError):
            compress_instance(CotInstance("i-8", "", TEXT, "42"), SelectionConfig(alpha=0.5), client)


@pytest.fixture(params=["toy", "http"])
def either_backend(request, shift_backend):
    if request.param == "toy":
        yield shift_backend
        return
    with StubServer(UntokenizableAnswers(shift_backend.spec)) as server:
        yield HttpBackend(HttpBackendConfig(base_url=server.url, max_retries=0, timeout=5.0))


class TestTokenizeBatch:
    @pytest.mark.parametrize("thinking, answer, field", [
        ("ABX", "Z", "thinking"),  # both untokenizable: the thinking is named
        ("ABX", "42", "thinking"),
        ("ABC", "Z", "condition"),
    ])
    def test_failure_names_the_first_failing_text(self, either_backend, thinking, answer, field):
        with pytest.raises(ScoringError) as exc:
            compress_instance(CotInstance("i-9", "", thinking, answer), SelectionConfig(alpha=0.5), either_backend)
        assert f"instance i-9: cannot tokenize {field}:" in str(exc.value)
        assert exc.value.instance_id == "i-9"

    def test_empty_thinking_is_named_before_the_condition(self, either_backend):
        with pytest.raises(ScoringError, match="thinking text produced no tokens"):
            compress_instance(CotInstance("i-10", "", "", "Z"), SelectionConfig(alpha=0.5), either_backend)

    def test_stub_stuck_at_503_is_unavailable(self, shift_backend):
        with StubServer(shift_backend) as server:
            server.state.fail_next = 10**6
            client = HttpBackend(HttpBackendConfig(base_url=server.url, max_retries=1, retry_backoff=0.01))
            with pytest.raises(BackendUnavailable):
                compress_instance(CotInstance("i-11", "", "ABC", "42"), SelectionConfig(alpha=0.5), client)
