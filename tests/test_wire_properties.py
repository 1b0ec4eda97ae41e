"""Property tests of the HTTP wire boundary: the answers a reply gives, malformed bodies, and request bodies.

Replies come from a fake transport, without sockets, except where a test
goes through the in-process stub server. The client's one-pass request
bodies and reply checks are held against the json.dumps body and the
per-item checks they replace.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import json
import math
import random
from types import MappingProxyType

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cts.backends import START, HttpBackend, HttpBackendConfig, LogprobRequest, ToyBackend, ToyLmSpec  # noqa: E402
from cts.dataset import CotInstance  # noqa: E402
from cts.errors import BackendProtocolError, BackendUnavailable, ConfigError  # noqa: E402
from cts.selector import SelectionConfig, compress_instance, segment_thinking  # noqa: E402

from conftest import UNREADABLE_JSON, fake_client, random_spec, shift_spec  # noqa: E402
from http_stub import StubServer  # noqa: E402

TEXT = "AB"
REQUEST = LogprobRequest([0, 1, 2], 1, 3)

# any JSON value, as it arrives over the wire (NaN and Infinity included)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=12,
)
not_an_id = st.none() | st.booleans() | st.floats() | st.text(max_size=3) | st.integers(max_value=-1) | \
    st.lists(st.integers(), max_size=2)
not_a_number = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.floats(), max_size=2) | \
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=1)
bad_float = st.floats(min_value=0.0, exclude_min=True) | st.sampled_from([math.nan, math.inf, -math.inf]) | \
    st.integers(min_value=1) | st.integers(max_value=-(10**309))



@st.composite
def tokenize_replies(draw):
    """A /tokenize answer for TEXT that passes every check: TEXT cut anywhere, so empty spans too, ids in [0, 2**63)."""
    bounds = [0, *sorted(draw(st.lists(st.integers(0, len(TEXT)), max_size=5))), len(TEXT)]
    spans = [TEXT[a:b] for a, b in zip(bounds, bounds[1:])]
    return {"token_ids": draw(st.lists(st.integers(0, 2**63 - 1), min_size=len(spans), max_size=len(spans))),
            "spans": spans}


# each a number the client reads exactly as a float
valid_bits = st.integers(min_value=-(2**53), max_value=0) | st.floats(max_value=0.0, allow_nan=False,
                                                                        allow_infinity=False)


class TestAnswers:
    """A reply that passes the checks is answered as the reply's own values."""

    @settings(max_examples=200, deadline=None)
    @given(tokenize_replies())
    def test_tokenize_returns_the_reply_token_ids_and_spans(self, reply):
        assert fake_client([reply]).tokenize([TEXT]) == [(tuple(reply["token_ids"]), reply["spans"])]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(valid_bits, min_size=2, max_size=2))
    def test_logprobs_batch_returns_the_reply_numbers_as_floats(self, bits):
        [answer] = fake_client([{"logprobs_bits": bits}]).logprobs_batch([REQUEST])
        assert answer == bits and all(type(v) is float for v in answer)


TOY = ToyBackend(shift_spec())


class EmptyAfterSpace(ToyBackend):
    """The toy model, answering one more token after each space: "~", with the empty span ""."""

    def _tokenize(self, text):
        ids, spans = super()._tokenize(text)
        out_ids, out_spans = [], []
        for token, span in zip(ids, spans):
            out_ids.append(token)
            out_spans.append(span)
            if span == " ":
                out_ids.append(self._token_to_id["~"])
                out_spans.append("")
        return out_ids, out_spans


@pytest.fixture(scope="module")
def servers():
    """Two stub servers: one of the shift-table toy model, one of EmptyAfterSpace."""
    with StubServer(TOY) as toy, StubServer(EmptyAfterSpace(random_spec(["A", "B", " ", "~"], random.Random(3)))) \
            as empty:
        yield toy, empty


@pytest.fixture(scope="module")
def clients(servers):
    """An HttpBackend on each of ``servers``."""
    backends = [HttpBackend(HttpBackendConfig(base_url=server.url, max_retries=0)) for server in servers]
    yield backends
    for backend in backends:
        backend.close()


class TestThroughTheStub:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(alphabet="ABC :42", max_size=12), max_size=4))
    def test_http_tokenize_equals_the_toy_backend(self, clients, texts):
        assert clients[0].tokenize(texts) == TOY.tokenize(texts)

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="AB ", min_size=1, max_size=40), st.sampled_from([0.3, 0.5, 0.8]))
    def test_an_empty_span_is_accepted_and_no_cut_lands_after_it(self, clients, thinking, alpha):
        client = clients[1]
        config = SelectionConfig(alpha=alpha, condition_template="{answer}", selection_scope="per_segment",
                                 segment_budget=4, boundary_slack=3)
        record, rows, mask = compress_instance(CotInstance("e", "", thinking, "B"), config, client)
        [(_, spans)] = client.tokenize([thinking])
        assert [row.span for row in rows] == spans
        assert record.compressed_thinking == "".join(span for span, keep in zip(spans, mask) if keep)
        # a span "" never ends on a boundary, and each one follows a space, a boundary within the slack
        assert all(spans[seg.start - 1] != "" for seg in segment_thinking(len(spans), spans, config)[1:])


@st.composite
def toy_specs(draw):
    """A (vocabulary, table), as a list or tuple and dicts or read-only mappings.

    A row may be missing, and an entry may be 0, 0.0 or left out of its row;
    a row's one non-zero entry may be the int 1. ToyLmSpec accepts it unless
    it has no START row.
    """
    vocabulary = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=5, unique=True))
    table = {}
    for prev in [START, *vocabulary]:
        weights = draw(st.lists(st.integers(0, 4), min_size=len(vocabulary), max_size=len(vocabulary)))
        if not any(weights) or draw(st.integers(0, 3)) == 0:  # no row
            continue
        total, row = sum(weights), {}
        for tok, w in zip(vocabulary, weights):
            if w == total:
                row[tok] = draw(st.sampled_from([1, 1.0]))
            elif w:
                row[tok] = w / total
            elif draw(st.booleans()):
                row[tok] = draw(st.sampled_from([0, 0.0]))
        table[prev] = draw(st.sampled_from([dict, MappingProxyType]))(row)
    container = draw(st.sampled_from([list, tuple]))
    return container(vocabulary), draw(st.sampled_from([dict, MappingProxyType]))(table)


def reference_bits(spec, request):
    """log2 P of each position of ``request``, from the spec's table of strings: -inf for P = 0."""
    bits = []
    for t in range(request.start, request.end):
        prev = spec.vocabulary[request.context[t - 1]] if t else START
        if prev not in spec.table:
            raise BackendProtocolError(f"toy model has no distribution row for previous token {prev!r}")
        p = spec.table[prev].get(spec.vocabulary[request.context[t]], 0.0)
        bits.append(math.log2(p) if p > 0 else -math.inf)
    return bits


@pytest.fixture(scope="module")
def table_server():
    """A stub server whose toy model a test may replace, and an HttpBackend on it that does not retry."""
    with StubServer(TOY) as server:
        client = HttpBackend(HttpBackendConfig(base_url=server.url, max_retries=0))
        yield server, client
        client.close()


class TestToyTable:
    """ToyBackend scores by lookup in the bits of its spec's table, which the spec holds as it checked it.

    No example count is set here, so CI's "fault-sweep" profile sets it.
    """

    @settings(deadline=None)
    @given(toy_specs(), st.data())
    def test_bits_equal_the_log2_of_the_spec_table_in_process_and_over_the_stub(self, table_server, parts, data):
        vocabulary, table = parts
        if START not in table:  # every request that scores position 0 reads it
            with pytest.raises(ConfigError, match="no 'START' row"):
                ToyLmSpec(vocabulary, table)
            return
        spec = ToyLmSpec(vocabulary, table)
        # the spec holds what it was given and checked, as a tuple and read-only mappings
        assert type(spec.vocabulary) is tuple and spec.vocabulary == tuple(vocabulary)
        assert type(spec.table) is MappingProxyType and spec.table == table
        assert all(type(row) is MappingProxyType for row in spec.table.values())
        context = data.draw(st.lists(st.integers(0, len(vocabulary) - 1), min_size=1, max_size=8))
        start = data.draw(st.integers(0, len(context) - 1))
        request = LogprobRequest(context, start, data.draw(st.integers(start + 1, len(context))))
        backend = ToyBackend(spec)
        try:
            expected = reference_bits(spec, request)
        except BackendProtocolError as exc:
            with pytest.raises(BackendProtocolError) as raised:
                backend.logprobs_batch([request])
            assert str(raised.value) == str(exc)
            expected = None
        else:
            assert backend.logprobs_batch([request]) == [expected]
        server, client = table_server
        server.state.backend = backend
        if expected is None:  # the stub cannot score it, and ends the connection without a reply
            with pytest.raises(BackendUnavailable):
                client.logprobs_batch([request])
        elif -math.inf in expected:  # the wire carries no -inf, and the client refuses the -Infinity it reads
            with pytest.raises(BackendProtocolError, match="non-finite"):
                client.logprobs_batch([request])
        else:
            assert client.logprobs_batch([request]) == [expected]


@st.composite
def request_parts(draw):
    """A (context, start, end) for LogprobRequest: toy-vocabulary ids and a valid span, either perhaps broken.

    A broken id is any int (negative, past the vocabulary, past 2**63), a
    bool, a float or a str; a broken bound is a small int, a bool or a float.
    """
    context = draw(st.lists(st.integers(0, len(TOY.spec.vocabulary) - 1), max_size=6))
    if context and draw(st.booleans()):
        any_id = st.integers() | st.integers(min_value=2**63) | st.booleans() | st.floats() | st.text(max_size=2)
        for i in draw(st.lists(st.integers(0, len(context) - 1), min_size=1, max_size=3)):
            context[i] = draw(any_id)
    start = draw(st.integers(0, max(len(context) - 1, 0)))
    end = draw(st.integers(start + 1, max(len(context), start + 1)))
    if draw(st.booleans()):
        any_bound = st.integers(-1, len(context) + 1) | st.booleans() | st.floats(-1, len(context) + 1)
        start, end = draw(st.just(start) | any_bound), draw(st.just(end) | any_bound)
    return context, start, end


class TestRequestRule:
    """One rule for the requests of every backend, checked where a LogprobRequest is made, which is a value.

    No example count is set here, so CI's "fault-sweep" profile sets it.
    """

    @settings(deadline=None)
    @given(request_parts())
    def test_a_request_builds_iff_the_rule_holds_and_each_backend_checks_only_its_id_range(self, servers, clients,
                                                                                           parts):
        context, start, end = parts
        rule = type(start) is type(end) is int and 0 <= start < end <= len(context) and \
            all(type(token) is int for token in context)
        try:
            request = LogprobRequest(context, start, end)
        except ConfigError:
            assert not rule
            return
        assert rule
        # a value: its context a tuple of the drawn ids, equal and hash equal to the request of that tuple
        assert type(request.context) is tuple and request.context == tuple(context)
        from_tuple = LogprobRequest(tuple(context), start, end)
        assert request == from_tuple and hash(request) == hash(from_tuple)
        posts = servers[0].state.request_count
        if all(0 <= token < len(TOY.spec.vocabulary) for token in context):
            assert clients[0].logprobs_batch([request]) == TOY.logprobs_batch([request])
            return
        with pytest.raises(BackendProtocolError, match="outside vocabulary"):
            TOY.logprobs_batch([request])
        if not all(0 <= token < 2**63 for token in context):
            with pytest.raises(ConfigError, match=r"is not an int in \[0, 2\*\*63\)"):
                clients[0].logprobs_batch([request])
            assert servers[0].state.request_count == posts


class TestWireProperties:
    """Every malformed /tokenize or /logprobs payload is a BackendProtocolError, never another error."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"token_ids": json_values, "spans": json_values}),
        st.fixed_dictionaries({"token_ids": st.lists(json_values, max_size=3),
                               "spans": st.lists(st.sampled_from(["A", "B", "AB"]), max_size=3)}),
        (st.binary(max_size=12) | st.sampled_from(list(UNREADABLE_JSON.values()))).map(lambda b: ("raw", b)),
    ))
    def test_arbitrary_tokenize_payload_parses_or_is_protocol_error(self, payload):
        raw = isinstance(payload, tuple)
        clients = [fake_client(body=payload[1])] if raw else [fake_client(payload), fake_client([payload])]
        for client in clients:
            try:
                [(ids, spans)] = client.tokenize([TEXT])
            except BackendProtocolError:
                continue
            assert "".join(spans) == TEXT
            assert all(type(i) is int and i >= 0 for i in ids)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"logprobs_bits": json_values}),
        st.fixed_dictionaries({"logprobs_bits": st.lists(json_values, min_size=2, max_size=2)}),
    ))
    def test_arbitrary_logprobs_payload_parses_or_is_protocol_error(self, payload):
        for body in (payload, [payload]):
            try:
                bits = fake_client(body).logprobs_batch([REQUEST])[0]
            except BackendProtocolError:
                continue
            assert len(bits) == 2 and all(math.isfinite(v) and v <= 0.0 for v in bits)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corrupted_tokenize_payload_is_protocol_error(self, data):
        payload = {"token_ids": [0, 1], "spans": ["A", "B"]}
        corruption = data.draw(st.sampled_from(["id", "span", "drop", "length", "wrap", "array length", "bare"]))
        body = [payload]
        if corruption == "id":
            payload["token_ids"][data.draw(st.integers(0, 1))] = data.draw(not_an_id)
        elif corruption == "span":
            payload["spans"][data.draw(st.integers(0, 1))] = data.draw(json_values.filter(lambda v: v not in ("A", "B")))
        elif corruption == "drop":
            del payload[data.draw(st.sampled_from(sorted(payload)))]
        elif corruption == "length":
            payload["token_ids"].append(data.draw(st.integers(min_value=0)))
        elif corruption == "wrap":
            body = [data.draw(st.lists(st.just(payload), max_size=2))]
        elif corruption == "array length":
            body = [payload] * data.draw(st.sampled_from([0, 2, 3]))
        else:
            body = payload
        with pytest.raises(BackendProtocolError):
            fake_client(body).tokenize([TEXT])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_corrupted_logprobs_payload_is_protocol_error(self, data):
        bits: list = [-1.0, -0.5]
        corruption = data.draw(st.sampled_from(["type", "value", "length", "container"]))
        if corruption == "type":
            bits[data.draw(st.integers(0, 1))] = data.draw(not_a_number)
        elif corruption == "value":
            bits[data.draw(st.integers(0, 1))] = data.draw(bad_float)
        elif corruption == "length":
            bits = bits[: data.draw(st.integers(0, 1))] or bits + [-1.0]
        else:
            bits = data.draw(st.text(max_size=3) | st.dictionaries(st.text(max_size=2), st.floats(), max_size=2))
        with pytest.raises(BackendProtocolError):
            fake_client([{"logprobs_bits": bits}]).logprobs_batch([REQUEST])


class Capture:
    """A transport that keeps each POST body and answers every request with log-probabilities of -1 bit."""

    def __init__(self):
        self.bodies: list[bytes] = []

    def post(self, path, body, headers):
        self.bodies.append(body)
        reply = [{"logprobs_bits": [-1.0] * (item["end"] - item["start"])} for item in json.loads(body)]
        return 200, {}, json.dumps(reply).encode("utf-8")


@st.composite
def request_batches(draw):
    """1-6 requests over 1-4 contexts, so that requests share a context; ids 0-9, which repeat, and up to 2**40."""
    token_ids = st.integers(0, 9) | st.integers(0, 2**40)
    contexts = draw(st.lists(st.lists(token_ids, min_size=1, max_size=8), min_size=1, max_size=4))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        context = draw(st.sampled_from(contexts))
        start = draw(st.integers(0, len(context) - 1))
        batch.append(LogprobRequest(context, start, draw(st.integers(start + 1, len(context)))))
    return batch


def reference_parse_tokens(data, text):
    """``HttpBackend._parse_tokens`` as it was: one pass over the ids and one over the spans, item by item."""
    ids = data.get("token_ids") if isinstance(data, dict) else None
    spans = data.get("spans") if isinstance(data, dict) else None
    if not isinstance(ids, list) or not isinstance(spans, list):
        raise BackendProtocolError("tokenize response missing the token_ids/spans arrays")
    if len(ids) != len(spans):
        raise BackendProtocolError("tokenize response has mismatched token_ids/spans lengths")
    if not all(type(i) is int and 0 <= i < 2**63 for i in ids):
        raise BackendProtocolError("tokenize response has a token id that is not an int in [0, 2**63)")
    if not all(type(span) is str for span in spans) or "".join(spans) != text:
        raise BackendProtocolError("tokenize spans do not concatenate back to the input text")
    return tuple(ids), spans


def reference_parse_response(data, request):
    """``HttpBackend._parse_response`` as it was: four passes over the values, item by item."""
    raw = data.get("logprobs_bits") if isinstance(data, dict) else None
    if not isinstance(raw, list):
        raise BackendProtocolError("logprob response missing the logprobs_bits array")
    wanted = request.end - request.start
    if len(raw) != wanted:
        raise BackendProtocolError(f"logprob response has {len(raw)} entries, expected {wanted}")
    if not all(type(v) in (int, float) for v in raw):
        raise BackendProtocolError("logprob response has an entry that is not a number")
    try:
        bits = [float(v) for v in raw]
    except OverflowError as exc:
        raise BackendProtocolError("logprob response has an integer too large for a float") from exc
    for v in bits:
        if not math.isfinite(v):
            raise BackendProtocolError("remote backend reported a non-finite log probability")
        if v > 0.0:
            raise BackendProtocolError(f"remote backend reported a positive log probability {v!r} (P > 1)")
    return bits


def outcome(parse, *args):
    """What a parse gives: the repr of its value, which tells -0.0 from 0.0 and 1 from 1.0, or its error."""
    try:
        return repr(parse(*args))
    except Exception as exc:  # noqa: BLE001 - the class and message are what is compared
        return type(exc), str(exc)


class TestOracles:
    """The request body and the reply checks equal the code they replace, byte for byte and error for error.

    No example count is set here, so CI's "fault-sweep" profile sets it.
    """

    @settings(deadline=None)
    @given(st.lists(request_batches(), min_size=1, max_size=3))
    def test_logprobs_body_equals_json_dumps_on_a_fresh_and_a_warm_backend(self, batches):
        capture = Capture()
        client = HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), capture.post)
        for _ in range(2):  # the first round fills the cache of id texts, the second reads it
            for batch in batches:
                client.logprobs_batch(batch)
        oracle = [json.dumps([{"context_ids": list(r.context), "start": r.start, "end": r.end} for r in batch],
                             separators=(",", ":")).encode("utf-8") for batch in batches]
        assert capture.bodies == oracle * 2

    @settings(deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"token_ids": json_values, "spans": json_values}),
        st.fixed_dictionaries({"token_ids": st.lists(json_values | not_an_id | st.integers(min_value=0) |
                                                     st.integers(min_value=2**63), max_size=3),
                               "spans": st.lists(st.sampled_from(["A", "B", "AB", ""]) | json_values, max_size=3)}),
        tokenize_replies(),
    ))
    def test_parse_tokens_equals_the_per_item_checks(self, payload):
        assert outcome(HttpBackend._parse_tokens, payload, TEXT) == outcome(reference_parse_tokens, payload, TEXT)

    @settings(deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"logprobs_bits": json_values}),
        st.fixed_dictionaries({"logprobs_bits": st.lists(json_values | valid_bits | bad_float | not_a_number,
                                                         min_size=2, max_size=2)}),
        st.fixed_dictionaries({"logprobs_bits": st.lists(valid_bits | bad_float, min_size=2, max_size=2)}),
        st.fixed_dictionaries({"logprobs_bits": st.lists(valid_bits | st.sampled_from([-math.inf, math.inf, math.nan]),
                                                         min_size=2, max_size=2)}),
    ))
    def test_parse_response_equals_the_per_item_checks(self, payload):
        client = fake_client()
        assert outcome(client._parse_response, payload, REQUEST) == outcome(reference_parse_response, payload, REQUEST)
