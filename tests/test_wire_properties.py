"""Property tests of the HTTP wire boundary: malformed /tokenize and /logprobs bodies, no sockets.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cts.backends import LogprobRequest  # noqa: E402
from cts.errors import BackendProtocolError  # noqa: E402

from conftest import fake_client  # noqa: E402

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


class TestWireProperties:
    """Every malformed /tokenize or /logprobs payload is a BackendProtocolError, never another error."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"token_ids": json_values, "spans": json_values}),
        st.fixed_dictionaries({"token_ids": st.lists(json_values, max_size=3),
                               "spans": st.lists(st.sampled_from(["A", "B", "AB"]), max_size=3)}),
        st.binary(max_size=12).map(lambda b: ("raw", b)),
    ))
    def test_arbitrary_tokenize_payload_parses_or_is_protocol_error(self, payload):
        raw = isinstance(payload, tuple)
        clients = [fake_client(body=payload[1])] if raw else [fake_client(payload), fake_client([payload])]
        for client in clients:
            try:
                [pairs] = client.tokenize([TEXT])
            except BackendProtocolError:
                continue
            assert "".join(span for _, span in pairs) == TEXT
            assert all(type(i) is int and i >= 0 for i, _ in pairs)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        json_values,
        st.fixed_dictionaries({"logprobs_bits": json_values}),
        st.fixed_dictionaries({"logprobs_bits": st.lists(json_values, min_size=2, max_size=2)}),
    ))
    def test_arbitrary_logprobs_payload_parses_or_is_protocol_error(self, payload):
        for body in (payload, [payload]):
            try:
                bits = fake_client(body).logprobs_batch([REQUEST])[0].logprobs_bits
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
