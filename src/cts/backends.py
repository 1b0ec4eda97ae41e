"""Log-probability backends.

A backend is anything that can (a) tokenize text into (token id, surface
span) pairs whose spans concatenate back to the input, and (b) report
per-position next-token log probabilities, base 2, for a span of an id
context. Two implementations ship here:

* ToyBackend - a deterministic table model (per-previous-token
  distributions) used as the test oracle. It is immutable after
  construction and safe to share across threads.
* HttpBackend - a client for a remote scoring endpoint speaking a minimal
  JSON protocol (see README). Scoring only; nothing is ever sampled.

Log base is 2 throughout. Probability zero is reported as -inf, which maps
to perplexity +inf; only the toy backend may produce it.
"""

from __future__ import annotations

import abc
import json
import math
import threading
import time
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Sequence

import requests

from .errors import BackendError, BackendProtocolError, BackendUnavailable, ConfigError, CtsError, TokenizeError

START = "START"  # reserved table key for the start-of-sequence distribution


@dataclass
class LogprobRequest:
    """Ask for log2 P(context[t] | context[:t]) for every t in [start, end)."""

    context: Sequence[int]
    start: int
    end: int


@dataclass
class LogprobResponse:
    logprobs_bits: list[float]


def ppl_of(logprob_bits: float) -> float:
    """Per-token perplexity: 2^(-logprob) = 1/P. -inf maps to +inf."""
    if logprob_bits == -math.inf:
        return math.inf
    return 2.0 ** (-logprob_bits)


def _validate_request(request: LogprobRequest, context_limit: int | None = None) -> None:
    n = len(request.context)
    if not (0 <= request.start < request.end <= n):
        raise ConfigError(
            f"invalid logprob span [{request.start}, {request.end}) for context of length {n}"
        )
    if context_limit is not None:
        for tok in request.context:
            if not (0 <= tok < context_limit):
                raise BackendProtocolError(f"token id {tok} outside vocabulary of size {context_limit}")


class LogprobBackend(abc.ABC):
    """Uniform contract for obtaining per-token log probabilities."""

    name: str = "backend"

    @abc.abstractmethod
    def tokenize(self, text: str) -> list[tuple[int, str]]:
        """Split text into (token id, surface span) pairs.

        The concatenation of spans equals the input byte-for-byte and the
        result is deterministic for a fixed backend. Note that tokenize(x) +
        tokenize(y) need not equal tokenize(x + y); callers must tokenize
        each text field once and concatenate ids.
        """

    @abc.abstractmethod
    def logprobs(self, request: LogprobRequest) -> LogprobResponse:
        """Score one request. Deterministic for fixed backend state."""

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[LogprobResponse]:
        return [self.logprobs(r) for r in requests_]

    def tokenize_batch(self, texts: Sequence[str]) -> list[list[tuple[int, str]]]:
        """Tokenize each text; the answers come back in input order.

        A text that cannot be tokenized raises its error with the text
        attached as ``exc.text``; when several fail, the first in input
        order is raised. This default tokenizes one text after another.
        """
        return [_tokenize_one(self.tokenize, text) for text in texts]


def _tokenize_one(tokenize: Callable[[str], list[tuple[int, str]]], text: str) -> list[tuple[int, str]]:
    try:
        return tokenize(text)
    except CtsError as exc:
        exc.text = text
        raise


@dataclass
class ToyLmSpec:
    """A per-previous-token probability table over a closed vocabulary.

    ``table`` maps a previous token string (or the reserved key "START" for
    sequence-initial positions) to a distribution over vocabulary strings.
    Every probability lies in [0, 1] and every row sums to 1 within 1e-9.
    """

    vocabulary: list[str]
    table: dict[str, dict[str, float]]

    def validate(self) -> None:
        if not self.vocabulary:
            raise ConfigError("toy model vocabulary is empty")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ConfigError("toy model vocabulary contains duplicates")
        if any(not tok for tok in self.vocabulary):
            raise ConfigError("toy model vocabulary contains an empty token")
        if START in self.vocabulary:
            raise ConfigError(f"{START!r} is reserved and may not appear in the vocabulary")
        known = set(self.vocabulary)
        for prev, row in self.table.items():
            if prev != START and prev not in known:
                raise ConfigError(f"table row key {prev!r} is not in the vocabulary")
            total = 0.0
            for tok, p in row.items():
                if tok not in known:
                    raise ConfigError(f"table entry {tok!r} (row {prev!r}) is not in the vocabulary")
                if not (0.0 <= p <= 1.0):
                    raise ConfigError(f"probability {p!r} for {tok!r} (row {prev!r}) outside [0, 1]")
                total += p
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"row {prev!r} sums to {total!r}, expected 1 within 1e-9")

    @classmethod
    def from_file(cls, path: str) -> "ToyLmSpec":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        try:
            spec = cls(vocabulary=list(data["vocabulary"]), table={k: dict(v) for k, v in data["table"].items()})
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed toy model spec {path!r}: {exc}") from exc
        spec.validate()
        return spec


class ToyBackend(LogprobBackend):
    """Deterministic table-model backend; the reference-model stand-in for tests."""

    name = "toy"

    def __init__(self, spec: ToyLmSpec):
        spec.validate()
        self.spec = spec
        self._token_to_id = {tok: i for i, tok in enumerate(spec.vocabulary)}
        self._lengths = sorted({len(tok) for tok in spec.vocabulary}, reverse=True)
        # rows keyed by previous token id; -1 is the START row
        self._rows: dict[int, dict[int, float]] = {}
        for prev, row in spec.table.items():
            prev_id = -1 if prev == START else self._token_to_id[prev]
            self._rows[prev_id] = {self._token_to_id[tok]: p for tok, p in row.items()}

    @property
    def vocab_size(self) -> int:
        return len(self.spec.vocabulary)

    def tokenize(self, text: str) -> list[tuple[int, str]]:
        # greedy longest match over the closed vocabulary
        out: list[tuple[int, str]] = []
        i = 0
        n = len(text)
        while i < n:
            for length in self._lengths:
                candidate = text[i : i + length]
                if len(candidate) == length and candidate in self._token_to_id:
                    out.append((self._token_to_id[candidate], candidate))
                    i += length
                    break
            else:
                raise TokenizeError(f"no vocabulary token matches text at offset {i}: {text[i : i + 16]!r}")
        return out

    def probability(self, prev_id: int, token_id: int) -> float:
        """Table lookup P(token | prev); prev_id -1 selects the START row."""
        row = self._rows.get(prev_id)
        if row is None:
            prev = START if prev_id == -1 else self.spec.vocabulary[prev_id]
            raise BackendProtocolError(f"toy model has no distribution row for previous token {prev!r}")
        return row.get(token_id, 0.0)

    def logprobs(self, request: LogprobRequest) -> LogprobResponse:
        _validate_request(request, context_limit=self.vocab_size)
        ctx = request.context
        bits: list[float] = []
        for t in range(request.start, request.end):
            prev_id = ctx[t - 1] if t > 0 else -1
            p = self.probability(prev_id, ctx[t])
            bits.append(math.log2(p) if p > 0.0 else -math.inf)
        return LogprobResponse(bits)


@dataclass
class HttpBackendConfig:
    base_url: str
    token: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.5
    max_in_flight: int = 8
    natural_log: bool = False  # server reports nats; convert to bits at this boundary


class HttpBackend(LogprobBackend):
    """Client for a remote scoring endpoint.

    POST <base>/logprobs with {"context_ids": [...], "start": s, "end": e}
    returns {"logprobs_bits": [...]}; a JSON array of request objects returns
    an array of responses (batching). POST <base>/tokenize with {"text": ...}
    returns {"token_ids": [...], "spans": [...]}.

    Transport failures and 5xx responses are retried with exponential
    backoff, then surface as BackendUnavailable. Malformed payloads (wrong
    shape or length, non-integer ids, non-numeric, non-finite or positive
    log probabilities, spans that do not reassemble the text) are
    BackendProtocolError and never retried; any other failure to send a
    request is a BackendError. In-flight requests are bounded by
    ``max_in_flight``; requests are idempotent so retries are safe.
    """

    name = "http"

    def __init__(self, config: HttpBackendConfig, session: requests.Session | None = None):
        self.config = config
        base = config.base_url.rstrip("/")
        self._url_logprobs = base + "/logprobs"
        self._url_tokenize = base + "/tokenize"
        self._session = session or requests.Session()
        if config.token:
            self._session.headers["Authorization"] = f"Bearer {config.token}"
        self._slots = threading.BoundedSemaphore(max(1, config.max_in_flight))
        # sends the tokenize POSTs of a batch beyond its first; threads start on first use
        self._pool = futures.ThreadPoolExecutor(max(1, config.max_in_flight), thread_name_prefix="cts-tokenize")

    def _post(self, url: str, payload) -> object:
        last_exc: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.retry_backoff * (2 ** (attempt - 1)))
            try:
                with self._slots:
                    resp = self._session.post(url, json=payload, timeout=self.config.timeout)
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_exc = exc
                continue
            except requests.RequestException as exc:
                raise BackendError(f"request to {url} failed: {exc}") from exc
            if resp.status_code >= 500:
                last_exc = BackendUnavailable(f"{url} returned {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BackendProtocolError(f"{url} returned {resp.status_code}: {resp.text[:200]}")
            try:
                return resp.json()
            except ValueError as exc:
                raise BackendProtocolError(f"{url} returned unparseable JSON") from exc
        raise BackendUnavailable(
            f"{url} unreachable after {self.config.max_retries + 1} attempts: {last_exc}"
        ) from last_exc

    def tokenize(self, text: str) -> list[tuple[int, str]]:
        data = self._post(self._url_tokenize, {"text": text})
        ids = data.get("token_ids") if isinstance(data, dict) else None
        spans = data.get("spans") if isinstance(data, dict) else None
        if not isinstance(ids, list) or not isinstance(spans, list):
            raise BackendProtocolError("tokenize response missing the token_ids/spans arrays")
        if len(ids) != len(spans):
            raise BackendProtocolError("tokenize response has mismatched token_ids/spans lengths")
        if not all(type(i) is int and i >= 0 for i in ids):
            raise BackendProtocolError("tokenize response has a token id that is not a non-negative integer")
        if not all(type(span) is str for span in spans) or "".join(spans) != text:
            raise BackendProtocolError("tokenize spans do not concatenate back to the input text")
        return list(zip(ids, spans))

    def tokenize_batch(self, texts: Sequence[str]) -> list[list[tuple[int, str]]]:
        """Send one /tokenize POST per text, all at once; the first goes from the calling thread.

        Every POST is one call of ``tokenize``, and all of them have finished
        when this returns or raises.
        """
        rest = [self._pool.submit(_tokenize_one, self.tokenize, text) for text in texts[1:]]
        try:
            first = super().tokenize_batch(texts[:1])
        finally:
            futures.wait(rest)
        return first + [future.result() for future in rest]

    @staticmethod
    def _request_payload(request: LogprobRequest) -> dict:
        return {"context_ids": list(request.context), "start": request.start, "end": request.end}

    def _parse_response(self, data, request: LogprobRequest) -> LogprobResponse:
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
        if self.config.natural_log:
            bits = [v / math.log(2) for v in bits]
        for v in bits:
            if not math.isfinite(v):
                raise BackendProtocolError("remote backend reported a non-finite log probability")
            if v > 0.0:
                raise BackendProtocolError(f"remote backend reported a positive log probability {v!r} (P > 1)")
        return LogprobResponse(bits)

    def logprobs(self, request: LogprobRequest) -> LogprobResponse:
        _validate_request(request)
        data = self._post(self._url_logprobs, self._request_payload(request))
        return self._parse_response(data, request)

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[LogprobResponse]:
        if not requests_:
            return []
        for r in requests_:
            _validate_request(r)
        data = self._post(self._url_logprobs, [self._request_payload(r) for r in requests_])
        if not isinstance(data, list) or len(data) != len(requests_):
            raise BackendProtocolError("batched logprob response is not a matching-length array")
        return [self._parse_response(d, r) for d, r in zip(data, requests_)]
