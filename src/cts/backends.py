"""Log-probability backends.

A backend is anything that can (a) tokenize texts into (token id, surface
span) pairs whose spans concatenate back to the input, and (b) report
per-position next-token log probabilities, base 2, for a batch of spans
of id contexts. Two implementations ship here:

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
import functools
import http.client
import json
import math
import random
import ssl
import threading
import time
import urllib.parse
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import BackendError, BackendProtocolError, BackendUnavailable, ConfigError, TokenizeError

START = "START"  # reserved table key for the start-of-sequence distribution
# POSTs an HttpBackend keeps in flight
MAX_IN_FLIGHT = 8


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


def _texts(texts: Sequence[str]) -> Sequence[str]:
    if isinstance(texts, str):  # a str is a sequence of str too: one text per character
        raise TypeError("tokenize takes a sequence of texts, not a str")
    return texts


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

    @abc.abstractmethod
    def tokenize(self, texts: Sequence[str]) -> list[list[tuple[int, str]]]:
        """Split each text into (token id, surface span) pairs, answers in input order.

        A bare str raises TypeError. A text's spans concatenate to it byte
        for byte, and the answer is deterministic for a fixed backend.
        tokenize(x) + tokenize(y) need not equal tokenize(x + y); callers
        must tokenize each text field once and concatenate ids.
        """

    @abc.abstractmethod
    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[LogprobResponse]:
        """Score each request, answers in request order. Deterministic for fixed backend state."""

    def close(self) -> None:
        """Release what the backend holds open; this default holds nothing."""


@dataclass
class ToyLmSpec:
    """A per-previous-token probability table over a closed vocabulary.

    ``table`` maps a previous token string (or the reserved key "START" for
    sequence-initial positions) to a distribution over vocabulary strings.
    The vocabulary is a list of distinct non-empty str and each row a dict;
    every probability is an int or a float (not a bool) in [0, 1] and every
    row sums to 1 within 1e-9.
    """

    vocabulary: list[str]
    table: dict[str, dict[str, float]]

    def validate(self) -> None:
        if type(self.vocabulary) is not list or not all(type(tok) is str and tok for tok in self.vocabulary):
            raise ConfigError(f"toy model vocabulary must be a list of non-empty str, got {self.vocabulary!r}")
        if not self.vocabulary:
            raise ConfigError("toy model vocabulary is empty")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ConfigError("toy model vocabulary contains duplicates")
        if START in self.vocabulary:
            raise ConfigError(f"{START!r} is reserved and may not appear in the vocabulary")
        if type(self.table) is not dict or not all(type(row) is dict for row in self.table.values()):
            raise ConfigError("toy model table must map each previous token to an object of probabilities")
        known = set(self.vocabulary)
        for prev, row in self.table.items():
            if prev != START and prev not in known:
                raise ConfigError(f"table row key {prev!r} is not in the vocabulary")
            total = 0.0
            for tok, p in row.items():
                if tok not in known:
                    raise ConfigError(f"table entry {tok!r} (row {prev!r}) is not in the vocabulary")
                if type(p) not in (int, float) or not (0.0 <= p <= 1.0):
                    raise ConfigError(f"probability {p!r} for {tok!r} (row {prev!r}) is not a number in [0, 1]")
                total += p
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"row {prev!r} sums to {total!r}, expected 1 within 1e-9")

    @classmethod
    def from_file(cls, path: str) -> "ToyLmSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read toy model spec {path!r}: {exc}") from exc
        try:
            spec = cls(vocabulary=data["vocabulary"], table=data["table"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed toy model spec {path!r}: {exc}") from exc
        spec.validate()
        return spec


class ToyBackend(LogprobBackend):
    """Deterministic table-model backend; the reference-model stand-in for tests."""

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

    def tokenize(self, texts: Sequence[str]) -> list[list[tuple[int, str]]]:
        return [self._tokenize(text) for text in _texts(texts)]

    def _tokenize(self, text: str) -> list[tuple[int, str]]:
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

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[LogprobResponse]:
        return [self._score(r) for r in requests_]

    def _score(self, request: LogprobRequest) -> LogprobResponse:
        _validate_request(request, context_limit=len(self.spec.vocabulary))
        ctx = request.context
        bits: list[float] = []
        for t in range(request.start, request.end):
            prev_id = ctx[t - 1] if t > 0 else -1
            p = self.probability(prev_id, ctx[t])
            bits.append(math.log2(p) if p > 0.0 else -math.inf)
        return LogprobResponse(bits)


# post(path, body, headers) -> (status, response headers, response body): one HTTP POST
Transport = Callable[[str, bytes, Mapping[str, str]], tuple[int, Mapping[str, str], bytes]]

# what a reused keep-alive socket raises when the server closed it while it sat
# idle; http.client.RemoteDisconnected is a ConnectionResetError
_STALE = (BrokenPipeError, ConnectionResetError)


def _split_url(url: str) -> urllib.parse.SplitResult:
    parts = urllib.parse.urlsplit(url)
    try:
        parts.port
    except ValueError as exc:
        raise ConfigError(f"backend URL {url!r} has an invalid port") from exc
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"backend URL {url!r} needs an http(s) scheme and a host")
    return parts


def _retry_after(status: int, headers: Mapping[str, str]) -> float | None:
    """The seconds a 503 asks the client to wait, when it gives them as a number."""
    value = headers.get("Retry-After", "") if status == 503 else ""
    return float(value) if value.strip().isdecimal() else None


@dataclass
class HttpBackendConfig:
    base_url: str
    token: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.5
    natural_log: bool = False  # server reports nats; convert to bits at this boundary


class HttpBackend(LogprobBackend):
    """Client for a remote scoring endpoint.

    POST <base>/logprobs with an array of {"context_ids": [...], "start":
    s, "end": e} returns an array of {"logprobs_bits": [...]}, and POST
    <base>/tokenize with an array of {"text": ...} returns an array of
    {"token_ids": [...], "spans": [...]}, one answer per object, in order.

    Each thread sends its POSTs over one keep-alive connection of its own;
    ``close`` closes them all. ``transport`` replaces that connection with
    any ``post(path, body, headers) -> (status, headers, body)``.

    Transport failures and 5xx responses are retried after a full-jitter
    exponential backoff (or the numeric Retry-After of a 503), then surface
    as BackendUnavailable. Malformed payloads (wrong shape or length,
    non-integer ids, non-numeric, non-finite or positive log probabilities,
    spans that do not reassemble the text) are BackendProtocolError and
    never retried; any other failure to send a request is a BackendError.
    In-flight requests are bounded by MAX_IN_FLIGHT; requests are
    idempotent so retries are safe. ``sleep`` and ``uniform`` are the clock
    and random source of the backoff.
    """

    def __init__(
        self,
        config: HttpBackendConfig,
        transport: Transport | None = None,
        *,
        sleep: Callable[[float], None] = time.sleep,
        uniform: Callable[[float, float], float] = random.uniform,
    ):
        self.config = config
        parts = _split_url(config.base_url)
        self._base_url = config.base_url.rstrip("/")
        self._base_path = parts.path.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        if config.token:
            self._headers["Authorization"] = f"Bearer {config.token}"
        connection_class, tls = http.client.HTTPConnection, {}
        if parts.scheme == "https":
            connection_class, tls = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
        self._connect = functools.partial(connection_class, parts.hostname, parts.port, timeout=config.timeout, **tls)
        self._transport = transport or self._send
        self._sleep = sleep
        self._uniform = uniform
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._connections_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(MAX_IN_FLIGHT)

    def close(self) -> None:
        """Close the connection of every thread that sent a POST."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()

    def _send(self, path: str, body: bytes, headers: Mapping[str, str]) -> tuple[int, Mapping[str, str], bytes]:
        """The default transport: one POST on this thread's keep-alive connection.

        A reused socket that the server closed while it sat idle is opened
        again once and the POST resent; that is not a retry.
        """
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._connections_lock:
                self._connections.append(connection)
        reconnects = 0 if connection.sock is None else 1
        while True:
            try:
                connection.request("POST", path, body, headers)
                response = connection.getresponse()
                return response.status, response.headers, response.read()
            except _STALE:
                connection.close()
                if not reconnects:
                    raise
                reconnects -= 1
            except BaseException:
                connection.close()
                raise

    def _post(self, path: str, payload) -> object:
        url = self._base_url + path
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        last_exc: Exception | None = None
        retry_after: float | None = None  # the wait the last failure asked for, if any
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                backoff = self.config.retry_backoff * 2 ** (attempt - 1)
                self._sleep(self._uniform(0.0, backoff) if retry_after is None else retry_after)
            try:
                with self._slots:
                    status, headers, data = self._transport(self._base_path + path, body, self._headers)
            except http.client.InvalidURL as exc:
                raise BackendError(f"request to {url} failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_exc, retry_after = exc, None
                continue
            except ValueError as exc:
                raise BackendError(f"request to {url} failed: {exc}") from exc
            if status >= 500:
                last_exc = BackendUnavailable(f"{url} returned {status}")
                retry_after = _retry_after(status, headers)
                continue
            if status != 200:
                raise BackendProtocolError(f"{url} returned {status}: {data[:200].decode('utf-8', 'replace')}")
            try:
                return json.loads(data)
            except ValueError as exc:
                raise BackendProtocolError(f"{url} returned unparseable JSON") from exc
        raise BackendUnavailable(
            f"{url} unreachable after {self.config.max_retries + 1} attempts: {last_exc}"
        ) from last_exc

    def tokenize(self, texts: Sequence[str]) -> list[list[tuple[int, str]]]:
        data = self._post("/tokenize", [{"text": text} for text in _texts(texts)])
        if not isinstance(data, list) or len(data) != len(texts):
            raise BackendProtocolError("batched tokenize response is not a matching-length array")
        return [self._parse_tokens(d, text) for d, text in zip(data, texts)]

    @staticmethod
    def _parse_tokens(data, text: str) -> list[tuple[int, str]]:
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

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[LogprobResponse]:
        if not requests_:
            return []
        for r in requests_:
            _validate_request(r)
        data = self._post(
            "/logprobs", [{"context_ids": list(r.context), "start": r.start, "end": r.end} for r in requests_]
        )
        if not isinstance(data, list) or len(data) != len(requests_):
            raise BackendProtocolError("batched logprob response is not a matching-length array")
        return [self._parse_response(d, r) for d, r in zip(data, requests_)]
