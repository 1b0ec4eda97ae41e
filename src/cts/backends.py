"""Log-probability backends.

A backend is anything that can (a) tokenize texts into token ids and
their surface spans, which concatenate back to the input, and (b) report
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
import queue
import random
import re
import ssl
import time
import urllib.parse
from array import array
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .dataset import JSON_ERRORS, read_json_file
from .errors import BackendError, BackendProtocolError, BackendUnavailable, ConfigError, TokenizeError

START = "START"  # reserved table key for the start-of-sequence distribution
_MAPPINGS = (dict, MappingProxyType)  # the types a toy spec's table and rows may have
# keep-alive connections an HttpBackend holds, so also the most POSTs it has in flight
MAX_IN_FLIGHT = 8


def _bad_id(token) -> ConfigError:
    return ConfigError(f"context id {token!r} is not an int in [0, 2**63)")


@dataclass(frozen=True)
class LogprobRequest:
    """Ask for log2 P(context[t] | context[:t]) for every t in [start, end): a frozen value, checked when made."""

    context: tuple[int, ...]  # stored as a tuple (a tuple as itself), so equal requests are one dict key
    start: int
    end: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "context", tuple(self.context))
        n = len(self.context)
        if type(self.start) is not int or type(self.end) is not int or not 0 <= self.start < self.end <= n:
            raise ConfigError(f"invalid logprob span [{self.start}, {self.end}) for context of length {n}")
        if set(map(type, self.context)) != {int}:  # True and 1.0 would score, and key a request, as 1
            raise _bad_id(next(token for token in self.context if type(token) is not int))


def ppl_of(logprob_bits: float) -> float:
    """Per-token perplexity: 2^(-logprob) = 1/P. -inf, and any value below -1024 bits, maps to +inf."""
    try:
        return 2.0 ** (-logprob_bits)
    except OverflowError:  # past the largest float, which 2.0 ** 1024 is
        return math.inf


def _texts(texts: Sequence[str]) -> Sequence[str]:
    if isinstance(texts, str):  # a str is a sequence of str too: one text per character
        raise TypeError("tokenize takes a sequence of texts, not a str")
    return texts


class LogprobBackend(abc.ABC):
    """Uniform contract for obtaining per-token log probabilities."""

    @abc.abstractmethod
    def tokenize(self, texts: Sequence[str]) -> list[tuple[tuple[int, ...], list[str]]]:
        """Split each text into tokens: one (ids, spans) per text, in input order.

        ids is a tuple and spans a list of equal length, one entry per token;
        so every selection of one text shares the ids of its answer. A bare
        str raises TypeError. A text's spans concatenate to it byte for
        byte, and the answer is deterministic for a fixed backend.
        tokenize(x) + tokenize(y) need not equal tokenize(x + y); callers
        must tokenize each text field once and concatenate ids.
        """

    @abc.abstractmethod
    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[list[float]]:
        """Score each request: one list of log2 P for [start, end) per request, in order; deterministic."""

    def close(self) -> None:
        """Release what the backend holds open; this default holds nothing."""


@dataclass(frozen=True)
class ToyLmSpec:
    """A per-previous-token probability table over a closed vocabulary: a frozen value, checked when made.

    ``table`` maps a previous token string (or the reserved key "START" for
    sequence-initial positions) to a distribution over vocabulary strings.
    The vocabulary, a list or tuple of distinct non-empty str, is stored as a
    tuple, and the table and its rows, each a dict or read-only mapping, as
    read-only copies, before they are checked: every probability is an int or
    a float (not a bool) in [0, 1], every row sums to 1 within 1e-9, and the table has a "START" row.
    """

    vocabulary: tuple[str, ...]
    table: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        if type(self.vocabulary) not in (list, tuple) or not all(type(tok) is str and tok for tok in self.vocabulary):
            raise ConfigError(f"toy model vocabulary must be a list of non-empty str, got {self.vocabulary!r}")
        if type(self.table) not in _MAPPINGS or not all(type(row) in _MAPPINGS for row in self.table.values()):
            raise ConfigError("toy model table must map each previous token to an object of probabilities")
        object.__setattr__(self, "vocabulary", tuple(self.vocabulary))
        rows = {prev: MappingProxyType(dict(row)) for prev, row in self.table.items()}
        object.__setattr__(self, "table", MappingProxyType(rows))
        if not self.vocabulary:
            raise ConfigError("toy model vocabulary is empty")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ConfigError("toy model vocabulary contains duplicates")
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
                if type(p) not in (int, float) or not (0.0 <= p <= 1.0):
                    raise ConfigError(f"probability {p!r} for {tok!r} (row {prev!r}) is not a number in [0, 1]")
                total += p
            if abs(total - 1.0) > 1e-9:
                raise ConfigError(f"row {prev!r} sums to {total!r}, expected 1 within 1e-9")
        if START not in self.table:  # every request that scores position 0 reads it
            raise ConfigError(f"toy model table has no {START!r} row for sequence-initial positions")

    @classmethod
    def from_file(cls, path: str) -> "ToyLmSpec":
        data = read_json_file(path, "toy model spec")
        try:
            return cls(vocabulary=data["vocabulary"], table=data["table"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed toy model spec {path!r}: {exc}") from exc


class ToyBackend(LogprobBackend):
    """Deterministic table-model backend for tests: it scores by lookup in the log2 of its spec's table."""

    def __init__(self, spec: ToyLmSpec):
        self.spec = spec
        self._token_to_id = {tok: i for i, tok in enumerate(spec.vocabulary)}
        self._ids = frozenset(self._token_to_id.values())
        self._lengths = sorted({len(tok) for tok in spec.vocabulary}, reverse=True)
        # log2 P(token | previous token) by ids, -inf where P is 0 or the row leaves the token out: an array (a
        # quarter of a list's memory) per previous id, None for no row, the START row last, so that id -1 reads it
        self._names = (*spec.vocabulary, START)
        self._bits = [None if row is None else array("d", [math.log2(p) if p > 0.0 else -math.inf
                                                         for p in map(row.get, spec.vocabulary, repeat(0.0))])
                      for row in map(spec.table.get, self._names)]

    def tokenize(self, texts: Sequence[str]) -> list[tuple[tuple[int, ...], list[str]]]:
        return [self._tokenize(text) for text in _texts(texts)]

    def _tokenize(self, text: str) -> tuple[tuple[int, ...], list[str]]:
        # greedy longest match over the closed vocabulary
        spans: list[str] = []
        i = 0
        while i < len(text):
            for length in self._lengths:
                candidate = text[i : i + length]
                if len(candidate) == length and candidate in self._token_to_id:
                    spans.append(candidate)
                    i += length
                    break
            else:
                raise TokenizeError(f"no vocabulary token matches text at offset {i}: {text[i : i + 16]!r}")
        return tuple(map(self._token_to_id.__getitem__, spans)), spans

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[list[float]]:
        return [self._score(r) for r in requests_]

    def _score(self, request: LogprobRequest) -> list[float]:
        ctx, start, end = request.context, request.start, request.end
        if not self._ids.issuperset(ctx):  # one pass in C: faster than min and max, or a loop
            bad = next(tok for tok in ctx if tok not in self._ids)
            raise BackendProtocolError(f"token id {bad} outside vocabulary of size {len(self._ids)}")
        prevs = ctx[start - 1 : end - 1] if start else (-1, *ctx[: end - 1])
        try:  # one pass in C: the row of each position's previous token, then its entry
            return list(map(array.__getitem__, map(self._bits.__getitem__, prevs), ctx[start:end]))
        except TypeError:  # a None row
            prev = self._names[next(prev for prev in prevs if self._bits[prev] is None)]
            raise BackendProtocolError(f"toy model has no distribution row for previous token {prev!r}") from None


# post(path, body, headers) -> (status, response headers, response body): one HTTP POST
Transport = Callable[[str, bytes, Mapping[str, str]], tuple[int, Mapping[str, str], bytes]]

# what a reused keep-alive socket raises when the server closed it while it sat
# idle; http.client.RemoteDisconnected is a ConnectionResetError
_STALE = (BrokenPipeError, ConnectionResetError)


def without_userinfo(text: str) -> str:
    """``text``, a URL or descriptor, without what precedes an ``@`` in its host part: after ``//``, or at its start."""
    return re.sub(r"^([^/?#]*//)?[^/?#]*@", r"\1", text, count=1)


def _split_url(url: str) -> urllib.parse.SplitResult:
    try:
        split = urllib.parse.urlsplit(url)
        # http.client would send neither a user name nor a password
        if split.username is not None:
            raise ConfigError("a backend URL may not hold a user name or password; give a bearer token in "
                              "CTS_BACKEND_TOKEN")
        split.port
    except ValueError as exc:  # an IPv6 host without its closing bracket, or a port that is not one
        raise ConfigError(f"backend URL {without_userinfo(url)!r} has an invalid port or IPv6 host: {exc}") from exc
    if split.scheme not in ("http", "https") or not split.hostname:
        raise ConfigError(f"backend URL {without_userinfo(url)!r} needs an http(s) scheme and a host")
    # http.client sends a path only of printable ASCII; urlsplit drops tabs and newlines unseen
    if split.query or split.fragment or re.search(r"[^\x21-\x7e]", split.path) or re.search(r"[\t\n\r]", url):
        raise ConfigError(f"backend URL {without_userinfo(url)!r} cannot be sent: it needs a printable ASCII path, "
                          "no tab or newline, and no query or fragment (the request paths would drop them)")
    return split


def _retry_after(status: int, headers: Mapping[str, str]) -> float | None:
    """The seconds a 503 asks the client to wait, when it gives them as a number."""
    value = headers.get("Retry-After", "") if status == 503 else ""
    return float(value) if value.strip().isdecimal() else None


class _IdTexts(dict):
    """The decimal text of each context id a backend has sent, admitted at its first use.

    So it holds one entry per distinct id seen, whatever the vocabulary's
    size; each is checked against the wire's id range once, when admitted.
    """

    def __missing__(self, token: int) -> str:
        if not 0 <= token < 2**63:
            raise _bad_id(token)
        text = self[token] = str(token)
        return text


@dataclass
class HttpBackendConfig:
    base_url: str
    token: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    retry_backoff: float = 0.5


class HttpBackend(LogprobBackend):
    """Client for a remote scoring endpoint.

    POST <base>/logprobs with an array of {"context_ids": [...], "start":
    s, "end": e} returns an array of {"logprobs_bits": [...]}, and POST
    <base>/tokenize with an array of {"text": ...} returns an array of
    {"token_ids": [...], "spans": [...]}, one answer per object, in order.

    POSTs go over a pool of MAX_IN_FLIGHT keep-alive connections, which
    bounds both the POSTs in flight and the open sockets: each POST takes
    the most recently used idle connection, waiting while all are busy, and
    a connection opens its socket at its first POST. ``close`` closes every
    connection; one used after that opens again. ``transport`` replaces the
    pool with any ``post(path, body, headers) -> (status, headers, body)``,
    and is not bounded.

    Transport failures and 5xx responses are retried after a full-jitter
    exponential backoff (or the numeric Retry-After of a 503, at most
    ``config.timeout``), then surface as BackendUnavailable. Malformed
    payloads (wrong shape or length, token ids not ints in [0, 2**63),
    non-numeric, non-finite or positive log probabilities, spans that do not
    reassemble the text) are BackendProtocolError and never retried; any other
    failure to send a request is a BackendError. A request's types and span
    are checked where it is made (LogprobRequest); a context id outside
    [0, 2**63) fails its call with a ConfigError, before any POST.
    Requests are idempotent so retries are safe. ``sleep`` and ``uniform``
    are the clock and random source of the backoff. A token or base URL
    that http.client cannot send is a ConfigError here, before any POST.
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
        url = _split_url(config.base_url)
        self._base_url = config.base_url.rstrip("/")
        self._base_path = url.path.rstrip("/")
        self._headers = {"Content-Type": "application/json"}
        if config.token:
            if re.search(r"[^\x20-\x7e\xa0-\xff]", config.token):  # never print the token itself
                raise ConfigError("the backend token (CTS_BACKEND_TOKEN) holds a control character or one outside "
                                  "Latin-1, which an HTTP header cannot carry")
            self._headers["Authorization"] = f"Bearer {config.token}"
        connection_class, tls = http.client.HTTPConnection, {}
        if url.scheme == "https":
            connection_class, tls = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
        connect = functools.partial(connection_class, url.hostname, url.port, timeout=config.timeout, **tls)
        try:  # no socket opens before a connection's first POST
            self._connections = [connect() for _ in range(MAX_IN_FLIGHT)]
        except http.client.InvalidURL as exc:
            raise ConfigError(f"backend URL {without_userinfo(config.base_url)!r} has an invalid host: {exc}") from exc
        self._idle: queue.LifoQueue[http.client.HTTPConnection] = queue.LifoQueue()
        for connection in self._connections:
            self._idle.put(connection)
        self._transport = transport or self._send
        self._id_texts = _IdTexts()
        self._sleep = sleep
        self._uniform = uniform

    def close(self) -> None:
        """Close every connection of the pool."""
        for connection in self._connections:
            connection.close()

    def _send(self, path: str, body: bytes, headers: Mapping[str, str]) -> tuple[int, Mapping[str, str], bytes]:
        """The default transport: one POST on the most recently used idle connection of the pool.

        A reused socket that the server closed while it sat idle is opened
        again once and the POST resent; that is not a retry.
        """
        connection = self._idle.get()
        try:
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
        finally:
            self._idle.put(connection)

    def _post(self, path: str, body: bytes) -> object:
        url = self._base_url + path
        last_exc: Exception | None = None
        retry_after: float | None = None  # the wait the last failure asked for, if any
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                backoff = self.config.retry_backoff * 2 ** (attempt - 1)
                self._sleep(self._uniform(0.0, backoff) if retry_after is None else retry_after)
            try:
                status, headers, data = self._transport(self._base_path + path, body, self._headers)
            except (http.client.InvalidURL, ValueError) as exc:  # an InvalidURL is an HTTPException too
                raise BackendError(f"request to {url} failed: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_exc, retry_after = exc, None
                continue
            if status >= 500:
                last_exc = BackendUnavailable(f"{url} returned {status}")
                retry_after = _retry_after(status, headers)
                if retry_after is not None:  # never longer for a retry than for a reply
                    retry_after = min(retry_after, self.config.timeout)
                continue
            if status != 200:
                raise BackendProtocolError(f"{url} returned {status}: {data[:200].decode('utf-8', 'replace')}")
            try:
                return json.loads(data)
            except JSON_ERRORS as exc:
                raise BackendProtocolError(f"{url} returned unparseable JSON") from exc
        raise BackendUnavailable(
            f"{url} unreachable after {self.config.max_retries + 1} attempts: {last_exc}"
        ) from last_exc

    def tokenize(self, texts: Sequence[str]) -> list[tuple[tuple[int, ...], list[str]]]:
        payload = [{"text": text} for text in _texts(texts)]
        data = self._post("/tokenize", json.dumps(payload, separators=(",", ":")).encode("utf-8"))
        if not isinstance(data, list) or len(data) != len(texts):
            raise BackendProtocolError("batched tokenize response is not a matching-length array")
        return [self._parse_tokens(d, text) for d, text in zip(data, texts)]

    @staticmethod
    def _parse_tokens(data, text: str) -> tuple[tuple[int, ...], list[str]]:
        ids = data.get("token_ids") if isinstance(data, dict) else None
        spans = data.get("spans") if isinstance(data, dict) else None
        if not isinstance(ids, list) or not isinstance(spans, list):
            raise BackendProtocolError("tokenize response missing the token_ids/spans arrays")
        if len(ids) != len(spans):
            raise BackendProtocolError("tokenize response has mismatched token_ids/spans lengths")
        if ids and (set(map(type, ids)) != {int} or min(ids) < 0 or max(ids) >= 2**63):
            raise BackendProtocolError("tokenize response has a token id that is not an int in [0, 2**63)")
        if not set(map(type, spans)) <= {str} or "".join(spans) != text:
            raise BackendProtocolError("tokenize spans do not concatenate back to the input text")
        return tuple(ids), spans

    def _parse_response(self, data, request: LogprobRequest) -> list[float]:
        raw = data.get("logprobs_bits") if isinstance(data, dict) else None
        if not isinstance(raw, list):
            raise BackendProtocolError("logprob response missing the logprobs_bits array")
        wanted = request.end - request.start
        if len(raw) != wanted:
            raise BackendProtocolError(f"logprob response has {len(raw)} entries, expected {wanted}")
        types = set(map(type, raw))
        if not types <= {int, float}:
            raise BackendProtocolError("logprob response has an entry that is not a number")
        try:
            bits = list(map(float, raw)) if int in types else raw
        except OverflowError as exc:
            raise BackendProtocolError("logprob response has an integer too large for a float") from exc
        # min and max need a value, and a request spans at least one position; the loop names the first fault
        if any(map(math.isnan, bits)) or min(bits) == -math.inf or max(bits) > 0.0:
            for v in bits:
                if not math.isfinite(v):
                    raise BackendProtocolError("remote backend reported a non-finite log probability")
                if v > 0.0:
                    raise BackendProtocolError(f"remote backend reported a positive log probability {v!r} (P > 1)")
        return bits

    def logprobs_batch(self, requests_: Sequence[LogprobRequest]) -> list[list[float]]:
        if not requests_:
            return []
        data = self._post("/logprobs", self._logprobs_body(requests_))
        if not isinstance(data, list) or len(data) != len(requests_):
            raise BackendProtocolError("batched logprob response is not a matching-length array")
        return [self._parse_response(d, r) for d, r in zip(data, requests_)]

    def _logprobs_body(self, requests_: Sequence[LogprobRequest]) -> bytes:
        """The /logprobs body, from cached id texts: byte for byte what compact ``json.dumps`` writes.

        That is ``json.dumps(payload, separators=(",", ":")).encode()`` of
        the array of ``{"context_ids": [...], "start": s, "end": e}``.
        """
        objects = []
        for r in requests_:
            ids = ",".join(map(self._id_texts.__getitem__, r.context))
            objects.append(f'{{"context_ids":[{ids}],"start":{r.start},"end":{r.end}}}')  # ints: JSON text is str
        return f"[{','.join(objects)}]".encode()
