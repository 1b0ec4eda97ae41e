"""Minimal in-process HTTP server implementing the scoring wire protocol.

Wraps a ToyBackend so client tests can compare remote answers against
direct calls. Behaviors (error injection, nats reporting, auth, a seeded
fault plan) are configurable per server instance.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cts.backends import LogprobRequest, ToyBackend
from cts.errors import TokenizeError

# Each marker token names the endpoint it strikes and its fault there: a call whose texts
# (/tokenize) or contexts (/logprobs) hold the marker gets the fault, so the instances that
# must fail follow from the corpus alone. "short" is a reply array one answer short; "nan" and
# "positive" put a NaN or a positive log-probability into the answers that hold the marker.
MARKERS = {
    "!": ("/tokenize", "unauthorized"),
    "#": ("/tokenize", "short"),
    "$": ("/logprobs", "unauthorized"),
    "&": ("/logprobs", "short"),
    "%": ("/logprobs", "nan"),
    "^": ("/logprobs", "positive"),
}
TRANSIENT_FAULTS = ("503", "503-retry-after-0", "close")


class FaultPlan:
    """Seeded faults: the permanent ones of MARKERS, and transient ones.

    A request gets a transient fault (TRANSIENT_FAULTS: a 503, a 503 with
    ``Retry-After: 0``, or its connection closed before the reply) when a
    hash of (seed, path, body, attempt) falls below ``transient``. The
    attempt counts the earlier receipts of the same path and body, so the
    plan repeats under any thread interleaving.
    """

    def __init__(self, seed: int, transient: float = 0.0):
        self.seed = seed
        self.transient = transient

    def transient_fault(self, path: str, body: bytes, attempt: int) -> str | None:
        digest = hashlib.sha256(f"{self.seed}:{path}:{attempt}:".encode() + body).digest()
        if int.from_bytes(digest[:8], "big") >= self.transient * 2**64:
            return None
        return TRANSIENT_FAULTS[digest[8] % len(TRANSIENT_FAULTS)]


class UntokenizableAnswers(ToyBackend):
    """A stub model that answers a text outside its vocabulary with no tokens, which the client rejects."""

    def _tokenize(self, text):
        try:
            return super()._tokenize(text)
        except TokenizeError:
            return [], []


class ShortAnswers(ToyBackend):
    """The toy model in process, one answer short in each call whose texts or contexts hold any marker.

    Unlike HttpBackend it does not check its own answer count, so only
    its caller can catch the fault.
    """

    def tokenize(self, texts):
        answers = super().tokenize(texts)
        return answers[:-1] if any(marker in text for text in texts for marker in MARKERS) else answers

    def logprobs_batch(self, requests_):
        answers = super().logprobs_batch(requests_)
        marked = {self._token_to_id[marker] for marker in MARKERS if marker in self._token_to_id}
        return answers[:-1] if any(marked.intersection(r.context) for r in requests_) else answers


class StubState:
    def __init__(self, backend: ToyBackend):
        self.backend = backend
        self.fail_next = 0  # respond 503 this many times before succeeding
        self.truncate_logprobs = False
        self.report_non_finite = False
        self.corrupt_spans = False
        self.required_token: str | None = None
        self.seen_auth_headers: list[str | None] = []
        self.request_count = 0
        self.faults: FaultPlan | None = None
        self.lock = threading.Lock()
        self.attempts: Counter = Counter()  # (path, body) -> receipts so far
        self.last_transient: dict[tuple, bool] = {}  # (path, body) -> whether its last reply was a transient fault


class _Handler(BaseHTTPRequestHandler):
    state: StubState

    def log_message(self, *args):  # keep test output quiet
        pass

    def _read_body(self) -> bytes:
        return self.rfile.read(int(self.headers.get("Content-Length", "0")))

    def _send(self, code: int, payload, headers=()) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        state = self.state
        state.request_count += 1
        state.seen_auth_headers.append(self.headers.get("Authorization"))
        # read the body before any reply: on a keep-alive connection an
        # unread body would be parsed as the next request
        body = self._read_body()
        data = json.loads(body.decode("utf-8"))
        if state.required_token is not None:
            if self.headers.get("Authorization") != f"Bearer {state.required_token}":
                self._send(401, {"error": "unauthorized"})
                return
        if state.fail_next > 0:
            state.fail_next -= 1
            self._send(503, {"error": "busy"})
            return
        if state.faults is not None and self._transient_fault(body):
            return
        if self.path.endswith("/tokenize"):
            answers = [self._tokens(*answer) for answer in state.backend.tokenize([d["text"] for d in data])]
        elif self.path.endswith("/logprobs"):
            answers = [self._score(d) for d in data]
        else:
            self._send(404, {"error": "unknown path"})
            return
        faults = self._marker_faults(data) if state.faults is not None else []
        if "unauthorized" in faults:
            self._send(401, {"error": "unauthorized"})
            return
        for answer, fault in zip(answers, faults):
            if fault in ("nan", "positive"):
                answer["logprobs_bits"][0] = math.nan if fault == "nan" else 1.0
        self._send(200, answers[:-1] if "short" in faults else answers)

    def _marker_faults(self, data: list) -> list[str | None]:
        """The permanent fault of each item of the request: that of the first marker in it that strikes here."""
        if self.path.endswith("/tokenize"):
            endpoint, texts = "/tokenize", [d["text"] for d in data]
        else:
            vocabulary = self.state.backend.spec.vocabulary
            endpoint, texts = "/logprobs", ["".join(vocabulary[i] for i in d["context_ids"]) for d in data]
        return [next((kind for marker, (where, kind) in MARKERS.items() if where == endpoint and marker in text), None)
                for text in texts]

    def _transient_fault(self, body: bytes) -> bool:
        """Answer this request's transient fault of the fault plan, if it has one."""
        state = self.state
        key = (self.path, body)
        with state.lock:
            fault = state.faults.transient_fault(self.path, body, state.attempts[key])
            state.attempts[key] += 1
            state.last_transient[key] = fault is not None
        if fault == "close":
            self.close_connection = True  # no reply: the client sees the connection end
        elif fault is not None:
            self._send(503, {"error": "busy"}, [("Retry-After", "0")] if fault == "503-retry-after-0" else [])
        return fault is not None

    def _tokens(self, ids: list, spans: list) -> dict:
        if self.state.corrupt_spans and spans:
            spans = spans[:-1] + [spans[-1] + "?"]
        return {"token_ids": ids, "spans": spans}

    def _score(self, payload: dict) -> dict:
        state = self.state
        req = LogprobRequest(payload["context_ids"], payload["start"], payload["end"])
        bits = state.backend.logprobs_batch([req])[0]
        if state.report_non_finite:
            bits = [-math.inf] * len(bits)
        if state.truncate_logprobs and bits:
            bits = bits[:-1]
        return {"logprobs_bits": bits}


class StubServer:
    def __init__(self, backend: ToyBackend):
        self.state = StubState(backend)
        handler = type("BoundHandler", (_Handler,), {"state": self.state})
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        # shutdown waits for the serve loop to poll, so poll often
        self.thread = threading.Thread(target=self.httpd.serve_forever, args=(0.01,), daemon=True)

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "StubServer":
        self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


class CountingStub(StubServer):
    """The test stub, counting the connections it accepts and the ones that end.

    ``protocol_version`` "HTTP/1.1" keeps a connection open between replies;
    the test stub's own "HTTP/1.0" closes it after each. With
    ``drop_after_reply`` the server closes every connection after one reply
    without saying so, as a server does with a keep-alive connection that
    sat idle too long.
    """

    def __init__(self, backend, protocol_version="HTTP/1.1", drop_after_reply=False):
        super().__init__(backend)
        self.accepted: list[int] = []  # list.append is atomic across handler threads
        self.closed: list[int] = []
        stub = self

        class Handler(self.httpd.RequestHandlerClass):
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                stub.accepted.append(1)

            def finish(self):
                try:
                    super().finish()
                finally:
                    stub.closed.append(1)

            def do_POST(self):
                super().do_POST()
                self.close_connection = self.close_connection or drop_after_reply

        Handler.protocol_version = protocol_version
        self.httpd.RequestHandlerClass = Handler

    def wait_until_all_closed(self, timeout=5.0) -> bool:
        deadline = time.monotonic() + timeout
        while len(self.closed) < len(self.accepted) and time.monotonic() < deadline:
            time.sleep(0.01)
        return len(self.closed) == len(self.accepted)
