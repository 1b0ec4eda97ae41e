"""Minimal in-process HTTP server implementing the scoring wire protocol.

Wraps a ToyBackend so client tests can compare remote answers against
direct calls. Behaviors (error injection, nats reporting, auth) are
configurable per server instance.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from cts.backends import LogprobRequest, ToyBackend
from cts.errors import TokenizeError


class UntokenizableAnswers(ToyBackend):
    """A stub model that answers a text outside its vocabulary with no tokens, which the client rejects."""

    def _tokenize(self, text):
        try:
            return super()._tokenize(text)
        except TokenizeError:
            return []


class StubState:
    def __init__(self, backend: ToyBackend):
        self.backend = backend
        self.fail_next = 0  # respond 503 this many times before succeeding
        self.truncate_logprobs = False
        self.report_nats = False
        self.report_non_finite = False
        self.corrupt_spans = False
        self.required_token: str | None = None
        self.seen_auth_headers: list[str | None] = []
        self.request_count = 0


class _Handler(BaseHTTPRequestHandler):
    state: StubState

    def log_message(self, *args):  # keep test output quiet
        pass

    def _read_json(self):
        length = int(self.headers.get("Content-Length", "0"))
        return json.loads(self.rfile.read(length).decode("utf-8"))

    def _send(self, code: int, payload) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        state = self.state
        state.request_count += 1
        state.seen_auth_headers.append(self.headers.get("Authorization"))
        # read the body before any reply: on a keep-alive connection an
        # unread body would be parsed as the next request
        data = self._read_json()
        if state.required_token is not None:
            if self.headers.get("Authorization") != f"Bearer {state.required_token}":
                self._send(401, {"error": "unauthorized"})
                return
        if state.fail_next > 0:
            state.fail_next -= 1
            self._send(503, {"error": "busy"})
            return
        if self.path.endswith("/tokenize"):
            self._send(200, [self._tokens(pairs) for pairs in state.backend.tokenize([d["text"] for d in data])])
            return
        if self.path.endswith("/logprobs"):
            self._send(200, [self._score(d) for d in data])
            return
        self._send(404, {"error": "unknown path"})

    def _tokens(self, pairs: list) -> dict:
        spans = [s for _, s in pairs]
        if self.state.corrupt_spans and spans:
            spans = spans[:-1] + [spans[-1] + "?"]
        return {"token_ids": [t for t, _ in pairs], "spans": spans}

    def _score(self, payload: dict) -> dict:
        state = self.state
        req = LogprobRequest(payload["context_ids"], payload["start"], payload["end"])
        bits = state.backend.logprobs_batch([req])[0].logprobs_bits
        if state.report_nats:
            bits = [b * math.log(2) for b in bits]
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
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)

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
