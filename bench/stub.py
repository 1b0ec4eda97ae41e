"""Benchmark-owned scoring server: a ToyBackend behind the README wire protocol.

Run as a process of its own:

    python3 bench/stub.py --spec spec.json --post-ms 10 --token-us 4

It prints ``PORT <n>`` on its first stdout line and serves until SIGTERM.
Routing and scoring reuse the handler of ``tests/http_stub.py``; this
subclass adds HTTP/1.1 keep-alive, a simulated model time per POST and
counters, which ``GET /stats`` returns and resets.

Model time is simulated as a fixed cost per POST plus a cost per context
token: the prefill work a real model would do for the same request.
Without ``disable_nagle_algorithm`` each POST on a keep-alive connection
would stall on Nagle's algorithm plus the client's delayed ACK.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import signal
import sys
import threading
import time
from http.server import ThreadingHTTPServer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_test_stub():
    """Import tests/http_stub.py by path, so no `tests` package or sys.path entry is needed."""
    path = os.path.join(ROOT, "tests", "http_stub.py")
    spec = importlib.util.spec_from_file_location("cts_bench_http_stub", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Counters:
    """Per-interval stub counters; every handler thread updates them under one lock."""

    def __init__(self):
        self.lock = threading.Lock()
        self.in_flight = 0
        self.reset()

    def reset(self) -> None:
        self.posts = 0
        self.context_tokens = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self.service_s: list[float] = []
        self.max_concurrency = self.in_flight

    def drain(self) -> dict:
        with self.lock:
            out = {
                "posts": self.posts,
                "context_tokens": self.context_tokens,
                "request_bytes": self.request_bytes,
                "response_bytes": self.response_bytes,
                "busy_s": sum(self.service_s),
                "service_s": self.service_s,
                "max_concurrency": self.max_concurrency,
            }
            self.reset()
        return out


def make_handler(base, counters: Counters, post_s: float, token_s: float):
    class BenchHandler(base):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True

        def do_GET(self):
            if self.path == "/stats":
                super()._send(200, counters.drain())
            else:
                super()._send(404, {"error": "unknown path"})

        def do_POST(self):
            started = time.perf_counter()
            with counters.lock:
                counters.in_flight += 1
                counters.max_concurrency = max(counters.max_concurrency, counters.in_flight)
            self._context_tokens = 0
            self._response_bytes = 0
            try:
                super().do_POST()
            finally:
                elapsed = time.perf_counter() - started
                with counters.lock:
                    counters.in_flight -= 1
                    counters.posts += 1
                    counters.context_tokens += self._context_tokens
                    counters.request_bytes += int(self.headers.get("Content-Length", "0"))
                    counters.response_bytes += self._response_bytes
                    counters.service_s.append(elapsed)

        def _score(self, payload: dict) -> dict:
            self._context_tokens += len(payload["context_ids"])
            return super()._score(payload)

        def _send(self, code: int, payload) -> None:
            # the reply leaves only after the simulated model time
            time.sleep(post_s + token_s * self._context_tokens)
            super()._send(code, payload)

        def send_header(self, keyword: str, value: str) -> None:
            if keyword == "Content-Length":
                self._response_bytes = int(value)
            super().send_header(keyword, value)

    return BenchHandler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="toy model spec JSON")
    parser.add_argument("--post-ms", type=float, required=True, help="simulated model time per POST")
    parser.add_argument("--token-us", type=float, required=True, help="simulated model time per context token")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from cts.backends import ToyBackend, ToyLmSpec

    test_stub = _load_test_stub()
    state = test_stub.StubState(ToyBackend(ToyLmSpec.from_file(args.spec)))
    counters = Counters()
    handler = make_handler(test_stub._Handler, counters, args.post_ms / 1e3, args.token_us / 1e6)
    handler.state = state
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"PORT {httpd.server_address[1]}", flush=True)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
