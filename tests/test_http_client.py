"""The HTTP client's connections, lifecycle and retry schedule, against real sockets and a fake transport."""

import json
import os
import random
import subprocess
import sys
import threading
import time
from contextlib import closing

import pytest

import cts.cli
from cts.backends import HttpBackend, HttpBackendConfig, LogprobRequest, ToyBackend
from cts.cli import main
from cts.errors import BackendError, BackendUnavailable, ConfigError

from conftest import make_corpus, shift_spec, write_jsonl_file, write_spec_file
from http_stub import StubServer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def client_for(server, **overrides):
    sleeps: list[float] = []
    kwargs = dict(base_url=server.url, max_retries=0, timeout=5.0)
    kwargs.update(overrides)
    return HttpBackend(HttpBackendConfig(**kwargs), sleep=sleeps.append), sleeps


REQUEST = LogprobRequest([0, 1, 2], 0, 3)


class TestKeepAlive:
    def test_sequential_posts_share_one_connection(self, shift_backend):
        with CountingStub(shift_backend) as server:
            client, _ = client_for(server)
            with closing(client):
                for _ in range(5):
                    assert client.tokenize("AB C") == shift_backend.tokenize("AB C")
            assert server.state.request_count == 5
            assert len(server.accepted) == 1
            assert server.wait_until_all_closed()

    def test_connection_dropped_by_the_server_is_reopened_without_a_retry(self, shift_backend):
        with CountingStub(shift_backend, drop_after_reply=True) as server:
            client, sleeps = client_for(server)
            with closing(client):
                for _ in range(5):
                    assert client.logprobs(REQUEST) == shift_backend.logprobs(REQUEST)
            assert server.state.request_count == 5
            assert len(server.accepted) == 5
            assert sleeps == []

    def test_connection_close_server_works_on_every_request(self, shift_backend):
        with CountingStub(shift_backend, protocol_version="HTTP/1.0") as server:
            client, sleeps = client_for(server)
            with closing(client):
                for _ in range(5):
                    assert client.logprobs(REQUEST) == shift_backend.logprobs(REQUEST)
            assert len(server.accepted) == server.state.request_count == 5
            assert sleeps == []

    def test_retry_after_a_503_is_read_on_the_same_connection(self, shift_backend):
        with CountingStub(shift_backend) as server:
            server.state.fail_next = 1
            client, sleeps = client_for(server, max_retries=1)
            with closing(client):
                assert client.tokenize("AB") == shift_backend.tokenize("AB")
            assert server.state.request_count == 2
            assert len(server.accepted) == 1
            assert len(sleeps) == 1

    def test_token_that_cannot_be_a_header_is_a_backend_error(self, shift_backend):
        with CountingStub(shift_backend) as server:
            client, sleeps = client_for(server, token="tok\nen", max_retries=2)
            with closing(client), pytest.raises(BackendError) as exc:
                client.logprobs(REQUEST)
            assert type(exc.value) is BackendError  # not retried, not unavailable
            assert sleeps == [] and server.state.request_count == 0


class TestLifecycle:
    def test_close_closes_the_connections_of_every_thread(self, shift_backend):
        n_threads, posts = 8, 5
        with CountingStub(shift_backend) as server:
            client, _ = client_for(server)
            start = threading.Barrier(n_threads, timeout=5)
            answers = []  # list.append is atomic

            def work():
                start.wait()
                for _ in range(posts):
                    answers.append(client.logprobs(REQUEST))

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work) for _ in range(n_threads)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert answers == [shift_backend.logprobs(REQUEST)] * (n_threads * posts)
            # one connection per thread; the threads have ended, their connections are still open
            assert len(server.accepted) == n_threads
            assert not server.wait_until_all_closed(timeout=0.1)
            client.close()
            assert server.wait_until_all_closed()

    def test_compress_leaves_no_connection_open(self, tmp_path):
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        records = make_corpus(12, list("ABC "), random.Random(3))
        corpus = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        with CountingStub(ToyBackend(shift_spec())) as server:
            code = main([
                "compress", "--input", corpus, "--output", str(tmp_path / "out.jsonl"), "--ratio", "0.7",
                "--backend", f"http:{server.url}", "--condition-template", "{answer}:", "--workers", "2",
            ])
            assert code == 0
            assert server.state.request_count == 3 * 12
            # at most one per thread of the tokenize stage (2 * 2) and of the score stage (2)
            assert 1 <= len(server.accepted) <= 2 * 2 + 2
            assert server.wait_until_all_closed()
        assert (tmp_path / "out.jsonl").read_bytes() == _compress_with_toy(corpus, spec_path, tmp_path)


class ToyTransport:
    """Answers POSTs from a toy model as the test stub does, noting the path and thread of each."""

    def __init__(self, backend):
        self.backend = backend
        self.posts: list[tuple[str, threading.Thread]] = []  # list.append is atomic

    def post(self, path, body, headers):
        self.posts.append((path, threading.current_thread()))
        data = json.loads(body)
        if path == "/tokenize":
            pairs = self.backend.tokenize(data["text"])
            reply = {"token_ids": [t for t, _ in pairs], "spans": [s for _, s in pairs]}
        else:
            requests_ = [LogprobRequest(d["context_ids"], d["start"], d["end"]) for d in data]
            reply = [{"logprobs_bits": self.backend.logprobs(r).logprobs_bits} for r in requests_]
        return 200, {}, json.dumps(reply).encode("utf-8")


class ScoringHeldBack(ToyTransport):
    """Holds the first ``held`` /logprobs replies until ``ahead_text`` is sent to /tokenize.

    Each held reply notes whether that /tokenize came before it (True) or
    the wait timed out (False). With ``held`` workers all scoring, only
    tokenization that runs ahead of scoring can end the wait.
    """

    def __init__(self, backend, ahead_text, held=2):
        super().__init__(backend)
        self.ahead_text = ahead_text
        self.ahead = threading.Event()
        self.held = held
        self.waits: list[bool] = []
        self.lock = threading.Lock()

    def post(self, path, body, headers):
        if path == "/tokenize" and json.loads(body)["text"] == self.ahead_text:
            self.ahead.set()
        if path == "/logprobs":
            with self.lock:
                hold = self.held > 0
                self.held -= hold
            if hold:
                self.waits.append(self.ahead.wait(timeout=5))
        return super().post(path, body, headers)


class TokenizeBarrier(ToyTransport):
    """Holds each of the first ``parties`` /tokenize POSTs until all of them are in flight.

    Each held POST notes whether the others came (True) or the wait timed out (False).
    """

    def __init__(self, backend, parties):
        super().__init__(backend)
        self.barrier = threading.Barrier(parties, timeout=5)
        self.held = parties
        self.waits: list[bool] = []
        self.lock = threading.Lock()

    def post(self, path, body, headers):
        if path == "/tokenize":
            with self.lock:
                hold = self.held > 0
                self.held -= hold
            if hold:
                try:
                    self.barrier.wait()
                    self.waits.append(True)
                except threading.BrokenBarrierError:
                    self.waits.append(False)
        return super().post(path, body, headers)


class TestPipeline:
    """compress tokenizes each instance in a stage that runs ahead of scoring."""

    @pytest.fixture
    def corpus(self, tmp_path):
        records = make_corpus(10, list("ABC "), random.Random(11))
        return records, write_jsonl_file(records, tmp_path / "corpus.jsonl")

    def compress(self, monkeypatch, tmp_path, corpus_path, transport, workers):
        def build_backend(descriptor):
            return HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), transport.post)

        monkeypatch.setattr(cts.cli, "build_backend", build_backend)
        out = tmp_path / "out.jsonl"
        code = main([
            "compress", "--input", corpus_path, "--output", str(out), "--ratio", "0.7",
            "--backend", "http:http://fake", "--condition-template", "{answer}:", "--workers", str(workers),
        ])
        assert code == 0
        return out.read_bytes()

    def test_instance_k_plus_2_is_tokenized_before_instance_k_is_scored(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        # the first two scoring POSTs are those of instances 0 and 1; both wait for instance 3
        transport = ScoringHeldBack(ToyBackend(shift_spec()), records[3]["thinking"])
        written = self.compress(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        assert transport.waits == [True, True]
        assert len(transport.posts) == 3 * len(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_two_workers_have_four_tokenize_posts_in_flight(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        # each of the 2 * 2 tokenize threads sends its instance's thinking while the others do
        transport = TokenizeBarrier(ToyBackend(shift_spec()), parties=4)
        written = self.compress(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        assert transport.waits == [True] * 4
        assert len(transport.posts) == 3 * len(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_one_worker_tokenizes_ahead_of_scoring(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        # instance 0's scoring POST waits for instance 2's thinking, so the calling thread cannot send it
        transport = ScoringHeldBack(ToyBackend(shift_spec()), records[2]["thinking"], held=1)
        written = self.compress(monkeypatch, tmp_path, corpus_path, transport, workers=1)
        assert transport.waits == [True]
        assert len(transport.posts) == 3 * len(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_one_worker_posts_from_the_calling_thread(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        self.compress(monkeypatch, tmp_path, corpus_path, transport, workers=1)
        assert len(transport.posts) == 3 * len(records)
        # scoring stays on the calling thread; tokenization runs ahead on the tokenize stage's threads
        scorers = {thread for path, thread in transport.posts if path == "/logprobs"}
        assert scorers == {threading.current_thread()}


class ScoringOutage(CountingStub):
    """Serves /tokenize, and answers 503 to every /logprobs POST once ``healthy`` POSTs were answered.

    Each /tokenize reply takes ``tokenize_s``, so tokenization is still in
    flight when scoring fails.
    """

    def __init__(self, backend, healthy, tokenize_s=0.02):
        super().__init__(backend)
        state = self.state

        class Handler(self.httpd.RequestHandlerClass):
            def do_POST(self):
                if self.path.endswith("/tokenize"):
                    time.sleep(tokenize_s)
                elif state.request_count >= healthy:
                    self._read_json()
                    self._send(503, {"error": "busy"})
                    return
                super().do_POST()

        self.httpd.RequestHandlerClass = Handler


# with a condition each instance sends two /tokenize POSTs, without one a single POST
@pytest.mark.parametrize("condition", [["--condition-template", "{answer}:"], ["--no-conditional"]],
                         ids=["conditional", "unconditional"])
def test_outage_while_scoring_stops_both_stages(tmp_path, monkeypatch, capfd, condition):
    def fast_config(**kwargs):
        return HttpBackendConfig(**kwargs, max_retries=0)

    monkeypatch.setattr(cts.cli, "HttpBackendConfig", fast_config)
    records = make_corpus(40, list("ABC "), random.Random(13))
    corpus = write_jsonl_file(records, tmp_path / "corpus.jsonl")
    before = set(threading.enumerate())

    def started_threads():
        # the stub's handler threads are daemons; every thread the run starts is not
        return [t for t in threading.enumerate() if t not in before and not t.daemon]

    alive_at_close = []
    close = HttpBackend.close

    def recording_close(self):
        alive_at_close.extend(started_threads())
        close(self)

    monkeypatch.setattr(HttpBackend, "close", recording_close)
    with ScoringOutage(ToyBackend(shift_spec()), healthy=6) as server:
        code = main([
            "compress", "--input", corpus, "--output", str(tmp_path / "out.jsonl"), "--ratio", "0.7",
            "--backend", f"http:{server.url}", *condition, "--workers", "2",
        ])
        assert code == 3
        assert alive_at_close == []  # both stages stopped before the backend closed
        assert started_threads() == []
        assert server.wait_until_all_closed()
    assert "Traceback" not in capfd.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def _compress_with_toy(corpus, spec_path, tmp_path) -> bytes:
    out = tmp_path / "toy.jsonl"
    assert main([
        "compress", "--input", corpus, "--output", str(out), "--ratio", "0.7",
        "--backend", f"toy:{spec_path}", "--condition-template", "{answer}:",
    ]) == 0
    return out.read_bytes()


class Replies:
    """A transport that answers with the given (status, headers) pairs in turn, then 200."""

    def __init__(self, *replies):
        self.replies = list(replies)

    def post(self, path, body, headers):
        if self.replies:
            status, reply_headers = self.replies.pop(0)
            return status, reply_headers, b'{"error": "busy"}'
        return 200, {}, b'{"logprobs_bits": [-1.0, -1.0, -1.0]}'


def retrying_client(transport, backoff=0.5, retries=3, uniform=None):
    sleeps: list[float] = []
    uniform = uniform or random.Random(5).uniform
    config = HttpBackendConfig(base_url="http://fake", max_retries=retries, retry_backoff=backoff)
    return HttpBackend(config, transport.post, sleep=sleeps.append, uniform=uniform), sleeps


class TestRetryBackoff:
    def test_sleeps_are_full_jitter_within_the_doubling_bounds(self):
        bounds = []

        def uniform(low, high):
            bounds.append((low, high))
            return random.Random(len(bounds)).uniform(low, high)

        client, sleeps = retrying_client(Replies((503, {}), (502, {}), (500, {})), uniform=uniform)
        assert client.logprobs(REQUEST).logprobs_bits == [-1.0, -1.0, -1.0]
        assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert len(sleeps) == 3
        assert all(0.0 <= s <= high for s, (_, high) in zip(sleeps, bounds))
        assert len(set(sleeps)) == 3  # jittered, not a fixed ladder

    def test_retry_after_of_a_503_sets_the_sleep(self):
        client, sleeps = retrying_client(Replies((503, {"Retry-After": "2"}), (503, {})), backoff=0.25)
        client.logprobs(REQUEST)
        assert sleeps[0] == 2.0
        assert 0.0 <= sleeps[1] <= 0.5  # the next wait is jittered again

    @pytest.mark.parametrize("status, value", [
        (503, "Wed, 21 Oct 2015 07:28:00 GMT"),  # a date is not honoured
        (503, "-1"),
        (502, "2"),  # only a 503 says when to come back
    ])
    def test_other_retry_after_values_are_jittered(self, status, value):
        client, sleeps = retrying_client(Replies((status, {"Retry-After": value})), backoff=0.25)
        client.logprobs(REQUEST)
        assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 0.25

    def test_unavailable_after_the_last_retry_without_a_final_sleep(self):
        client, sleeps = retrying_client(Replies(*[(503, {})] * 4), retries=3)
        with pytest.raises(BackendUnavailable, match="after 4 attempts"):
            client.logprobs(REQUEST)
        assert len(sleeps) == 3


class TestUrl:
    def test_posts_go_to_the_base_path(self):
        paths = []

        def post(path, body, headers):
            paths.append(path)
            return 200, {}, b'{"token_ids": [0], "spans": ["A"]}'

        HttpBackend(HttpBackendConfig(base_url="http://fake/v1/"), post).tokenize("A")
        HttpBackend(HttpBackendConfig(base_url="http://fake"), post).tokenize("A")
        assert paths == ["/v1/tokenize", "/tokenize"]

    @pytest.mark.parametrize("url", ["http://localhost:port", "http://localhost:99999"])
    def test_invalid_port_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match="invalid port"):
            HttpBackend(HttpBackendConfig(base_url=url))


def test_cli_import_does_not_load_requests():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cts.cli; assert 'requests' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
