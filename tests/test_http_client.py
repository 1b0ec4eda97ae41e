"""The HTTP client's connections, lifecycle and retry schedule, against real sockets and a fake transport."""

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import closing

import pytest

import cts.cli
from cts.backends import HttpBackend, HttpBackendConfig, LogprobRequest, ToyBackend
from cts.cli import GROUP_CHARS, SCORE_GROUP, main
from cts.dataset import CotInstance
from cts.errors import BackendError, BackendUnavailable, ConfigError, ScoringError
from cts.selector import SelectionConfig, compress_instance

from conftest import make_corpus, shift_spec, write_jsonl_file, write_spec_file
from http_stub import StubServer, UntokenizableAnswers

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
                    assert client.tokenize(["AB C"])[0] == shift_backend.tokenize(["AB C"])[0]
            assert server.state.request_count == 5
            assert len(server.accepted) == 1
            assert server.wait_until_all_closed()

    def test_connection_dropped_by_the_server_is_reopened_without_a_retry(self, shift_backend):
        with CountingStub(shift_backend, drop_after_reply=True) as server:
            client, sleeps = client_for(server)
            with closing(client):
                for _ in range(5):
                    assert client.logprobs_batch([REQUEST])[0] == shift_backend.logprobs_batch([REQUEST])[0]
            assert server.state.request_count == 5
            assert len(server.accepted) == 5
            assert sleeps == []

    def test_connection_close_server_works_on_every_request(self, shift_backend):
        with CountingStub(shift_backend, protocol_version="HTTP/1.0") as server:
            client, sleeps = client_for(server)
            with closing(client):
                for _ in range(5):
                    assert client.logprobs_batch([REQUEST])[0] == shift_backend.logprobs_batch([REQUEST])[0]
            assert len(server.accepted) == server.state.request_count == 5
            assert sleeps == []

    def test_retry_after_a_503_is_read_on_the_same_connection(self, shift_backend):
        with CountingStub(shift_backend) as server:
            server.state.fail_next = 1
            client, sleeps = client_for(server, max_retries=1)
            with closing(client):
                assert client.tokenize(["AB"])[0] == shift_backend.tokenize(["AB"])[0]
            assert server.state.request_count == 2
            assert len(server.accepted) == 1
            assert len(sleeps) == 1

    def test_token_that_cannot_be_a_header_is_a_backend_error(self, shift_backend):
        with CountingStub(shift_backend) as server:
            client, sleeps = client_for(server, token="tok\nen", max_retries=2)
            with closing(client), pytest.raises(BackendError) as exc:
                client.logprobs_batch([REQUEST])
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
                    answers.append(client.logprobs_batch([REQUEST])[0])

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
            assert answers == [shift_backend.logprobs_batch([REQUEST])[0]] * (n_threads * posts)
            # one connection per thread; the threads have ended, their connections are still open
            assert len(server.accepted) == n_threads
            assert not server.wait_until_all_closed(timeout=0.1)
            client.close()
            assert server.wait_until_all_closed()

    @pytest.mark.usefixtures("groups_of_four")
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
            # one /tokenize and one /logprobs POST per group
            assert server.state.request_count == 2 * math.ceil(12 / SCORE_GROUP)
            # at most one per thread of the tokenize stage (2 * workers) and of the score stage (workers)
            assert 1 <= len(server.accepted) <= 2 * 2 + 2
            assert server.wait_until_all_closed()
        assert (tmp_path / "out.jsonl").read_bytes() == _compress_with_toy(corpus, spec_path, tmp_path)


class ToyTransport:
    """Answers POSTs from a toy model as the test stub does, noting the path and thread of each."""

    def __init__(self, backend):
        self.backend = backend
        self.posts: list[tuple[str, threading.Thread]] = []  # list.append is atomic
        self.tokenize_bodies: dict[str, list] = defaultdict(list)  # each /tokenize body by path, parsed
        self.logprobs_bodies: list = []  # each /logprobs body, parsed

    def post(self, path, body, headers):
        self.posts.append((path, threading.current_thread()))
        data = json.loads(body)
        if path.endswith("/tokenize"):
            self.tokenize_bodies[path].append(data)
            answers = self.backend.tokenize([d["text"] for d in data])
            reply = [{"token_ids": [t for t, _ in pairs], "spans": [s for _, s in pairs]} for pairs in answers]
        else:
            self.logprobs_bodies.append(data)
            requests_ = [LogprobRequest(d["context_ids"], d["start"], d["end"]) for d in data]
            reply = [{"logprobs_bits": a.logprobs_bits} for a in self.backend.logprobs_batch(requests_)]
        return 200, {}, json.dumps(reply).encode("utf-8")


class ScoringHeldBack(ToyTransport):
    """Holds the first ``held`` /logprobs replies until a /tokenize POST holds ``ahead_text``.

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
        if path == "/tokenize" and {"text": self.ahead_text} in json.loads(body):
            self.ahead.set()
        if path == "/logprobs":
            with self.lock:
                hold = self.held > 0
                self.held -= hold
            if hold:
                self.waits.append(self.ahead.wait(timeout=5))
        return super().post(path, body, headers)


@pytest.fixture
def corpus(tmp_path):
    records = make_corpus(10, list("ABC "), random.Random(11))
    return records, write_jsonl_file(records, tmp_path / "corpus.jsonl")


def cli_over(monkeypatch, transport, argv, *, max_retries=0, expect=0):
    """Run the CLI with every backend an HttpBackend on ``transport``, at the URL the descriptor gives."""
    def build_backend(descriptor):
        config = HttpBackendConfig(base_url=descriptor, max_retries=max_retries)
        return HttpBackend(config, transport.post, sleep=lambda seconds: None)

    # only for this run: a toy run after it builds a toy backend
    with monkeypatch.context() as patch:
        patch.setattr(cts.cli, "build_backend", build_backend)
        assert main(argv) == expect


def compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, *, max_retries=0, expect=0):
    """Run compress against ``transport``; returns the output bytes (None when there is no output)."""
    out = tmp_path / "out.jsonl"
    cli_over(monkeypatch, transport, [
        "compress", "--input", corpus_path, "--output", str(out), "--ratio", "0.7",
        "--backend", "http://fake", "--condition-template", "{answer}:", "--workers", str(workers),
    ], max_retries=max_retries, expect=expect)
    return out.read_bytes() if out.exists() else None


def posts_for(records) -> int:
    # one /tokenize POST and one scoring POST per group
    return 2 * math.ceil(len(records) / SCORE_GROUP)


def tokenize_body(group) -> list:
    """The /tokenize body of a group: the distinct thinking and condition texts of its instances, in order."""
    texts = (text for record in group for text in (record["thinking"], f"{record['answer']}:"))
    return [{"text": text} for text in dict.fromkeys(texts)]


def groups_of(records) -> list:
    return [records[i:i + SCORE_GROUP] for i in range(0, len(records), SCORE_GROUP)]


@pytest.mark.usefixtures("groups_of_four")
class TestPipeline:
    """compress tokenizes each group of instances in a stage that runs ahead of scoring it."""

    def test_group_g_plus_2_is_tokenized_before_group_g_is_scored(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        # the first two scoring POSTs are those of the groups of instances 0-3 and 4-7;
        # both wait for the tokenize POST of the next group, instances 8-9
        transport = ScoringHeldBack(ToyBackend(shift_spec()), records[2 * SCORE_GROUP]["thinking"])
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        assert transport.waits == [True, True]
        assert len(transport.posts) == posts_for(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_tokenize_post_per_group_with_an_array_body(self, monkeypatch, tmp_path, corpus, workers):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers)
        # the tokenize stage runs groups side by side, so their POSTs may arrive in any order
        expected = [tokenize_body(group) for group in groups_of(records)]
        assert sorted(transport.tokenize_bodies["/tokenize"], key=json.dumps) == sorted(expected, key=json.dumps)
        assert len(transport.posts) == posts_for(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_each_backend_gets_one_tokenize_post_per_group(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        cli_over(monkeypatch, transport, [
            "ablate", "--input", corpus_path, "--output", str(tmp_path / "ablate"), "--ratio", "0.7",
            "--backend", "http://fake/standard", "--backend-tuned", "http://fake/tuned",
            "--condition-template", "{answer}:", "--workers", "2",
        ])
        # the four modes' texts go out once per backend: each mode shares the thinking, and
        # the conditional modes the condition
        expected = sorted((tokenize_body(group) for group in groups_of(records)), key=json.dumps)
        assert transport.tokenize_bodies.keys() == {"/standard/tokenize", "/tuned/tokenize"}
        for bodies in transport.tokenize_bodies.values():
            assert sorted(bodies, key=json.dumps) == expected

    def test_one_worker_tokenizes_ahead_of_scoring(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        # the scoring POST of instances 0-3 waits for instance 4's thinking, so the calling thread cannot send it
        transport = ScoringHeldBack(ToyBackend(shift_spec()), records[SCORE_GROUP]["thinking"], held=1)
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=1)
        assert transport.waits == [True]
        assert len(transport.posts) == posts_for(records)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_one_worker_posts_from_the_calling_thread(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=1)
        assert len(transport.posts) == posts_for(records)
        # scoring stays on the calling thread; tokenization runs ahead on the tokenize stage's threads
        scorers = {thread for path, thread in transport.posts if path == "/logprobs"}
        assert scorers == {threading.current_thread()}
        # the client sends /logprobs only as an array of request objects
        assert len(transport.logprobs_bodies) == math.ceil(len(records) / SCORE_GROUP)
        assert all(isinstance(body, list) for body in transport.logprobs_bodies)


class TestGroupSize:
    """At the default constants a group closes at SCORE_GROUP instances and GROUP_CHARS characters of thinking."""

    # 200 characters each: a group closes at its 21st instance (4,200 characters); 2,100 each: two reach
    # GROUP_CHARS, yet a group waits for its fourth instance
    @pytest.mark.parametrize("n, chars, sizes", [(60, 200, [21, 21, 18]), (10, 2100, [4, 4, 2])],
                             ids=["short-by-characters", "long-by-four"])
    def test_group_sizes(self, monkeypatch, tmp_path, n, chars, sizes):
        assert (SCORE_GROUP, GROUP_CHARS) == (4, 4096)
        records = make_corpus(n, list("ABC "), random.Random(5), min_tokens=chars, max_tokens=chars)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        starts = [sum(sizes[:i]) for i in range(len(sizes))]
        expected = [tokenize_body(records[start:start + size]) for start, size in zip(starts, sizes)]
        assert sorted(transport.tokenize_bodies["/tokenize"], key=json.dumps) == sorted(expected, key=json.dumps)
        # both scoring contexts of every instance of a group in one POST
        assert sorted(len(body) for body in transport.logprobs_bodies) == sorted(2 * size for size in sizes)
        assert len(transport.posts) == 2 * len(sizes)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)


class CorruptReplies(ToyTransport):
    """Answers as the toy model does, but one entry short for every context that ends in ``thinking``.

    So each batched /logprobs POST holding one of that instance's contexts
    fails as malformed.
    """

    def __init__(self, backend, thinking):
        super().__init__(backend)
        self.ids = [t for t, _ in backend.tokenize([thinking])[0]]

    def post(self, path, body, headers):
        status, reply_headers, reply = super().post(path, body, headers)
        if path != "/logprobs":
            return status, reply_headers, reply
        items = json.loads(reply)
        for item, request in zip(items, json.loads(body)):
            if request["context_ids"][-len(self.ids):] == self.ids:
                item["logprobs_bits"] = item["logprobs_bits"][:-1]
        return status, reply_headers, json.dumps(items).encode("utf-8")


class Busy(ToyTransport):
    """Answers 503 to the first ``busy`` /logprobs POSTs, keeping the bodies of all of them."""

    def __init__(self, backend, busy):
        super().__init__(backend)
        self.busy = busy
        self.bodies: list[bytes] = []

    def post(self, path, body, headers):
        if path == "/logprobs":
            self.bodies.append(body)
            if len(self.bodies) <= self.busy:
                self.posts.append((path, threading.current_thread()))
                return 503, {}, b"{}"
        return super().post(path, body, headers)


@pytest.mark.usefixtures("groups_of_four")
class TestCoalescedScoring:
    """The /logprobs POST of a group of instances scored in lockstep, and its failures."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_reply_fails_only_its_instance(self, monkeypatch, tmp_path, corpus, caplog, workers):
        records, corpus_path = corpus
        bad = 5  # in the group of instances 4-7
        transport = CorruptReplies(ToyBackend(shift_spec()), records[bad]["thinking"])
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)
        # the group's POST failed, then each of its 4 instances was sent alone, each as an array too
        assert len(transport.posts) == posts_for(records) + SCORE_GROUP
        assert all(isinstance(body, list) for body in transport.logprobs_bodies)
        expected = _compress_with_toy(corpus_path, write_spec_file(shift_spec(), tmp_path / "spec.json"), tmp_path)
        lines = expected.splitlines(keepends=True)
        assert written == b"".join(lines[:bad] + lines[bad + 1:])
        # the same message as when the instance is scored alone
        alone = HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), transport.post)
        instance = CotInstance(records[bad]["id"], "", records[bad]["thinking"], records[bad]["answer"])
        config = SelectionConfig(alpha=0.7, condition_template="{answer}:")
        with pytest.raises(ScoringError) as exc:
            compress_instance(instance, config, alone)
        assert "backend failed scoring thinking tokens [0, " in str(exc.value)
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert failed == [f"compress: instance {records[bad]['id']} failed: {exc.value}"]

    def test_busy_server_gets_the_whole_post_again(self, monkeypatch, tmp_path, corpus):
        records, corpus_path = corpus
        transport = Busy(ToyBackend(shift_spec()), busy=1)
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, 1, max_retries=1)
        assert len(transport.posts) == posts_for(records) + 1
        assert transport.bodies[0] == transport.bodies[1]
        assert len(json.loads(transport.bodies[0])) == 2 * SCORE_GROUP
        assert written == _compress_with_toy(corpus_path, write_spec_file(shift_spec(), tmp_path / "spec.json"), tmp_path)

    def test_outage_is_not_sent_again_instance_by_instance(self, monkeypatch, tmp_path, corpus, capfd):
        records, corpus_path = corpus
        transport = Busy(ToyBackend(shift_spec()), busy=len(records))
        assert compress_over(monkeypatch, tmp_path, corpus_path, transport, 1, expect=3) is None
        assert len(transport.bodies) == 1
        assert "Traceback" not in capfd.readouterr().err


class TestGroupTokenizeIsolation:
    """A group's /tokenize POST that fails, and the texts then sent one by one."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_untokenizable_condition_fails_only_its_instance(self, monkeypatch, tmp_path, caplog, workers):
        records = make_corpus(SCORE_GROUP, list("ABC "), random.Random(11))
        bad = 2
        records[bad]["answer"] = "Z"  # the stub answers "Z:" with no tokens, which the client rejects
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(UntokenizableAnswers(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)
        # the group's POST fails as a whole; then each distinct text goes out alone, in the order
        # the instances need them, and one /logprobs POST scores the other three
        batch = tokenize_body(records)
        assert [path for path, _ in transport.posts] == ["/tokenize"] * (1 + len(batch)) + ["/logprobs"]
        assert transport.tokenize_bodies["/tokenize"] == [batch] + [[text] for text in batch]
        good = [record for i, record in enumerate(records) if i != bad]
        good_path = write_jsonl_file(good, tmp_path / "good.jsonl")
        assert written == _compress_with_toy(good_path, write_spec_file(shift_spec(), tmp_path / "spec.json"), tmp_path)
        # the same message as when the instance is compressed alone
        alone = HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), transport.post)
        instance = CotInstance(records[bad]["id"], "", records[bad]["thinking"], "Z")
        with pytest.raises(ScoringError) as exc:
            compress_instance(instance, SelectionConfig(alpha=0.7, condition_template="{answer}:"), alone)
        assert "cannot tokenize condition" in str(exc.value)
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert failed == [f"compress: instance {records[bad]['id']} failed: {exc.value}"]


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


# with a condition each group's /tokenize POST holds two texts per instance, without one a single text
@pytest.mark.parametrize("condition", [["--condition-template", "{answer}:"], ["--no-conditional"]],
                         ids=["conditional", "unconditional"])
@pytest.mark.usefixtures("groups_of_four")
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
        return 200, {}, b'[{"logprobs_bits": [-1.0, -1.0, -1.0]}]'


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
        assert client.logprobs_batch([REQUEST])[0].logprobs_bits == [-1.0, -1.0, -1.0]
        assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert len(sleeps) == 3
        assert all(0.0 <= s <= high for s, (_, high) in zip(sleeps, bounds))
        assert len(set(sleeps)) == 3  # jittered, not a fixed ladder

    def test_retry_after_of_a_503_sets_the_sleep(self):
        client, sleeps = retrying_client(Replies((503, {"Retry-After": "2"}), (503, {})), backoff=0.25)
        client.logprobs_batch([REQUEST])
        assert sleeps[0] == 2.0
        assert 0.0 <= sleeps[1] <= 0.5  # the next wait is jittered again

    @pytest.mark.parametrize("status, value", [
        (503, "Wed, 21 Oct 2015 07:28:00 GMT"),  # a date is not honoured
        (503, "-1"),
        (502, "2"),  # only a 503 says when to come back
    ])
    def test_other_retry_after_values_are_jittered(self, status, value):
        client, sleeps = retrying_client(Replies((status, {"Retry-After": value})), backoff=0.25)
        client.logprobs_batch([REQUEST])
        assert len(sleeps) == 1 and 0.0 <= sleeps[0] <= 0.25

    def test_unavailable_after_the_last_retry_without_a_final_sleep(self):
        client, sleeps = retrying_client(Replies(*[(503, {})] * 4), retries=3)
        with pytest.raises(BackendUnavailable, match="after 4 attempts"):
            client.logprobs_batch([REQUEST])
        assert len(sleeps) == 3


class TestUrl:
    def test_posts_go_to_the_base_path(self):
        paths = []

        def post(path, body, headers):
            paths.append(path)
            return 200, {}, b'[{"token_ids": [0], "spans": ["A"]}]'

        HttpBackend(HttpBackendConfig(base_url="http://fake/v1/"), post).tokenize(["A"])
        HttpBackend(HttpBackendConfig(base_url="http://fake"), post).tokenize(["A"])
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
