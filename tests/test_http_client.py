"""The HTTP client's connections, lifecycle and retry schedule, against real sockets and a fake transport."""

import http.client
import itertools
import json
import math
import os
import random
import ssl
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import closing

import pytest

import cts.cli
from cts.backends import MAX_IN_FLIGHT, HttpBackend, HttpBackendConfig, LogprobRequest, ToyBackend, without_userinfo
from cts.cli import GROUP_CHARS, SCORE_GROUP, main
from cts.dataset import CotInstance
from cts.errors import BackendUnavailable, ConfigError, ScoringError
from cts.runner import LOOKAHEAD_PER_WORKER
from cts.selector import SelectionConfig, compress_instance, compress_steps, run_lockstep

from conftest import UNREADABLE_JSON, halving_calls, make_corpus, shift_spec, write_jsonl_file, write_spec_file
from http_stub import CountingStub, UntokenizableAnswers

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    def test_token_that_cannot_be_a_header_is_a_config_error_before_any_post(self, shift_backend):
        with CountingStub(shift_backend) as server:
            with pytest.raises(ConfigError):
                client_for(server, token="tok\nen", max_retries=2)
            assert server.state.request_count == 0 and server.accepted == []


class TestLifecycle:
    def test_close_closes_the_connections_of_every_thread(self, shift_backend):
        n_threads, posts = 2 * MAX_IN_FLIGHT, 3
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
            # the threads share the pool's connections; they have ended, the connections are still open
            assert 1 <= len(server.accepted) <= MAX_IN_FLIGHT
            assert not server.wait_until_all_closed(timeout=0.1)
            client.close()
            assert server.wait_until_all_closed()

    def test_a_connection_used_after_close_is_closed_by_the_next_close(self, shift_backend):
        with CountingStub(shift_backend) as server:
            client, _ = client_for(server)
            for _ in range(2):
                assert client.logprobs_batch([REQUEST])[0] == shift_backend.logprobs_batch([REQUEST])[0]
                client.close()
            assert len(server.accepted) == 2
            assert server.wait_until_all_closed()

    @pytest.mark.usefixtures("groups_by_count")
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
            # one /logprobs POST per group, one /tokenize POST per batch of 2 groups
            groups = math.ceil(12 / SCORE_GROUP)
            assert server.state.request_count == groups + math.ceil(groups / 2)
            # at most one per worker thread, and one for the calling thread, which tokenizes
            assert 1 <= len(server.accepted) <= 3
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
            reply = [{"token_ids": ids, "spans": spans} for ids, spans in answers]
        else:
            self.logprobs_bodies.append(data)
            requests_ = [LogprobRequest(d["context_ids"], d["start"], d["end"]) for d in data]
            reply = [{"logprobs_bits": bits} for bits in self.backend.logprobs_batch(requests_)]
        return 200, {}, json.dumps(reply).encode("utf-8")


@pytest.fixture
def corpus(tmp_path):
    # two full groups and a third of 2 instances
    records = make_corpus(2 * SCORE_GROUP + 2, list("ABC "), random.Random(11))
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


def posts_for(records, workers=1) -> int:
    # one /tokenize POST per batch of `workers` groups, and one scoring POST per group
    return len(batches_of(records, workers)) + len(groups_of(records))


def tokenize_body(records) -> list:
    """The /tokenize body of a batch: the distinct thinking and condition texts of its instances, in order."""
    texts = (text for record in records for text in (record["thinking"], f"{record['answer']}:"))
    return [{"text": text} for text in dict.fromkeys(texts)]


def groups_of(records) -> list:
    return [records[i:i + SCORE_GROUP] for i in range(0, len(records), SCORE_GROUP)]


def batches_of(records, workers) -> list:
    """The records of each batch when groups close by count alone: ``workers`` consecutive groups of SCORE_GROUP."""
    size = workers * SCORE_GROUP
    return [records[i:i + size] for i in range(0, len(records), size)]


@pytest.mark.usefixtures("groups_by_count")
class TestPipeline:
    """compress tokenizes each batch of ``workers`` groups at once, then scores each group on one worker, in lockstep."""

    # the corpus is 3 groups: 3 batches of one group at 1 worker, 2 at 2 workers, 1 at 3 workers
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_one_tokenize_post_per_group_with_an_array_body(self, monkeypatch, tmp_path, corpus, workers):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers)
        # the calling thread sends one /tokenize POST per batch, in input order
        expected = [tokenize_body(batch) for batch in batches_of(records, workers)]
        assert len(expected) == math.ceil(len(groups_of(records)) / workers)
        assert transport.tokenize_bodies["/tokenize"] == expected
        assert {thread for path, thread in transport.posts if path == "/tokenize"} == {threading.current_thread()}
        assert len(transport.posts) == posts_for(records, workers)
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
        # the four modes' texts go out once per backend and batch of 2 groups: each mode shares
        # the thinking, and the conditional modes the condition
        expected = [tokenize_body(batch) for batch in batches_of(records, 2)]
        assert transport.tokenize_bodies.keys() == {"/standard/tokenize", "/tuned/tokenize"}
        for bodies in transport.tokenize_bodies.values():
            assert bodies == expected

    def test_one_worker_tokenizes_on_the_calling_thread_and_scores_on_its_lane(
        self, monkeypatch, tmp_path, corpus
    ):
        records, corpus_path = corpus
        transport = ToyTransport(ToyBackend(shift_spec()))
        compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=1)
        assert len(transport.posts) == posts_for(records)
        # the one lane has a thread of its own, so tokenizing runs ahead of its scoring
        threads = defaultdict(set)
        for path, thread in transport.posts:
            threads[path].add(thread)
        assert threads["/tokenize"] == {threading.current_thread()}
        assert [thread.name for thread in threads["/logprobs"]] == ["cts-lane-0"]
        # the client sends /logprobs only as an array of request objects
        assert len(transport.logprobs_bodies) == math.ceil(len(records) / SCORE_GROUP)
        assert all(isinstance(body, list) for body in transport.logprobs_bodies)


class TestGroupSize:
    """At the default constants a group closes at SCORE_GROUP instances and GROUP_CHARS characters of thinking."""

    # 200 characters each: a group closes at its 21st instance (4,200 characters); 2,100 each: two reach
    # GROUP_CHARS, yet a group waits for its eighth instance. At 2 workers a batch closes at 2 groups and
    # 32,768 characters: the 12,000 of the short corpus go in one batch, a long group holds 16,800. In global
    # scope a lane's step scores the groups it takes; in the last batch it takes every group it will get, so
    # `steps` lists the groups of each step. The shape of the bench's http-compress corpus, 100 instances of
    # 150 to 250 characters (19,864 here), sends 1 /tokenize and 2 /logprobs POSTs
    @pytest.mark.parametrize("n, chars, sizes, batch_groups, steps", [
        (60, (200, 200), [21, 21, 18], [3], [[0, 2], [1]]),
        (20, (2100, 2100), [8, 8, 4], [2, 1], [[0], [1], [2]]),
        (100, (150, 250), [20, 21, 22, 21, 16], [5], [[0, 2, 4], [1, 3]]),
    ], ids=["short-by-characters", "long-by-eight", "http-compress-shape"])
    def test_group_sizes(self, monkeypatch, tmp_path, n, chars, sizes, batch_groups, steps):
        assert (SCORE_GROUP, GROUP_CHARS) == (8, 4096)
        records = make_corpus(n, list("ABC "), random.Random(5), min_tokens=chars[0], max_tokens=chars[1])
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        lengths = [len(record["thinking"]) for record in records]
        groups = groups_by_rule(lengths, SCORE_GROUP, GROUP_CHARS)
        assert [len(group) for group in groups] == sizes
        batches = batches_by_rule(groups, lengths, 2, GROUP_CHARS)
        starts = itertools.accumulate(batch_groups[:-1], initial=0)
        assert batches == [[i for group in groups[start:start + size] for i in group]
                           for start, size in zip(starts, batch_groups)]
        expected = [tokenize_body([records[i] for i in batch]) for batch in batches]
        assert transport.tokenize_bodies["/tokenize"] == expected
        # both scoring contexts of every instance of a step's groups in one POST
        assert sorted(len(body) for body in transport.logprobs_bodies) == sorted(
            2 * sum(sizes[g] for g in step) for step in steps)
        assert len(steps) == rolling_posts(lengths, [1] * n, 2, SCORE_GROUP, GROUP_CHARS)
        assert len(transport.posts) == len(batches) + len(steps)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)

    def test_a_lane_scores_its_groups_of_the_last_batch_in_one_step(self, monkeypatch, tmp_path):
        # the http-compress shape at 2 workers is one batch of 5 groups, so lane 0 takes groups 0, 2 and 4 in its
        # one step and lane 1 groups 1 and 3; a lane that asked for a group while holding LOOKAHEAD_PER_WORKER
        # would raise in runner._bounded
        records = make_corpus(100, list("ABC "), random.Random(5), min_tokens=150, max_tokens=250)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        compress_over(monkeypatch, tmp_path, corpus_path, transport, workers=2)
        lengths = [len(record["thinking"]) for record in records]
        groups = groups_by_rule(lengths, SCORE_GROUP, GROUP_CHARS)
        assert len(groups) == 5 and batches_by_rule(groups, lengths, 2, GROUP_CHARS) == [list(range(100))]
        assert len(transport.logprobs_bodies) == 2
        # the largest body holds both scoring contexts of each instance of lane 0's 3 groups, and nothing else
        toy = ToyBackend(shift_spec())

        def contexts(record):
            (ids, _), (condition, _) = toy.tokenize([record["thinking"], f"{record['answer']}:"])
            return [list(ids), [*condition, *ids]]

        largest = max(transport.logprobs_bodies, key=len)
        lane_0 = [records[i] for group in groups[0::2] for i in group]
        assert len(largest) == 2 * len(lane_0) == 2 * (20 + 22 + 16)
        assert sorted(request["context_ids"] for request in largest) == sorted(
            context for record in lane_0 for context in contexts(record))

    # a batch, the first one too, closes at `workers` groups and 16,384 characters per worker, the least text
    # of map_ordered's window of 4 groups per worker. 13 groups of 21 instances of 200 characters (4,200 a
    # group): a batch is the window's 4 groups per worker, and at 4 workers all 13 are one batch; 5 groups of
    # 8 instances of 2,100 characters: every group holds 16,800, so a batch is one group per lane. A lane
    # sends one /logprobs POST per group, but one for all its groups of the last batch: at 2 workers lane 0
    # takes 3 of the short corpus's last 5 groups and lane 1 takes 2, and at 4 workers each lane takes its
    # 3 or 4 groups in one step
    @pytest.mark.parametrize("n, chars, batch_groups, logprobs_posts", [
        (273, 200, {1: [4, 4, 4, 1], 2: [8, 5], 3: [12, 1], 4: [13]}, {1: 13, 2: 10, 3: 13, 4: 4}),
        (40, 2100, {1: [1, 1, 1, 1, 1], 2: [2, 2, 1], 3: [3, 2], 4: [4, 1]}, {1: 5, 2: 5, 3: 5, 4: 5}),
    ], ids=["short-by-characters", "long-by-workers"])
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_tokenize_batches_hold_a_window_of_text(self, monkeypatch, tmp_path, n, chars, batch_groups,
                                                    logprobs_posts, workers):
        assert LOOKAHEAD_PER_WORKER * GROUP_CHARS == 16384
        records = make_corpus(n, list("ABC "), random.Random(7), min_tokens=chars, max_tokens=chars)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers)
        lengths = [len(record["thinking"]) for record in records]
        groups = groups_by_rule(lengths, SCORE_GROUP, GROUP_CHARS)
        batches = batches_by_rule(groups, lengths, workers, GROUP_CHARS)
        starts = itertools.accumulate(batch_groups[workers][:-1], initial=0)
        assert batches == [[i for group in groups[start:start + size] for i in group]
                           for start, size in zip(starts, batch_groups[workers])]
        expected = [tokenize_body([records[i] for i in batch]) for batch in batches]
        assert transport.tokenize_bodies["/tokenize"] == expected
        assert len(transport.logprobs_bodies) == logprobs_posts[workers] == rolling_posts(
            lengths, [1] * n, workers, SCORE_GROUP, GROUP_CHARS)
        spec_path = write_spec_file(shift_spec(), tmp_path / "spec.json")
        assert written == _compress_with_toy(corpus_path, spec_path, tmp_path)


class CorruptReplies(ToyTransport):
    """Answers as the toy model does, but one entry short for every context that ends in ``thinking``.

    So each batched /logprobs POST holding one of that instance's contexts
    fails as malformed.
    """

    def __init__(self, backend, thinking):
        super().__init__(backend)
        self.ids = list(backend.tokenize([thinking])[0][0])  # as the parsed JSON body has them

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


@pytest.mark.usefixtures("groups_by_count")
class TestCoalescedScoring:
    """The /logprobs POST of a group of instances scored in lockstep, and its failures."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_reply_fails_only_its_instance(self, monkeypatch, tmp_path, corpus, caplog, workers):
        records, corpus_path = corpus
        bad = SCORE_GROUP + 1  # in the second group
        transport = CorruptReplies(ToyBackend(shift_spec()), records[bad]["thinking"])
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)
        # the group's POST of 2 requests for each of its SCORE_GROUP instances failed, and was halved down to
        # the bad instance's 2 requests, each then sent alone, as an array too: calls of 8, 4 and 2 requests
        # and the 2 single ones fail, and calls of 2, 4 and 8 go through
        assert len(transport.posts) == posts_for(records, workers) + 8
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


@pytest.mark.usefixtures("groups_by_count")
class TestGroupTokenizeIsolation:
    """A batch's /tokenize POST that fails, and its halves in turn, down to the text at fault."""

    # the bad instance in the one group of the input, or in the second group of a batch of two or three
    @pytest.mark.parametrize("workers, groups, bad", [
        pytest.param(1, 1, 2, id="1"), pytest.param(2, 1, 2, id="2"),
        pytest.param(2, 2, SCORE_GROUP + 1, id="second-group-of-a-batch"),
        pytest.param(3, 3, SCORE_GROUP + 1, id="second-group-of-a-batch-of-three"),
    ])
    def test_untokenizable_condition_fails_only_its_instance(
        self, monkeypatch, tmp_path, caplog, workers, groups, bad
    ):
        records = make_corpus(groups * SCORE_GROUP, list("ABC "), random.Random(11))
        records[bad]["answer"] = "Z"  # the stub answers "Z:" with no tokens, which the client rejects
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(UntokenizableAnswers(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)
        # the batch's POST fails as a whole, and so does each half of it that holds "Z:"; each
        # half goes out again in input order until "Z:" goes out alone; then one /logprobs POST
        # per group scores its good instances
        expected = halving_calls(tokenize_body(records), lambda texts: {"text": "Z:"} in texts)
        assert transport.tokenize_bodies["/tokenize"] == expected
        assert [path for path, _ in transport.posts] == ["/tokenize"] * len(expected) + ["/logprobs"] * groups
        # beyond a run with no failure: the halves, at most 2 * ceil(log2 n) POSTs for one bad text of n
        n = len(expected[0])
        assert len(transport.posts) == posts_for(records, workers) + len(expected) - 1
        assert len(expected) <= 1 + 2 * math.ceil(math.log2(n))
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_reply_nested_past_the_recursion_limit_fails_only_its_instance(self, monkeypatch, tmp_path, caplog,
                                                                             workers):
        records = make_corpus(2 * SCORE_GROUP, list("ABC "), random.Random(11))
        bad = SCORE_GROUP + 1
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        poison = {"text": records[bad]["thinking"]}

        class DeepReplies(ToyTransport):
            """Answers as the toy model does, but a /tokenize POST of the bad thinking gets arrays 100,000 deep."""

            def post(self, path, body, headers):
                reply = super().post(path, body, headers)
                return (200, {}, UNREADABLE_JSON["nested-100000-deep"]) if poison in json.loads(body) else reply

        transport = DeepReplies(ToyBackend(shift_spec()))
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)
        # a reply json cannot read is a protocol error of its POST, so the halving rule lands it on the bad text
        assert transport.tokenize_bodies["/tokenize"] == [
            call for batch in batches_of(records, workers)
            for call in halving_calls(tokenize_body(batch), lambda texts: poison in texts)]
        good_path = write_jsonl_file(records[:bad] + records[bad + 1:], tmp_path / "good.jsonl")
        assert written == _compress_with_toy(good_path, write_spec_file(shift_spec(), tmp_path / "spec.json"), tmp_path)
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert len(failed) == 1 and f"instance {records[bad]['id']} failed" in failed[0], failed
        assert "returned unparseable JSON" in failed[0]

    def test_a_token_id_past_the_wire_range_fails_its_instance_at_tokenizing(self):
        class IdPastTheWire(ToyTransport):
            """Answers as the toy model does, but the thinking "CAB" gets a first token id of 2**63."""

            def post(self, path, body, headers):
                status, reply_headers, reply = super().post(path, body, headers)
                items = json.loads(reply)
                for item, request in zip(items, json.loads(body)):
                    if request.get("text") == "CAB":
                        item["token_ids"][0] = 2**63
                return status, reply_headers, json.dumps(items).encode("utf-8")

        instances = [CotInstance(f"i{i}", "", thinking, "42") for i, thinking in enumerate(["ABC", "CAB", "BCA", "AB"])]
        config = SelectionConfig(alpha=0.7, condition_template="{answer}:")
        transport = IdPastTheWire(ToyBackend(shift_spec()))
        client = HttpBackend(HttpBackendConfig(base_url="http://fake", max_retries=0), transport.post)
        outcomes = run_lockstep([(compress_steps(instance, config), client) for instance in instances])
        # a tokenize answer the client could never send back: the instance fails at tokenizing, not at scoring
        assert outcomes[1].result is None and isinstance(outcomes[1].error, ScoringError)
        assert "cannot tokenize thinking" in str(outcomes[1].error)
        assert "not an int in [0, 2**63)" in str(outcomes[1].error)
        # so the three good instances are scored in one /logprobs POST, with no halving
        assert [path for path, _ in transport.posts].count("/logprobs") == 1
        toy = ToyBackend(shift_spec())
        for i in (0, 2, 3):
            assert outcomes[i].error is None
            assert outcomes[i].result[0] == compress_instance(instances[i], config, toy)[0]


class HeldScoring(ToyTransport):
    """Holds the first /logprobs replies back until every lane waits on one, and a moment longer."""

    def __init__(self, backend, lanes):
        super().__init__(backend)
        self.all_waiting = threading.Barrier(lanes, timeout=10)
        self.tokenized_before_a_reply: list[int] = []

    def post(self, path, body, headers):
        if path == "/logprobs" and not self.tokenized_before_a_reply:
            self.all_waiting.wait()
            time.sleep(0.2)  # were it let, the calling thread would tokenize further ahead by now
            self.tokenized_before_a_reply.append(len(self.tokenize_bodies["/tokenize"]))
        return super().post(path, body, headers)


@pytest.mark.usefixtures("groups_by_count")
class TestBatchTokenize:
    """The /tokenize POST that a batch of groups shares, sent ahead of the workers."""

    def test_unavailable_tokenize_exits_3_and_leaves_no_output(self, monkeypatch, tmp_path, corpus, capfd):
        records, corpus_path = corpus

        class SecondTokenizeBusy(ToyTransport):
            def post(self, path, body, headers):
                if path == "/tokenize" and len(self.tokenize_bodies[path]) == 1:
                    self.posts.append((path, threading.current_thread()))
                    return 503, {}, b"{}"
                return super().post(path, body, headers)

        transport = SecondTokenizeBusy(ToyBackend(shift_spec()))
        assert compress_over(monkeypatch, tmp_path, corpus_path, transport, 2, expect=3) is None
        # the first batch was tokenized; the second batch's POST found the server busy
        assert [path for path, _ in transport.posts].count("/tokenize") == 2
        assert "Traceback" not in capfd.readouterr().err

    # while every lane's first /logprobs reply is held, the calling thread has tokenized the batches that hold
    # map_ordered's window of LOOKAHEAD_PER_WORKER (4) groups per worker, and no more. By count alone a batch
    # is 2 groups at 2 workers: the window is 4 batches. At the default GROUP_CHARS, 200-character instances
    # go 21 to a group (4,200 characters), so a batch of 16,384 characters per worker is the window's groups:
    # one /tokenize POST. 600-character instances go 8 to a group (4,800), so a batch is 7 groups at 2
    # workers and 14 at 4, and the window's last group begins the second batch: two POSTs. A lane sends one
    # /logprobs POST per group, and one for all its groups of the last batch: of 19 groups at 2 workers, the
    # last 3 (short) or 5 (600 characters) go in 2 POSTs; of 35 at 4 workers, the last 3 go in 3 POSTs and
    # the last 7 in 4
    @pytest.mark.parametrize("group_chars, chars, per_group, workers, held_tokenize, tokenize_posts, logprobs_posts", [
        (0, 40, SCORE_GROUP, 2, 4, 10, 19),
        (GROUP_CHARS, 200, 21, 2, 1, 3, 18),
        (GROUP_CHARS, 200, 21, 4, 1, 3, 35),
        (GROUP_CHARS, 600, SCORE_GROUP, 2, 2, 3, 16),
        (GROUP_CHARS, 600, SCORE_GROUP, 4, 2, 3, 32),
    ], ids=["by-count-2", "short-2", "short-4", "600-characters-2", "600-characters-4"])
    def test_tokenizing_runs_a_bounded_number_of_batches_ahead(self, monkeypatch, tmp_path, group_chars, chars,
                                                               per_group, workers, held_tokenize, tokenize_posts,
                                                               logprobs_posts):
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", group_chars)
        groups = 2 * LOOKAHEAD_PER_WORKER * workers + 3  # two windows and 3 groups
        records = make_corpus(per_group * groups, list("ABC "), random.Random(19), min_tokens=chars,
                              max_tokens=chars)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = HeldScoring(ToyBackend(shift_spec()), workers)
        written = compress_over(monkeypatch, tmp_path, corpus_path, transport, workers)
        assert transport.tokenized_before_a_reply[0] == held_tokenize
        assert len(transport.tokenize_bodies["/tokenize"]) == tokenize_posts
        lengths = [len(record["thinking"]) for record in records]
        assert len(transport.logprobs_bodies) == logprobs_posts == rolling_posts(
            lengths, [1] * len(records), workers, SCORE_GROUP, group_chars)
        assert written == _compress_with_toy(corpus_path, write_spec_file(shift_spec(), tmp_path / "spec.json"), tmp_path)


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
                    self._read_body()
                    self._send(503, {"error": "busy"})
                    return
                super().do_POST()

        self.httpd.RequestHandlerClass = Handler


# with a condition each group's /tokenize POST holds two texts per instance, without one a single text
@pytest.mark.parametrize("condition", [["--condition-template", "{answer}:"], ["--no-conditional"]],
                         ids=["conditional", "unconditional"])
@pytest.mark.usefixtures("groups_by_count")
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
        assert alive_at_close == []  # every worker stopped before the backend closed
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


def groups_by_rule(lengths, min_count, min_chars) -> list[list[int]]:
    """The instances of each group, as ``cli._groups`` closes them, for instances of the given lengths."""
    groups, group = [], []
    for i, length in enumerate(lengths):
        group.append(i)
        if len(group) >= min_count and sum(lengths[j] for j in group) >= min_chars:
            groups.append(group)
            group = []
    return groups + [group] if group else groups


def batches_by_rule(groups, lengths, workers, group_chars) -> list[list[int]]:
    """The instances of each /tokenize batch, by brute force over where each batch may end.

    Each batch, the first one too, is the fewest groups, at least
    ``workers``, that hold LOOKAHEAD_PER_WORKER x ``workers`` x
    ``group_chars`` characters of thinking; the last batch may be short.
    """
    batches, start = [], 0
    least = LOOKAHEAD_PER_WORKER * workers * group_chars
    while start < len(groups):
        ends = range(start + workers, len(groups) + 1)
        end = next((end for end in ends if sum(lengths[i] for group in groups[start:end] for i in group) >= least),
                   len(groups))
        batches.append([i for group in groups[start:end] for i in group])
        start = end
    return batches


def rolling_posts(lengths, segments, workers, min_count, min_chars, last_batch=True) -> int:
    """The /logprobs POSTs of the rolling rule, simulated: one POST per step of each lane.

    Groups close as ``cli._groups`` closes them, and group g goes to lane g
    mod ``workers``. Before each step of a lane, its next instances in input
    order join until its live instances number at least ``min_count`` and
    hold at least ``min_chars`` characters of thinking; a group begins only
    while fewer than LOOKAHEAD_PER_WORKER groups of the lane are begun and
    not returned, and a group is returned once it and every earlier group
    of the lane have ended. A step scores one segment of each live instance.

    With ``last_batch``, the rule of ``cli._compress_stream``: once a lane
    has begun a group of the input's last /tokenize batch (``batches_by_rule``
    at ``min_chars``), a step is full only when the lane can take nothing
    more. Without it, the reference rule of earlier versions: the window
    fills every step.
    """
    groups = groups_by_rule(lengths, min_count, min_chars)
    # the first group of the last batch, or none
    first_of_last = batches_by_rule(groups, lengths, workers, min_chars)[-1][0] if groups else None
    tail = next((g for g, group in enumerate(groups) if last_batch and group[0] == first_of_last), len(groups))
    posts = 0
    for lane in range(workers):
        mine = groups[lane::workers]
        begun = taken = returned = 0  # groups begun, instances taken of the newest, groups returned
        left: dict[int, int] = {}  # the segments left of each live instance

        def ended(g):  # every instance of group g taken and none live
            return (g < begun - 1 or taken == len(mine[g])) and not any(i in left for i in mine[g])

        while True:
            while returned < begun and ended(returned):
                returned += 1
            while (begun and lane + (begun - 1) * workers >= tail) or not (
                    len(left) >= min_count and sum(lengths[i] for i in left) >= min_chars):
                if begun and taken < len(mine[begun - 1]):
                    instance = mine[begun - 1][taken]
                    left[instance] = segments[instance]
                    taken += 1
                elif begun < len(mine) and begun - returned < LOOKAHEAD_PER_WORKER:
                    begun, taken = begun + 1, 0
                else:
                    break
            if not left:
                break
            posts += 1
            left = {i: n - 1 for i, n in left.items() if n > 1}
    return posts


def per_segment_corpus(segments, rng) -> list[dict]:
    """Instances of the given numbers of segments at ``--segment-budget 4``, one character to a token."""
    return [{"id": f"inst-{i}", "problem": "", "answer": rng.choice("ABC"),
             "thinking": "".join(rng.choice("ABC ") for _ in range(rng.randint(4 * k - 3, 4 * k)))}
            for i, k in enumerate(segments)]


def compress_per_segment(monkeypatch, tmp_path, corpus_path, transport, workers, command="compress",
                         extra=()) -> bytes:
    """Per-segment compress (or ablate) at ``--segment-budget 4``, over ``transport`` or, without one, the toy backend.

    ``extra`` flags follow the others. Returns the bytes written (each ablation mode's file in turn).
    """
    out = tmp_path / f"{command}-{workers}-{transport is None}-{'-'.join(extra)}"
    backend = f"toy:{write_spec_file(shift_spec(), tmp_path / 'spec.json')}" if transport is None else "http://fake"
    argv = [command, "--input", corpus_path, "--output", str(out), "--ratio", "0.7", "--backend", backend,
            "--condition-template", "{answer}:", "--scope", "per-segment", "--segment-budget", "4",
            "--boundary-slack", "0", "--workers", str(workers), *extra]
    if transport is None:
        assert main(argv) == 0
    else:
        cli_over(monkeypatch, transport, argv)
    paths = [out / f"{mode.name}.jsonl" for mode in cts.cli.ABLATION_MODES] if command == "ablate" else [out]
    return b"".join(path.read_bytes() for path in paths)


class TestRollingLockstep:
    """Each lane refills its window as instances end, so a step's POST is shared by whatever is live in it."""

    # by characters the 4 groups are one batch, the last, so each lane takes all its groups in one step and
    # steps on until its longest instance ends; by count the last batch is the last group, of 3 instances
    @pytest.mark.parametrize("group_chars, posts", [(0, {1: 24, 2: 27, 3: 29}), (150, {1: 6, 2: 12, 3: 18})],
                             ids=["by-count", "by-characters"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_logprobs_posts_follow_the_rolling_rule(self, monkeypatch, tmp_path, workers, group_chars, posts):
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", group_chars)
        rng = random.Random(23)
        # 7 groups by count and 4 by characters, so at up to 3 workers lane 0 holds more than one
        segments = [rng.randint(1, 6) for _ in range(6 * SCORE_GROUP + 3)]
        records = per_segment_corpus(segments, rng)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_per_segment(monkeypatch, tmp_path, corpus_path, transport, workers)
        lengths = [len(record["thinking"]) for record in records]
        # each /tokenize POST holds exactly the distinct texts of its batch
        batches = batches_by_rule(groups_by_rule(lengths, SCORE_GROUP, group_chars), lengths, workers, group_chars)
        expected = [tokenize_body([records[i] for i in batch]) for batch in batches]
        assert transport.tokenize_bodies["/tokenize"] == expected
        assert len(transport.logprobs_bodies) == posts[workers] == rolling_posts(
            lengths, segments, workers, SCORE_GROUP, group_chars)
        assert written == compress_per_segment(monkeypatch, tmp_path, corpus_path, None, 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_original_prefix_sends_what_global_scope_sends(self, monkeypatch, tmp_path, workers):
        # the original prefix does not depend on the selection, so each instance is one step over [0, n)
        rng = random.Random(41)
        records = per_segment_corpus([rng.randint(1, 6) for _ in range(4 * SCORE_GROUP + 3)], rng)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        sent = []
        for extra in (["--scope", "global"], ["--iterative-original-prefix"]):
            transport = ToyTransport(ToyBackend(shift_spec()))
            written = compress_per_segment(monkeypatch, tmp_path, corpus_path, transport, workers, extra=extra)
            assert written == compress_per_segment(monkeypatch, tmp_path, corpus_path, None, 1, extra=extra)
            contexts = sum(len(request["context_ids"]) for body in transport.logprobs_bodies for request in body)
            sent.append((len(transport.logprobs_bodies), contexts))
        assert sent[0] == sent[1]

    @pytest.mark.parametrize("workers, posts", [(1, 19), (2, 22)], ids=["1", "2"])
    def test_the_selections_of_an_instance_count_once(self, monkeypatch, tmp_path, workers, posts):
        # ablate with one backend runs two selections of each instance, which join and leave together
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", 0)
        rng = random.Random(37)
        segments = [rng.randint(1, 6) for _ in range(4 * SCORE_GROUP + 3)]
        records = per_segment_corpus(segments, rng)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        written = compress_per_segment(monkeypatch, tmp_path, corpus_path, transport, workers, "ablate")
        lengths = [len(record["thinking"]) for record in records]
        assert len(transport.logprobs_bodies) == posts == rolling_posts(lengths, segments, workers, SCORE_GROUP, 0)
        assert written == compress_per_segment(monkeypatch, tmp_path, corpus_path, None, 1, "ablate")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_long_instance_does_not_hold_up_its_lane(self, monkeypatch, tmp_path, workers):
        # group 0, at the head of lane 0, begins with an instance of 40 segments; every other one has 1, and the
        # lane has more groups than the window of LOOKAHEAD_PER_WORKER x workers groups that map_ordered sends
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", 0)
        segments = [40] + [1] * (SCORE_GROUP * (LOOKAHEAD_PER_WORKER * workers + 2) - 1)
        records = per_segment_corpus(segments, random.Random(29))
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")

        class Noting(ToyTransport):
            """Notes how many batches were tokenized when each POST scoring the long instance went out."""

            def __init__(self, backend):
                super().__init__(backend)
                self.tokenized_while_long: list[int] = []

            def post(self, path, body, headers):
                if path == "/logprobs" and any(len(r["context_ids"]) > 8 for r in json.loads(body)):
                    self.tokenized_while_long.append(len(self.tokenize_bodies["/tokenize"]))
                return super().post(path, body, headers)

        transport = Noting(ToyBackend(shift_spec()))
        written = []
        run = threading.Thread(target=lambda: written.append(
            compress_per_segment(monkeypatch, tmp_path, corpus_path, transport, workers)), daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the lanes and the calling thread interleave at every chance
        try:
            run.start()
            run.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive(), "the run did not end"
        lengths = [len(record["thinking"]) for record in records]
        assert len(transport.logprobs_bodies) == rolling_posts(lengths, segments, workers, SCORE_GROUP, 0)
        # the long instance is in the oldest group not yet written all along, so the calling thread,
        # which waits for it, tokenizes at most LOOKAHEAD_PER_WORKER batches of workers groups
        assert len(transport.tokenized_while_long) == 39  # its segments 1 to 39, with a kept prefix
        assert max(transport.tokenized_while_long) <= LOOKAHEAD_PER_WORKER
        assert len(transport.tokenize_bodies["/tokenize"]) == math.ceil(len(records) / SCORE_GROUP / workers)
        assert written == [compress_per_segment(monkeypatch, tmp_path, corpus_path, None, 1)]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failure", ["tokenize-401", "empty-thinking"])
    def test_a_lane_whose_instances_all_end_at_tokenizing_does_not_hang(
        self, monkeypatch, tmp_path, caplog, workers, failure
    ):
        # more groups than the window of LOOKAHEAD_PER_WORKER x workers, and none has a live instance
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", 0)
        records = make_corpus(SCORE_GROUP * (LOOKAHEAD_PER_WORKER * workers + 1), list("ABC "), random.Random(41))
        if failure == "empty-thinking":
            for record in records:
                record["thinking"] = ""
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")

        class Unauthorized(ToyTransport):
            def post(self, path, body, headers):
                if path == "/tokenize":
                    self.posts.append((path, threading.current_thread()))
                    return 401, {}, b'{"error": "bad key"}'
                return super().post(path, body, headers)

        transport = (Unauthorized if failure == "tokenize-401" else ToyTransport)(ToyBackend(shift_spec()))
        before = set(threading.enumerate())
        written = []
        run = threading.Thread(target=lambda: written.append(
            compress_over(monkeypatch, tmp_path, corpus_path, transport, workers, expect=1)), daemon=True)
        run.start()
        run.join(timeout=30)
        assert not run.is_alive(), "the run did not end"
        assert written == [b""]
        failed = [r.getMessage() for r in caplog.records if "failed" in r.getMessage()]
        assert len(failed) == len(records)
        assert not any(path == "/logprobs" for path, _ in transport.posts)
        assert set(threading.enumerate()) <= before | {run}

    @pytest.mark.parametrize("command", ["compress", "ablate"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_interrupt_stops_every_lane(self, monkeypatch, tmp_path, workers, command):
        monkeypatch.setattr(cts.cli, "GROUP_CHARS", 0)
        rng = random.Random(31)
        records = per_segment_corpus([rng.randint(1, 6) for _ in range(8 * SCORE_GROUP)], rng)
        corpus_path = write_jsonl_file(records, tmp_path / "corpus.jsonl")

        class Interrupted(ToyTransport):
            """Interrupts the run at the second /tokenize POST, while the lanes score the first batch."""

            def post(self, path, body, headers):
                if path == "/tokenize" and self.tokenize_bodies[path]:
                    raise KeyboardInterrupt
                return super().post(path, body, headers)

        before = set(threading.enumerate())
        out, report = tmp_path / "out", tmp_path / "report.json"
        cli_over(monkeypatch, Interrupted(ToyBackend(shift_spec())), [
            command, "--input", corpus_path, "--output", str(out), "--ratio", "0.7", "--backend", "http://fake",
            "--scope", "per-segment", "--segment-budget", "4", "--boundary-slack", "0", "--workers", str(workers),
            "--report", str(report),
        ], expect=130)
        assert set(threading.enumerate()) <= before
        if command == "compress":  # its report counts what the run did before the interrupt
            assert not out.exists() and report.exists()
        else:  # ablate's --output is the directory of its mode files
            assert os.listdir(out) == [] and not report.exists()


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
        assert client.logprobs_batch([REQUEST])[0] == [-1.0, -1.0, -1.0]
        assert bounds == [(0.0, 0.5), (0.0, 1.0), (0.0, 2.0)]
        assert len(sleeps) == 3
        assert all(0.0 <= s <= high for s, (_, high) in zip(sleeps, bounds))
        assert len(set(sleeps)) == 3  # jittered, not a fixed ladder

    def test_retry_after_of_a_503_sets_the_sleep(self):
        client, sleeps = retrying_client(Replies((503, {"Retry-After": "2"}), (503, {})), backoff=0.25)
        client.logprobs_batch([REQUEST])
        assert sleeps[0] == 2.0
        assert 0.0 <= sleeps[1] <= 0.5  # the next wait is jittered again

    def test_retry_after_above_the_timeout_sleeps_the_timeout(self):
        client, sleeps = retrying_client(Replies((503, {"Retry-After": "86400"})))
        client.logprobs_batch([REQUEST])
        assert sleeps == [client.config.timeout]

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

    # the bracket fails the URL before its user name is read, and the message still hides the password
    @pytest.mark.parametrize("url", ["http://[::1", "http://user:s3cret@[::1"])
    def test_unclosed_ipv6_bracket_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match="Invalid IPv6 URL") as exc:
            HttpBackend(HttpBackendConfig(base_url=url))
        assert "s3cret" not in str(exc.value)

    # urlsplit reads "user:s3cret@h" as scheme "user", with no user info to refuse; the message still hides it
    @pytest.mark.parametrize("url, shown", [("user:s3cret@h", "'h'"), ("user:s3cret@h:80/v1", "'h:80/v1'"),
                                            ("user:s3cret@[::1", "'[::1'")])
    def test_a_url_that_is_no_http_url_shows_nothing_before_its_at(self, url, shown):
        with pytest.raises(ConfigError, match="needs an http\\(s\\) scheme and a host") as exc:
            HttpBackend(HttpBackendConfig(base_url=url))
        assert "s3cret" not in str(exc.value) and shown in str(exc.value)

    @pytest.mark.parametrize("text, shown", [
        ("http://user:s3cret@h/v1", "http://h/v1"), ("http://a@b@h", "http://h"), ("http:u:p@h", "h"),
        ("http://h/v1@x", "http://h/v1@x"),  # an @ past the host part stays
        ("toy:spec.json", "toy:spec.json"),
    ])
    def test_without_userinfo_drops_what_precedes_an_at_in_the_host_part(self, text, shown):
        assert without_userinfo(text) == shown

    def test_host_that_cannot_be_sent_is_a_config_error(self):
        with pytest.raises(ConfigError, match="invalid host"):
            HttpBackend(HttpBackendConfig(base_url="http://a b/"))

    # urlsplit drops a tab or newline anywhere, so "/a\nb" would go to "/ab"; "é" is not ASCII
    @pytest.mark.parametrize("path", ["/a b", "/a\x00b", "/a\x7fb", "/a\nb", "/v1\t", "/é", "/v1?k=v", "/v1#f"])
    def test_path_that_cannot_be_sent_is_a_config_error(self, path):
        with pytest.raises(ConfigError, match="cannot be sent"):
            HttpBackend(HttpBackendConfig(base_url=f"http://fake{path}"))

    @pytest.mark.parametrize("token", ["s3cret\r\n", "s3cret\x00", "s3cret\x7f", "s3cret\x85", "s3cret\t", "s3cret€"])
    def test_token_that_cannot_be_sent_is_a_config_error_that_does_not_show_it(self, token):
        with pytest.raises(ConfigError) as exc:
            HttpBackend(HttpBackendConfig(base_url="http://fake", token=token))
        assert "s3cret" not in str(exc.value)

    def test_an_https_backend_holds_its_pool_of_tls_connections_and_opens_no_socket(self):
        client = HttpBackend(HttpBackendConfig(base_url="https://example.invalid/v1"))
        with closing(client):
            connections = client._connections
            assert len(connections) == MAX_IN_FLIGHT
            assert all(type(connection) is http.client.HTTPSConnection for connection in connections)
            assert {(connection.host, connection.port) for connection in connections} == {("example.invalid", 443)}
            # one TLS context, made once, serves the whole pool
            assert len({id(connection._context) for connection in connections}) == 1
            assert isinstance(connections[0]._context, ssl.SSLContext)
            assert all(connection.sock is None for connection in connections)

    def test_latin_1_token_is_sent(self):
        headers = []

        def post(path, body, sent):
            headers.append(sent["Authorization"])
            return 200, {}, b'[{"token_ids": [0], "spans": ["A"]}]'

        HttpBackend(HttpBackendConfig(base_url="http://fake", token="s3cret é"), post).tokenize(["A"])
        assert headers == ["Bearer s3cret é"]


def test_cli_import_does_not_load_requests():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, cts.cli; assert 'requests' not in sys.modules"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
