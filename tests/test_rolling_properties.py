"""The rolling rule's /logprobs POST count over random corpora: compress and one-backend ablate, in each scope.

Each run goes over ``ToyTransport`` (tests/test_http_client.py) with small
groups and batches, so a short corpus spans several of each. Its /logprobs
POSTs equal ``rolling_posts``, the rule of ``cli._compress_stream``, whose
lanes take all their groups of the input's last batch in one step, and never
exceed the reference rule's, where the window fills every step. Its output
bytes equal the toy backend's at ``--workers 1``.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import random
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cts.cli  # noqa: E402
from cts.backends import ToyBackend  # noqa: E402

from conftest import shift_spec, write_jsonl_file  # noqa: E402
from test_http_client import ToyTransport, compress_per_segment, per_segment_corpus, rolling_posts  # noqa: E402


# as many examples as the loaded profile asks for: 100 under hypothesis's default profile, 500 under
# the "fault-sweep" profile of conftest.py
@settings(deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["compress", "ablate"]),
    scope=st.sampled_from(["global", "per-segment"]),
    workers=st.integers(1, 4),
    score_group=st.integers(1, 4),
    group_chars=st.sampled_from([0, 12, 40]),
    segments=st.lists(st.integers(1, 6), min_size=1, max_size=40),
    seed=st.integers(0, 2**16),
)
def test_logprobs_posts_follow_the_rolling_rule(command, scope, workers, score_group, group_chars, segments, seed):
    # instances of 1 to 6 segments at --segment-budget 4; in global scope each is one step
    records = per_segment_corpus(segments, random.Random(seed))
    lengths = [len(record["thinking"]) for record in records]
    steps = segments if scope == "per-segment" else [1] * len(segments)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cts.cli, "SCORE_GROUP", score_group)
        patch.setattr(cts.cli, "GROUP_CHARS", group_chars)
        tmp = Path(tmp)
        corpus_path = write_jsonl_file(records, tmp / "corpus.jsonl")
        transport = ToyTransport(ToyBackend(shift_spec()))
        extra = ["--scope", scope]
        written = compress_per_segment(patch, tmp, corpus_path, transport, workers, command, extra)
        posts = rolling_posts(lengths, steps, workers, score_group, group_chars)
        assert len(transport.logprobs_bodies) == posts
        assert posts <= rolling_posts(lengths, steps, workers, score_group, group_chars, last_batch=False)
        assert written == compress_per_segment(patch, tmp, corpus_path, None, 1, command, extra)
