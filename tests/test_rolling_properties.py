"""The rolling rule's POST counts over random corpora: compress and one-backend ablate, in each scope.

Each run goes over ``ToyTransport`` (tests/test_http_client.py) with small
groups and batches, so a short corpus spans several of each. Its /tokenize
POSTs number the batches of ``batches_by_rule``, the rule of
``cli._batches``, where a short last batch joins the one before it. Its
/logprobs POSTs equal ``rolling_posts``, the rule of ``cli._compress_stream``,
whose lanes take all their groups of the input's last batch in one step, and
never exceed the reference rule's, where the window fills every step. Both
together never exceed those of the earlier batch rule, where a short last
batch stays alone. Its output bytes equal the toy backend's at ``--workers 1``.

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
from test_http_client import (  # noqa: E402
    ToyTransport,
    batches_by_rule,
    compress_per_segment,
    groups_by_rule,
    per_segment_corpus,
    rolling_posts,
)


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
        groups = groups_by_rule(lengths, score_group, group_chars)
        batches = len(batches_by_rule(groups, lengths, workers, group_chars))
        posts = rolling_posts(lengths, steps, workers, score_group, group_chars)
        assert len(transport.tokenize_bodies["/tokenize"]) == batches
        assert len(transport.logprobs_bodies) == posts
        assert posts <= rolling_posts(lengths, steps, workers, score_group, group_chars, last_batch=False)
        # the earlier batch rule, where a short last batch stays alone
        assert batches + posts <= len(batches_by_rule(groups, lengths, workers, group_chars, False)) + rolling_posts(
            lengths, steps, workers, score_group, group_chars, join_short_tail=False)
        assert written == compress_per_segment(patch, tmp, corpus_path, None, 1, command, extra)


# 2,000 instances of 150 to 250 characters, the bench recipe's evenly spaced lengths in a shuffled order, in
# global scope at the default constants: 95 groups of 21 or so, and a batch is the window's 4 groups per worker.
# The last batch, of 3, 7 or 15 groups at 1, 2 or 4 workers, is short, but with the batch before it it would
# pass the window, so it stays alone and the POSTs are those of the earlier rule, README's 117, 102 and 90:
# 24 + 93 at 1 worker, 12 + 90 at 2 and 6 + 84 at 4
@pytest.mark.parametrize("workers, tokenize_posts, logprobs_posts", [(1, 24, 93), (2, 12, 90), (4, 6, 84)])
def test_a_large_input_keeps_its_batches(workers, tokenize_posts, logprobs_posts):
    lengths = [150 + 100 * i // 1999 for i in range(2000)]
    random.Random(1).shuffle(lengths)
    groups = groups_by_rule(lengths, cts.cli.SCORE_GROUP, cts.cli.GROUP_CHARS)
    for join_short_tail in (True, False):
        batches = batches_by_rule(groups, lengths, workers, cts.cli.GROUP_CHARS, join_short_tail)
        assert len(batches) == tokenize_posts
        assert rolling_posts(lengths, [1] * len(lengths), workers, cts.cli.SCORE_GROUP, cts.cli.GROUP_CHARS,
                             join_short_tail=join_short_tail) == logprobs_posts
