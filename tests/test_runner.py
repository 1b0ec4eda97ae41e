"""map_ordered: results in input order, and a lane that breaks its bound fails instead of hanging."""

import threading

import pytest

from cts.runner import LOOKAHEAD_PER_WORKER, map_ordered


def squares(items):
    for item in items:
        yield item * item


def greedy(items):
    # takes every item before it yields a result, which no lane may do
    taken = list(items)
    yield from squares(taken)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_results_come_back_in_input_order(workers):
    items = range(10 * LOOKAHEAD_PER_WORKER * workers + 1)
    assert list(map_ordered(squares, items, workers)) == [item * item for item in items]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_lane_that_holds_too_many_items_raises(workers):
    raised = []

    def run():
        try:
            list(map_ordered(greedy, range(2 * LOOKAHEAD_PER_WORKER * workers), workers))
        except RuntimeError as exc:
            raised.append(str(exc))

    before = set(threading.enumerate())
    caller = threading.Thread(target=run, daemon=True)  # without the check the lanes and the caller wait forever
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "map_ordered did not end"
    assert raised == [f"a lane asked for an item while holding {LOOKAHEAD_PER_WORKER} without results"]
    assert set(threading.enumerate()) <= before


@pytest.mark.parametrize("workers", [1, 2])
def test_a_lane_may_hold_up_to_the_bound(workers):
    def holding(items):
        items = iter(items)
        while batch := [item for _, item in zip(range(LOOKAHEAD_PER_WORKER), items)]:
            yield from squares(batch)

    items = range(3 * LOOKAHEAD_PER_WORKER * workers)
    assert list(map_ordered(holding, items, workers)) == [item * item for item in items]
