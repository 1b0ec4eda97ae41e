"""Lanes of work that keep input order.

``map_ordered(lane, items, workers)`` deals item i to lane i mod
``workers``. A lane is a function that takes an iterator over its own
items and yields one result per item, in order; the results of all lanes
come back in input order, so output files are byte-identical at any
parallelism level. Each lane runs on a thread of its own, at one worker
too, so the calling thread takes items from ``items`` while the lanes
work.

The calling thread takes the next item from ``items`` whenever fewer than
``LOOKAHEAD_PER_WORKER`` x ``workers`` items are out and not yet returned,
so at most that many are in memory. A lane must ask for its next item
only while it holds fewer than ``LOOKAHEAD_PER_WORKER`` items whose results
it has not yielded; a lane that asks while it holds that many gets a
RuntimeError, so a lane that breaks the rule fails instead of hanging.
Then the lane that holds the oldest item not yet returned never waits on
an item beyond that window, so the calling thread, which waits for that
item's result, and the lanes cannot deadlock. The CLI's items are groups
of instances, and each lane one rolling loop of lockstep steps over its
groups (``cts.cli._compress_stream``); the calling thread tokenizes a
batch of at most a window's groups (``cts.cli._batches``) as it takes
the batch's first group, so it holds at most one batch beyond the window.

When the caller stops (it closes the iterator, or a lane or ``items``
raises), each lane takes no more items and ends at its next result, or
once its work runs out; every lane is joined before ``map_ordered``
returns. A lane's exception is raised on the calling thread when that
lane's next result is due.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

LOOKAHEAD_PER_WORKER = 4

_END = object()


def _bounded(lane: Callable[[Iterator[T]], Iterator[R]], items: Iterator[T]) -> Iterator[R]:
    """``lane`` over ``items``, raising RuntimeError if it asks for an item while it holds LOOKAHEAD_PER_WORKER."""
    held = 0  # the items handed to the lane whose results it has not yielded

    def handed() -> Iterator[T]:
        nonlocal held
        while True:
            if held >= LOOKAHEAD_PER_WORKER:  # the lane would wait on an item beyond the window
                raise RuntimeError(f"a lane asked for an item while holding {held} without results")
            item = next(items, _END)
            if item is _END:
                return
            held += 1
            yield item

    for answer in lane(handed()):
        held -= 1
        yield answer


def map_ordered(lane: Callable[[Iterator[T]], Iterator[R]], items: Iterable[T], workers: int) -> Iterator[R]:
    window = workers * LOOKAHEAD_PER_WORKER
    inboxes = [queue.SimpleQueue() for _ in range(workers)]
    outboxes = [queue.SimpleQueue() for _ in range(workers)]
    stop = threading.Event()

    def run(number: int) -> None:
        try:
            inbox = (item for item in iter(inboxes[number].get, _END) if not stop.is_set())
            for answer in _bounded(lane, inbox):
                outboxes[number].put(answer)
                if stop.is_set():
                    return
        except BaseException as exc:  # raised on the calling thread when this lane's result is due
            outboxes[number].put(exc)

    def result(index: int) -> R:
        answer = outboxes[index % workers].get()
        if isinstance(answer, BaseException):
            raise answer
        return answer

    threads = [threading.Thread(target=run, args=(number,), name=f"cts-lane-{number}") for number in range(workers)]
    for thread in threads:
        thread.start()
    count = 0
    try:
        for count, item in enumerate(items, 1):
            inboxes[(count - 1) % workers].put(item)
            if count >= window:
                yield result(count - window)
        for inbox in inboxes:
            inbox.put(_END)  # each lane ends once it has done what it was sent
        for index in range(max(0, count - window + 1), count):
            yield result(index)
    finally:
        stop.set()
        for inbox in inboxes:
            inbox.put(_END)
        for thread in threads:
            thread.join()
