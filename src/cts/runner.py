"""Bounded worker pool that preserves input order.

Items are processed concurrently but results come back in submission
order, so output files are byte-identical at any parallelism level. The
lookahead window keeps memory bounded by a constant number of items.
The CLI chains two of these, a tokenize stage and a score stage, over
groups of instances; a group has at most ``SCORE_GROUP`` (4) instances,
or fewer than ``GROUP_CHARS`` (4,096) characters of thinking text before
its last instance (``cts.cli._groups``). With one worker
``map_ordered`` calls ``fn`` on the calling thread.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

LOOKAHEAD_PER_WORKER = 4


def map_ordered(fn: Callable[[T], R], items: Iterable[T], workers: int) -> Iterator[R]:
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    window: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                window.append(pool.submit(fn, item))
                if len(window) >= workers * LOOKAHEAD_PER_WORKER:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:
                future.cancel()
