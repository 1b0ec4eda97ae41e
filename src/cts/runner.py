"""Bounded worker pool that preserves input order.

Items are processed concurrently but results come back in submission
order, so output files are byte-identical at any parallelism level. The
lookahead window keeps memory bounded by a constant number of records.

The CLI chains two of these: a tokenize stage maps over instances and
feeds a score stage that maps over groups of consecutive instances, each
group scored in lockstep. With N workers, N groups are scored at a time
(up to LOOKAHEAD_PER_WORKER * N groups wait for a worker), one POST in
flight each. The tokenize stage gets the rest of the MAX_IN_FLIGHT (8)
budget but at least 2N threads: T = max(2N, 8 - N) threads run up to
LOOKAHEAD_PER_WORKER * T instances ahead of the group being formed (28 at
N = 1, 24 at N = 2). The stages add threads, not POSTs in flight: each
HTTP backend keeps at most ``max_in_flight`` (8) POSTs in flight, whatever
N is. With one worker ``map_ordered`` calls ``fn`` on the calling thread.
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
