"""In-memory spans around calls into cts layers, and the per-layer numbers drawn from them.

A span is one call (or, for a generator, one ``next``) of a wrapped public
function: its name, thread, start, end and the span that was open on the
same thread when it began. ``Tracer`` runs inside the CLI process and keeps
spans in a list that the process writes out when it ends; the functions
below run in the benchmark process and turn those lists into metrics.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self):
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, call: Callable[[], Any], extra: Callable[[Any], Any] | None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"name": name, "id": span_id, "parent": parent, "thread": threading.get_ident(),
                "start": start, "end": end}
        if extra is not None:
            span["extra"] = extra(result)
        self.spans.append(span)  # list.append is atomic under the interpreter lock
        return result

    def wrap(self, name: str, fn: Callable, extra: Callable[[Any], Any] | None = None) -> Callable:
        """A span per call; ``extra(result)`` is stored with the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.record(name, lambda: fn(*args, **kwargs), extra)

        return wrapper

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """For a function returning an iterator: a span per ``next`` call.

        Each span's extra is the id of the call that made the iterator.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            call = next(self._ids)
            sentinel = object()
            while True:
                item = self.record(name, lambda: next(it, sentinel), lambda _: call)
                if item is sentinel:
                    return
                yield item

        return wrapper


def _sum(values) -> float:
    return float(sum(values))


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def command_layers(result: dict, workers: int) -> dict[str, Any]:
    """Per-layer totals for one traced CLI command (see cli_child.py for ``result``).

    Keys starting with ``_`` are inputs to ``rep_layers``, not metrics.
    """
    spans = result["spans"]
    by_name: dict[str, list[dict]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(name: str) -> list[float]:
        return [s["end"] - s["start"] for s in by_name[name]]

    def self_s(name: str) -> float:
        return _sum(s["end"] - s["start"] - child_time[s["id"]] for s in by_name[name])

    main_roots = [s for s in spans if s["parent"] is None and s["thread"] == result["main_thread"]]
    map_calls: dict[int, list[dict]] = defaultdict(list)
    for s in by_name["runner.map_ordered"]:
        map_calls[s["extra"]].append(s)
    map_wall = _sum(max(s["end"] for s in c) - min(s["start"] for s in c) for c in map_calls.values())
    backend = by_name["backends.tokenize"] + by_name["backends.logprobs"]
    http_rtts = [s["end"] - s["start"] for s in backend if s["extra"]["http"]]
    return {
        "backends.tokenize.calls": len(by_name["backends.tokenize"]),
        "backends.tokenize.s": _sum(dur("backends.tokenize")),
        "backends.logprobs.s": _sum(dur("backends.logprobs")),
        "backends.logprobs.positions": _sum(s["extra"]["positions"] for s in by_name["backends.logprobs"]),
        "_http_rtts": http_rtts,
        "_instance_durations": dur("selector.compress_instance"),
        "selector.compress_instance.self_s": self_s("selector.compress_instance"),
        "selector.score_tokens.self_s": self_s("selector.score_tokens"),
        "selector.select_tokens.s": _sum(dur("selector.select_tokens")),
        "selector.segment_thinking.s": _sum(dur("selector.segment_thinking")),
        "_segments": _sum(s["extra"] for s in by_name["selector.segment_thinking"]),
        "_instances": len(by_name["selector.compress_instance"]),
        "_instance_busy_s": _sum(dur("selector.compress_instance")),
        "_map_capacity_s": workers * map_wall,
        "dataset.read.s": self_s("dataset.read"),
        "dataset.write.s": self_s("dataset.write"),
        "emitters.emit_sft.s": _sum(dur("emitters.emit_sft")),
        "cli.self_s": result["wall_s"] - _sum(s["end"] - s["start"] for s in main_roots),
    }


def rep_layers(commands: list[dict], stub: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: its commands summed, plus stub counters."""
    total: dict[str, Any] = defaultdict(float)
    lists: dict[str, list[float]] = defaultdict(list)
    for layers in commands:
        for key, value in layers.items():
            if isinstance(value, list):
                lists[key].extend(value)
            else:
                total[key] += value
    rtts = lists["_http_rtts"]
    durations = lists["_instance_durations"]
    out = {k: v for k, v in total.items() if not k.startswith("_")}
    out.update({
        "backends.http.posts": stub["posts"],
        "backends.http.rtt_p50_ms": _percentile_ms(rtts, 50),
        "backends.http.rtt_p99_ms": _percentile_ms(rtts, 99),
        "backends.http.client_overhead_s": _sum(rtts) - stub["busy_s"] if rtts else 0.0,
        "backends.http.request_bytes": stub["request_bytes"],
        "selector.compress_instance.p50_ms": _percentile_ms(durations, 50),
        "selector.compress_instance.p99_ms": _percentile_ms(durations, 99),
        "selector.segments_per_instance": total["_segments"] / total["_instances"] if total["_instances"] else 0.0,
        "runner.worker_busy_frac": (
            total["_instance_busy_s"] / total["_map_capacity_s"] if total["_map_capacity_s"] else 0.0
        ),
        "dataset.bytes_written": bytes_written,
        "stub.busy_s": stub["busy_s"],
        "stub.service_p50_ms": _percentile_ms(stub["service_s"], 50),
        "stub.max_concurrency": stub["max_concurrency"],
    })
    return out
