"""Run the cts CLI inside a process the benchmark controls.

    python3 bench/cli_child.py --setup <backend descriptor>
        Print the seconds from interpreter start to a constructed backend:
        ``import cts.cli`` plus ``build_backend(descriptor)``.

    python3 bench/cli_child.py --result <path> [--trace] -- <cts arguments>
        Run ``cts.cli.main`` on the arguments and write a JSON result: the
        exit code, the wall time after set-up (``main`` minus
        ``build_backend``), the backend requests and context tokens counted
        at the backend methods, and with ``--trace`` the spans around each
        layer's public functions. Exits with the CLI's exit code.

Each name is patched where it is looked up: ``cts.cli`` binds its helpers
with ``from ... import``, the selector calls its own module globals, and
backend methods are patched on their classes.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

BACKEND_METHODS = (("tokenize", "backends.tokenize"), ("logprobs_batch", "backends.logprobs"))


def instrument_backends(counts: dict, lock: threading.Lock, tracer) -> None:
    """Count every backend request (one POST each over HTTP) and its context tokens."""
    from cts import backends

    for cls in (backends.LogprobBackend, *backends.LogprobBackend.__subclasses__()):
        for attr, span_name in BACKEND_METHODS:
            original = cls.__dict__.get(attr)
            if original is None or getattr(original, "__isabstractmethod__", False):
                continue

            def call(self, arg, _original=original, _batch=attr == "logprobs_batch", _span=span_name):
                with lock:
                    counts["requests"] += 1
                    if _batch:
                        counts["context_tokens"] += sum(len(r.context) for r in arg)
                if tracer is None:
                    return _original(self, arg)
                extra = {
                    "http": isinstance(self, backends.HttpBackend),
                    "positions": sum(r.end - r.start for r in arg) if _batch else 0,
                }
                return tracer.record(_span, lambda: _original(self, arg), lambda _: extra)

            setattr(cls, attr, call)


def instrument_layers(tracer) -> None:
    import cts.cli as cli
    import cts.selector as selector

    for name, span in (("read_dataset", "dataset.read"), ("read_compressed_dataset", "dataset.read"),
                       ("map_ordered", "runner.map_ordered")):
        setattr(cli, name, tracer.wrap_iter(span, getattr(cli, name)))
    for name, span in (("compress_instance", "selector.compress_instance"), ("write_dataset", "dataset.write"),
                       ("write_jsonl", "dataset.write"), ("emit_sft", "emitters.emit_sft")):
        setattr(cli, name, tracer.wrap(span, getattr(cli, name)))
    selector.score_tokens = tracer.wrap("selector.score_tokens", selector.score_tokens)
    selector.select_tokens = tracer.wrap("selector.select_tokens", selector.select_tokens)
    selector.segment_thinking = tracer.wrap("selector.segment_thinking", selector.segment_thinking, extra=len)


def run(result_path: str, trace: bool, cli_args: list[str]) -> int:
    import cts.cli as cli
    from spans import Tracer

    counts = {"requests": 0, "context_tokens": 0}
    setup = []
    build_backend = cli.build_backend

    def timed_build_backend(descriptor):
        started = time.perf_counter()
        try:
            return build_backend(descriptor)
        finally:
            setup.append(time.perf_counter() - started)

    cli.build_backend = timed_build_backend
    tracer = Tracer() if trace else None
    instrument_backends(counts, threading.Lock(), tracer)
    if tracer is not None:
        instrument_layers(tracer)

    started = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - started - sum(setup)
    result = {
        "code": code,
        "wall_s": wall,
        "requests": counts["requests"],
        "context_tokens": counts["context_tokens"],
        "main_thread": threading.get_ident(),
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", metavar="DESCRIPTOR")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.setup:
        import cts.cli

        cts.cli.build_backend(args.setup)
        print(time.perf_counter() - START)
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    return run(args.result, args.trace, cli_args)


if __name__ == "__main__":
    sys.exit(main())
