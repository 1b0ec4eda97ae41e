"""Repository benchmark: the cts CLI end to end, and each layer on its own.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds ``src/cts`` and
``tests/http_stub.py``. One run:

1. writes the workload's inputs from the seed (``workloads.py``) and a
   reference output, produced in this process by ``cts.cli.main`` with the
   toy backend at ``--workers 1``;
2. starts the scoring stub (``stub.py``), which serves that spec over HTTP
   from a process of its own;
3. repeats the workload's CLI commands, each in a child process
   (``cli_child.py``), for ``--seconds`` and at least ``MIN_REPS`` times,
   comparing every output file line by line with the reference. A line that
   differs fails its instance;
4. after each repetition times set-up (``import cts.cli`` plus
   ``build_backend`` for the stub's URL) ``SETUP_SAMPLES_PER_REP`` times in
   fresh interpreters.

With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions. With ``--trace 1`` it alternates untraced and traced
repetitions and reports per-layer metrics from the traced ones, plus the
tracing overhead. A traced repetition must write the same bytes as an
untraced one.

The last stdout line is the result JSON; the line before it records the
seed, machine, stub constants and output sha256 values. The exit code is 0
only when every output matched the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

from spans import command_layers, rep_layers
from workloads import STUB_POST_MS, STUB_TOKEN_US, WORKLOADS, Workload, commands, write_inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CLI_CHILD = os.path.join(BENCH, "cli_child.py")

SETUP_SAMPLES_PER_REP = 2
MIN_REPS = 4
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "backend_posts_per_instance": "requests",
    "backend_context_tokens_per_instance": "tokens",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "backends.tokenize.calls": "count",
    "backends.tokenize.s": "s",
    "backends.logprobs.s": "s",
    "backends.logprobs.positions": "count",
    "backends.http.posts": "count",
    "backends.http.rtt_p50_ms": "ms",
    "backends.http.rtt_p99_ms": "ms",
    "backends.http.client_overhead_s": "s",
    "backends.http.request_bytes": "B",
    "selector.compress_instance.p50_ms": "ms",
    "selector.compress_instance.p99_ms": "ms",
    "selector.compress_instance.self_s": "s",
    "selector.score_tokens.self_s": "s",
    "selector.select_tokens.s": "s",
    "selector.segment_thinking.s": "s",
    "selector.segments_per_instance": "count",
    "runner.worker_busy_frac": "ratio",
    "dataset.read.s": "s",
    "dataset.write.s": "s",
    "dataset.bytes_written": "B",
    "emitters.emit_sft.s": "s",
    "cli.self_s": "s",
    "stub.busy_s": "s",
    "stub.service_p50_ms": "ms",
    "stub.max_concurrency": "count",
    "trace.overhead_frac": "ratio",
}


# the program under test, and the stub handler the scoring server reuses
REQUIRED_FILES = ("src/cts/cli.py", "tests/http_stub.py")


class Stub:
    """The scoring stub in its own process; stopped and waited for on exit."""

    def __init__(self, spec_path: str, log_path: str):
        self.argv = [sys.executable, os.path.join(BENCH, "stub.py"), "--spec", spec_path,
                     "--post-ms", str(STUB_POST_MS), "--token-us", str(STUB_TOKEN_US)]
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def __enter__(self) -> "Stub":
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=log)
        try:
            line = self.proc.stdout.readline().decode()
            if not line.startswith("PORT "):
                raise RuntimeError(f"stub did not start; see {self.log_path}")
            self.url = f"http://127.0.0.1:{int(line.split()[1])}"
        except BaseException:
            self.__exit__()
            raise
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as resp:
            return json.load(resp)

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_child(argv: list[str], log_path: str) -> tuple[int, int]:
    """Run a child to completion; return its exit code and peak RSS in KiB."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def measure_setup(descriptor: str) -> float:
    done = subprocess.run([sys.executable, CLI_CHILD, "--setup", descriptor],
                          capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout)


def read_outputs(directory: str) -> dict[str, bytes]:
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".jsonl"):
                path = os.path.join(base, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, directory)] = fh.read()
    return out


def failed_instances(outputs: dict[str, bytes], reference: dict[str, bytes], n: int) -> set[int]:
    """Indices of instances whose line differs from the reference in any output file."""
    failed: set[int] = set()
    for rel in reference.keys() | outputs.keys():
        ref = reference.get(rel, b"").splitlines()
        got = outputs.get(rel, b"").splitlines()
        for i in range(max(len(ref), len(got))):
            if i >= len(ref) or i >= len(got) or ref[i] != got[i]:
                failed.add(min(i, n - 1))
    return failed


def sha256s(outputs: dict[str, bytes]) -> dict[str, str]:
    return {rel: hashlib.sha256(data).hexdigest() for rel, data in sorted(outputs.items())}


def write_reference(workload: Workload, spec_path: str, corpus_path: str, directory: str) -> dict[str, bytes]:
    import cts.cli

    for args in commands(workload, corpus_path, f"toy:{spec_path}", 1, directory):
        with open(os.path.join(os.path.dirname(directory), "reference.log"), "a", encoding="utf-8") as log:
            with contextlib.redirect_stderr(log):
                code = cts.cli.main(args)
        if code != 0:
            raise RuntimeError(f"reference run {args[0]} exited {code}")
    return read_outputs(directory)


class Bench:
    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.spec_path, self.corpus_path, self.tokens = write_inputs(workload, seed, workdir)
        self.reference = write_reference(workload, self.spec_path, self.corpus_path,
                                         os.path.join(workdir, "reference"))
        self.stub: Stub | None = None  # set once the stub serves this run's spec
        self.reps = 0

    def rep(self, traced: bool) -> dict:
        """Run the workload's commands once; return timings, counts and output checks."""
        out_dir = os.path.join(self.workdir, f"rep-{self.reps}")
        self.reps += 1
        results, rss_kib = [], 0
        argvs = commands(self.workload, self.corpus_path, self.stub.url, self.workload.workers, out_dir)
        os.makedirs(out_dir)
        for j, args in enumerate(argvs):
            result_path = os.path.join(out_dir, f"command-{j}.json")
            child = [sys.executable, CLI_CHILD, "--result", result_path, *(["--trace"] if traced else []),
                     "--", *args]
            code, maxrss = run_child(child, os.path.join(self.workdir, "cli.log"))
            rss_kib = max(rss_kib, maxrss)
            if code != 0 or not os.path.exists(result_path):
                break
            with open(result_path, encoding="utf-8") as fh:
                results.append(json.load(fh))
        stub = self.stub.stats()
        outputs = read_outputs(out_dir)
        rep = {
            "traced": traced,
            "ok": len(results) == len(argvs),
            "failed": failed_instances(outputs, self.reference, self.workload.n_instances),
            "sha256": sha256s(outputs),
            "wall_s": sum(r["wall_s"] for r in results),
            "requests": sum(r["requests"] for r in results),
            "context_tokens": sum(r["context_tokens"] for r in results),
            "rss_kib": rss_kib,
            "posts": stub["posts"],
            "context_tokens_at_stub": stub["context_tokens"],
        }
        if traced and rep["ok"]:
            layers = [command_layers(r, self.workload.workers) for r in results]
            bytes_written = sum(len(data) for data in outputs.values())
            rep["layers"] = rep_layers(layers, stub, bytes_written)
        shutil.rmtree(out_dir)
        return rep


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, workdir: str) -> tuple[dict, dict]:
    """Run one benchmark; return (result line, record line)."""
    bench = Bench(workload, seed, workdir)
    with Stub(bench.spec_path, os.path.join(workdir, "stub.log")) as stub:
        bench.stub = stub
        setup: list[float] = []
        reps: list[dict] = []
        kinds = (False, True) if trace else (False,)
        started = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
            for traced in kinds:
                reps.append(bench.rep(traced))
            # spread over the run, so the median sees the same machine as the repetitions
            setup.extend(measure_setup(stub.url) for _ in range(SETUP_SAMPLES_PER_REP))

    n = workload.n_instances
    problems = []
    failed = sum(len(r["failed"]) for r in reps)
    if failed or not all(r["ok"] for r in reps):
        problems.append("outputs differ from the reference or a command failed")
    if len({json.dumps(r["sha256"]) for r in reps}) != 1:
        problems.append("repetitions (traced and untraced) wrote different bytes")
    if any(r["requests"] != r["posts"] or r["context_tokens"] != r["context_tokens_at_stub"] for r in reps):
        problems.append("backend requests counted by the client and by the stub disagree")

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    def tokens_per_s(rows) -> float:
        return median([bench.tokens / r["wall_s"] for r in rows if r["wall_s"] > 0])

    if trace:
        values = {name: median([r["layers"][name] for r in traced if "layers" in r])
                  for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        untraced_tps = tokens_per_s(untraced)
        values["trace.overhead_frac"] = 1.0 - tokens_per_s(traced) / untraced_tps if untraced_tps else 0.0
        units = PER_LAYER_UNITS
    else:
        values = {
            "tokens_per_s": tokens_per_s(untraced),
            "setup_s": median(setup),
            "backend_posts_per_instance": median([r["posts"] / n for r in untraced]),
            "backend_context_tokens_per_instance": median([r["context_tokens_at_stub"] / n for r in untraced]),
            "peak_rss_mb": median([r["rss_kib"] / 1024 for r in untraced]),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": n * len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "instances": n,
        "thinking_tokens": bench.tokens,
        "workers": workload.workers,
        "stub_post_ms": STUB_POST_MS,
        "stub_token_us": STUB_TOKEN_US,
        "reps": {"untraced": len(untraced), "traced": len(traced)},
        "tokens_per_s_by_rep": [bench.tokens / r["wall_s"] for r in reps if r["wall_s"] > 0],
        "failed_frac": failed / result["attempted"],
        "problems": problems,
        "output_sha256": reps[0]["sha256"],
        "reference_sha256": sha256s(bench.reference),
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cts benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [rel for rel in REQUIRED_FILES if not os.path.isfile(os.path.join(ROOT, rel))]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}: run from a full cts checkout", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its stub and children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # keep the in-process reference run's INFO lines off the benchmark's output
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result, record = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<18} {name:<38} {metric['value']:>16.6g} {metric['unit']}", file=sys.stderr)
    print(f"{args.workload:<18} {'failed_frac':<38} {record['failed_frac']:>16.6g} ratio", file=sys.stderr)
    for problem in record["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
