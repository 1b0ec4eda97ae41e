"""Command-line surface.

Subcommands: compress, score (compress writing only the score dump),
emit {sft|rm-prompts|rm-rows}, ablate, stats.
Config precedence: CLI flag > config file > environment > built-in default.
Progress and warnings go to stderr; data artifacts go to files; nothing is
printed to stdout unless asked for (--print-report, stats).

Exit codes: 0 success; 1 per-record failures without --lenient; 2 usage or
configuration error; 3 backend unreachable after retries; 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import os
import sys
import time
from collections import deque
from contextlib import ExitStack, closing
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from .backends import HttpBackend, HttpBackendConfig, LogprobBackend, ToyBackend, ToyLmSpec
from .dataset import (
    CompressedInstance,
    CotInstance,
    JsonlWriter,
    compressed_to_dict,
    read_compressed_dataset,
    read_dataset,
    read_responses,
    read_rm_examples,
    write_dataset,
    write_jsonl,
)
from .emitters import SftRecord, build_rm_training_rows, emit_rm_prompts, emit_sft
from .errors import BackendUnavailable, ConfigError, CtsError, DatasetError
from .report import ReportBuilder, RunReport, report_from_records
from .runner import LOOKAHEAD_PER_WORKER, map_ordered
from .selector import (
    DEFAULT_CONDITION_TEMPLATE,
    SelectionConfig,
    compress_instance,  # noqa: F401  not called here; bench/cli_child.py instruments cts.cli by this name
    compress_steps,
    ended,
    lockstep_step,
    score_rows,
    score_rows_to_dicts,
)

logger = logging.getLogger("cts")

ENV_BACKEND_URL = "CTS_BACKEND_URL"
ENV_BACKEND_TOKEN = "CTS_BACKEND_TOKEN"

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_BACKEND = 3
EXIT_INTERRUPT = 130

MAX_WORKERS = 64
# the window rule (_fills_window): a group (_groups), the unit of dispatch to a lane, closes at
# SCORE_GROUP instances and GROUP_CHARS characters of thinking text, and a lane's /logprobs step is
# full by the same rule over its live instances. An instance holds its ids, spans and kept mask until
# its group is returned, and its log-probabilities too only when a score dump writes them.
SCORE_GROUP = 8
GROUP_CHARS = 4096


@dataclass
class AblationMode:
    """One cell of the 2x2 grid: conditioning on/off x standard/tuned backend."""

    name: str
    conditional: bool
    rm_profile: str


ABLATION_MODES = (
    AblationMode("base", conditional=False, rm_profile="standard"),
    AblationMode("conditional", conditional=True, rm_profile="standard"),
    AblationMode("rm_tuned", conditional=False, rm_profile="tuned"),
    AblationMode("proposed", conditional=True, rm_profile="tuned"),
)

_DEFAULTS: dict[str, Any] = {
    "ratio": None,
    "conditional": True,
    "condition_template": DEFAULT_CONDITION_TEMPLATE,
    "segment_budget": 512,
    "boundary_slack": 32,
    "scope": "global",
    "score_space": "ppl-diff",
    "iterative_original_prefix": False,
    "backend": None,
    "backend_tuned": None,
    "workers": 1,
    "lenient": False,
}
# settings that may come from a JSON config file, and the types of value each
# may have there: those of the value its CLI flag produces
_CONFIG_TYPES: dict[str, tuple[type, ...]] = {
    **dict.fromkeys(("conditional", "iterative_original_prefix", "lenient"), (bool,)),
    **dict.fromkeys(("segment_budget", "boundary_slack", "workers"), (int,)),
    **dict.fromkeys(("condition_template", "scope", "score_space", "backend", "backend_tuned"), (str,)),
    "ratio": (int, float),
}
# the values a setting with a fixed set of spellings may take, from its flag or a config file
_CHOICES: dict[str, tuple[str, ...]] = {"scope": ("global", "per-segment"), "score_space": ("ppl-diff", "bits-diff")}


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = data.keys() - _CONFIG_TYPES.keys()
    if unknown:
        raise ConfigError(f"config file {path!r} has unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        types = _CONFIG_TYPES[key]
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"config file {path!r}: {key} must be {names}, got {value!r}")
    return data


def resolve_settings(args: argparse.Namespace, *, default_ratio: float | None = None) -> dict[str, Any]:
    """Merge defaults, environment, config file, and CLI flags (highest wins)."""
    settings = dict(_DEFAULTS)
    env_url = os.environ.get(ENV_BACKEND_URL)
    if env_url:
        settings["backend"] = env_url
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_load_config_file(config_path))
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["ratio"] is None:
        settings["ratio"] = default_ratio
    if settings["ratio"] is None:
        raise ConfigError("a retention ratio is required (--ratio or config file)")
    workers = settings["workers"]
    if type(workers) is not int or not 1 <= workers <= MAX_WORKERS:
        raise ConfigError(f"workers must be an integer in [1, {MAX_WORKERS}], got {workers!r}")
    return settings


def selection_config_from(settings: dict[str, Any]) -> SelectionConfig:
    # checked under the names the user wrote, for a flag and a config-file value alike
    ratio = settings["ratio"]
    if not 0 < ratio <= 1:
        raise ConfigError(f"ratio must be in (0, 1], got {ratio!r}")
    for key, choices in _CHOICES.items():
        if settings[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {settings[key]!r}")
    config = SelectionConfig(
        alpha=float(ratio),
        conditional=settings["conditional"],
        condition_template=settings["condition_template"],
        segment_budget=settings["segment_budget"],
        boundary_slack=settings["boundary_slack"],
        score_space=settings["score_space"].replace("-", "_"),
        selection_scope=settings["scope"].replace("-", "_"),
        iterative_original_prefix=settings["iterative_original_prefix"],
    )
    config.validate()
    return config


def build_backend(descriptor: str | None) -> LogprobBackend:
    """Parse ``toy:<spec.json>`` or ``http:<url>`` (plain URLs also accepted)."""
    if not descriptor:
        raise ConfigError(
            f"no backend configured (use --backend or the {ENV_BACKEND_URL} environment variable)"
        )
    if descriptor.startswith("toy:"):
        return ToyBackend(ToyLmSpec.from_file(descriptor[len("toy:") :]))
    url = None
    if descriptor.startswith(("http://", "https://")):
        url = descriptor
    elif descriptor.startswith("http:"):
        url = descriptor[len("http:") :]
    if url:
        token = os.environ.get(ENV_BACKEND_TOKEN) or None
        return HttpBackend(HttpBackendConfig(base_url=url, token=token))
    raise ConfigError(f"unrecognized backend descriptor {descriptor!r}")


def _schema_from(args: argparse.Namespace) -> dict[str, str]:
    flags = {"problem": "problem_key", "thinking": "thinking_key", "answer": "answer_key", "id": "id_key"}
    return {canon: getattr(args, flag) for canon, flag in flags.items() if getattr(args, flag, None)}


def _config_echo(settings: dict[str, Any], config: SelectionConfig, args: argparse.Namespace) -> dict[str, Any]:
    echo = dataclasses.asdict(config)
    echo.update({key: settings[key] for key in ("backend", "workers", "lenient")})
    echo.update(input=getattr(args, "input", None), output=getattr(args, "output", None))
    return echo


def _write_report(payload: dict[str, Any], args: argparse.Namespace) -> None:
    """Write the report JSON to --report and print it with --print-report."""
    report_path = getattr(args, "report", None)
    if report_path:
        try:
            os.makedirs(os.path.dirname(os.path.abspath(report_path)), exist_ok=True)
            with open(report_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, ensure_ascii=False, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write report {report_path!r}: {exc}") from exc
    if getattr(args, "print_report", False):
        print(json.dumps(payload, ensure_ascii=False))


def _emit_report(report: RunReport, args: argparse.Namespace) -> None:
    _write_report(report.to_dict(), args)
    mean = "n/a" if report.mean_actual_ratio is None else f"{report.mean_actual_ratio:.4f}"
    logger.info("done: %d ok, %d failed, mean actual ratio %s", report.instances_ok, report.instances_failed, mean)


def _log_skipped(errors: list[DatasetError]) -> None:
    for err in errors:
        logger.warning("skipped record: %s", err)


def _exit_code(skipped: bool, lenient: bool) -> int:
    """The one per-record rule: a skipped or failed record fails the run unless lenient."""
    return EXIT_FAILURES if skipped and not lenient else EXIT_OK


@dataclass
class Job:
    """One selection over the input: its name, config and backend, and where its rows go."""

    name: str
    config: SelectionConfig
    backend: LogprobBackend
    output_path: str | None
    dump_path: str | None = None


def _fills_window(count: int, chars: int) -> bool:
    """The window rule: ``count`` instances of ``chars`` characters of thinking close a group or fill a step."""
    return count >= SCORE_GROUP and chars >= GROUP_CHARS


def _groups(instances: Iterable[CotInstance]) -> Iterator[list[CotInstance]]:
    """Consecutive lists of instances; the last may hold less than the rest.

    A group closes once its instances fill the window (``_fills_window``):
    at least ``SCORE_GROUP`` instances and at least ``GROUP_CHARS``
    characters of thinking text. So a group has at most ``SCORE_GROUP``
    instances, or fewer than ``GROUP_CHARS`` characters of thinking text
    before its last instance: instances of more than ``GROUP_CHARS /
    SCORE_GROUP`` characters on average go ``SCORE_GROUP`` to a group, and
    shorter ones share a group by characters.
    """
    group: list[CotInstance] = []
    chars = 0
    for instance in instances:
        group.append(instance)
        chars += len(instance.thinking)
        if _fills_window(len(group), chars):
            yield group
            group, chars = [], 0
    if group:
        yield group


def _batches(groups: Iterable[list[CotInstance]], workers: int) -> Iterator[list[list[CotInstance]]]:
    """Consecutive lists of groups, each tokenized in one call; the last may hold less than the rest.

    The first batch is ``workers`` groups, one per lane. Each later one
    closes at ``workers`` groups and ``LOOKAHEAD_PER_WORKER`` x
    ``GROUP_CHARS`` characters of thinking, the least text of one lane's
    window; every group but the last holds ``GROUP_CHARS``, so that is at
    most ``max(workers, LOOKAHEAD_PER_WORKER)`` groups.
    """
    batch: list[list[CotInstance]] = []
    chars = least = 0
    for group in groups:
        batch.append(group)
        chars += sum(len(instance.thinking) for instance in group)
        if len(batch) >= workers and chars >= least:
            yield batch
            batch, chars, least = [], 0, LOOKAHEAD_PER_WORKER * GROUP_CHARS
    if batch:
        yield batch


def _compress_stream(args: argparse.Namespace, jobs: list[Job], workers: int) -> tuple[list[ReportBuilder], bool]:
    """Read the input once and run every job on each instance; returns (builders, interrupted).

    Groups of consecutive instances (``_groups``) are the unit of dispatch.
    Each instance runs the steps of each selection (``compress_steps``).
    Their first step, tokenizing, is run for a batch of groups (``_batches``)
    at once on the calling thread: one tokenize call per backend with the
    distinct texts of the whole batch, halved when it fails
    (``selector._batch_then_split``). ``map_ordered`` deals group g to lane
    g mod ``workers``, each lane on a thread of its own, and takes a batch's
    groups as its window of ``LOOKAHEAD_PER_WORKER`` (4) x ``workers``
    groups has room, so tokenizing runs at most one batch beyond it.

    Each lane runs one rolling loop over its groups, the rule that
    ``tests/test_http_client.py::rolling_posts`` simulates. Before each
    ``lockstep_step`` it takes its next instances in input order, each with
    all its selections, until the live ones fill the window
    (``_fills_window``), so an instance that ends frees its place and the
    step's one logprobs call per backend serves whatever is live. A lane
    begins a group only while it holds fewer than ``LOOKAHEAD_PER_WORKER``,
    so it never waits on a group beyond the window; admission depends on
    the lane's own groups alone, so at a given ``workers`` the POST count
    repeats exactly. Only the instances whose own texts or requests fail
    are lost.

    Jobs with equal configs on one backend object are one selection: it is
    tokenized, scored and selected once, and each of those jobs writes and
    reports its outcome, which they share read-only. Only a selection that
    a job with a ``dump_path`` shares keeps its log-probabilities until its
    group is returned, as two arrays, and its score rows are built as it is
    written; every other one drops them once it has selected.

    Each output path gets its own atomic writer, so an aborted run leaves
    none of them. When the pass ends, the lanes are stopped and then every
    job's backend is closed.
    """
    read_errors: list[DatasetError] = []
    instances = read_dataset(args.input, _schema_from(args), errors=read_errors)
    builders = [ReportBuilder() for _ in jobs]
    # per job, the index of the first job with an equal config on the same backend; those run
    shared = [next(i for i, other in enumerate(jobs) if other.config == job.config and other.backend is job.backend)
              for job in jobs]
    distinct = {i: jobs[i] for i in shared}
    # the selections whose scores a score dump writes; the others keep none past their selection
    dumped = {i for i, job in zip(shared, jobs) if job.dump_path}

    def tokenized_groups() -> Iterator[list[tuple]]:
        # on the calling thread, as map_ordered takes a batch's first group; each group is its
        # list of entries (instance, its selections' tasks, their states)
        for batch in _batches(_groups(instances), workers):
            tasks = [(compress_steps(instance, job.config, i in dumped), job.backend)
                     for group in batch for instance in group for i, job in distinct.items()]
            states, tasks = iter(lockstep_step(tasks)), iter(tasks)
            for group in batch:
                yield [(instance, list(itertools.islice(tasks, len(distinct))),
                        list(itertools.islice(states, len(distinct)))) for instance in group]

    def lane(groups: Iterator[list[tuple]]) -> Iterator[list]:
        # one rolling loop over this lane's groups, in order; yields each group's (id, outcomes) list
        held: deque = deque()  # the entries of each group begun and not yet yielded
        untaken: Iterator[tuple] = iter(())  # the newest group's entries not yet taken
        live: list[tuple] = []  # the entries taken whose tasks have not all ended, in the order taken
        while True:
            # an entry not yet taken has ended only if it ended at tokenizing, and then taking it changes nothing
            while held and all(ended(states) for *_, states in held[0]):
                yield [(instance.id, dict(zip(distinct, states))) for instance, _, states in held.popleft()]
            if not _fills_window(len(live), sum(len(instance.thinking) for instance, *_ in live)):
                if entry := next(untaken, None):  # an instance joins with all its selections
                    if not ended(entry[2]):
                        live.append(entry)
                    continue
                # a group begins only while fewer than LOOKAHEAD_PER_WORKER are held
                if len(held) < LOOKAHEAD_PER_WORKER and (entries := next(groups, None)):
                    held.append(entries)
                    untaken = iter(entries)
                    continue
            if not live:
                return
            states = iter(lockstep_step([task for _, tasks, _ in live for task in tasks],
                                        [state for *_, states in live for state in states]))
            for *_, states_of in live:
                states_of[:] = itertools.islice(states, len(states_of))
            live = [entry for entry in live if not ended(entry[2])]

    interrupted = False
    try:
        with ExitStack() as stack:
            for backend in dict.fromkeys(job.backend for job in jobs):
                stack.callback(backend.close)

            def writer(path: str | None) -> JsonlWriter | None:
                return stack.enter_context(JsonlWriter(path)) if path else None

            # write_dataset writes the first job's dataset and so drives the
            # pass; every other output is written alongside it
            outputs = [(writer(job.output_path) if i else None, writer(job.dump_path))
                       for i, job in enumerate(jobs)]
            # closed before the writers and the backends, so no lane thread outlives the pass
            scored = stack.enter_context(closing(map_ordered(lane, tokenized_groups(), workers)))
            results = itertools.chain.from_iterable(scored)

            def first_records() -> Iterator[CompressedInstance]:
                for instance_id, outcomes in results:
                    for job, builder, (output, dump), i in zip(jobs, builders, outputs, shared):
                        outcome, exc = outcomes[i]
                        if exc is not None:
                            builder.add_failed()
                            logger.warning("%s: instance %s failed: %s", job.name, instance_id, exc)
                            continue
                        record, scores, selection = outcome
                        builder.add_ok(record)
                        if output is not None:
                            output.write(compressed_to_dict(record))
                        if dump is not None:
                            rows = score_rows(*scores, job.config)
                            for row in score_rows_to_dicts(record.id, rows, selection.kept_mask):
                                dump.write(row)
                    if outcomes[0][0] is not None:
                        yield outcomes[0][0][0]

            if jobs[0].output_path:
                write_dataset(first_records(), jobs[0].output_path)
            else:
                deque(first_records(), maxlen=0)  # drive the pass
    except KeyboardInterrupt:
        interrupted = True
    _log_skipped(read_errors)
    for builder in builders:
        builder.add_failed(len(read_errors))
    return builders, interrupted


def _check_outputs(written: list[str | None], inputs: list[str | None], report: str | None = None) -> None:
    """A usage error before any call: outputs must be distinct, none an input, each a regular file if it
    exists; the temp file of each ``written`` one (``JsonlWriter``) must be no file of the run and not exist."""
    written = [path for path in written if path]
    paths = [*written, report] if report else written
    real = [os.path.realpath(path) for path in paths]
    # a file named twice, or a file named as the directory that holds another
    if len(set(real)) < len(real) or any(os.path.dirname(path) in real for path in real):
        raise ConfigError(f"output files must be distinct and not directories, got {paths}")
    read = {os.path.realpath(path) for path in inputs if path}
    for path, full in zip(paths, real):
        if full in read:
            raise ConfigError(f"output file {path!r} is also an input of the run")
        if os.path.exists(full) and not os.path.isfile(full):
            raise ConfigError(f"output file {path!r} exists and is not a regular file")
    for path in written:
        tmp = path + ".tmp"
        if os.path.realpath(tmp) in read | set(real):
            raise ConfigError(f"temp file {tmp!r} of output file {path!r} is also an input or output of the run")
        if os.path.lexists(tmp):
            raise ConfigError(f"temp file {tmp!r} of output file {path!r} exists; "
                              "it may be left over from an interrupted run")


def _run_jobs(
    args: argparse.Namespace, settings: dict[str, Any], jobs: list[Job], echoes: list[dict[str, Any]]
) -> tuple[list[RunReport], int]:
    """Run the jobs in one pass; return one report per job and the exit code.

    Every report's wall_time_seconds is that of the shared pass.
    """
    specs = [backend[len("toy:"):] for backend in (settings["backend"], settings["backend_tuned"])
             if backend and backend.startswith("toy:")]
    _check_outputs([path for job in jobs for path in (job.output_path, job.dump_path)],
                   [args.input, args.config, *specs], args.report)
    started = time.monotonic()
    builders, interrupted = _compress_stream(args, jobs, settings["workers"])
    wall = time.monotonic() - started
    reports = [builder.build(wall, echo) for builder, echo in zip(builders, echoes)]
    if interrupted:
        return reports, EXIT_INTERRUPT
    return reports, _exit_code(any(report.instances_failed for report in reports), settings["lenient"])


def cmd_compress(args: argparse.Namespace) -> int:
    """Run compress; ``score`` is compress at default ratio 1.0 writing only the score dump to --output."""
    score_only = args.command == "score"
    settings = resolve_settings(args, default_ratio=1.0 if score_only else None)
    output_path, dump_path = (None, args.output) if score_only else (args.output, args.score_dump)
    config = selection_config_from(settings)
    job = Job(args.command, config, build_backend(settings["backend"]), output_path, dump_path)
    (report,), code = _run_jobs(args, settings, [job], [_config_echo(settings, config, args)])
    _emit_report(report, args)
    return code


def _sft_records(instances: Iterable[CompressedInstance], errors: list[DatasetError]) -> Iterator[SftRecord]:
    for instance in instances:
        try:
            yield emit_sft(instance)
        except DatasetError as err:
            errors.append(err)


def cmd_emit(args: argparse.Namespace) -> int:
    """Write one training artifact; every record that cannot be read or rendered is skipped."""
    _check_outputs([args.output], [args.input, args.responses])
    errors: list[DatasetError] = []
    if args.target == "sft":
        rows = _sft_records(read_compressed_dataset(args.input, errors=errors), errors)
    elif args.target == "rm-prompts":
        rows = emit_rm_prompts(read_rm_examples(args.input, errors=errors))
    else:
        if not args.responses:
            raise ConfigError("emit rm-rows requires --responses")
        rows = build_rm_training_rows(
            read_rm_examples(args.input, errors=errors),
            read_responses(args.responses, errors=errors),
            errors=errors,
        )
    write_jsonl(map(dataclasses.asdict, rows), args.output)
    _log_skipped(errors)
    return _exit_code(bool(errors), args.lenient)


def cmd_ablate(args: argparse.Namespace) -> int:
    """Run the four ablation modes in one pass over the input, one output file per mode."""
    settings = resolve_settings(args)
    # every mode's settings are checked before any backend is built, as in compress
    configs = [selection_config_from(dict(settings, conditional=mode.conditional)) for mode in ABLATION_MODES]
    standard = build_backend(settings["backend"])
    tuned = settings["backend_tuned"]
    backends = {
        "standard": standard,
        "tuned": build_backend(tuned) if tuned and tuned != settings["backend"] else standard,
    }
    jobs, echoes = [], []
    for mode, config in zip(ABLATION_MODES, configs):
        out_path = os.path.join(args.output, f"{mode.name}.jsonl")
        jobs.append(Job(f"ablate {mode.name}", config, backends[mode.rm_profile], out_path))
        echo = _config_echo(settings, config, args)  # the mode's conditional comes from its config
        echo.update(mode=mode.name, rm_profile=mode.rm_profile, output=out_path)
        echoes.append(echo)
    reports, code = _run_jobs(args, settings, jobs, echoes)
    if code == EXIT_INTERRUPT:
        return code
    print(f"{'mode':<12} {'mean_actual_ratio':>18} {'kept_tokens_total':>18}", file=sys.stderr)
    for mode, report in zip(ABLATION_MODES, reports):
        mean = "n/a" if report.mean_actual_ratio is None else f"{report.mean_actual_ratio:.4f}"
        print(f"{mode.name:<12} {mean:>18} {report.kept_tokens_total:>18}", file=sys.stderr)
    _write_report({mode.name: report.to_dict() for mode, report in zip(ABLATION_MODES, reports)}, args)
    return code


def cmd_stats(args: argparse.Namespace) -> int:
    errors: list[DatasetError] = []
    report = report_from_records(read_compressed_dataset(args.input, errors=errors), args.input, errors)
    _log_skipped(errors)
    print(json.dumps(report.to_dict(), ensure_ascii=False))
    return EXIT_OK


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", required=True, help="input JSONL path")
    parser.add_argument("--output", "-o", required=True, help="output path")


def _add_selection_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ratio", type=float, default=None, help="retention ratio in (0, 1]")
    parser.add_argument(
        "--conditional",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="score against the answer-conditioned context (default: on)",
    )
    parser.add_argument("--condition-template", dest="condition_template", default=None,
                        help="conditioning text; {answer} required unless empty, {problem} optional")
    parser.add_argument("--segment-budget", dest="segment_budget", type=int, default=None)
    parser.add_argument("--boundary-slack", dest="boundary_slack", type=int, default=None)
    parser.add_argument("--scope", choices=_CHOICES["scope"], default=None)
    parser.add_argument("--score-space", dest="score_space", choices=_CHOICES["score_space"], default=None)
    parser.add_argument(
        "--iterative-original-prefix",
        dest="iterative_original_prefix",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="per-segment scope: condition on the original instead of the compressed prefix",
    )


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None, help="toy:<spec.json> or http:<url>")
    parser.add_argument("--workers", type=int, default=None,
                        help=f"scoring lanes run at once, 1 to {MAX_WORKERS}")
    parser.add_argument("--lenient", action="store_true", default=None,
                        help="exit 0 even when some records fail")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--report", default=None, help="write the run report JSON here")
    parser.add_argument("--print-report", dest="print_report", action="store_true",
                        help="print the run report JSON to stdout")


def _add_schema_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem-key", dest="problem_key", default=None)
    parser.add_argument("--thinking-key", dest="thinking_key", default=None)
    parser.add_argument("--answer-key", dest="answer_key", default=None)
    parser.add_argument("--id-key", dest="id_key", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cts",
        description="Compress chain-of-thought training data by conditional token importance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="write a compressed dataset")
    _add_io_arguments(p_compress)
    _add_selection_arguments(p_compress)
    _add_runtime_arguments(p_compress)
    _add_schema_arguments(p_compress)
    p_compress.add_argument("--score-dump", dest="score_dump", default=None,
                            help="also write the per-token score dump JSONL here")
    p_compress.set_defaults(func=cmd_compress)

    p_score = sub.add_parser("score", help="write the per-token score dump without a dataset")
    _add_io_arguments(p_score)
    _add_selection_arguments(p_score)
    _add_runtime_arguments(p_score)
    _add_schema_arguments(p_score)
    p_score.set_defaults(func=cmd_compress)

    p_emit = sub.add_parser("emit", help="render training artifacts")
    p_emit.add_argument("target", choices=["sft", "rm-prompts", "rm-rows"])
    _add_io_arguments(p_emit)
    p_emit.add_argument("--responses", default=None,
                        help="rm-rows: JSONL of {source_id, compressed_steps}")
    p_emit.add_argument("--lenient", action="store_true", default=False,
                        help="exit 0 even when some records are skipped")
    p_emit.set_defaults(func=cmd_emit)

    p_ablate = sub.add_parser("ablate", help="run the four ablation modes over one input")
    _add_io_arguments(p_ablate)
    _add_selection_arguments(p_ablate)
    _add_runtime_arguments(p_ablate)
    _add_schema_arguments(p_ablate)
    p_ablate.add_argument("--backend-tuned", dest="backend_tuned", default=None,
                          help="backend for the tuned profile (default: same as --backend)")
    p_ablate.set_defaults(func=cmd_ablate)

    p_stats = sub.add_parser("stats", help="recompute the report from a compressed dataset")
    p_stats.add_argument("--input", "-i", required=True)
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BackendUnavailable as exc:
        print(f"error: backend unreachable: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except CtsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURES
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
