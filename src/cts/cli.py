"""Command-line surface.

Subcommands: compress, score (compress writing only the score dump),
emit {sft|rm-prompts|rm-rows}, ablate, stats.
Each setting of compress, score and ablate is declared once, in ``SETTINGS``:
its flag, its config-file key and type, and the SelectionConfig field it fills.
Config precedence: CLI flag > config file > environment > built-in default.
Progress and warnings go to stderr; data artifacts go to files; nothing is
printed to stdout unless asked for (--print-report, stats).

Exit codes: 0 success; 1 per-record failures without --lenient; 2 usage or
configuration error; 3 backend unreachable after retries; 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import itertools
import json
import logging
import os
import sys
import time
from collections import deque
from contextlib import ExitStack, closing, suppress
from dataclasses import dataclass
from pathlib import PurePath
from typing import Any, Callable, Iterable, Iterator

from .backends import HttpBackend, HttpBackendConfig, LogprobBackend, ToyBackend, ToyLmSpec, without_userinfo
from .dataset import (
    INPUT_FIELDS,
    CompressedInstance,
    CotInstance,
    JsonlWriter,
    compressed_to_dict,
    read_compressed_dataset,
    read_dataset,
    read_json_file,
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
    SCORE_SPACES,
    SELECTION_SCOPES,
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
# full by the same rule over its live instances, but in the input's last batch only when the lane can
# take nothing more: every group it will still get joins, at most LOOKAHEAD_PER_WORKER held (a short
# last batch joins the batch before it, _batches). An instance holds its ids, spans and kept mask until
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


@dataclass(frozen=True)
class Setting:
    """A setting of compress, score and ablate: its config-file key, and its flag, the key with hyphens.

    A selection setting fills the SelectionConfig ``field``; a field default
    is the setting's default, and its type the one a config file may hold.
    A setting with no field default has ``types`` (the last one the flag's;
    a string unless stated) and ``default``. ``choices`` are the field's
    values in hyphen spelling. A boolean selection setting has a ``--no-``
    flag too; a boolean runtime setting only turns on.
    """

    key: str
    field: str | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None
    types: tuple[type, ...] = (str,)
    default: Any = None

    def __post_init__(self) -> None:
        default = next((f.default for f in dataclasses.fields(SelectionConfig) if f.name == self.field),
                       dataclasses.MISSING)
        if default is not dataclasses.MISSING:
            object.__setattr__(self, "types", (type(default),))
            object.__setattr__(self, "default", _hyphens(default) if self.choices else default)


def _hyphens(value: str) -> str:
    return value.replace("_", "-")


# the one place a setting is declared, in flag order; ablate alone takes --backend-tuned, after its schema flags
SETTINGS: dict[str, Setting] = {setting.key: setting for setting in (
    Setting("ratio", "alpha", types=(int, float), help="retention ratio in (0, 1]"),
    Setting("conditional", "conditional", help="score against the answer-conditioned context (default: on)"),
    Setting("condition_template", "condition_template",
            help="conditioning text; {answer} required unless empty, {problem} optional"),
    Setting("segment_budget", "segment_budget"),
    Setting("boundary_slack", "boundary_slack"),
    Setting("scope", "selection_scope", tuple(map(_hyphens, SELECTION_SCOPES))),
    Setting("score_space", "score_space", tuple(map(_hyphens, SCORE_SPACES))),
    Setting("iterative_original_prefix", "iterative_original_prefix",
            help="per-segment scope: condition on the original instead of the compressed prefix"),
    Setting("backend", help="toy:<spec.json> or http:<url>"),
    Setting("workers", help=f"scoring lanes run at once, 1 to {MAX_WORKERS}", types=(int,), default=1),
    Setting("lenient", help="exit 0 even when some records fail", types=(bool,), default=False),
    Setting("backend_tuned", help="backend for the tuned profile (default: same as --backend)"),
)}


def _load_config_file(path: str) -> dict[str, Any]:
    data = read_json_file(path, "config file")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    unknown = data.keys() - SETTINGS.keys()
    if unknown:
        raise ConfigError(f"config file {path!r} has unknown keys: {sorted(unknown)}")
    for key, value in data.items():
        types = SETTINGS[key].types
        if type(value) not in types:
            names = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"config file {path!r}: {key} must be {names}, got {value!r}")
    return data


def resolve_settings(args: argparse.Namespace, *, default_ratio: float | None = None) -> dict[str, Any]:
    """Merge defaults, environment, config file, and CLI flags (highest wins)."""
    settings = {key: setting.default for key, setting in SETTINGS.items()}
    settings["backend"] = os.environ.get(ENV_BACKEND_URL) or None
    config_path = getattr(args, "config", None)
    if config_path:
        settings.update(_load_config_file(config_path))
    for key in SETTINGS:
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
    for key, setting in SETTINGS.items():
        if setting.choices and settings[key] not in setting.choices:
            raise ConfigError(f"{key} must be one of {setting.choices}, got {settings[key]!r}")
    # a field holds what its flag gives (a float ratio), a choice in underscore spelling
    fields = {setting.field: settings[key].replace("-", "_") if setting.choices else setting.types[-1](settings[key])
              for key, setting in SETTINGS.items() if setting.field}
    return SelectionConfig(**fields)


def _endpoint(descriptor: str | None) -> tuple[str, str]:
    """Read a backend descriptor: ``toy:<path>`` is ("toy", path), ``http:<url>`` and an http(s) URL ("http", url)."""
    if not descriptor:
        raise ConfigError(f"no backend configured (use --backend or the {ENV_BACKEND_URL} environment variable)")
    if descriptor.startswith(("http://", "https://")):
        return "http", descriptor
    kind, colon, where = descriptor.partition(":")
    if colon and kind in ("toy", "http"):
        return kind, where
    raise ConfigError(f"unrecognized backend descriptor {without_userinfo(descriptor)!r}")


def build_backend(descriptor: str | None) -> LogprobBackend:
    """The backend a descriptor names (``_endpoint``)."""
    kind, where = _endpoint(descriptor)
    if kind == "toy":
        return ToyBackend(ToyLmSpec.from_file(where))
    return HttpBackend(HttpBackendConfig(base_url=where, token=os.environ.get(ENV_BACKEND_TOKEN) or None))


def _schema_from(args: argparse.Namespace) -> dict[str, str]:
    return {canon: key for canon in INPUT_FIELDS if (key := getattr(args, f"{canon}_key"))}


def _config_echo(settings: dict[str, Any], config: SelectionConfig, args: argparse.Namespace) -> dict[str, Any]:
    echo = dataclasses.asdict(config)
    echo.update({key: settings[key] for key in ("backend", "workers", "lenient")})
    echo.update(input=getattr(args, "input", None), output=getattr(args, "output", None))
    return echo


def _json_text(payload: dict[str, Any], indent: int | None = None) -> str:
    """``payload`` as JSON; a byte of a path that is not UTF-8 (the surrogate ``\\udcff``) is written as its escape."""
    return json.dumps(payload, ensure_ascii=False, indent=indent).encode("utf-8", "backslashreplace").decode("utf-8")


def _print(text: str, stream: str = "stdout") -> None:
    """Print ``text`` to sys.stdout or sys.stderr. A stream that cannot take it, or is None, has its descriptor
    pointed at os.devnull, so no flush at exit fails again. Lost stdout is a ConfigError, as the user asked for it;
    a lost stderr line is dropped."""
    out = getattr(sys, stream)
    try:
        if out is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        print(text, file=out, flush=True)
    except OSError as exc:
        with suppress(OSError):  # a stream with no descriptor of its own, such as an io.StringIO
            fd = out.fileno() if out else {"stdout": 1, "stderr": 2}[stream]
            devnull = os.open(os.devnull, os.O_WRONLY)
            if devnull != fd:  # else it took the closed descriptor, the lowest free one
                os.dup2(devnull, fd)
                os.close(devnull)
        if stream == "stdout":
            raise ConfigError(f"cannot write standard output: {exc}") from exc


def _write_report(payload: dict[str, Any], args: argparse.Namespace) -> None:
    """Write the report JSON to --report and print it with --print-report, one text made before the file opens."""
    text = _json_text(payload, indent=2)
    if getattr(args, "report", None):
        with JsonlWriter(args.report) as writer:
            writer.write_text(text)
    if getattr(args, "print_report", False):
        _print(text)


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


def _runs(items: Iterable[Any], chars_of: Callable[[Any], int], full: Callable[[int, int], bool]) -> Iterator[list]:
    """Consecutive lists of ``items``, each closed once ``full(count, characters)``; the last may hold less."""
    run: list = []
    chars = 0
    for item in items:
        run.append(item)
        chars += chars_of(item)
        if full(len(run), chars):
            yield run
            run, chars = [], 0
    if run:
        yield run


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
    return _runs(instances, lambda instance: len(instance.thinking), _fills_window)


def _batches(groups: Iterable[list[CotInstance]], workers: int) -> Iterator[tuple[list[list[CotInstance]], bool]]:
    """Consecutive lists of groups, each tokenized in one call, and whether it is the input's last batch.

    A batch, the first one too, closes at ``workers`` groups and
    ``LOOKAHEAD_PER_WORKER`` x ``workers`` x ``GROUP_CHARS`` characters of
    thinking, the least text of ``map_ordered``'s whole window; every group
    but the last holds ``GROUP_CHARS``, so that is at most the window's
    ``LOOKAHEAD_PER_WORKER`` x ``workers`` groups. Only the input's last
    batch may be short, with fewer groups or less text: it then joins the
    batch before it if the two hold at most the window's groups, so the
    lanes take all of them under the last-batch rule. A batch goes out once
    the one after it is read, or the input ends.
    """
    window = LOOKAHEAD_PER_WORKER * workers

    def chars_of(group: list[CotInstance]) -> int:
        return sum(len(instance.thinking) for instance in group)

    def full(count: int, chars: int) -> bool:
        return count >= workers and chars >= window * GROUP_CHARS

    before: list[list[CotInstance]] = []  # the batch read last, held until the next one shows if it is short
    for batch in _runs(groups, chars_of, full):
        if len(before) + len(batch) <= window and not full(len(batch), sum(map(chars_of, batch))):
            before, batch = [], before + batch
        if before:
            yield before, False
        before = batch
    if before:
        yield before, True


def _compress_stream(args: argparse.Namespace, jobs: list[Job], workers: int) -> list[ReportBuilder]:
    """Read the input once and run every job on each instance; returns one report builder per job.

    Groups of consecutive instances (``_groups``) are the unit of dispatch.
    Each instance runs the steps of each selection (``compress_steps``).
    Their first step, tokenizing, is run for a batch of groups (``_batches``)
    at once on the calling thread: one tokenize call per backend with the
    distinct texts of the whole batch, halved when it fails
    (``selector._batch_then_split``). ``map_ordered`` deals group g to lane
    g mod ``workers``, each lane on a thread of its own, and takes a batch's
    groups as its window of ``LOOKAHEAD_PER_WORKER`` (4) x ``workers`` groups
    has room; a batch, the input's last one too, which a short last batch
    joins, is at most a window, so tokenizing runs at most one batch beyond it.

    Each lane runs one rolling loop over its groups, the rule that
    ``tests/test_http_client.py::rolling_posts`` simulates. Before each
    ``lockstep_step`` it takes its next instances in input order, each with
    all its selections, until the live ones fill the window
    (``_fills_window``), so an instance that ends frees its place and the
    step's one logprobs call per backend serves whatever is live. Once the
    lane has begun a group of the input's last batch, which comes marked
    with the number of groups after it and holds the groups of a short
    last batch and the batch before it, a step is full only when the lane
    can take nothing more: every group it will still get joins that step,
    at most ``LOOKAHEAD_PER_WORKER`` held, so a lane ends the run in the
    fewest steps and never asks for a group it will not get. A lane
    begins a group only while it holds fewer than ``LOOKAHEAD_PER_WORKER``,
    so it never waits on a group beyond the window; admission depends on
    the lane's own groups alone, so at a given ``workers`` the POST count
    repeats exactly. Only the instances whose own texts or requests fail
    are lost.

    Jobs with equal configs on one backend object are one selection: it is
    tokenized, scored and selected once, and each of those jobs writes and
    reports its outcome, which they share read-only. Only a selection that
    a job with a ``dump_path`` shares keeps its log-probabilities until its
    group is returned, as two arrays, and its score rows are built, one token
    at a time, as it is written; every other one drops them once selected.

    Each output path gets its own atomic writer, so a pass that an outage
    or an interrupt ends leaves none of them. When the pass ends, the lanes
    are stopped and then every job's backend is closed.
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

    def tokenized_groups() -> Iterator[tuple[list[tuple], int | None]]:
        # on the calling thread, as map_ordered takes a batch's first group; each group is its
        # list of entries (instance, its selections' tasks, their states) and, in the input's
        # last batch, the number of groups after it (None before that batch)
        for batch, last in _batches(_groups(instances), workers):
            tasks = [(compress_steps(instance, job.config, i in dumped), job.backend)
                     for group in batch for instance in group for i, job in distinct.items()]
            states, tasks = iter(lockstep_step(tasks)), iter(tasks)
            for number, group in enumerate(batch, 1):
                entries = [(instance, list(itertools.islice(tasks, len(distinct))),
                            list(itertools.islice(states, len(distinct)))) for instance in group]
                yield entries, len(batch) - number if last else None

    def lane(groups: Iterator[tuple[list[tuple], int | None]]) -> Iterator[list]:
        # one rolling loop over this lane's groups, in order; yields each group's (id, outcomes) list
        held: deque = deque()  # the entries of each group begun and not yet yielded
        untaken: Iterator[tuple] = iter(())  # the newest group's entries not yet taken
        live: list[tuple] = []  # the entries taken whose tasks have not all ended, in the order taken
        after: int | None = None  # the groups after the newest one begun, once it is in the last batch
        while True:
            # an entry not yet taken has ended only if it ended at tokenizing, and then taking it changes nothing
            while held and all(ended(states) for *_, states in held[0]):
                yield [(instance.id, dict(zip(distinct, states))) for instance, _, states in held.popleft()]
            # in the last batch a step is full only when the lane can take nothing more
            if after is not None or not _fills_window(len(live), sum(len(instance.thinking) for instance, *_ in live)):
                if entry := next(untaken, None):  # an instance joins with all its selections
                    if not ended(entry[2]):
                        live.append(entry)
                    continue
                # a group begins only while fewer than LOOKAHEAD_PER_WORKER are held, and only one the lane will get
                if len(held) < LOOKAHEAD_PER_WORKER and (after is None or after >= workers) and (
                        group := next(groups, None)):
                    entries, after = group
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
                    record, scores, mask = outcome
                    builder.add_ok(record)
                    if output is not None:
                        output.write(compressed_to_dict(record))
                    if dump is not None:  # one token's row and object at a time
                        for row in score_rows_to_dicts(record.id, score_rows(*scores, job.config), mask):
                            dump.write(row)
                if outcomes[0][0] is not None:
                    yield outcomes[0][0][0]

        if jobs[0].output_path:
            write_dataset(first_records(), jobs[0].output_path)
        else:
            deque(first_records(), maxlen=0)  # drive the pass
    _log_skipped(read_errors)
    for builder in builders:
        builder.add_failed(len(read_errors))
    return builders


def _check_outputs(written: list[str | None], inputs: list[str | None]) -> None:
    """A usage error before any call: outputs must be distinct, none an input, each a regular file if it
    exists; the temp file of each (``JsonlWriter``) must be no file of the run and not exist."""
    paths = [path for path in written if path]
    real = [os.path.realpath(path) for path in paths]
    holders = {str(parent) for full in real for parent in PurePath(full).parents}  # the directories that hold one
    # a file named twice, or a file named as a directory that holds another
    if len(set(real)) < len(real) or holders.intersection(real):
        raise ConfigError(f"output files must be distinct and not directories, got {paths}")
    read = {os.path.realpath(path) for path in inputs if path}
    for path, full in zip(paths, real):
        if full in read:
            raise ConfigError(f"output file {path!r} is also an input of the run")
        if os.path.exists(full) and not os.path.isfile(full):
            raise ConfigError(f"output file {path!r} exists and is not a regular file")
    for path in paths:
        tmp = JsonlWriter(path).tmp_path
        if os.path.realpath(tmp) in read | set(real) | holders:
            raise ConfigError(f"temp file {tmp!r} of output file {path!r} is also an input or output of the run, "
                              "or a directory that holds one")
        if os.path.lexists(tmp):
            raise ConfigError(f"temp file {tmp!r} of output file {path!r} exists; "
                              "it may be left over from an interrupted run")


def _run_jobs(
    args: argparse.Namespace, settings: dict[str, Any], jobs: list[Job], echoes: list[dict[str, Any]],
    descriptors: list[str],
) -> tuple[list[RunReport], int]:
    """Run the jobs, whose backends ``descriptors`` name, in one pass; return one report per job and the exit code.

    Every report's wall_time_seconds is that of the shared pass.
    """
    specs = [where for kind, where in map(_endpoint, descriptors) if kind == "toy"]
    _check_outputs([*(path for job in jobs for path in (job.output_path, job.dump_path)), args.report],
                   [args.input, args.config, *specs])
    started = time.monotonic()
    builders = _compress_stream(args, jobs, settings["workers"])
    wall = time.monotonic() - started
    reports = [builder.build(wall, echo) for builder, echo in zip(builders, echoes)]
    return reports, _exit_code(any(report.instances_failed for report in reports), settings["lenient"])


def cmd_compress(args: argparse.Namespace) -> int:
    """Run compress; ``score`` is compress at default ratio 1.0 writing only the score dump to --output."""
    score_only = args.command == "score"
    settings = resolve_settings(args, default_ratio=1.0 if score_only else None)
    output_path, dump_path = (None, args.output) if score_only else (args.output, args.score_dump)
    config = selection_config_from(settings)
    job = Job(args.command, config, build_backend(settings["backend"]), output_path, dump_path)
    (report,), code = _run_jobs(args, settings, [job], [_config_echo(settings, config, args)], [settings["backend"]])
    _write_report(report.to_dict(), args)
    mean = "n/a" if report.mean_actual_ratio is None else f"{report.mean_actual_ratio:.4f}"
    logger.info("done: %d ok, %d failed, mean actual ratio %s", report.instances_ok, report.instances_failed, mean)
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
    descriptors = [descriptor for descriptor in (settings["backend"], settings["backend_tuned"]) if descriptor]
    # one endpoint is one backend: one spec file, or one URL once its trailing / is dropped, as HttpBackend drops it
    endpoints = {(kind, os.path.realpath(where) if kind == "toy" else where.rstrip("/"))
                 for kind, where in map(_endpoint, descriptors)}
    backends = {"standard": standard, "tuned": build_backend(descriptors[1]) if len(endpoints) > 1 else standard}
    jobs, echoes = [], []
    for mode, config in zip(ABLATION_MODES, configs):
        out_path = os.path.join(args.output, f"{mode.name}.jsonl")
        jobs.append(Job(f"ablate {mode.name}", config, backends[mode.rm_profile], out_path))
        echo = _config_echo(settings, config, args)  # the mode's conditional comes from its config
        echo.update(mode=mode.name, rm_profile=mode.rm_profile, output=out_path)
        echoes.append(echo)
    reports, code = _run_jobs(args, settings, jobs, echoes, descriptors)
    table = [f"{'mode':<12} {'mean_actual_ratio':>18} {'kept_tokens_total':>18}"]
    for mode, report in zip(ABLATION_MODES, reports):
        mean = "n/a" if report.mean_actual_ratio is None else f"{report.mean_actual_ratio:.4f}"
        table.append(f"{mode.name:<12} {mean:>18} {report.kept_tokens_total:>18}")
    _print("\n".join(table), "stderr")
    _write_report({mode.name: report.to_dict() for mode, report in zip(ABLATION_MODES, reports)}, args)
    return code


def cmd_stats(args: argparse.Namespace) -> int:
    errors: list[DatasetError] = []
    report = report_from_records(read_compressed_dataset(args.input, errors=errors), args.input, errors)
    _log_skipped(errors)
    _print(_json_text(report.to_dict()))
    return EXIT_OK


def _add_io_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", required=True, help="input JSONL path")
    parser.add_argument("--output", "-o", required=True, help="output path")


def _add_setting_arguments(parser: argparse.ArgumentParser, keys: Iterable[str]) -> None:
    for key in keys:
        setting = SETTINGS[key]
        kind = ({"action": argparse.BooleanOptionalAction if setting.field else "store_true"}
                if setting.types == (bool,) else {"type": setting.types[-1], "choices": setting.choices})
        parser.add_argument(f"--{_hyphens(key)}", default=None, help=setting.help, **kind)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments of compress, score and ablate, but ablate's --backend-tuned."""
    _add_io_arguments(parser)
    _add_setting_arguments(parser, [key for key in SETTINGS if key != "backend_tuned"])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--report", default=None, help="write the run report JSON here")
    parser.add_argument("--print-report", dest="print_report", action="store_true",
                        help="print the run report JSON to stdout")
    for field in INPUT_FIELDS:  # the input schema
        parser.add_argument(f"--{field}-key", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cts",
        description="Compress chain-of-thought training data by conditional token importance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compress = sub.add_parser("compress", help="write a compressed dataset")
    _add_run_arguments(p_compress)
    p_compress.add_argument("--score-dump", dest="score_dump", default=None,
                            help="also write the per-token score dump JSONL here")
    p_compress.set_defaults(func=cmd_compress)

    p_score = sub.add_parser("score", help="write the per-token score dump without a dataset")
    _add_run_arguments(p_score)
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
    _add_run_arguments(p_ablate)
    _add_setting_arguments(p_ablate, ["backend_tuned"])
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
    except BackendUnavailable as exc:
        _print(f"error: backend unreachable: {exc}", "stderr")
        return EXIT_BACKEND
    except CtsError as exc:
        _print(f"error: {exc}", "stderr")
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_FAILURES
    except KeyboardInterrupt:
        return EXIT_INTERRUPT


if __name__ == "__main__":
    sys.exit(main())
