"""A derandomized sweep of the CLI's settings and output paths, run in process on the toy backend.

Each example runs compress, score or ablate with each selection and runtime
setting given by its flag, by a config file, or not at all: each one valid
(some at a bound), and up to two of them out of range or of the wrong type.
Its input ends in up to two bad lines, each a record that every reader
skips, and its config file or toy spec may be one that json cannot read or
that holds no JSON object. Its --output, --score-dump (compress only) and
--report each name a fresh file, one under a missing directory, a file the
run reads, an existing directory or file, a FIFO (where os.mkfifo exists),
another output's temp file, or a path under another output. Its toy backend
is named by --backend in about half the examples; the environment variable
CTS_BACKEND_URL is unset, names it too, or holds a backend descriptor with
a password. Every run exits 0, 1 or 2 (an argparse usage error is its
SystemExit(2)) and writes no traceback and no password to stderr; a run
that exits 2 starts no lane and creates, removes or changes no file; a run
with no backend, a wrong --workers, or a bad config or spec file exits 2; a
run creates no file but its outputs, so no temp file is left, and no bad
line's id reaches an output; and every file the run reads, and every other
file that is not an output of a run that exits 0 or 1, is byte-identical
afterwards. Every path lies under the test's tmp_path.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import contextlib
import io
import json
import os
import random
import stat
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import cts.cli  # noqa: E402
from cts.selector import DEFAULT_CONDITION_TEMPLATE  # noqa: E402

from conftest import UNREADABLE_JSON, random_spec, write_jsonl_file, write_spec_file  # noqa: E402

# the default condition renders in this vocabulary; a thinking text with a "Z" cannot be tokenized
SPEC = random_spec(sorted(set(DEFAULT_CONDITION_TEMPLATE.replace("{answer}", "") + "ABC 42")), random.Random(0))
RECORDS = [{"id": f"s-{i}", "problem": "", "thinking": thinking, "answer": "42"}
           for i, thinking in enumerate(["AB CA BC", "CCA B", "A", "ABZ C", "B CAB CAB CAB A"])]

# input lines that are skipped records: no thinking, a thinking that is not text, a line that is not UTF-8, and an
# unpaired surrogate (its JSON escape) in the thinking, in an extra field, nested in one, or in the id
BAD_LINES = [
    b'{"id": "bad-0", "problem": "", "answer": "42"}',
    b'{"id": "bad-1", "problem": "", "thinking": 7, "answer": "42"}',
    b'{"id": "bad-2", "problem": "", "thinking": "AB \xff", "answer": "42"}',
    b'{"id": "bad-3", "problem": "", "thinking": "AB \\ud800", "answer": "42"}',
    b'{"id": "bad-4", "problem": "", "thinking": "AB", "answer": "42", "note": "\\udfff"}',
    b'{"id": "bad-5", "problem": "", "thinking": "AB", "answer": "42", "meta": {"tags": ["x", "\\udc80"]}}',
    b'{"id": "bad-6-\\ud83d", "problem": "", "thinking": "AB", "answer": "42"}',
]

# the bytes of a config file or toy spec that cannot be read: json cannot read them, or they hold a JSON array
BAD_FILES = [*UNREADABLE_JSON.values(), b"[0.5]"]
# which file is bad and its bytes, in about one example of four, or None
bad_files = st.one_of(st.none(), st.none(), st.none(),
                      st.tuples(st.sampled_from(["config", "spec"]), st.sampled_from(BAD_FILES)))

# per setting and source, the valid values (some at a bound), then the values out of range or of the wrong type:
# a "flag" value is the text after its flag, or the arguments of a boolean flag; a "config" value is JSON
SETTINGS: dict[str, dict[str, tuple[list, list]]] = {
    "ratio": {"flag": (["0.5", "1", "1e-9"], ["0", "1.0000001", "-0.5", "nan", "inf", "half", ""]),
              "config": ([0.5, 1, 1e-9], [0, 1.5, -1, True, "0.5", None, [0.5]])},
    "segment_budget": {"flag": (["33", "64", "512"], ["0", "-1", "2.5", "x"]),
                       "config": ([33, 512], [0, -1, 2.5, "8", True, None])},
    "boundary_slack": {"flag": (["0", "1", "32"], ["-1", "512", "0.5", "x"]),
                       "config": ([0, 3, 32], [-1, 512, 0.5, "0", False, None])},
    "scope": {"flag": (["global", "per-segment"], ["per_segment", ""]),
              "config": (["global", "per-segment"], ["per_segment", "", 1])},
    "score_space": {"flag": (["ppl-diff", "bits-diff"], ["bits_diff"]),
                    "config": (["ppl-diff", "bits-diff"], ["bits", 0])},
    "condition_template": {"flag": (["{answer}:", "", "{answer}{", "{answer}{problem.x}"], [":", "{{answer}}"]),
                           "config": (["{answer}:", DEFAULT_CONDITION_TEMPLATE, ""],
                                      ["no answer", "{{answer}}", 5, None])},
    "workers": {"flag": (["1", "2", "3", "4"], ["0", "65", "2.0", "x"]),
                "config": ([1, 2, 4], [0, 65, 2.0, "2", True, None])},
    "conditional": {"flag": ([["--conditional"], ["--no-conditional"]], [["--conditional=no"]]),
                    "config": ([True, False], ["no", 0, None])},
    "iterative_original_prefix": {"flag": ([["--iterative-original-prefix"], ["--no-iterative-original-prefix"]],
                                           [["--iterative-original-prefix=1"]]),
                                  "config": ([True, False], ["no", 1])},
    "lenient": {"flag": ([["--lenient"]], [["--lenient=yes"]]), "config": ([True, False], ["yes", 0])},
}
# the backend comes by flag or environment (BACKEND_URLS), never from a config file; tests/test_cli.py covers those
NOT_DRAWN = {"backend", "backend_tuned"}
RATIO_ALONE = dict(dict.fromkeys(SETTINGS), ratio=("flag", "0.5"))  # the one setting compress and ablate need
# a setting drawn: its (source, value), or None when it is not given
valid_settings = st.fixed_dictionaries({
    name: st.none() | st.sampled_from([(source, value) for source, (valid, _) in sources.items() for value in valid])
    for name, sources in SETTINGS.items()
})
wrong_settings = st.lists(
    st.sampled_from([(name, (source, value)) for name, sources in SETTINGS.items()
                     for source, (_, wrong) in sources.items() for value in wrong]),
    max_size=2, unique_by=lambda wrong: wrong[0],
).map(dict)


def test_the_sweep_draws_every_setting():
    # a setting added to cts.cli.SETTINGS needs its valid and wrong values here
    assert SETTINGS.keys() | NOT_DRAWN == cts.cli.SETTINGS.keys()


# where an output flag points: a fresh name, one under a missing directory, a file the run reads, an existing
# directory or file, a FIFO, the temp file of another output, or a path under another output
OUTPUT_KINDS = ["fresh", "missing-directory", "input", "config", "spec", "directory", "existing",
                *(["fifo"] if hasattr(os, "mkfifo") else []), "other-temp", "under-other"]
OF_ANOTHER = ("other-temp", "under-other")
OUTPUT_FLAGS = ("output", "score-dump", "report")
# per output flag, its kind, or None when it is not given; --output is a fresh name in about half the examples
output_kinds = st.fixed_dictionaries({
    "output": st.just("fresh") | st.sampled_from(OUTPUT_KINDS),
    "score-dump": st.none() | st.sampled_from(OUTPUT_KINDS),
    "report": st.none() | st.sampled_from(OUTPUT_KINDS),
})


def output_paths(command: str, kinds: dict, tmp: Path, inputs: dict[str, str]) -> dict[str, Path]:
    """Per output flag given, its path. A kind of OF_ANOTHER names a path of the next flag given (cyclically) whose
    kind is not one: "other-temp" the temp file of that flag's first file, ablate's --output directory holding
    base.jsonl, and "under-other" a path under that flag's path; with no such flag it is a fresh name."""
    given = [flag for flag in OUTPUT_FLAGS if kinds[flag] and (flag != "score-dump" or command == "compress")]
    paths = {flag: {"fresh": tmp / f"{flag}.out", "missing-directory": tmp / "missing" / f"{flag}.out",
                    "directory": tmp / "directory", "existing": tmp / "existing.out", "fifo": tmp / "fifo",
                    **dict.fromkeys(OF_ANOTHER), **{kind: Path(path) for kind, path in inputs.items()}}[kinds[flag]]
             for flag in given}

    def first_file(flag: str) -> Path:
        return paths[flag] / "base.jsonl" if command == "ablate" and flag == "output" else paths[flag]

    for number, flag in enumerate(given):
        if paths[flag] is None:
            others = [other for other in given[number + 1:] + given[:number] if kinds[other] not in OF_ANOTHER]
            if not others:
                paths[flag] = tmp / f"{flag}.out"
            elif kinds[flag] == "other-temp":
                paths[flag] = Path(f"{first_file(others[0])}.tmp")
            else:
                paths[flag] = paths[others[0]] / "b" / f"{flag}.out"
    return paths


def snapshot(root: Path) -> dict[Path, bytes | int]:
    """Every path under ``root``: a regular file's bytes, the file type of anything else."""
    return {path: path.read_bytes() if path.is_file() else stat.S_IFMT(path.lstat().st_mode)
            for path in root.rglob("*")}


def arguments(name: str, value) -> list[str]:
    """The arguments that give setting ``name`` the flag value ``value``."""
    return value if isinstance(value, list) else [f"--{name.replace('_', '-')}={value}"]


# CTS_BACKEND_URL: unset, the toy spec, or a descriptor whose password must not be printed. Both descriptors are
# usage errors before any POST, and so before the token check; CTS_BACKEND_TOKEN is not drawn
BACKEND_URLS = [None, "toy", "http:user:s3cret@127.0.0.1:9", "user:s3cret@127.0.0.1:9"]


def run(argv: list[str], backend_url: str | None) -> tuple[int, str, bool]:
    """The exit code of ``cts.cli.main(argv)`` with CTS_BACKEND_URL at ``backend_url`` (unset if None), what it
    wrote to stderr, and whether it started a lane."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), mock.patch.dict(os.environ), mock.patch.object(
            cts.cli, "map_ordered", wraps=cts.cli.map_ordered) as map_ordered:
        os.environ.pop(cts.cli.ENV_BACKEND_URL, None)
        if backend_url:
            os.environ[cts.cli.ENV_BACKEND_URL] = backend_url
        try:
            code = cts.cli.main(argv)
        except SystemExit as exc:  # an argparse usage error
            assert exc.code == 2
            code = exc.code
    return code, stderr.getvalue(), map_ordered.called


# as many examples as the loaded profile asks for: 100 under hypothesis's default profile, 500 under
# the "fault-sweep" profile of conftest.py
@settings(deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["compress", "score", "ablate"]), valid=valid_settings, wrong=wrong_settings,
       bad=st.lists(st.sampled_from(BAD_LINES), max_size=2),
       bad_file=bad_files, kinds=output_kinds, backend_flag=st.booleans(), backend_url=st.sampled_from(BACKEND_URLS))
# two pairs of outputs the draw seldom lines up, each caught by one `holders` check of cli._check_outputs: ablate's
# mode files under the report's temp file, and the dataset under the report
@example(command="ablate", valid=RATIO_ALONE, wrong={}, bad=[], bad_file=None, backend_flag=True, backend_url=None,
         kinds={"output": "other-temp", "score-dump": None, "report": "fresh"})
@example(command="compress", valid=RATIO_ALONE, wrong={}, bad=[], bad_file=None, backend_flag=True, backend_url=None,
         kinds={"output": "under-other", "score-dump": None, "report": "fresh"})
def test_settings_end_in_an_exit_code_and_leave_their_files(tmp_path, command, valid, wrong, bad, bad_file, kinds,
                                                            backend_flag, backend_url):
    drawn = {name: setting for name, setting in {**valid, **wrong}.items() if setting is not None}
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        tmp = Path(tmp)
        inputs = {"input": write_jsonl_file(RECORDS, tmp / "in.jsonl"),
                  "spec": write_spec_file(SPEC, tmp / "spec.json")}
        with open(inputs["input"], "ab") as fh:
            fh.writelines(line + b"\n" for line in bad)
        toy = f"toy:{inputs['spec']}"
        argv = [command, "--input", inputs["input"], *(["--backend", toy] if backend_flag else [])]
        config = {name: value for name, (source, value) in drawn.items() if source == "config"}
        if config or bad_file or "config" in kinds.values():
            inputs["config"] = str(tmp / "config.json")
            Path(inputs["config"]).write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", inputs["config"]]
        if bad_file:
            kind, content = bad_file
            Path(inputs[kind]).write_bytes(content)
        (tmp / "directory").mkdir()
        (tmp / "existing.out").write_bytes(b"an earlier file\n")
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp / "fifo")
        paths = output_paths(command, kinds, tmp, {"config": str(tmp / "config.json"), **inputs})
        for flag, path in paths.items():
            argv += [f"--{flag}", str(path)]
        for name, (source, value) in drawn.items():
            if source == "flag":
                argv += arguments(name, value)
        before = snapshot(tmp)

        code, stderr, started = run(argv, toy if backend_url == "toy" else backend_url)

        event(f"exit {code}")
        assert code in (0, 1, 2), stderr
        assert "Traceback" not in stderr and "s3cret" not in stderr
        if "workers" in wrong or bad_file or not (backend_flag or backend_url):
            assert code == 2, stderr
        after = snapshot(tmp)
        if code == 2:
            assert not started
            assert after == before
        # the files a run that exits 0 or 1 writes; it creates nothing else but the directories that hold them
        written = {paths[flag] for flag in ("score-dump", "report") if flag in paths}
        written |= ({paths["output"] / f"{mode.name}.jsonl" for mode in cts.cli.ABLATION_MODES}
                    if command == "ablate" else {paths["output"]})
        assert after.keys() - before.keys() <= {*written, *(parent for path in written for parent in path.parents)}
        assert {path: after.get(path) for path in before if path not in written} == \
            {path: content for path, content in before.items() if path not in written}
        if code != 2:  # an output of a run that exits 2 may be a file it reads
            assert not any(b"bad-" in after[path] for path in written if isinstance(after.get(path), bytes))
        read = [Path(path) for path in inputs.values()]
        assert [after.get(path) for path in read] == [before[path] for path in read]
