"""A derandomized sweep of the CLI's settings, run in process on the toy backend.

Each example runs compress, score or ablate with each selection and runtime
setting given by its flag, by a config file, or not at all: each one valid
(some at a bound), and up to two of them out of range or of the wrong type.
Its input ends in up to two bad lines, each a record that every reader
skips, and its config file or toy spec may be one that json cannot read or
that holds no JSON object. Every run exits 0, 1 or 2 (an argparse usage
error is its SystemExit(2)) and writes no traceback to stderr; a run that
exits 2 starts no lane and leaves no output or temp file; a wrong --workers
or a bad config or spec file exits 2; no temp file is left and no bad line's
id reaches an output; and the input, config and spec files are
byte-identical afterwards. Every path lies under the test's tmp_path.

These need ``hypothesis`` (a dev extra); without it the module is skipped.
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, event, given, settings  # noqa: E402
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
# each run names its toy backend by flag, so these are not drawn; tests/test_cli.py covers them
NOT_DRAWN = {"backend", "backend_tuned"}
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


def arguments(name: str, value) -> list[str]:
    """The arguments that give setting ``name`` the flag value ``value``."""
    return value if isinstance(value, list) else [f"--{name.replace('_', '-')}={value}"]


def run(argv: list[str]) -> tuple[int, str, bool]:
    """The exit code of ``cts.cli.main(argv)``, what it wrote to stderr, and whether it started a lane."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), mock.patch.object(
            cts.cli, "map_ordered", wraps=cts.cli.map_ordered) as map_ordered:
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
       bad_file=bad_files)
def test_settings_end_in_an_exit_code_and_leave_their_files(tmp_path, command, valid, wrong, bad, bad_file):
    drawn = {name: setting for name, setting in {**valid, **wrong}.items() if setting is not None}
    with tempfile.TemporaryDirectory(dir=tmp_path) as tmp:
        tmp = Path(tmp)
        inputs = [write_jsonl_file(RECORDS, tmp / "in.jsonl"), write_spec_file(SPEC, tmp / "spec.json")]
        with open(inputs[0], "ab") as fh:
            fh.writelines(line + b"\n" for line in bad)
        argv = [command, "--input", inputs[0], "--output", str(tmp / "out"), "--backend", f"toy:{inputs[1]}"]
        config = {name: value for name, (source, value) in drawn.items() if source == "config"}
        if config or bad_file:
            inputs.append(str(tmp / "config.json"))
            Path(inputs[-1]).write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", inputs[-1]]
        if bad_file:
            kind, content = bad_file
            Path(inputs[-1] if kind == "config" else inputs[1]).write_bytes(content)
        for name, (source, value) in drawn.items():
            if source == "flag":
                argv += arguments(name, value)
        before = {path: Path(path).read_bytes() for path in inputs}

        code, stderr, started = run(argv)

        event(f"exit {code}")
        assert code in (0, 1, 2), stderr
        assert "Traceback" not in stderr
        if "workers" in wrong or bad_file:
            assert code == 2, stderr
        if code == 2:
            assert not started
            assert sorted(str(path) for path in tmp.rglob("*")) == sorted(inputs)
        outputs = [path for path in tmp.rglob("*") if path.is_file() and str(path) not in inputs]
        assert not any(path.suffix == ".tmp" for path in outputs)
        assert not any(b"bad-" in path.read_bytes() for path in outputs)
        assert {path: Path(path).read_bytes() for path in inputs} == before
