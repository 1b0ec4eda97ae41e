import json
import math
import tracemalloc

import pytest

from cts.dataset import (
    DUPLICATE_ID_WINDOW,
    CompressedInstance,
    JsonlWriter,
    compressed_to_dict,
    read_compressed_dataset,
    read_dataset,
    read_responses,
    read_rm_examples,
    write_dataset,
)
from cts.errors import ConfigError, DatasetError

from conftest import fail_output, write_jsonl_file


def make_compressed(i: int, **overrides) -> CompressedInstance:
    fields = dict(
        id=f"r{i}",
        problem=f"problem {i}",
        compressed_thinking=f"thinking {i}",
        answer=f"answer {i}",
        nominal_ratio=0.7,
        actual_ratio=0.5,
        kept_count=5,
        original_count=10,
        extras={},
    )
    fields.update(overrides)
    return CompressedInstance(**fields)


class TestReadDataset:
    def test_three_lines_in_order(self, tmp_path):
        path = write_jsonl_file(
            [{"problem": f"p{i}", "thinking": f"t{i}", "answer": f"a{i}"} for i in range(3)],
            tmp_path / "in.jsonl",
        )
        instances = list(read_dataset(path))
        assert [x.problem for x in instances] == ["p0", "p1", "p2"]
        assert [x.thinking for x in instances] == ["t0", "t1", "t2"]
        assert [x.answer for x in instances] == ["a0", "a1", "a2"]

    def test_malformed_line_lenient_records_error_and_continues(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(
            '{"problem": "p0", "thinking": "t0", "answer": "a0"}\n'
            "{oops\n"
            '{"problem": "p2", "thinking": "t2", "answer": "a2"}\n'
        )
        errors = []
        instances = list(read_dataset(str(path), errors=errors))
        assert [x.problem for x in instances] == ["p0", "p2"]
        assert len(errors) == 1
        assert errors[0].line == 2

    def test_whitespace_only_line_is_skipped_without_an_error(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"problem": "p0", "thinking": "t0", "answer": "a0"}\n \t \r\n'
                         b'{"problem": "p2", "thinking": "t2", "answer": "a2"}\n')
        errors = []
        instances = list(read_dataset(str(path), errors=errors))
        assert [(x.id, x.problem) for x in instances] == [("line:1", "p0"), ("line:3", "p2")]
        assert errors == []

    def test_error_with_a_path_and_no_line_names_the_path(self):
        assert str(DatasetError("cannot be read", path="in.jsonl")) == "in.jsonl: cannot be read"

    def test_missing_mapped_field(self, tmp_path):
        path = write_jsonl_file([{"problem": "p", "answer": "a"}], tmp_path / "in.jsonl")
        errors = []
        assert list(read_dataset(path, errors=errors)) == []
        assert len(errors) == 1
        assert "thinking" in str(errors[0])

    def test_schema_mapping(self, tmp_path):
        path = write_jsonl_file(
            [{"question": "what?", "thinking": "because", "answer": "42"}], tmp_path / "in.jsonl"
        )
        (inst,) = read_dataset(path, schema={"problem": "question"})
        assert inst.problem == "what?"

    def test_id_synthesized_from_line_number(self, tmp_path):
        path = write_jsonl_file(
            [
                {"problem": "p", "thinking": "t", "answer": "a"},
                {"id": "abc", "problem": "p", "thinking": "t", "answer": "a"},
            ],
            tmp_path / "in.jsonl",
        )
        instances = list(read_dataset(path))
        assert instances[0].id == "line:1"
        assert instances[1].id == "abc"

    def test_extras_preserved(self, tmp_path):
        path = write_jsonl_file(
            [{"problem": "p", "thinking": "t", "answer": "a", "difficulty": 3, "tags": ["x"]}],
            tmp_path / "in.jsonl",
        )
        (inst,) = read_dataset(path)
        assert inst.extras == {"difficulty": 3, "tags": ["x"]}

    def test_unpaired_surrogate_rejected(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"problem": "p", "thinking": "\\ud800", "answer": "a"}\n')
        errors = []
        assert list(read_dataset(str(path), errors=errors)) == []
        assert "surrogate" in str(errors[0])

    def test_non_string_field_rejected(self, tmp_path):
        path = write_jsonl_file([{"problem": 5, "thinking": "t", "answer": "a"}], tmp_path / "in.jsonl")
        errors = []
        assert list(read_dataset(path, errors=errors)) == []
        assert len(errors) == 1


def record(id_=None, text="t"):
    rec = {"problem": "p", "thinking": text, "answer": "a"}
    if id_ is not None:
        rec["id"] = id_
    return rec


class TestDuplicateIds:
    def read(self, records, tmp_path):
        errors = []
        instances = list(read_dataset(write_jsonl_file(records, tmp_path / "in.jsonl"), errors=errors))
        return [x.id for x in instances], [(e.line, e.args[0]) for e in errors]

    def test_adjacent_duplicate_is_skipped_naming_the_first(self, tmp_path):
        ids, errors = self.read([record("a"), record("a", "other"), record("b")], tmp_path)
        assert ids == ["a", "b"]
        assert errors == [(2, "duplicate id 'a' (first at line 1)")]

    def test_duplicate_at_the_edge_of_the_window_is_skipped(self, tmp_path):
        others = [record(f"r{i}") for i in range(DUPLICATE_ID_WINDOW - 1)]
        ids, errors = self.read([record("x"), *others, record("x")], tmp_path)
        assert ids == ["x"] + [f"r{i}" for i in range(DUPLICATE_ID_WINDOW - 1)]
        assert errors == [(DUPLICATE_ID_WINDOW + 1, "duplicate id 'x' (first at line 1)")]

    def test_duplicate_farther_apart_than_the_window_passes(self, tmp_path):
        others = [record(f"r{i}") for i in range(DUPLICATE_ID_WINDOW)]
        ids, errors = self.read([record("x"), *others, record("x")], tmp_path)
        assert ids.count("x") == 2
        assert errors == []

    def test_skipped_duplicates_do_not_fill_the_window(self, tmp_path):
        # the window holds the records kept, so repeats of "a" do not push "x" out of it
        repeats = [record("a")] * (DUPLICATE_ID_WINDOW + 5)
        ids, errors = self.read([record("x"), *repeats, record("x")], tmp_path)
        assert ids == ["x", "a"]
        assert errors[-1] == (DUPLICATE_ID_WINDOW + 7, "duplicate id 'x' (first at line 1)")

    def test_synthesized_ids_never_collide(self, tmp_path):
        ids, errors = self.read([record()] * (2 * DUPLICATE_ID_WINDOW), tmp_path)
        assert ids == [f"line:{n}" for n in range(1, 2 * DUPLICATE_ID_WINDOW + 1)]
        assert errors == []


class TestWriteDataset:
    def test_empty_stream(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert write_dataset([], str(out)) == 0
        assert out.read_bytes() == b""

    def test_round_trip_field_identical(self, tmp_path):
        out = tmp_path / "out.jsonl"
        record = make_compressed(1, extras={"meta": "m"})
        assert write_dataset([record], str(out)) == 1
        (back,) = read_compressed_dataset(str(out))
        assert back == record

    def test_same_stream_twice_is_byte_identical(self, tmp_path):
        records = [make_compressed(i) for i in range(5)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(list(records), str(a))
        write_dataset(list(records), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_key_order_then_extras(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_dataset([make_compressed(0, extras={"zz": 1, "aa": 2})], str(out))
        keys = list(json.loads(out.read_text()).keys())
        assert keys == [
            "id",
            "problem",
            "compressed_thinking",
            "answer",
            "nominal_ratio",
            "actual_ratio",
            "kept_count",
            "original_count",
            "zz",
            "aa",
        ]

    def test_extras_cannot_shadow_fixed_keys(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_dataset([make_compressed(0, extras={"actual_ratio": 999})], str(out))
        assert json.loads(out.read_text())["actual_ratio"] == 0.5

    def test_failure_leaves_no_partial_file(self, tmp_path):
        out = tmp_path / "out.jsonl"

        def boom():
            yield make_compressed(0)
            raise RuntimeError("mid-stream failure")

        with pytest.raises(RuntimeError):
            write_dataset(boom(), str(out))
        assert not out.exists()
        assert not (tmp_path / "out.jsonl.tmp").exists()

    def test_failed_rename_is_a_config_error_and_removes_the_temp_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        out.mkdir()  # a file cannot replace a directory
        with pytest.raises(ConfigError, match="cannot write output file"):
            write_dataset([make_compressed(0)], str(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fails", ["write", "close"])
    def test_a_failed_write_is_a_config_error_and_leaves_the_earlier_file(self, tmp_path, monkeypatch, fails):
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"an earlier file\n")
        fail_output(monkeypatch, out, fails)
        with pytest.raises(ConfigError, match=f"cannot write output file '{out}': .*No space left on device"):
            write_dataset([make_compressed(0)], str(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
        assert out.read_bytes() == b"an earlier file\n"

    def test_a_failed_close_does_not_replace_the_error_the_body_ends_with(self, tmp_path, monkeypatch):
        out = tmp_path / "out.jsonl"
        fail_output(monkeypatch, out, "close")
        with pytest.raises(RuntimeError, match="mid-stream failure"):
            with JsonlWriter(str(out)) as writer:
                writer.write(compressed_to_dict(make_compressed(0)))
                raise RuntimeError("mid-stream failure")
        assert list(tmp_path.iterdir()) == []

    def test_lf_line_endings_utf8(self, tmp_path):
        out = tmp_path / "out.jsonl"
        write_dataset([make_compressed(0, problem="数学")], str(out))
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert "数学".encode("utf-8") in raw


class TestStreaming:
    def test_memory_bounded_by_constant_records(self, tmp_path):
        path = tmp_path / "big.jsonl"
        row = {"problem": "p" * 60, "thinking": "t" * 120, "answer": "a" * 20}
        line = json.dumps(row) + "\n"
        n = 100_000
        with open(path, "w") as fh:
            for _ in range(n):
                fh.write(line)
        file_bytes = path.stat().st_size
        tracemalloc.start()
        count = 0
        for _ in read_dataset(str(path)):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == n
        # far below the file size: bounded by a constant number of records
        assert peak < file_bytes / 4
        assert peak < 8 * 1024 * 1024


class TestReadRmExamples:
    def test_reads_steps(self, tmp_path):
        path = write_jsonl_file(
            [{"question": "q", "answer": "a", "reasoning_steps": ["s1", "s2"]}],
            tmp_path / "rm.jsonl",
        )
        (ex,) = read_rm_examples(path)
        assert ex.reasoning_steps == ["s1", "s2"]
        assert ex.source_id == "line:1"

    def test_empty_steps_rejected(self, tmp_path):
        path = write_jsonl_file(
            [{"question": "q", "answer": "a", "reasoning_steps": []}], tmp_path / "rm.jsonl"
        )
        errors = []
        assert list(read_rm_examples(path, errors=errors)) == []
        assert len(errors) == 1

    def test_repeated_id_within_the_window_is_skipped_naming_the_first(self, tmp_path):
        def example(id_, question="q"):
            return {"id": id_, "question": question, "answer": "a", "reasoning_steps": ["s"]}

        others = [example(f"r{i}") for i in range(DUPLICATE_ID_WINDOW - 2)]
        records = [example("x", "first"), {"id": "y", "reasoning_steps": []}, example("y"), *others,
                   example("x", "second"), example("y", "second"), example("z"), example("x", "third")]
        path = write_jsonl_file(records, tmp_path / "rm.jsonl")
        errors = []
        examples = list(read_rm_examples(path, errors=errors))
        ids = ["x", "y", *(f"r{i}" for i in range(DUPLICATE_ID_WINDOW - 2)), "z", "x"]
        assert [ex.source_id for ex in examples] == ids
        assert [examples[0].question, examples[-1].question] == ["first", "third"]
        # a skipped record's id is not remembered: the first y kept is on line 3; z pushed the
        # first x out of the window of kept ids, so the third x passes
        assert [(e.line, e.args[0]) for e in errors][1:] == [
            (DUPLICATE_ID_WINDOW + 2, "duplicate id 'x' (first at line 1)"),
            (DUPLICATE_ID_WINDOW + 3, "duplicate id 'y' (first at line 3)"),
        ]


class TestReadCompressedDataset:
    @pytest.mark.parametrize("key, value", [
        ("kept_count", "five"),
        ("actual_ratio", None),
        ("problem", 5),
        pytest.param("actual_ratio", math.nan, id="actual_ratio-nan"),
        pytest.param("nominal_ratio", math.inf, id="nominal_ratio-inf"),
        pytest.param("actual_ratio", 10**400, id="actual_ratio-huge-int"),
        pytest.param("nominal_ratio", "0.5", id="nominal_ratio-str"),
        pytest.param("actual_ratio", True, id="actual_ratio-bool"),
        pytest.param("original_count", "10", id="original_count-str"),
        pytest.param("kept_count", 3.7, id="kept_count-fraction"),
        pytest.param("kept_count", 3.0, id="kept_count-float"),
        pytest.param("kept_count", -1, id="kept_count-negative"),
        pytest.param("original_count", False, id="original_count-bool"),
    ])
    def test_wrong_type_field_skipped(self, tmp_path, key, value):
        bad = compressed_to_dict(make_compressed(1))
        bad[key] = value
        path = write_jsonl_file([compressed_to_dict(make_compressed(0)), bad], tmp_path / "c.jsonl")
        errors = []
        assert [r.id for r in read_compressed_dataset(path, errors=errors)] == ["r0"]
        assert [e.line for e in errors] == [2]
        assert f"field {key!r} must be " in str(errors[0])

    def test_integer_ratios_are_read_as_floats(self, tmp_path):
        record = make_compressed(0, nominal_ratio=1, actual_ratio=0, kept_count=0)
        (back,) = read_compressed_dataset(write_jsonl_file([compressed_to_dict(record)], tmp_path / "c.jsonl"))
        assert (back.nominal_ratio, back.actual_ratio, back.kept_count) == (1.0, 0.0, 0)
        assert type(back.nominal_ratio) is type(back.actual_ratio) is float


class TestReadResponses:
    def test_integer_id_and_step_list(self, tmp_path):
        path = write_jsonl_file([{"source_id": 7, "compressed_steps": ["s1", "s2"]}], tmp_path / "r.jsonl")
        assert list(read_responses(path)) == [("7", "s1\ns2")]

    @pytest.mark.parametrize("key, value", [
        pytest.param("source_id", None, id="source_id-null"),
        pytest.param("source_id", True, id="source_id-bool"),
        pytest.param("source_id", 1.5, id="source_id-float"),
        pytest.param("compressed_steps", {"a": 1}, id="compressed_steps-dict"),
        pytest.param("compressed_steps", [1, None], id="compressed_steps-list-of-non-str"),
        pytest.param("compressed_steps", None, id="compressed_steps-null"),
    ])
    def test_wrong_type_field_skipped(self, tmp_path, key, value):
        bad = {"source_id": "r1", "compressed_steps": "s"}
        bad[key] = value
        path = write_jsonl_file([{"source_id": "r0", "compressed_steps": "s"}, bad], tmp_path / "r.jsonl")
        errors = []
        assert list(read_responses(path, errors=errors)) == [("r0", "s")]
        assert [e.line for e in errors] == [2]
        assert f"field {key!r} must be " in str(errors[0])


# each reader: a good record numbered i (identified as "r<i>"), a required field, the record's identity
READERS = [
    pytest.param(
        read_dataset, lambda i: {"problem": f"r{i}", "thinking": "t", "answer": "a"}, "thinking",
        lambda x: x.problem, id="read_dataset",
    ),
    pytest.param(
        read_compressed_dataset, lambda i: compressed_to_dict(make_compressed(i)), "kept_count",
        lambda x: x.id, id="read_compressed_dataset",
    ),
    pytest.param(
        read_rm_examples, lambda i: {"id": f"r{i}", "question": "q", "answer": "a", "reasoning_steps": ["s"]},
        "question", lambda x: x.source_id, id="read_rm_examples",
    ),
    pytest.param(
        read_responses, lambda i: {"source_id": f"r{i}", "compressed_steps": "s"}, "compressed_steps",
        lambda x: x[0], id="read_responses",
    ),
]


@pytest.mark.parametrize("reader, good, required, identity", READERS)
def test_reader_skips_and_reports_each_bad_line(tmp_path, reader, good, required, identity):
    missing = good(9)
    del missing[required]
    lines = [good(0), "{oops", good(1), "[1]", good(2), missing, good(3), b"\xff\xfe", good(4)]
    path = tmp_path / "in.jsonl"
    # LF and CRLF line ends alternate
    path.write_bytes(b"".join(
        (line if isinstance(line, bytes) else (line if isinstance(line, str) else json.dumps(line)).encode("utf-8"))
        + (b"\r\n" if i % 2 else b"\n")
        for i, line in enumerate(lines)
    ))
    errors = []
    assert [identity(x) for x in reader(str(path), errors=errors)] == ["r0", "r1", "r2", "r3", "r4"]
    assert [err.line for err in errors] == [2, 4, 6, 8]
    for err in errors:
        assert isinstance(err, DatasetError)
        assert str(err).startswith(f"{path}:{err.line}: ")
    assert str(errors[-1]).startswith(f"{path}:8: not UTF-8: ")


# each reader: a record with the given id, the id's field, the record's id, whether a null id reads as absent
ID_READERS = [
    pytest.param(
        read_dataset, lambda id_: {"id": id_, "problem": "p", "thinking": "t", "answer": "a"}, "id",
        lambda x: x.id, True, id="read_dataset",
    ),
    pytest.param(
        read_compressed_dataset, lambda id_: dict(compressed_to_dict(make_compressed(0)), id=id_), "id",
        lambda x: x.id, False, id="read_compressed_dataset",
    ),
    pytest.param(
        read_rm_examples, lambda id_: {"id": id_, "question": "q", "answer": "a", "reasoning_steps": ["s"]},
        "id", lambda x: x.source_id, True, id="read_rm_examples",
    ),
    pytest.param(
        read_responses, lambda id_: {"source_id": id_, "compressed_steps": "s"}, "source_id",
        lambda x: x[0], False, id="read_responses",
    ),
]


@pytest.mark.parametrize("value", [None, True, 1.5, {"a": 1}], ids=["null", "bool", "float", "dict"])
@pytest.mark.parametrize("reader, with_id, key, identity, null_is_absent", ID_READERS)
def test_one_id_rule_for_every_reader(tmp_path, reader, with_id, key, identity, null_is_absent, value):
    path = write_jsonl_file([with_id("r0"), with_id(7), with_id(value)], tmp_path / "in.jsonl")
    errors = []
    ids = [identity(x) for x in reader(path, errors=errors)]
    if value is None and null_is_absent:
        assert (ids, errors) == (["r0", "7", "line:3"], [])
    else:
        assert ids == ["r0", "7"]
        assert [e.line for e in errors] == [3]
        assert f"field {key!r} must be a string or an integer, got {value!r}" in str(errors[0])
