"""Domain records and streaming JSONL I/O.

Input files are JSON Lines, one object per line, UTF-8 with LF endings.
Field names are configurable through a schema mapping so heterogeneous
source datasets can be ingested without rewriting them first.
"""

from __future__ import annotations

import json
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import ConfigError, DatasetError

T = TypeVar("T")

# canonical field -> default JSONL key
DEFAULT_SCHEMA = {
    "id": "id",
    "problem": "problem",
    "thinking": "thinking",
    "answer": "answer",
}

# read_dataset skips a record whose id repeats one of this many records kept before it
DUPLICATE_ID_WINDOW = 1024

# Fixed key order of compressed output records; extra input fields follow.
COMPRESSED_KEY_ORDER = (
    "id",
    "problem",
    "compressed_thinking",
    "answer",
    "nominal_ratio",
    "actual_ratio",
    "kept_count",
    "original_count",
)


@dataclass
class CotInstance:
    """One training record: problem text, thinking text, answer text."""

    id: str
    problem: str
    thinking: str
    answer: str
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class CompressedInstance:
    """A CotInstance whose thinking text was reduced to its kept token spans."""

    id: str
    problem: str
    compressed_thinking: str
    answer: str
    nominal_ratio: float
    actual_ratio: float
    kept_count: int
    original_count: int
    extras: dict[str, Any] = field(default_factory=dict)


@dataclass
class RmCorpusExample:
    """A curated example: question, answer, and ordered concise reasoning steps."""

    question: str
    answer: str
    reasoning_steps: list[str]
    source_id: str = ""


def _field(obj: dict, key: str) -> Any:
    if key not in obj:
        raise DatasetError(f"missing field {key!r}")
    return obj[key]


def _checked_text(value: Any, key: str) -> str:
    if not isinstance(value, str):
        raise DatasetError(f"field {key!r} must be a string, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DatasetError(f"field {key!r} contains unpaired surrogate code points") from None
    return value


def _checked_id(value: Any, key: str) -> str:
    if type(value) not in (str, int):
        raise DatasetError(f"field {key!r} must be a string or an integer, got {value!r}")
    return str(value)


def _record_id(obj: dict, key: str, line_no: int) -> str:
    """An input record's id: ``line:<n>`` when the field is absent or null."""
    return f"line:{line_no}" if obj.get(key) is None else _checked_id(obj[key], key)


def _read_jsonl(
    path: str, parse: Callable[[dict, int], T], errors: list[DatasetError] | None
) -> Iterator[T]:
    """Stream ``parse(obj, line_no)`` over the JSON objects of a JSONL file, in order.

    Lines end at LF (a CRLF line parses too). Blank lines are skipped. A
    line that is not UTF-8, not JSON, not an object, or that ``parse``
    rejects with a DatasetError is skipped too; its error, stamped with the
    1-based line and the path, is appended to ``errors`` (if given). A file
    that cannot be opened is a ConfigError.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path!r}: {exc}") from exc
    with fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetError(f"malformed JSON: {exc.msg}") from exc
                # an integer literal over Python's int-string limit, or nesting past the recursion limit
                except (ValueError, RecursionError) as exc:
                    raise DatasetError(f"malformed JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise DatasetError(f"expected a JSON object, got {type(obj).__name__}")
                record = parse(obj, line_no)
            except DatasetError as err:
                err.line, err.path = line_no, path
                if errors is not None:
                    errors.append(err)
                continue
            yield record


def read_dataset(
    path: str, schema: dict[str, str] | None = None, *, errors: list[DatasetError] | None = None
) -> Iterator[CotInstance]:
    """Stream CotInstance records from a JSONL file, preserving input order.

    ``schema`` maps canonical field names (problem, thinking, answer, id) to
    the keys used in the file. A record with a missing or non-text mapped
    field or an id that is not a string or an integer is skipped (see
    ``_read_jsonl``), and so is a record whose id repeats one of the
    DUPLICATE_ID_WINDOW records kept before it; duplicates farther apart
    pass, so memory stays constant. When the id field is absent or null,
    ids are synthesized as ``line:<n>``.
    """
    mapping = {**DEFAULT_SCHEMA, **(schema or {})}
    text_keys = [mapping[canon] for canon in ("problem", "thinking", "answer")]
    consumed = {*text_keys, mapping["id"]}
    recent: OrderedDict[str, int] = OrderedDict()  # id -> line of the last records kept, oldest first

    def parse(obj: dict, line_no: int) -> CotInstance:
        problem, thinking, answer = (_checked_text(_field(obj, key), key) for key in text_keys)
        record_id = _record_id(obj, mapping["id"], line_no)
        if record_id in recent:
            raise DatasetError(f"duplicate id {record_id!r} (first at line {recent[record_id]})")
        recent[record_id] = line_no
        if len(recent) > DUPLICATE_ID_WINDOW:
            recent.popitem(last=False)
        extras = {k: v for k, v in obj.items() if k not in consumed}
        return CotInstance(record_id, problem, thinking, answer, extras)

    return _read_jsonl(path, parse, errors)


def _checked_ratio(value: Any, key: str) -> float:
    # a bool or a string is not a number; NaN fails every comparison
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise DatasetError(f"field {key!r} must be a finite number, got {value!r}")
    return float(value)


def _checked_count(value: Any, key: str) -> int:
    if type(value) is not int or value < 0:
        raise DatasetError(f"field {key!r} must be a non-negative integer, got {value!r}")
    return value


def _parse_compressed(obj: dict, line_no: int) -> CompressedInstance:
    id_, problem, thinking, answer, nominal, actual, kept, original = (
        _field(obj, key) for key in COMPRESSED_KEY_ORDER
    )
    return CompressedInstance(
        _checked_id(id_, "id"),
        _checked_text(problem, "problem"),
        _checked_text(thinking, "compressed_thinking"),
        _checked_text(answer, "answer"),
        _checked_ratio(nominal, "nominal_ratio"),
        _checked_ratio(actual, "actual_ratio"),
        _checked_count(kept, "kept_count"),
        _checked_count(original, "original_count"),
        extras={k: v for k, v in obj.items() if k not in COMPRESSED_KEY_ORDER},
    )


def read_compressed_dataset(
    path: str, *, errors: list[DatasetError] | None = None
) -> Iterator[CompressedInstance]:
    """Stream CompressedInstance records written by write_dataset."""
    return _read_jsonl(path, _parse_compressed, errors)


def _parse_rm_example(obj: dict, line_no: int) -> RmCorpusExample:
    question, answer, steps = (_field(obj, key) for key in ("question", "answer", "reasoning_steps"))
    if not isinstance(steps, list) or not steps or not all(isinstance(s, str) for s in steps):
        raise DatasetError("reasoning_steps must be a non-empty list of strings")
    return RmCorpusExample(
        question=_checked_text(question, "question"),
        answer=_checked_text(answer, "answer"),
        reasoning_steps=list(steps),
        source_id=_record_id(obj, "id", line_no),
    )


def read_rm_examples(path: str, *, errors: list[DatasetError] | None = None) -> Iterator[RmCorpusExample]:
    """Stream RmCorpusExample records: {question, answer, reasoning_steps}."""
    return _read_jsonl(path, _parse_rm_example, errors)


def _parse_response(obj: dict, line_no: int) -> tuple[str, str]:
    if "source_id" not in obj or "compressed_steps" not in obj:
        raise DatasetError("missing source_id or compressed_steps")
    source_id, steps = _checked_id(obj["source_id"], "source_id"), obj["compressed_steps"]
    if isinstance(steps, list) and all(isinstance(s, str) for s in steps):
        steps = "\n".join(steps)
    if not isinstance(steps, str):
        raise DatasetError(f"field 'compressed_steps' must be a string or a list of strings, got {steps!r}")
    return source_id, steps


def read_responses(path: str, *, errors: list[DatasetError] | None = None) -> Iterator[tuple[str, str]]:
    """Stream (source_id, compressed_steps) pairs of strong-model responses.

    ``source_id`` is a string or an integer (not a bool), ``compressed_steps``
    a string or a list of strings, which is joined with newlines; a record
    with any other value is skipped.
    """
    return _read_jsonl(path, _parse_response, errors)


def compressed_to_dict(record: CompressedInstance) -> dict[str, Any]:
    """Serialize with the fixed key order; extra input fields follow, key collisions dropped."""
    out = {key: getattr(record, key) for key in COMPRESSED_KEY_ORDER}
    for key, value in record.extras.items():
        out.setdefault(key, value)
    return out


class JsonlWriter:
    """Write JSON objects one per line to a temp file, renaming on success.

    On any failure (including interruption) the temp file is removed so no
    partial output is ever left at the destination path.
    """

    def __init__(self, path: str):
        self.path = path
        self.tmp_path = path + ".tmp"
        self.count = 0
        self._fh = None

    def __enter__(self) -> "JsonlWriter":
        try:
            os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
            self._fh = open(self.tmp_path, "w", encoding="utf-8", newline="\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {self.path!r}: {exc}") from exc
        return self

    def write(self, obj: dict[str, Any]) -> None:
        self._fh.write(json.dumps(obj, ensure_ascii=False))
        self._fh.write("\n")
        self.count += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self._fh.close()
        if exc_type is None:
            os.replace(self.tmp_path, self.path)
        else:
            try:
                os.remove(self.tmp_path)
            except OSError:
                pass


def write_dataset(records: Iterable[CompressedInstance], path: str) -> int:
    """Write compressed records as JSONL and return the record count.

    Output is byte-deterministic for identical input. The file appears
    atomically: records go to a temp file that is renamed on success and
    removed on failure.
    """
    return write_jsonl(map(compressed_to_dict, records), path)


def write_jsonl(objects: Iterable[dict[str, Any]], path: str) -> int:
    """Write dicts as JSONL, one per line, through a JsonlWriter; return the count."""
    with JsonlWriter(path) as writer:
        for obj in objects:
            writer.write(obj)
        return writer.count
