"""Domain records and streaming JSONL I/O.

Input files are JSON Lines, one object per line, UTF-8 with LF endings.
Field names are configurable through a schema mapping so heterogeneous
source datasets can be ingested without rewriting them first. Every read
of outside JSON (an input line, a config or spec file, a backend reply)
treats what JSON_ERRORS names as JSON it cannot read.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, TypeVar

from .errors import ConfigError, DatasetError

T = TypeVar("T")

# the fields of an input record, in flag order, the id last; a schema maps each to its JSONL key, itself by default
INPUT_FIELDS = ("problem", "thinking", "answer", "id")

# what json.load(s) raises on text it cannot read: a JSONDecodeError, a UnicodeDecodeError and an integer
# literal over Python's int-string limit are each a ValueError, nesting past the recursion limit a RecursionError
JSON_ERRORS = (ValueError, RecursionError)

# the JSON escape of a UTF-16 surrogate code point, \uD800 to \uDFFF
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

# read_dataset skips a record whose id repeats one of this many records kept before it
DUPLICATE_ID_WINDOW = 1024


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


# Fixed key order of compressed output records, the fields but extras; extra input fields follow.
COMPRESSED_KEY_ORDER = tuple(f.name for f in fields(CompressedInstance) if f.name != "extras")


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
    return value


def _checked_id(value: Any, key: str) -> str:
    if type(value) not in (str, int):
        raise DatasetError(f"field {key!r} must be a string or an integer, got {value!r}")
    return str(value)


def _record_id(obj: dict, key: str, line_no: int) -> str:
    """An input record's id: ``line:<n>`` when the field is absent or null."""
    return f"line:{line_no}" if obj.get(key) is None else _checked_id(obj[key], key)


def read_json_file(path: str, what: str) -> Any:
    """The JSON value of a UTF-8 file; one that cannot be opened or read as JSON is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, *JSON_ERRORS) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def _read_jsonl(
    path: str, parse: Callable[[dict, int], T], errors: list[DatasetError] | None
) -> Iterator[T]:
    """Stream ``parse(obj, line_no)`` over the JSON objects of a JSONL file, in order.

    Lines end at LF (a CRLF line parses too). Blank lines are skipped. A
    line that is not UTF-8, not JSON, not an object, that holds an unpaired
    surrogate anywhere (in a key or a value, nested ones too), or that
    ``parse`` rejects with a DatasetError is skipped too; its error, stamped
    with the 1-based line and the path, is appended to ``errors`` (if
    given). A file that cannot be opened is a ConfigError.
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
                    # a strict UTF-8 line holds a surrogate only by a \uD800-\uDFFF escape, and a paired
                    # one decodes to one character; one left unpaired cannot be written back out
                    if _SURROGATE_ESCAPE.search(line):
                        json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:  # a ValueError too
                    raise DatasetError("unpaired surrogate code point in the record") from None
                except JSON_ERRORS as exc:  # a JSONDecodeError by its msg, without the "line 1" of its place
                    raise DatasetError(f"malformed JSON: {getattr(exc, 'msg', exc)}") from exc
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

    ``schema`` maps fields of INPUT_FIELDS to the keys used in the file. A
    record with a missing or non-text mapped field or an id that is not a
    string or an integer is skipped (see ``_read_jsonl``), and so is a
    record whose id repeats one of the DUPLICATE_ID_WINDOW records kept
    before it; duplicates farther apart pass, so memory stays constant. When
    the id field is absent or null, ids are synthesized as ``line:<n>``.
    """
    *text_keys, id_key = ((schema or {}).get(canon, canon) for canon in INPUT_FIELDS)
    consumed = {*text_keys, id_key}
    check_id = _first_id_check(DUPLICATE_ID_WINDOW)

    def parse(obj: dict, line_no: int) -> CotInstance:
        problem, thinking, answer = (_checked_text(_field(obj, key), key) for key in text_keys)
        record_id = check_id(_record_id(obj, id_key, line_no), line_no)
        extras = {k: v for k, v in obj.items() if k not in consumed}
        return CotInstance(record_id, problem, thinking, answer, extras)

    return _read_jsonl(path, parse, errors)


def _first_id_check(window: int) -> Callable[[str, int], str]:
    """Pass a new id; reject one of the last ``window`` ids passed, naming its line."""
    kept: OrderedDict[str, int] = OrderedDict()  # id -> its line, oldest first

    def check(record_id: str, line_no: int) -> str:
        if record_id in kept:
            raise DatasetError(f"duplicate id {record_id!r} (first at line {kept[record_id]})")
        kept[record_id] = line_no
        if len(kept) > window:
            kept.popitem(last=False)
        return record_id

    return check


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


def read_rm_examples(path: str, *, errors: list[DatasetError] | None = None) -> Iterator[RmCorpusExample]:
    """Stream RmCorpusExample records: {question, answer, reasoning_steps}.

    A record whose id repeats that of one of the DUPLICATE_ID_WINDOW
    examples kept before it is skipped, as in ``read_dataset``, so memory
    stays constant (``build_rm_training_rows`` keeps the first of
    duplicates farther apart).
    """
    check_id = _first_id_check(DUPLICATE_ID_WINDOW)

    def parse(obj: dict, line_no: int) -> RmCorpusExample:
        question, answer, steps = (_field(obj, key) for key in ("question", "answer", "reasoning_steps"))
        if not isinstance(steps, list) or not steps or not all(isinstance(s, str) for s in steps):
            raise DatasetError("reasoning_steps must be a non-empty list of strings")
        return RmCorpusExample(
            question=_checked_text(question, "question"),
            answer=_checked_text(answer, "answer"),
            reasoning_steps=list(steps),
            source_id=check_id(_record_id(obj, "id", line_no), line_no),
        )

    return _read_jsonl(path, parse, errors)


def _parse_response(obj: dict, line_no: int) -> tuple[str, str]:
    source_id, steps = _checked_id(_field(obj, "source_id"), "source_id"), _field(obj, "compressed_steps")
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
    """Write JSON objects one per line to a temp file, renaming on success; every output file goes through one.

    On any failure (including interruption) the temp file is removed, so a
    file is written whole or left as it was. An OSError while opening,
    writing, closing or renaming is a ConfigError, unless the body already fails.
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
        self.write_text(json.dumps(obj, ensure_ascii=False))

    def write_text(self, text: str) -> None:
        try:
            self._fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {self.path!r}: {exc}") from exc
        self.count += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._fh.close()
            if exc_type is None:
                os.replace(self.tmp_path, self.path)
        except OSError as err:
            if exc_type is None:  # a failing close does not replace the error the body ends with
                raise ConfigError(f"cannot write output file {self.path!r}: {err}") from err
        finally:
            with contextlib.suppress(OSError):  # already gone after a successful rename
                os.remove(self.tmp_path)


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
