"""Domain records and streaming JSONL I/O.

Input files are JSON Lines, one object per line, UTF-8 with LF endings.
Field names are configurable through a schema mapping so heterogeneous
source datasets can be ingested without rewriting them first.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .errors import DatasetError

# canonical field -> default JSONL key
DEFAULT_SCHEMA = {
    "id": "id",
    "problem": "problem",
    "thinking": "thinking",
    "answer": "answer",
}

RM_EXAMPLE_SCHEMA = {
    "id": "id",
    "question": "question",
    "answer": "answer",
    "reasoning_steps": "reasoning_steps",
}

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


def _checked_text(value: Any, key: str, line: int, path: str) -> str:
    if not isinstance(value, str):
        raise DatasetError(f"field {key!r} must be a string, got {type(value).__name__}", line, path)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise DatasetError(f"field {key!r} contains unpaired surrogate code points", line, path) from None
    return value


def _iter_json_lines(path: str, strict: bool, errors: list[DatasetError] | None) -> Iterator[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise DatasetError(f"expected a JSON object, got {type(obj).__name__}", line_no, path)
                yield line_no, obj
            except DatasetError as err:
                if strict:
                    raise
                if errors is not None:
                    errors.append(err)
            except json.JSONDecodeError as exc:
                err = DatasetError(f"malformed JSON: {exc.msg}", line_no, path)
                if strict:
                    raise err from exc
                if errors is not None:
                    errors.append(err)


def read_dataset(
    path: str,
    schema: dict[str, str] | None = None,
    *,
    strict: bool = False,
    errors: list[DatasetError] | None = None,
) -> Iterator[CotInstance]:
    """Stream CotInstance records from a JSONL file, preserving input order.

    ``schema`` maps canonical field names (problem, thinking, answer, id) to
    the keys used in the file. Records with malformed JSON or missing mapped
    fields produce a DatasetError: raised when ``strict``, otherwise appended
    to ``errors`` (if given) while the stream continues. When the id field is
    absent, ids are synthesized as ``line:<n>``.
    """
    mapping = dict(DEFAULT_SCHEMA)
    if schema:
        mapping.update(schema)
    for line_no, obj in _iter_json_lines(path, strict, errors):
        try:
            fields: dict[str, str] = {}
            for canon in ("problem", "thinking", "answer"):
                key = mapping[canon]
                if key not in obj:
                    raise DatasetError(f"missing field {key!r}", line_no, path)
                fields[canon] = _checked_text(obj[key], key, line_no, path)
            id_key = mapping["id"]
            raw_id = obj.get(id_key)
            instance_id = str(raw_id) if raw_id is not None else f"line:{line_no}"
            consumed = {mapping[c] for c in ("problem", "thinking", "answer")} | {id_key}
            extras = {k: v for k, v in obj.items() if k not in consumed}
            yield CotInstance(instance_id, fields["problem"], fields["thinking"], fields["answer"], extras)
        except DatasetError as err:
            if strict:
                raise
            if errors is not None:
                errors.append(err)


def read_compressed_dataset(
    path: str,
    *,
    strict: bool = False,
    errors: list[DatasetError] | None = None,
) -> Iterator[CompressedInstance]:
    """Stream CompressedInstance records written by write_dataset."""
    for line_no, obj in _iter_json_lines(path, strict, errors):
        try:
            missing = [k for k in COMPRESSED_KEY_ORDER if k not in obj]
            if missing:
                raise DatasetError(f"missing field {missing[0]!r}", line_no, path)
            extras = {k: v for k, v in obj.items() if k not in COMPRESSED_KEY_ORDER}
            yield CompressedInstance(
                id=str(obj["id"]),
                problem=obj["problem"],
                compressed_thinking=obj["compressed_thinking"],
                answer=obj["answer"],
                nominal_ratio=float(obj["nominal_ratio"]),
                actual_ratio=float(obj["actual_ratio"]),
                kept_count=int(obj["kept_count"]),
                original_count=int(obj["original_count"]),
                extras=extras,
            )
        except DatasetError as err:
            if strict:
                raise
            if errors is not None:
                errors.append(err)


def read_rm_examples(
    path: str,
    *,
    strict: bool = False,
    errors: list[DatasetError] | None = None,
) -> Iterator[RmCorpusExample]:
    """Stream RmCorpusExample records: {question, answer, reasoning_steps}."""
    for line_no, obj in _iter_json_lines(path, strict, errors):
        try:
            for key in ("question", "answer", "reasoning_steps"):
                if key not in obj:
                    raise DatasetError(f"missing field {key!r}", line_no, path)
            steps = obj["reasoning_steps"]
            if not isinstance(steps, list) or not steps or not all(isinstance(s, str) for s in steps):
                raise DatasetError("reasoning_steps must be a non-empty list of strings", line_no, path)
            raw_id = obj.get("id")
            source_id = str(raw_id) if raw_id is not None else f"line:{line_no}"
            yield RmCorpusExample(
                question=_checked_text(obj["question"], "question", line_no, path),
                answer=_checked_text(obj["answer"], "answer", line_no, path),
                reasoning_steps=list(steps),
                source_id=source_id,
            )
        except DatasetError as err:
            if strict:
                raise
            if errors is not None:
                errors.append(err)


def read_responses(path: str, *, errors: list[DatasetError] | None = None) -> Iterator[tuple[str, str]]:
    """Stream (source_id, compressed_steps) pairs of strong-model responses.

    A list of steps is joined with newlines. Malformed lines and lines
    missing either field are appended to ``errors`` (if given) and skipped.
    """
    for line_no, obj in _iter_json_lines(path, False, errors):
        if "source_id" not in obj or "compressed_steps" not in obj:
            if errors is not None:
                errors.append(DatasetError("missing source_id or compressed_steps", line_no, path))
            continue
        steps = obj["compressed_steps"]
        if isinstance(steps, list):
            steps = "\n".join(str(s) for s in steps)
        yield str(obj["source_id"]), str(steps)


def compressed_to_dict(record: CompressedInstance) -> dict[str, Any]:
    """Serialize with the fixed key order; extra input fields follow, key collisions dropped."""
    out: dict[str, Any] = {
        "id": record.id,
        "problem": record.problem,
        "compressed_thinking": record.compressed_thinking,
        "answer": record.answer,
        "nominal_ratio": record.nominal_ratio,
        "actual_ratio": record.actual_ratio,
        "kept_count": record.kept_count,
        "original_count": record.original_count,
    }
    for key, value in record.extras.items():
        if key not in out:
            out[key] = value
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
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fh = open(self.tmp_path, "w", encoding="utf-8", newline="\n")
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
    with JsonlWriter(path) as writer:
        for record in records:
            writer.write(compressed_to_dict(record))
        return writer.count


def write_jsonl(objects: Iterable[dict[str, Any]], path: str) -> int:
    """Write arbitrary dicts as JSONL with the same temp-and-rename semantics."""
    with JsonlWriter(path) as writer:
        for obj in objects:
            writer.write(obj)
        return writer.count
