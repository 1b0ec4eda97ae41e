"""Run metrics: counts, realized compression ratios, timing."""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Sized

from .dataset import CompressedInstance


@dataclass
class RunReport:
    instances_total: int = 0
    instances_ok: int = 0
    instances_failed: int = 0
    mean_actual_ratio: float | None = None
    stdev_actual_ratio: float | None = None
    # primary aggregate: kept_tokens_total / original_tokens_total
    actual_ratio_per_token: float | None = None
    original_tokens_total: int = 0
    kept_tokens_total: int = 0
    wall_time_seconds: float = 0.0
    config_echo: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class ReportBuilder:
    """Accumulates per-instance outcomes into a RunReport."""

    def __init__(self) -> None:
        self._ratios: list[float] = []
        self._failed = 0
        self._original_total = 0
        self._kept_total = 0

    def add_ok(self, record: CompressedInstance) -> None:
        self._ratios.append(record.actual_ratio)
        self._original_total += record.original_count
        self._kept_total += record.kept_count

    def add_failed(self, count: int = 1) -> None:
        self._failed += count

    def build(self, wall_time_seconds: float, config_echo: dict[str, Any]) -> RunReport:
        ok = len(self._ratios)
        mean = statistics.fmean(self._ratios) if ok else None
        stdev = statistics.stdev(self._ratios) if ok >= 2 else (0.0 if ok else None)
        per_token = self._kept_total / self._original_total if self._original_total else None
        return RunReport(
            instances_total=ok + self._failed,
            instances_ok=ok,
            instances_failed=self._failed,
            mean_actual_ratio=mean,
            stdev_actual_ratio=stdev,
            actual_ratio_per_token=per_token,
            original_tokens_total=self._original_total,
            kept_tokens_total=self._kept_total,
            wall_time_seconds=wall_time_seconds,
            config_echo=config_echo,
        )


def report_from_records(records: Iterable[CompressedInstance], source: str = "", errors: Sized = ()) -> RunReport:
    """Recompute the aggregate metrics from a compressed dataset; each of the reader's ``errors`` is a failure."""
    builder = ReportBuilder()
    for record in records:
        builder.add_ok(record)
    builder.add_failed(len(errors))
    return builder.build(0.0, {"source": source} if source else {})
