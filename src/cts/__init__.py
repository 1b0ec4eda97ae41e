"""Compress chain-of-thought training data by conditional token importance."""

from .backends import (
    HttpBackend,
    HttpBackendConfig,
    LogprobBackend,
    LogprobRequest,
    LogprobResponse,
    ToyBackend,
    ToyLmSpec,
    ppl_of,
)
from .dataset import (
    CompressedInstance,
    CotInstance,
    RmCorpusExample,
    read_compressed_dataset,
    read_dataset,
    read_rm_examples,
    write_dataset,
)
from .emitters import (
    RmPromptRecord,
    RmTrainingRow,
    SftRecord,
    build_rm_training_rows,
    emit_rm_prompts,
    emit_sft,
    words_form_subsequence,
)
from .errors import (
    BackendError,
    BackendProtocolError,
    BackendUnavailable,
    ConfigError,
    CtsError,
    DatasetError,
    ScoringError,
    TokenizeError,
)
from .report import ReportBuilder, RunReport, report_from_records
from .selector import (
    Segment,
    SelectionConfig,
    SelectionResult,
    TokenScoreRow,
    compress_instance,
    compress_steps,
    run_lockstep,
    score_tokens,
    segment_thinking,
    select_tokens,
)

__version__ = "0.1.0"
