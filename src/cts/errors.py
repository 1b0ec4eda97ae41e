"""Exception taxonomy. The CLI maps these onto exit codes."""

from __future__ import annotations


class CtsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(CtsError):
    """Invalid configuration: bad ratio, malformed condition template, a file that cannot be read or written, etc."""


class DatasetError(CtsError):
    """A dataset record or file could not be read or written.

    ``line`` is the 1-based line number when the error is tied to a
    specific input line, else None.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        super().__init__(message)
        self.line = line
        self.path = path

    def __str__(self) -> str:
        where = ""
        if self.path is not None:
            where += f"{self.path}:"
        if self.line is not None:
            where += f"{self.line}: "
        elif where:
            where += " "
        return where + super().__str__()


class TokenizeError(CtsError):
    """Text cannot be tokenized by the active backend."""


class BackendError(CtsError):
    """Base class for log-probability backend failures."""


class BackendUnavailable(BackendError):
    """Transport-level failure (connection refused, timeout, 5xx) after retries.

    Retriable in principle; the pipeline aborts with exit code 3 once the
    client has exhausted its own retries.
    """


class BackendProtocolError(BackendError):
    """The backend answered, but the payload violates the wire contract.

    Non-retriable: repeating the request would return the same bad answer.
    """


class ScoringError(CtsError):
    """Scoring a specific instance failed; carries the instance id and token range."""

    def __init__(self, message: str, instance_id: str = "", positions: tuple[int, int] | None = None):
        super().__init__(message)
        self.instance_id = instance_id
        self.positions = positions
