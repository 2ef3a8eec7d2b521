"""Exception types shared across the pipeline, and ``read_utf8``, which
reads an input file so that bytes that are not UTF-8 are a data error;
every loader but the posts one, which skips such a line, reads through it.

The CLI maps ConfigError to exit code 1 and DataError (with its
subclasses) to exit code 2.
"""


class ConfigError(Exception):
    """Unusable invocation: bad flags, bad config file, missing input path."""


class DataError(Exception):
    """Input data violates a contract of the stage consuming it."""


class EmptyCorpusError(DataError):
    """No valid post survived ingestion; ``warnings`` says why."""

    def __init__(self, message: str, warnings: list[str]):
        super().__init__(message)
        self.warnings = warnings


class EmptyVocabularyError(DataError):
    """Vocabulary pruning removed every term."""


class RankDeficientError(DataError):
    """Design matrix has linearly dependent columns."""


def read_utf8(path, reader=lambda handle: handle.read(), newline=None):
    """``reader`` applied to the open UTF-8 text file at ``path`` (by
    default, its whole text); bytes that do not decode raise a DataError
    that names the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            return reader(handle)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from None
