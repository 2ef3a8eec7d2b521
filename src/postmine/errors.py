"""Exception types shared across the pipeline, and ``read_utf8``, which
reads an input file so that bytes that are not UTF-8 are a data error;
every loader but the posts one, which skips such a line, reads through it.

The CLI maps ConfigError to exit code 1 and DataError to exit code 2;
the message says what went wrong, so no stage needs a subclass.
"""


class ConfigError(Exception):
    """Unusable invocation: bad flags, bad config file, missing input path."""


class DataError(Exception):
    """Input data violates a contract of the stage consuming it."""


def read_utf8(path, reader=lambda handle: handle.read(), newline=None):
    """``reader`` applied to the open UTF-8 text file at ``path`` (by
    default, its whole text); bytes that do not decode raise a DataError
    that names the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as handle:
        try:
            return reader(handle)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from None
