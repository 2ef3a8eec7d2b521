"""Exception types shared across the pipeline, and the two file helpers
every stage uses: ``read_utf8``, which reads an input file so that bytes
that are not UTF-8 are a data error (every loader but the posts one,
which skips such a line, reads through it), and ``atomic_open``, through
which every ``out_dir`` file is written, so a stage that dies mid-write
leaves no truncated file for a later stage or ``report`` to read.

The CLI maps ConfigError to exit code 1 and DataError to exit code 2;
the message says what went wrong, so no stage needs a subclass.
"""

import os
from contextlib import contextmanager
from pathlib import Path


class ConfigError(Exception):
    """Unusable invocation: bad flags, bad config file, missing input path."""


class DataError(Exception):
    """Input data violates a contract of the stage consuming it."""


def read_utf8(path, reader=lambda handle: handle.read(), newline=None):
    """``reader`` applied to the open UTF-8 text file at ``path`` (by
    default, its whole text, without a leading byte-order mark); bytes
    that do not decode raise a DataError that names the file."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as handle:
        try:
            return reader(handle)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from None


@contextmanager
def atomic_open(path, newline=None):
    """Open a UTF-8 text file to write in place of ``path``.

    The text goes to ``<path>.part`` beside it, which replaces ``path``
    only when the block ends without an exception; otherwise it is
    removed and ``path`` stays as it was (or absent).
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
