"""Exception types shared across the pipeline, and the two file helpers
every stage uses: ``read_utf8``, the block in which every loader but the
posts one (which skips a bad line) reads and checks its file, so that its
data errors name the file, and ``atomic_open``, which writes each
``out_dir`` file so that a stage dying mid-write leaves none truncated.

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


@contextmanager
def read_utf8(path, newline=None):
    """A block reading the UTF-8 text file at ``path`` through the handle it
    gives, without a leading byte-order mark; bytes that do not decode are a
    DataError naming the file, and one raised in the block gets its path."""
    with open(path, "r", encoding="utf-8-sig", newline=newline) as handle:
        try:
            yield handle
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not valid UTF-8: {exc.reason}") from None
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


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
