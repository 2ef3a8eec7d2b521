"""Exception types shared across the pipeline, and the file helpers every
stage uses: ``read_utf8``, the block in which every loader but the posts
one (which skips a bad line) reads and checks its file, so that its data
errors name the file; ``data_lines`` and ``table_rows``, the one line rule
(loaders trim their own fields) and the one row rule that split every input
file into numbered records; and ``atomic_open``, which writes each
``out_dir`` file so that a stage dying mid-write leaves none truncated.

The CLI maps ConfigError to exit code 1 and DataError to exit code 2;
the message says what went wrong, so no stage needs a subclass.
"""

import csv
import math
import operator
import os
from contextlib import contextmanager
from pathlib import Path

# an integer read from a file that becomes a float must be at most this
FLOAT_MAX = math.nextafter(math.inf, 0.0)


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


def data_lines(handle):
    """Each line of a line-based input with its line number, right-stripped
    (each loader trims its fields), skipping blank lines and ``#`` comments.
    ``handle`` is opened with universal newlines, so a line ends only at
    ``\\n``, ``\\r\\n`` or ``\\r`` and the numbers are the file's own."""
    for lineno, line in enumerate(handle, start=1):
        line = line.rstrip()
        if line and line.lstrip()[0] != "#":
            yield lineno, line


def table_rows(handle, header, table, delimiter=","):
    """Each data row of a delimited table read with ``newline=""``, with its
    row number, as the cells of ``header``'s columns (two or more) in its
    order.  The header row names the columns, in any order, others ignored;
    it is row 1, and a blank row is skipped but counted.  No header, a
    missing column and a row with fewer or more cells are data errors."""
    reader = csv.reader(handle, delimiter=delimiter)
    columns = next(reader, None)
    if columns is None:
        raise DataError(f"{table} is empty")
    missing = [c for c in header if c not in columns]
    if missing:
        raise DataError(f"{table} missing column(s): {', '.join(missing)}")
    width = len(columns)
    cells = operator.itemgetter(*map(columns.index, header))
    for rownum, row in enumerate(reader, start=2):
        if len(row) != width:
            if not row:
                continue
            if len(row) > width:
                raise DataError(f"row {rownum}: more cells than columns")
            raise DataError(f"row {rownum}: missing cell(s): {', '.join(columns[len(row):])}")
        yield rownum, cells(row)


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
