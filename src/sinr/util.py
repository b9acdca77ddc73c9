"""Helpers shared across modules: seed normalization, CSV reading and atomic
file output."""

from __future__ import annotations

import contextlib
import csv
import os


def seed_u64(seed: int) -> int:
    """Map a signed or unsigned 64-bit seed onto ``[0, 2**64)`` (two's complement)."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def csv_rows(path, lines, first_line: int = 1):
    """``(line, row)`` for the rows of ``csv.reader(lines)``, where ``lines``
    starts at line ``first_line`` of the file ``path`` and ``line`` is the
    row's first line (a quoted field may span lines). A ``csv.Error``, such as
    a field longer than ``csv.field_size_limit()``, is raised as a ValueError
    naming the file and the line."""
    reader = csv.reader(lines)
    line = first_line
    try:
        for row in reader:
            yield line, row
            line = first_line + reader.line_num
    except csv.Error as exc:
        raise ValueError(f"{path}: line {first_line - 1 + reader.line_num}: {exc}") from None


@contextlib.contextmanager
def decode_errors_named(path):
    """Raise a UnicodeDecodeError from the block, such as a text file that is
    not UTF-8, as a ValueError naming the file ``path`` and the bad byte. The
    error's position is left out: a file read in chunks gives it within the
    chunk, not the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ValueError(
            f"{path}: not {exc.encoding} text: {exc.reason} (byte {byte:#04x})"
        ) from None


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", newline: str | None = None):
    """Open ``path`` for writing so that readers see the old file or the new one.

    Output goes to a uniquely named temporary file in the target directory,
    which replaces ``path`` only when the ``with`` block completes; on any
    error the temporary file is removed and ``path`` is left untouched. The
    file is created with the same permissions a plain :func:`open` gives it.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
