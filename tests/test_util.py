"""Atomic file output shared by every writer, and the naming of input errors."""

import os

import numpy as np
import pytest

from sinr.cli import write_pgm
from sinr.net import BadMagicError
from sinr.util import atomic_write, errors_named


class _Boom(Exception):
    pass


def test_failed_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"previous\n")
    with pytest.raises(_Boom):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise _Boom
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_writer_failing_mid_file_keeps_the_previous_file(tmp_path):
    path = tmp_path / "map.pgm"
    write_pgm(path, np.full((2, 3), 7))
    before = path.read_bytes()
    unprintable = np.array([[1, 2, 3], [4, "x", 6]], dtype=object)  # fails on row 2
    with pytest.raises(ValueError):
        write_pgm(path, unprintable)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["map.pgm"]


def test_overlapping_writers_to_one_path_do_not_collide(tmp_path):
    path = tmp_path / "model.bin"
    with atomic_write(path, "wb") as outer:
        outer.write(b"outer")
        with atomic_write(path, "wb") as inner:
            inner.write(b"inner")
        assert path.read_bytes() == b"inner"
    assert path.read_bytes() == b"outer"
    assert os.listdir(tmp_path) == ["model.bin"]


def test_new_files_get_the_mode_of_a_plain_open(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        with atomic_write(tmp_path / "atomic"):
            pass
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "atomic").st_mode == os.stat(tmp_path / "plain").st_mode


def test_errors_named_prefixes_value_errors_and_keeps_their_type():
    with pytest.raises(BadMagicError) as exc:
        with errors_named("m.sinr"):
            raise BadMagicError("bad magic b'spec'")
    assert str(exc.value) == "m.sinr: bad magic b'spec'"


def test_errors_named_names_memory_and_decode_errors():
    with pytest.raises(MemoryError) as exc:
        with errors_named("--resolution 9"):
            raise MemoryError("Unable to allocate 1 TiB")
    assert str(exc.value) == "--resolution 9: Unable to allocate 1 TiB"
    with pytest.raises(ValueError) as exc:
        with errors_named("g.evalgrid"):
            b"EVALGRID\n\xff".decode()
    assert type(exc.value) is ValueError
    assert str(exc.value) == "g.evalgrid: not utf-8 text: invalid start byte (byte 0xff)"


def test_errors_named_leaves_other_errors_alone():
    for error in (OSError("No such file"), TypeError("t"), FloatingPointError("f")):
        with pytest.raises(type(error)) as exc:
            with errors_named("x.csv"):
                raise error
        assert exc.value is error and str(exc.value) == str(error)
