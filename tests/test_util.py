"""Atomic file output shared by every writer."""

import os

import numpy as np
import pytest

from sinr.cli import write_pgm
from sinr.util import atomic_write


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
