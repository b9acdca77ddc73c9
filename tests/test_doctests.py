"""The usage examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import sinr


def test_docstring_examples_pass():
    names = [info.name for info in pkgutil.iter_modules(sinr.__path__, prefix="sinr.")]
    results = [doctest.testmod(importlib.import_module(name)) for name in ["sinr", *names]]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) >= 3
