import importlib.util
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest

from oracles.return_laws import first_return_law
from recwalk.return_laws import return_position_law


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while fn() runs; memory allocated
    before the call is not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bench_checks():
    """bench/checks.py as a module, loaded without writing its bytecode."""
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def pos_law_small():
    """Return-position law on a window big enough for tail checks, small
    enough to build in well under a second."""
    return return_position_law(400, 160_000)


@pytest.fixture(scope="session")
def return_law_2000():
    return first_return_law(2000)
