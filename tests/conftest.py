import tracemalloc

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


@pytest.fixture(scope="session")
def pos_law_small():
    """Return-position law on a window big enough for tail checks, small
    enough to build in well under a second."""
    return return_position_law(400, 160_000)


@pytest.fixture(scope="session")
def return_law_2000():
    return first_return_law(2000)
