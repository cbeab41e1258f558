"""Shared fixtures."""

import json
import pathlib
import tracemalloc

import pytest


@pytest.fixture(scope="session")
def verified_value():
    """Check a value against tests/verified_values.json, recorded from a
    passing run: the eleven verify values of each mode and the
    two_species sweep columns.  1e-10 relative, or 1e-12 absolute where the
    recorded value is 0."""
    path = pathlib.Path(__file__).with_name("verified_values.json")
    recorded = json.loads(path.read_text(encoding="utf-8"))

    def check(mode: str, name: str, value: float) -> None:
        ref = recorded[mode][name]
        assert abs(value - ref) <= (1e-10 * abs(ref) if ref else 1e-12), \
            f"{mode} {name}: {value!r}, recorded {ref!r}"

    return check


@pytest.fixture(scope="session")
def peak_bytes():
    """Measure fn(*args): the peak of the bytes it allocates, by tracemalloc
    (numpy reports its arrays there), its result counted while alive.
    Returns (peak, result)."""
    def measure(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    return measure
