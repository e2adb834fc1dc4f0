"""Tier-1 guard rails: reproducible property tests, and hangs that name
themselves.

``HYPOTHESIS_PROFILE=nightly`` swaps the derandomised tier-1 profile for a
randomised one that draws ten times the examples every property asks for
and prints a reproduction blob for each failure (the scheduled CI run)."""

import faulthandler
import os

import pytest
from hypothesis import settings

# Every @settings in tests/ inherits from the loaded profile, so a red run
# is the same red run everywhere and on every retry.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("nightly", derandomize=False, deadline=None,
                          print_blob=True)
NIGHTLY = os.environ.get("HYPOTHESIS_PROFILE") == "nightly"
settings.load_profile("nightly" if NIGHTLY else "tier1")

#: How many times more examples a nightly run draws than tier-1.
NIGHTLY_EXAMPLES_FACTOR = 10

#: Host seconds one test may take before the process dumps every thread's
#: stack (which names the test) and exits; the whole suite runs in ~40 s.
TEST_TIMEOUT_S = 120 * (NIGHTLY_EXAMPLES_FACTOR if NIGHTLY else 1)

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is not active yet, so this is the terminal's stderr;
    # inside a test fd 2 is pytest's capture file and the dump would be lost.
    config.stash[_STDERR_FD] = os.dup(2)


def pytest_collection_modifyitems(items):
    """Nightly: scale each property's own max_examples (most tests pin one,
    which a profile cannot override)."""
    if not NIGHTLY:
        return
    scaled = set()
    for item in items:
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)  # a method's settings live on its function
        # Hypothesis reads this attribute each time the test runs.
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is None or id(test) in scaled:
            continue
        scaled.add(id(test))
        test._hypothesis_internal_use_settings = settings(
            pinned, max_examples=NIGHTLY_EXAMPLES_FACTOR * pinned.max_examples)


@pytest.fixture(autouse=True)
def _dump_traceback_on_hang(pytestconfig):
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
