"""Tier-1 guard rails: reproducible property tests, and hangs that name
themselves."""

import faulthandler
import os

import pytest
from hypothesis import settings

# Every @settings in tests/ inherits from the loaded profile, so a red run
# is the same red run everywhere and on every retry.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

#: Host seconds one test may take before the process dumps every thread's
#: stack (which names the test) and exits; the whole suite runs in ~40 s.
TEST_TIMEOUT_S = 120

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture is not active yet, so this is the terminal's stderr;
    # inside a test fd 2 is pytest's capture file and the dump would be lost.
    config.stash[_STDERR_FD] = os.dup(2)


@pytest.fixture(autouse=True)
def _dump_traceback_on_hang(pytestconfig):
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=pytestconfig.stash[_STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()
