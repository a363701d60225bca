"""Test isolation shared by every test directory.

``epikit.schedules`` keeps the schedule texts and the protocol frame of
each (n, rounds) for the life of the process, which is what a
command-line run wants.  Each test starts without them, so that no test
sees work an earlier test left behind: the span tests, for one, count the
calls a fresh process makes.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _fresh_schedule_tables():
    # only a module that was imported can hold tables; looking it up
    # here rather than importing it keeps this file free of the src path
    schedules = sys.modules.get("epikit.schedules")
    if schedules is not None:
        schedules.schedule_texts.cache_clear()
        schedules.protocol_frame.cache_clear()
