"""The benchmark's reference load, run beside the measured commands.

    python perfbench/probe.py OUT LIFETIME_S

repeats a short, fixed pure-Python load that does not touch epikit: it
builds a dict of tuple keys and frozenset values, tests each value
against a set and sorts the keys by a key function, as epikit's model
building does.  It times each repetition in CPU seconds and sleeps
``PAUSE_S`` after it, so it takes about a fifth of the core it shares
with the measured command.  On SIGTERM, or after LIFETIME_S seconds, it
writes the ``perf_counter`` end time and the CPU time of every repetition
to OUT as JSON and exits.

A shared host runs the same code up to twice as slow for seconds or
minutes at a time, differently on each core, and the probe, on the same
core as the command, slows with it.  ``run.py`` scales each command's
CPU time by the probe's repetitions that ended while the command ran
(see ``Probe.reference_time``).  The probe runs as its own process so
that its memory does not count towards the peak RSS of the commands.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time, sleep

ITEMS = 1500
PAUSE_S = 0.006


def load() -> None:
    table = {
        (i, i % 7, i % 11): frozenset((i % 13, i % 17, i % 5))
        for i in range(ITEMS)
    }
    sum(1 for v in table.values() if v & {1, 2})
    sorted(table, key=lambda k: (k[2], k[1], -k[0]))


def main() -> None:
    out, lifetime = Path(sys.argv[1]), float(sys.argv[2])
    stop: list[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    ends: list[float] = []
    durations: list[float] = []
    born = perf_counter()
    while not stop and perf_counter() - born < lifetime:
        start = process_time()
        load()
        durations.append(process_time() - start)
        ends.append(perf_counter())
        sleep(PAUSE_S)
    out.write_text(json.dumps({"end": ends, "duration": durations}))


if __name__ == "__main__":
    main()
