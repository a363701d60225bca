"""Seeded inputs for the benchmark workloads.

Everything here is derived from the seed and from the memory simulator
(``epikit.simengine.run``), which is the program's independent oracle for
view classes.  The program under test only ever sees the files and
arguments produced here.
"""

from __future__ import annotations

import itertools
import random

from epikit.schedules import enum_schedules
from epikit.simengine import run

PLANTED_N = 3
PLANTED_ROUNDS = 2
PLANTED_TUPLES = 8
PLANTED_EXTRA_PROB = 0.25
# mc queries use view classes of at most this many schedules, so that the
# formula's size, and with it the op's cost, does not swing with the seed
MC_MAX_CLASS = 36


def simulator_classes(n: int, rounds: int):
    """Schedules in canonical order and, per agent, each schedule's view
    class, numbered by first occurrence of the simulator's final state."""
    scheds = enum_schedules(n, rounds)
    index: list[dict] = [{} for _ in range(n + 1)]
    classes: list[list[int]] = [[] for _ in range(n + 1)]
    for sched in scheds:
        finals = run(sched).finals
        for a in range(n + 1):
            classes[a].append(index[a].setdefault(finals[a], len(index[a])))
    return scheds, classes


def class_members(classes_of_agent: list[int]) -> list[list[int]]:
    members: list[list[int]] = []
    for k, c in enumerate(classes_of_agent):
        if c == len(members):
            members.append([])
        members[c].append(k)
    return members


def planted_task(seed: int, classes: list[list[int]]) -> dict:
    """A task over n=3, rounds=2 that is Solvable by construction.

    A hidden decision map gives every view class of every agent a bit,
    except one seeded agent that always decides a seeded constant.  The
    tuples are the eight binary tuples carrying that constant, so the
    tuple induced by the hidden map at every schedule is among them.  Each
    row allows that tuple plus seeded extras.
    """
    rng = random.Random(f"planted-{seed}")
    width = PLANTED_N + 1
    fixed_agent = rng.randrange(width)
    fixed_value = rng.randrange(2)
    tuples = [
        t for t in itertools.product((0, 1), repeat=width)
        if t[fixed_agent] == fixed_value
    ]
    rng.shuffle(tuples)
    position = {t: i for i, t in enumerate(tuples)}
    hidden = [
        [fixed_value if a == fixed_agent else rng.randrange(2)
         for _ in range(max(classes[a]) + 1)]
        for a in range(width)
    ]
    delta = []
    for k in range(len(classes[0])):
        planted = position[tuple(hidden[a][classes[a][k]] for a in range(width))]
        row = {planted}
        row.update(
            t for t in range(PLANTED_TUPLES)
            if rng.random() < PLANTED_EXTRA_PROB
        )
        delta.append(sorted(row))
    return {
        "name": "planted",
        "n": PLANTED_N,
        "N": PLANTED_ROUNDS,
        "tuples": [list(t) for t in tuples],
        "delta": delta,
    }


def mc_query(seed: int, scheds, classes: list[list[int]]) -> dict:
    """A ``K[a]`` query at a seeded state whose body is the disjunction of
    the state's a-class as the simulator sees it.  On even seeds the claim
    is true, and it also says that every member is a-possible
    (``!K[a] !sched_m``), so a model whose a-class differs from the
    simulator's in either direction makes it false.  On odd seeds one
    seeded member is dropped, so the claim is false and that member is the
    witness."""
    rng = random.Random(f"mc-{seed}")
    agent = rng.randrange(len(classes))
    members = class_members(classes[agent])
    candidates = [
        k for k in range(len(scheds))
        if len(members[classes[agent][k]]) <= MC_MAX_CLASS
    ]
    state = rng.choice(candidates)
    body = list(members[classes[agent][state]])
    dropped = None
    if seed % 2:
        dropped = body.pop(rng.randrange(len(body)))
    atoms = [f"sched_{scheds[k].text()}" for k in body]
    formula = f"K[{agent}] (" + " | ".join(atoms) + ")"
    if dropped is None:
        formula += "".join(f" & !K[{agent}] !{atom}" for atom in atoms)
    return {
        "agent": agent,
        "state": scheds[state].text(),
        "formula": formula,
        "expect_true": dropped is None,
        "witness": dropped,
    }
