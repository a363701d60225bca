"""Frozen-record semantics of the package's value classes, and the
start-up cost that the record base keeps out."""

import copy
import pickle
import subprocess
import sys

import pytest

from epikit.kernel import FrameMorphism, KripkeFrame, new_frame
from epikit.logic import TRUE, ActionModel, And, Atom, Know, Not
from epikit.record import Record
from epikit.schedules import BlockAction, Schedule, block_action, schedule
from epikit.simengine import RunRecord, run
from epikit.solver import SearchStats
from epikit.tasks import OutputFrame


class Pair(Record):
    left: object
    right: object


class OtherPair(Record):
    left: object
    right: object


def test_records_of_different_classes_are_never_equal():
    assert Not(Atom("p")) != Atom(Atom("p"))
    assert Atom(Atom("p")) != Not(Atom("p"))
    assert And(0, Atom("p")) != Know(0, Atom("p"))
    assert Pair(1, 2) != OtherPair(1, 2)
    assert len({Pair(1, 2), OtherPair(1, 2)}) == 2


def test_equal_fields_make_equal_records():
    assert Know(0, Atom("p")) == Know(0, Atom("p"))
    assert Know(0, Atom("p")) != Know(1, Atom("p"))
    assert schedule([[0, 1]]) == schedule([[0, 1]])


def test_hash_is_the_hash_of_the_field_tuple():
    frame = new_frame(2, 1, [[0, 1]])
    records = [
        (Atom("p"), ("p",)),
        (Know(0, TRUE), (0, TRUE)),
        (frame, (2, 1, ((0, 1),))),
        (FrameMorphism((1, 0)), ((1, 0),)),
        (SearchStats(1, 2, 3, 4), (1, 2, 3, 4)),
        (ActionModel(frame, (TRUE, TRUE)), (frame, (TRUE, TRUE), None)),
    ]
    for record, fields in records:
        assert hash(record) == hash(fields)


def test_repr_names_every_field():
    assert repr(Not(Atom("p"))) == "Not(sub=Atom(name='p'))"
    assert repr(TRUE) == "Top()"
    assert repr(new_frame(2, 1, [[0, 1]])) == (
        "KripkeFrame(state_count=2, agent_count=1, partitions=((0, 1),))"
    )
    assert repr(SearchStats(1, 2, 3, 4)) == (
        "SearchStats(nodes=1, backtracks=2, assignments=3, learned=4)"
    )


def test_assigning_or_deleting_an_attribute_raises():
    act = block_action([0], [1])
    with pytest.raises(AttributeError, match="cannot assign"):
        act.classes = ()
    with pytest.raises(AttributeError, match="cannot assign"):
        act.other = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        del act.classes
    assert act.classes == ((0,), (1,))


@pytest.mark.parametrize(
    "classes",
    [((0,), ()), ((1, 0),), ((0, 1), (1,)), ((0,), (2,))],
    ids=["empty class", "unsorted", "overlap", "gap"],
)
def test_post_init_rejects_a_bad_block_action(classes):
    with pytest.raises(ValueError):
        BlockAction(classes)
    with pytest.raises(ValueError):
        BlockAction(classes=classes)


def test_post_init_rejects_a_bad_output_frame():
    with pytest.raises(ValueError, match="distinct"):
        OutputFrame(((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="equal width"):
        OutputFrame(((0, 1), (0,)))


def test_keyword_construction_and_the_sees_default():
    frame = new_frame(1, 2, [[0], [0]])
    plain = ActionModel(frame, (TRUE,))
    assert plain.sees is None
    assert ActionModel(frame=frame, preconditions=(TRUE,)) == plain
    assert ActionModel(frame, preconditions=(TRUE,), sees=None) == plain
    seen = ActionModel(frame, (TRUE,), (((0,), (1,)),))
    assert seen.sees == (((0,), (1,)),)
    assert seen != plain
    assert KripkeFrame(state_count=1, agent_count=2, partitions=((0,), (0,))) == frame


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing 2 required positional arguments: 'frame' and 'preconditions'"),
        ((1, 2, 3, 4), {}, "takes from 3 to 4 positional arguments but 5 were given"),
        ((1,), {"frame": 1}, "multiple values for argument 'frame'"),
        ((1, 2), {"other": 3}, "unexpected keyword argument 'other'"),
    ],
)
def test_bad_construction_calls_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ActionModel(*args, **kwargs)


def test_cached_property_on_a_frozen_record():
    frame = new_frame(3, 1, [["a", "b", "a"]])
    first = frame.classes_by_agent
    assert first == (((0, 2), (1,)),)
    assert frame.classes_by_agent is first
    # a cached value is not a field: equality and hash ignore it
    assert frame == new_frame(3, 1, [["a", "b", "a"]])
    assert hash(frame) == hash(new_frame(3, 1, [["a", "b", "a"]]))


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "pickle"])
def test_copies_are_equal_records(clone):
    sched = schedule([[0], [1, 2]], [[0, 1, 2]])
    sched.rounds[0].views  # a cached value travels with the copy
    records = [
        sched,
        run(sched),
        Know(1, Not(Atom("p"))),
        ActionModel(new_frame(1, 1, [[0]]), (TRUE,)),
        OutputFrame(((0, 1), (1, 0))),
    ]
    for record in records:
        twin = clone(record)
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)
    assert isinstance(clone(run(sched)), RunRecord)
    with pytest.raises(AttributeError):
        clone(sched).rounds = ()


def test_a_record_with_fields_cannot_be_extended():
    with pytest.raises(TypeError, match="cannot be extended"):
        class Triple(Pair):
            extra: int


@pytest.mark.parametrize("name", ["self", "_hidden"])
def test_reserved_field_names_are_refused(name):
    with pytest.raises(TypeError, match="reserved"):
        type("Bad", (Record,), {"__annotations__": {name: "int"}})


def test_a_field_without_default_cannot_follow_one_with_default():
    with pytest.raises(TypeError, match="without a default"):
        class Bad(Record):
            first: int = 0
            second: int


def test_schedule_post_init_still_checks_rounds():
    with pytest.raises(ValueError, match="at least one round"):
        Schedule(())
    with pytest.raises(ValueError, match="same id set"):
        Schedule((block_action([0, 1]), block_action([0])))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # generating dataclass methods and importing dataclasses (which
    # imports inspect) cost every command tens of milliseconds, typing a
    # few more; modules that site hooks load before the package are not
    # its doing
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import epikit.cli; "
         "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
