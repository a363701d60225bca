"""The record initializer, compiled once per field count: records of any
width, and constructor signatures that name the fields."""

import inspect
import pickle
import traceback

import pytest

import epikit
from epikit import record
from epikit.record import Record


class Seven(Record):
    a: object
    b: object
    c: object
    d: object
    e: object
    f: object
    g: object = "seventh"

    def __post_init__(self):
        if self.a is None:
            raise ValueError("a is required")


def test_a_record_may_have_seven_fields():
    first = Seven(1, 2, 3, 4, 5, 6)
    assert first.g == "seventh"
    assert Seven(1, 2, 3, 4, 5, 6, "seventh") == first
    assert Seven(a=1, b=2, c=3, d=4, e=5, f=6) == first
    assert Seven(1, 2, 3, f=6, e=5, d=4, g="seventh") == first
    assert Seven(1, 2, 3, 4, 5, 6, 7) != first
    assert hash(first) == hash((1, 2, 3, 4, 5, 6, "seventh"))
    assert repr(first) == "Seven(a=1, b=2, c=3, d=4, e=5, f=6, g='seventh')"
    twin = pickle.loads(pickle.dumps(first))
    assert twin == first and twin is not first
    with pytest.raises(AttributeError, match="cannot assign"):
        first.g = 7


def test_a_seven_field_record_runs_post_init():
    with pytest.raises(ValueError, match="a is required"):
        Seven(None, 2, 3, 4, 5, 6)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1,), {}, "missing 5 required positional arguments: 'b', 'c', 'd', 'e', and 'f'"),
        ((1, 2, 3, 4, 5, 6, 7, 8), {}, "takes from 7 to 8 positional arguments but 9 were given"),
        ((1, 2, 3, 4, 5, 6), {"a": 1}, "multiple values for argument 'a'"),
        ((1, 2, 3, 4, 5, 6), {"h": 8}, "unexpected keyword argument 'h'"),
    ],
)
def test_bad_calls_of_a_seven_field_record_raise_pythons_own_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Seven(*args, **kwargs)


def test_trusted_skips_post_init_and_equals_the_checked_record():
    unchecked = Seven._trusted(None, 2, 3, 4, 5, 6, "seventh")
    assert unchecked.a is None and unchecked.g == "seventh"
    assert Seven._trusted(1, 2, 3, 4, 5, 6, "seventh") == Seven(1, 2, 3, 4, 5, 6)


def test_an_error_in_post_init_names_the_initializer_source():
    with pytest.raises(ValueError) as info:
        Seven(None, 2, 3, 4, 5, 6)
    files = [entry.filename for entry in traceback.extract_tb(info.tb)]
    assert "<epikit.record __init__, 7 fields>" in files


def test_the_initializer_is_compiled_once_per_field_count():
    compiled = record._factory.cache_info().misses
    Other = type("Other", (Record,), {"__annotations__": dict.fromkeys("tuvwxyz", "int")})
    assert record._factory.cache_info().misses == compiled
    assert Other(*range(7)).z == 6


def test_every_public_record_signature_lists_its_fields():
    records = [
        value
        for name in epikit._EXPORTS
        if isinstance(value := getattr(epikit, name), type) and issubclass(value, Record)
    ]
    assert len(records) >= 15
    for cls in records:
        params = inspect.signature(cls).parameters.values()
        assert tuple(p.name for p in params) == cls._fields, cls
        for p in params:
            assert p.kind is p.POSITIONAL_OR_KEYWORD, (cls, p)
            default = cls.__dict__.get(p.name, p.empty)
            assert p.default is default, (cls, p)
