"""Frozen records: the immutable value classes of the package.

A subclass of :class:`Record` lists its fields as class annotations, in
order; a class attribute after an annotation is that field's default.
Instances are built positionally or by keyword, then
``__post_init__`` (if the class has one) validates them.  Records are
equal only to records of the same class with equal fields, hash as the
tuple of their fields, print as ``Cls(field=value, ...)`` and refuse
assignment and deletion.  ``functools.cached_property`` works on them,
since it writes to the instance ``__dict__`` directly.

This is the part of ``dataclasses.dataclass(frozen=True)`` the package
uses, with the same constructor signature, equality, hash and repr, at
next to no import cost.  The methods are shared (equality and hash read
the fields through an ``attrgetter`` made per class), and ``__init__``
is a closure over the field names from a factory compiled once per field
count, not once per class, whose parameters are renamed to the fields.
A record may have any number of fields.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

# an ``__init__`` factory for some number of fields: ``params`` lists
# the parameters, which are renamed to the fields once compiled, and
# ``sets`` holds one line per field
_TEMPLATE = """\
def make(_names, _post_init):
    def __init__(self{params}):
{sets}        if _post_init is not None:
            _post_init(self)
    return __init__
"""


@cache
def _factory(n: int):
    """The ``make`` of :data:`_TEMPLATE` for ``n`` fields, compiled under
    a filename that tracebacks show."""
    source = _TEMPLATE.format(
        params="".join(f", _{i}" for i in range(n)),
        sets="".join(f"        _setattr(self, _names[{i}], _{i})\n" for i in range(n)),
    )
    scope = {"_setattr": object.__setattr__}
    exec(compile(source, f"<epikit.record __init__, {n} fields>", "exec"), scope)
    return scope["make"]


def _initializer(fields: tuple[str, ...], post_init):
    """An ``__init__`` taking one parameter per field, named after it,
    that sets the fields and then calls ``post_init`` (unless None).

    Fields are set with ``object.__setattr__``: writing to ``__dict__``
    would give every instance a dict of its own, which makes each later
    attribute read several times slower.  The parameters are named
    through ``CodeType.replace``, so keyword calls, defaults and the
    errors of a bad call are Python's own."""
    init = _factory(len(fields))(fields, post_init)
    init.__code__ = init.__code__.replace(co_varnames=("self", *fields))
    return init


def _values_getter(fields: tuple[str, ...]):
    """A function of a record giving the tuple of its fields."""
    if len(fields) == 1:
        get = attrgetter(*fields)
        return lambda record: (get(record),)
    return attrgetter(*fields) if fields else lambda record: ()


class Record:
    """Base of the frozen records; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for base in cls.__mro__[1:]:
            if getattr(base, "_fields", ()):
                raise TypeError(
                    f"{cls.__name__}: a record with fields cannot be extended"
                )
        # own annotations only (Python 3.10 and later give {} when there
        # are none, never a base class's)
        fields = tuple(cls.__annotations__)
        for f in fields:
            # a parameter named so would clash with self or the names
            # the closure holds
            if f == "self" or f.startswith("_"):
                raise TypeError(f"{cls.__name__}: field name {f!r} is reserved")
        defaults = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
        for f in fields[len(fields) - len(defaults):]:
            if f not in cls.__dict__:
                raise TypeError(
                    f"{cls.__name__}: field {f!r} without a default follows "
                    "one with a default"
                )
        init = _initializer(fields, getattr(cls, "__post_init__", None))
        init.__defaults__ = defaults or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls._fields = fields
        cls._values = _values_getter(fields)
        cls.__init__ = init

    @classmethod
    def _trusted(cls, *values):
        """The record of parts the package checked itself: its fields set
        without ``__post_init__``, whose checks are for a caller's parts."""
        record = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(record, name, value)
        return record

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self.__class__._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self.__class__._values(self))

    def __repr__(self):
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
