"""Frozen records: immutable value classes declared by annotated fields.

``@frozen_record`` takes the field names from the class annotations, in
order, and their defaults from class attributes of the same names.  It adds
what ``dataclass(frozen=True)`` adds, without importing ``dataclasses``
(which pulls in ``inspect`` and ``ast``): ``__init__`` by position or
keyword, calling ``__post_init__`` if defined; ``__eq__`` within the class
and ``__hash__``, over the tuple of fields; ``__repr__`` unless the class
has its own; and ``AttributeError`` on assignment or deletion.
``dataclasses.replace``, ``fields`` and ``asdict`` still accept records
through ``__dataclass_fields__``, built on first access.
"""

import sys


def frozen_record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    # generated, as dataclasses does it, so a record costs no more to build
    # or compare than a frozen dataclass
    src = (
        f"def __init__(self, {params}):\n"
        "    d = self.__dict__\n"
        + "".join(f"    d[{n!r}] = {n}\n" for n in names)
        + ("    self.__post_init__()\n" if hasattr(cls, "__post_init__") else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is not self.__class__:\n"
        "        return NotImplemented\n"
        f"    return ({mine}) == ({theirs})\n"
        "def __hash__(self):\n"
        f"    return hash(({mine}))\n")
    ns = {"_defaults": defaults}
    exec(compile(src, f"<record {cls.__qualname__}>", "exec"), ns)
    for name in ("__init__", "__eq__", "__hash__"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, ns[name])

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__qualname__}({fields})"

    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__setattr__ = _frozen
    cls.__delattr__ = _frozen
    cls.__dataclass_fields__ = _DataclassFields(names, defaults)
    return cls


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


class _DataclassFields:
    """The ``dataclasses`` view of a record's fields, made when first read.

    Only code that has imported ``dataclasses`` can use it, so it is taken
    from ``sys.modules``; to any other code a record is no dataclass.
    """

    def __init__(self, names, defaults):
        self.names = names
        self.defaults = defaults

    def __get__(self, obj, cls):
        dataclasses = sys.modules.get("dataclasses")
        if dataclasses is None:
            raise AttributeError("__dataclass_fields__")
        fields = dataclasses.make_dataclass(cls.__name__, [
            (n, object, dataclasses.field(default=self.defaults[n]))
            if n in self.defaults else (n, object)
            for n in self.names]).__dataclass_fields__
        setattr(cls, "__dataclass_fields__", fields)
        return fields
