"""Frozen records: the constructor, equality, hashing, repr and immutability
of a frozen dataclass, without importing dataclasses."""

import dataclasses

import pytest

from wittcalc import DomainError, FqElement, Obstruction, RelationQuery, ValuationAtLeast
from wittcalc.record import frozen_record

from conftest import get_params


@frozen_record
class Point:
    """A test record with a default and a check."""

    x: int
    y: int
    label: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise DomainError("x must be >= 0")


@frozen_record
class Other:
    x: int
    y: int
    label: str = "p"


def test_constructor_takes_positions_keywords_and_defaults():
    assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2, label="p")
    assert Point(1, 2, "q").label == "q"
    with pytest.raises(TypeError):
        Point(1)
    with pytest.raises(TypeError):
        Point(1, 2, "q", 4)
    with pytest.raises(TypeError):
        Point(1, 2, z=3)
    with pytest.raises(DomainError):
        Point(-1, 2)


def test_equality_and_hash_follow_type_and_fields():
    assert Point(1, 2) != Point(1, 3)
    assert Point(1, 2) != Other(1, 2)
    assert Point(1, 2) != (1, 2, "p")
    assert hash(Point(1, 2)) == hash((1, 2, "p"))
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


def test_repr_lists_fields_unless_the_class_has_its_own():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p')"
    assert repr(ValuationAtLeast(3)) == ">= 3"
    assert repr(get_params(5, 2, 4).fq((1, 2))) == "Fq(1 + 2*g)"


def test_fields_cannot_be_assigned_or_deleted():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 5
    with pytest.raises(AttributeError):
        p.z = 5
    with pytest.raises(AttributeError):
        del p.y
    assert p == Point(1, 2)


def test_dataclasses_helpers_accept_records():
    p = Point(1, 2)
    assert dataclasses.is_dataclass(p)
    assert dataclasses.replace(p, y=7) == Point(1, 7)
    assert [f.name for f in dataclasses.fields(Point)] == ["x", "y", "label"]
    assert dataclasses.asdict(p) == {"x": 1, "y": 2, "label": "p"}
    with pytest.raises(DomainError):  # replace runs the checks again
        dataclasses.replace(p, x=-1)
    P = get_params(5, 2, 4)
    o = Obstruction(stage="mod-p", kind="power-residue", witness=P.fq((1, 2)), exponent=6)
    assert dataclasses.replace(o, witness=P.fq((3, 4))) == Obstruction(
        "mod-p", "power-residue", FqElement(P, (3, 4)), 6)


def test_post_init_may_fill_a_field():
    u = get_params(5, 1, 12).from_int(3)
    q = RelationQuery((u,), 1, 2)
    assert q.precision == 12
    assert q == RelationQuery(values=(u,), deg_bound=1, height_bound=2, precision=12)
