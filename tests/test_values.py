"""The value-type contract of partpat's six immutable classes: structural
equality within one class, a hash that agrees with it, no assignment,
pickling and copying by the constructor, and the ``Name(field=value)`` repr."""

from __future__ import annotations

import copy
import pickle
import sys

import pytest

from partpat import (
    CountRecord,
    Dacp,
    IntervalCut,
    LayeredShape,
    Occurrence,
    SetPartition,
    parse,
    to_dacp,
)

# (builder of a fresh value, its repr)
VALUES = [
    (lambda: SetPartition(5, ((2, 5), (4, 3, 1))), "SetPartition(n=5, blocks=((1, 3, 4), (2, 5)))"),
    (lambda: LayeredShape((2, 3)), "LayeredShape(parts=(2, 3))"),
    (lambda: IntervalCut((2, 5)), "IntervalCut(cuts=(2, 5))"),
    (lambda: Occurrence((1, 3, 5)), "Occurrence(map=(1, 3, 5))"),
    (lambda: Dacp(3, frozenset({(2, 1)})), "Dacp(n=3, edges=frozenset({(2, 1)}))"),
    (lambda: CountRecord("12/3", 4, 10), "CountRecord(tau='12/3', n=4, count=10)"),
]
IDS = [text.split("(")[0] for _, text in VALUES]


@pytest.mark.parametrize(("build", "text"), VALUES, ids=IDS)
class TestValueContract:
    def test_equal_values_hash_equal(self, build, text):
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_classes_are_not_equal(self, build, text):
        value = build()
        for other, _ in VALUES:
            if other is not build:
                assert value != other()
        assert value != tuple(getattr(value, f) for f in value._fields)

    def test_assignment_raises(self, build, text):
        value = build()
        field = value._fields[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            value.extra = 1
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) == before

    def test_pickle_and_copy_give_an_equal_value(self, build, text):
        value = build()
        for clone in (
            pickle.loads(pickle.dumps(value)),
            copy.copy(value),
            copy.deepcopy(value),
        ):
            assert type(clone) is type(value) and clone == value

    def test_repr(self, build, text):
        assert repr(build()) == text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/text digit limit")
def test_repr_of_a_count_past_the_int_text_limit():
    # counts are exact, and 123 has more than 10**4300 avoiders of [3000]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = repr(CountRecord("123", 3000, 10**5000 + 1))
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == "CountRecord(tau='123', n=3000, count=1" + "0" * 4999 + "1)"


def test_equal_fields_in_another_class_are_not_equal():
    values = [Occurrence((2, 5)), IntervalCut((2, 5)), LayeredShape((2, 5))]
    for a in values:
        for b in values:
            assert (a == b) is (a is b)


def test_block_of_is_outside_the_value():
    p, q = parse("134/25"), parse("134/25")
    assert p.block_of == {1: 0, 3: 0, 4: 0, 2: 1, 5: 1}
    assert p.block_of is p.block_of
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q)
    assert pickle.loads(pickle.dumps(p)).block_of == p.block_of


def test_dacp_masks_are_outside_the_value():
    g, h = to_dacp(parse("134/25")), to_dacp(parse("134/25"))
    # vertex 2: 3 -> 2 and 4 -> 2, 2 -> 1, and no edge with 5
    assert g.masks[2] == (1 << 5, 1 << 3 | 1 << 4, 1 << 1)
    assert g.masks is g.masks
    assert g == h and h == g and hash(g) == hash(h)
    assert repr(g) == repr(h)
    for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert clone == g and clone.masks == g.masks


def test_rgs_is_outside_the_value():
    p, q = parse("134/25"), parse("134/25")
    assert p.rgs == (0, 1, 0, 0, 1)
    assert p.rgs is p.rgs
    assert parse("").rgs == ()
    assert p == q and q == p and hash(p) == hash(q)
    assert repr(p) == repr(q)
    for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert clone == p and clone.rgs == p.rgs


@pytest.mark.parametrize(
    ("n", "blocks", "message"),
    [
        (-1, (), "ground size must be nonnegative"),
        (1, ((1,), ()), "empty block"),
        (2, ((1, 3), ()), "empty block"),
        (2, ((1, 1), (2,)), "duplicate element 1"),
        (3, ((3, 1), (1,)), "duplicate element 1"),
        (2, ((0, 1),), "element 0 is not a positive integer"),
        (1, (("a",),), "element 'a' is not a positive integer"),
        (2, ((1,), ("a",)), "element 'a' is not a positive integer"),
        (2, ((1.0, 2),), "element 1.0 is not a positive integer"),
        (2, ((1, 2, 3),), "element 3 exceeds ground size 2"),
        (4, ((1, 2), (5,)), "element 5 exceeds ground size 4"),
        (3, ((1, 3),), "missing element 2"),
        (2, ((True, 2),), "element True is not a positive integer"),
    ],
)
def test_set_partition_messages(n, blocks, message):
    with pytest.raises(ValueError) as err:
        SetPartition(n, blocks)
    assert str(err.value) == message


@pytest.mark.parametrize("image", [(2, 1), (1, 1), (1, 3, 2)])
def test_occurrence_message(image):
    with pytest.raises(ValueError) as err:
        Occurrence(image)
    assert str(err.value) == "occurrence map must be strictly increasing"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Occurrence([1.9, 2.5, "3"]),
        lambda: Occurrence([1, 2.0]),
        lambda: IntervalCut([1.7, "3"]),
        lambda: LayeredShape([2.9, "2"]),
        lambda: LayeredShape(["2"]),
        lambda: SetPartition(2.0, [[1, 2]]),
        lambda: Dacp(2.0, [(2, 1)]),
    ],
    ids=[
        "Occurrence-floats", "Occurrence-integral-float", "IntervalCut", "LayeredShape", "LayeredShape-text",
        "SetPartition-size", "Dacp-size",
    ],
)
def test_non_integer_fields_raise_type_error(build):
    # int() would truncate 1.9 to 1 and read "3" as 3
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("image", [(-3, 2), (0, 1), (0,)])
def test_occurrence_positions_start_at_1(image):
    with pytest.raises(ValueError) as err:
        Occurrence(image)
    assert str(err.value) == "occurrence map must be strictly increasing positive positions"
