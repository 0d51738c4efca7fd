"""Value semantics of the hand-written record classes.

The value classes compare, hash and print by their fields and refuse
assignment; the constructors still check what they checked before.
"""

from fractions import Fraction as F

import pytest

from unimix.bestvote import Claim, ExtendedCandidate, SelectionRow
from unimix.cli import ScenarioConfig
from unimix.core import (
    Alphabet,
    EMPTY_HISTORY,
    FixedHorizon,
    GeometricDiscount,
    History,
    MovingHorizon,
    Percept,
    ProportionalHorizon,
)
from unimix.domains import FunctionClassSpec, GameSpec, RelationSpec, make_heavenhell
from unimix.planner import ValueQuery
from unimix.vm import FRESH, CycleResult, RunBudget, decode

X = Percept(F(1, 2), 1)

# (name, factory, one field) for every class with value semantics.
VALUES = [
    ("Percept", lambda: Percept(F(1, 2), 1), "reward"),
    ("Alphabet", lambda: Alphabet(3, 2, (0, F(1, 2), 1)), "rewards"),
    ("History", lambda: History(((0, X), (1, X))), "cycles"),
    ("FixedHorizon", lambda: FixedHorizon(3), "m"),
    ("MovingHorizon", lambda: MovingHorizon(3), "h"),
    ("ProportionalHorizon", lambda: ProportionalHorizon(F(1, 2)), "beta"),
    ("GeometricDiscount", lambda: GeometricDiscount(F(1, 2), 4), "gamma"),
    ("Program", lambda: decode((1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0)), "code"),
    ("RunBudget", lambda: RunBudget(5), "steps_per_cycle"),
    ("CycleResult", lambda: CycleResult((1, 0), 3, False, FRESH), "outputs"),
    ("Claim", lambda: Claim(F(1, 3), 1, False, 2), "w"),
    ("SelectionRow", lambda: SelectionRow(1, "9:088", F(1), True, True, 0, 4), "valid"),
]
IDS = [name for name, _, _ in VALUES]


@pytest.mark.parametrize("make", [m for _, m, _ in VALUES], ids=IDS)
def test_equal_fields_give_equal_objects_with_equal_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("make,field", [(m, f) for _, m, f in VALUES], ids=IDS)
def test_fields_are_read_only(make, field):
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, before)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_a_different_field_gives_an_unequal_object():
    assert Percept(F(1, 2), 1) != Percept(F(1, 2), 0)
    assert History(((0, X),)) != History(((1, X),))
    assert FixedHorizon(3) != FixedHorizon(4)
    assert GeometricDiscount(F(1, 2), 4) != GeometricDiscount(F(1, 3), 4)


def test_objects_of_different_classes_are_never_equal():
    assert FixedHorizon(3) != MovingHorizon(3)
    assert not FixedHorizon(3) == MovingHorizon(3)
    assert FixedHorizon(3) != 3
    assert Percept(F(1), 0) != (F(1), 0)
    assert len({FixedHorizon(3), MovingHorizon(3)}) == 2
    row = SelectionRow(1, "9:088", F(1), True, True, 0, 4)
    assert row != tuple(row) and tuple(row) != row
    assert not row == tuple(row) and not tuple(row) == row
    assert row != Claim(F(1), 0)
    assert len({row, tuple(row)}) == 2


def test_repr_names_the_class_and_its_fields():
    assert repr(FixedHorizon(3)) == "FixedHorizon(m=3)"
    assert repr(Percept(F(1, 2), 1)) == "Percept(reward=Fraction(1, 2), observation=1)"
    assert repr(EMPTY_HISTORY) == "History(cycles=())"
    assert repr(SelectionRow(2, "9:088", F(1, 2), True, False, 1, 4)) == (
        "SelectionRow(cycle=2, candidate='9:088', claimed_w=Fraction(1, 2), valid=True, "
        "selected=False, action=1, steps_used=4)"
    )


def test_an_extended_candidate_refuses_a_new_attribute():
    c = ExtendedCandidate.from_oracle("silent", lambda h: Claim(0, 0))
    with pytest.raises(AttributeError):
        c.extra = 1
    c.cycles_run = 1  # its own attributes stay assignable
    assert c.copy().cycles_run == 1


def test_percept_keeps_its_cached_hash():
    x = Percept(F(1, 2), 1)
    assert hash(x) == hash((F(1, 2), 1)) == x._hash


def test_constructors_coerce_rationals():
    assert isinstance(Percept(1).reward, F)
    assert Alphabet(rewards=(0, 1)).rewards == (F(0), F(1))
    assert isinstance(Claim(1, 0).w, F)
    assert ProportionalHorizon(1).beta == F(1)


def test_specs_compare_by_value():
    def game():
        return GameSpec(1, 1, 1, {(0, 0): 1})

    def function_class():
        return FunctionClassSpec(1, (0, 1), (((1,), 1),))

    def relation():
        return RelationSpec(1, 1, {(0, 0)}, (((0, 0), 1),))

    for make in (game, function_class, relation):
        assert make() == make()
    assert game() != GameSpec(1, 1, 1, {(0, 0): 0})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Percept(-1),
        lambda: Percept(0, -1),
        lambda: Alphabet(0),
        lambda: Alphabet(2, 0),
        lambda: Alphabet(rewards=(-1, 0)),
        lambda: Alphabet(rewards=(1, 0)),
        lambda: Alphabet(rewards=(0, 0)),
        lambda: FixedHorizon(0),
        lambda: MovingHorizon(0),
        lambda: ProportionalHorizon(0),
        lambda: GeometricDiscount(1, 3),
        lambda: GeometricDiscount(F(1, 2), 0),
        lambda: RunBudget(0),
        lambda: Claim(-1, 0),
        lambda: ValueQuery(make_heavenhell(0), EMPTY_HISTORY, 2, 3),
        lambda: ValueQuery(make_heavenhell(0), EMPTY_HISTORY, 1, 0),
        lambda: GameSpec(0, 1, 1, {}),
        lambda: GameSpec(1, 1, 1, {}),
        lambda: GameSpec(1, 1, 1, {(0, 0): -1}),
        lambda: FunctionClassSpec(1, (1, 0), (((0,), 1),)),
        lambda: FunctionClassSpec(1, (0, 1), (((0,), F(1, 2)),)),
        lambda: FunctionClassSpec(1, (0, 1), (((2,), 1),)),
        lambda: RelationSpec(1, 1, set(), (((0, 0), F(1, 2)),)),
        lambda: RelationSpec(1, 1, set(), (((1, None), 1),)),
        lambda: RelationSpec(1, 2, {(0, 0)}, (((0, 1), 1),)),
    ],
)
def test_constructors_reject_what_they_rejected_before(build):
    with pytest.raises(ValueError):
        build()


def test_scenario_config_extras_are_not_shared():
    a = ScenarioConfig("lazy", "informed", 4, FixedHorizon(4), 6, 64, 0)
    b = ScenarioConfig("lazy", "informed", 4, FixedHorizon(4), 6, 64, 0)
    a.extras["i"] = "1"
    assert b.extras == {}
    a.seed = 3  # a config stays mutable: --seed overrides it
    assert a.seed == 3
