"""The planner's sums on integer masses and scaled rewards, against their
``Fraction`` forms in ``tests/reference.py``.

``planner._plan`` carries U = D * T * V (D the alphabet's reward scale, T the
model's mass at the node), ``planner.functional_value``'s walk sums child
mass times scaled reward, and ``planner.sample_percept`` draws on the row
scaled to ints.  Each must give the exact decisions, values and draws of the
normalized ``Fraction`` computation, and none of them builds a ``Fraction``
or divides."""

import ast
import inspect
import os
import random
import sys
import textwrap
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimix import planner
from unimix.cli import parse_config, run_scenario
from unimix.core import (
    Alphabet,
    CapacityError,
    EMPTY_HISTORY,
    FixedHorizon,
    GeometricDiscount,
    MovingHorizon,
    ProportionalHorizon,
    append_cycle,
    horizon_end,
)
from unimix.domains import FunctionClassSpec, make_fm_env, uniform_function_class
from unimix.models import (
    MixtureNode,
    UndefinedConditionalError,
    build_class_mixture,
    build_mixture,
    random_tabular,
)
from unimix.planner import (
    ProgramStepper,
    ValueQuery,
    _fed,
    _plan,
    env_node,
    functional_value,
    sample_percept,
)
from unimix.vm import FRESH, RunBudget, enumerate_programs, env_step

import reference

F = Fraction
HALVES = (F(0), F(1, 2), F(1))  # a reward scale D of 2
ALPHABETS = (
    Alphabet(num_actions=2, num_observations=1, rewards=(F(0), F(1))),
    Alphabet(num_actions=2, num_observations=1, rewards=HALVES),
    Alphabet(num_actions=3, num_observations=2, rewards=HALVES),
)
# Pools of programs of at most 12 bits, the shortest that emit a positive
# reward, with at least one that emits a nonzero symbol on its first cycle.
PROGRAMS = enumerate_programs(12)
EMITTERS = [
    q for q in PROGRAMS
    if any((env_step(q, FRESH, y, RunBudget(8)) or (0,))[0] for y in (0, 1))
]
POOLS = st.builds(
    lambda some, rest: list(dict.fromkeys(some + rest)),
    st.lists(st.sampled_from(EMITTERS), min_size=1, max_size=4),
    st.lists(st.sampled_from(PROGRAMS), max_size=20),
)
HORIZONS = st.one_of(
    st.builds(FixedHorizon, st.integers(1, 4)),
    st.builds(MovingHorizon, st.integers(1, 3)),
    st.builds(ProportionalHorizon, st.sampled_from((F(1, 2), F(1), F(3, 2)))),
    st.builds(GeometricDiscount, st.sampled_from((F(1, 2), F(2, 3))), st.integers(1, 4)),
)


# --- The AST guard -----------------------------------------------------------


def _function(obj, name=None):
    """The AST of a function, or of the function ``name`` nested in it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    if name is None:
        return tree.body[0]
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _fractions_and_divisions(fn):
    """Each ``Fraction(...)`` call and ``/`` operator in fn, by line."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "Fraction") or (
                isinstance(f, ast.Attribute) and f.attr == "Fraction"
            ):
                yield node.lineno, "Fraction(...)"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "/"


def test_the_integer_sums_build_no_fraction_and_divide_nowhere():
    for fn in (
        _function(planner._plan),
        _function(planner.functional_value, "walk"),
        _function(planner.sample_percept),
    ):
        assert list(_fractions_and_divisions(fn)) == [], fn.name
    # A split may build a Fraction for a nested mixture's mass, but never
    # divides: ``/`` on two ints is a float.
    split = _function(MixtureNode.split)
    assert [op for _, op in _fractions_and_divisions(split)] in ([], ["Fraction(...)"])


# --- The expectimax ----------------------------------------------------------


@st.composite
def fm_worlds(draw):
    zs = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3)))
    tables = uniform_function_class(draw(st.integers(1, 2)), tuple(map(F, zs))).prior
    chosen = draw(st.lists(st.sampled_from(tables), min_size=1, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in chosen]
    prior = tuple((f, F(w, sum(weights))) for (f, _), w in zip(chosen, weights))
    return make_fm_env(FunctionClassSpec(len(chosen[0][0]), tuple(map(F, zs)), prior))


def _percepts(row, alphabet):
    """Mostly a percept of positive mass in the row, else any percept."""
    some = [x for x, p in row.items() if p]
    anything = st.sampled_from(alphabet.percepts())
    return st.one_of(st.sampled_from(some), st.sampled_from(some), anything) if some else anything


@st.composite
def planning_cases(draw):
    """A model, a horizon, a lifetime, a history (of positive mass or not),
    and a memo cap that some decisions pass."""
    kind = draw(st.sampled_from(("tabular", "fm", "programs", "classes")))
    alphabet = draw(st.sampled_from(ALPHABETS))
    lifetime = draw(st.integers(1, 4))
    if kind == "tabular":
        seed = draw(st.integers(0, 2**16))
        model = random_tabular(alphabet, draw(st.integers(1, 3)), random.Random(seed))
    elif kind == "fm":
        model = draw(fm_worlds())
    else:
        pool = draw(POOLS)
        budget = RunBudget(draw(st.integers(1, 8)))  # small enough to time out
        if kind == "programs":
            model = build_mixture(pool, budget, alphabet)
        else:
            model = build_class_mixture(pool, budget, alphabet, lifetime, draw(st.booleans()))
    h = EMPTY_HISTORY
    for _ in range(draw(st.integers(0, lifetime - 1))):
        y = draw(st.sampled_from(model.alphabet.actions()))
        try:
            row = model.cond_map(h, y)
        except UndefinedConditionalError:  # h has no mass
            row = {}
        h = append_cycle(h, y, draw(_percepts(row, model.alphabet)))
    cap = draw(st.sampled_from((planner.PLAN_MEMO_CAP, 1, 3, 10)))
    return model, draw(HORIZONS), lifetime, h, cap


def _outcome(f):
    try:
        return f()
    except (UndefinedConditionalError, CapacityError) as e:
        return type(e), str(e)


def _value(plan, scale):
    """A ``_plan`` plan as (y*, V), V = U / (D * T)."""
    y, u, t = plan
    return y, F(u, scale * t)


@settings(max_examples=250, deadline=None)
@given(planning_cases())
def test_the_integer_expectimax_equals_the_fraction_expectimax(case):
    """Every decision and value, at the top and at every solved node, and
    every error, is the ``Fraction`` expectimax's, for all actions and for
    each action alone, each side on one memo."""
    model, horizon, lifetime, h, cap = case
    k = len(h) + 1
    q = ValueQuery(model, h, k, horizon_end(horizon, k, lifetime), horizon)
    scale = model.alphabet.reward_scale
    new_memo, old_memo = {}, {}
    with mock.patch.object(planner, "PLAN_MEMO_CAP", cap):
        for actions in [None] + [(y,) for y in model.alphabet.actions()]:
            new = _outcome(
                lambda: _value(_plan(q, h, k, model.state(h), actions, new_memo), scale)
            )
            old = _outcome(
                lambda: reference.fraction_plan(q, h, k, model.state(h), actions, old_memo)
            )
            assert new == old
            assert {node: _value(p, scale) for node, p in new_memo.items()} == old_memo


def test_an_informed_fm_run_builds_fractions_only_for_its_reported_values(monkeypatch):
    """The planner and the world's percept draws read the mixture's integer
    weights; ``planner.py`` and ``models.py`` build a ``Fraction`` only to
    report each decision's value, one a cycle."""
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        caller = sys._getframe(1).f_code
        if os.path.basename(caller.co_filename) in ("planner.py", "models.py"):
            built.append(caller.co_name)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for seed in (0, 1):
        built.clear()
        run_scenario(parse_config(
            f"scenario=fm\nagent=informed\nclass=uniform16\nlifetime=3\nseed={seed}\n"
        ))
        assert built == ["_plan_value"] * 3


# --- The percept draw --------------------------------------------------------


@st.composite
def percept_rows(draw):
    """A row over 1-16 percepts of int or ``Fraction`` entries, some of them
    0, summing to at most 1 or to anything."""
    alphabet = Alphabet(
        num_actions=1,
        num_observations=draw(st.integers(1, 8)),
        rewards=draw(st.sampled_from(((F(0),), (F(0), F(1))))),
    )
    chosen = draw(st.lists(st.sampled_from(alphabet.percepts()), min_size=1, unique=True))
    if draw(st.booleans()):
        entries = st.integers(0, 5)
    else:
        entries = st.builds(F, st.integers(0, 12), st.integers(1, 12))
    row = {x: draw(entries) for x in chosen}
    if draw(st.booleans()) and sum(row.values()) > 1:  # sub-normalized
        total = sum(row.values())
        row = {x: F(p) / (total * draw(st.integers(1, 3))) for x, p in row.items()}
    return alphabet, row


@settings(max_examples=400, deadline=None)
@given(percept_rows(), st.integers(0, 2**32))
def test_the_integer_draw_is_the_fraction_draw(case, seed):
    """The same percept, or the same error, and the same generator state."""
    alphabet, row = case
    rngs = random.Random(seed), random.Random(seed)
    draws = [
        _outcome(lambda: draw(rng, row, alphabet))
        for draw, rng in zip((sample_percept, reference.sample_percept), rngs)
    ]
    assert draws[0] == draws[1]
    assert rngs[0].getstate() == rngs[1].getstate()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 15),
    st.integers(0, 2**70) | st.builds(F, st.integers(0, 2**40), st.integers(1, 2**40)),
    st.integers(0, 2**32),
)
@example(1, 0, 0, 0)
@example(8, 15, F(0, 7), 1)
def test_a_one_percept_draw_is_the_scaled_draw(observations, index, weight, seed):
    """A row of one percept of any int or ``Fraction`` weight: the percept,
    or for a zero weight the error, and the generator state of the draw on
    the row scaled to ints."""
    alphabet = Alphabet(num_actions=1, num_observations=observations, rewards=(F(0), F(1)))
    row = {alphabet.percepts()[index % alphabet.num_percepts]: weight}
    rngs = random.Random(seed), random.Random(seed)
    draws = [
        _outcome(lambda: draw(rng, row, alphabet))
        for draw, rng in zip((sample_percept, reference.scaled_sample_percept), rngs)
    ]
    assert draws[0] == draws[1]
    assert rngs[0].getstate() == rngs[1].getstate()
    if not weight:
        assert draws[0][0] is UndefinedConditionalError


# --- The rollout value -------------------------------------------------------


@st.composite
def rollout_cases(draw):
    """A pool, a budget small enough to time out, a policy program, a
    horizon, and a history of 0-2 cycles, of positive mass or not."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    pool = draw(POOLS)
    budget = RunBudget(draw(st.integers(1, 8)))
    k = draw(st.integers(1, 3))
    lifetime = k + draw(st.integers(0, 2))
    horizon = draw(st.sampled_from(
        (FixedHorizon(lifetime), MovingHorizon(2), GeometricDiscount(F(1, 2), lifetime))
    ))
    h, node = EMPTY_HISTORY, env_node(pool, EMPTY_HISTORY, budget, alphabet)
    for _ in range(k - 1):
        y = draw(st.sampled_from(alphabet.actions()))
        x = draw(_percepts(node.step(h, y), alphabet))
        node, h = node.child(h, y, x), append_cycle(h, y, x)
    p = draw(st.sampled_from(PROGRAMS))
    return alphabet, pool, budget, p, k, horizon_end(horizon, k, lifetime), horizon, h


@settings(max_examples=150, deadline=None)
@given(rollout_cases())
def test_the_integer_rollout_sum_equals_the_fraction_sum(case):
    a, pool, budget, p, k, m, horizon, h = case
    values = []
    for value in (functional_value, reference.functional_value):
        act = ProgramStepper(p, budget, a)
        y = _fed(act, h)
        node = env_node(pool, h, budget, a)
        values.append(_outcome(lambda: value(node, y, act, k, m, h, horizon)))
    assert values[0] == values[1]
